"""dect_rx: seeded DECT bursts received by the compiled transceiver.

Each op is one burst: a freshly built transceiver (its RAMs start
empty) on ``CompiledSimulator`` receives a burst that went through
``severe_channel`` at a fixed SNR, with coefficients from host-side LMS
training.  A run receives one burst, a seeded draw from a pool of ``POOL`` bursts
whose reference outputs come from the interpreted ``CycleScheduler``,
again and again until its time is up.  Each op is timed in pieces of
``LAP`` cycles.
"""

from __future__ import annotations

import importlib
import time

import numpy as np

import refstore

NAME = "dect_rx"
UNIT = "cycles"
POOL = 32
POOL_SEED = 0xDEC7
SNR_DB = 18.0
MAX_CYCLES = 4200
#: Cycles per timed piece of a burst (about 2.5 ms).
LAP = 8


def burst_inputs(index: int):
    """Pool burst *index*: (chip samples, chip coefficients), exact floats."""
    dsp = importlib.import_module("repro.dsp")
    from repro.designs.dect import DectTransceiver

    rng = np.random.default_rng([POOL_SEED, index])
    a_payload, b_payload = dsp.random_payloads(rng)
    burst = dsp.build_burst(a_payload, b_payload)
    samples = dsp.modulate(burst.bits, 8)
    rx = dsp.severe_channel(8).apply(samples, rng, snr_db=SNR_DB)
    equalizer = dsp.ComplexLmsEqualizer()
    equalizer.train(rx, burst.bits[:32])
    coefficients = DectTransceiver.chip_coefficients(equalizer.weights)
    chip_samples = [complex(s) for s in rx[::4]]
    coefficients = [complex(c) for c in coefficients]
    return chip_samples, coefficients


def input_key(samples, coefficients) -> str:
    return refstore.digest(np.asarray(samples, dtype=complex).tobytes(),
                           np.asarray(coefficients, dtype=complex).tobytes())


def outputs_of(result) -> dict:
    return {
        "cycles": int(result["cycles"]),
        "status": int(result["status"]),
        "a_bits": "".join(str(int(b)) for b in result["a_bits"]),
        "b_bits": "".join(str(int(b)) for b in result["b_bits"]),
    }


def reference(item) -> dict:
    """The interpreted engine's outputs for one burst (~11 s)."""
    from repro.designs.dect import DectTransceiver

    samples, coefficients = item
    result = DectTransceiver().run_burst(samples, coefficients,
                                         max_cycles=MAX_CYCLES)
    return outputs_of(result)


def mismatches(expected: dict, got: dict) -> list:
    """Fields of *got* that differ from *expected* (empty = correct)."""
    return [field for field in ("cycles", "status", "a_bits", "b_bits")
            if expected[field] != got[field]]


class Workload:
    name = NAME
    unit = UNIT
    forks = False

    def __init__(self, seed: int):
        self.slot = int(np.random.default_rng(seed).integers(POOL))
        self.item = None
        self.refs = refstore.RefTable(refstore.load(NAME).get("bursts", {}),
                                      reference)

    def setup(self, laps):
        """Imports, capture, lowering, passes, codegen and ``compile()``.

        The clock is read into *laps* after each step.
        """
        clock, lap = time.perf_counter, laps.append
        self.sim = importlib.import_module("repro.sim")
        lap(clock())
        self.dect = importlib.import_module("repro.designs.dect")
        lap(clock())
        chip = self.dect.build_transceiver()
        lap(clock())
        simulator = self.sim.CompiledSimulator(
            chip.system, watch=[chip.ack, chip.pc, chip.status])
        return {"generated_size": simulator.ir_op_count}

    def prepare(self):
        if self.item is None:
            self.item = burst_inputs(self.slot)
        return self.item

    def run(self, item, laps):
        """Receive one burst on a freshly built transceiver.

        The host side paces samples by the chip's LOAD acks and follows
        the coefficient-load sequencer, as
        ``DectTransceiver.run_burst_compiled`` does.  The clock is read
        into *laps* once the simulator is built and every ``LAP``
        cycles after that.
        """
        clock, lap = time.perf_counter, laps.append
        samples, coefficients = item
        chip = self.dect.build_transceiver()
        simulator = self.sim.CompiledSimulator(
            chip.system, watch=[chip.ack, chip.pc, chip.status])
        step, output, snapshot = (simulator.step, simulator.output,
                                  simulator.snapshot)
        ack, pc = chip.ack, chip.pc
        pointer = coef_index = 0
        last_coef = len(coefficients) - 1
        done_pc = len(chip.irom.words) - 1
        lap(clock())
        for cycle in range(1, MAX_CYCLES + 1):
            sample = samples[pointer] if pointer < len(samples) else 0j
            coef = coefficients[min(coef_index, last_coef)]
            step({"sample_i": sample.real, "sample_q": sample.imag,
                  "hold_request": 0,
                  "ctl_coef_re": coef.real, "ctl_coef_im": coef.imag})
            if int(output(ack)):
                pointer += 1
            if coef_index < last_coef:
                coef_index = int(snapshot()["coefadr_addr"])
            if int(output(pc)) == done_pc and pointer > 16:
                break
            if cycle % LAP == 0:
                lap(clock())
        return {"cycles": simulator.cycle,
                "status": int(output(chip.status)),
                "a_bits": chip.rams["out_a"].dump(),
                "b_bits": chip.rams["out_b"].dump()}

    def finish(self, item, result) -> dict:
        return {"key": input_key(*item), "item": item,
                "out": outputs_of(result), "work": result["cycles"]}

    def check(self, records) -> tuple:
        """(ops, failed): one op per burst."""
        failed = 0
        for record in records:
            expected = self.refs.expected(record["key"], record["item"])
            if mismatches(expected, record["out"]):
                failed += 1
        return len(records), failed
