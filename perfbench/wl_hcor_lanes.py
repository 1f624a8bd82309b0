"""hcor_lanes: 64 soft-symbol streams as one batch on the vectorized engine.

Each op captures HCOR, builds ``BatchedCompiledSimulator(lanes=64)``
and steps one ``StimulusBatch`` of 64 streams to the end, reading the
sync / locked / corr outputs every cycle.  A run steps one batch again
and again until its time is up.  The batch's 64 streams are a seeded
draw (without replacement) from a pool of ``POOL`` streams, each a
noisy NRZ lead-in, an embedded RFP sync word and burst, and a noisy
tail.  Each op is timed in pieces of ``LAP`` cycles.  References
come from the interpreted ``CycleScheduler``.
"""

from __future__ import annotations

import importlib
import time

import numpy as np

import refstore

NAME = "hcor_lanes"
UNIT = "lane-cycles"
LANES = 64
POOL = 256
POOL_SEED = 0x4C04
CYCLES = 600
#: Cycles per timed piece of a batch (about 2 ms).
LAP = 4


def stream(index: int):
    """Pool stream *index*: ``CYCLES`` soft symbols as Python floats."""
    from repro.dsp.dect import B_FIELD_BITS, SYNC_RFP

    rng = np.random.default_rng([POOL_SEED, index])
    lead = int(rng.integers(8, 120))
    payload = rng.integers(0, 2, size=64 + B_FIELD_BITS).tolist()
    bits = list(SYNC_RFP) + payload
    symbols = np.concatenate([
        rng.normal(scale=0.6, size=lead),
        (2.0 * np.asarray(bits, dtype=float) - 1.0)
        * rng.uniform(0.6, 1.4),
    ])
    symbols = np.concatenate([symbols,
                              rng.normal(scale=0.6, size=CYCLES)])[:CYCLES]
    symbols = symbols + rng.normal(scale=0.35, size=CYCLES)
    return [float(v) for v in symbols]


def stream_key(values) -> str:
    return refstore.digest(np.asarray(values, dtype=float).tobytes())


def lane_outputs(sync, locked, corr) -> dict:
    """Per-lane check fields from that lane's raw output sequences."""
    sync = [int(v) for v in sync]
    locked = [int(v) for v in locked]
    corr = np.asarray([int(v) for v in corr], dtype=np.int64)
    return {
        "sync": [c for c, v in enumerate(sync) if v],
        "lock": [c for c in range(len(locked))
                 if locked[c] != (locked[c - 1] if c else 0)],
        "corr": refstore.digest(corr.tobytes()),
    }


def _raw(token) -> int:
    return int(getattr(token, "raw", token))


def reference(values) -> dict:
    """The interpreted engine's per-lane outputs for one stream."""
    from repro.designs.hcor import build_hcor
    from repro.sim import CycleScheduler

    design = build_hcor()
    scheduler = CycleScheduler(design.system)
    rows = {"sync": [], "locked": [], "corr": []}
    channels = {"sync": design.sync_found, "locked": design.locked,
                "corr": design.corr_out}
    for value in values:
        scheduler.step({design.soft_in: value})
        for name, chan in channels.items():
            rows[name].append(_raw(chan.value))
    return lane_outputs(rows["sync"], rows["locked"], rows["corr"])


class Workload:
    name = NAME
    unit = UNIT
    forks = False

    def __init__(self, seed: int):
        self.picks = np.random.default_rng(seed).choice(
            POOL, size=LANES, replace=False).tolist()
        self.pool = {}
        self.item = None
        self.refs = refstore.RefTable(refstore.load(NAME).get("streams", {}),
                                      reference)

    def setup(self, laps):
        """Imports, capture, lowering, passes, codegen and ``compile()``.

        The clock is read into *laps* after each step.
        """
        clock, lap = time.perf_counter, laps.append
        self.sim = importlib.import_module("repro.sim")
        lap(clock())
        self.hcor = importlib.import_module("repro.designs.hcor")
        lap(clock())
        design = self.hcor.build_hcor()
        lap(clock())
        simulator = self.sim.BatchedCompiledSimulator(
            design.system, lanes=LANES,
            watch=[design.sync_found, design.locked, design.corr_out])
        return {"generated_size": simulator.ir_op_count}

    def prepare(self):
        if self.item is None:
            for slot in self.picks:
                self.pool[slot] = stream(slot)
            programs = [[{"soft": v} for v in self.pool[slot]]
                        for slot in self.picks]
            self.item = self.picks, self.sim.StimulusBatch(programs)
        return self.item

    def run(self, item, laps):
        """One batch, the outputs read back every cycle.

        The clock is read into *laps* once the simulator is built and
        every ``LAP`` cycles after that.
        """
        clock, lap = time.perf_counter, laps.append
        _picks, batch = item
        design = self.hcor.build_hcor()
        simulator = self.sim.BatchedCompiledSimulator(
            design.system, lanes=LANES,
            watch=[design.sync_found, design.locked, design.corr_out])
        rows = []
        output_raw = simulator.output_raw
        lap(clock())
        for cycle in range(batch.cycles):
            simulator.step(batch.pins_at(cycle))
            rows.append((np.array(output_raw("sync")),
                         np.array(output_raw("locked")),
                         np.array(output_raw("corr"))))
            if (cycle + 1) % LAP == 0:
                lap(clock())
        return rows

    def finish(self, item, rows) -> dict:
        picks, _batch = item
        sync = np.stack([r[0] for r in rows])
        locked = np.stack([r[1] for r in rows])
        corr = np.stack([r[2] for r in rows])
        lanes = [lane_outputs(sync[:, lane], locked[:, lane], corr[:, lane])
                 for lane in range(LANES)]
        return {"picks": picks, "lanes": lanes, "work": len(rows) * LANES}

    def check(self, records) -> tuple:
        """(ops, failed): one op per lane."""
        ops = failed = 0
        for record in records:
            for slot, got in zip(record["picks"], record["lanes"]):
                values = self.pool[slot]
                expected = self.refs.expected(stream_key(values), values)
                ops += 1
                if expected != got:
                    failed += 1
        return ops, failed
