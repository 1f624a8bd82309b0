#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload dect_rx --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/BENCHMARK.md``): ``dect_rx``, ``hcor_lanes``,
``hcor_faults``, or ``all`` to run each in turn.  Each is
a closed loop with one client.
With ``--trace 0`` the end-to-end metrics are measured untraced; with
``--trace 1`` half the time runs untraced and half under the per-layer
wrappers of ``layers.py``, the spans land in
``.perfbench_out/<workload>/spans.jsonl`` (``python -m repro.obs report
.perfbench_out/<workload>`` renders them) and every per-layer metric is
reported.  Every output is checked against a reference from an
independent engine.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from contextlib import nullcontext

import harness

WORKLOADS = ("dect_rx", "hcor_lanes", "hcor_faults")
#: Cold set-ups per run, each in a fresh interpreter, spread evenly over
#: the measured time.
SETUPS = 11
#: (name, unit) of the end-to-end metrics, reported on every workload.
END_TO_END = (("setup_s", "s"), ("work_per_s", "1/s"),
              ("generated_size", "count"), ("peak_rss_mb", "MB"))


def load_workload(name: str, seed: int):
    module = __import__(f"wl_{name}")
    return module.Workload(seed)


class ColdSetups:
    """The cold set-ups of one run, taken between ops.

    Each set-up runs in a fresh interpreter (``--setup-only``), so it
    pays every import of the program and leaves nothing behind in the
    measuring process.  Set-up *i* runs at the first op boundary after
    ``i / SETUPS`` of the ops' measured time, so a slow phase of a
    shared host covers only some of them.  Each is timed in pieces, one
    per set-up step, and ``best_seconds()`` sums each piece's fastest
    time (``quiet_seconds``).  The wall time they take (``spent``) does
    not count towards the ops' measured time.
    """

    def __init__(self, name: str, seed: int, seconds: float):
        self.argv = [sys.executable, __file__, "--workload", name,
                     "--seed", str(seed), "--seconds", "0", "--setup-only"]
        self.seconds = seconds
        self.runs = []
        self.spent = 0.0

    def due(self, elapsed: float) -> None:
        while len(self.runs) < SETUPS and \
                elapsed >= len(self.runs) * self.seconds / SETUPS:
            self.take()

    def finish(self) -> None:
        while len(self.runs) < SETUPS:
            self.take()

    def take(self) -> None:
        t0 = time.perf_counter()
        out = subprocess.run(self.argv, check=True, capture_output=True,
                             text=True).stdout
        self.spent += time.perf_counter() - t0
        self.runs.append(json.loads(out.splitlines()[-1]))

    def seconds_each(self) -> list:
        return [r["seconds"] for r in self.runs]

    def best_seconds(self) -> float:
        return quiet_seconds(self.runs)


def measure(workload, seconds: float, wrap=None, memory=None, setups=None):
    """The closed loop: prepare (untimed), run (timed), finish and check
    (untimed).

    Every op of a run is the same input, so its runs are spread over
    the whole measured time.  Garbage is collected as the program would
    collect it, inside the op that made it or a later one.  *memory* (a
    ``TreeMemory``) samples each op while it runs; *setups*
    (``ColdSetups``) take their turns between ops.
    """
    records = []
    start = time.perf_counter()

    def elapsed() -> float:
        return time.perf_counter() - start - (setups.spent if setups else 0)

    index = 0
    while True:
        if setups is not None:
            setups.due(elapsed())
        item = workload.prepare()
        laps = []
        with memory.op() if memory is not None else nullcontext():
            if wrap is None:
                t0 = time.perf_counter()
                result = workload.run(item, laps)
                t1 = time.perf_counter()
            else:
                result, t0, t1 = wrap(index, item, laps)
        record = workload.finish(item, result)
        ops, failed = workload.check([record])
        # Each op is checked at once and only its figures are kept: a
        # run holding every op's outputs would grow with its op count,
        # and so would its peak RSS.
        records.append({"seconds": t1 - t0, "pieces": pieces(t0, laps, t1),
                        "work": record["work"], "ops": ops,
                        "failed": failed})
        item = result = record = None
        index += 1
        if elapsed() >= seconds:
            if setups is not None:
                setups.finish()
            return records


def pieces(t0: float, laps: list, t1: float) -> list:
    """The times between a start, its laps and an end."""
    marks = [t0] + laps + [t1]
    return [b - a for a, b in zip(marks, marks[1:])]


def op_rates(records) -> list:
    """Each op's work over its own time."""
    return [r["work"] / r["seconds"] for r in records]


def quiet_seconds(runs) -> float:
    """One input's time over its *runs*, the host's noise taken out.

    The program is deterministic, so every run of one input does the
    same work between the same laps.  Each piece between two laps is
    taken at its fastest over the runs, which are spread over the whole
    measured time, and the pieces are summed.  A piece of a few
    milliseconds that a slow phase of the shared host covers in one run
    is quiet in another, so the sum is the program's own time, not the
    host's.  An op that is one piece (a campaign, whose work runs in
    the runner's worker processes) lasts seconds and never fits into a
    quiet stretch, so its fastest run is only the luckiest draw of the
    host; such ops, and runs that do not split alike, take the median
    run instead.
    """
    pieces = [r["pieces"] for r in runs]
    if len(pieces[0]) > 1 and len({len(p) for p in pieces}) == 1:
        return sum(min(column) for column in zip(*pieces))
    return harness.median([r["seconds"] for r in runs])


def work_per_s(records) -> float:
    """The op's work over its time, as ``quiet_seconds`` finds it.

    The figure belongs to one real input (a burst, a batch, a campaign)
    timed whole, from building its simulator (or starting the runner) to
    its last cycle.  The per-op rates, median and tail, are in the
    detail record.
    """
    return records[0]["work"] / quiet_seconds(records)


def traced_run(workload, seconds: float):
    """Untraced then traced halves.

    Returns (op records, per-layer metrics, detail, the probe's
    (ops, failed)).
    """
    import layers

    untraced = measure(workload, seconds / 2)
    out_dir = harness.OUT / workload.name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    trace = layers.LayerTrace()
    trace.install()
    with trace.unit("setup"):
        workload.setup([])

    def wrap(index, item, laps):
        kwargs = {}
        if workload.name == "hcor_faults":
            kwargs = {"tracer": trace.tracer,
                      "capture_dir": str(out_dir / f"runner_op{index}")}
        with trace.unit("op", index=index) as scope:
            t0 = time.perf_counter()
            result = workload.run(item, laps, **kwargs)
            t1 = time.perf_counter()
            if workload.name == "hcor_faults":
                scope.stats.append(result.stats)
        return result, t0, t1

    traced = measure(workload, seconds / 2, wrap=wrap)
    untraced_rate = work_per_s(untraced)
    traced_rate = work_per_s(traced)
    extra, probe = probes(workload, trace)
    extra["trace.overhead_pct"] = (untraced_rate / traced_rate - 1.0) * 100
    metrics = trace.metrics(extra)
    trace.restore()
    with open(out_dir / "spans.jsonl", "w", encoding="utf-8") as handle:
        trace.tracer.write_jsonl(handle)
    report = render_spans(out_dir)
    detail = {"self_s": {k: round(v, 6) for k, v
                         in trace.self_times().items()},
              "report_lines": report.count("\n") + 1,
              "untraced_work_per_s": untraced_rate,
              "traced_work_per_s": traced_rate}
    return untraced + traced, metrics, detail, probe


def probes(workload, trace) -> tuple:
    """Layer measurements a single op cannot give, run after the loop.

    Returns (metrics, (ops, failed) of the probe's reference check).
    """
    extra = {}
    probe = (0, 0)
    source = trace.sources.get("compiled")
    if source is not None:
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            compile(source, "<perfbench>", "exec")
            times.append(time.perf_counter() - t0)
        extra["sim.compiled.pycompile_s"] = harness.median(times)
    if workload.name == "hcor_faults":
        # Wrappers in this process cannot see forked runner workers, so
        # the gate-level layers are measured on an in-process campaign.
        with trace.unit("extra", key="serial_campaign"):
            job = workload.job()
            netlist = job.build_netlist()
            campaign = job.make_campaign(netlist)
            report = campaign.run()
        extra["synth.gatesim.gate_evals"] = campaign.gate_evals
        probe = workload.check([{"report": report}])
    return extra, probe


def render_spans(out_dir) -> str:
    """Render the trace through the program's own obs report."""
    from repro.obs.report import load_capture, render_text

    return render_text(load_capture(str(out_dir)))


def setup_only(workload) -> int:
    """Time one set-up in this (fresh) process; print it as JSON."""
    laps = []
    t0 = time.perf_counter()
    workload.setup(laps)
    t1 = time.perf_counter()
    print(json.dumps({"seconds": t1 - t0, "pieces": pieces(t0, laps, t1)}))
    return 0


def selftest() -> None:
    """The checker self-test, in a process of its own."""
    done = subprocess.run([sys.executable, str(harness.HERE / "selftest.py")],
                          capture_output=True, text=True)
    if done.returncode:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit("perfbench: checker self-test failed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        # Each workload in its own process: imports, patches and the
        # peak RSS of one never leak into the next.
        for name in WORKLOADS:
            subprocess.run([sys.executable, __file__, "--workload", name,
                            "--seed", str(args.seed),
                            "--seconds", str(args.seconds),
                            "--trace", str(args.trace)], check=True)
        return 0

    try:
        harness.attach_source()
    except harness.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workload = load_workload(args.workload, args.seed)
    if args.setup_only:
        return setup_only(workload)

    selftest()
    calibration_start = harness.calibration_ms()
    setup_info = workload.setup([])
    detail = {}
    if args.trace:
        records, metrics_raw, detail, probe = traced_run(workload,
                                                         args.seconds)
    else:
        setups = ColdSetups(args.workload, args.seed, args.seconds)
        with harness.TreeMemory() as memory:
            records = measure(workload, args.seconds, setups=setups,
                              memory=memory if workload.forks else None)
        probe = (0, 0)
        metrics_raw = {
            "setup_s": setups.best_seconds(),
            "work_per_s": work_per_s(records),
            "generated_size": setup_info["generated_size"],
            "peak_rss_mb": (memory.peak_mb() if workload.forks
                            else harness.peak_rss_mb()),
        }
        detail["setup_s_each"] = setups.seconds_each()
        if workload.forks:
            detail["op_peak_mb"] = [kb / 1024.0 for kb in memory.peaks_kb]
    ops = probe[0] + sum(r["ops"] for r in records)
    failed = probe[1] + sum(r["failed"] for r in records)
    calibration_end = harness.calibration_ms()

    if args.trace:
        import layers

        units = {name: unit for name, unit, _b in layers.LAYER_METRICS}
    else:
        units = dict(END_TO_END)
    metrics = {name: {"value": metrics_raw[name], "unit": unit}
               for name, unit in units.items()}
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "fingerprint": harness.fingerprint(),
        "calibration_ms": {"start": calibration_start,
                           "end": calibration_end},
        "work_unit": workload.unit,
        "ops_timed": len(records),
        "op_s": harness.timing_summary([r["seconds"] for r in records]),
        "op_rate": harness.timing_summary(op_rates(records)),
        "ops": ops, "ops_failed": failed,
        "fail_frac": failed / ops if ops else 1.0,
        **detail,
    }
    for name, entry in metrics.items():
        print(f"{args.workload:<12} {name:<28} {entry['value']:>14.6g} "
              f"{entry['unit']}")
    print(f"{args.workload:<12} {'ops':<28} {ops:>14d}")
    print(f"{args.workload:<12} {'ops_failed':<28} {failed:>14d}")
    print(json.dumps({"detail": record}, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": ops,
                      "failed": failed, "metrics": metrics}))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
