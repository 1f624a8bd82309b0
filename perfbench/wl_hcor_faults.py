"""hcor_faults: the collapsed stuck-at campaign on HCOR through the runner.

Each op is one ``ShardedRunner(CampaignJob("hcor", lanes=64),
workers=2).run()`` over the full collapsed universe of the synthesized
HCOR netlist.  The run's stimulus seed is a seeded draw from a pool of
``POOL`` campaign seeds; every fault record of the merged report is
compared against the scalar ``lanes=1`` ``FaultCampaign`` report.
"""

from __future__ import annotations

import importlib
import time

import numpy as np

import refstore

NAME = "hcor_faults"
UNIT = "faults"
POOL = (11, 23, 37, 41)
CYCLES = 40
WORKERS = 2


def records_of(report) -> list:
    """One compact row per fault record, in the report's canonical order."""
    rows = []
    for result in report.results:
        fault = result.fault
        rows.append([fault.net, fault.value, bool(result.detected),
                     result.detect_cycle, result.detect_output,
                     result.class_size])
    return rows


def reference(job_seed: int) -> dict:
    """The scalar (one fault per replay) campaign's report (~80 s)."""
    from repro.runner.jobs import CampaignJob

    job = CampaignJob("hcor", cycles=CYCLES, seed=job_seed, lanes=1)
    netlist = job.build_netlist()
    report = job.run_serial(netlist)
    return {"netlist": netlist_key(netlist),
            "total": report.total_faults,
            "collapsed": report.collapsed_faults,
            "records": records_of(report)}


def netlist_key(netlist) -> str:
    """Structural digest of a netlist (interface, gates, initial values)."""
    parts = [netlist.name]
    for table in (netlist.inputs, netlist.outputs):
        parts.extend(f"{name}:{nets}" for name, nets in sorted(table.items()))
    parts.extend(f"{g.kind.value}{g.inputs}{g.output}/{g.init}"
                 for g in netlist.gates)
    return refstore.digest("\n".join(parts).encode())


def mismatched_records(expected: dict, report) -> int:
    """Fault records of *report* that differ from *expected*.

    A report of the wrong size counts every record it lacks (or adds).
    """
    got = records_of(report)
    want = expected["records"]
    failed = sum(1 for a, b in zip(want, got) if a != b)
    failed += abs(len(want) - len(got))
    if (report.total_faults, report.collapsed_faults) != \
            (expected["total"], expected["collapsed"]):
        failed = max(failed, 1)
    return failed


class Workload:
    name = NAME
    unit = UNIT
    #: The runner forks workers, whose memory counts in ``peak_rss_mb``.
    forks = True

    def __init__(self, seed: int):
        self.job_seed = int(np.random.default_rng(seed).choice(POOL))
        self.refs = refstore.RefTable(refstore.load(NAME).get("runs", {}),
                                      reference)

    def job(self, lanes: int = 64):
        jobs = importlib.import_module("repro.runner.jobs")
        return jobs.CampaignJob("hcor", cycles=CYCLES, seed=self.job_seed,
                                lanes=lanes)

    def setup(self, laps):
        """Imports, capture, synthesis and fault collapse.

        The clock is read into *laps* after each step.
        """
        clock, lap = time.perf_counter, laps.append
        self.runner = importlib.import_module("repro.runner")
        lap(clock())
        job = self.job()
        netlist = job.build_netlist()
        lap(clock())
        job.make_campaign(netlist)
        self.netlist_key = netlist_key(netlist)
        return {"generated_size": netlist.gate_count()}

    def prepare(self):
        return self.job()

    def run(self, job, laps, **runner_kwargs):
        """One sharded campaign, timed whole (*laps* stays empty)."""
        return self.runner.ShardedRunner(job, workers=WORKERS,
                                         **runner_kwargs).run()

    def finish(self, job, outcome) -> dict:
        return {"report": outcome.report, "stats": outcome.stats,
                "work": len(outcome.report.results)}

    def check(self, records) -> tuple:
        """(ops, failed): one op per fault record."""
        # Keyed by netlist too: a changed synthesis result is a new
        # fault universe, whose reference is computed afresh.
        key = f"{self.job_seed}:{self.netlist_key}"
        expected = self.refs.expected(key, self.job_seed)
        ops = failed = 0
        for record in records:
            ops += max(1, len(expected["records"]))
            failed += mismatched_records(expected, record["report"])
        return ops, failed
