"""Checker self-test: corrupted outputs must be counted as failed.

Each workload's own ``check`` is handed one correct op and one op with
a single corruption — a flipped decoded bit (dect_rx), a moved sync
cycle (hcor_lanes) and an altered ``detect_cycle`` (hcor_faults) — and
must report exactly one failed op.  ``run.py`` runs this, in a process
of its own, before every measurement; run it alone with
``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import sys

import harness


class CheckerBroken(AssertionError):
    """A checker passed a corrupted output (or failed a correct one)."""


def _expect(label: str, got: tuple, want: tuple) -> None:
    if got != want:
        raise CheckerBroken(f"{label}: checker returned (ops, failed) = "
                            f"{got}, expected {want}")


def check_dect_rx() -> None:
    import wl_dect_rx as wl

    good = {"cycles": 1666, "status": 3, "a_bits": "0110" * 16,
            "b_bits": "1001" * 128}
    bad = dict(good, a_bits="1" + good["a_bits"][1:])
    workload = wl.Workload(0)
    workload.refs.entries = {"k": good}
    records = [{"key": "k", "item": None, "out": good},
               {"key": "k", "item": None, "out": bad}]
    _expect("dect_rx flipped bit", workload.check(records), (2, 1))


def check_hcor_lanes() -> None:
    import wl_hcor_lanes as wl

    values = [0.5, -0.5, 0.25]
    good = {"sync": [7, 300], "lock": [7, 396], "corr": "abc"}
    bad = dict(good, sync=[8, 300])
    workload = wl.Workload(0)
    workload.pool = {0: values}
    workload.refs.entries = {wl.stream_key(values): good}
    records = [{"picks": [0, 0], "lanes": [good, bad]}]
    _expect("hcor_lanes moved sync", workload.check(records), (2, 1))


def check_hcor_faults() -> None:
    import wl_hcor_faults as wl
    from repro.verify.campaign import CampaignReport, FaultResult
    from repro.verify.faults import StuckAtFault

    def report(cycle):
        rep = CampaignReport(netlist_name="n", cycles=4, total_faults=3,
                             collapsed_faults=2)
        rep.results = [FaultResult(StuckAtFault(1, 0), True, cycle, "y", 2),
                       FaultResult(StuckAtFault(2, 1), False, None, None, 1)]
        return rep

    workload = wl.Workload(0)
    workload.netlist_key = "n"
    good = report(1)
    workload.refs.entries = {f"{workload.job_seed}:n": {
        "netlist": "n", "total": 3, "collapsed": 2,
        "records": wl.records_of(good)}}
    bad = report(2)
    _expect("hcor_faults correct report",
            workload.check([{"report": good}]), (2, 0))
    _expect("hcor_faults altered detect_cycle",
            workload.check([{"report": bad}]), (2, 1))


def run() -> None:
    check_dect_rx()
    check_hcor_lanes()
    check_hcor_faults()


if __name__ == "__main__":
    harness.attach_source()
    run()
    print("checker self-test: every corruption was counted as failed")
    sys.exit(0)
