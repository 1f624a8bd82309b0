#!/usr/bin/env python3
"""Regenerate the committed reference outputs under ``perfbench/refs``.

Every reference comes from an engine independent of the one each
workload measures:

* dect_rx — the interpreted ``CycleScheduler`` (~11 s per burst);
* hcor_lanes — the interpreted ``CycleScheduler``, one stream at a time;
* hcor_faults — the scalar ``lanes=1`` ``FaultCampaign`` (~80 s per seed).

Usage: ``python3 perfbench/make_refs.py [workload ...]`` (default: all).
Run it again only when the inputs or the program's outputs change; the
benchmark computes any missing reference on the fly, outside timing.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402
import refstore  # noqa: E402


def make_dect_rx() -> None:
    import wl_dect_rx as wl

    bursts = {}
    for index in range(wl.POOL):
        item = wl.burst_inputs(index)
        bursts[wl.input_key(*item)] = wl.reference(item)
    refstore.save(wl.NAME, {"pool": wl.POOL, "pool_seed": wl.POOL_SEED,
                            "snr_db": wl.SNR_DB, "bursts": bursts})


def make_hcor_lanes() -> None:
    import wl_hcor_lanes as wl

    streams = {}
    for index in range(wl.POOL):
        values = wl.stream(index)
        streams[wl.stream_key(values)] = wl.reference(values)
    refstore.save(wl.NAME, {"pool": wl.POOL, "pool_seed": wl.POOL_SEED,
                            "cycles": wl.CYCLES, "streams": streams})


def make_hcor_faults() -> None:
    import wl_hcor_faults as wl

    runs = {}
    for seed in wl.POOL:
        expected = wl.reference(seed)
        runs[f"{seed}:{expected['netlist']}"] = expected
    refstore.save(wl.NAME, {"cycles": wl.CYCLES, "runs": runs})


MAKERS = {"dect_rx": make_dect_rx, "hcor_lanes": make_hcor_lanes,
          "hcor_faults": make_hcor_faults}


def main(names) -> int:
    harness.attach_source()
    for name in names or MAKERS:
        t0 = time.perf_counter()
        MAKERS[name]()
        print(f"{name}: references written in "
              f"{time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
