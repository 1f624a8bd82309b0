"""Shared measurement plumbing for the repository benchmark.

Everything here is workload-agnostic: locating the source tree, order
statistics, peak memory, the machine fingerprint and the calibration
loop that makes slow phases of a shared host visible.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
REFS = HERE / "refs"
#: Scratch output of traced runs (spans.jsonl, runner captures).
OUT = ROOT / ".perfbench_out"


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/repro`` to benchmark."""


def attach_source() -> None:
    """Put the checkout's ``src`` on ``sys.path``; fail if it is absent.

    The program is imported from cached bytecode, as an installed
    package is, whatever ``PYTHONDONTWRITEBYTECODE`` says: the first
    import writes ``__pycache__`` in the checkout and later set-ups
    read it, so ``setup_s`` does not depend on the caller's environment.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no repro package under {SRC}")
    sys.dont_write_bytecode = False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# -- statistics ----------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, *q* in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[min(rank, len(ordered)) - 1])


def tail_percentile(count: int) -> Optional[int]:
    """Highest whole percentile with at least ten samples beyond it."""
    if count < 20:
        return None
    best = None
    for q in (50, 75, 90, 95, 99, 99.9):
        if count * (100 - q) / 100.0 >= 10:
            best = q
    return best


def timing_summary(values: Sequence[float]) -> Dict[str, object]:
    """Median plus the highest percentile with ten samples beyond it."""
    summary: Dict[str, object] = {"n": len(values),
                                  "p50": median(values) if values else None}
    q = tail_percentile(len(values))
    if q is not None:
        summary[f"p{q:g}"] = percentile(values, q)
    return summary


# -- host facts -------------------------------------------------------------------


def peak_rss_mb() -> float:
    """Peak RSS of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _pss_kb(pid: str) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _child_pids() -> List[str]:
    pids: List[str] = []
    for task in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{task}/children",
                      encoding="ascii") as handle:
                pids.extend(handle.read().split())
        except OSError:
            pass
    return pids


class TreeMemory:
    """Peak memory of each op: this process plus its live children.

    During an op (``with memory.op():``) a thread sums the proportional
    set size (PSS) of this process and of every child it has forked,
    every *period* seconds, and keeps the op's largest sum.  PSS splits
    a copy-on-write page between the processes that share it, so forked
    workers are counted without counting their shared pages twice.
    """

    def __init__(self, period: float = 0.02):
        self.period = period
        self.peaks_kb: List[int] = []
        self._current: Optional[int] = None
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self) -> "TreeMemory":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @contextmanager
    def op(self):
        with self._lock:
            self._current = 0
        try:
            yield
        finally:
            with self._lock:
                self.peaks_kb.append(self._current)
                self._current = None

    def _loop(self) -> None:
        while not self._stop.wait(self.period):
            if self._current is None:
                continue
            total = _pss_kb("self") + sum(_pss_kb(pid)
                                          for pid in _child_pids())
            with self._lock:
                if self._current is not None:
                    self._current = max(self._current, total)

    def peak_mb(self) -> float:
        """The largest op's peak, in MB."""
        return max(self.peaks_kb) / 1024.0


def calibration_ms(rounds: int = 3) -> float:
    """Best-of-*rounds* time of a fixed pure-Python loop, in ms.

    Reported beside the metrics, never folded into them: a high value
    marks a run taken during a slow phase of a shared host.
    """
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> Optional[str]:
    """HEAD's commit, read from ``.git`` directly (no subprocess)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = git / ref
        if ref_path.is_file():
            return ref_path.read_text(encoding="utf-8").strip()
        packed = git / "packed-refs"
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over ``src/**/*.py`` (path + bytes): the program's identity."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint() -> Dict[str, object]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": _git_commit(),
        "src_digest": source_digest(),
    }
