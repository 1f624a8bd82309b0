"""Committed reference outputs, keyed by a digest of the exact inputs.

Each workload's references were produced once by an engine independent
of the one under test (``make_refs.py``).  A key that is missing — a
seed outside the committed pool, or inputs that changed because the
generators changed — is computed on the fly, outside timing, and kept
for the rest of the run.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Dict

from harness import REFS


def digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()[:24]


def load(name: str) -> Dict[str, object]:
    path = REFS / f"{name}.json"
    if not path.is_file():
        return {}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def save(name: str, data: Dict[str, object]) -> None:
    REFS.mkdir(parents=True, exist_ok=True)
    with open(REFS / f"{name}.json", "w", encoding="utf-8") as handle:
        json.dump(data, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")


class RefTable:
    """Key -> expected output, computing misses with *compute*."""

    def __init__(self, entries: Dict[str, object],
                 compute: Callable[[object], object]):
        self.entries = dict(entries)
        self.compute = compute

    def expected(self, key: str, item) -> object:
        if key not in self.entries:
            self.entries[key] = self.compute(item)
        return self.entries[key]
