"""Per-layer attribution for the traced run.

The traced run wraps public entry points of the program from here —
nothing in ``src/`` changes — and records spans with the program's own
``repro.obs.spans.SpanTracer``:

* *spanned* calls (captures, simulator construction, synthesis, netlist
  optimization, fault collapse, the runner's own phases) each open a
  real span;
* *counted* calls (one simulated cycle, one pin quantization, one RAM
  firing, one IR pass-manager run, one gate-level cycle) are too many
  to keep one span each: their calls and time accumulate under the
  enclosing real span and are written as one aggregated child span per
  call path when it closes (attribute ``calls``).

A layer's self time is its span minus its children.  Per-layer metrics
are computed per op (a burst, a batch, a campaign) and reduced to the
median over ops.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Dict, List

from harness import median, percentile
from wl_hcor_faults import WORKERS

#: The default IR pipeline, whose per-pass statistics are reported.
PASSES = ("constant_fold", "algebraic_simplify", "cse", "dce")

#: (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = [
    ("core.capture_s", "s", "lower"),
    ("ir.ops_raw", "count", "lower"),
    ("ir.ops", "count", "lower"),
    ("ir.passes_s", "s", "lower"),
    *[(f"ir.pass.{p}.{field}", unit, better) for p in PASSES
      for field, unit, better in (("ops_removed", "count", "higher"),
                                  ("time_us", "us", "lower"))],
    ("sim.compiled.construct_s", "s", "lower"),
    ("sim.compiled.pycompile_s", "s", "lower"),
    ("sim.compiled.source_lines", "count", "lower"),
    ("sim.compiled.step_us_p50", "us", "lower"),
    ("sim.compiled.step_us_p99", "us", "lower"),
    ("sim.compiled.gen_self_s", "s", "lower"),
    ("sim.batched.construct_s", "s", "lower"),
    ("sim.batched.step_us_p50", "us", "lower"),
    ("sim.batched.step_us_p99", "us", "lower"),
    ("sim.batched.gen_self_s", "s", "lower"),
    ("fixpt.quantize_raw_calls", "1/cycle", "lower"),
    ("fixpt.quantize_raw_s", "s", "lower"),
    ("untimed.calls", "1/cycle", "lower"),
    ("untimed.s", "s", "lower"),
    ("synth.alloc_s", "s", "lower"),
    ("synth.netlist_opt_s", "s", "lower"),
    ("synth.seq_const_s", "s", "lower"),
    ("synth.gates_allocated", "count", "lower"),
    ("synth.gates", "count", "lower"),
    ("synth.gatesim.gate_evals", "count", "lower"),
    ("synth.gatesim.step_s", "s", "lower"),
    ("synth.gatesim.pin_pack_s", "s", "lower"),
    ("verify.collapse_s", "s", "lower"),
    ("verify.collapsed_faults", "count", "lower"),
    ("runner.compile_s", "s", "lower"),
    ("runner.simulate_s", "s", "lower"),
    ("runner.merge_s", "s", "lower"),
    ("runner.shard_s_max", "s", "lower"),
    ("runner.shard_s_mean", "s", "lower"),
    ("runner.parallel_eff", "ratio", "higher"),
    ("runner.retries", "count", "lower"),
    ("runner.worker_deaths", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


class Scope:
    """One traced unit: an op, the traced set-up, or an extra probe."""

    def __init__(self, kind: str):
        self.kind = kind
        self.span_id = None
        self.counters: Counter = Counter()
        self.managers: Dict[int, object] = {}
        self.stats: List[object] = []


class LayerTrace:
    """Installs the wrappers, owns the tracer, reduces spans to metrics."""

    def __init__(self):
        spans = importlib.import_module("repro.obs.spans")
        self._context = spans.SpanContext
        self.tracer = spans.SpanTracer(enabled=True)
        self._buckets: List[dict] = [{}]
        self._fine: List[str] = []
        self._patches: List[tuple] = []
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.scopes: List[Scope] = []
        self.scope = Scope("free")
        self.sources: Dict[str, str] = {}

    # -- spans ---------------------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs):
        """A real span; counted calls inside it aggregate under it."""
        with self.tracer.span(name, **attrs) as span:
            self._buckets.append({})
            try:
                yield span
            finally:
                self._flush(self._buckets.pop(), span)

    def _flush(self, bucket: dict, span) -> None:
        emitted = {}
        for key in sorted(bucket, key=len):
            calls, seconds = bucket[key]
            parent = emitted.get(key[:-1])
            record = self.tracer.emit(key[-1], parent=parent,
                                      start=span.start, dur=seconds,
                                      calls=calls, aggregated=True)
            emitted[key] = self._context(record["trace"], record["span"])

    @contextmanager
    def unit(self, kind: str, key: str = "all", **attrs):
        """Open a scope (op / setup / extra) with its root span."""
        scope = Scope(kind)
        previous, self.scope = self.scope, scope
        try:
            with self.span(kind, key=key, **attrs) as span:
                scope.span_id = span.span_id
                yield scope
        finally:
            self.scope = previous
            self.scopes.append(scope)

    # -- wrappers ------------------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def spanned(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                result = original(*args, **kwargs)
                if after is not None:
                    after(span, args, result)
                return result

        self._patch(owner, attr, wrapper)

    def counted(self, owner, attr: str, name: str, samples: bool = False,
                after=None) -> None:
        original = getattr(owner, attr)
        fine = self._fine
        buckets = self._buckets
        clock = time.perf_counter
        sample_list = self.samples[name]

        def wrapper(*args, **kwargs):
            fine.append(name)
            key = tuple(fine)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                dt = clock() - t0
                fine.pop()
                bucket = buckets[-1]
                entry = bucket.get(key)
                if entry is None:
                    bucket[key] = [1, dt]
                else:
                    entry[0] += 1
                    entry[1] += dt
                if samples:
                    sample_list.append(dt)
            if after is not None:
                after(args, result)
            return result

        self._patch(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer's entry points (bypassed layers stay at 0)."""
        mod = importlib.import_module
        transceiver = mod("repro.designs.dect.transceiver")
        dect = mod("repro.designs.dect")
        hcor = mod("repro.designs.hcor")
        compiled = mod("repro.sim.compiled")
        batched = mod("repro.sim.batched")
        ir = mod("repro.ir.passes")
        ram = mod("repro.designs.dect.ram")
        flow = mod("repro.synth.flow")
        optimize = mod("repro.synth.optimize")
        gatesim = mod("repro.synth.gatesim")
        campaign = mod("repro.verify.campaign")

        self.spanned(transceiver, "build_transceiver", "core.capture")
        self._patch(dect, "build_transceiver", transceiver.build_transceiver)
        self.spanned(hcor, "build_hcor", "core.capture")

        def keep_source(kind):
            def after(_span, args, _result):
                self.sources[kind] = args[0].source
            return after

        self.spanned(compiled.CompiledSimulator, "__init__",
                     "sim.compiled.construct", after=keep_source("compiled"))
        self.counted(compiled.CompiledSimulator, "step", "sim.compiled.step",
                     samples=True)
        self.spanned(batched.BatchedCompiledSimulator, "__init__",
                     "sim.batched.construct", after=keep_source("batched"))
        self.counted(batched.BatchedCompiledSimulator, "step",
                     "sim.batched.step", samples=True)
        self.counted(compiled, "quantize_raw", "fixpt.quantize_raw")
        self.counted(batched, "quantize_raw", "fixpt.quantize_raw")
        self.counted(ram.Ram, "behavior", "untimed.ram")

        def count_ops(args, result):
            manager, block = args
            scope = self.scope
            scope.counters["ir.ops_raw"] += block.op_count()
            scope.counters["ir.ops"] += result.op_count()
            scope.managers[id(manager)] = manager

        self.counted(ir.PassManager, "run", "ir.passes", after=count_ops)

        def netlist_gates(span, args, result):
            span.set(gates_in=args[0].gate_count(),
                     gates_out=result.gate_count())

        self.spanned(flow, "synthesize_process", "synth.alloc")
        self.spanned(flow, "optimize_netlist", "synth.netlist_opt",
                     after=netlist_gates)
        self.spanned(optimize, "optimize_netlist", "synth.netlist_opt",
                     after=netlist_gates)
        self.spanned(optimize, "sequential_constants", "synth.seq_const")
        self.counted(gatesim.GateSimulator, "step", "synth.gatesim.step")
        self.counted(gatesim.GateSimulator, "set_input",
                     "synth.gatesim.pin_pack")
        self.counted(gatesim.GateSimulator, "set_input_lanes",
                     "synth.gatesim.pin_pack")

        def collapsed(span, _args, result):
            span.set(collapsed=result.collapsed, total=result.total)

        self.spanned(campaign, "collapse_faults", "verify.collapse",
                     after=collapsed)

    # -- reduction -----------------------------------------------------------------

    def _index(self):
        records = self.tracer.records()
        children = defaultdict(list)
        by_id = {}
        for record in records:
            by_id[record["span"]] = record
            children[record["parent"]].append(record)
        return by_id, children

    @staticmethod
    def _subtree(root_id, children):
        stack = list(children.get(root_id, ()))
        while stack:
            node = stack.pop()
            yield node
            stack.extend(children.get(node["span"], ()))

    def scope_values(self, scope: Scope, children) -> Dict[str, float]:
        """Layer values of one scope, from its span subtree and counters."""
        dur = defaultdict(float)
        calls = Counter()
        values: Dict[str, float] = {}
        nodes = list(self._subtree(scope.span_id, children))
        for node in nodes:
            dur[node["name"]] += node["dur"] or 0.0
            calls[node["name"]] += (node.get("attrs") or {}).get("calls", 0)

        def self_time(name):
            total = 0.0
            for node in nodes:
                if node["name"] != name:
                    continue
                kids = children.get(node["span"], ())
                total += (node["dur"] or 0.0) - sum(k["dur"] or 0.0
                                                    for k in kids)
            return max(total, 0.0)

        def child_time(parent_name, child_name):
            total = 0.0
            for node in nodes:
                if node["name"] == parent_name:
                    total += sum(k["dur"] or 0.0
                                 for k in children.get(node["span"], ())
                                 if k["name"] == child_name)
            return total

        values["core.capture_s"] = dur["core.capture"]
        values["ir.ops_raw"] = scope.counters["ir.ops_raw"]
        values["ir.ops"] = scope.counters["ir.ops"]
        values["ir.passes_s"] = dur["ir.passes"]
        stats = defaultdict(Counter)
        for manager in scope.managers.values():
            for name, row in manager.stats.items():
                stats[name].update({k: v for k, v in row.items()
                                    if isinstance(v, (int, float))})
        for name in PASSES:
            values[f"ir.pass.{name}.ops_removed"] = stats[name]["ops_removed"]
            values[f"ir.pass.{name}.time_us"] = stats[name]["time_us"]
        for engine in ("compiled", "batched"):
            values[f"sim.{engine}.construct_s"] = dur[f"sim.{engine}.construct"]
            values[f"sim.{engine}.gen_self_s"] = self_time(f"sim.{engine}.step")
        values["fixpt.quantize_raw_s"] = dur["fixpt.quantize_raw"]
        values["untimed.s"] = dur["untimed.ram"]
        values["synth.alloc_s"] = (dur["synth.alloc"]
                                   - child_time("synth.alloc",
                                                "synth.netlist_opt"))
        values["synth.netlist_opt_s"] = dur["synth.netlist_opt"]
        values["synth.seq_const_s"] = dur["synth.seq_const"]
        gates_in = gates_out = 0
        collapsed = 0
        for node in nodes:
            attrs = node.get("attrs") or {}
            if node["name"] == "synth.netlist_opt":
                gates_in += attrs.get("gates_in", 0)
                gates_out += attrs.get("gates_out", 0)
            if node["name"] == "verify.collapse":
                collapsed += attrs.get("collapsed", 0)
        values["synth.gates_allocated"] = gates_in
        values["synth.gates"] = gates_out
        values["synth.gatesim.step_s"] = dur["synth.gatesim.step"]
        values["synth.gatesim.pin_pack_s"] = dur["synth.gatesim.pin_pack"]
        values["verify.collapse_s"] = dur["verify.collapse"]
        values["verify.collapsed_faults"] = collapsed
        values["runner.compile_s"] = dur["compile"]
        values["runner.simulate_s"] = dur["simulate"]
        values["runner.merge_s"] = dur["merge"]
        shards = [n["dur"] or 0.0 for n in nodes
                  if n["name"].startswith("shard ")]
        values["runner.shard_s_max"] = max(shards, default=0.0)
        values["runner.shard_s_mean"] = (sum(shards) / len(shards)
                                         if shards else 0.0)
        values["runner.parallel_eff"] = (
            sum(shards) / (WORKERS * dur["simulate"])
            if dur["simulate"] else 0.0)
        for stat in scope.stats:
            values["runner.retries"] = (values.get("runner.retries", 0)
                                        + stat.retries)
            values["runner.worker_deaths"] = (
                values.get("runner.worker_deaths", 0) + stat.worker_deaths)
        values["_steps"] = (calls["sim.compiled.step"]
                            + calls["sim.batched.step"])
        values["_quantize_calls"] = calls["fixpt.quantize_raw"]
        values["_untimed_calls"] = calls["untimed.ram"]
        return values

    def self_times(self) -> Dict[str, float]:
        """Self seconds per span name over the whole traced run."""
        by_id, children = self._index()
        totals: Dict[str, float] = defaultdict(float)
        for record in by_id.values():
            kids = children.get(record["span"], ())
            own = (record["dur"] or 0.0) - sum(k["dur"] or 0.0 for k in kids)
            totals[record["name"]] += max(own, 0.0)
        return dict(sorted(totals.items(), key=lambda kv: -kv[1]))

    def metrics(self, extra: Dict[str, float]) -> Dict[str, float]:
        """Every per-layer metric: ops first, then extras, then set-up."""
        _by_id, children = self._index()
        per_kind = defaultdict(list)
        for scope in self.scopes:
            per_kind[scope.kind].append(self.scope_values(scope, children))

        def reduce(rows):
            names = {n for v in rows for n in v}
            return {name: median([v.get(name, 0.0) for v in rows])
                    for name in names}

        reduced = [reduce(per_kind[kind]) for kind in ("op", "extra", "setup")]
        result: Dict[str, float] = {}
        for name, _unit, _better in LAYER_METRICS:
            result[name] = next((r[name] for r in reduced if r.get(name)),
                                0.0)
        steps = sum(v["_steps"] for v in per_kind["op"])
        quantize = sum(v["_quantize_calls"] for v in per_kind["op"])
        untimed = sum(v["_untimed_calls"] for v in per_kind["op"])
        result["fixpt.quantize_raw_calls"] = quantize / steps if steps else 0.0
        result["untimed.calls"] = untimed / steps if steps else 0.0
        for engine in ("compiled", "batched"):
            samples = self.samples.get(f"sim.{engine}.step") or []
            result[f"sim.{engine}.step_us_p50"] = \
                percentile(samples, 50) * 1e6
            result[f"sim.{engine}.step_us_p99"] = \
                percentile(samples, 99) * 1e6
        source = self.sources.get("compiled")
        if source is not None:
            result["sim.compiled.source_lines"] = len(source.splitlines())
        result.update(extra)
        return result
