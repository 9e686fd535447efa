"""Spans around the calls into each qlocal module, recorded from outside.

`Tracer.install` replaces each hooked function or method by a wrapper that
appends [name, start, end, parent, extra] to an in-memory list; `uninstall`
puts every original back, so an untraced item runs the unmodified code.
Nothing inside src/qlocal is changed. A layer's self time is the duration of
its spans minus the part their child spans cover.

Two kinds of root span group the rest: "bench.setup" (one per traced run)
and "bench.item" (one per traced item). Metrics marked "setup" below are
totals over the set-up; all others are means over the traced items, except
sparse.peak_support, which is the largest support any item reached.
"""
from __future__ import annotations

import json
import statistics
import sys
import time
from contextlib import contextmanager
from importlib import import_module

import checks


def _h_before(args, kwargs):
    state, pos = args[0], args[1]
    return (state.support_size, state.bit_always_zero(pos))


def _h_after(result, args, extra):
    return extra + (args[0].support_size,)


def _law_keys(result, args, extra):
    # distribution_over returns (keys, probs); sample_over one key per shot
    return len(result[0]) if isinstance(result, tuple) else len(result)


def _len(result, args, extra):
    return len(result)


# (module, attribute or Class.method, span name, before, after)
HOOKS = (
    ("qlocal.sparse", "SparseState.apply_h", "sparse.h", _h_before, _h_after),
    ("qlocal.sparse", "SparseState.apply_phase", "sparse.phase", None, None),
    ("qlocal.sparse", "SparseState.apply_cphase", "sparse.phase", None, None),
    ("qlocal.sparse", "SparseState.apply_cnot", "sparse.cnot", None, None),
    ("qlocal.sparse", "SparseState.remove_product_qubit", "sparse.dispose", None, None),
    ("qlocal.network", "run", "network.run", None, None),
    ("qlocal.network", "run_sampled", "network.run", None, None),
    ("qlocal.network", "run_exact", "network.run", None, None),
    ("qlocal.network", "_execute_rounds", "network.loop", None, None),
    ("qlocal.network", "_finalize_all", "network.finalize", None, None),
    ("qlocal.network", "QuantumArena.distribution_over", "network.law", None, _law_keys),
    ("qlocal.network", "QuantumArena.sample_over", "network.law", None, _law_keys),
    ("qlocal.protocols", "GraphStateProgram.round", "protocols.round", None, None),
    ("qlocal.protocols", "_FloodingProgram.round", "protocols.round", None, None),
    ("qlocal.protocols", "relation_protocol_programs", "protocols.build", None, None),
    ("qlocal.protocols", "sampling_protocol_programs", "protocols.build", None, None),
    ("qlocal.protocols", "affine_strategy_programs", "protocols.build", None, None),
    ("qlocal.verify", "enumerate_support", "verify.support", None, None),
    ("qlocal.verify", "is_valid", "verify.is_valid", None, None),
    ("qlocal.verify", "best_affine_success", "verify.scan", None, None),
    ("qlocal.statevector", "apply_gate", "statevector.gate", None, None),
    ("qlocal.statevector", "exact_distribution", "statevector.law", None, _len),
    ("qlocal.statevector", "support", "statevector.law", None, _len),
    ("qlocal.separation", "exact_gamma", "separation.gamma", None, None),
    ("qlocal.separation", "sampling_exact_law", "separation.sampling_law", None, None),
    ("qlocal.separation", "min_tv_affine_adversary", "separation.tv_search", None, None),
    ("qlocal.distributions", "tv_distance", "distributions.tv", None, None),
    ("qlocal.distributions", "marginal", "distributions.marginal", None, None),
    ("checks", "bad_shots", "bench.check", None, None),
    ("checks", "copy_disagreements", "bench.check", None, None),
    ("checks", "k_copies_problems", "bench.check", None, None),
    ("checks", "exact_row_problems", "bench.check", None, None),
)

# metric -> (unit, phase, span name, statistic); statistic "s" is self time,
# "calls" the span count, "extra:<i>" a sum over the spans' extras
METRICS = {
    "sparse.h_s": ("s", "item", "sparse.h", "s"),
    "sparse.h_calls": ("count", "item", "sparse.h", "calls"),
    "sparse.h_fresh_calls": ("count", "item", "sparse.h", "extra:1"),
    "sparse.h_rows": ("count", "item", "sparse.h", "extra:0"),
    "sparse.phase_s": ("s", "item", "sparse.phase", "s"),
    "sparse.phase_calls": ("count", "item", "sparse.phase", "calls"),
    "sparse.cnot_s": ("s", "item", "sparse.cnot", "s"),
    "sparse.cnot_calls": ("count", "item", "sparse.cnot", "calls"),
    "sparse.dispose_s": ("s", "item", "sparse.dispose", "s"),
    "sparse.dispose_calls": ("count", "item", "sparse.dispose", "calls"),
    "network.executions": ("count", "item", "network.loop", "calls"),
    "network.loop_self_s": ("s", "item", "network.loop", "s"),
    "network.run_self_s": ("s", "item", "network.run", "s"),
    "network.law_s": ("s", "item", "network.law", "s"),
    "network.law_keys": ("count", "item", "network.law", "extra:0"),
    "network.finalize_s": ("s", "item", "network.finalize", "s"),
    "network.finalize_calls": ("count", "item", "network.finalize", "calls"),
    "protocols.round_s": ("s", "item", "protocols.round", "s"),
    "protocols.round_calls": ("count", "item", "protocols.round", "calls"),
    "protocols.build_s": ("s", "item", "protocols.build", "s"),
    "verify.is_valid_s": ("s", "item", "verify.is_valid", "s"),
    "verify.is_valid_calls": ("count", "item", "verify.is_valid", "calls"),
    "verify.lookup_s": ("s", "item", "verify.support", "s"),
    "verify.lookup_calls": ("count", "item", "verify.support", "calls"),
    "statevector.gate_s": ("s", "item", "statevector.gate", "s"),
    "statevector.gate_calls": ("count", "item", "statevector.gate", "calls"),
    "statevector.law_s": ("s", "item", "statevector.law", "s"),
    "statevector.law_entries": ("count", "item", "statevector.law", "extra:0"),
    "separation.gamma_self_s": ("s", "item", "separation.gamma", "s"),
    "separation.sampling_law_self_s": ("s", "item", "separation.sampling_law", "s"),
    "separation.tv_search_self_s": ("s", "item", "separation.tv_search", "s"),
    "distributions.tv_s": ("s", "item", "distributions.tv", "s"),
    "distributions.marginal_s": ("s", "item", "distributions.marginal", "s"),
    "bench.check_s": ("s", "item", "bench.check", "s"),
    "bench.glue_s": ("s", "item", "bench.item", "s"),
    "verify.support_s": ("s", "setup", "verify.support", "s"),
    "verify.support_calls": ("count", "setup", "verify.support", "calls"),
    "verify.scan_s": ("s", "setup", "verify.scan", "s"),
}
# computed in `metrics` rather than read off one span name
DERIVED_UNITS = {
    "sparse.peak_support": "count",
    "verify.support_dense_s": "s",
    "verify.cache_bytes": "B",
    "trace.setup_s": "s",
    "trace.items": "count",
    "trace.item_s": "s",
    "trace.untraced_item_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_share": "ratio",
    "trace.hooks_missing": "count",
}


def metric_units() -> dict:
    units = {name: spec[0] for name, spec in METRICS.items()}
    units.update(DERIVED_UNITS)
    return units


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = -1
        self._patches = []
        self.missing = []

    def _wrap(self, name, fn, before, after):
        tracer = self

        def traced(*args, **kwargs):
            extra = before(args, kwargs) if before else None
            spans = tracer.spans
            record = [name, 0.0, 0.0, tracer._open, extra]
            tracer._open = len(spans)
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer._open = record[3]
            if after:
                record[4] = after(result, args, extra)
            return result

        return traced

    def install(self):
        """Wrap every hook. A hook whose target no longer exists is skipped
        and counted in trace.hooks_missing, so a renamed function shows up
        as a missing hook rather than as a silent zero."""
        self.missing = []
        for module_name, path, name, before, after in HOOKS:
            module = import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}:{path}")
                continue
            traced = self._wrap(name, original, before, after)
            if owner_name:
                self._patch(owner, attr, original, traced)
                continue
            # a function is also bound by every `from module import name`
            for mod in list(sys.modules.values()):
                mod_name = getattr(mod, "__name__", "")
                if mod_name.startswith("qlocal") or mod is checks:
                    if getattr(mod, attr, None) is original:
                        self._patch(mod, attr, original, traced)

    def _patch(self, owner, attr, original, traced):
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    @contextmanager
    def root(self, name):
        """A root span: "bench.setup" or "bench.item"."""
        record = [name, 0.0, 0.0, -1, None]
        self._open = len(self.spans)
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open = -1

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")

    def metrics(self, untraced_times, cache_bytes) -> dict:
        spans = self.spans
        n = len(spans)
        self_s = [0.0] * n
        root = [0] * n
        in_support = [False] * n
        for i, (name, start, end, parent, _) in enumerate(spans):
            dur = end - start
            self_s[i] += dur
            if parent < 0:
                root[i] = i
            else:
                self_s[parent] -= dur
                root[i] = root[parent]
                in_support[i] = in_support[parent] or spans[parent][0] == "verify.support"
        totals = {}
        peak_support = 0
        dense = 0.0
        for i, (name, start, end, parent, extra) in enumerate(spans):
            phase = spans[root[i]][0].removeprefix("bench.")
            agg = totals.setdefault((phase, name), {"s": 0.0, "calls": 0, "extra": []})
            agg["s"] += self_s[i]
            agg["calls"] += 1
            if extra is not None:
                agg["extra"].append(extra)
            if phase == "item" and name == "sparse.h":
                peak_support = max(peak_support, extra[2])
            if phase == "setup" and in_support[i] and name.startswith("statevector."):
                dense += self_s[i]
        item_times = [s[2] - s[1] for s in spans if s[3] < 0 and s[0] == "bench.item"]
        items = len(item_times)
        out = {}
        for metric, (unit, phase, name, stat) in METRICS.items():
            agg = totals.get((phase, name), {"s": 0.0, "calls": 0, "extra": []})
            if stat.startswith("extra:"):
                j = int(stat[6:])
                value = sum(float(e[j] if isinstance(e, tuple) else e) for e in agg["extra"])
            else:
                value = agg[stat]
            out[metric] = value / items if phase == "item" else value
        setup = [s[2] - s[1] for s in spans if s[3] < 0 and s[0] == "bench.setup"]
        traced_item = statistics.median(item_times)
        untraced_item = statistics.median(untraced_times)
        glue = totals.get(("item", "bench.item"), {"s": 0.0})["s"]
        out.update({
            "sparse.peak_support": peak_support,
            "verify.support_dense_s": dense,
            "verify.cache_bytes": cache_bytes,
            "trace.setup_s": sum(setup),
            "trace.items": items,
            "trace.item_s": traced_item,
            "trace.untraced_item_s": untraced_item,
            "trace.overhead_s": traced_item - untraced_item,
            "trace.unattributed_share": glue / sum(item_times),
            "trace.hooks_missing": len(self.missing),
        })
        units = metric_units()
        return {name: {"value": value, "unit": units[name]} for name, value in out.items()}
