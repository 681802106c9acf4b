"""Spans around the public functions of each ephist module.

The tracer wraps the functions named in ``TRACED`` and swaps the wrapper
into every ``ephist`` module namespace that holds the original, so calls
through re-exports (``ephist.cli`` imports ``decoherence_functional`` by
name) are traced too. ``uninstall`` puts the originals back, which lets
one process time untraced and traced operations side by side.

Spans live in memory as ``[name, op, parent, start_ns, end_ns]`` and are
written once, by ``dump``, when the run ends. ``op_metrics`` turns the
spans of one operation into per-layer figures: a layer's self time is
the time its spans are open minus the time their child spans are open.
"""
from __future__ import annotations

import json
import statistics
import sys
import time

TRACED = {
    "modelfile": ("load_model", "parse_model", "build_state", "build_evolution",
                  "build_history_set"),
    "hilbert": ("validate_projector_set", "hermitian_exponential", "heisenberg_projector"),
    "histories": ("branch_matrix", "decoherence_functional", "offdiagonal_offenders",
                  "dec_measure"),
    "coarsegrain": ("greedy_decohering_search", "greedy_merge_functional",
                    "coarse_decoherence_functional"),
    "records": ("construct_records", "verify_strong_records", "verify_weak_records",
                "record_correlation_report"),
    "composite": ("product_rule_report",),
    "cli": ("run_command",),
}
LAYERS = tuple(TRACED)

# Every per-layer metric a traced run prints, with its unit. run.py adds
# the ones that come from artifacts or from both timings rather than spans.
UNITS = {
    "cli.run_command_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "histories.decoherence_functional_s": "s",
    "histories.decoherence_functional.calls": "count",
    "histories.offdiagonal_offenders_s": "s",
    "histories.dec_measure.calls": "count",
    "histories.branch_matrix.calls": "count",
    "histories.self_s": "s",
    "coarsegrain.greedy_merge_functional_s": "s",
    "coarsegrain.merges": "count",
    "coarsegrain.s_per_merge": "s",
    "coarsegrain.self_s": "s",
    "hilbert.validate_projector_set_s": "s",
    "hilbert.validate_projector_set.calls": "count",
    "hilbert.hermitian_exponential_s": "s",
    "hilbert.hermitian_exponential.calls": "count",
    "hilbert.self_s": "s",
    "modelfile.parse_s": "s",
    "modelfile.build_s": "s",
    "modelfile.self_s": "s",
    "records.construct_records_s": "s",
    "records.verify_s": "s",
    "records.self_s": "s",
    "composite.product_rule_report_s": "s",
    "composite.self_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, self.op, stack[-1] if stack else -1, 0, 0]
            spans.append(span)
            stack.append(idx)
            span[3] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "ephist" or n.startswith("ephist.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"ephist.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)


def _inclusive(spans, names) -> float:
    """Seconds spent inside spans named in ``names``, nested ones counted once."""
    chosen = {i for i, s in enumerate(spans) if s[0] in names}
    total = 0
    for i in chosen:
        p = spans[i][2]
        while p != -1 and p not in chosen:
            p = spans[p][2]
        if p == -1:
            total += spans[i][4] - spans[i][3]
    return total / 1e9


def op_metrics(spans) -> dict[str, float]:
    """Per-layer figures of one operation's spans (indices local to the list)."""
    self_ns = [s[4] - s[3] for s in spans]
    calls: dict[str, int] = {}
    for s in spans:
        calls[s[0]] = calls.get(s[0], 0) + 1
        if s[2] != -1:
            self_ns[s[2]] -= s[4] - s[3]
    out = {f"{layer}.self_s": sum(t for s, t in zip(spans, self_ns)
                                  if s[0].startswith(layer + ".")) / 1e9
           for layer in LAYERS}

    def inc(*names):
        return _inclusive(spans, set(names))

    out.update({
        "cli.run_command_s": inc("cli.run_command"),
        "histories.decoherence_functional_s": inc("histories.decoherence_functional"),
        "histories.offdiagonal_offenders_s": inc("histories.offdiagonal_offenders"),
        "coarsegrain.greedy_merge_functional_s": inc("coarsegrain.greedy_merge_functional"),
        "hilbert.validate_projector_set_s": inc("hilbert.validate_projector_set"),
        "hilbert.hermitian_exponential_s": inc("hilbert.hermitian_exponential"),
        "modelfile.parse_s": inc("modelfile.parse_model"),
        "modelfile.build_s": inc("modelfile.build_state", "modelfile.build_evolution",
                                 "modelfile.build_history_set"),
        "records.construct_records_s": inc("records.construct_records"),
        "records.verify_s": inc("records.verify_strong_records", "records.verify_weak_records",
                                "records.record_correlation_report"),
        "composite.product_rule_report_s": inc("composite.product_rule_report"),
    })
    for name in ("histories.decoherence_functional", "histories.dec_measure",
                 "histories.branch_matrix", "hilbert.validate_projector_set",
                 "hilbert.hermitian_exponential"):
        out[f"{name}.calls"] = calls.get(name, 0)
    out["trace.spans"] = len(spans)
    return out


def per_layer(spans, ops) -> dict[str, float]:
    """Each per-layer figure of the median traced operation in ``ops`` (lower
    median, so counts stay whole numbers)."""
    by_op: dict[int, list] = {op: [] for op in ops}
    local: dict[int, int] = {}
    for i, s in enumerate(spans):
        if s[1] not in by_op:
            continue
        group = by_op[s[1]]
        local[i] = len(group)
        group.append([s[0], s[1], local.get(s[2], -1), s[3], s[4]])
    rows = [op_metrics(group) for group in by_op.values()]
    return {k: statistics.median_low(r[k] for r in rows) for k in rows[0]}
