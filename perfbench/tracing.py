"""In-memory spans around the benchmark's calls into draftkit, and the per-layer
metrics derived from them.

A span is one call from the benchmark into a draftkit layer. Its name is
``<layer>.<function>`` where the layer is a draftkit module name, except for
``bench.op``, the root span of one benchmark operation (its self time is the
benchmark's own glue code). Spans are kept in a list and written out when the
pass ends; nothing is written while the pass runs.
"""

from __future__ import annotations

import statistics
from time import perf_counter


class NullTracer:
    """Tracing off: calls go straight through, nothing is recorded."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def note(self, **attrs):
        pass

    def begin_op(self, op_id):
        return None

    def end_op(self, token):
        pass


class Tracer:
    """Tracing on: one span per call, with parent span and operation id."""

    def __init__(self):
        # span record: [id, parent, op, name, start, end, attrs]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = None
        self._last: list | None = None

    def _open(self, name):
        span = [
            len(self.spans),
            self._stack[-1] if self._stack else None,
            self.op_id,
            name,
            0.0,
            0.0,
            None,
        ]
        self.spans.append(span)
        self._stack.append(span[0])
        span[4] = perf_counter()
        return span

    def _close(self, span):
        span[5] = perf_counter()
        self._stack.pop()
        self._last = span

    def call(self, name, fn, *args, **kwargs):
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def note(self, **attrs):
        """Attach counts to the span that closed last."""
        if self._last[6] is None:
            self._last[6] = {}
        self._last[6].update(attrs)

    def begin_op(self, op_id):
        self.op_id = op_id
        return self._open("bench.op")

    def end_op(self, span):
        self._close(span)
        self.op_id = None

    def dump(self) -> dict:
        """Columnar form for the spans file."""
        cols = ("id", "parent", "op", "name", "start", "end", "attrs")
        return {"columns": cols, "rows": self.spans}


def self_times(spans) -> list[float]:
    """Per span: its duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for sid, parent, _, _, start, end, _ in spans:
        if parent is not None:
            child[parent] += end - start
    return [end - start - child[sid] for sid, _, _, _, start, end, _ in spans]


def layer_table(spans) -> dict[str, float]:
    out: dict[str, float] = {}
    for span, self_s in zip(spans, self_times(spans)):
        layer = span[3].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + self_s
    return out


AXIOM_GROUPS = {
    "sp": {"check_sp", "check_wsp"},
    "rm": {"check_rm"},
    "unary": {
        "check_rp", "check_ef1", "check_eff", "check_nw", "check_ir", "check_nw_star",
        "check_wrp_star", "check_wrp_quota", "check_nw_quota", "check_wrp_any",
    },
    "report_change": {"check_ti", "check_tp", "check_ep"},
    "msp": {"check_msp_certificate", "check_msp_falsify"},
    "variable": {
        "check_ef1_var", "check_eff_var", "check_rm_var", "check_con", "check_2con",
        "check_tcon", "check_neu", "check_2neu",
    },
}


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(spans) -> dict[str, float]:
    """Every per-layer metric of BENCHMARK.json except trace.overhead_s."""
    by_name: dict[str, float] = {}  # self time per span name
    groups: dict[str, float] = {}  # self time per metric group
    counts: dict[str, int] = {}
    manip_ms: list[float] = []
    tensor_mb = 0.0

    def add(table, key, value):
        table[key] = table.get(key, 0) + value

    for span, self_s in zip(spans, self_times(spans)):
        name, attrs = span[3], span[6] or {}
        layer, _, fn = name.partition(".")
        add(by_name, name, self_s)
        if layer == "axioms" and fn.startswith("check_"):
            add(groups, "axioms", self_s)
            add(counts, "axioms.checked", attrs["checked"])
            if attrs["violated"]:
                add(groups, "axioms.refute", self_s)
            for group, fns in AXIOM_GROUPS.items():
                if fn in fns:
                    add(groups, f"axioms.{group}", self_s)
        elif name == "rules.fill":
            add(counts, "rules.allocs", attrs["allocs"])
        elif layer == "dominance" and fn.endswith("dominates"):
            add(groups, "dominance.pairs", self_s)
            add(counts, "dominance.pairs", 1)
        elif name == "csp.build_csp":
            add(counts, "csp.constraints", attrs["constraints"])
        elif name == "csp.solve_csp":
            add(counts, "csp.revisions", attrs["revisions"])
            add(counts, "csp.nodes", attrs["nodes"])
        elif name == "grid.build_grid":
            tensor_mb = max(tensor_mb, attrs["tensor_bytes"] / 2**20)
        elif name == "grid.solve_grid":
            add(counts, "grid.revisions", attrs["revisions"])
        elif name == "verifier.verify_efficiency_decomposition":
            add(counts, "verifier.eff_pairs", attrs["pairs"])
        elif name == "verifier.find_manipulation":
            manip_ms.append((span[5] - span[4]) * 1e3)
            add(counts, "verifier.manipulations_found", attrs["found"])

    s = lambda key: by_name.get(key, 0.0)  # noqa: E731
    g = lambda key: groups.get(key, 0.0)  # noqa: E731
    c = lambda key: counts.get(key, 0)  # noqa: E731
    if len(manip_ms) >= 2:
        p50 = statistics.median(manip_ms)
        p99 = statistics.quantiles(manip_ms, n=100)[98]
    else:
        p50 = p99 = manip_ms[0] if manip_ms else 0.0
    return {
        "rules.fill_s": s("rules.fill"),
        "rules.allocs_per_s": _ratio(c("rules.allocs"), s("rules.fill")),
        "axioms.sp_s": g("axioms.sp"),
        "axioms.rm_s": g("axioms.rm"),
        "axioms.unary_s": g("axioms.unary"),
        "axioms.report_change_s": g("axioms.report_change"),
        "axioms.msp_s": g("axioms.msp"),
        "axioms.variable_s": g("axioms.variable"),
        "axioms.refute_s": g("axioms.refute"),
        "axioms.checked": c("axioms.checked"),
        "axioms.checks_per_s": _ratio(c("axioms.checked"), g("axioms")),
        "dominance.pairs": c("dominance.pairs"),
        "dominance.pairs_per_s": _ratio(c("dominance.pairs"), g("dominance.pairs")),
        "csp.build_s": s("csp.build_csp"),
        "csp.solve_s": s("csp.solve_csp"),
        "csp.replay_s": s("csp.replay_certificate"),
        "csp.revisions": c("csp.revisions"),
        "csp.nodes": c("csp.nodes"),
        "csp.constraints": c("csp.constraints"),
        "grid.build_s": s("grid.build_grid"),
        "grid.solve_s": s("grid.solve_grid"),
        "grid.replay_s": s("grid.replay_grid_certificate"),
        "grid.revisions": c("grid.revisions"),
        "grid.tensor_mb": tensor_mb,
        "verifier.eff_oracle_s": s("verifier.verify_efficiency_decomposition"),
        "verifier.eff_pairs": c("verifier.eff_pairs"),
        "verifier.target_compare_s": s("verifier.target_compare"),
        "verifier.case_replay_s": s("verifier.replay_theorem4_cases"),
        "verifier.manipulation_p50_ms": p50,
        "verifier.manipulation_p99_ms": p99,
        "verifier.manipulations_found": c("verifier.manipulations_found"),
        "problemfile.parse_s": s("problemfile.parse_problem"),
    }
