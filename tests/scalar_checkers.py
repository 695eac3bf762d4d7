"""Scalar reference checkers: the differential-test oracle for the gather checkers.

These are the per-pair loops the FixedSweep checkers in ``draftkit.axioms``
replace. They call scalar ``weakly_dominates`` once per comparison, walk the
domain in enumeration order and stop at the first violation, so their
``AxiomReport`` (verdict, ``checked`` count and witness) is the definition the
fast checkers must reproduce exactly. They share only the sweep's grid and the
witness formatting with the code under test; restriction classes, truncation
targets and both dominance relations are recomputed here.
"""

from __future__ import annotations

from draftkit.axioms import (
    AxiomReport,
    FixedSweep,
    describe_allocation,
    describe_problem,
    format_bundle,
    format_pref,
)
from draftkit.core import INFINITE, objects_of
from draftkit.dominance import quota_weakly_dominates, weakly_dominates


def _sweep(rule, domain) -> FixedSweep:
    return rule if isinstance(rule, FixedSweep) else FixedSweep(rule, domain)


def _holds(axiom, checked):
    return AxiomReport(axiom, "holds", None, checked)


def _violated(axiom, checked, witness):
    return AxiomReport(axiom, "violated", witness, checked)


def _dominates(pref, quota, s, t) -> bool:
    if quota is not None and quota != INFINITE:
        return quota_weakly_dominates(pref, quota, s, t)
    return weakly_dominates(pref, s, t)


def _ef1_ok(pref, quota, own, other) -> bool:
    if _dominates(pref, quota, own, other):
        return True
    return any(_dominates(pref, quota, own, other & ~(1 << o)) for o in objects_of(other))


def _restriction_key(pref, x):
    ranking = tuple(o for o in pref.ranking if x >> o & 1)
    cut = None if pref.cutoff is None else sum(1 for o in ranking if pref.acceptable >> o & 1)
    return ranking, cut


def _misreport_targets(sw: FixedSweep, xi: int) -> list[list[int]]:
    """Per truthful index: the misreports to try, one per other restriction class."""
    if not sw.rule.restriction_invariant:
        return [[r for r in range(sw.P) if r != t] for t in range(sw.P)]
    x = sw.xs[xi]
    first: dict = {}
    for i, p in enumerate(sw.prefs):
        first.setdefault(_restriction_key(p, x), i)
    reps = list(first.values())
    return [
        [r for r in reps if r != first[_restriction_key(p, x)]] for p in sw.prefs
    ]


def _truncation_targets(sw: FixedSweep, pick: int) -> list[list[int]]:
    """Per preference index: same ranking with a smaller (pick 0) or larger (pick 1) cutoff."""
    out = []
    for p in sw.prefs:
        out.append(
            [
                i
                for i, q in enumerate(sw.prefs)
                if q.ranking == p.ranking
                and (q.cutoff < p.cutoff if pick == 0 else q.cutoff > p.cutoff)
            ]
        )
    return out


def _envy_like(rule, domain, name, pairs_of, ok):
    sw = _sweep(rule, domain)
    quotas = domain.quotas or (None,) * sw.n
    checked = 0
    for xi in range(len(sw.xs)):
        for code, alloc in enumerate(sw.grid(xi)):
            checked += 1
            profile = sw.profile(code)
            for a, b in pairs_of(sw):
                if not ok(profile[a], quotas[a], alloc[a], alloc[b]):
                    prob = sw.problem(xi, code)
                    return _violated(
                        name,
                        checked,
                        {
                            "problem": describe_problem(prob),
                            "allocation": describe_allocation(prob, alloc),
                            "envious": prob.agents[a],
                            "envied": prob.agents[b],
                        },
                    )
    return _holds(name, checked)


def _all_pairs(sw):
    return [(a, b) for a in range(sw.n) for b in range(sw.n) if a != b]


def check_ef(rule, domain) -> AxiomReport:
    return _envy_like(rule, domain, "EF", _all_pairs, _dominates)


def check_ef1(rule, domain) -> AxiomReport:
    return _envy_like(rule, domain, "EF1", _all_pairs, _ef1_ok)


def check_rp(rule, domain, priority) -> AxiomReport:
    def pairs_of(sw):
        pos = [priority.index(a) for a in sw.agents]
        return [(a, b) for a, b in _all_pairs(sw) if pos[a] < pos[b]]

    return _envy_like(rule, domain, f"RP-{list(priority)}", pairs_of, _dominates)


def check_rm(rule, domain) -> AxiomReport:
    sw = _sweep(rule, domain)
    quotas = domain.quotas or (None,) * sw.n
    pairs = [
        (bi, si)
        for bi, big in enumerate(sw.xs)
        for si, small in enumerate(sw.xs)
        if small != big and small & big == small
    ]
    checked = 0
    for bi, si in pairs:
        big_grid, small_grid = sw.grid(bi), sw.grid(si)
        for code in sw.codes():
            checked += 1
            big_alloc, small_alloc = big_grid[code], small_grid[code]
            profile = sw.profile(code)
            for i in range(sw.n):
                if not _dominates(profile[i], quotas[i], big_alloc[i], small_alloc[i]):
                    return _violated(
                        "RM",
                        checked,
                        {
                            "problem": describe_problem(sw.problem(bi, code)),
                            "smaller_set": format_bundle(sw.xs[si]),
                            "agent": sw.agents[i],
                            "bundle_large": format_bundle(big_alloc[i]),
                            "bundle_small": format_bundle(small_alloc[i]),
                            "allocation_small": describe_allocation(
                                sw.problem(si, code), small_alloc
                            ),
                        },
                    )
    return _holds("RM", checked)


def _sp_like(rule, domain, weak: bool) -> AxiomReport:
    sw = _sweep(rule, domain)
    quotas = domain.quotas or (None,) * sw.n
    name = "WSP" if weak else "SP"
    checked = 0
    for xi in range(len(sw.xs)):
        grid = sw.grid(xi)
        targets = _misreport_targets(sw, xi)
        for code, alloc in enumerate(grid):
            profile = sw.profile(code)
            for slot in range(sw.n):
                pref, q = profile[slot], quotas[slot]
                for alt in targets[sw.slot_index(code, slot)]:
                    checked += 1
                    other = grid[sw.replace(code, slot, alt)][slot]
                    if weak:
                        bad = _dominates(pref, q, other, alloc[slot]) and not _dominates(
                            pref, q, alloc[slot], other
                        )
                    else:
                        bad = not _dominates(pref, q, alloc[slot], other)
                    if bad:
                        prob = sw.problem(xi, code)
                        return _violated(
                            name,
                            checked,
                            {
                                "problem": describe_problem(prob),
                                "agent": sw.agents[slot],
                                "misreport": format_pref(sw.prefs[alt]),
                                "truthful_bundle": format_bundle(alloc[slot]),
                                "misreport_bundle": format_bundle(other),
                            },
                        )
    return _holds(name, checked)


def check_sp(rule, domain) -> AxiomReport:
    return _sp_like(rule, domain, weak=False)


def check_wsp(rule, domain) -> AxiomReport:
    return _sp_like(rule, domain, weak=True)


def check_msp_certificate(rule, domain) -> AxiomReport:
    sw = _sweep(rule, domain)
    checked = 0
    for xi in range(len(sw.xs)):
        grid = sw.grid(xi)
        targets = _misreport_targets(sw, xi)
        for truth_idx in range(sw.P):
            pref = sw.prefs[truth_idx]
            unanimous = sw.encode([truth_idx] * sw.n)
            for slot in range(sw.n):
                base = grid[unanimous][slot]
                for alt in targets[truth_idx]:
                    checked += 1
                    other = grid[sw.replace(unanimous, slot, alt)][slot]
                    if not weakly_dominates(pref, base, other):
                        return AxiomReport(
                            "MSP-certificate",
                            "violated",
                            {
                                "clause": "a",
                                "problem": describe_problem(sw.problem(xi, unanimous)),
                                "agent": sw.agents[slot],
                                "misreport": format_pref(sw.prefs[alt]),
                            },
                            checked,
                        )
        for code, alloc in enumerate(grid):
            for slot in range(sw.n):
                truth_idx = sw.slot_index(code, slot)
                base = grid[sw.encode([truth_idx] * sw.n)][slot]
                checked += 1
                if not weakly_dominates(sw.prefs[truth_idx], alloc[slot], base):
                    return AxiomReport(
                        "MSP-certificate",
                        "violated",
                        {
                            "clause": "b",
                            "problem": describe_problem(sw.problem(xi, code)),
                            "agent": sw.agents[slot],
                            "unanimous_bundle": format_bundle(base),
                            "bundle": format_bundle(alloc[slot]),
                        },
                        checked,
                    )
    return AxiomReport("MSP-certificate", "proved", None, checked)


def _report_change(rule, domain, kind: str) -> AxiomReport:
    sw = _sweep(rule, domain)
    targets = _truncation_targets(sw, 0 if kind == "TP" else 1)
    checked = 0
    for xi in range(len(sw.xs)):
        grid = sw.grid(xi)
        for code, alloc in enumerate(grid):
            profile = sw.profile(code)
            for slot in range(sw.n):
                for alt in targets[sw.slot_index(code, slot)]:
                    checked += 1
                    other = grid[sw.replace(code, slot, alt)][slot]
                    if not weakly_dominates(profile[slot], alloc[slot], other):
                        return _violated(
                            kind,
                            checked,
                            {
                                "problem": describe_problem(sw.problem(xi, code)),
                                "agent": sw.agents[slot],
                                "report": format_pref(sw.prefs[alt]),
                                "truthful_bundle": format_bundle(alloc[slot]),
                                "report_bundle": format_bundle(other),
                            },
                        )
    return _holds(kind, checked)


def check_tp(rule, domain) -> AxiomReport:
    return _report_change(rule, domain, "TP")


def check_ep(rule, domain) -> AxiomReport:
    return _report_change(rule, domain, "EP")


def check_ti(rule, domain) -> AxiomReport:
    sw = _sweep(rule, domain)
    targets = _truncation_targets(sw, 0)
    checked = 0
    for xi in range(len(sw.xs)):
        grid = sw.grid(xi)
        for code, alloc in enumerate(grid):
            for slot in range(sw.n):
                for alt in targets[sw.slot_index(code, slot)]:
                    if alloc[slot] & ~sw.prefs[alt].acceptable:
                        continue
                    checked += 1
                    other = grid[sw.replace(code, slot, alt)][slot]
                    if other != alloc[slot]:
                        return _violated(
                            "TI",
                            checked,
                            {
                                "problem": describe_problem(sw.problem(xi, code)),
                                "agent": sw.agents[slot],
                                "truncation": format_pref(sw.prefs[alt]),
                                "bundle_before": format_bundle(alloc[slot]),
                                "bundle_after": format_bundle(other),
                            },
                        )
    return _holds("TI", checked)
