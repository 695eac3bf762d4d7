"""Scalar reference checkers: the differential-test oracle for the gather checkers.

These are the per-problem and per-pair loops the FixedSweep and VariableSweep
checkers in ``draftkit.axioms`` replace. They call scalar ``weakly_dominates``
once per comparison, walk the domain in enumeration order and stop at the
first violation, so their
``AxiomReport`` (verdict, ``checked`` count and witness) is the definition the
fast checkers must reproduce exactly. They share only the sweep's grid, the
witness formatting and the trade-cycle search with the code under test;
restriction classes, truncation targets, adversary columns, both dominance
relations and the brute-force Pareto oracle are recomputed here (the `core.restrict`
scan is the oracle of the restriction codes), and so are the rule-space search's
problem keys (a first-occurrence scan of every problem) and the keys that
`ProblemKeys` finds on a variable domain (`restricted_code`), candidate
allocations and report alternatives, per problem. The
misreport-by-misreport manipulation search is here too, as the oracle of the
one-block `verifier.find_manipulation`, and so are the step-by-step draft
engines, as the oracle of the turn plans that `Rule.run` interprets. The
per-pair `build_csp` and the dense (P, P, C) grid revision are kept as the
oracles of the batched constraint build and the live-pair grid kernel, and
the all-rows unary table (`admissible` on every (key, split) row) as the
oracle of the slot-factored `csp.admitted`. The truncation-invariance lemma's
cell check is here on Preference objects and `weakly_dominates_oracle`, as the
oracle of P4's array check. The per-draw random-rule loop
defines the report shape of the efficiency decomposition's seeded spot check,
and the `top_k` form of quota dominance is the oracle of its rank-space form.
The rules that draftkit defines only as array engines (serial dictatorship,
π-dictatorship, null, tabulated, piecewise, the IR and neutrality
counterexamples and the pinned overrides) keep their scalar runners here, with
the row-by-row fill that runs a rule through one, as the oracle of those
engines.
"""

from __future__ import annotations

from ast import literal_eval
from functools import lru_cache
from itertools import chain, combinations, permutations, product
from random import Random

from draftkit.axioms import (
    OBJECT_NAMES,
    AxiomReport,
    FixedSweep,
    VariableSweep,
    _trade_cycle,
    _union,
    describe_allocation,
    describe_problem,
    format_bundle,
    format_pref,
)
from draftkit.core import (
    INFINITE,
    Allocation,
    PickingSequence,
    Preference,
    Priority,
    Problem,
    bundle_of,
    bundle_size,
    is_truncation_of,
    objects_of,
    restrict,
    subsets_of,
    top,
    top_k,
)
from draftkit.dominance import (
    additive_utility,
    strictly_dominates,
    weakly_dominates,
    weakly_dominates_oracle,
)
from draftkit.rules import (
    Case,
    Rule,
    _agent_order,
    _population_order,
    problem_key,
    restricted_key,
    unacceptable_draft_rule,
)


def _sweep(rule, domain) -> FixedSweep:
    return rule if isinstance(rule, FixedSweep) else FixedSweep(rule, domain)


def _holds(axiom, checked):
    return AxiomReport(axiom, "holds", None, checked)


def _violated(axiom, checked, witness, note=""):
    return AxiomReport(axiom, "violated", witness, checked, note)


def rank_masks_dominate(s: int, t: int) -> bool:
    """Rank-space dominance by position: the i-th best of s is at least as good (a lower bit)
    as the i-th best of t, for every i up to |t|."""
    if s.bit_count() < t.bit_count():
        return False
    while t:
        if (s & -s) > (t & -t):
            return False
        s &= s - 1
        t &= t - 1
    return True


def quota_weakly_dominates(pref, quota, s, t) -> bool:
    """`dominance.quota_weakly_dominates` in object space: `top_k` keeps each bundle's best
    `quota` objects by the ranking, then `weakly_dominates` compares them."""
    if quota < 1:
        raise ValueError("quota must be at least 1")
    if quota != INFINITE:
        s = top_k(pref, s, min(int(quota), bundle_size(s)))
        t = top_k(pref, t, min(int(quota), bundle_size(t)))
    return weakly_dominates(pref, s, t)


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


def restriction_reps(domain, x) -> list[int]:
    """Per index into the domain's preference space, the first index whose `core.restrict`
    to x is the same."""
    first: dict = {}
    prefs = domain.preference_space()
    return [first.setdefault(restrict(p, x), i) for i, p in enumerate(prefs)]


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
        for code, alloc in enumerate(sw.grid(xi).tolist()):
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
        big_grid, small_grid = sw.grid(bi).tolist(), sw.grid(si).tolist()
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
        grid = sw.grid(xi).tolist()
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
        grid = sw.grid(xi).tolist()
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


def _adversary_columns(sw: FixedSweep, xi: int, slot: int) -> list[list[int]]:
    """Per report index of the slot, its bundles against every adversary profile, in order."""
    grid = sw.grid(xi).tolist()
    adversaries = [code for code in sw.codes() if sw.slot_index(code, slot) == 0]
    return [
        [grid[sw.replace(code, slot, report)][slot] for code in adversaries]
        for report in range(sw.P)
    ]


def check_msp_falsify(rule, domain, schemes) -> AxiomReport:
    """Sound maxmin falsifier: truth must attain the maxmin utility under every given scheme."""
    sw = _sweep(rule, domain)
    checked = 0
    for xi in range(len(sw.xs)):
        for slot in range(sw.n):
            bundles = _adversary_columns(sw, xi, slot)
            for truth_idx in range(sw.P):
                pref = sw.prefs[truth_idx]
                for scheme in schemes:
                    checked += 1
                    values = {
                        report_idx: min(additive_utility(pref, scheme, b) for b in column)
                        for report_idx, column in enumerate(bundles)
                    }
                    if values[truth_idx] < max(values.values()):
                        better = max(values, key=lambda r: values[r])
                        return AxiomReport(
                            "MSP-falsifier",
                            "refuted",
                            {
                                "available": format_bundle(sw.xs[xi]),
                                "agent": sw.agents[slot],
                                "truth": format_pref(pref),
                                "scheme": scheme.name,
                                "better_report": format_pref(sw.prefs[better]),
                                "maxmin": str(max(values.values())),
                                "truthful_min": str(values[truth_idx]),
                            },
                            checked,
                        )
    return AxiomReport(
        "MSP-falsifier", "holds", None, checked, note="no falsification under given schemes"
    )


def check_truthful_best_case(rule, domain, schemes) -> AxiomReport:
    """Best case over adversaries of truthful play equals the utility of the k best objects."""
    sw = _sweep(rule, domain)
    checked = 0
    for xi, x in enumerate(sw.xs):
        for slot in range(sw.n):
            adversary_bundles = _adversary_columns(sw, xi, slot)
            for truth_idx in range(sw.P):
                pref = sw.prefs[truth_idx]
                bundles = set(adversary_bundles[truth_idx])
                k = bundle_size(next(iter(bundles)))
                if any(bundle_size(b) != k for b in bundles):
                    return _violated(
                        "best-case-top-k",
                        checked,
                        {
                            "available": format_bundle(x),
                            "agent": sw.agents[slot],
                            "note": "bundle size varies with adversaries",
                        },
                    )
                best = top_k(pref, x, min(k, bundle_size(x)))
                for scheme in schemes:
                    checked += 1
                    target = additive_utility(pref, scheme, best)
                    got = max(additive_utility(pref, scheme, b) for b in bundles)
                    if got != target:
                        return _violated(
                            "best-case-top-k",
                            checked,
                            {
                                "available": format_bundle(x),
                                "agent": sw.agents[slot],
                                "truth": format_pref(pref),
                                "scheme": scheme.name,
                                "best_bundle_utility": str(got),
                                "top_k_utility": str(target),
                            },
                        )
    return _holds("best-case-top-k", checked)


def _report_change(rule, domain, kind: str) -> AxiomReport:
    sw = _sweep(rule, domain)
    targets = _truncation_targets(sw, 0 if kind == "TP" else 1)
    checked = 0
    for xi in range(len(sw.xs)):
        grid = sw.grid(xi).tolist()
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
        grid = sw.grid(xi).tolist()
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


# --- unary axioms: one allocation at one problem ---------------------------


def check_nw(rule, domain) -> AxiomReport:
    """Non-wastefulness: every available object is assigned."""
    sw = _sweep(rule, domain)
    checked = 0
    for xi, x in enumerate(sw.xs):
        for code, alloc in enumerate(sw.grid(xi).tolist()):
            checked += 1
            if _union(alloc) != x:
                prob = sw.problem(xi, code)
                return _violated(
                    "NW",
                    checked,
                    {
                        "problem": describe_problem(prob),
                        "allocation": describe_allocation(prob, alloc),
                        "unassigned": format_bundle(x & ~_union(alloc)),
                    },
                )
    return _holds("NW", checked)


def check_wrp(rule, domain, priority: Priority) -> AxiomReport:
    """Weak respect for the priority: bundle sizes never grow along the priority order."""
    sw = _sweep(rule, domain)
    pos = {a: priority.index(a) for a in sw.agents}
    order = sorted(range(sw.n), key=lambda i: pos[sw.agents[i]])
    checked = 0
    for xi in range(len(sw.xs)):
        for code, alloc in enumerate(sw.grid(xi).tolist()):
            checked += 1
            sizes = [bundle_size(alloc[i]) for i in order]
            if any(a < b for a, b in zip(sizes, sizes[1:])):
                prob = sw.problem(xi, code)
                return _violated(
                    f"WRP-{list(priority)}",
                    checked,
                    {
                        "problem": describe_problem(prob),
                        "allocation": describe_allocation(prob, alloc),
                        "sizes": sizes,
                    },
                )
    return _holds(f"WRP-{list(priority)}", checked)


def check_rt(rule, domain) -> AxiomReport:
    """Robustness against trades: the trade relation is acyclic at every problem."""
    sw = _sweep(rule, domain)
    checked = 0
    for xi in range(len(sw.xs)):
        for code, alloc in enumerate(sw.grid(xi).tolist()):
            checked += 1
            profile = sw.profile(code)
            cycle = _trade_cycle(profile, alloc)
            if cycle is not None:
                prob = sw.problem(xi, code)
                return _violated(
                    "RT",
                    checked,
                    {
                        "problem": describe_problem(prob),
                        "allocation": describe_allocation(prob, alloc),
                        "cycle": [OBJECT_NAMES[o] for o in cycle],
                    },
                )
    return _holds("RT", checked)


def check_ir(rule, domain) -> AxiomReport:
    """Individual rationality: nobody receives an object she finds unacceptable."""
    sw = _sweep(rule, domain)
    checked = 0
    for xi in range(len(sw.xs)):
        for code, alloc in enumerate(sw.grid(xi).tolist()):
            checked += 1
            profile = sw.profile(code)
            for i in range(sw.n):
                bad = alloc[i] & ~profile[i].acceptable
                if bad:
                    prob = sw.problem(xi, code)
                    return _violated(
                        "IR",
                        checked,
                        {
                            "problem": describe_problem(prob),
                            "allocation": describe_allocation(prob, alloc),
                            "agent": prob.agents[i],
                            "unacceptable": format_bundle(bad),
                        },
                    )
    return _holds("IR", checked)


def check_nw_star(rule, domain) -> AxiomReport:
    """Non-wastefulness with unacceptable objects: everything acceptable to someone is assigned."""
    sw = _sweep(rule, domain)
    checked = 0
    for xi, x in enumerate(sw.xs):
        for code, alloc in enumerate(sw.grid(xi).tolist()):
            checked += 1
            profile = sw.profile(code)
            wanted = 0
            for p in profile:
                wanted |= p.acceptable
            missing = wanted & x & ~_union(alloc)
            if missing:
                prob = sw.problem(xi, code)
                return _violated(
                    "NW*",
                    checked,
                    {
                        "problem": describe_problem(prob),
                        "allocation": describe_allocation(prob, alloc),
                        "unassigned": format_bundle(missing),
                    },
                )
    return _holds("NW*", checked)


def check_wrp_star(rule, domain, priority: Priority) -> AxiomReport:
    """Weak priority respect counted in each agent's own acceptable objects (both sides)."""
    sw = _sweep(rule, domain)
    pos = {a: priority.index(a) for a in sw.agents}
    checked = 0
    for xi in range(len(sw.xs)):
        for code, alloc in enumerate(sw.grid(xi).tolist()):
            checked += 1
            profile = sw.profile(code)
            for i in range(sw.n):
                acc = profile[i].acceptable
                mine = bundle_size(alloc[i] & acc)
                for j in range(sw.n):
                    if pos[sw.agents[i]] < pos[sw.agents[j]] and mine < bundle_size(
                        alloc[j] & acc
                    ):
                        prob = sw.problem(xi, code)
                        return _violated(
                            f"WRP*-{list(priority)}",
                            checked,
                            {
                                "problem": describe_problem(prob),
                                "allocation": describe_allocation(prob, alloc),
                                "higher": prob.agents[i],
                                "lower": prob.agents[j],
                            },
                        )
    return _holds(f"WRP*-{list(priority)}", checked)


def check_eff(rule, domain) -> AxiomReport:
    """Efficiency via its two-way decomposition: NW+RT, or IR+NW*+RT with unacceptable objects."""
    parts = (
        [check_ir, check_nw_star, check_rt]
        if domain.variant == "unacceptable"
        else [check_nw, check_rt]
    )
    sw = _sweep(rule, domain)
    checked = 0
    for part in parts:
        rep = part(sw, domain)
        checked = max(checked, rep.checked)
        if not rep.holds:
            name = "EFF*" if domain.variant == "unacceptable" else "EFF"
            return _violated(name, rep.checked, rep.witness, note=f"fails {rep.axiom}")
    name = "EFF*" if domain.variant == "unacceptable" else "EFF"
    return _holds(name, checked)


def pareto_oracle(problem: Problem, alloc: Allocation) -> bool:
    """Brute-force efficiency: no feasible allocation strictly Pareto-dominates this one.

    Unacceptable variant: individual rationality is part of the definition.
    Dominating means every agent weakly better off and someone strictly, under
    the variant's bundle comparison.
    """
    n = len(problem.agents)
    objs = objects_of(problem.available)
    if len(objs) > 5 or n > 3:
        raise ValueError("oracle capped at 5 objects / 3 agents")
    if problem.variant == "unacceptable":
        for pref, b in zip(problem.profile, alloc):
            if b & ~pref.acceptable:
                return False
    for assignment in product(range(n + 1), repeat=len(objs)):
        bundles = [0] * n
        for o, who in zip(objs, assignment):
            if who < n:
                bundles[who] |= 1 << o
        some_strict = False
        all_weak = True
        for pref, b, a in zip(problem.profile, bundles, alloc):
            if not weakly_dominates(pref, b, a):
                all_weak = False
                break
            if not weakly_dominates(pref, a, b):
                some_strict = True
        if all_weak and some_strict:
            return False
    return True


def check_wrp_quota(rule, domain, priority: Priority) -> AxiomReport:
    """Quota form of weak priority respect: filled quota excuses a smaller bundle."""
    sw = _sweep(rule, domain)
    quotas = domain.quotas
    pos = {a: priority.index(a) for a in sw.agents}
    checked = 0
    for xi in range(len(sw.xs)):
        for code, alloc in enumerate(sw.grid(xi).tolist()):
            checked += 1
            for i in range(sw.n):
                size_i = bundle_size(alloc[i])
                if size_i == quotas[i]:
                    continue
                for j in range(sw.n):
                    if pos[sw.agents[i]] < pos[sw.agents[j]] and size_i < bundle_size(
                        alloc[j]
                    ):
                        prob = sw.problem(xi, code)
                        return _violated(
                            f"WRPq-{list(priority)}",
                            checked,
                            {
                                "problem": describe_problem(prob),
                                "allocation": describe_allocation(prob, alloc),
                                "higher": sw.agents[i],
                                "lower": sw.agents[j],
                            },
                        )
    return _holds(f"WRPq-{list(priority)}", checked)


def check_nw_quota(rule, domain) -> AxiomReport:
    """Quota form of non-wastefulness: assign min(|X|, total quota) objects."""
    sw = _sweep(rule, domain)
    total = sum(sw.domain.quotas)
    checked = 0
    for xi, x in enumerate(sw.xs):
        target = min(bundle_size(x), total)
        for code, alloc in enumerate(sw.grid(xi).tolist()):
            checked += 1
            if bundle_size(_union(alloc)) != target:
                prob = sw.problem(xi, code)
                return _violated(
                    "NWq",
                    checked,
                    {
                        "problem": describe_problem(prob),
                        "allocation": describe_allocation(prob, alloc),
                        "assigned": bundle_size(_union(alloc)),
                        "target": target,
                    },
                )
    return _holds("NWq", checked)


# --- rule-space encoders: the per-allocation and per-pair builds ------------


def _unary_ok(axiom, problem, alloc, priority) -> bool:
    profile, quotas = problem.profile, problem.quotas or (None,) * len(problem.agents)
    n = len(problem.agents)
    if axiom == "NW":
        return _union(alloc) == problem.available
    if axiom == "NWq":
        total = sum(problem.quotas)
        return bundle_size(_union(alloc)) == min(bundle_size(problem.available), total)
    if axiom == "NW*":
        wanted = 0
        for p in profile:
            wanted |= p.acceptable
        return wanted & problem.available & ~_union(alloc) == 0
    if axiom == "IR":
        return all(not b & ~p.acceptable for p, b in zip(profile, alloc))
    if axiom in ("EF", "EF1"):
        ok = _dominates if axiom == "EF" else _ef1_ok
        return all(
            ok(profile[j], quotas[j], alloc[j], alloc[i])
            for j in range(n)
            for i in range(n)
            if i != j
        )
    if axiom == "RT":
        return _trade_cycle(profile, alloc) is None
    if axiom == "EFF":
        parts = ("IR", "NW*", "RT") if problem.variant == "unacceptable" else ("NW", "RT")
        return all(_unary_ok(ax, problem, alloc, priority) for ax in parts)
    pos = {a: priority.index(a) for a in problem.agents}
    for i in range(n):
        for j in range(n):
            if pos[problem.agents[i]] >= pos[problem.agents[j]]:
                continue
            if axiom == "RP":
                if not _dominates(profile[i], quotas[i], alloc[i], alloc[j]):
                    return False
            elif axiom == "WRP":
                if bundle_size(alloc[i]) < bundle_size(alloc[j]):
                    return False
            elif axiom == "WRP*":
                acc = profile[i].acceptable
                if bundle_size(alloc[i] & acc) < bundle_size(alloc[j] & acc):
                    return False
            else:  # WRPq
                if bundle_size(alloc[i]) != problem.quotas[i] and bundle_size(
                    alloc[i]
                ) < bundle_size(alloc[j]):
                    return False
    return True


# restricted preferences and the key slots made from them, memoised per (preference, set)
_restricted = lru_cache(maxsize=None)(restrict)
_restricted_key = lru_cache(maxsize=None)(restricted_key)


def _problem_key(problem: Problem):
    """`rules.problem_key`, from the memoised restrictions."""
    sig = tuple(_restricted_key(p, problem.available) for p in problem.profile)
    return (problem.variant, problem.agents, problem.available, sig, problem.quotas)


def distinct_problems(domain):
    """Each problem key once with its first problem: a scan of every problem in order."""
    first: dict = {}
    for prob in domain.problems():
        first.setdefault(_problem_key(prob), prob)
    return list(first), list(first.values())


@lru_cache(maxsize=None)
def _splits_of(available: int, n: int, quotas) -> tuple[Allocation, ...]:
    """Every split of the available objects among n agents within the quotas, in product
    order; memoised per (set, n, quotas)."""
    objs = objects_of(available)
    out = []
    for assign in product(range(n + 1), repeat=len(objs)):
        bundles = [0] * n
        for o, who in zip(objs, assign):
            if who < n:
                bundles[who] |= 1 << o
        alloc = tuple(bundles)
        if quotas is not None and any(bundle_size(b) > q for b, q in zip(alloc, quotas)):
            continue
        out.append(alloc)
    return tuple(out)


def _all_allocations(problem: Problem) -> list[Allocation]:
    """Every split of the available objects within the quotas, in product order."""
    return list(_splits_of(problem.available, len(problem.agents), problem.quotas))


@lru_cache(maxsize=None)
def _alternatives(variant: str, available: int) -> tuple[Preference, ...]:
    """Every key-level preference over the available set, memoised per (variant, set)."""
    rankings = list(permutations(objects_of(available)))
    if variant == "unacceptable":
        return tuple(Preference(r, c) for r in rankings for c in range(len(r) + 1))
    return tuple(Preference(r) for r in rankings)


def _slot_alternatives(domain, prob: Problem, slot: int):
    """All key-level preferences one agent could report at this problem (including her own)."""
    return _alternatives(domain.variant, prob.available)


def build_csp(domain, axioms, priority=None):
    """Candidates and allowed masks, one scalar comparison per allocation pair."""
    from draftkit.csp import BinaryConstraint

    keys, problems = distinct_problems(domain)
    key_index = {k: i for i, k in enumerate(keys)}

    unary = [ax for ax in axioms if ax not in ("RM", "SP", "WSP", "TI")]
    candidates = [
        [a for a in _all_allocations(prob) if all(_unary_ok(ax, prob, a, priority) for ax in unary)]
        for prob in problems
    ]
    constraints = []

    def add_pair(name, u, v, ok):
        cu, cv = candidates[u], candidates[v]
        forward = [0] * len(cu)
        backward = [0] * len(cv)
        for i, a in enumerate(cu):
            for j, b in enumerate(cv):
                if ok(a, b):
                    forward[i] |= 1 << j
                    backward[j] |= 1 << i
        constraints.append(BinaryConstraint(name, u, v, forward, backward))

    quotas = domain.quotas or (None,) * len(domain.populations[0])
    if "RM" in axioms:
        for u, prob in enumerate(problems):
            for small in subsets_of(prob.available):
                if small == prob.available:
                    continue
                reduced = Problem(prob.variant, prob.agents, small, prob.profile, prob.quotas)
                v = key_index[_problem_key(reduced)]

                def rm_ok(a, b, profile=prob.profile):
                    return all(
                        _dominates(p, q, big, sm) for p, q, big, sm in zip(profile, quotas, a, b)
                    )

                add_pair("RM", u, v, rm_ok)

    if "SP" in axioms or "WSP" in axioms:
        weak = "WSP" in axioms
        seen_pairs = set()
        for u, prob in enumerate(problems):
            for slot in range(len(prob.agents)):
                for alt in _slot_alternatives(domain, prob, slot):
                    new_profile = list(prob.profile)
                    new_profile[slot] = alt
                    other = Problem(
                        prob.variant, prob.agents, prob.available, tuple(new_profile), prob.quotas
                    )
                    v = key_index[_problem_key(other)]
                    if v == u or (min(u, v), max(u, v), slot) in seen_pairs:
                        continue
                    seen_pairs.add((min(u, v), max(u, v), slot))
                    pu, pv, q = prob.profile[slot], problems[v].profile[slot], quotas[slot]

                    def ok(a, b, pu=pu, pv=pv, q=q, slot=slot):
                        if weak:
                            return not (
                                _dominates(pu, q, b[slot], a[slot])
                                and not _dominates(pu, q, a[slot], b[slot])
                            ) and not (
                                _dominates(pv, q, a[slot], b[slot])
                                and not _dominates(pv, q, b[slot], a[slot])
                            )
                        return _dominates(pu, q, a[slot], b[slot]) and _dominates(
                            pv, q, b[slot], a[slot]
                        )

                    add_pair("WSP" if weak else "SP", u, v, ok)

    if "TI" in axioms:
        for u, prob in enumerate(problems):
            for slot in range(len(prob.agents)):
                rpref = _restricted(prob.profile[slot], prob.available)
                for alt in _slot_alternatives(domain, prob, slot):
                    if alt.ranking != rpref.ranking or alt.cutoff >= rpref.cutoff:
                        continue
                    new_profile = list(prob.profile)
                    new_profile[slot] = alt
                    other = Problem(prob.variant, prob.agents, prob.available, tuple(new_profile))
                    v = key_index[_problem_key(other)]

                    def ti_ok(a, b, acc=alt.acceptable, slot=slot):
                        return bool(a[slot] & ~acc) or b[slot] == a[slot]

                    add_pair("TI", u, v, ti_ok)

    return keys, candidates, constraints


def admitted(space, x, splits, digits, names):
    """`csp.admitted` as the all-rows loop: `admissible` on every (key, split) row, the
    splits tiled and the keys' digits repeated, in steps of at most 2**15 rows."""
    import numpy as np

    from draftkit.axioms import admissible

    out = np.empty((len(digits), len(splits)), dtype=bool)
    step = max(1, (1 << 15) // len(splits))
    for lo in range(0, len(digits), step):
        d = digits[lo : lo + step]
        tiled, repeated = np.tile(splits, (len(d), 1)), np.repeat(d, len(splits), axis=0)
        out[lo : lo + step] = admissible(space, x, tiled, repeated, names).reshape(len(d), -1)
    return out


def build_csp_pairwise(domain, axioms, priority=None):
    """`csp.build_csp`'s constraints, each built by its own call chain: the allowed matrix
    of one (u, v, slot) gathered from the relation and packed to ints row by row. The
    batched build must give the same list, in the same order."""
    import numpy as np

    from draftkit.axioms import DEVIATIONS, AxiomSpace, _change_targets
    from draftkit.csp import BinaryConstraint, ProblemKeys, _splits

    index = ProblemKeys(domain)
    space = AxiomSpace(domain, priority)
    n = space.n
    rows = []
    for xi, x in enumerate(index.xs):
        splits = _splits(x, n, domain.quotas)
        rows += [splits[keep] for keep in admitted(space, x, splits, index.digits[xi], axioms)]
    digits = np.concatenate(index.digits)
    tables = [space.relation(slot) for slot in range(n)]
    constraints = []

    def masks(allowed):
        packed = np.packbits(allowed, axis=1, bitorder="little")
        return [int.from_bytes(row.tobytes(), "little") for row in packed]

    def add_pair(name, u, v, allowed):
        constraints.append(BinaryConstraint(name, u, v, masks(allowed), masks(allowed.T)))

    def columns(u, v, slot):
        return rows[u][:, slot, None], rows[v][None, :, slot]

    if "RM" in axioms:
        ok = DEVIATIONS["RM"]
        set_index = {x: i for i, x in enumerate(index.xs)}
        for xi, x in enumerate(index.xs):
            ys = [set_index[y] for y in subsets_of(x) if y != x]
            smaller = [index.find(yi, index.digits[xi]) for yi in ys]
            for u, found in enumerate(zip(*(f.tolist() for f in smaller)), index.offsets[xi]):
                for v in found:
                    allowed = np.ones((len(rows[u]), len(rows[v])), dtype=bool)
                    for slot in range(n):
                        allowed &= ok(tables[slot], digits[u, slot], *columns(u, v, slot))
                    add_pair("RM", u, v, allowed)

    if "SP" in axioms or "WSP" in axioms:
        name = "WSP" if "WSP" in axioms else "SP"
        ok = DEVIATIONS[name]
        for xi, firsts in enumerate(index.firsts):
            own = index.digits[xi]
            step = np.stack([index.steps(xi, slot, firsts, own) for slot in range(n)], axis=1)
            for k, slot, j in np.argwhere(step > 0).tolist():
                u = index.offsets[xi] + k
                v = u + int(step[k, slot, j])
                (a, b), dom = columns(u, v, slot), tables[slot]
                allowed = ok(dom, digits[u, slot], a, b) & ok(dom, digits[v, slot], b, a)
                add_pair(name, u, v, allowed)

    if "TI" in axioms:
        ok = DEVIATIONS["TI"]
        truncations, counted = _change_targets(domain.n_objects, 0)
        for xi in range(len(index.xs)):
            own = index.digits[xi]
            step = np.stack([index.steps(xi, i, truncations[own[:, i]], own) for i in range(n)], 1)
            fresh = np.diff(step, axis=2, prepend=step.min() - 1) != 0
            for k, slot, j in np.argwhere(counted[own] & fresh & (step != 0)).tolist():
                u = index.offsets[xi] + k
                v = u + int(step[k, slot, j])
                add_pair("TI", u, v, ok(space.acceptable, digits[v, slot], *columns(u, v, slot)))

    return constraints


# --- grid encoder: cones by a triple loop over scalar rank-mask dominance -----


def build_grid(n_objects, axioms, priority=(1, 2)):
    """(initial, m_row, m_col) of the two-agent grid, one scalar comparison per bundle pair."""
    from itertools import permutations

    import numpy as np

    from draftkit.core import Preference

    deviation = "SP" if "SP" in axioms else "WSP"
    unary = [ax for ax in axioms if ax not in ("SP", "WSP")]
    prefs = [Preference(r) for r in permutations(range(n_objects))]
    P = len(prefs)
    full = (1 << n_objects) - 1
    C = 1 << n_objects
    rk1 = [[p.rank_mask(a) for a in range(C)] for p in prefs]
    rk2 = [[p.rank_mask(full & ~a) for a in range(C)] for p in prefs]

    def cones(rk):
        down, up = np.zeros((P, C), dtype=np.uint64), np.zeros((P, C), dtype=np.uint64)
        sdown, sup = np.zeros_like(down), np.zeros_like(up)
        for r in range(P):
            for a in range(C):
                d = u = 0
                for b in range(C):
                    if rank_masks_dominate(rk[r][a], rk[r][b]):
                        d |= 1 << b
                    if rank_masks_dominate(rk[r][b], rk[r][a]):
                        u |= 1 << b
                down[r, a], up[r, a] = d, u
                sdown[r, a], sup[r, a] = d & ~u, u & ~d
        return down, up, sdown, sup

    down1, up1, sdown1, sup1 = cones(rk1)
    down2, up2, sdown2, sup2 = cones(rk2)
    allmask = np.uint64((1 << C) - 1)
    if deviation == "SP":
        m_col = down1[:, None, :] & up1[None, :, :]
        m_row = down2[:, None, :] & up2[None, :, :]
    else:
        m_col = (allmask ^ sup1)[:, None, :] & (allmask ^ sdown1)[None, :, :]
        m_row = (allmask ^ sup2)[:, None, :] & (allmask ^ sdown2)[None, :, :]

    def ef1_side(p, own, other):
        if rank_masks_dominate(p.rank_mask(own), p.rank_mask(other)):
            return True
        return any(
            rank_masks_dominate(p.rank_mask(own), p.rank_mask(other & ~(1 << o)))
            for o in objects_of(other)
        )

    row_ok = np.full(P, allmask, dtype=np.uint64)
    col_ok = np.full(P, allmask, dtype=np.uint64)
    for r, p in enumerate(prefs):
        rmask = cmask = 0
        for a in range(C):
            ok1 = ok2 = True
            if "EF1" in unary:
                ok1 = ok1 and ef1_side(p, a, full & ~a)
                ok2 = ok2 and ef1_side(p, full & ~a, a)
            if "RP" in unary:
                if priority == (1, 2):
                    ok1 = ok1 and rank_masks_dominate(p.rank_mask(a), p.rank_mask(full & ~a))
                else:
                    ok2 = ok2 and rank_masks_dominate(p.rank_mask(full & ~a), p.rank_mask(a))
            rmask |= ok1 << a
            cmask |= ok2 << a
        row_ok[r], col_ok[r] = rmask, cmask
    initial = row_ok[:, None] & col_ok[None, :]
    if "EFF" in unary:
        for r1 in range(P):
            for r2 in range(P):
                keep = 0
                for a in range(C):
                    if int(initial[r1, r2]) >> a & 1 and _trade_cycle(
                        (prefs[r1], prefs[r2]), (a, full & ~a)
                    ) is None:
                        keep |= 1 << a
                initial[r1, r2] = keep
    return initial, m_row, m_col


# --- grid propagation: the dense revision the live-pair kernel replaces ---------


def grid_cones(cones):
    """(P, P, C) allowed masks of a factored (2, P, C) cone pair."""
    return cones[0][:, None, :] & cones[1][None, :, :]


def _grid_revise(D, m, lines, same, cross, stats, budget):
    """Each listed row of D against the (P, P, C) masks m, in order, through one
    (P, P, C) temporary per row."""
    import numpy as np

    from draftkit.csp import BudgetExceeded

    pow2 = np.uint64(1) << np.arange(m.shape[-1], dtype=np.uint64)
    for r in sorted(lines):
        stats.revisions += len(D)
        if stats.revisions > budget:
            raise BudgetExceeded
        B = D[r]
        alive = ((B[None, :, None] & m) != 0).all(axis=1)
        newB = B & (alive.astype(np.uint64) * pow2).sum(axis=-1, dtype=np.uint64)
        changed = np.nonzero(newB != B)[0]
        if changed.size:
            D[r] = newB
            wiped = changed[newB[changed] == 0]
            if wiped.size:
                return r, int(wiped[0])
            cross.update(changed.tolist())
            same.add(r)
    return None


def grid_propagate(m_row, m_col, D, rows, cols, stats, budget=10**9):
    """Row/column arc consistency to fixpoint over dense masks, dirty rows then dirty
    columns each round; returns an emptied (r1, r2) or None."""
    rows, cols = set(rows), set(cols)
    while rows or cols:
        lines, rows = rows, set()
        wiped = _grid_revise(D, m_row, lines, rows, cols, stats, budget)
        if wiped is not None:
            return wiped
        lines, cols = cols, set()
        wiped = _grid_revise(D.T, m_col, lines, cols, rows, stats, budget)
        if wiped is not None:
            return wiped[::-1]
    return None


# --- variable-population checkers: the per-problem loops over a VariableSweep --


def _vsweep(rule, domain) -> VariableSweep:
    return rule if isinstance(rule, VariableSweep) else VariableSweep(rule, domain)


def _var_problems(sw: VariableSweep, pop, x):
    """(code, profile, allocation) at (pop, x), in profile-code order."""
    grid = sw.grid(pop, x).tolist()
    for code, combo in enumerate(product(sw.domain.prefs_at(x), repeat=len(pop))):
        yield code, combo, grid[code]


def _alloc_at(sw: VariableSweep, pop, x, profile) -> Allocation:
    # product order: the first agent's preference is the most significant digit
    rankings = [p.ranking for p in sw.domain.prefs_at(x)]
    code = 0
    for p in profile:
        code = code * len(rankings) + rankings.index(p.ranking)
    return tuple(sw.grid(pop, x)[code].tolist())


def _var_problem(pop, x, profile) -> Problem:
    return Problem("variable", pop, x, profile)


def _restricted_profile(profile, y):
    return tuple(Preference(tuple(o for o in p.ranking if y >> o & 1)) for p in profile)


def restricted_code(domain, profile, y) -> int:
    """The profile code, at available set y of a variable domain, of `profile` (preferences
    over every object) restricted to y by `core.restrict`: its place in product order over
    y's rankings. The empty set has one profile."""
    rankings = [p.ranking for p in domain.prefs_at(y)]
    code = 0
    for p in profile:
        code = code * len(rankings) + (rankings.index(restrict(p, y).ranking) if y else 0)
    return code


def check_nw_var(rule, domain) -> AxiomReport:
    sw = _vsweep(rule, domain)
    checked = 0
    for pop in domain.populations:
        for x in domain.available_sets:
            for code, profile, alloc in _var_problems(sw, pop, x):
                checked += 1
                if _union(alloc) != x:
                    prob = _var_problem(pop, x, profile)
                    return _violated(
                        "NW",
                        checked,
                        {
                            "problem": describe_problem(prob),
                            "allocation": describe_allocation(prob, alloc),
                            "unassigned": format_bundle(x & ~_union(alloc)),
                        },
                    )
    return _holds("NW", checked)


def check_ef1_var(rule, domain) -> AxiomReport:
    sw = _vsweep(rule, domain)
    checked = 0
    for pop in domain.populations:
        for x in domain.available_sets:
            for code, profile, alloc in _var_problems(sw, pop, x):
                checked += 1
                for j in range(len(pop)):
                    for i in range(len(pop)):
                        if i != j and not _ef1_ok(profile[j], None, alloc[j], alloc[i]):
                            prob = _var_problem(pop, x, profile)
                            return _violated(
                                "EF1",
                                checked,
                                {
                                    "problem": describe_problem(prob),
                                    "allocation": describe_allocation(prob, alloc),
                                    "envious": pop[j],
                                    "envied": pop[i],
                                },
                            )
    return _holds("EF1", checked)


def check_eff_var(rule, domain) -> AxiomReport:
    sw = _vsweep(rule, domain)
    checked = 0
    for pop in domain.populations:
        for x in domain.available_sets:
            for code, profile, alloc in _var_problems(sw, pop, x):
                checked += 1
                if _union(alloc) != x or _trade_cycle(profile, alloc) is not None:
                    prob = _var_problem(pop, x, profile)
                    return _violated(
                        "EFF",
                        checked,
                        {
                            "problem": describe_problem(prob),
                            "allocation": describe_allocation(prob, alloc),
                        },
                    )
    return _holds("EFF", checked)


def check_rm_var(rule, domain) -> AxiomReport:
    sw = _vsweep(rule, domain)
    checked = 0
    for pop in domain.populations:
        for big in domain.available_sets:
            if not big:
                continue
            for code, profile, alloc in _var_problems(sw, pop, big):
                for small in subsets_of(big):
                    if small == big:
                        continue
                    checked += 1
                    small_alloc = _alloc_at(sw, pop, small, _restricted_profile(profile, small))
                    for i, p in enumerate(profile):
                        if not weakly_dominates(p, alloc[i], small_alloc[i]):
                            prob = _var_problem(pop, big, profile)
                            return _violated(
                                "RM+",
                                checked,
                                {
                                    "problem": describe_problem(prob),
                                    "smaller_set": format_bundle(small),
                                    "agent": pop[i],
                                    "bundle_large": format_bundle(alloc[i]),
                                    "bundle_small": format_bundle(small_alloc[i]),
                                },
                            )
    return _holds("RM+", checked)


def _check_con_like(rule, domain, pair_only: bool) -> AxiomReport:
    sw = _vsweep(rule, domain)
    name = "2-CON" if pair_only else "CON"
    checked = 0
    for pop in domain.populations:
        if len(pop) < 2:
            continue
        for x in domain.available_sets:
            for code, profile, alloc in _var_problems(sw, pop, x):
                for drop_size in range(1, len(pop)):
                    if pair_only and len(pop) - drop_size != 2:
                        continue
                    for dropped in combinations(range(len(pop)), drop_size):
                        checked += 1
                        keep = [i for i in range(len(pop)) if i not in dropped]
                        removed = 0
                        for i in dropped:
                            removed |= alloc[i]
                        new_x = x & ~removed
                        new_pop = tuple(pop[i] for i in keep)
                        new_profile = _restricted_profile([profile[i] for i in keep], new_x)
                        reduced_alloc = _alloc_at(sw, new_pop, new_x, new_profile)
                        if reduced_alloc != tuple(alloc[i] for i in keep):
                            prob = _var_problem(pop, x, profile)
                            red = _var_problem(new_pop, new_x, new_profile)
                            return _violated(
                                name,
                                checked,
                                {
                                    "problem": describe_problem(prob),
                                    "allocation": describe_allocation(prob, alloc),
                                    "departing": [pop[i] for i in dropped],
                                    "reduced_problem": describe_problem(red),
                                    "reduced_allocation": describe_allocation(red, reduced_alloc),
                                },
                            )
    return _holds(name, checked)


def check_con(rule, domain) -> AxiomReport:
    return _check_con_like(rule, domain, pair_only=False)


def check_2con(rule, domain) -> AxiomReport:
    return _check_con_like(rule, domain, pair_only=True)


def check_tcon(rule, domain) -> AxiomReport:
    sw = _vsweep(rule, domain)
    checked = 0
    for pop in domain.populations:
        for x in domain.available_sets:
            if not x:
                continue
            for code, profile, alloc in _var_problems(sw, pop, x):
                checked += 1
                tops = 0
                for p, b in zip(profile, alloc):
                    if b:
                        tops |= 1 << top(p, b)
                new_x = x & ~tops
                new_profile = _restricted_profile(profile, new_x)
                reduced = _alloc_at(sw, pop, new_x, new_profile)
                expected = tuple(b & ~tops for b in alloc)
                if reduced != expected:
                    prob = _var_problem(pop, x, profile)
                    red = _var_problem(pop, new_x, new_profile)
                    return _violated(
                        "T-CON",
                        checked,
                        {
                            "problem": describe_problem(prob),
                            "allocation": describe_allocation(prob, alloc),
                            "removed_tops": format_bundle(tops),
                            "reduced_allocation": describe_allocation(red, reduced),
                            "expected": describe_allocation(red, expected),
                        },
                    )
    return _holds("T-CON", checked)


def _check_neu_like(rule, domain, pair_only: bool) -> AxiomReport:
    sw = _vsweep(rule, domain)
    name = "2-NEU" if pair_only else "NEU"
    checked = 0
    by_size: dict[int, list] = {}
    for x in domain.available_sets:
        by_size.setdefault(bundle_size(x), []).append(x)
    for pop in domain.populations:
        if pair_only and len(pop) != 2:
            continue
        for x in domain.available_sets:
            k = bundle_size(x)
            src = objects_of(x)
            for code, profile, alloc in _var_problems(sw, pop, x):
                for target in by_size.get(k, []):
                    for image in permutations(objects_of(target)):
                        sigma = dict(zip(src, image))
                        if x == target and all(a == b for a, b in sigma.items()):
                            continue
                        checked += 1
                        new_profile = tuple(
                            Preference(tuple(sigma[o] for o in p.ranking)) for p in profile
                        )
                        mapped = tuple(bundle_of(sigma[o] for o in objects_of(b)) for b in alloc)
                        relabeled = _alloc_at(sw, pop, target, new_profile)
                        if relabeled != mapped:
                            prob = _var_problem(pop, x, profile)
                            tgt = _var_problem(pop, target, new_profile)
                            return _violated(
                                name,
                                checked,
                                {
                                    "problem": describe_problem(prob),
                                    "allocation": describe_allocation(prob, alloc),
                                    "relabeling": {
                                        OBJECT_NAMES[a]: OBJECT_NAMES[b] for a, b in sigma.items()
                                    },
                                    "relabeled_problem": describe_problem(tgt),
                                    "relabeled_allocation": describe_allocation(tgt, relabeled),
                                },
                            )
    return AxiomReport(name, "holds", None, checked)


def check_neu(rule, domain) -> AxiomReport:
    return _check_neu_like(rule, domain, pair_only=False)


def check_2neu(rule, domain) -> AxiomReport:
    return _check_neu_like(rule, domain, pair_only=True)


def find_manipulation(rule, problem: Problem, agent):
    """First misreport (canonical order) whose bundle strictly dominates the truthful one,
    one `Rule.allocate` per misreport."""
    objs = sorted(
        set().union(*[p.ranking for p in problem.profile])
        if problem.profile
        else objects_of(problem.available)
    )
    if problem.variant == "unacceptable":
        space = [Preference(r, c) for r in permutations(objs) for c in range(len(objs) + 1)]
    else:
        space = [Preference(r) for r in permutations(objs)]
    slot = problem.agents.index(agent)
    truth = rule.allocate(problem)[slot]
    pref = problem.profile[slot]
    for report in space:
        if report == pref:
            continue
        new_profile = list(problem.profile)
        new_profile[slot] = report
        deviated = Problem(
            problem.variant, problem.agents, problem.available, tuple(new_profile), problem.quotas
        )
        gained = rule.allocate(deviated)[slot]
        if strictly_dominates(pref, gained, truth):
            return report, gained, truth
    return None


def ti_implication(n_objects: int, flip_ep: bool = False) -> dict:
    """The cell check of `verifier.verify_truncation_invariance_implication` on Preference
    objects: each preference d and each truncation t of it (`is_truncation_of`), each
    truthful bundle a and reported bundle b. The premise is IR, TP and EP (read the other
    way round when `flip_ep`) by `weakly_dominates_oracle`; a premise cell where a is
    acceptable under t and b differs from a violates TI. Returns the links, cells,
    violations and the first violation's witness."""
    prefs = [
        Preference(r, c) for r in permutations(range(n_objects)) for c in range(n_objects + 1)
    ]
    links = [(d, t) for d in prefs for t in prefs if t != d and is_truncation_of(t, d)]
    bundles = range(1 << n_objects)
    violations, witness = 0, None
    for d, t in links:
        for a in bundles:
            for b in bundles:
                if a & ~d.acceptable or b & ~t.acceptable:
                    continue
                ep = (a, b) if flip_ep else (b, a)
                if not (weakly_dominates_oracle(d, a, b) and weakly_dominates_oracle(t, *ep)):
                    continue
                if not a & ~t.acceptable and a != b:
                    violations += 1
                    witness = witness or {
                        "preference": format_pref(d),
                        "truncation": format_pref(t),
                        "bundle_before": format_bundle(a),
                        "bundle_after": format_bundle(b),
                    }
    cells = len(links) * len(bundles) ** 2
    return {"links": len(links), "cells": cells, "violations": violations, "witness": witness}


def random_rule_misses(keys, agreements, n_rules: int, seed: int) -> list:
    """The random-rule pass of `verifier.verify_efficiency_decomposition` as a per-draw
    loop: rule by rule and key by key, one `Random(seed).choice` among the key's
    agreement bools (one per split); each miss lists the key's problem."""
    rng = Random(seed)
    out = []
    for _ in range(n_rules):
        for prob, agree in zip(keys, agreements):
            if not rng.choice(agree):
                out.append({"problem": describe_problem(prob)})
    return out


# --- draft engines: each rule's turns recomputed step by step ---------------


def _assemble(problem: Problem, trace) -> Allocation:
    bundles = {a: 0 for a in problem.agents}
    for _, agent, obj in trace:
        if obj is not None:
            bundles[agent] |= 1 << obj
    return tuple(bundles[a] for a in problem.agents)


def _sequential(problem: Problem, agent_at):
    remaining = problem.available
    trace = []
    for k in range(bundle_size(problem.available)):
        agent = agent_at(k)
        picked = top(problem.pref_of(agent), remaining)
        if picked is None:
            raise RuntimeError("sequential pick found no object")
        remaining &= ~(1 << picked)
        trace.append((k + 1, agent, picked))
    return _assemble(problem, trace), tuple(trace)


def _omega_terminated(problem: Problem, priority: Priority, may_pick):
    # run round-robin until every agent in a full window of n steps passed
    priority = _agent_order(problem.agents, priority)
    n = len(problem.agents)
    remaining = problem.available
    picks = {a: 0 for a in problem.agents}
    trace = []
    omega_run = 0
    k = 0
    limit = n * (bundle_size(problem.available) + 1) + n
    while omega_run < n:
        if k >= limit:  # cannot happen: each n-window without a pass assigns an object
            raise RuntimeError("draft failed to terminate")
        agent = priority[k % n]
        picked = may_pick(agent, remaining, picks[agent])
        if picked is None:
            omega_run += 1
        else:
            omega_run = 0
            picks[agent] += 1
            remaining &= ~(1 << picked)
        trace.append((k + 1, agent, picked))
        k += 1
    return _assemble(problem, trace), tuple(trace)


def sequence_draft(problem: Problem, sequence: PickingSequence):
    if problem.variant != "fixed":
        raise ValueError("draft runs on fixed-variant problems")
    return _sequential(problem, sequence.at)


def draft(problem: Problem, priority: Priority):
    return sequence_draft(
        problem, PickingSequence.round_robin(_agent_order(problem.agents, priority))
    )


def quota_draft(problem: Problem, priority: Priority):
    if problem.quotas is None:
        raise ValueError("quota draft needs quotas")
    quota_of = dict(zip(problem.agents, problem.quotas))

    def may_pick(agent, remaining, count):
        if count >= quota_of[agent]:
            return None
        return top(problem.pref_of(agent), remaining)

    return _omega_terminated(problem, priority, may_pick)


def unacceptable_draft(problem: Problem, priority: Priority):
    def may_pick(agent, remaining, count):
        return top(problem.pref_of(agent), remaining)

    return _omega_terminated(problem, priority, may_pick)


def variable_draft(problem: Problem, priority: Priority):
    order = _population_order(problem.agents, priority)
    return _sequential(problem, lambda k: order[k % len(order)])


def snake_draft(problem: Problem, priority: Priority):
    order = _population_order(problem.agents, priority)

    def agent_at(k):
        rnd, pos = divmod(k, len(order))
        return order[pos] if rnd % 2 == 0 else order[len(order) - 1 - pos]

    return _sequential(problem, agent_at)


def population_rm_draft(problem: Problem, priority: Priority):
    """The population-RM counterexample: partial rounds start at the priority's tail."""
    order = _population_order(problem.agents, priority)
    n, m = len(order), bundle_size(problem.available)
    c = m % n
    if c == 0:
        return variable_draft(problem, priority)
    tail = order[n - c :]
    return _sequential(problem, lambda k: tail[k] if k < c else order[(k - c) % n])


def pairwise_consistency_draft(problem: Problem, priority: Priority):
    """The 2-CON counterexample: the priority for two agents, its reversal otherwise."""
    return variable_draft(problem, priority if len(problem.agents) == 2 else priority[::-1])


# --- rules draftkit defines only as engines: their scalar runners and row fill ---


def row_fill(runner):
    """The fill of a rule given by a scalar runner: each row's Problem built and run, in
    row order, so the first failing row raises."""
    import numpy as np

    def fill(variant, agents, x, prefs, quotas, digits):
        rows, n = digits.shape
        columns = [map(prefs.__getitem__, column) for column in digits.T]
        cells = chain.from_iterable(
            runner(Problem(variant, agents, x, profile, quotas))[0] for profile in zip(*columns)
        )
        return np.fromiter(cells, np.uint8, rows * n).reshape(rows, n)

    return fill


def scalar_rule(name, runner, restriction_invariant=True) -> Rule:
    """A rule known by its scalar runner alone, filled row by row through it."""
    return Rule(name, row_fill(runner), runner, restriction_invariant)


def case_holds(case: Case, problem: Problem) -> bool:
    """Whether a piecewise rule's case holds at one problem."""
    if case.available is not None and not case.available(problem.available):
        return False
    if len(problem.profile) < len(case.slots):
        return False
    return all(test is None or test(p) for test, p in zip(case.slots, problem.profile))


def serial_dictatorship(problem: Problem, priority: Priority):
    """Each agent, in priority order, takes every remaining object she finds acceptable."""
    remaining = problem.available
    bundles = {a: 0 for a in problem.agents}
    for agent in _population_order(problem.agents, priority):
        take = remaining & problem.pref_of(agent).acceptable
        bundles[agent] = take
        remaining &= ~take
    return tuple(bundles[a] for a in problem.agents), None


def dictatorship(problem: Problem, priority: Priority):
    """The highest-priority agent present takes the whole available set."""
    order = _population_order(problem.agents, priority)
    return tuple(problem.available if a == order[0] else 0 for a in problem.agents), None


def null_allocation(problem: Problem):
    return tuple(0 for _ in problem.agents), None


# the reference rules by name prefix; the priority is the list that follows it in the name
_REFERENCE = {"serial-dictatorship": serial_dictatorship, "pi-dictatorship": dictatorship}


def _rm_star_special(problem: Problem):
    """rm*-special: the unacceptable draft without object 0, then object 0 to the first agent."""
    reduced = Problem(problem.variant, problem.agents, problem.available & ~1, problem.profile)
    alloc = unacceptable_draft_rule(problem.agents).allocate(reduced)
    return (alloc[0] | 1,) + alloc[1:], None


def _ti_special(problem: Problem):
    """ti-special: the whole available set to the first agent."""
    return (problem.available,) + (0,) * (len(problem.agents) - 1), None


_OVERRIDES = {"rm*-special": _rm_star_special, "ti-special": _ti_special}


def scalar_runner(rule: Rule):
    """The scalar runner that defines a rule: its own runner, the oracle's loop of a reference
    rule or a pinned override, or, for a piecewise rule, the first override whose case
    holds."""
    if rule.runner is not None:
        return rule.runner
    if rule.name == "null":
        return null_allocation
    head, bracket, tail = rule.name.partition("[")
    if head in _REFERENCE:
        priority = tuple(literal_eval(bracket + tail))
        return lambda problem: _REFERENCE[head](problem, priority)
    if rule.name in _OVERRIDES:
        return _OVERRIDES[rule.name]
    piecewise = rule.fill.__self__  # a piecewise rule's engine is its Piecewise's fill
    overrides = [(case, scalar_runner(r)) for case, r in piecewise.overrides]
    default = scalar_runner(piecewise.default)

    def runner(problem: Problem):
        for case, run in overrides:
            if case_holds(case, problem):
                return run(problem)
        return default(problem)

    return runner


def tabulated_runner(name: str, table: dict, fallback: Rule | None = None):
    """`rules.tabulated_rule` at one problem: a lookup by `problem_key`."""

    def runner(problem: Problem):
        key = problem_key(problem)
        if key in table:
            return table[key], None
        if fallback is not None:
            return scalar_runner(fallback)(problem)[0], None
        raise KeyError(f"rule {name!r} is not defined at this problem")

    return runner


def ir_counterexample_runner(priority: Priority):
    """`rules.ir_counterexample` at one problem: the unacceptable draft over the profile
    with every ranked object acceptable."""

    u_draft = unacceptable_draft_rule(priority)

    def runner(problem: Problem):
        extended = tuple(Preference(q.ranking, len(q.ranking)) for q in problem.profile)
        return u_draft.run(Problem(problem.variant, problem.agents, problem.available, extended))

    return runner


def neutrality_runner(priority: Priority, special_object: int, special_priority=None):
    """`rules.neutrality_counterexample` at one problem, contest by contest."""
    if special_priority is None:
        special_priority = (priority[0],) + tuple(reversed(priority[1:]))

    def runner(problem: Problem):
        order = _population_order(problem.agents, priority)
        remaining = problem.available
        bundles = {a: 0 for a in problem.agents}
        while remaining:
            active = list(order)
            while active and remaining:
                x = top(problem.pref_of(active[0]), remaining)
                contenders = [a for a in active if top(problem.pref_of(a), remaining) == x]
                own = special_priority if x == special_object else priority
                w = next(a for a in own if a in contenders)
                bundles[w] |= 1 << x
                remaining &= ~(1 << x)
                active.remove(w)
        return tuple(bundles[a] for a in problem.agents), None

    return runner
