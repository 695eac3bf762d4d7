"""Theorem-level machinery: characterization searches, impossibility certificates, the
guided case-table replay, the efficiency and truncation-invariance lemmas, manipulation
search, priority inference, and the extension-lemma comparison.

Desk-scale results quantify over finite domains only; every search report carries a scope
note saying so. The truncation-invariance lemma is checked for every rule, sampling none.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, permutations
from math import factorial
from random import Random
from typing import Sequence

import numpy as np

from .core import (
    Agent,
    CapacityError,
    Preference,
    Priority,
    Problem,
    bundle_of,
    bundle_size,
    objects_of,
    preference_space,
)
from .axioms import (
    DEVIATIONS,
    OBJECT_NAMES,
    AxiomSpace,
    FixedSweep,
    ProblemDomain,
    VariableSweep,
    _better_table,
    _change_targets,
    _fill,
    _union,
    check_con,
    check_ef1_var,
    check_eff_var,
    check_ep,
    check_ir,
    check_msp_certificate,
    check_msp_falsify,
    check_neu,
    check_rm_var,
    check_tcon,
    check_tp,
    check_truthful_best_case,
    critical_agent,
    describe_problem,
    fixed_domain,
    format_bundle,
    format_pref,
    past_capacity,
    quota_domain,
    sp_ok,
    ti_ok,
    unacceptable_domain,
    unary_entries,
    variable_domain,
)
from .csp import (
    SCOPE_NOTE,
    ProblemKeys,
    SolveResult,
    _slot_tables,
    _splits,
    admitted,
    build_csp,
    solutions_as_rules,
    solve_csp,
)
from .dominance import (
    _pd_matrix,
    geometric_scheme,
    linear_scheme,
    random_scheme,
    rank_mask_table,
    weakly_dominates_oracle,
)
from .grid import build_grid, replay_grid_certificate, solve_grid
from .rules import (
    Rule,
    draft_rule,
    quota_draft_rule,
    snake_draft_rule,
    unacceptable_draft_rule,
    variable_draft_rule,
)

UNIQUENESS_NOTE = "uniqueness over the checked domain"

REPRODUCED = "reproduced"
NOT_REPRODUCED = "NOT reproduced"
UNDECIDED = "undecided"


@dataclass(frozen=True)
class Verdict:
    """What a desk-scale driver found: the outcome and the detail its report prints."""

    outcome: str  # REPRODUCED | NOT_REPRODUCED | UNDECIDED
    detail: dict

    @classmethod
    def of(cls, ok: bool, detail: dict, decided: bool = True) -> Verdict:
        if not decided:
            return cls(UNDECIDED, detail)
        return cls(REPRODUCED if ok else NOT_REPRODUCED, detail)


def _within_capacity(domain: ProblemDomain) -> None:
    """Raise CapacityError when the domain's profiles per available set pass the sweeps'
    bound, before any key of it is built."""
    cutoffs = domain.variant == "unacceptable"
    reason = past_capacity(domain.n_objects, len(domain.populations[0]), cutoffs=cutoffs)
    if reason:
        raise CapacityError(reason)


def characterization_search(
    domain: ProblemDomain,
    axioms: Sequence[str],
    priority: Priority,
    target: Rule,
    budget: int = 10_000_000,
    *,
    show_matches: bool = False,
) -> Verdict:
    """Find every rule on the domain satisfying the axioms; reproduced when the target
    is the only one. ``show_matches`` lists, per survivor, whether it equals the target."""
    _within_capacity(domain)
    csp = build_csp(domain, axioms, priority)
    result = solve_csp(csp, mode="find-all", budget=budget)
    survivors = result.solutions if result.status == "sat" else []
    matches = _equal_to_target(csp, survivors, target) if survivors else []
    if result.status == "sat":
        status = "unique" if len(survivors) == 1 else "not-unique"
    else:
        status = result.status
    detail = {"status": status, "survivors": len(survivors)}
    if show_matches:
        detail["equals_draft"] = matches
    detail["note"] = UNIQUENESS_NOTE
    return Verdict.of(status == "unique" and matches == [True], detail, status != "undecided")


def _equal_to_target(csp, tables: list[dict], target: Rule) -> list[bool]:
    """Per table, whether it allocates as the target at every key's first problem: one
    target fill per available set, over the keys' digits."""
    index, domain = csp.index, csp.domain
    prefs, agents = domain.preference_space(), domain.populations[0]
    expected = np.concatenate(
        [_fill(target, domain, agents, x, prefs, index.digits[xi]) for xi, x in enumerate(index.xs)]
    )
    return [
        np.array_equal(
            np.fromiter(chain.from_iterable(map(table.__getitem__, csp.keys)), np.uint8),
            expected.reshape(-1),
        )
        for table in tables
    ]


def verify_t1(n_agents: int = 2, n_objects: int = 3, budget: int = 10_000_000) -> Verdict:
    """Desk-scale characterization: WRP + EF1 + NW + RM pin the priority draft."""
    pi = tuple(range(1, n_agents + 1))
    return characterization_search(
        fixed_domain(n_agents, n_objects),
        ("WRP", "EF1", "NW", "RM"),
        pi,
        draft_rule(pi),
        budget,
        show_matches=True,
    )


def verify_t6(n_objects: int = 3, quotas: Sequence = (1, 2), budget: int = 10_000_000) -> Verdict:
    """Quota variant: WRPq + EF1 + NWq + RM pin the quota draft."""
    pi = (1, 2)
    return characterization_search(
        quota_domain(2, n_objects, quotas),
        ("WRPq", "EF1", "NWq", "RM"),
        pi,
        quota_draft_rule(pi),
        budget,
    )


def verify_t7(n_objects: int = 3, budget: int = 10_000_000) -> Verdict:
    """Unacceptable variant: WRP* + EF1 + NW* + RM + IR + TI pin the passing draft."""
    pi = (1, 2)
    return characterization_search(
        unacceptable_domain(2, n_objects),
        ("WRP*", "EF1", "NW*", "RM", "IR", "TI"),
        pi,
        unacceptable_draft_rule(pi),
        budget,
    )


def _grid_impossibility(
    n_objects: int, axioms: Sequence[str], priorities=((1, 2),), budget: int = 10_000_000
) -> Verdict:
    """No two-agent rule on the pool meets the axioms: reproduced when the grid search is
    unsat under every priority and each certificate replays."""
    statuses, replays = [], True
    for pi in priorities:
        grid = build_grid(n_objects, axioms, priority=pi)
        res = solve_grid(grid, mode="prove-unsat", budget=budget)
        statuses.append(res.status)
        replays = (
            replays and res.status == "unsat" and replay_grid_certificate(grid, res.certificate)
        )
    status = (
        "undecided"
        if "undecided" in statuses
        else ("unsat" if all(s == "unsat" for s in statuses) else "sat")
    )
    detail = {"status": status, "certificate_replays": replays, "note": SCOPE_NOTE}
    return Verdict.of(replays, detail, status != "undecided")


def verify_t2(n_objects: int = 3, budget: int = 10_000_000) -> Verdict:
    """No rule is RP + EF1 + NW + WSP: unsat for every two-agent priority."""
    return _grid_impossibility(n_objects, ("RP", "EF1", "NW", "WSP"), ((1, 2), (2, 1)), budget)


def verify_t3(n_objects: int = 4, budget: int = 10_000_000) -> Verdict:
    """No rule is EFF + EF1 + WSP (two agents)."""
    return _grid_impossibility(n_objects, ("EFF", "EF1", "WSP"), budget=budget)


def verify_theorem4_unsat(n_objects: int = 5, budget: int = 10_000_000) -> Verdict:
    """Generic (not proof-guided) search: NW + EF1 + SP unsat for two agents (the paper's
    case analysis is on five objects)."""
    return _grid_impossibility(n_objects, ("NW", "EF1", "SP"), budget=budget)


# ---------------------------------------------------------------------------
# Guided replay of the five-object impossibility case analysis
# ---------------------------------------------------------------------------


class Theorem4ReplayError(AssertionError):
    pass


def _rank_word(word: str) -> tuple[int, ...]:
    return tuple(OBJECT_NAMES.index(c) for c in word)


def _mask_word(word: str) -> int:
    return bundle_of(OBJECT_NAMES.index(c) for c in word)


_T4_OBJECTS = 5
_T4_FULL = (1 << 5) - 1


def _apply_sigma_mask(sigma: dict, mask: int) -> int:
    return bundle_of(sigma[o] for o in objects_of(mask))


def _compose(s1: dict, s2: dict) -> dict:
    # apply s2 first, then s1
    return {o: s1[s2[o]] for o in s2}


_ID = {o: o for o in range(5)}
_SWAP_AB = {0: 1, 1: 0, 2: 2, 3: 3, 4: 4}
_SWAP_CD = {0: 0, 1: 1, 2: 3, 3: 2, 4: 4}


class _CaseEngine:
    """Deduction toolkit for the guided case analysis.

    Works on restricted profiles (pairs of five-object rankings). ``big_slot``
    names the agent holding three objects (the transposed run swaps it).
    Every pin intersects the NW+EF1 candidates with both strategy-proofness
    cones against every already-pinned profile differing in one slot.
    """

    def __init__(self, big_slot: int, log: list):
        self.big_slot = big_slot
        self.log = log
        self.env: dict[tuple, tuple] = {}
        self.space = AxiomSpace(fixed_domain(2, _T4_OBJECTS))
        bigs = map(bundle_of, combinations(range(_T4_OBJECTS), 3))
        self.splits = [self.alloc(big, _T4_FULL & ~big) for big in bigs]
        # EF1's columns read one slot each: judged once at every preference in both slots
        every = np.repeat(np.arange(len(self.space.prefs))[:, None], 2, axis=1)
        rows = np.array(self.splits, dtype=np.uint8)
        ef1 = unary_entries(("EF1",), "fixed")
        free, per_slot = _slot_tables(self.space, _T4_FULL, rows, every, ef1)
        self.ef1 = (free & per_slot[0], per_slot[1])  # bool (preferences, splits) per slot

    def profile(self, big_word: str, small_word: str) -> tuple:
        ranks = [None, None]
        ranks[self.big_slot] = _rank_word(big_word)
        ranks[1 - self.big_slot] = _rank_word(small_word)
        return tuple(ranks)

    def alloc(self, big_mask: int, small_mask: int) -> tuple:
        out = [0, 0]
        out[self.big_slot] = big_mask
        out[1 - self.big_slot] = small_mask
        return tuple(out)

    def candidates(self, profile: tuple) -> list[tuple]:
        d0, d1 = (self.space.index[Preference(r)] for r in profile)
        keep = self.ef1[0][d0] & self.ef1[1][d1]
        return [c for c, kept in zip(self.splits, keep.tolist()) if kept]

    def pin(self, profile: tuple, expect: set | None, label: str) -> list[tuple]:
        cands = self.candidates(profile)
        index, dom = self.space.index, self.space.relation()
        for known_profile, known_alloc in self.env.items():
            diff = [s for s in range(2) if known_profile[s] != profile[s]]
            if len(diff) != 1:
                continue
            slot = diff[0]
            here = index[Preference(profile[slot])]
            known = index[Preference(known_profile[slot])]
            kb = known_alloc[slot]
            cands = [
                c
                for c in cands
                if sp_ok(dom, here, c[slot], kb) and sp_ok(dom, known, kb, c[slot])
            ]
        got = {tuple(c) for c in cands}
        self.log.append(
            {
                "step": label,
                "orientation": self.big_slot,
                "profile": self._show_profile(profile),
                "derived": sorted(self._show_alloc(c) for c in got),
            }
        )
        if expect is not None and got != expect:
            raise Theorem4ReplayError(
                f"{label}: derived {sorted(self._show_alloc(c) for c in got)}, "
                f"expected {sorted(self._show_alloc(c) for c in expect)}"
            )
        if len(got) == 1:
            self.env[profile] = next(iter(got))
        return cands

    def assume(self, profile: tuple, alloc: tuple):
        self.env[profile] = alloc

    def _show_profile(self, profile):
        # always presented big-holder first, matching the pinned tables
        big, small = profile[self.big_slot], profile[1 - self.big_slot]
        return tuple("".join(OBJECT_NAMES[o] for o in r) for r in (big, small))

    def _show_alloc(self, alloc):
        return tuple(format_bundle(b) for b in (alloc[self.big_slot], alloc[1 - self.big_slot]))


# The pinned case-table cells, as (step label, profile, derived value) literals.
# A None value is a contradiction terminal; a set value is a two-way case split.
_T4_TABLE_CELLS = [
    ("case1: candidates after first deviation", ("abcde", "baced"), {("ade", "bc"), ("acd", "be")}),
    ("case1a: pinned cell", ("abcde", "bcdea"), ("ade", "bc")),
    ("case1a: contradiction", ("bcade", "bcdea"), None),
    ("case1b: pinned cell 1", ("abcde", "bcdea"), ("ace", "bd")),
    ("case1b: pinned cell 2", ("abcde", "bceda"), ("acd", "be")),
    ("case1b: pinned cell 3", ("bdace", "bcdea"), ("ade", "bc")),
    ("case1b: contradiction", ("bdace", "bceda"), None),
    ("case2: bridge abcde,bacde", ("abcde", "bacde"), ("ade", "bc")),
    ("case2: bridge abdce,bacde", ("abdce", "bacde"), ("ade", "bc")),
    ("case2: candidates after first deviation", ("abdce", "badec"), {("ace", "bd"), ("acd", "be")}),
    ("case2a: pinned cell", ("abdce", "bdcea"), ("ace", "bd")),
    ("case2a: contradiction", ("bdace", "bdcea"), None),
    ("case2b: pinned cell 1", ("abdce", "bdcea"), ("ade", "bc")),
    ("case2b: pinned cell 2", ("abdce", "bdeca"), ("acd", "be")),
    ("case2b: pinned cell 3", ("bcade", "bdcea"), ("ace", "bd")),
    ("case2b: contradiction", ("bcade", "bdeca"), None),
    ("case3: bridge abcde,abdce", ("abcde", "abdce"), ("bce", "ad")),
    ("case3: bridge bacde,abdce", ("bacde", "abdce"), ("bce", "ad")),
    ("case4: bridge abcde,abcde", ("abcde", "abcde"), ("bde", "ac")),
    ("case4: bridge badce,abcde", ("badce", "abcde"), ("bde", "ac")),
]


def _chain(engine: _CaseEngine, sigma: dict, case_name: str):
    """Run the two-subcase chain from the base profile, relabeled by sigma."""

    def w(word: str) -> str:
        return "".join(OBJECT_NAMES[sigma[OBJECT_NAMES.index(c)]] for c in word)

    def m(word: str) -> int:
        return _mask_word(w(word))

    def prof(bw, sw):
        return engine.profile(w(bw), w(sw))

    def a(bw, sw):
        return engine.alloc(m(bw), m(sw))

    q = prof("abcde", "baced")
    cands = engine.pin(
        q, {a("ade", "bc"), a("acd", "be")}, f"{case_name}: candidates after first deviation"
    )

    # subcase a
    saved = dict(engine.env)
    engine.assume(q, a("ade", "bc"))
    engine.pin(prof("abcde", "bcdea"), {a("ade", "bc")}, f"{case_name}a: pinned cell")
    engine.pin(prof("bcade", "bcdea"), set(), f"{case_name}a: contradiction")
    engine.env = saved

    # subcase b
    engine.assume(q, a("acd", "be"))
    engine.pin(prof("abcde", "bcdea"), {a("ace", "bd")}, f"{case_name}b: pinned cell 1")
    engine.pin(prof("abcde", "bceda"), {a("acd", "be")}, f"{case_name}b: pinned cell 2")
    engine.pin(prof("bdace", "bcdea"), {a("ade", "bc")}, f"{case_name}b: pinned cell 3")
    engine.pin(prof("bdace", "bceda"), set(), f"{case_name}b: contradiction")


def _run_case_analysis(big_slot: int, log: list):
    base_profile_words = ("abcde", "badce")
    start_cases = {
        "case1": (_ID, ("ace", "bd"), []),
        "case2": (_SWAP_CD, ("ade", "bc"), [("abcde", "bacde"), ("abdce", "bacde")]),
        "case3": (_SWAP_AB, ("bce", "ad"), [("abcde", "abdce"), ("bacde", "abdce")]),
        "case4": (
            _compose(_SWAP_AB, _SWAP_CD),
            ("bde", "ac"),
            [("abcde", "abcde"), ("badce", "abcde")],
        ),
    }

    probe = _CaseEngine(big_slot, log)
    p0 = probe.profile(*base_profile_words)
    expected_start = {
        probe.alloc(_mask_word(b), _mask_word(s))
        for _, (b, s), _ in start_cases.values()
    }
    probe.pin(p0, expected_start, "base profile: the four size-(3,2) cases")

    for name, (sigma, start_alloc, bridges) in start_cases.items():
        engine = _CaseEngine(big_slot, log)
        p0 = engine.profile(*base_profile_words)
        engine.assume(p0, engine.alloc(_mask_word(start_alloc[0]), _mask_word(start_alloc[1])))
        pinned = engine.alloc(
            _apply_sigma_mask(sigma, _mask_word("ace")), _apply_sigma_mask(sigma, _mask_word("bd"))
        )
        for bw, sw in bridges:
            engine.pin(engine.profile(bw, sw), {pinned}, f"{name}: bridge {bw},{sw}")
        _chain(engine, sigma, name)


def _check_tables(log: list, orientation: int):
    """The straight-orientation run must reproduce every pinned case-table cell."""
    entries = {
        (e["step"], e["profile"]): e["derived"]
        for e in log
        if isinstance(e.get("profile"), tuple) and e.get("orientation") == orientation
    }
    for step, (big, small), value in _T4_TABLE_CELLS:
        key = (step, (big, small))
        if key not in entries:
            raise Theorem4ReplayError(f"missing table cell {step!r} at {(big, small)}")
        derived = entries[key]
        pairs = [] if value is None else value if isinstance(value, set) else [value]
        expected = sorted(tuple(format_bundle(_mask_word(w)) for w in pair) for pair in pairs)
        if [tuple(d) for d in derived] != expected:
            raise Theorem4ReplayError(
                f"table cell {step!r} at {(big, small)}: derived {derived}, expected {expected}"
            )


def replay_theorem4_cases() -> dict:
    """Execute the guided case analysis and confirm every pinned cell and contradiction.

    Includes the two preliminary steps as executable checks: bundle comparison
    is antisymmetric on the five-object pool (so two-way deviation constraints
    pin outcomes through restrictions), and weak dominance never shrinks bundle
    sizes (so deviation constraints force constant bundle sizes under full
    assignment). Both orientations of the size split are replayed.
    """
    log: list = []

    dom = _pd_matrix(_T4_OBJECTS)
    # preliminary 1: antisymmetry of the bundle order on rank-space masks
    if (dom & dom.T & ~np.eye(len(dom), dtype=bool)).any():
        raise Theorem4ReplayError("bundle comparison not antisymmetric")
    log.append({"step": "preliminary: two-way dominance implies equal bundles", "derived": "checked"})

    # preliminary 2: dominance is size-monotone
    sizes = np.bitwise_count(np.arange(len(dom)))
    if (dom & (sizes[:, None] < sizes[None, :])).any():
        raise Theorem4ReplayError("dominance does not respect bundle size")
    log.append({"step": "preliminary: dominance never shrinks sizes", "derived": "checked"})

    _run_case_analysis(big_slot=0, log=log)
    _check_tables(log, orientation=0)
    _run_case_analysis(big_slot=1, log=log)
    _check_tables(log, orientation=1)  # the mirrored size split replays the same cells
    contradictions = [e for e in log if e["step"].endswith("contradiction")]
    # 4 cases x 2 subcases x 2 size orientations
    if len(contradictions) != 16 or any(e["derived"] for e in contradictions):
        raise Theorem4ReplayError("expected sixteen empty contradiction terminals")
    return {"steps": log, "cases": 4, "orientations": 2, "note": SCOPE_NOTE}


# ---------------------------------------------------------------------------
# Manipulation search and incentive drivers
# ---------------------------------------------------------------------------


def _universe(problem: Problem) -> tuple[int, ...]:
    if not problem.profile:
        return objects_of(problem.available)
    return tuple(sorted(set().union(*[p.ranking for p in problem.profile])))


@lru_cache(maxsize=16)
def _report_space(variant: str, objs: tuple[int, ...]) -> tuple[tuple[Preference, ...], dict]:
    """The reports over these objects in canonical order, and each one's index."""
    if variant == "unacceptable":
        space = tuple(Preference(r, c) for r in permutations(objs) for c in range(len(objs) + 1))
    else:
        space = tuple(Preference(r) for r in permutations(objs))
    return space, {p: i for i, p in enumerate(space)}


def find_manipulation(rule: Rule, problem: Problem, agent: Agent):
    """First misreport (canonical order) whose bundle strictly dominates the truthful one.

    One call of the rule's engine allocates the truthful profile (row 0) and every misreport
    (row r + 1 puts report r in the agent's slot). One gather from `rank_mask_table` puts
    the agent's bundles in her rank space, her cutoff keeps the acceptable ranks, and every
    report is judged at once as a failure of WSP's relation (`DEVIATIONS`) on `_pd_matrix`.
    Past the allocation rows' 8 objects it raises CapacityError before enumerating anything."""
    objs = _universe(problem)
    reason = past_capacity((bundle_of(objs) | problem.available).bit_length())
    if reason:
        raise CapacityError(reason)
    slot = problem.agents.index(agent)
    prefs, index = _report_space(problem.variant, objs)
    reports, truth = len(prefs), [index.get(p) for p in problem.profile]
    if None in truth:  # a profile ranking fewer objects than the universe
        prefs += tuple(dict.fromkeys(p for p in problem.profile if p not in index))
        index = {p: i for i, p in enumerate(prefs)}
        truth = [index[p] for p in problem.profile]
    digits = np.empty((reports + 1, len(truth)), dtype=np.intp)
    digits[:] = truth
    digits[1:, slot] = np.arange(reports)
    bundles = rule.fill(
        problem.variant, problem.agents, problem.available, prefs, problem.quotas, digits
    )[:, slot]
    pref = problem.profile[slot]
    masks = rank_mask_table(prefs)[truth[slot], bundles]
    if pref.cutoff is not None:
        masks &= (1 << pref.cutoff) - 1
    dom = _pd_matrix(len(pref.ranking))[None]  # one preference: her rank space
    gains = ~DEVIATIONS["WSP"](dom, 0, masks[0], masks[1:])
    r = int(gains.argmax())
    if not gains[r]:
        return None
    return prefs[r], int(bundles[r + 1]), int(bundles[0])


def verify_t5(
    n_agents: int = 3,
    n_objects: int = 4,
    falsifier_objects: int = 3,
    n_random_schemes: int = 100,
    seed: int = 20240801,
) -> Verdict:
    """Maxmin strategy-proofness of the draft for two to ``n_agents`` agents:
    certificate, scheme falsifier, best case."""
    detail = {"certificate": [], "falsifier": [], "best_case": []}
    ok = True
    for n in range(2, n_agents + 1):
        pi = tuple(range(1, n + 1))
        cert = check_msp_certificate(draft_rule(pi), fixed_domain(n, n_objects))
        small = fixed_domain(n, falsifier_objects)
        schemes = [geometric_scheme(falsifier_objects), linear_scheme(falsifier_objects)] + [
            random_scheme(falsifier_objects, seed + k) for k in range(n_random_schemes)
        ]
        fals = check_msp_falsify(draft_rule(pi), small, schemes)
        best = check_truthful_best_case(draft_rule(pi), small, schemes[:12])
        detail["certificate"].append(cert.verdict)
        detail["falsifier"].append(fals.verdict)
        detail["best_case"].append(best.verdict)
        ok = ok and cert.verdict == "proved" and fals.verdict == "holds" and best.holds
    return Verdict.of(ok, detail)


# ---------------------------------------------------------------------------
# Efficiency-decomposition drivers (oracle equivalences)
# ---------------------------------------------------------------------------


ORACLE_MAX_OBJECTS, ORACLE_MAX_AGENTS = 5, 3  # the oracle tries (agents + 1)^objects splits
_ORACLE_CELLS = 1 << 18  # (problem, split, allocation) cells per step of the Pareto oracle


def _oracle_capacity(n_objects: int, n_agents: int) -> None:
    if n_objects > ORACLE_MAX_OBJECTS or n_agents > ORACLE_MAX_AGENTS:
        raise CapacityError(
            f"{n_objects} objects and {n_agents} agents exceed the Pareto oracle's capacity "
            f"({ORACLE_MAX_OBJECTS} objects, {ORACLE_MAX_AGENTS} agents): "
            "it tries every split of the available objects"
        )


@lru_cache(maxsize=None)
def _oracle_relation(n_objects: int, cutoffs: bool) -> tuple[dict, np.ndarray]:
    """The index of each preference in preference_space(n_objects, cutoffs), and
    WD[pref, s * 2^n_objects + t]: `weakly_dominates_oracle` (bipartite matching) at every
    pair of bundles."""
    prefs, bundles = preference_space(n_objects, cutoffs), range(1 << n_objects)
    table = np.array(
        [[weakly_dominates_oracle(p, s, t) for s in bundles for t in bundles] for p in prefs],
        dtype=bool,
    ).reshape(len(prefs), -1)
    table.flags.writeable = False
    return {p: i for i, p in enumerate(prefs)}, table


def pareto_efficient(
    problems: Sequence[Problem], allocs: np.ndarray, n_objects: int
) -> np.ndarray:
    """Brute-force efficiency, bool (problems, rows): at each problem, whether no split of
    the available objects leaves every agent weakly better off than row `allocs[r]` (uint8
    (rows, n)) and one strictly.

    The problems share one variant, population and available set, and rank
    objects 0..n_objects-1. Bundles compare by `weakly_dominates_oracle`; with
    unacceptable objects, individual rationality is part of the definition.
    """
    first = problems[0]
    n, available = len(first.agents), first.available
    shared = (first.variant, first.agents, available)
    if any((p.variant, p.agents, p.available) != shared for p in problems):
        raise ValueError("the problems must share one variant, population and available set")
    _oracle_capacity(bundle_size(available), n)
    cutoffs = first.variant == "unacceptable"
    index, table = _oracle_relation(n_objects, cutoffs)
    digits = np.array([[index[p] for p in prob.profile] for prob in problems], dtype=np.intp)
    splits, size = _splits(available, n), 1 << n_objects
    # per agent, where each (split, row) pair and its reverse sit in a row of the table
    ahead = [splits[:, i, None] * size + allocs[None, :, i].astype(np.intp) for i in range(n)]
    behind = [allocs[None, :, i].astype(np.intp) * size + splits[:, i, None] for i in range(n)]
    efficient = np.empty((len(problems), len(allocs)), dtype=bool)
    step = max(1, _ORACLE_CELLS // max(1, len(splits) * len(allocs)))
    for lo in range(0, len(problems), step):
        d = digits[lo : lo + step]
        weak = np.ones((len(d), len(splits), len(allocs)), dtype=bool)
        strict = np.zeros_like(weak)
        for i in range(n):
            wd = table[d[:, i]]
            weak &= wd[:, ahead[i]]
            strict |= ~wd[:, behind[i]]
        efficient[lo : lo + step] = ~(weak & strict).any(axis=1)
    if cutoffs:
        acceptable = np.array(
            [[p.acceptable for p in prob.profile] for prob in problems], dtype=np.uint8
        )
        efficient &= (allocs[None] & ~acceptable[:, None, :] == 0).all(axis=2)
    return efficient


@dataclass
class EquivalenceReport:
    checked_pairs: int
    random_rules: int
    disagreements: list

    @property
    def ok(self) -> bool:
        return not self.disagreements


def verify_efficiency_decomposition(
    domain: ProblemDomain, n_random_rules: int = 1000, seed: int = 4711
) -> EquivalenceReport:
    """Check (NW[*] and IR and RT) == brute-force efficiency on every (problem, allocation).

    Exhausts every allocation at every problem key, then spot-checks
    `n_random_rules` seeded random tabulated rules against the same verdicts:
    one seeded array gather (`_random_rule_misses`) draws each rule's split at
    every key and reads whether the two sides agree there. Domains past the
    oracle's cap raise CapacityError before any enumeration.
    """
    _oracle_capacity(domain.n_objects, max(len(pop) for pop in domain.populations))
    index, space = ProblemKeys(domain), AxiomSpace(domain)
    disagreements = []
    checked = 0
    keys: list[Problem] = []
    agree: list[np.ndarray] = []  # per set, (keys, splits) flattened: the verdicts agree
    counts: list[np.ndarray] = []  # per key, its number of splits
    for xi, x in enumerate(index.xs):
        probs = index.problems(xi)
        rows = _splits(x, index.n, domain.quotas)  # the same at every problem of the set
        fast = admitted(space, x, rows, index.digits[xi], ("EFF",))
        slow = pareto_efficient(probs, rows, domain.n_objects)
        checked += fast.size
        for k, i in np.argwhere(fast != slow).tolist():
            disagreements.append(
                {
                    "problem": describe_problem(probs[k]),
                    "allocation": [format_bundle(b) for b in rows[i].tolist()],
                    "decomposed": bool(fast[k, i]),
                    "oracle": bool(slow[k, i]),
                }
            )
        keys += probs
        agree.append((fast == slow).reshape(-1))
        counts.append(np.full(len(probs), len(rows)))
    agree_at, counts_at = np.concatenate(agree), np.concatenate(counts)
    for k in _random_rule_misses(agree_at, counts_at, n_random_rules, seed):
        disagreements.append({"problem": describe_problem(keys[k])})
    return EquivalenceReport(checked, n_random_rules, disagreements)


_SPOT_CELLS = 1 << 14  # (rule, key) cells per step of the random-rule spot check


def _random_rule_misses(agree: np.ndarray, counts: np.ndarray, n_rules: int, seed: int) -> list:
    """The key of each (rule, key) cell, rule-major, at which a seeded random rule picks a
    split where the decomposition and the oracle disagree.

    `agree` holds each key's splits in turn, `counts[k]` of them at key k. Every
    cell draws a 32-bit word from `Random(seed).randbytes` and maps it to a split
    index below its key's count by multiply-shift (w * count >> 32); rules and
    keys go in steps of at most _SPOT_CELLS cells.
    """
    rng, n_keys = Random(seed), len(counts)
    starts = np.cumsum(counts) - counts
    key_step = min(max(1, n_keys), _SPOT_CELLS)
    rule_step = max(1, _SPOT_CELLS // key_step)
    misses = []
    for lo in range(0, n_rules, rule_step):
        n = min(rule_step, n_rules - lo)
        for k0 in range(0, n_keys, key_step):  # one rule per step once keys fill a step
            at = slice(k0, k0 + key_step)
            words = np.frombuffer(rng.randbytes(4 * n * len(counts[at])), dtype="<u4")
            picks = words.reshape(n, -1).astype(np.int64)
            picks *= counts[at]
            picks >>= 32
            picks += starts[at]
            misses += (k0 + np.nonzero(~agree[picks])[1]).tolist()
    return misses


# The premise beyond IR at cell (d, t, a, b): the (preference, own, other) each sp_ok reads
TI_PREMISE = {"TP": ("d", "a", "b"), "EP": ("t", "b", "a")}


def verify_truncation_invariance_implication(n_objects: int = 2) -> Verdict:
    """IR + TP + EP imply TI for every rule, checked cell by cell.

    Each TP, EP and TI instance is one agent switching between a preference d
    and its truncation t, the others fixed, with bundle a under d and b under t.
    So the lemma holds for every rule if `ti_ok` holds at each cell (d, t, a, b)
    where a is acceptable under d, b under t, and each TI_PREMISE entry holds,
    on the relation table and on the Pareto oracle's. The first failing cell is
    the witness. The passing draft meets the premise, so it is not vacuous.
    """
    domain = unacceptable_domain(2, n_objects)
    _within_capacity(domain)
    sweep = FixedSweep(unacceptable_draft_rule((1, 2)), domain)
    draft_premise = all(check(sweep, domain).holds for check in (check_ir, check_tp, check_ep))

    space, size = AxiomSpace(domain), 1 << n_objects
    acc, (targets, counted) = space.acceptable, _change_targets(n_objects, 0)
    d, k = np.nonzero(counted)
    t, a = targets[d, k], np.arange(size)[:, None]
    cell = {"d": d[:, None, None], "t": t[:, None, None], "a": a, "b": a[:, 0]}
    # IR holds and TI fails: a premise at any of these cells is a violation
    suspect = (a & ~acc[cell["d"]] == 0) & (cell["b"] & ~acc[cell["t"]] == 0)
    suspect &= ~ti_ok(acc, cell["t"], a, cell["b"])
    relations = {"table": space.relation(), "oracle": _oracle_relation(n_objects, True)[1]}
    bad = np.stack([suspect] * len(relations))
    for i, dom in enumerate(relations.values()):
        for roles in TI_PREMISE.values():
            bad[i] &= sp_ok(dom.reshape(-1, size, size), *map(cell.get, roles))
    failing = bad.any(axis=0)
    detail = {"links": len(d), "cells": failing.size, "draft_premise": draft_premise}
    detail["violations"] = int(np.count_nonzero(failing))
    if detail["violations"]:
        link, own, other = np.argwhere(failing)[0].tolist()
        detail["witness"] = {
            "relation": list(relations)[int(bad[:, link, own, other].argmax())],
            "preference": format_pref(space.prefs[d[link]]),
            "truncation": format_pref(space.prefs[t[link]]),
            "bundle_before": format_bundle(own),
            "bundle_after": format_bundle(other),
        }
    return Verdict.of(not detail["violations"] and draft_premise, detail)


# ---------------------------------------------------------------------------
# Priority inference and the extension lemma
# ---------------------------------------------------------------------------


class PriorityInferenceError(ValueError):
    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


def _pair_problem(i: Agent, j: Agent, objs: tuple[int, int], rankings) -> Problem:
    prefs = tuple(Preference(r) for r in rankings)
    return Problem("variable", (i, j), bundle_of(objs), prefs)


def infer_priority(
    rule: Rule, agents: Sequence[Agent], probe_objects: tuple[int, int] = (0, 1)
) -> Priority:
    """Recover a priority from two-agent, two-object probes.

    For each pair, the aligned-preferences probe decides who has priority; the
    opposed-preferences probe is an efficiency sanity check. Probes are run
    under every ordered labeling of the probe objects; disagreement across
    labelings is a pairwise-neutrality violation and is reported as such.
    Intransitive probe results are reported with the three-cycle.
    """
    a, b = probe_objects
    beats: dict[tuple[Agent, Agent], bool] = {}
    for i, j in combinations(sorted(agents), 2):
        answers = []
        for x, y in ((a, b), (b, a)):
            aligned = _pair_problem(i, j, (x, y), ((x, y), (x, y)))
            opposed = _pair_problem(i, j, (x, y), ((x, y), (y, x)))
            allocs = {}
            for prob in (aligned, opposed):
                alloc = allocs[prob] = rule.allocate(prob)
                if _union(alloc) != prob.available or any(
                    bundle_size(bd) > 1 for bd in alloc
                ):
                    raise PriorityInferenceError(
                        "rule is not efficient and envy-bounded on the probe problems",
                        describe_problem(prob),
                    )
            if allocs[opposed] != (1 << x, 1 << y):
                raise PriorityInferenceError(
                    "opposed-preferences probe is not the efficient split",
                    describe_problem(opposed),
                )
            answers.append(allocs[aligned] == (1 << x, 1 << y))
        if answers[0] != answers[1]:
            raise PriorityInferenceError(
                "probe answers flip under object relabeling: pairwise neutrality fails",
                {"pair": (i, j), "objects": (a, b)},
            )
        beats[(i, j)] = answers[0]
        beats[(j, i)] = not answers[0]

    for i, j, k in permutations(sorted(agents), 3):
        if beats.get((i, j)) and beats.get((j, k)) and beats.get((k, i)):
            raise PriorityInferenceError(
                "probe results are intransitive", {"cycle": (i, j, k)}
            )

    def wins(i):
        return sum(1 for j in agents if j != i and beats[(i, j)])

    return tuple(sorted(agents, key=lambda i: -wins(i)))


def _agreement(sweep: VariableSweep, priority: Priority) -> tuple[bool, dict | None]:
    """Compare the sweep's rule with the draft on every problem of its domain.

    Returns whether the two agree on every single-unit problem (|X| <= |N|),
    and the reported divergence: the last single-unit one, else the first.
    """
    target = VariableSweep(variable_draft_rule(priority), sweep.domain)
    precondition_ok, divergence = True, None
    for block in sweep.blocks():
        (pop, x), differ = sweep.block(block), sweep.rows(block) != target.rows(block)
        rows, single_unit = np.flatnonzero(differ.any(axis=1)), bundle_size(x) <= len(pop)
        if not rows.size:
            continue
        precondition_ok = precondition_ok and not single_unit
        if single_unit or divergence is None:
            code = int(rows[-1] if single_unit else rows[0])
            divergence = {"problem": describe_problem(sweep.problem_at(block, code))}
            for key, sw in (("rule", sweep), ("draft", target)):
                divergence[key] = dict(zip(pop, map(format_bundle, sw.allocation_at(block, code))))
    return precondition_ok, divergence


def _extension_lemma(
    sweep: VariableSweep, priority: Priority, rm_holds: bool, tcon_holds: bool
) -> Verdict:
    """The lemma: single-unit agreement with the draft plus RM and T-CON force agreement
    everywhere. With a hypothesis unmet it binds nothing, so the verdict is NOT
    reproduced only when every hypothesis holds and the rules still diverge.
    """
    precondition_ok, divergence = _agreement(sweep, priority)
    agrees = divergence is None
    detail = {
        "precondition_ok": precondition_ok,
        "rm_holds": rm_holds,
        "tcon_holds": tcon_holds,
        "agrees_everywhere": agrees,
        "divergence": divergence,
    }
    return Verdict.of(agrees or not (precondition_ok and rm_holds and tcon_holds), detail)


def verify_extension_lemma(rule: Rule, priority: Priority, domain: ProblemDomain) -> Verdict:
    """Single-unit agreement with the draft plus RM and T-CON force full agreement."""
    sweep = VariableSweep(rule, domain)
    return _extension_lemma(
        sweep, priority, check_rm_var(sweep, domain).holds, check_tcon(sweep, domain).holds
    )


def _extension_comparison(dom: ProblemDomain, pi: Priority, draft: Verdict) -> dict:
    """The draft agrees with itself everywhere, while the snake draft meets the lemma's
    precondition yet fails T-CON and diverges (its RM verdict plays no part)."""
    snake = VariableSweep(snake_draft_rule(pi), dom)
    precondition_ok, divergence = _agreement(snake, pi)
    return {
        "extension_ok": draft.detail["precondition_ok"] and draft.detail["agrees_everywhere"],
        "snake_diverges": precondition_ok
        and not check_tcon(snake, dom).holds
        and divergence is not None,
    }


def verify_t8(n_agents: int = 3, n_objects: int = 4) -> Verdict:
    """Desk-scale variable-population characterization, one direction, by the two-lemma
    route: the draft passes all six axioms; pairwise probes recover every priority over
    n_agents (so past PRIORITY_RECOVERY_MAX_AGENTS it raises CapacityError before any
    sweep); and the extension comparison confirms the draft while exposing the snake
    draft's divergence despite matching on single-unit problems. No search asks whether
    another rule passes the six axioms.
    """
    recovered = verify_priority_recovery(n_agents).outcome == REPRODUCED
    dom = variable_domain(n_agents, n_objects)
    pi = tuple(range(1, n_agents + 1))
    # one sweep serves the six checks and the draft's side of the extension comparison
    sweep = VariableSweep(variable_draft_rule(pi), dom)
    holds = {
        chk: chk(sweep, dom).holds
        for chk in (check_ef1_var, check_eff_var, check_rm_var, check_con, check_tcon, check_neu)
    }
    draft = _extension_lemma(sweep, pi, holds[check_rm_var], holds[check_tcon])
    detail = {
        "sweep_ok": all(holds.values()),
        "priorities_recovered": recovered,
        **_extension_comparison(dom, pi, draft),
        "note": SCOPE_NOTE,
    }
    return Verdict.of(all(detail[k] for k in detail if k != "note"), detail)


def verify_extension_comparison(n_agents: int = 2, n_objects: int = 3) -> Verdict:
    """The extension-lemma comparison of the draft and the snake draft on a variable domain."""
    dom = variable_domain(n_agents, n_objects)
    pi = tuple(range(1, n_agents + 1))
    draft = verify_extension_lemma(variable_draft_rule(pi), pi, dom)
    detail = _extension_comparison(dom, pi, draft)
    return Verdict.of(all(detail.values()), detail)


def verify_critical_agent(n_agents: int = 3, n_objects: int = 3) -> Verdict:
    """Rules passing WRP + EF1 have a pivot agent at every problem: the draft and every
    desk-scale characterization survivor are swept."""
    pi = tuple(range(1, n_agents + 1))
    small = fixed_domain(2, min(n_objects, 3))
    csp = build_csp(small, ("WRP", "EF1", "NW", "RM"), (1, 2))
    rules_small = solutions_as_rules(solve_csp(csp, mode="find-all"))

    checked = 0
    for rule, domain, prio in [(draft_rule(pi), fixed_domain(n_agents, n_objects), pi)] + [
        (r, small, (1, 2)) for r in rules_small
    ]:
        sw = FixedSweep(rule, domain)
        for xi in range(len(sw.xs)):
            for alloc in sw.grid(xi).tolist():
                checked += 1
                if critical_agent(sw.agents, alloc, prio) is None:
                    return Verdict.of(False, {"ok": False, "checked": checked})
    return Verdict.of(True, {"ok": True, "checked": checked, "survivors_swept": len(rules_small)})


def verify_rm_lemma() -> Verdict:
    """Adding an object everyone ranks below her own bundle only ever grows draft bundles.

    Exhaustive for two agents up to five objects and three agents up to four
    objects (the three-agent five-object profile space is too large to sweep).
    Each (X, e) case compares the draft sweep's arrays at X and X ∪ {e} on the
    profiles where every bundle at X lies above e in its owner's ranking.
    """
    checked = 0
    for n, m in ((2, 4), (2, 5), (3, 3), (3, 4)):
        agents = tuple(range(1, n + 1))
        sw = FixedSweep(draft_rule(agents), fixed_domain(n, m))
        above = _better_table(m, False)  # [pref, e]: the objects pref ranks above e
        full = (1 << m) - 1
        for xi, x in enumerate(sw.xs):
            small = sw.grid(xi)
            for e in objects_of(full & ~x):
                cases = (small & ~above[sw.digits, e] == 0).all(axis=1)
                checked += int(np.count_nonzero(cases))
                big = sw.rows(sw.domain.block_index[agents, x | 1 << e])[cases]
                if (big & small[cases] != small[cases]).any():
                    return Verdict.of(False, {"ok": False, "checked": checked})
    return Verdict.of(True, {"ok": True, "checked": checked})


PRIORITY_RECOVERY_MAX_AGENTS = 7  # n! priorities, each recovered from fresh probes: 5,040 at 7


def verify_priority_recovery(n_agents: int = 4) -> Verdict:
    """Pairwise probes recover every priority over the given number of agents exactly.
    Past PRIORITY_RECOVERY_MAX_AGENTS agents it raises CapacityError before any probe."""
    if n_agents > PRIORITY_RECOVERY_MAX_AGENTS:
        raise CapacityError(
            f"{n_agents} agents make {factorial(n_agents)} priorities to recover, more than "
            f"L8 enumerates (at most {PRIORITY_RECOVERY_MAX_AGENTS} agents)"
        )
    checked = 0
    for perm in permutations(range(1, n_agents + 1)):
        checked += 1
        if infer_priority(variable_draft_rule(perm), perm) != perm:
            return Verdict.of(False, {"ok": False, "checked": checked, "priority": perm})
    return Verdict.of(True, {"ok": True, "checked": checked})


def probe_wsp_conjecture(n_objects: int = 3, budget: int = 10_000_000) -> SolveResult:
    """Search for a rule with NW + EF1 + WSP at desk scale.

    Whatever the outcome, it neither proves nor refutes the general
    incompatibility conjecture: the search quantifies over a finite domain
    only. The note on the result says exactly that.
    """
    grid = build_grid(n_objects, ("NW", "EF1", "WSP"))
    res = solve_grid(grid, mode="find-one", budget=budget)
    res.note = (
        "desk-scale probe: a SAT or UNSAT outcome on this finite domain neither "
        "proves nor refutes the general incompatibility conjecture"
    )
    return res
