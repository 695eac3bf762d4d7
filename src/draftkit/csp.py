"""Rule-space constraint search: one variable per problem key, candidates are allocations.

Intra-problem axioms filter candidate sets; inter-problem axioms become binary
constraints with precomputed allowed-masks. Propagation is queue-based arc
consistency. `depth_first` is the backtracking search of this solver and of
`grid.solve_grid`, with a deterministic variable and value order, so verdicts
and witnesses never depend on scheduling. Unsatisfiable searches emit a
certificate: a tree of decisions in which every node keeps the propagation
steps that led to it and each leaf names the variable they empty. The replayer
re-justifies every removal against its constraint, at any depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Sequence

import numpy as np

from .core import (
    Allocation,
    Preference,
    Priority,
    Problem,
    bundle_size,
    objects_of,
    restrict,
    subsets_of,
)
from .axioms import (
    DEVIATIONS,
    UNARY,
    AxiomSpace,
    ProblemDomain,
    _rankings,
    require_variant,
)
from .rules import Rule, problem_key, tabulated_rule

SCOPE_NOTE = "finite-domain result: quantifies over the checked domain only"
# find-all stops, undecided, past this many solutions: the revision budget does not bound a
# search whose variables no constraint links (every verify driver's search pins one rule)
MAX_SOLUTIONS = 10_000


class BudgetExceeded(Exception):
    pass


@dataclass
class BinaryConstraint:
    """Allowed-pairs relation between two variables, stored as per-value masks."""

    name: str
    u: int
    v: int
    forward: list[int]  # forward[a] = bitmask over v-candidates compatible with u-candidate a
    backward: list[int]

    def allowed(self, var: int, val: int) -> int:
        return self.forward[val] if var == self.u else self.backward[val]

    def other(self, var: int) -> int:
        return self.v if var == self.u else self.u


@dataclass
class RuleCSP:
    domain: ProblemDomain
    axioms: tuple[str, ...]
    keys: list
    problems: list[Problem]  # canonical representative per key
    candidates: list[list[Allocation]]
    domains: list[int]  # current candidate bitmask per variable
    constraints: list[BinaryConstraint]
    watchers: list[list[int]]  # var -> constraint indexes


@dataclass
class PropagationStep:
    constraint: str
    var: int
    removed: int  # bitmask of removed candidate indexes


@dataclass
class InfeasibilityCertificate:
    """A node of the refutation tree: a leaf whose trace empties `emptied_var`, or a branch
    on `branch_var`, one child per remaining candidate.

    Every node's trace holds the steps that led to it: root propagation at the
    root, and below it the decision that made the node, then the propagation
    it caused. Grid nodes carry empty traces (grid propagation records none).
    """

    emptied_var: int | None = None
    trace: list[PropagationStep] = field(default_factory=list)
    branch_var: int | None = None
    branches: list[tuple[int, "InfeasibilityCertificate"]] = field(default_factory=list)


@dataclass
class SolveStats:
    revisions: int = 0
    nodes: int = 0


@dataclass
class SolveResult:
    status: str  # "sat" | "unsat" | "undecided"
    solutions: list[dict]
    certificate: InfeasibilityCertificate | None
    stats: SolveStats
    note: str = SCOPE_NOTE


# ---------------------------------------------------------------------------
# Building
# ---------------------------------------------------------------------------


def distinct_problems(domain: ProblemDomain) -> tuple[list, list[Problem]]:
    """Each problem key of the domain once, in enumeration order, with its first problem."""
    first: dict = {}
    for prob in domain.problems():
        first.setdefault(problem_key(prob), prob)
    return list(first), list(first.values())


def _all_allocations(problem: Problem) -> list[Allocation]:
    objs = objects_of(problem.available)
    n = len(problem.agents)
    out = []
    for assign in product(range(n + 1), repeat=len(objs)):
        bundles = [0] * n
        for o, who in zip(objs, assign):
            if who < n:
                bundles[who] |= 1 << o
        alloc = tuple(bundles)
        if problem.quotas is not None and any(
            bundle_size(b) > q for b, q in zip(alloc, problem.quotas)
        ):
            continue
        out.append(alloc)
    return out


ENCODED_AXIOMS = {*UNARY, "EFF", *DEVIATIONS}


def _masks(allowed: np.ndarray) -> list[int]:
    """Row i of a bool matrix as an int with bit j set where allowed[i, j]."""
    packed = np.packbits(allowed, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def build_csp(domain: ProblemDomain, axioms: Sequence[str], priority: Priority | None = None) -> RuleCSP:
    """Encode the axioms over the domain; unary ones filter candidates up front.

    Problem keys restrict profiles to the available set, so the variables range
    over tabulated rules in the sense of the search's target class. Candidates
    are filtered by the unary axiom table, and each binary constraint's allowed
    masks are its deviation relation gathered over the two candidate lists.
    """
    for ax in axioms:
        if ax not in ENCODED_AXIOMS:
            raise ValueError(f"axiom {ax!r} has no constraint encoder")
    if domain.variant == "variable":
        raise ValueError("rule-space search covers fixed-population variants only")
    for ax in axioms:
        require_variant(ax, domain)

    keys, problems = distinct_problems(domain)
    key_index = {k: i for i, k in enumerate(keys)}

    space = AxiomSpace(domain, priority)
    n = space.n
    candidates, rows, digits = [], [], []
    for prob in problems:
        cands = _all_allocations(prob)
        cands = [a for a, keep in zip(cands, space.admits(prob, cands, axioms)) if keep]
        candidates.append(cands)
        rows.append(np.array(cands, dtype=np.uint8).reshape(len(cands), n))
        digits.append([space.index[p] for p in prob.profile])
    domains = [(1 << len(c)) - 1 for c in candidates]
    tables = [space.relation(slot) for slot in range(n)]

    constraints: list[BinaryConstraint] = []

    def add_pair(name, u, v, allowed):
        constraints.append(BinaryConstraint(name, u, v, _masks(allowed), _masks(allowed.T)))

    def columns(u, v, slot):
        return rows[u][:, slot, None], rows[v][None, :, slot]

    if "RM" in axioms:
        ok = DEVIATIONS["RM"]
        for u, prob in enumerate(problems):
            for small in subsets_of(prob.available):
                if small == prob.available:
                    continue
                reduced = Problem(
                    prob.variant, prob.agents, small, prob.profile, prob.quotas
                )
                v = key_index[problem_key(reduced)]
                allowed = np.ones((len(candidates[u]), len(candidates[v])), dtype=bool)
                for slot in range(n):
                    allowed &= ok(tables[slot], digits[u][slot], *columns(u, v, slot))
                add_pair("RM", u, v, allowed)

    if "SP" in axioms or "WSP" in axioms:
        name = "WSP" if "WSP" in axioms else "SP"
        ok = DEVIATIONS[name]
        seen_pairs = set()
        for u, prob in enumerate(problems):
            for slot in range(len(prob.agents)):
                for alt in _slot_alternatives(domain, prob, slot):
                    new_profile = list(prob.profile)
                    new_profile[slot] = alt
                    other = Problem(
                        prob.variant,
                        prob.agents,
                        prob.available,
                        tuple(new_profile),
                        prob.quotas,
                    )
                    v = key_index[problem_key(other)]
                    if v == u or (min(u, v), max(u, v), slot) in seen_pairs:
                        continue
                    seen_pairs.add((min(u, v), max(u, v), slot))
                    # truth at u must not gain by moving to v, nor truth at v by moving to u
                    a, b = columns(u, v, slot)
                    dom = tables[slot]
                    add_pair(name, u, v, ok(dom, digits[u][slot], a, b) & ok(dom, digits[v][slot], b, a))

    if "TI" in axioms:
        ok = DEVIATIONS["TI"]
        for u, prob in enumerate(problems):
            for slot in range(len(prob.agents)):
                rpref = restrict(prob.profile[slot], prob.available)
                for alt in _slot_alternatives(domain, prob, slot):
                    if alt.ranking != rpref.ranking or alt.cutoff >= rpref.cutoff:
                        continue  # truncations of the key preference only
                    new_profile = list(prob.profile)
                    new_profile[slot] = alt
                    other = Problem(
                        prob.variant, prob.agents, prob.available, tuple(new_profile)
                    )
                    v = key_index[problem_key(other)]
                    # v's representative restricts to alt, so it has alt's acceptable objects here
                    allowed = ok(space.acceptable, digits[v][slot], *columns(u, v, slot))
                    add_pair("TI", u, v, allowed)

    watchers: list[list[int]] = [[] for _ in keys]
    for ci, c in enumerate(constraints):
        watchers[c.u].append(ci)
        watchers[c.v].append(ci)

    return RuleCSP(
        domain, tuple(axioms), keys, problems, candidates, domains, constraints, watchers
    )


def _slot_alternatives(domain: ProblemDomain, prob: Problem, slot: int):
    """All key-level preferences one agent could report at this problem (including her own)."""
    objs = objects_of(prob.available)
    if domain.variant == "unacceptable":
        return [
            Preference(r, c) for r in _rankings(objs) for c in range(len(objs) + 1)
        ]
    return [Preference(r) for r in _rankings(objs)]


# ---------------------------------------------------------------------------
# Solving
# ---------------------------------------------------------------------------


def _propagate(
    csp: RuleCSP,
    doms: list[int],
    queue: Sequence[int],
    stats: SolveStats,
    budget: int,
    trace: list[PropagationStep],
) -> int | None:
    """AC over the constraint queue, each removal appended to the trace; returns an emptied
    variable index or None."""
    pending = list(queue)
    in_queue = set(pending)
    while pending:
        ci = pending.pop(0)
        in_queue.discard(ci)
        c = csp.constraints[ci]
        for var in (c.u, c.v):
            other = c.other(var)
            dom_other = doms[other]
            dom_var = doms[var]
            stats.revisions += 1
            if stats.revisions > budget:
                raise BudgetExceeded
            keep = 0
            m = dom_var
            while m:
                low = m & -m
                val = low.bit_length() - 1
                if c.allowed(var, val) & dom_other:
                    keep |= low
                m ^= low
            if keep != dom_var:
                doms[var] = keep
                trace.append(PropagationStep(c.name, var, dom_var & ~keep))
                if keep == 0:
                    return var
                for cj in csp.watchers[var]:
                    if cj != ci and cj not in in_queue:
                        pending.append(cj)
                        in_queue.add(cj)
    return None


def depth_first(doms, propagate, pick, read_off, mode: str, stats: SolveStats) -> SolveResult:
    """The backtracking search of every rule-space solver; deterministic.

    `doms` holds one candidate bitmask per variable (a list of ints, or a flat
    uint64 array). A decision keeps one candidate of a variable, lowest first.
    The solver supplies the parts that differ:

    - ``propagate(doms, var, removed)`` narrows `doms` in place after the
      decision that removed the `removed` candidates of `var` (`var` is None at
      the root). It returns an emptied variable or None, and the steps it took.
    - ``pick(doms)`` names the variable to branch on, or None when none is open.
    - ``read_off(doms)`` turns such a leaf into a solution dict, or into the
      index of an empty variable.

    Every certificate node keeps the steps that led to it, so a replay can
    follow them at any depth. find-one and prove-unsat stop at the first
    solution; `BudgetExceeded`, and find-all past `MAX_SOLUTIONS` solutions,
    leave the search undecided.
    """
    solutions: list[dict] = []

    def visit(doms, var, removed) -> InfeasibilityCertificate:
        emptied, trace = propagate(doms, var, removed)
        if emptied is not None:
            return InfeasibilityCertificate(emptied_var=emptied, trace=trace)
        stats.nodes += 1
        var = pick(doms)
        if var is None:
            leaf = read_off(doms)
            if isinstance(leaf, dict):
                solutions.append(leaf)
                if len(solutions) > MAX_SOLUTIONS:
                    raise BudgetExceeded
                return InfeasibilityCertificate()  # not used on sat paths
            return InfeasibilityCertificate(emptied_var=leaf, trace=trace)
        mask = int(doms[var])
        branches = []
        for val in _bits(mask):
            child = doms.copy()
            child[var] = 1 << val
            sub = visit(child, var, mask & ~(1 << val))
            if solutions and mode in ("find-one", "prove-unsat"):
                return sub
            branches.append((val, sub))
        return InfeasibilityCertificate(trace=trace, branch_var=var, branches=branches)

    try:
        cert = visit(doms, None, 0)
    except BudgetExceeded:
        return SolveResult("undecided", solutions, None, stats)
    finally:
        # visit's closure holds visit itself; breaking that cycle frees the solver's
        # tables on return instead of at the next garbage collection
        del visit
    if solutions:
        return SolveResult("sat", solutions, None, stats)
    return SolveResult("unsat", [], cert, stats)


def solve_csp(csp: RuleCSP, mode: str = "find-all", budget: int = 10_000_000) -> SolveResult:
    """Exhaustive, deterministic search. find-all returns every surviving tabulated rule."""
    stats = SolveStats()
    for var, d in enumerate(csp.domains):
        if d == 0:
            return SolveResult("unsat", [], InfeasibilityCertificate(emptied_var=var), stats)

    def propagate(doms, var, removed):
        if var is None:
            trace, queue = [], range(len(csp.constraints))
        else:
            trace, queue = [PropagationStep("decision", var, removed)], csp.watchers[var]
        return _propagate(csp, doms, queue, stats, budget, trace), trace

    def read_off(doms):
        return {k: csp.candidates[i][doms[i].bit_length() - 1] for i, k in enumerate(csp.keys)}

    return depth_first(list(csp.domains), propagate, _pick_var, read_off, mode, stats)


def _pick_var(doms: list[int]) -> int | None:
    best, best_size = None, None
    for i, d in enumerate(doms):
        size = d.bit_count()
        if size > 1 and (best_size is None or size < best_size):
            best, best_size = i, size
            if size == 2:
                break
    return best


def replay_certificate(csp: RuleCSP, cert: InfeasibilityCertificate) -> bool:
    """Independently verify an unsatisfiability certificate against the initial CSP.

    Every recorded removal must be justified by its constraint at the moment it
    is applied; every leaf must end with the stated variable emptied; every
    branch node must cover the whole remaining candidate set of its variable.
    """
    return _replay(csp, cert, list(csp.domains))


def _replay(csp: RuleCSP, node: InfeasibilityCertificate, doms: list[int]) -> bool:
    # a module-level recursion: a nested one would hold the CSP in a reference cycle
    for step in node.trace:
        if step.constraint == "decision":
            doms[step.var] &= ~step.removed
            continue
        justified = False
        for ci in csp.watchers[step.var]:
            c = csp.constraints[ci]
            if c.name != step.constraint:
                continue
            other = c.other(step.var)
            if all(not (c.allowed(step.var, val) & doms[other]) for val in _bits(step.removed)):
                justified = True
                break
        if not justified:
            return False
        doms[step.var] &= ~step.removed
    if node.emptied_var is not None:
        return doms[node.emptied_var] == 0
    if node.branch_var is None:
        return False
    covered = 0
    for val, child in node.branches:
        covered |= 1 << val
        child_doms = list(doms)
        child_doms[node.branch_var] = 1 << val
        if not _replay(csp, child, child_doms):
            return False
    return covered & doms[node.branch_var] == doms[node.branch_var]


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def solutions_as_rules(csp: RuleCSP, result: SolveResult, name: str = "survivor") -> list[Rule]:
    return [
        tabulated_rule(f"{name}-{i}", table) for i, table in enumerate(result.solutions)
    ]
