"""Rule-space constraint search: one variable per problem key, candidates are allocations.

Keys, the keys each constraint links and the candidates all come from
restriction-class codes (`ProblemKeys`). Intra-problem axioms filter candidate
sets; inter-problem axioms become binary constraints with precomputed
allowed-masks. Propagation is queue-based arc consistency. `depth_first` is
the backtracking search of this solver and of `grid.solve_grid`, with a
deterministic variable and value order, so verdicts and witnesses never depend
on scheduling. Unsatisfiable searches emit a certificate: a tree of decisions
in which every node keeps the propagation steps that led to it and each leaf
names the variable they empty. The replayer re-justifies every removal against
its constraint, at any depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import product
from typing import Sequence

import numpy as np

from .core import Allocation, Bundle, Priority, Problem, objects_of, subsets_of
from .axioms import (
    DEVIATIONS,
    UNARY,
    AxiomSpace,
    ProblemDomain,
    _change_targets,
    _digits,
    admissible,
    require_variant,
    restriction_reps,
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


class ProblemKeys:
    """The problem keys of a fixed-population domain, as restriction-class codes.

    At available set X, preferences that restrict to X alike form one class,
    and the first index of each class (`restriction_reps`) stands for it. The
    keys at X are the profile codes whose every digit is such a first index,
    in code order, and sets follow the domain's order: the order in which
    `ProblemDomain.problems()` first meets each key. Key k is variable k of a
    rule search; the keys at set xi start at `offsets[xi]`, and `digits[xi]`
    holds their preference indexes. Other problems are found by mapping digits
    through the classes, never by restricting preferences.
    """

    def __init__(self, domain: ProblemDomain):
        if domain.variant == "variable":
            raise ValueError("problem keys are indexed on fixed-population domains only")
        self.domain, self.xs, self.n = domain, domain.available_sets, len(domain.populations[0])
        reps = [restriction_reps(domain, x) for x in self.xs]
        self.firsts = [np.flatnonzero(r == np.arange(len(r))) for r in reps]
        # per set: each preference index's class position, and each slot's place value
        self._classes = [np.searchsorted(f, r) for f, r in zip(self.firsts, reps)]
        self._weights = [len(f) ** np.arange(self.n - 1, -1, -1) for f in self.firsts]
        self.digits = [f[_digits(len(f), self.n)] for f in self.firsts]
        self.offsets = np.cumsum([0] + [len(d) for d in self.digits]).tolist()

    def find(self, xi: int, digits: np.ndarray) -> np.ndarray:
        """The key at set xi of each profile in `digits` (preference indexes, slots last)."""
        return self.offsets[xi] + self._classes[xi][digits] @ self._weights[xi]

    def steps(self, xi: int, slot: int, alts: np.ndarray) -> np.ndarray:
        """(keys, k): from each key at set xi, the distance in keys to the key whose slot's
        digit is each preference index of its row of `alts` (one row serves all keys)."""
        classes, own = self._classes[xi], self.digits[xi][:, slot, None]
        return (classes[alts] - classes[own]) * self._weights[xi][slot]

    def problems(self, xi: int) -> list[Problem]:
        """The first problem of each key at set xi."""
        d, prefs = self.domain, self.domain.preference_space()
        make = partial(Problem, d.variant, d.populations[0], self.xs[xi], quotas=d.quotas)
        return [make(tuple(map(prefs.__getitem__, row))) for row in self.digits[xi].tolist()]


def distinct_problems(domain: ProblemDomain) -> tuple[list, list[Problem]]:
    """Each problem key of a fixed-population domain once, in enumeration order, with its
    first problem; `problem_key` runs once per key."""
    index = ProblemKeys(domain)
    problems = [prob for xi in range(len(index.xs)) for prob in index.problems(xi)]
    return [problem_key(prob) for prob in problems], problems


@lru_cache(maxsize=None)
def _splits(available: int, n: int, quotas: tuple | None = None) -> np.ndarray:
    """Every assignment of the available objects to one of n agents or to nobody that
    gives no agent more objects than its quota, uint8 (splits, n), in product order."""
    objs = objects_of(available)
    owner = np.array(list(product(range(n + 1), repeat=len(objs))), dtype=np.intp)
    owner = owner.reshape(-1, len(objs))  # owner n is nobody
    bits = np.left_shift(1, np.array(objs, dtype=np.intp))
    out = ((owner[:, :, None] == np.arange(n)) * bits[:, None]).sum(axis=1).astype(np.uint8)
    if quotas is not None:
        out = out[(np.bitwise_count(out) <= np.array(quotas)).all(axis=1)]
    out.flags.writeable = False
    return out


_ADMIT_ROWS = 1 << 15  # (key, split) rows per admissible call; bounds its temporaries


def admitted(space: AxiomSpace, x: Bundle, splits: np.ndarray, digits: np.ndarray, names):
    """bool (keys, splits): which splits pass every named unary axiom at each key of set x
    (rows of preference indexes), at most _ADMIT_ROWS (key, split) rows per step."""
    out = np.empty((len(digits), len(splits)), dtype=bool)
    step = max(1, _ADMIT_ROWS // len(splits))
    for lo in range(0, len(digits), step):
        d = digits[lo : lo + step]
        tiled, repeated = np.tile(splits, (len(d), 1)), np.repeat(d, len(splits), axis=0)
        out[lo : lo + step] = admissible(space, x, tiled, repeated, names).reshape(len(d), -1)
    return out


ENCODED_AXIOMS = {*UNARY, "EFF", *DEVIATIONS}


def _masks(allowed: np.ndarray) -> list[int]:
    """Row i of a bool matrix as an int with bit j set where allowed[i, j]."""
    packed = np.packbits(allowed, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def build_csp(domain: ProblemDomain, axioms: Sequence[str], priority: Priority | None = None) -> RuleCSP:
    """Encode the axioms over the domain; unary ones filter candidates up front.

    Variables are the domain's problem keys (`ProblemKeys`), so they range over
    tabulated rules in the sense of the search's target class. A key's
    candidates are the splits of its set within the quotas that pass the unary
    axiom table. A binary constraint links a key to one found from its digits:
    RM maps them to each smaller set's classes, SP and WSP put each other class
    in one slot, and TI the classes of that slot's truncations. Its allowed
    masks are the deviation relation gathered over the two candidate lists.
    """
    for ax in axioms:
        if ax not in ENCODED_AXIOMS:
            raise ValueError(f"axiom {ax!r} has no constraint encoder")
    if domain.variant == "variable":
        raise ValueError("rule-space search covers fixed-population variants only")
    for ax in axioms:
        require_variant(ax, domain)

    index = ProblemKeys(domain)
    space = AxiomSpace(domain, priority)
    n = space.n
    problems, candidates, rows = [], [], []
    for xi, x in enumerate(index.xs):
        splits = _splits(x, n, domain.quotas)
        problems += index.problems(xi)
        for keep in admitted(space, x, splits, index.digits[xi], axioms):
            rows.append(splits[keep])
            candidates.append(list(map(tuple, rows[-1].tolist())))
    keys = [problem_key(prob) for prob in problems]
    digits = np.concatenate(index.digits)
    domains = [(1 << len(c)) - 1 for c in candidates]
    tables = [space.relation(slot) for slot in range(n)]

    constraints: list[BinaryConstraint] = []

    def add_pair(name, u, v, allowed):
        constraints.append(BinaryConstraint(name, u, v, _masks(allowed), _masks(allowed.T)))

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
                    allowed = np.ones((len(candidates[u]), len(candidates[v])), dtype=bool)
                    for slot in range(n):
                        allowed &= ok(tables[slot], digits[u, slot], *columns(u, v, slot))
                    add_pair("RM", u, v, allowed)

    if "SP" in axioms or "WSP" in axioms:
        name = "WSP" if "WSP" in axioms else "SP"
        ok = DEVIATIONS[name]
        for xi, firsts in enumerate(index.firsts):
            step = np.stack([index.steps(xi, slot, firsts) for slot in range(n)], axis=1)
            # each unordered pair once, from its lower key; key-major, then slot, then class
            for k, slot, j in np.argwhere(step > 0).tolist():
                u = index.offsets[xi] + k
                v = u + int(step[k, slot, j])
                # truth at u must not gain by moving to v, nor truth at v by moving to u
                (a, b), dom = columns(u, v, slot), tables[slot]
                allowed = ok(dom, digits[u, slot], a, b) & ok(dom, digits[v, slot], b, a)
                add_pair(name, u, v, allowed)

    if "TI" in axioms:
        ok = DEVIATIONS["TI"]
        truncations, counted = _change_targets(domain.n_objects, 0)
        for xi in range(len(index.xs)):
            own = index.digits[xi]
            step = np.stack([index.steps(xi, i, truncations[own[:, i]]) for i in range(n)], 1)
            # truncations come in cutoff order, so the classes they reach do too: take each once
            fresh = np.diff(step, axis=2, prepend=step.min() - 1) != 0
            for k, slot, j in np.argwhere(counted[own] & fresh & (step != 0)).tolist():
                u = index.offsets[xi] + k
                v = u + int(step[k, slot, j])
                # v's first problem has the truncation's acceptable objects here
                add_pair("TI", u, v, ok(space.acceptable, digits[v, slot], *columns(u, v, slot)))

    watchers: list[list[int]] = [[] for _ in keys]
    for ci, c in enumerate(constraints):
        watchers[c.u].append(ci)
        watchers[c.v].append(ci)

    return RuleCSP(
        domain, tuple(axioms), keys, problems, candidates, domains, constraints, watchers
    )


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
