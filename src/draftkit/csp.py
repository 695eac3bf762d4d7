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

from collections import deque
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
    require_variant,
    restriction_reps,
    unary_entries,
)
from .rules import Rule, restricted_key, tabulated_rule

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

    def keys(self, xi: int) -> list:
        """The `problem_key` of each key at set xi, restricting each class's first
        preference once."""
        d, x, prefs = self.domain, self.xs[xi], self.domain.preference_space()
        sig = {f: restricted_key(prefs[f], x) for f in self.firsts[xi].tolist()}
        head, rows = (d.variant, d.populations[0], x), self.digits[xi].tolist()
        return [(*head, tuple(map(sig.__getitem__, row)), d.quotas) for row in rows]


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


_ADMIT_ROWS = 1 << 15  # (key, split) cells per step of admitted; bounds its temporaries


def _slot_tables(space: AxiomSpace, x: Bundle, splits: np.ndarray, digits: np.ndarray, entries):
    """The declared columns of the entries (`UnaryAxiom.reads`), each judged once per
    (preference that occurs in `digits`, split).

    Returns bool (splits,), the columns that read no preference, and for each
    slot that some column reads a table: table[d, a] holds the slot's columns
    at preference index d and split a, where d occurs.
    """
    C, P = len(splits), len(space.prefs)
    values = np.flatnonzero(np.bincount(digits.reshape(-1), minlength=P))
    # every slot of a probe row holds its value: a column reads only its declared slot
    tiled = np.tile(splits, (len(values), 1))
    rows = np.repeat(values, C)[:, None].repeat(digits.shape[1], axis=1)
    free, tables = np.ones(C, dtype=bool), {}
    for entry in entries:
        reads = entry.reads(space)
        judged = entry.ok(space, x, tiled, rows).reshape(len(values), C, len(reads))
        for slot in set(reads):
            ok = judged[..., [k for k, s in enumerate(reads) if s == slot]].all(axis=2)
            if slot is None:
                free &= ok.all(axis=0)  # the same at every value
            else:
                tables.setdefault(slot, np.ones((P, C), dtype=bool))[values] &= ok
    return free, tables


def admitted(space: AxiomSpace, x: Bundle, splits: np.ndarray, digits: np.ndarray, names):
    """bool (keys, splits): which splits pass every named unary axiom (`unary_entries`) at
    each key of set x (rows of preference indexes).

    Columns that read one slot's preference, or none, are judged once per
    (preference that occurs among the keys, split) and gathered by each key's
    digits. Entries that read the whole profile then run only on the (key,
    split) cells still alive. Keys go in steps of at most _ADMIT_ROWS cells.
    """
    entries = unary_entries(names, space.variant)
    whole = [entry for entry in entries if entry.reads is None]
    declared = [entry for entry in entries if entry.reads is not None]
    free, per_slot = _slot_tables(space, x, splits, digits, declared)
    out = np.empty((len(digits), len(splits)), dtype=bool)
    step = max(1, _ADMIT_ROWS // len(splits))
    for lo in range(0, len(digits), step):
        alive = out[lo : lo + step]
        alive[:] = free
        for slot, table in per_slot.items():
            alive &= table[digits[lo : lo + step, slot]]
        for entry in whole:
            cells = np.flatnonzero(alive)
            key, split = np.divmod(cells, len(splits))
            ok = entry.ok(space, x, splits[split], digits[lo + key])
            alive.reshape(-1)[cells] = ok.all(axis=1)
    return out


ENCODED_AXIOMS = {*UNARY, "EFF", *DEVIATIONS}


def _concat(parts: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.intp)


def _int_rows(allowed: np.ndarray) -> list[list[int]]:
    """Bool (E, W, W) as ints: entry [e][i] has bit j set where allowed[e, i, j]."""
    packed = np.packbits(allowed, axis=-1, bitorder="little")
    words = max(1, -(-packed.shape[-1] // 8))
    pad = ((0, 0), (0, 0), (0, 8 * words - packed.shape[-1]))
    value = np.pad(packed, pad).view("<u8")  # (E, W, words), least significant word first
    if words == 1:
        return value[..., 0].tolist()
    out = value[..., 0].astype(object)
    for k in range(1, words):
        out |= value[..., k].astype(object) << (64 * k)
    return out.tolist()


class _PairBatch:
    """The allowed masks of many constraints at once, from the candidate rows.

    Each step gathers the rows of its constraints' two variables, each side
    padded to its widest candidate list in the step and masked by width, judges
    every (row, row) cell in one call and packs the result to ints once. A step
    holds at most _ADMIT_ROWS padded rows of the widest list.
    """

    def __init__(self, rows: list[np.ndarray]):
        self.flat = np.concatenate(rows)
        self.widths = np.array([len(r) for r in rows], dtype=np.intp)
        self.starts = np.cumsum(self.widths) - self.widths
        self.step = max(1, _ADMIT_ROWS // max(1, int(self.widths.max(initial=0))))

    def _gather(self, var: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        j = np.arange(self.widths[var].max(initial=0))
        valid = j < self.widths[var][:, None]
        return self.flat[np.where(valid, self.starts[var][:, None] + j, 0)], valid

    def constraints(self, name: str, u: np.ndarray, v: np.ndarray, judge) -> list:
        """One constraint per pair (u[e], v[e]), in order. `judge(sel, a, b)` gives bool
        (E, Wu, Wv) for the pairs `sel` from their padded rows, a (E, Wu, 1, n) at u and
        b (E, 1, Wv, n) at v."""
        out = []
        for lo in range(0, len(u), self.step):
            sel = slice(lo, lo + self.step)
            (a, ok_a), (b, ok_b) = self._gather(u[sel]), self._gather(v[sel])
            allowed = judge(sel, a[:, :, None], b[:, None, :])
            allowed &= ok_a[:, :, None] & ok_b[:, None, :]
            forward, backward = _int_rows(allowed), _int_rows(allowed.transpose(0, 2, 1))
            ends = zip(u[sel].tolist(), v[sel].tolist(), ok_a.sum(1).tolist(), ok_b.sum(1).tolist())
            out += [
                BinaryConstraint(name, x, y, fwd[:wx], bwd[:wy])
                for (x, y, wx, wy), fwd, bwd in zip(ends, forward, backward)
            ]
        return out


def _slot_links(index: ProblemKeys, per_set) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, v, slot) index arrays of one-slot links. `per_set` gives, for each set, a
    (keys, n, j) array of key steps and a mask of the ones to take: key k links to the
    key step[k, slot, j] further on, key-major, then slot, then j."""
    us, vs, ss = [], [], []
    for offset, (step, take) in zip(index.offsets, per_set):
        k, slot, j = np.nonzero(take)
        us.append(offset + k)
        vs.append(us[-1] + step[k, slot, j])
        ss.append(slot)
    return _concat(us), _concat(vs), _concat(ss)


def _at_slot(rows: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Padded rows, (E, Wu, 1, n) or (E, 1, Wv, n), at each pair's own slot."""
    return np.take_along_axis(rows, slots[:, None, None, None], -1)[..., 0]


def build_csp(domain: ProblemDomain, axioms: Sequence[str], priority: Priority | None = None) -> RuleCSP:
    """Encode the axioms over the domain; unary ones filter candidates up front.

    Variables are the domain's problem keys (`ProblemKeys`), so they range over
    tabulated rules in the sense of the search's target class. A key's
    candidates are the splits of its set within the quotas that pass the unary
    axiom table. A binary constraint links a key to one found from its digits:
    RM maps them to each smaller set's classes, SP and WSP put each other class
    in one slot, and TI the classes of that slot's truncations. Each axiom
    collects its (u, v, slot) links as index arrays, and their allowed masks,
    the deviation relation gathered over the two candidate lists, are built in
    one batch (`_PairBatch`).
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
    keys, problems, candidates, rows = [], [], [], []
    for xi, x in enumerate(index.xs):
        splits = _splits(x, n, domain.quotas)
        keys += index.keys(xi)
        problems += index.problems(xi)
        for keep in admitted(space, x, splits, index.digits[xi], axioms):
            rows.append(splits[keep])
            candidates.append(list(map(tuple, rows[-1].tolist())))
    digits = np.concatenate(index.digits)
    domains = [(1 << len(c)) - 1 for c in candidates]
    tables = [space.relation(slot) for slot in range(n)]
    batch = _PairBatch(rows)
    constraints: list[BinaryConstraint] = []

    if "RM" in axioms:
        ok = DEVIATIONS["RM"]
        set_index = {x: i for i, x in enumerate(index.xs)}
        us, vs = [], []
        for xi, x in enumerate(index.xs):
            ys = [set_index[y] for y in subsets_of(x) if y != x]
            if ys:
                # key-major, then each smaller set in subset order
                found = np.stack([index.find(yi, index.digits[xi]) for yi in ys], axis=1)
                us.append(np.repeat(index.offsets[xi] + np.arange(len(found)), len(ys)))
                vs.append(found.reshape(-1))
        u, v = _concat(us), _concat(vs)

        def rm(sel, a, b):
            d = digits[u[sel]]
            out = ok(tables[0], d[:, 0, None, None], a[..., 0], b[..., 0])
            for slot in range(1, n):
                out &= ok(tables[slot], d[:, slot, None, None], a[..., slot], b[..., slot])
            return out

        constraints += batch.constraints("RM", u, v, rm)

    if "SP" in axioms or "WSP" in axioms:
        name = "WSP" if "WSP" in axioms else "SP"
        ok = DEVIATIONS[name]

        def classes(xi):
            firsts = index.firsts[xi]
            step = np.stack([index.steps(xi, slot, firsts) for slot in range(n)], axis=1)
            return step, step > 0  # each unordered pair once, from its lower key

        u, v, slots = _slot_links(index, map(classes, range(len(index.xs))))
        # one relation for every slot: row (slot, preference) of the stacked tables
        stacked, P = np.concatenate(tables), len(tables[0])
        du, dv = slots * P + digits[u, slots], slots * P + digits[v, slots]

        def sp(sel, a, b):
            a, b, s = _at_slot(a, slots[sel]), _at_slot(b, slots[sel]), (sel, None, None)
            # truth at u must not gain by moving to v, nor truth at v by moving to u
            return ok(stacked, du[s], a, b) & ok(stacked, dv[s], b, a)

        constraints += batch.constraints(name, u, v, sp)

    if "TI" in axioms:
        ok = DEVIATIONS["TI"]
        truncations, counted = _change_targets(domain.n_objects, 0)

        def truncated(xi):
            own = index.digits[xi]
            step = np.stack([index.steps(xi, i, truncations[own[:, i]]) for i in range(n)], 1)
            # truncations come in cutoff order, so the classes they reach do too: take each once
            fresh = np.diff(step, axis=2, prepend=step.min() - 1) != 0
            return step, counted[own] & fresh & (step != 0)

        u, v, slots = _slot_links(index, map(truncated, range(len(index.xs))))
        # v's first problem has the truncation's acceptable objects here
        dv = digits[v, slots]

        def ti(sel, a, b):
            s = slots[sel]
            return ok(space.acceptable, dv[sel, None, None], _at_slot(a, s), _at_slot(b, s))

        constraints += batch.constraints("TI", u, v, ti)

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
    pending = deque(queue)
    in_queue = set(pending)
    while pending:
        ci = pending.popleft()
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
