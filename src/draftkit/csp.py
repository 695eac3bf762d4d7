"""Rule-space constraint search: one variable per problem key, candidates are allocations,
propagated modulo object relabeling.

Keys, the keys each constraint links and the candidates all come from
restriction-class codes (`ProblemKeys`). Intra-problem axioms filter candidate
sets; inter-problem axioms become binary constraints with precomputed
allowed-masks, and one builder (`_build`) makes both networks below.
Propagation is queue-based arc consistency.

Every encoded axiom is neutral in objects: relabeling the objects of a key's
available set X, of its preferences and of its candidate splits maps the
network onto itself. A key's first preference ranks all of X (in the
unacceptable variant too, since a key keeps the order of the unacceptable
tail), so exactly one bijection from X onto t, the first set of X's size,
sends that ranking to t's ascending order. The relabelings therefore act
freely on the keys: each orbit holds |X|!·C(m, |X|) keys and one
representative, the key at t whose first ranking ascends, and no removal ever
needs closing under a stabilizer. `build_csp` gives the quotient one variable
per representative and one constraint per orbit of constraints: the links out
of each representative, whose far end's candidates are read through its
relabeling onto its own representative (`axioms.canonical_relabelings`, the
tables NEU reads). It refuses, with ValueError, a domain whose available sets
a relabeling moves outside it, and a network that one of two generators of
the relabelings changes, at a representative's unary table or at a quotient
link. Non-neutral entries elsewhere pass, and a root that the quotient pins
is then the solution of their neutral copy, as in `grid.build_grid`.

The arc-consistency fixpoint of a neutral network is neutral, so root
propagation runs on the representatives. A fixpoint whose every variable is a
singleton is the one solution, relabeled onto every key. A wipeout or an open
fixpoint is searched on the full network, built only then, from its own
domains: the quotient decides only a pinned root or a spent budget, and every
certificate is made on the network it replays on.
`depth_first` is the backtracking search of this solver and of
`grid.solve_grid`, the specialised path for two agents and one available set;
its variable and value order is deterministic, so verdicts and witnesses never
depend on scheduling. Unsatisfiable searches emit a certificate: a tree of
decisions in which every node keeps the propagation steps that led to it and
each leaf names the variable they empty. The replayer re-justifies every
removal against its constraint, at any depth.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .core import Bundle, Priority, Problem, objects_of, subsets_of
from .axioms import (  # ProblemKeys is re-exported: a rule search's variables are its keys
    DEVIATIONS,
    UNARY,
    AxiomSpace,
    ProblemDomain,
    ProblemKeys,
    _change_targets,
    _ranking_index,
    canonical_relabelings,
    format_bundle,
    require_variant,
    sorted_distinct,
    unary_entries,
)
from .rules import Rule, tabulated_rule

SCOPE_NOTE = "finite-domain result: quantifies over the checked domain only"
# find-all stops, undecided, past this many solutions: the revision budget does not bound a
# search whose variables no constraint links (every verify driver's search pins one rule)
MAX_SOLUTIONS = 10_000


class BudgetExceeded(Exception):
    pass


@dataclass
class BinaryConstraint:
    """Allowed-pairs relation between two variables, stored as per-value masks."""

    __slots__ = ("name", "u", "v", "forward", "backward")  # networks hold 10^5 and more
    name: str
    u: int
    v: int
    forward: list[int]  # forward[a] = bitmask over v-candidates compatible with u-candidate a
    backward: list[int]

    def allowed(self, var: int, val: int) -> int:
        return self.forward[val] if var == self.u else self.backward[val]

    def other(self, var: int) -> int:
        return self.v if var == self.u else self.u


class Network:
    """A binary network: each variable's name (`keys`, what a solution is keyed by),
    candidate list and candidate bitmask, the constraints, and per variable the
    indexes of the constraints that watch it."""

    def __init__(self, keys: list, candidates: list, domains: list[int], constraints: list):
        self.keys, self.candidates = keys, candidates
        self.domains, self.constraints = domains, constraints
        self.watchers: list[list[int]] = [[] for _ in keys]
        for ci, c in enumerate(self.constraints):
            self.watchers[c.u].append(ci)
            self.watchers[c.v].append(ci)


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


@lru_cache(maxsize=None)
def generator_rows(n_objects: int) -> tuple[int, ...]:
    """Rows of `canonical_relabelings` of the pool onto itself that generate every relabeling:
    those of the rankings (1, 0, 2, ...) and (m - 1, 0, ..., m - 2)."""
    identity = tuple(range(n_objects))
    gens = (identity[1::-1] + identity[2:], identity[-1:] + identity[:-1])
    return tuple(_ranking_index(identity)[g] for g in dict.fromkeys(gens) if g != identity)


@dataclass(frozen=True)
class Relabelings:
    """The object relabelings of one pool size, as index tables over rankings (in
    permutation order) and splits (agent-1 bundles). sigma_r is the relabeling that sends
    ranking r to the identity."""

    RP: np.ndarray  # (P, P): the quotient cell of profile (r1, r2), sigma_r1(r2)
    RC: np.ndarray  # (P, C): split a relabeled by sigma_r
    RC_inv: np.ndarray  # (P, C): split a relabeled by sigma_r's inverse
    # per generator, the transposition (0 1) and the m-cycle o -> o + 1: its ranking map
    # (P,), its split map (C,) and its inverse's split map (C,)
    generators: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]


@lru_cache(maxsize=None)
def relabelings(n_objects: int) -> Relabelings:
    """The tables of one pool size: `axioms.canonical_relabelings` of the full pool onto
    itself, whose row r is sigma_r. The generators are the rows of `generator_rows`."""
    full = (1 << n_objects) - 1
    RP, RC_inv = canonical_relabelings(full, full)
    RC = np.argsort(RC_inv, axis=1)
    RC.flags.writeable = False
    rows = generator_rows(n_objects)
    return Relabelings(RP, RC, RC_inv, tuple((RP[r], RC[r], RC_inv[r]) for r in rows))


@lru_cache(maxsize=None)
def _generators(n_objects: int, cutoffs: bool) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The generators as maps of the preference space's indexes and of bundles (uint8)."""
    out = []
    for prefs, bundles, _ in relabelings(n_objects).generators:
        if cutoffs:  # a preference index is ranking * (m + 1) + cutoff
            prefs = (prefs[:, None] * (n_objects + 1) + np.arange(n_objects + 1)).reshape(-1)
        out.append((prefs, bundles.astype(np.uint8)))
    return tuple(out)


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


class _Links:
    """One axiom's links: key u[e] to key v[e], reading slot slots[e] (0 for RM).
    `judge(du, dv, slots, a, b)` gives bool (E, Wu, Wv) from the ends' digits and
    padded rows, a (E, Wu, 1, n) and b (E, 1, Wv, n). With `both_ways`, a link is
    listed from each of its ends."""

    def __init__(self, name: str, u, v, slots, judge: Callable, both_ways: bool = False):
        self.name, self.u, self.v, self.slots, self.judge = name, u, v, slots, judge
        self.both_ways = both_ways


class _PairBatch:
    """The allowed masks of many links at once, from the candidate rows.

    Row list i is `widths[i]` rows of `flat` from `starts[i]`. Each step
    gathers the two ends' row lists, each side padded to its widest list in the
    step and masked by width, judges every (row, row) cell in one call and
    packs the result to ints once. A step holds at most _ADMIT_ROWS padded rows
    of the widest list.
    """

    def __init__(self, flat: np.ndarray, widths: np.ndarray, digits: np.ndarray):
        self.flat, self.widths, self.digits = flat, widths, digits
        self.starts = np.cumsum(widths) - widths
        self.step = max(1, _ADMIT_ROWS // max(1, int(widths.max(initial=0))))

    def _gather(self, lists: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        j = np.arange(self.widths[lists].max(initial=0))
        valid = j < self.widths[lists][:, None]
        return self.flat[np.where(valid, self.starts[lists][:, None] + j, 0)], valid

    def masks(self, links: _Links, bu: np.ndarray, bv: np.ndarray, generators) -> list:
        """Per link e, (forward, backward) between row lists bu[e] and bv[e]. ValueError
        where a generator, a (preference map, bundle map) pair, changes a link's table."""
        out = []
        for lo in range(0, len(bu), self.step):
            sel = slice(lo, lo + self.step)
            (a, ok_a), (b, ok_b) = self._gather(bu[sel]), self._gather(bv[sel])
            du, dv, s = self.digits[links.u[sel]], self.digits[links.v[sel]], links.slots[sel]
            allowed = links.judge(du, dv, s, a[:, :, None], b[:, None, :])
            for prefs, bundles in generators:
                a_image, b_image = bundles[a][:, :, None], bundles[b][:, None, :]
                image = links.judge(prefs[du], prefs[dv], s, a_image, b_image)
                if not np.array_equal(image, allowed):
                    raise ValueError(f"the {links.name} constraints are not neutral in objects")
            allowed &= ok_a[:, :, None] & ok_b[:, None, :]
            forward, backward = _int_rows(allowed), _int_rows(allowed.transpose(0, 2, 1))
            widths = zip(ok_a.sum(1).tolist(), ok_b.sum(1).tolist())
            out += [(f[:wu], w[:wv]) for (wu, wv), f, w in zip(widths, forward, backward)]
        return out


def _slot_links(index: ProblemKeys, local, per_set) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, v, slot) index arrays of one-slot links from the keys at positions local[xi] of
    each set. `per_set(xi, own)` gives, from those keys' digits, a (keys, n, j) array of key
    steps and a mask of the ones to take: each key links to the key step[k, slot, j]
    further on, key-major, then slot, then j."""
    us, vs, ss = [], [], []
    for xi, rows in enumerate(local):
        if len(rows):
            step, take = per_set(xi, index.digits[xi][rows])
            k, slot, j = np.nonzero(take)
            us.append(index.offsets[xi] + rows[k])
            vs.append(us[-1] + step[k, slot, j])
            ss.append(slot)
    return _concat(us), _concat(vs), _concat(ss)


def _at(digits: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """(E,): each link's digit at its own slot, as a (E, 1, 1) column."""
    return np.take_along_axis(digits, slots[:, None], 1)[:, :, None]


def _at_slot(rows: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Padded rows, (E, Wu, 1, n) or (E, 1, Wv, n), at each pair's own slot."""
    return np.take_along_axis(rows, slots[:, None, None, None], -1)[..., 0]


def _links(index: ProblemKeys, space: AxiomSpace, axioms, local) -> list[_Links]:
    """Every encoded axiom's links out of the keys at positions local[xi] of each set.

    RM maps a key's digits to each smaller set's classes, SP and WSP put each
    other class in one slot (listed from both ends), and TI the classes of that
    slot's truncations. The judges are the deviation relations read over the
    two candidate lists.
    """
    n, out = space.n, []
    tables = [space.relation(slot) for slot in range(n)]

    if "RM" in axioms:
        set_index = {x: i for i, x in enumerate(index.xs)}
        us, vs = [], []
        for xi, x in enumerate(index.xs):
            missing = [y for y in subsets_of(x) if y not in set_index]
            if missing:
                raise ValueError(
                    f"RM links each available set to its subsets: {format_bundle(missing[0])}, "
                    f"a subset of {format_bundle(x)}, is not an available set"
                )
            ys = [set_index[y] for y in subsets_of(x) if y != x]
            if ys and len(local[xi]):
                # key-major, then each smaller set in subset order
                own = index.digits[xi][local[xi]]
                found = np.stack([index.find(yi, own) for yi in ys], axis=1)
                us.append(np.repeat(index.offsets[xi] + local[xi], len(ys)))
                vs.append(found.reshape(-1))

        def rm(du, dv, s, a, b, ok=DEVIATIONS["RM"]):
            out = ok(tables[0], du[:, 0, None, None], a[..., 0], b[..., 0])
            for slot in range(1, n):
                out &= ok(tables[slot], du[:, slot, None, None], a[..., slot], b[..., slot])
            return out

        u = _concat(us)
        out.append(_Links("RM", u, _concat(vs), np.zeros_like(u), rm))

    if "SP" in axioms or "WSP" in axioms:
        name = "WSP" if "WSP" in axioms else "SP"

        def classes(xi, own):
            firsts = index.firsts[xi]
            step = np.stack([index.steps(xi, slot, firsts, own) for slot in range(n)], axis=1)
            return step, step != 0

        # one relation for every slot: row (slot, preference) of the stacked tables
        stacked, P = np.concatenate(tables), len(tables[0])

        def sp(du, dv, s, a, b, ok=DEVIATIONS[name]):
            a, b, row = _at_slot(a, s), _at_slot(b, s), s[:, None, None] * P
            # truth at u must not gain by moving to v, nor truth at v by moving to u
            return ok(stacked, row + _at(du, s), a, b) & ok(stacked, row + _at(dv, s), b, a)

        out.append(_Links(name, *_slot_links(index, local, classes), sp, both_ways=True))

    if "TI" in axioms:
        truncations, counted = _change_targets(index.domain.n_objects, 0)

        def truncated(xi, own):
            step = np.stack([index.steps(xi, i, truncations[own[:, i]], own) for i in range(n)], 1)
            # truncations come in cutoff order, so the classes they reach do too: take each once
            fresh = np.diff(step, axis=2, prepend=step.min() - 1) != 0
            return step, counted[own] & fresh & (step != 0)

        def ti(du, dv, s, a, b, ok=DEVIATIONS["TI"]):
            # v's first problem has the truncation's acceptable objects here
            return ok(space.acceptable, _at(dv, s), _at_slot(a, s), _at_slot(b, s))

        out.append(_Links("TI", *_slot_links(index, local, truncated), ti))
    return out


def _build(
    index: ProblemKeys, space, axioms, keys, variables, orbit, relabeling=None, generators=()
) -> tuple[Network, list[np.ndarray], int]:
    """The network whose variable i is key variables[i], named keys[i], its candidate
    rows, and the count of constraints among every key.

    Key k is variable orbit[k]'s key relabeled by row relabeling[k] of its set's
    `ProblemKeys.back` table, or without `relabeling` variable orbit[k] itself. A
    variable's candidates are the splits of its set within the quotas that pass the
    unary axiom table. A binary constraint links a variable to a key found from its
    digits (`_links`), reading that key's rows relabeled from its variable's, so that
    the masks index that variable's candidates; all masks are built in one batch
    (`_PairBatch`). ValueError where one of the `generators` changes a variable's
    unary row or a link's masks.
    """
    quotas, local, rows = index.domain.quotas, [], []
    for xi, x, lo, hi in zip(range(len(index.xs)), index.xs, index.offsets, index.offsets[1:]):
        local.append(variables[(variables >= lo) & (variables < hi)] - lo)
        if len(local[-1]):
            splits, digits = _splits(x, space.n, quotas), index.digits[xi][local[-1]]
            keep = admitted(space, x, splits, digits, axioms)
            for prefs, bundles in generators:
                image = admitted(space, int(bundles[x]), bundles[splits], prefs[digits], axioms)
                if not np.array_equal(image, keep):
                    raise ValueError(f"the unary axioms of {axioms} are not neutral in objects")
            rows += [splits[k] for k in keep]

    links = _links(index, space, axioms, local)
    widths = np.array([len(r) for r in rows], dtype=np.intp)
    flat, targets = _concat(rows), None
    if relabeling is not None:  # the far ends' rows, relabeled from their variables' rows
        targets = sorted_distinct(_concat([l.v for l in links]))
        starts, moved = np.cumsum(widths) - widths, []
        for xi, lo, hi in zip(range(len(index.xs)), index.offsets, index.offsets[1:]):
            here = targets[(targets >= lo) & (targets < hi)]
            w = widths[orbit[here]]
            source = np.repeat(starts[orbit[here]] - np.cumsum(w) + w, w) + np.arange(w.sum())
            moved.append(index.back(xi)[np.repeat(relabeling[here], w)[:, None], flat[source]])
        flat, widths = _concat([flat, *moved]), np.concatenate([widths, widths[orbit[targets]]])
    batch = _PairBatch(flat, widths, index.all_digits)

    sizes, constraints, count = np.bincount(orbit), [], 0
    for l in links:
        count += int(sizes[orbit[l.u]].sum()) // (2 if l.both_ways else 1)
        if l.both_ways:  # one of a pair's two listings, the one from the lower variable
            keep = orbit[l.u] <= orbit[l.v]
            l = _Links(l.name, l.u[keep], l.v[keep], l.slots[keep], l.judge)
        bu, bv = orbit[l.u], orbit[l.v]
        far = bv if targets is None else len(rows) + np.searchsorted(targets, l.v)
        ends = zip(bu.tolist(), bv.tolist(), batch.masks(l, bu, far, generators))
        constraints += [BinaryConstraint(l.name, u, v, f, b) for u, v, (f, b) in ends]
    candidates = [list(map(tuple, r.tolist())) for r in rows]
    return Network(keys, candidates, [(1 << len(r)) - 1 for r in rows], constraints), rows, count


class RuleCSP:
    """A rule search over one domain, held as its quotient modulo object relabeling.

    `keys` and `problems` cover every key. `quotient` is the network on the
    orbit representatives: its variable i is key `quotient.keys[i]`, with the
    candidate rows `rows[i]`. Key k is representative `orbit[k]` relabeled by
    row `relabeling[k]` of its set's `ProblemKeys.back` table, which is how
    `table` reads a pinned quotient onto every key. The full network over every
    key (`network`), each key its own variable, is built on first use, by every
    search the quotient does not decide; `constraints` is the range of its
    constraint ids, whose count (`n_constraints`) the quotient's build gives.
    """

    def __init__(self, domain, axioms, index, space, quotient, rows, orbit, relabeling, count):
        self.domain, self.axioms, self.index, self.space = domain, axioms, index, space
        self.quotient, self.rows, self.orbit, self.relabeling = quotient, rows, orbit, relabeling
        self.n_constraints = count
        self.keys = [key for xi in range(len(index.xs)) for key in index.keys(xi)]

    @cached_property
    def problems(self) -> list[Problem]:
        return [p for xi in range(len(self.index.xs)) for p in self.index.problems(xi)]

    @cached_property
    def network(self) -> Network:
        """The network over every key, each key its own variable."""
        every = np.arange(len(self.keys))
        return _build(self.index, self.space, self.axioms, self.keys, every, every)[0]

    @property
    def constraints(self) -> range:
        return range(self.n_constraints)

    def table(self, doms: list[int]) -> dict:
        """The solution where every representative holds the one candidate of its mask
        `doms[i]`, relabeled onto every key."""
        index = self.index
        chosen = np.stack([rows[d.bit_length() - 1] for rows, d in zip(self.rows, doms)])
        out = np.empty((len(self.keys), index.n), dtype=np.intp)
        for xi, lo, hi in zip(range(len(index.xs)), index.offsets, index.offsets[1:]):
            out[lo:hi] = index.back(xi)[self.relabeling[lo:hi, None], chosen[self.orbit[lo:hi]]]
        # keys with the same allocation share one tuple
        codes = out @ 256 ** np.arange(index.n)
        splits, which = np.unique(codes, return_index=True, return_inverse=True)[1:]
        allocations = list(zip(*out[splits].T.tolist()))
        return dict(zip(self.keys, map(allocations.__getitem__, which.tolist())))


def build_csp(domain: ProblemDomain, axioms: Sequence[str], priority: Priority | None = None):
    """Encode the axioms over the domain's problem keys, modulo object relabeling.

    Variables are the domain's problem keys (`ProblemKeys`), so they range over
    tabulated rules in the sense of the search's target class. The quotient is
    `_build`'s network on the orbit representatives (`ProblemKeys.orbits`), each
    far end's rows relabeled from its representative's. ValueError where a
    generator of the relabelings moves a representative's unary row or a
    quotient link's masks (see the module docstring).
    """
    for ax in axioms:
        if ax not in ENCODED_AXIOMS:
            raise ValueError(f"axiom {ax!r} has no constraint encoder")
    if domain.variant == "variable":
        raise ValueError("rule-space search covers fixed-population variants only")
    for ax in axioms:
        require_variant(ax, domain)

    axioms, index = tuple(axioms), ProblemKeys(domain)
    space = AxiomSpace(domain, priority)
    reps, relabeling = index.orbits()
    rep_keys = np.flatnonzero(reps == np.arange(len(reps)))
    orbit = np.searchsorted(rep_keys, reps)
    generators = _generators(domain.n_objects, domain.variant == "unacceptable")
    quotient, rows, count = _build(
        index, space, axioms, rep_keys.tolist(), rep_keys, orbit, relabeling, generators
    )
    return RuleCSP(domain, axioms, index, space, quotient, rows, orbit, relabeling, count)


# ---------------------------------------------------------------------------
# Solving
# ---------------------------------------------------------------------------


def _propagate(
    net: Network,
    doms: list[int],
    queue: Sequence[int],
    stats: SolveStats,
    budget: int,
    trace: list[PropagationStep],
) -> int | None:
    """AC over the constraint queue, each removal appended to the trace; returns an emptied
    variable index or None. A constraint may link a variable to itself."""
    pending = deque(queue)
    in_queue = set(pending)
    while pending:
        ci = pending.popleft()
        in_queue.discard(ci)
        c = net.constraints[ci]
        for var, other, masks in ((c.u, c.v, c.forward), (c.v, c.u, c.backward)):
            dom_other = doms[other]
            dom_var = doms[var]
            stats.revisions += 1
            if stats.revisions > budget:
                raise BudgetExceeded
            keep = 0
            m = dom_var
            while m:
                low = m & -m
                if masks[low.bit_length() - 1] & dom_other:
                    keep |= low
                m ^= low
            if keep != dom_var:
                doms[var] = keep
                trace.append(PropagationStep(c.name, var, dom_var & ~keep))
                if keep == 0:
                    return var
                for cj in net.watchers[var]:
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


def solve_csp(csp: RuleCSP | Network, mode: str = "find-all", budget: int = 10_000_000):
    """Exhaustive, deterministic search. find-all returns every surviving tabulated rule.

    A `RuleCSP` propagates its quotient at the root and, where that pins every
    representative, reads the one solution off it. A wipeout or an open fixpoint
    is searched on the full network from its own domains, as a `Network` is.
    """
    stats = SolveStats()
    if isinstance(csp, RuleCSP):
        quotient, doms = csp.quotient, list(csp.quotient.domains)
        try:
            _propagate(quotient, doms, range(len(quotient.constraints)), stats, budget, [])
        except BudgetExceeded:  # the full search would stop at its first revision
            return SolveResult("undecided", [], None, stats)
        if all(d.bit_count() == 1 for d in doms):
            stats.nodes += 1
            return SolveResult("sat", [csp.table(doms)], None, stats)
        csp = csp.network
    return _search(csp, mode, budget, stats)


def _search(net: Network, mode: str, budget: int, stats: SolveStats) -> SolveResult:
    """`depth_first` over the network, from root propagation over every constraint."""
    for var, d in enumerate(net.domains):
        if d == 0:
            return SolveResult("unsat", [], InfeasibilityCertificate(emptied_var=var), stats)

    def propagate(doms, var, removed):
        if var is None:
            trace, queue = [], range(len(net.constraints))
        else:
            trace, queue = [PropagationStep("decision", var, removed)], net.watchers[var]
        return _propagate(net, doms, queue, stats, budget, trace), trace

    def read_off(doms):
        return {k: net.candidates[i][doms[i].bit_length() - 1] for i, k in enumerate(net.keys)}

    return depth_first(list(net.domains), propagate, _pick_var, read_off, mode, stats)


def _pick_var(doms: list[int]) -> int | None:
    best, best_size = None, None
    for i, d in enumerate(doms):
        size = d.bit_count()
        if size > 1 and (best_size is None or size < best_size):
            best, best_size = i, size
            if size == 2:
                break
    return best


def replay_certificate(csp: RuleCSP | Network, cert: InfeasibilityCertificate) -> bool:
    """Independently verify an unsatisfiability certificate against the initial CSP, the
    full network over every key.

    Every recorded removal must be justified by its constraint at the moment it
    is applied; every leaf must end with the stated variable emptied; every
    branch node must cover the whole remaining candidate set of its variable.
    """
    net = csp.network if isinstance(csp, RuleCSP) else csp
    return _replay(net, cert, list(net.domains))


def _replay(net: Network, node: InfeasibilityCertificate, doms: list[int]) -> bool:
    # a module-level recursion: a nested one would hold the CSP in a reference cycle
    for step in node.trace:
        if step.constraint == "decision":
            doms[step.var] &= ~step.removed
            continue
        justified = False
        for ci in net.watchers[step.var]:
            c = net.constraints[ci]
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
        if not _replay(net, child, child_doms):
            return False
    return covered & doms[node.branch_var] == doms[node.branch_var]


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def solutions_as_rules(result: SolveResult, name: str = "survivor") -> list[Rule]:
    return [tabulated_rule(f"{name}-{i}", table) for i, table in enumerate(result.solutions)]
