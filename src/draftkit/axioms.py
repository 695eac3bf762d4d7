"""Axiom checkers over enumerable problem domains.

Every checker takes a rule and a ProblemDomain, quantifies the axiom's
"for any problem" over exactly the domain's problems, and returns an
AxiomReport whose witness (when violated) carries enough of the instance to
replay the violation. Witnesses are the first violation in the domain's
deterministic enumeration order, independent of how the sweep is scheduled.

Domains are finite and explicit; reports therefore state exactly what was
checked, nothing more.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, combinations, permutations, product
from math import comb, factorial
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .core import (
    INFINITE,
    Agent,
    Allocation,
    Bundle,
    Preference,
    Priority,
    Problem,
    bundle_of,
    bundle_size,
    objects_of,
    preference_space,
    subsets_of,
    top_k,
)
from .dominance import WeightScheme, additive_utility, relation_table
from .packed import (
    bundle_bits,
    change_judge,
    failing_sets,
    misreport_judge,
    scan,
    truncation_judge,
    unanimous_failures,
    unanimous_judge,
)
from .rules import Rule, pick_table

OBJECT_NAMES = "abcdefghijklmnopqrstuvwxyz"


def format_bundle(mask: Bundle) -> str:
    return "{" + ",".join(OBJECT_NAMES[o] for o in objects_of(mask)) + "}"


def format_pref(pref: Preference) -> str:
    names = [OBJECT_NAMES[o] for o in pref.ranking]
    if pref.cutoff is None:
        return ">".join(names)
    return ">".join(names[: pref.cutoff]) + "|" + ">".join(names[pref.cutoff :])


def describe_problem(problem: Problem) -> dict:
    out = {
        "variant": problem.variant,
        "agents": list(problem.agents),
        "available": format_bundle(problem.available),
        "profile": {a: format_pref(p) for a, p in zip(problem.agents, problem.profile)},
    }
    if problem.quotas is not None:
        out["quotas"] = ["inf" if q == INFINITE else q for q in problem.quotas]
    return out


def describe_allocation(problem: Problem, alloc: Allocation) -> dict:
    return {a: format_bundle(b) for a, b in zip(problem.agents, alloc)}


@dataclass(frozen=True)
class AxiomReport:
    axiom: str
    verdict: str  # "holds" | "violated" | "proved" | "refuted" | "undecided"
    witness: dict | None = None
    checked: int = 0
    note: str = ""

    @property
    def holds(self) -> bool:
        return self.verdict in ("holds", "proved")


def _holds(axiom, checked, note=""):
    return AxiomReport(axiom, "holds", None, checked, note)


def _violated(axiom, checked, witness, note=""):
    return AxiomReport(axiom, "violated", witness, checked, note)


# ---------------------------------------------------------------------------
# Problem domains
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _rankings(objects: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    return tuple(permutations(objects))


@lru_cache(maxsize=None)
def _restricted_prefs(objects: tuple[int, ...]) -> tuple[Preference, ...]:
    return tuple(Preference(r) for r in _rankings(objects))


@dataclass(frozen=True)
class ProblemDomain:
    """A finite quantification range: populations x available sets x preference profiles.

    Enumeration order is deterministic: populations as given, available sets as
    given, profiles in lexicographic order over the per-agent preference space.
    """

    variant: str
    n_objects: int
    populations: tuple[tuple[Agent, ...], ...]
    available_sets: tuple[Bundle, ...]
    quotas: tuple[int | float, ...] | None = None

    def preference_space(self) -> tuple[Preference, ...]:
        if self.variant == "variable":
            raise ValueError("variable domains have per-available-set preference spaces")
        return preference_space(self.n_objects, cutoffs=self.variant == "unacceptable")

    def prefs_at(self, available: Bundle) -> tuple[Preference, ...]:
        """The preference space at an available set: the domain's `preference_space()`, or
        on a variable domain every ranking of exactly that set."""
        if self.variant == "variable":
            return _restricted_prefs(objects_of(available))
        return self.preference_space()

    @cached_property
    def block_index(self) -> dict[tuple[tuple[Agent, ...], Bundle], tuple[int, int]]:
        """The (population index, set index) key of each (population, available set), in
        `problems()` order."""
        pops, xs = enumerate(self.populations), tuple(enumerate(self.available_sets))
        return {(pop, x): (pi, xi) for pi, pop in pops for xi, x in xs}

    def problems(self) -> Iterator[Problem]:
        for pop in self.populations:
            for x in self.available_sets:
                for combo in product(self.prefs_at(x), repeat=len(pop)):
                    yield Problem(self.variant, pop, x, combo, self.quotas)


def _subset_masks(m: int, nonempty=True) -> tuple[Bundle, ...]:
    masks = [x for x in range(0 if not nonempty else 1, 1 << m)]
    masks.sort(key=lambda x: (x.bit_count(), x))
    return tuple(masks)


def fixed_domain(n_agents: int, n_objects: int) -> ProblemDomain:
    return ProblemDomain(
        "fixed", n_objects, (tuple(range(1, n_agents + 1)),), _subset_masks(n_objects)
    )


def quota_domain(n_agents: int, n_objects: int, quotas: Sequence[int | float]) -> ProblemDomain:
    return ProblemDomain(
        "quota",
        n_objects,
        (tuple(range(1, n_agents + 1)),),
        _subset_masks(n_objects),
        tuple(quotas),
    )


def unacceptable_domain(n_agents: int, n_objects: int) -> ProblemDomain:
    return ProblemDomain(
        "unacceptable",
        n_objects,
        (tuple(range(1, n_agents + 1)),),
        _subset_masks(n_objects),
    )


def variable_domain(n_agents: int, n_objects: int) -> ProblemDomain:
    pops = []
    for size in range(1, n_agents + 1):
        pops.extend(combinations(range(1, n_agents + 1), size))
    return ProblemDomain(
        "variable", n_objects, tuple(pops), (0,) + _subset_masks(n_objects)
    )


def all_priorities(agents: Iterable[Agent]) -> list[Priority]:
    return list(permutations(tuple(agents)))


MAX_ROW_OBJECTS = 8  # allocation rows are uint8: one bit per object
# profile codes per available set (Pⁿ): a set's block keeps an intp (Pⁿ, n) index array
# beside its rows, and its checks make temporaries of that length, so 2²¹ codes keep a
# three-agent block near 60 MB; Tier-1's largest sets hold 14,400 codes, fixed 3×5 1.7 M
MAX_PROFILE_CODES = 1 << 21


def past_capacity(n_objects: int, n_agents: int = 1, cutoffs: bool = False) -> str | None:
    """Why a request of this size is undecided, or None when its arrays fit. One agent
    never passes the profile bound, so callers without a population check only the rows."""
    if n_objects > MAX_ROW_OBJECTS:
        return (
            f"{n_objects} objects exceeds the allocation arrays' capacity "
            f"({MAX_ROW_OBJECTS}); bundles are stored as 8-bit rows"
        )
    codes = (factorial(n_objects) * (n_objects + 1 if cutoffs else 1)) ** n_agents
    if codes > MAX_PROFILE_CODES:
        return (
            f"{n_agents} agents over {n_objects} objects make {codes} profiles per available "
            f"set, more than a sweep holds ({MAX_PROFILE_CODES})"
        )
    return None


def _digits(P: int, n: int) -> np.ndarray:
    """(Pⁿ, n) preference index of each slot at each profile code, slot 0 most significant."""
    return np.indices((P,) * n).reshape(n, -1).T


def _fill(rule: Rule, domain: ProblemDomain, agents, x: Bundle, prefs, digits) -> np.ndarray:
    """The rule's allocation at every profile over `prefs` at (agents, x), as a uint8
    (len(prefs)ⁿ, n) array: row = profile code (product order), column = agent slot.

    `digits` holds each row's preference indexes; the rule's engine fills them."""
    if domain.n_objects > MAX_ROW_OBJECTS:
        raise ValueError(f"allocation arrays hold bundles of at most {MAX_ROW_OBJECTS} objects")
    # the block's problems differ only in their profiles: one stands for all in Problem's checks
    Problem(domain.variant, agents, x, (prefs[0],) * len(agents), domain.quotas)
    return rule.fill(domain.variant, agents, x, prefs, domain.quotas, digits)


# ---------------------------------------------------------------------------
# Indexed sweep: one block store, viewed by set (fixed) or by population and set
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _ranking_index(objects: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    return {r: i for i, r in enumerate(_rankings(objects))}


def sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-D array, ascending. A bare `np.unique` imports numpy.ma on
    its first call (NumPy 2.x), about 10 ms and 0.5 MB per process."""
    out = np.sort(values)
    return out[np.concatenate(([True], out[1:] != out[:-1]))] if len(out) else out


def _index_array(values) -> np.ndarray:
    out = np.array(values, dtype=np.intp)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def restriction_map(x: Bundle, y: Bundle) -> np.ndarray:
    """Per preference index over x, the index over y (a subset of x) of its restriction to y."""
    index = _ranking_index(objects_of(y))
    return _index_array(
        [index[tuple(o for o in r if y >> o & 1)] for r in _rankings(objects_of(x))]
    )


@lru_cache(maxsize=None)
def full_index(x: Bundle, n_objects: int) -> np.ndarray:
    """Per preference index over x, the index in preference_space(n_objects) of its ranking
    followed by the objects outside x, ascending; on bundles within x both compare alike."""
    index = _ranking_index(tuple(range(n_objects)))
    rest = tuple(o for o in range(n_objects) if not x >> o & 1)
    return _index_array([index[r + rest] for r in _rankings(objects_of(x))])


@lru_cache(maxsize=None)
def canonical_relabelings(x: Bundle, t: Bundle) -> tuple[np.ndarray, np.ndarray]:
    """The bijections from x onto t, a set of the same size, as two index tables.

    Row r0 is the bijection that sends ranking r0 over x to t's ascending order.
    CANON[r0, r] is the index over t of ranking r relabeled by it, and BACK[r0, b]
    is b ⊆ t mapped back into x. A ranking of all of x fixes a bijection, so each
    is row CANON[r0, 0] (the image of x's ascending order) of exactly one row r0.
    """
    k = bundle_size(x)
    perms = np.array(_rankings(tuple(range(k))), dtype=np.intp).reshape(factorial(k), k)
    position = np.argsort(perms, axis=1)  # position[r0, o]: where ranking r0 places o
    code = np.zeros((len(perms),) * 2, dtype=np.intp)
    for i in range(k):  # base-k codes of the relabeled rankings, one place at a time
        code *= k
        code += position[:, perms[:, i]]
    canon = np.searchsorted(perms @ k ** np.arange(k - 1, -1, -1), code)
    images = np.left_shift(1, np.array(objects_of(x), dtype=np.intp)[perms])
    members = np.arange(1 << t.bit_length())[:, None] >> np.array(objects_of(t), dtype=np.intp)
    back = images @ (members & 1).T
    for table in (canon, back):
        table.flags.writeable = False
    return canon, back


@lru_cache(maxsize=None)
def restriction_codes(domain: ProblemDomain, x: Bundle) -> np.ndarray:
    """Per index into the domain's preference space, the code of its restriction to x: the
    index over x of its ranking, times |x| + 1 plus its acceptable objects in x in the
    unacceptable variant. Two indexes restrict to x alike exactly when their codes agree, and
    every code below the largest occurs, so a code is the number of its class at x."""
    m = domain.n_objects
    to_x = restriction_map((1 << m) - 1, x)
    if domain.variant != "unacceptable":
        return to_x
    accepted = np.array([p.acceptable for p in domain.preference_space()]) & x
    # a preference index is ranking * (m + 1) + cutoff
    return _index_array(np.repeat(to_x, m + 1) * (bundle_size(x) + 1) + np.bitwise_count(accepted))


@lru_cache(maxsize=None)
def restriction_reps(domain: ProblemDomain, x: Bundle) -> np.ndarray:
    """Per index into the domain's preference space, the first index whose restriction to
    x is the same: the first index of its restriction class at x."""
    first: dict[int, int] = {}
    codes = restriction_codes(domain, x).tolist()
    return _index_array([first.setdefault(code, i) for i, code in enumerate(codes)])


class ProblemKeys:
    """The problem keys of a domain, block by block: profiles of classes of preferences.

    Blocks are the (population, available set) pairs in `ProblemDomain.problems()`
    order; on a fixed-population domain block xi is set xi. At block b,
    `_classes[b]` maps each full-space preference index (`AxiomSpace.prefs`) to
    its class and `firsts[b]` holds the index that stands for each class. Block
    b's keys are the base-len(firsts[b]) codes of class profiles, slot 0 most
    significant, from `offsets[b]` on: the order in which `problems()` first
    meets them. A class is a ranking of X on a variable domain (`restriction_map`,
    standing as `full_index`), so each problem is a key, as in a sweep; a
    restriction class at X on a fixed-population domain (`restriction_codes`,
    standing as its first index), so the keys are a rule search's variables; or,
    with `rows`, one preference index, so the keys are a fixed sweep's rows.
    `code` thus reads every block from full-space digits by one formula, which
    `locate` gives for a problem's own preferences: a key's code is its one name.
    Per-key arrays (`digits`) are built on first use.
    """

    def __init__(self, domain: ProblemDomain, rows: bool = False):
        m, self.domain, self.n = domain.n_objects, domain, len(domain.populations[0])
        self.blocks = list(domain.block_index)  # (population, available set) per block
        self.xs = [x for _, x in self.blocks]
        self.firsts, self._classes = [], []
        for x in self.xs:
            if domain.variant == "variable":
                classes, firsts = restriction_map((1 << m) - 1, x), full_index(x, m)
            elif rows:
                classes = firsts = np.arange(len(domain.preference_space()))
            else:
                classes = restriction_codes(domain, x)
                firsts = np.unique(classes, return_index=True)[1]
            self.firsts.append(firsts)
            self._classes.append(classes)
        sizes = [(len(f), len(pop)) for f, (pop, _) in zip(self.firsts, self.blocks)]
        self._weights = [P ** np.arange(n - 1, -1, -1) for P, n in sizes]
        self.offsets = np.cumsum([0] + [P**n for P, n in sizes]).tolist()

    @cached_property
    def all_digits(self) -> np.ndarray:
        """(keys, n) full-space preference index of each slot of each key (one population)."""
        return np.concatenate([f[_digits(len(f), self.n)] for f in self.firsts])

    @cached_property
    def digits(self) -> list[np.ndarray]:
        """Per block, its keys' rows of `all_digits`."""
        return [self.all_digits[lo:hi] for lo, hi in zip(self.offsets, self.offsets[1:])]

    def code(self, b: int, digits: np.ndarray) -> np.ndarray:
        """The code within block b of each profile of full-space preference indexes."""
        classes = self._classes[b]  # one slot at a time: no (profiles, n) temporary
        return sum(classes[digits[..., i]] * w for i, w in enumerate(self._weights[b].tolist()))

    def find(self, b: int, digits: np.ndarray) -> np.ndarray:
        """The key at block b of each profile in `digits`."""
        return self.offsets[b] + self.code(b, digits)

    def steps(self, b: int, slot: int, alts: np.ndarray, own: np.ndarray) -> np.ndarray:
        """(keys, k): from each key at block b with digits `own`, the distance in keys to the
        key whose slot's digit is each preference index of its row of `alts` (one row
        serves all keys)."""
        classes = self._classes[b]
        return (classes[alts] - classes[own[:, slot, None]]) * self._weights[b][slot]

    def problems(self, b: int) -> list[Problem]:
        """The first problem of each key at block b."""
        d, (pop, x) = self.domain, self.blocks[b]
        prefs = d.prefs_at(x)  # on a variable domain, class r is ranking r of x
        if d.variant != "variable":
            prefs = [prefs[f] for f in self.firsts[b].tolist()]
        return [Problem(d.variant, pop, x, p, d.quotas) for p in product(prefs, repeat=len(pop))]

    def locate(self, variant, agents, x: Bundle, quotas, prefs) -> tuple[int, np.ndarray]:
        """The block of a problem with these fields and the full-space index of each of
        `prefs`; KeyError for a block or a preference outside the domain."""
        d = self.domain
        if (variant, quotas) != (d.variant, d.quotas):
            raise KeyError((variant, quotas))
        pi, xi = d.block_index[agents, x]
        at = {p: i for i, p in enumerate(d.prefs_at(x))}
        full = full_index(x, d.n_objects) if d.variant == "variable" else np.arange(len(at))
        return pi * len(d.available_sets) + xi, full[[at[p] for p in prefs]]

    @cached_property
    def _canonical_sets(self) -> dict[int, int]:
        """Per set size, the index of the first set of that size; ValueError where some size
        lacks sets, so that a relabeling moves a set outside the domain."""
        m, first = self.domain.n_objects, {}
        for xi, x in enumerate(self.xs):
            first.setdefault(bundle_size(x), xi)
        for size in first:
            if sum(bundle_size(x) == size for x in self.xs) != comb(m, size):
                raise ValueError(
                    f"the available sets of size {size} are not closed under object relabeling"
                )
        return first

    def back(self, xi: int) -> np.ndarray:
        """`canonical_relabelings(x, t)`'s BACK table: row r0 maps bundles within t, the first
        set of x's size, into x by the bijection that sends ranking r0 of x to t's ascending
        order."""
        x = self.xs[xi]
        return canonical_relabelings(x, self.xs[self._canonical_sets[bundle_size(x)]])[1]

    def orbits(self) -> tuple[np.ndarray, np.ndarray]:
        """Per key of a fixed-population domain, its orbit's representative (a key index) and
        the row r0 of its set's `back` table that relabels the representative onto it.

        The bijection is the one that sends the key's first ranking to the
        ascending order of t, the first set of its size, so the representatives
        are the keys at t whose first ranking ascends.
        """
        d, rep, row = self.domain, [], []
        for xi, x in enumerate(self.xs):
            size, ti = bundle_size(x), self._canonical_sets[bundle_size(x)]
            canon = canonical_relabelings(x, self.xs[ti])[0]
            width = size + 1 if d.variant == "unacceptable" else 1
            rank, cut = np.divmod(restriction_codes(d, x)[self.digits[xi]], width)
            image = canon[rank[:, :1], rank] * width + cut  # classes at t: their codes
            rep.append(self.offsets[ti] + image @ self._weights[ti])
            row.append(rank[:, 0])
        return np.concatenate(rep), np.concatenate(row)


class Sweep:
    """Evaluates a rule over a whole domain once, block by block.

    A block is one (population, available set), keyed by their indexes into
    the domain; `blocks()` yields the keys in `ProblemDomain.problems()` order.
    At a block, preference indexes run over `prefs_at(key)` and a profile code
    is the base-P encoding of the per-agent indexes, slot 0 most significant.
    Each block keeps one uint8 array of rows, filled on first use by the
    rule's array engine, that the gather checkers read;
    witnesses decode their one failing row with `problem_at` and
    `allocation_at`. Checkers name blocks through one of two views of this
    store: `FixedSweep` by set, `VariableSweep` by (population, set). They reach
    another block's rows through `index`, the domain's keys with every row its
    own key, from full-space preference indexes (`full_digits`, `code`).
    """

    def __init__(self, rule: Rule, domain: ProblemDomain):
        self.rule = rule
        self.domain = domain
        self._grids: dict[tuple[int, int], np.ndarray] = {}
        self._digits: dict[tuple[int, int], np.ndarray] = {}  # by (P, n)

    def blocks(self) -> Iterable[tuple[int, int]]:
        return self.domain.block_index.values()

    def block(self, key: tuple[int, int]) -> tuple[tuple[Agent, ...], Bundle]:
        """The block's population and available set."""
        return self.domain.populations[key[0]], self.domain.available_sets[key[1]]

    def prefs_at(self, key: tuple[int, int]) -> tuple[Preference, ...]:
        return self.domain.prefs_at(self.domain.available_sets[key[1]])

    def digits_at(self, key: tuple[int, int]) -> np.ndarray:
        """(Pⁿ, n) preference index of each slot at each profile code of the block."""
        shape = (len(self.prefs_at(key)), len(self.domain.populations[key[0]]))
        if shape not in self._digits:
            self._digits[shape] = _digits(*shape)
        return self._digits[shape]

    def rows(self, key: tuple[int, int]) -> np.ndarray:
        """The block's allocations, uint8 (Pⁿ, n): row = profile code, column = slot."""
        if key not in self._grids:
            block = (*self.block(key), self.prefs_at(key), self.digits_at(key))
            self._grids[key] = _fill(self.rule, self.domain, *block)
        return self._grids[key]

    def problem_at(self, key: tuple[int, int], code: int) -> Problem:
        prefs, variant, quotas = self.prefs_at(key), self.domain.variant, self.domain.quotas
        profile = tuple(prefs[i] for i in self.digits_at(key)[code].tolist())
        return Problem(variant, *self.block(key), profile, quotas)

    def allocation_at(self, key: tuple[int, int], code: int) -> Allocation:
        """One row of rows(key) as an allocation of Python ints, for witnesses."""
        return tuple(self.rows(key)[code].tolist())

    @cached_property
    def index(self) -> ProblemKeys:
        return ProblemKeys(self.domain, rows=True)

    def full_digits(self, key: tuple[int, int], codes) -> np.ndarray:
        """The full-space preference indexes (`AxiomSpace.prefs`) of the block's profiles
        at `codes`: on a variable domain, each ranking of X followed by the objects outside X."""
        digits = self.digits_at(key)[codes]
        if self.domain.variant == "variable":
            digits = full_index(self.block(key)[1], self.domain.n_objects)[digits]
        return digits

    def code(self, key: tuple[int, int], digits: np.ndarray) -> np.ndarray:
        """The block's profile code of each profile of full-space preference indexes in
        `digits` (slots last)."""
        return self.index.code(key[0] * len(self.domain.available_sets) + key[1], digits)


class FixedSweep(Sweep):
    """The fixed-population view of a Sweep (fixed / quota / unacceptable): blocks are
    named by set index, and one preference space serves every set.

    A profile code thus means the same profile at every set, and a rule is run
    once per problem. A set's rows read as a (P,)*n + (n,) grid, so the codes
    that differ only in one slot's digit (a context) form one axis of it: the
    deviation scans (`packed.scan`) pack the bundles a context's reports reach
    once, a restriction-invariant rule's one report per restriction class
    (`_misreport_targets`).
    """

    def __init__(self, rule: Rule, domain: ProblemDomain):
        super().__init__(rule, domain)
        self.prefs = domain.preference_space()  # refuses variable domains
        self.agents = domain.populations[0]
        self.n = len(self.agents)
        self.P = len(self.prefs)
        self.xs = domain.available_sets
        # grids are filled in itertools.product order: slot 0 is the most significant digit
        self._pow = tuple(self.P ** (self.n - 1 - slot) for slot in range(self.n))

    # --- profile codes ---

    def codes(self) -> range:
        return range(self.P**self.n)

    def encode(self, idxs: Sequence[int]) -> int:
        code = 0
        for i in idxs:
            code = code * self.P + i
        return code

    def replace(self, code: int, slot: int, new_idx: int) -> int:
        step = self._pow[slot]
        old = code // step % self.P
        return code + (new_idx - old) * step

    def slot_index(self, code: int, slot: int) -> int:
        return code // self._pow[slot] % self.P

    def profile(self, code: int) -> tuple[Preference, ...]:
        return tuple(self.prefs[i] for i in self.digits[code].tolist())

    # --- blocks by set index ---

    def problem(self, x_idx: int, code: int) -> Problem:
        return self.problem_at((0, x_idx), code)

    def grid(self, x_idx: int) -> np.ndarray:
        return self.rows((0, x_idx))

    def allocation(self, x_idx: int, code: int) -> Allocation:
        return self.allocation_at((0, x_idx), code)

    @cached_property
    def digits(self) -> np.ndarray:
        """(Pⁿ, n) preference index of each slot at each profile code, at every set."""
        return self.digits_at((0, 0))


class VariableSweep(Sweep):
    """The variable-population view of a Sweep: blocks are named by (population,
    available set).

    At available set X every preference ranks exactly X, so preference indexes
    run over X's rankings and a profile code is the base-|X|! encoding of the
    per-agent indexes. A ranking of X is read in the full preference space as
    itself followed by the objects outside X (`full_index`).
    """

    def grid(self, pop: tuple[Agent, ...], x: Bundle) -> np.ndarray:
        return self.rows(self.domain.block_index[pop, x])


def _sweep(rule, domain, axiom: str | None = None, variants: tuple[str, ...] = ()) -> Sweep:
    """The rule's sweep over the domain, in its variant's view (a sweep is its own). Given
    an axiom, it first refuses a variant the axiom is not defined on (`require_variant`)."""
    if not isinstance(rule, Sweep):
        rule = (VariableSweep if domain.variant == "variable" else FixedSweep)(rule, domain)
    if axiom is not None:
        require_variant(axiom, rule.domain, variants)
    return rule


def _union(alloc: Allocation) -> Bundle:
    u = 0
    for b in alloc:
        u |= b
    return u


# ---------------------------------------------------------------------------
# Trade relation and efficiency
# ---------------------------------------------------------------------------


def _trade_cycle(profile: Sequence[Preference], alloc: Allocation) -> list[int] | None:
    """Cycle of objects in the trade relation, or None. DFS over held objects."""
    holder = {}
    for slot, b in enumerate(alloc):
        for o in objects_of(b):
            holder[o] = slot
    objs = list(holder)
    color = {o: 0 for o in objs}  # 0 new, 1 on stack, 2 done
    parent: dict[int, int | None] = {}

    for start in objs:
        if color[start]:
            continue
        stack = [(start, iter(objs))]
        color[start] = 1
        parent[start] = None
        while stack:
            x, it = stack[-1]
            pref = profile[holder[x]]
            advanced = False
            for y in it:
                if holder[y] == holder[x] or not pref.prefers(y, x):
                    continue
                if color[y] == 1:
                    cycle = [x]
                    while cycle[-1] != y:
                        cycle.append(parent[cycle[-1]])
                    return cycle[::-1]
                if color[y] == 0:
                    color[y] = 1
                    parent[y] = x
                    stack.append((y, iter(objs)))
                    advanced = True
                    break
            if not advanced:
                color[x] = 2
                stack.pop()
    return None


# ---------------------------------------------------------------------------
# Axiom definitions: each fixed-population axiom once, for every layer
# ---------------------------------------------------------------------------

FIXED_POPULATION = ("fixed", "quota", "unacceptable")
_EVERY_VARIANT = FIXED_POPULATION + ("variable",)


class AxiomSpace:
    """What the axiom definitions read about a domain's allocation rows.

    Allocation rows are read with per-slot preference indexes into `prefs`,
    the domain's preference space. `pairs` lists the ordered (envious, envied)
    slot pairs and, given a priority, `ranked` the pairs whose first slot has
    the higher priority, both in the order witnesses report them.

    The rows are those of one population, `agents`, which a domain of one
    population may leave out. `prefs` is every preference over all the
    domain's objects, so on a variable domain a ranking of an available set X
    is read as itself followed by the objects outside X (see `full_index`),
    which compares bundles within X exactly as it does.
    """

    def __init__(
        self,
        domain: ProblemDomain,
        priority: Priority | None = None,
        agents: tuple[Agent, ...] | None = None,
    ):
        if domain.n_objects > MAX_ROW_OBJECTS:
            raise ValueError(f"allocation rows hold bundles of at most {MAX_ROW_OBJECTS} objects")
        if agents is None and len(domain.populations) > 1:
            raise ValueError("agents are given where the domain has several populations")
        self.variant = domain.variant
        self.n_objects = domain.n_objects
        self.quotas = domain.quotas
        self.prefs = preference_space(domain.n_objects, cutoffs=domain.variant == "unacceptable")
        agents = domain.populations[0] if agents is None else agents
        self.n = len(agents)
        self.pairs = [(a, b) for a in range(self.n) for b in range(self.n) if a != b]
        if priority is not None:
            pos = [priority.index(a) for a in agents]
            self.order = sorted(range(self.n), key=pos.__getitem__)
            self.ranked = [(a, b) for a, b in self.pairs if pos[a] < pos[b]]

    @cached_property
    def index(self) -> dict[Preference, int]:
        return {p: i for i, p in enumerate(self.prefs)}

    @cached_property
    def acceptable(self) -> np.ndarray:
        return np.array([p.acceptable for p in self.prefs], dtype=np.uint8)

    def _quota(self, slot: int | None):
        return None if slot is None or self.quotas is None else self.quotas[slot]

    def relation(self, slot: int | None = None) -> np.ndarray:
        """DOM[pref, s, t] under the slot's quota; no slot reads no quota."""
        return relation_table(self.n_objects, self.variant == "unacceptable", self._quota(slot))

    def failing(self, name: str, slot: int | None = None) -> np.ndarray:
        """BAD of DEVIATIONS[name] on `relation(slot)` (`packed.failing_sets`)."""
        cutoffs, ok = self.variant == "unacceptable", DEVIATIONS[name]
        return failing_sets(ok, self.n_objects, cutoffs, self._quota(slot), _WORD_BITS)


# --- deviation relations: (table, preference index, own bundle, other bundle) ---


def sp_ok(dom, d, own, other):
    """SP, and RM, TP, EP and the MSP certificate: under preference d, own weakly dominates other.

    The deviation scans read this and `wsp_ok` packed, as the sets of bundles `other` that
    fail at each (d, own) (`AxiomSpace.failing`), and judge one failing row through them."""
    return dom[d, own, other]


def wsp_ok(dom, d, own, other):
    """WSP: under preference d, other does not strictly dominate own."""
    return dom[d, own, other] | ~dom[d, other, own]


def ti_ok(acc, d, own, other):
    """TI: reporting the truncation d keeps own, unless d makes part of own unacceptable."""
    return (own & ~acc[d] != 0) | (own == other)


DEVIATIONS: dict[str, Callable] = {"SP": sp_ok, "WSP": wsp_ok, "RM": sp_ok, "TI": ti_ok}


# --- unary axioms: one allocation at one problem -----------------------------

_BLOCK = 1 << 15  # cells per step of a block scan; bounds its temporaries


@dataclass(frozen=True)
class UnaryAxiom:
    """An axiom judged on one allocation at one problem.

    `ok(space, x, allocs, digits)` judges a block of rows at available set x:
    `allocs` is uint8 (R, n), `digits` the (R, n) preference indexes. It
    returns bool (R, K), one column per check the axiom makes at a problem
    (one, or one per slot or slot pair), all of which must hold.
    `detail(space, problem, alloc, k)` gives the extra witness fields of a
    failing allocation whose first failing column is k.

    `reads(space)` declares, per column, the one slot whose preference that
    column reads, or None where it reads no preference; an entry without it
    reads the whole profile. `csp.admitted` judges declared columns once per
    (preference at the slot, allocation) and relies on the declaration.
    """

    ok: Callable
    detail: Callable
    variants: tuple[str, ...] = FIXED_POPULATION
    ranked: bool = False  # reads the priority; reports are named like "RP-[1, 2]"
    reads: Callable | None = None


def _union_rows(allocs: np.ndarray) -> np.ndarray:
    return np.bitwise_or.reduce(allocs, axis=1)


def _per_pair(pairs, rows: int, test) -> np.ndarray:
    out = np.ones((rows, len(pairs)), dtype=bool)
    for k, (a, b) in enumerate(pairs):
        out[:, k] = test(a, b)
    return out


def _nw_ok(space, x, allocs, digits):
    return (_union_rows(allocs) == x)[:, None]


def _nw_detail(space, prob, alloc, k):
    return {"unassigned": format_bundle(prob.available & ~_union(alloc))}


def _nwq_target(space, x) -> int:
    return min(bundle_size(x), sum(space.quotas))


def _nwq_ok(space, x, allocs, digits):
    return (np.bitwise_count(_union_rows(allocs)) == _nwq_target(space, x))[:, None]


def _nwq_detail(space, prob, alloc, k):
    return {"assigned": bundle_size(_union(alloc)), "target": _nwq_target(space, prob.available)}


def _nw_star_ok(space, x, allocs, digits):
    wanted = np.bitwise_or.reduce(space.acceptable[digits], axis=1)
    return (wanted & x & ~_union_rows(allocs) == 0)[:, None]


def _nw_star_detail(space, prob, alloc, k):
    wanted = _union(tuple(p.acceptable for p in prob.profile))
    return {"unassigned": format_bundle(wanted & prob.available & ~_union(alloc))}


def _ir_ok(space, x, allocs, digits):
    return allocs & ~space.acceptable[digits] == 0


def _ir_detail(space, prob, alloc, k):
    bad = alloc[k] & ~prob.profile[k].acceptable
    return {"agent": prob.agents[k], "unacceptable": format_bundle(bad)}


def _wrp_ok(space, x, allocs, digits):
    size = np.bitwise_count(allocs)
    return _per_pair(space.ranked, len(allocs), lambda i, j: size[:, i] >= size[:, j])


def _wrp_detail(space, prob, alloc, k):
    return {"sizes": [bundle_size(alloc[i]) for i in space.order]}


def _wrp_star_ok(space, x, allocs, digits):
    acc = space.acceptable[digits]

    def test(i, j):
        own, other = allocs[:, i] & acc[:, i], allocs[:, j] & acc[:, i]
        return np.bitwise_count(own) >= np.bitwise_count(other)

    return _per_pair(space.ranked, len(allocs), test)


def _wrpq_ok(space, x, allocs, digits):
    size = np.bitwise_count(allocs)

    def test(i, j):
        return (size[:, i] == space.quotas[i]) | (size[:, i] >= size[:, j])

    return _per_pair(space.ranked, len(allocs), test)


def _ranked_detail(space, prob, alloc, k):
    i, j = space.ranked[k]
    return {"higher": prob.agents[i], "lower": prob.agents[j]}


def _envy(ef1: bool, ranked: bool, variants=FIXED_POPULATION) -> UnaryAxiom:
    """EF, EF1 or RP: the first agent of each pair passes DOM against the second (under EF1,
    against the second's bundle less its best acceptable object, read from `pick_table`)."""

    def pairs(space):
        return space.ranked if ranked else space.pairs

    def ok(space, x, allocs, digits):
        tables = [space.relation(a) for a in range(space.n)]
        top = pick_table(space.prefs) if ef1 else None

        def passes(a, b):
            d, other = digits[:, a], allocs[:, b]
            return tables[a][d, allocs[:, a], other ^ top[d, other] if ef1 else other]

        return _per_pair(pairs(space), len(allocs), passes)

    def detail(space, prob, alloc, k):
        a, b = pairs(space)[k]
        return {"envious": prob.agents[a], "envied": prob.agents[b]}

    return UnaryAxiom(ok, detail, variants, ranked, lambda sp: tuple(a for a, _ in pairs(sp)))


@lru_cache(maxsize=None)
def _better_table(n_objects: int, cutoffs: bool) -> np.ndarray:
    """BETTER[pref, o]: the objects that preference_space(n_objects, cutoffs)[pref]
    ranks above o."""
    prefs = preference_space(n_objects, cutoffs)
    table = np.array(
        [[bundle_of(p.ranking[: p.rank[o]]) for o in range(n_objects)] for p in prefs],
        dtype=np.uint8,
    ).reshape(len(prefs), n_objects)
    table.flags.writeable = False
    return table


def _rt_ok(space, x, allocs, digits):
    """No held object reaches itself in the trade relation, where o leads to y when y is
    held by someone other than o's holder and o's holder ranks y above o.

    Warshall's closure over per-row reach masks, in steps of rows.
    """
    m = space.n_objects
    better = _better_table(m, space.variant == "unacceptable")
    bits = np.arange(m, dtype=np.uint8)
    free = np.empty((len(allocs), 1), dtype=bool)
    step = max(1, _BLOCK // MAX_ROW_OBJECTS)  # rows, so reach holds at most _BLOCK cells
    for lo in range(0, len(allocs), step):
        rows, ds = allocs[lo : lo + step], digits[lo : lo + step]
        held = _union_rows(rows)
        reach = np.zeros((len(rows), m), dtype=np.uint8)  # reach[r, o]: where o leads
        for slot in range(space.n):
            own = rows[:, slot]
            wanted = better[ds[:, slot]] & (held & ~own)[:, None]
            reach |= (own[:, None] >> bits & 1) * wanted
        for k in range(m):
            reach |= (reach >> k & 1) * reach[:, k, None]
        free[lo : lo + step, 0] = ~(reach >> bits & 1).any(axis=1)
    return free


def _rt_detail(space, prob, alloc, k):
    return {"cycle": [OBJECT_NAMES[o] for o in _trade_cycle(prob.profile, alloc)]}


# Table order is evaluation order where several apply.
UNARY: dict[str, UnaryAxiom] = {
    "NW": UnaryAxiom(_nw_ok, _nw_detail, _EVERY_VARIANT, reads=lambda sp: (None,)),
    "NWq": UnaryAxiom(_nwq_ok, _nwq_detail, ("quota",), reads=lambda sp: (None,)),
    "NW*": UnaryAxiom(_nw_star_ok, _nw_star_detail),
    "IR": UnaryAxiom(_ir_ok, _ir_detail, reads=lambda sp: tuple(range(sp.n))),
    "WRP": UnaryAxiom(
        _wrp_ok, _wrp_detail, ranked=True, reads=lambda sp: (None,) * len(sp.ranked)
    ),
    "WRP*": UnaryAxiom(
        _wrp_star_ok, _ranked_detail, ranked=True, reads=lambda sp: tuple(i for i, _ in sp.ranked)
    ),
    "WRPq": UnaryAxiom(
        _wrpq_ok, _ranked_detail, ("quota",), ranked=True, reads=lambda sp: (None,) * len(sp.ranked)
    ),
    "EF": _envy(ef1=False, ranked=False),
    "EF1": _envy(ef1=True, ranked=False, variants=_EVERY_VARIANT),
    "RP": _envy(ef1=False, ranked=True),
    "RT": UnaryAxiom(_rt_ok, _rt_detail),
}


def efficiency_parts(variant: str) -> tuple[str, ...]:
    """EFF as its decomposition: NW + RT, or IR + NW* + RT with unacceptable objects."""
    return ("IR", "NW*", "RT") if variant == "unacceptable" else ("NW", "RT")


AXIOM_VARIANTS: dict[str, tuple[str, ...]] = {
    **{name: entry.variants for name, entry in UNARY.items()},
    "EFF": _EVERY_VARIANT,  # check_eff on a fixed population, check_eff_var on variable ones
    "SP": FIXED_POPULATION,
    "WSP": FIXED_POPULATION,
    "RM": FIXED_POPULATION,
    "TP": ("unacceptable",),
    "EP": ("unacceptable",),
    "TI": ("unacceptable",),
    **dict.fromkeys(("RM+", "CON", "2-CON", "T-CON", "NEU", "2-NEU"), ("variable",)),
}


def require_variant(name: str, domain: ProblemDomain, variants: tuple[str, ...] = ()) -> None:
    """Refuse an axiom on a domain variant it is not defined on (by AXIOM_VARIANTS, unless
    its variants are given)."""
    if domain.variant not in (variants or AXIOM_VARIANTS[name]):
        raise ValueError(f"axiom {name!r} is not defined on {domain.variant!r} domains")


def unary_entries(names, variant: str) -> list[UnaryAxiom]:
    """The named unary entries in table order; EFF stands for its parts, other names are
    skipped."""
    names = set(names)
    if "EFF" in names:
        names.update(efficiency_parts(variant))
    return [entry for name, entry in UNARY.items() if name in names]


def admissible(space: AxiomSpace, x: Bundle, allocs, digits, names) -> np.ndarray:
    """Which rows pass every named unary axiom (see `unary_entries`).

    Entries run in table order, each only on the rows still alive.
    """
    alive = np.ones(len(allocs), dtype=bool)
    for entry in unary_entries(names, space.variant):
        rows = np.flatnonzero(alive)
        alive[rows] = entry.ok(space, x, allocs[rows], digits[rows]).all(axis=1)
    return alive


# ---------------------------------------------------------------------------
# First-violation scans over a FixedSweep
# ---------------------------------------------------------------------------

def _first_violation(bad: np.ndarray):
    """First True cell of `bad` in row-major order, and the checks made up to it: (index
    tuple or None, checks), where every cell is a check, up to and including the violation
    or over the whole block."""
    flat = bad.reshape(-1)
    at = int(flat.argmax()) if flat.size else 0
    if flat.size and flat[at]:
        return tuple(int(i) for i in np.unravel_index(at, bad.shape)), at + 1
    return None, flat.size


def _first_move(sw: Sweep, name: str, scans_of, holds, witness_of) -> AxiomReport:
    """First failing (problem, move), in enumeration order, as a report.

    Blocks go in order, and `scans_of(key)` lists the block's scans, each a
    list of moves tried code-major: every move at a code, in order, before the
    next code. `holds(key, move, digits, rows)` judges a step of the block's
    rows, given with their full-space digits, as bool (len(rows), k); a move
    fails at a row where a column is False, and each (code, move) is one
    check. `witness_of(key, code, move)` describes the first failure.
    """
    checked = 0
    for key in sw.blocks():
        total, n = sw.digits_at(key).shape
        for moves in scans_of(key):
            step = max(1, _BLOCK // max(1, len(moves) * n))  # (codes, n) arrays of _BLOCK cells
            for lo in range(0, total if moves else 0, step):
                codes = slice(lo, min(lo + step, total))
                d, rows = sw.full_digits(key, codes), sw.rows(key)[codes]
                # columns first: numpy's all(axis=1) over a few columns is ten times slower
                ok = [np.ascontiguousarray(holds(key, move, d, rows).T) for move in moves]
                bad = ~np.stack([np.logical_and.reduce(columns) for columns in ok], axis=1)
                hit, checks = _first_violation(bad)
                checked += checks
                if hit is not None:
                    return _violated(name, checked, witness_of(key, lo + hit[0], moves[hit[1]]))
    return _holds(name, checked)


_WORD_BITS = 64  # bundles per int64 word of a packed set (`packed`): 2^m / 64 words past 6


def _failing_report(sw: FixedSweep, xi: int, code: int, slot: int, targets, counted, ok, admit=None):
    """The first report, in target order, that fails at (code, slot) of set xi, and the
    checks up to it: the row judged through DEVIATIONS, as `_check_deviation` describes."""
    d, grid = sw.slot_index(code, slot), sw.grid(xi)
    alt, valid = targets[d], counted[d]
    own, other = grid[code, slot], grid[code + (alt - d) * sw._pow[slot], slot]
    if admit is not None:
        valid = valid & admit(own, alt)
    bad = valid & ~ok(slot, d, alt, own, other)
    k = int(bad.argmax())
    if not bad[k]:
        raise RuntimeError(
            f"rule {sw.rule.name!r} is declared restriction-invariant but is not: a report of "
            "the truth's own restriction class changes its bundle"
        )
    return int(alt[k]), int(np.count_nonzero(valid[: k + 1]))


# ---------------------------------------------------------------------------
# The unary scan (every variant) and the fixed-family checkers
# ---------------------------------------------------------------------------


def _check_unary(
    name: str, rule, domain, priority: Priority | None = None, entry: UnaryAxiom | None = None
) -> AxiomReport:
    """First problem, in enumeration order, whose allocation fails a unary axiom: one move
    of `_first_move` per problem. `entry` stands in for UNARY[name] where given."""
    entry = entry or UNARY[name]
    sw = _sweep(rule, domain, name, entry.variants)
    spaces = {pop: AxiomSpace(sw.domain, priority, pop) for pop in sw.domain.populations}

    def holds(key, _, d, rows):
        return entry.ok(spaces[sw.block(key)[0]], sw.block(key)[1], rows, d)

    def witness(key, code, _):
        prob, alloc = sw.problem_at(key, code), sw.allocation_at(key, code)
        d, rows = sw.full_digits(key, [code]), sw.rows(key)[[code]]
        k = int(holds(key, None, d, rows)[0].argmin())  # the first check it fails
        out = {"problem": describe_problem(prob), "allocation": describe_allocation(prob, alloc)}
        return out | entry.detail(spaces[sw.block(key)[0]], prob, alloc, k)

    label = f"{name}-{list(priority)}" if entry.ranked else name
    return _first_move(sw, label, lambda key: [[entry]], holds, witness)


def check_nw(rule, domain) -> AxiomReport:
    """Non-wastefulness: every available object is assigned."""
    return _check_unary("NW", rule, domain)


def check_ef(rule, domain) -> AxiomReport:
    """Envy-freeness: everyone weakly prefers her own bundle to anyone else's."""
    return _check_unary("EF", rule, domain)


def check_ef1(rule, domain) -> AxiomReport:
    """Envy bounded by one object: some |S| <= 1 removal from the envied bundle kills the envy."""
    return _check_unary("EF1", rule, domain)


def check_rp(rule, domain, priority: Priority) -> AxiomReport:
    """Respect for the priority: nobody envies an agent with lower priority."""
    return _check_unary("RP", rule, domain, priority)


def check_wrp(rule, domain, priority: Priority) -> AxiomReport:
    """Weak respect for the priority: bundle sizes never grow along the priority order."""
    return _check_unary("WRP", rule, domain, priority)


def check_wrp_any(rule, domain, star: bool = False) -> AxiomReport:
    """Existential form: some priority is (weakly) respected; used for independence checks."""
    failures = {}
    for pi in all_priorities(domain.populations[0]):
        rep = (check_wrp_star if star else check_wrp)(rule, domain, pi)
        if rep.holds:
            return _holds(rep.axiom, rep.checked, note=f"respected priority {list(pi)}")
        failures[str(list(pi))] = rep.witness
    return _violated("WRP*" if star else "WRP", 0, {"per_priority": failures})


def check_rt(rule, domain) -> AxiomReport:
    """Robustness against trades: the trade relation is acyclic at every problem."""
    return _check_unary("RT", rule, domain)


def check_ir(rule, domain) -> AxiomReport:
    """Individual rationality: nobody receives an object she finds unacceptable."""
    return _check_unary("IR", rule, domain)


def check_nw_star(rule, domain) -> AxiomReport:
    """Non-wastefulness with unacceptable objects: everything acceptable to someone is assigned."""
    return _check_unary("NW*", rule, domain)


def check_wrp_star(rule, domain, priority: Priority) -> AxiomReport:
    """Weak priority respect counted in each agent's own acceptable objects (both sides)."""
    return _check_unary("WRP*", rule, domain, priority)


def check_eff(rule, domain) -> AxiomReport:
    """Efficiency via its two-way decomposition: NW+RT, or IR+NW*+RT with unacceptable objects."""
    sw = _sweep(rule, domain, "EFF", FIXED_POPULATION)
    name = "EFF*" if sw.domain.variant == "unacceptable" else "EFF"
    checked = 0
    for part in efficiency_parts(sw.domain.variant):
        rep = _check_unary(part, sw, sw.domain)
        checked = max(checked, rep.checked)
        if not rep.holds:
            return _violated(name, rep.checked, rep.witness, note=f"fails {rep.axiom}")
    return _holds(name, checked)


def _check_rm(sw: Sweep, name: str, groups_of: Callable, small_allocation=False) -> AxiomReport:
    """First agent, in enumeration order, whose bundle at a problem does not weakly dominate
    her bundle at a smaller available set, every preference restricted to it.

    `groups_of(x)` lists the smaller sets of set x in groups, each one scan of
    `_first_move`, and the key index finds the smaller problem's row. With
    `small_allocation` the witness also describes the smaller allocation."""
    ok, relations = DEVIATIONS["RM"], {}
    for pop in sw.domain.populations:  # every slot's DOM in one table, slot i from row i·P on
        tables = [AxiomSpace(sw.domain, None, pop).relation(i) for i in range(len(pop))]
        relations[pop] = np.concatenate(tables), len(tables[0]) * np.arange(len(pop))

    def dominates(key, small, d, rows):  # per row and slot
        (table, first), other = relations[sw.block(key)[0]], sw.rows(small)
        return ok(table, first + d, rows, np.take(other, sw.code(small, d), axis=0))

    def groups(key):  # the smaller sets' blocks
        pop, x = sw.block(key)
        return [[sw.domain.block_index[pop, y] for y in group] for group in groups_of(x)]

    def witness(key, code, small):
        d, pop = sw.full_digits(key, [code]), sw.block(key)[0]
        i = int(dominates(key, small, d, sw.rows(key)[[code]])[0].argmin())  # the first agent
        small_code = int(sw.code(small, d)[0])
        got = sw.allocation_at(small, small_code)
        out = {
            "problem": describe_problem(sw.problem_at(key, code)),
            "smaller_set": format_bundle(sw.block(small)[1]),
            "agent": pop[i],
            "bundle_large": format_bundle(sw.allocation_at(key, code)[i]),
            "bundle_small": format_bundle(got[i]),
        }
        if small_allocation:
            out["allocation_small"] = describe_allocation(sw.problem_at(small, small_code), got)
        return out

    return _first_move(sw, name, groups, dominates, witness)


def check_rm(rule, domain) -> AxiomReport:
    """Resource monotonicity: growing the available set weakly improves every agent. Each
    smaller set is a group of its own, in domain order: the scan goes pair by pair."""
    sw = _sweep(rule, domain, "RM")
    return _check_rm(
        sw, "RM", lambda x: [[y] for y in sw.xs if y != x and y & x == y], small_allocation=True
    )


def _misreport_targets(sw: FixedSweep, xi: int):
    """Misreports to check on set xi, as (targets, counted) tables over truthful indexes.

    A restriction-invariant rule sees only a report's restriction to the set,
    so one report per restriction class is enough, minus the truth's own
    class; any other rule is checked against every other report.
    """
    invariant = sw.rule.restriction_invariant
    key = restriction_reps(sw.domain, sw.xs[xi]) if invariant else np.arange(sw.P)
    reps = np.flatnonzero(key == np.arange(sw.P))  # each class's rep is its first index
    return np.broadcast_to(reps, (sw.P, len(reps))), reps[None, :] != key[:, None]


def check_sp(rule, domain) -> AxiomReport:
    """Strategy-proofness: the truthful bundle weakly dominates every misreport bundle."""
    return _check_sp_like(rule, domain, "SP")


def check_wsp(rule, domain) -> AxiomReport:
    """Weak strategy-proofness: no misreport bundle strictly dominates the truthful one."""
    return _check_sp_like(rule, domain, "WSP")


def _check_sp_like(rule, domain, name: str) -> AxiomReport:
    sw = _sweep(rule, domain, name)
    space, rel = AxiomSpace(sw.domain), DEVIATIONS[name]
    one = bundle_bits(sw.domain.n_objects, _WORD_BITS)
    tables = [space.failing(name, s) for s in range(sw.n)]

    def judge_of(xi):
        targets, counted = _misreport_targets(sw, xi)
        return misreport_judge(sw.grid(xi), sw.P, one, tables, targets[0], counted.sum(1), _BLOCK)

    def ok(slot, d, alt, own, other):
        return rel(space.relation(slot), d, own, other)

    fields = ("misreport", "truthful_bundle", "misreport_bundle")
    return _check_deviation(sw, name, judge_of, lambda xi: _misreport_targets(sw, xi), ok, fields)


def _check_deviation(sw: FixedSweep, name: str, judge_of, targets_of, ok, fields, admit=None):
    """First single-agent report change, in enumeration order, that `ok` rejects.

    The agent with truthful index d reports each of targets[d] (`targets_of(xi)`
    gives (targets, counted) tables over d); a report is a check where
    counted[d] holds and, if given, admit(own, alt) does, and fails where
    ok(slot, d, alt, own, other) does not hold for the truthful and the report's
    bundle. Each set is scanned by `packed.scan` with `judge_of(xi)`, which
    judges every (code, slot) at once from packed bundle sets and counts its
    checks; steps hold whole first digits, with cutoffs whole first rankings,
    so that TP, EP and TI see every cutoff. Only the first failing (code,
    slot) is judged again report by report, for the witness and its checks.
    `fields` names the witness's report, truthful bundle and report bundle.
    """
    cutoffs = sw.domain.n_objects + 1 if sw.domain.variant == "unacceptable" else 1
    checked, group = 0, cutoffs * sw.P ** (sw.n - 1)
    for xi in range(len(sw.xs)):
        hit, checks = scan(sw.grid(xi), sw.P, group, judge_of(xi), _BLOCK)
        checked += checks
        if hit is not None:
            code, slot = hit
            alt, checks = _failing_report(sw, xi, code, slot, *targets_of(xi), ok, admit)
            report, before, after = fields
            return _violated(
                name,
                checked + checks,
                {
                    "problem": describe_problem(sw.problem(xi, code)),
                    "agent": sw.agents[slot],
                    report: format_pref(sw.prefs[alt]),
                    before: format_bundle(sw.allocation(xi, code)[slot]),
                    after: format_bundle(sw.allocation(xi, sw.replace(code, slot, alt))[slot]),
                },
            )
    return _holds(name, checked)


def check_msp_certificate(rule, domain) -> AxiomReport:
    """Sufficient maxmin-strategy-proofness certificate.

    (a) against a unanimous adversary (everyone reports the agent's truth),
    truth weakly dominates every misreport; (b) against every adversary
    profile, truth weakly dominates its unanimous-adversary bundle. Together
    these make the truthful worst case both attained at the unanimous profile
    and maximal, for every utility consistent with the ranking.

    Both clauses read SP's BAD without quotas. Clause (a) packs each slot's
    misreport bundles at the unanimous contexts only and judges its first
    failing (truth, slot) again one misreport at a time, as `_check_deviation`
    does; clause (b) scans every cell against its truth's unanimous bundle.
    """
    sw = _sweep(rule, domain, "MSP-certificate", FIXED_POPULATION)
    space = AxiomSpace(sw.domain)
    dom, table = space.relation(), space.failing("SP")
    one = bundle_bits(sw.domain.n_objects, _WORD_BITS)
    unanimous = np.arange(sw.P) * sum(sw._pow)  # code of the profile where all report idx

    def ok(slot, d, alt, own, other):
        return sp_ok(dom, d, own, other)

    checked = 0
    for xi in range(len(sw.xs)):
        targets, counted = _misreport_targets(sw, xi)
        allocs, checks = sw.grid(xi), counted.sum(axis=1)
        hit, _ = _first_violation(unanimous_failures(allocs, sw.P, one, table, targets[0], _BLOCK))
        if hit is not None:
            d, slot = hit
            alt, row = _failing_report(sw, xi, int(unanimous[d]), slot, targets, counted, ok)
            return AxiomReport(
                "MSP-certificate",
                "violated",
                {
                    "clause": "a",
                    "problem": describe_problem(sw.problem(xi, int(unanimous[d]))),
                    "agent": sw.agents[slot],
                    "misreport": format_pref(sw.prefs[alt]),
                },
                checked + int(checks[:d].sum()) * sw.n + int(checks[d]) * slot + row,
            )
        checked += int(checks.sum()) * sw.n
        # clause (b): adversaries range over everything, truth fixed
        judge = unanimous_judge(allocs, sw.P, one, table)
        hit, checks = scan(allocs, sw.P, sw.P ** (sw.n - 1), judge, _BLOCK)
        checked += checks
        if hit is not None:
            code, slot = hit
            checked += 1  # the failing cell
            unanimous_code = int(unanimous[sw.slot_index(code, slot)])
            return AxiomReport(
                "MSP-certificate",
                "violated",
                {
                    "clause": "b",
                    "problem": describe_problem(sw.problem(xi, code)),
                    "agent": sw.agents[slot],
                    "unanimous_bundle": format_bundle(sw.allocation(xi, unanimous_code)[slot]),
                    "bundle": format_bundle(sw.allocation(xi, code)[slot]),
                },
                checked,
            )
    return AxiomReport("MSP-certificate", "proved", None, checked)


def _adversary_bundles(sw: FixedSweep, xi: int, slot: int) -> np.ndarray:
    """uint8 (P, A): per report index of the slot, its bundles against every adversary
    profile of set xi, adversaries in enumeration order."""
    adversaries = np.flatnonzero(sw.digits[:, slot] == 0)
    codes = adversaries + np.arange(sw.P)[:, None] * sw._pow[slot]
    return sw.grid(xi)[codes, slot]


def _utility_codes(prefs, schemes: Sequence[WeightScheme], n_objects: int):
    """UTIL[s, p, b], the additive utility of bundle b under prefs[p] and schemes[s], coded
    as its rank among scheme s's distinct values; and per scheme those values in rank order.

    Codes compare exactly as the `Fraction`s they stand for, within one scheme.
    """
    bundles = range(1 << n_objects)
    util = np.empty((len(schemes), len(prefs), len(bundles)), dtype=np.intp)
    values = []
    for s, scheme in enumerate(schemes):
        table = [[additive_utility(p, scheme, b) for b in bundles] for p in prefs]
        distinct = sorted(set(chain.from_iterable(table)))
        rank = {v: i for i, v in enumerate(distinct)}
        util[s] = [[rank[v] for v in row] for row in table]
        values.append(distinct)
    return util, values


def _truth_steps(sw: FixedSweep, cells_per_truth: int):
    """Truthful preference indexes in order, in slices of `_BLOCK` cells' worth."""
    step = max(1, _BLOCK // max(1, cells_per_truth))
    truths = np.arange(sw.P)
    return [truths[lo : lo + step] for lo in range(0, sw.P, step)]


def check_msp_falsify(rule, domain, schemes: Sequence[WeightScheme]) -> AxiomReport:
    """Sound maxmin falsifier: truth must attain the maxmin utility under every given scheme.

    One check per (set, slot, truth, scheme), in that order: each report's
    worst case is its least utility over the adversary profiles, and truth
    fails where some report's worst case is higher than its own.
    """
    sw = _sweep(rule, domain, "MSP-falsifier", FIXED_POPULATION)
    util, values = _utility_codes(sw.prefs, schemes, sw.domain.n_objects)
    checked = 0
    for xi in range(len(sw.xs)):
        for slot in range(sw.n):
            bundles = _adversary_bundles(sw, xi, slot)
            for truths in _truth_steps(sw, len(schemes) * bundles.size):
                worst = util[:, truths][:, :, bundles].min(axis=-1)  # (scheme, truth, report)
                own = worst[:, np.arange(len(truths)), truths]
                maxmin = worst.max(axis=-1)
                hit, checks = _first_violation((own < maxmin).T)
                checked += checks
                if hit is not None:
                    i, s = hit
                    better = int(worst[s, i].argmax())
                    return AxiomReport(
                        "MSP-falsifier",
                        "refuted",
                        {
                            "available": format_bundle(sw.xs[xi]),
                            "agent": sw.agents[slot],
                            "truth": format_pref(sw.prefs[truths[i]]),
                            "scheme": schemes[s].name,
                            "better_report": format_pref(sw.prefs[better]),
                            "maxmin": str(values[s][maxmin[s, i]]),
                            "truthful_min": str(values[s][own[s, i]]),
                        },
                        checked,
                    )
    return AxiomReport(
        "MSP-falsifier", "holds", None, checked, note="no falsification under given schemes"
    )


def check_msp(rule, domain, schemes: Sequence[WeightScheme]) -> AxiomReport:
    """Three-valued maxmin strategy-proofness: certificate proves, falsifier refutes."""
    cert = check_msp_certificate(rule, domain)
    if cert.verdict == "proved":
        return AxiomReport("MSP", "proved", None, cert.checked)
    fals = check_msp_falsify(rule, domain, schemes)
    if fals.verdict == "refuted":
        return AxiomReport("MSP", "refuted", fals.witness, fals.checked)
    return AxiomReport(
        "MSP",
        "undecided",
        cert.witness,
        cert.checked + fals.checked,
        note="certificate failed but no scheme falsified truth-telling",
    )


def check_truthful_best_case(rule, domain, schemes: Sequence[WeightScheme]) -> AxiomReport:
    """Best case over adversaries of truthful play equals the utility of the k best objects.

    One check per (set, slot, truth, scheme), in that order; a truth whose
    bundle size varies with the adversaries fails before its schemes are checked.
    """
    sw = _sweep(rule, domain, "best-case-top-k", FIXED_POPULATION)
    util, values = _utility_codes(sw.prefs, schemes, sw.domain.n_objects)
    checked = 0
    for xi, x in enumerate(sw.xs):
        for slot in range(sw.n):
            bundles = _adversary_bundles(sw, xi, slot)
            sizes = np.bitwise_count(bundles)
            for truths in _truth_steps(sw, len(schemes) * bundles.shape[1]):
                own = bundles[truths]
                varies = (sizes[truths] != sizes[truths, :1]).any(axis=1)
                k = np.minimum(sizes[truths, 0], bundle_size(x)).tolist()
                best = [top_k(sw.prefs[t], x, kt) for t, kt in zip(truths.tolist(), k)]
                got = util[:, truths[:, None], own].max(axis=-1)  # (scheme, truth)
                target = util[:, truths, best]
                bad = (got != target).T
                failing = varies | bad.any(axis=1)
                if not failing.any():
                    checked += bad.size
                    continue
                i = int(failing.argmax())
                checked += i * len(schemes)
                witness = {"available": format_bundle(x), "agent": sw.agents[slot]}
                if varies[i]:
                    witness["note"] = "bundle size varies with adversaries"
                    return _violated("best-case-top-k", checked, witness)
                s = int(bad[i].argmax())
                witness |= {
                    "truth": format_pref(sw.prefs[truths[i]]),
                    "scheme": schemes[s].name,
                    "best_bundle_utility": str(values[s][got[s, i]]),
                    "top_k_utility": str(values[s][target[s, i]]),
                }
                return _violated("best-case-top-k", checked + s + 1, witness)
    return _holds("best-case-top-k", checked)


# --- truncations / extensions -------------------------------------------------


@lru_cache(maxsize=None)
def _change_targets(m: int, pick: int) -> tuple[np.ndarray, np.ndarray]:
    """Per index of `preference_space(m, cutoffs=True)`, its truncations (pick 0: the ranking
    at a smaller cutoff) or extensions (pick 1: at a larger one) in index order, as padded
    (targets, counted) arrays; a pad repeats the index. A ranking's m + 1 cutoffs have
    consecutive indexes."""
    i = np.arange(factorial(m) * (m + 1))[:, None]
    cutoff, k = i % (m + 1), np.arange(max(1, m))
    to = k if pick == 0 else cutoff + 1 + k  # the cutoff each column moves to
    counted = to < cutoff if pick == 0 else to <= m
    return np.where(counted, i - cutoff + to, i), counted


def _check_report_change(rule, domain, kind: str) -> AxiomReport:
    """Shared sweep for truncation-proofness (TP) and extension-proofness (EP): per ranking,
    the bundles of its smaller (TP) or larger (EP) cutoffs against SP's BAD."""
    sw = _sweep(rule, domain, kind)
    m, pick = sw.domain.n_objects, 0 if kind == "TP" else 1
    change, space = _change_targets(m, pick), AxiomSpace(sw.domain)
    dom = space.relation()
    judge = change_judge(bundle_bits(m, _WORD_BITS), space.failing("SP"), change[1].sum(1), pick)

    def ok(slot, d, alt, own, other):
        return sp_ok(dom, d, own, other)

    fields = ("report", "truthful_bundle", "report_bundle")
    return _check_deviation(sw, kind, lambda xi: judge, lambda xi: change, ok, fields)


def check_tp(rule, domain) -> AxiomReport:
    """Truncation-proofness: no truncation of the truth ever strictly helps."""
    return _check_report_change(rule, domain, "TP")


def check_ep(rule, domain) -> AxiomReport:
    """Extension-proofness: no extension of the truth ever strictly helps."""
    return _check_report_change(rule, domain, "EP")


def check_ti(rule, domain) -> AxiomReport:
    """Truncation invariance: truncating while keeping one's bundle acceptable changes nothing."""
    sw = _sweep(rule, domain, "TI")
    m, acc = sw.domain.n_objects, AxiomSpace(sw.domain).acceptable
    change, judge = _change_targets(m, 0), truncation_judge(acc, m)

    def admit(own, alt):
        return (own & ~acc[alt]) == 0

    def ok(slot, d, alt, own, other):
        return ti_ok(acc, alt, own, other)

    fields = ("truncation", "bundle_before", "bundle_after")
    return _check_deviation(sw, "TI", lambda xi: judge, lambda xi: change, ok, fields, admit)


# --- quota axioms ---------------------------------------------------------------


def check_wrp_quota(rule, domain, priority: Priority) -> AxiomReport:
    """Quota form of weak priority respect: filled quota excuses a smaller bundle."""
    return _check_unary("WRPq", rule, domain, priority)


def check_nw_quota(rule, domain) -> AxiomReport:
    """Quota form of non-wastefulness: assign min(|X|, total quota) objects."""
    return _check_unary("NWq", rule, domain)


# ---------------------------------------------------------------------------
# Variable-population index maps and checkers
# ---------------------------------------------------------------------------


def check_nw_var(rule, domain) -> AxiomReport:
    return _check_unary("NW", rule, domain)


def check_ef1_var(rule, domain) -> AxiomReport:
    return _check_unary("EF1", rule, domain)


def check_eff_var(rule, domain) -> AxiomReport:
    """Efficiency (NW + RT) on every variable-population problem: one check per problem,
    failing where either part does."""

    def ok(space, x, allocs, digits):
        return admissible(space, x, allocs, digits, ("EFF",))[:, None]

    return _check_unary("EFF", rule, domain, entry=UnaryAxiom(ok, lambda *_: {}, ("variable",)))


def _reduced_allocs(sw: Sweep, pop, ys: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """Per row: the allocation at (pop, ys[row]) of the row's profile, given as full-space
    preference indexes."""
    out = np.empty(digits.shape, dtype=np.uint8)
    for y in sorted_distinct(ys).tolist():
        rows, key = ys == y, sw.domain.block_index[pop, y]
        out[rows] = np.take(sw.rows(key), sw.code(key, digits[rows]), axis=0)
    return out


def check_rm_var(rule, domain) -> AxiomReport:
    """Resource monotonicity across nested available sets, preferences restricted. Every
    smaller set is in one group: the scan tries them all at each code."""
    sw = _sweep(rule, domain, "RM+")
    return _check_rm(sw, "RM+", lambda x: [[y for y in subsets_of(x) if y != x]])


def _check_con_like(rule, domain, pair_only: bool) -> AxiomReport:
    """Removing a subgroup with its bundles leaves the rest unchanged (2-CON: remainder of 2)."""
    name = "2-CON" if pair_only else "CON"
    sw = _sweep(rule, domain, name)

    def departures(key):  # one scan of (departing slots, remaining slots)
        n = len(sw.block(key)[0])
        sizes = range(max(1, n - 2), n - 1) if pair_only else range(1, n)
        moves = [out for size in sizes for out in combinations(range(n), size)]
        return [[(list(out), [i for i in range(n) if i not in out]) for out in moves]]

    def unchanged(key, move, d, rows):
        (pop, x), (dropped, keep) = sw.block(key), move
        new_x = x & ~np.bitwise_or.reduce(rows[:, dropped], axis=1)
        return _reduced_allocs(sw, tuple(pop[i] for i in keep), new_x, d[:, keep]) == rows[:, keep]

    def witness(key, code, move):
        (pop, x), (dropped, keep), alloc = sw.block(key), move, sw.allocation_at(key, code)
        new_x = x & ~_union(tuple(alloc[i] for i in dropped))
        red_key = sw.domain.block_index[tuple(pop[i] for i in keep), new_x]
        red_code = int(sw.code(red_key, sw.full_digits(key, code)[keep]))
        prob, red = sw.problem_at(key, code), sw.problem_at(red_key, red_code)
        return {
            "problem": describe_problem(prob),
            "allocation": describe_allocation(prob, alloc),
            "departing": [pop[i] for i in dropped],
            "reduced_problem": describe_problem(red),
            "reduced_allocation": describe_allocation(red, sw.allocation_at(red_key, red_code)),
        }

    return _first_move(sw, name, departures, unchanged, witness)


def check_con(rule, domain) -> AxiomReport:
    return _check_con_like(rule, domain, pair_only=False)


def check_2con(rule, domain) -> AxiomReport:
    return _check_con_like(rule, domain, pair_only=True)


def check_tcon(rule, domain) -> AxiomReport:
    """Removing every agent's best assigned object leaves the rest of each bundle unchanged."""
    sw = _sweep(rule, domain, "T-CON")
    tops_of = pick_table(preference_space(sw.domain.n_objects))

    def unchanged(key, _, d, rows):
        (pop, x), removed = sw.block(key), np.bitwise_or.reduce(tops_of[d, rows], axis=-1)
        return _reduced_allocs(sw, pop, x & ~removed, d) == rows & ~removed[:, None]

    def witness(key, code, _):
        (pop, x), alloc, d = sw.block(key), sw.allocation_at(key, code), sw.full_digits(key, code)
        removed = int(np.bitwise_or.reduce(tops_of[d, sw.rows(key)[code]]))  # the best objects
        red_key = sw.domain.block_index[pop, x & ~removed]
        red_code = int(sw.code(red_key, d))
        prob, red = sw.problem_at(key, code), sw.problem_at(red_key, red_code)
        return {
            "problem": describe_problem(prob),
            "allocation": describe_allocation(prob, alloc),
            "removed_tops": format_bundle(removed),
            "reduced_allocation": describe_allocation(red, sw.allocation_at(red_key, red_code)),
            "expected": describe_allocation(red, tuple(b & ~removed for b in alloc)),
        }

    return _first_move(
        sw, "T-CON", lambda key: [[None]] if sw.block(key)[1] else [], unchanged, witness
    )


def _canonical_steps(sw: Sweep, key, at_t):
    """Per step of rows at block key: its first code, the codes at block at_t (a set of the
    same size) of its rows' canonical problems, and where each row is its canonical one's."""
    digits, t = sw.digits_at(key), sw.block(at_t)[1]
    canon, back = canonical_relabelings(sw.block(key)[1], t)
    to_t = full_index(t, sw.domain.n_objects)[canon]  # the relabeled rankings, in full space
    step = max(1, _BLOCK // digits.shape[1])
    for lo in range(0, len(digits), step):
        d, rows = digits[lo : lo + step], sw.rows(key)[lo : lo + step]
        codes = sw.code(at_t, to_t[d[:, :1], d])
        yield lo, codes, (back[d[:, :1], np.take(sw.rows(at_t), codes, axis=0)] == rows).all(1)


def _neu_violation(sw: Sweep, name: str, checked: int, key, code: int, targets):
    """The report of the row at `code` of block key, at its first relabeling (the blocks of
    `targets` in order, images in permutation order, the identity skipped) that does not
    relabel its allocation."""
    x, d, alloc = sw.block(key)[1], sw.digits_at(key)[code], sw.rows(key)[code]
    checked += code * (len(sw.prefs_at(key)) * len(targets) - 1)
    for at_t in targets:
        t = sw.block(at_t)[1]
        canon, back = canonical_relabelings(x, t)
        r0 = canon[:, 0]  # image j of x's ascending order is relabeling r0[j]
        codes = sw.code(at_t, full_index(t, sw.domain.n_objects)[canon[r0][:, d]])
        bad = (back[r0[:, None], sw.rows(at_t)[codes]] != alloc).any(axis=1)
        if not bad.any():
            checked += len(bad) - (t == x)
            continue
        image, tgt_code = int(bad.argmax()), int(codes[bad.argmax()])
        sigma = zip(objects_of(x), _rankings(objects_of(t))[image])
        prob, tgt = sw.problem_at(key, code), sw.problem_at(at_t, tgt_code)
        return _violated(
            name,
            checked + image + (t != x),
            {
                "problem": describe_problem(prob),
                "allocation": describe_allocation(prob, sw.allocation_at(key, code)),
                "relabeling": {OBJECT_NAMES[a]: OBJECT_NAMES[b] for a, b in sigma},
                "relabeled_problem": describe_problem(tgt),
                "relabeled_allocation": describe_allocation(tgt, sw.allocation_at(at_t, tgt_code)),
            },
        )
    raise AssertionError("the row's orbit is neutral")


def _check_neu_like(rule, domain, pair_only: bool) -> AxiomReport:
    """Every bijection onto a set of the same size relabels the allocation (2-NEU: two
    agents only); each (problem, relabeling) is one check.

    A ranking of X fixes a bijection, so each orbit holds one canonical problem: at the
    first set of its size, with the first ranking ascending. If a row is not its canonical
    row mapped back, every row of its orbit fails some relabeling. An orbit holds k! rows
    at each set of size k, so the witness is the first such row of the first set.
    """
    name = "2-NEU" if pair_only else "NEU"
    sw = _sweep(rule, domain, name)
    same_size: dict[int, list[int]] = {}  # per set size, the indexes of its sets
    for xi, x in enumerate(sw.domain.available_sets):
        same_size.setdefault(bundle_size(x), []).append(xi)
    checked = 0
    for key in sw.blocks():
        (pop, x), P = sw.block(key), factorial(bundle_size(sw.block(key)[1]))
        if pair_only and len(pop) != 2:
            continue
        targets = [(key[0], ti) for ti in same_size[bundle_size(x)]]
        if key == targets[0]:  # the sets after it hold when its orbits do
            failing = np.zeros(P ** len(pop), dtype=bool)  # per canonical code
            for at_y in targets:
                for _, codes, same in _canonical_steps(sw, at_y, key):
                    failing[codes[~same]] = True
            for lo, codes, _ in _canonical_steps(sw, key, key) if failing.any() else ():
                if failing[codes].any():
                    code = lo + int(failing[codes].argmax())
                    return _neu_violation(sw, name, checked, key, code, targets)
        checked += P ** len(pop) * (P * len(targets) - 1)
    return _holds(name, checked)


def check_neu(rule, domain) -> AxiomReport:
    return _check_neu_like(rule, domain, pair_only=False)


def check_2neu(rule, domain) -> AxiomReport:
    return _check_neu_like(rule, domain, pair_only=True)


# ---------------------------------------------------------------------------
# Critical agent
# ---------------------------------------------------------------------------


def critical_agent(agents: Sequence[Agent], alloc: Allocation, priority: Priority) -> Agent | None:
    """The pivot agent: equal bundle sizes at or above her, exactly one fewer below.

    All-equal sizes make the last agent in priority order the pivot (the
    smaller block is empty). Returns None when no such pivot exists.
    """
    order = sorted(range(len(agents)), key=lambda i: priority.index(agents[i]))
    sizes = [bundle_size(alloc[i]) for i in order]
    for cut in range(len(sizes) - 1, -1, -1):
        head, tail = sizes[: cut + 1], sizes[cut + 1 :]
        k = sizes[cut]
        if all(s == k for s in head) and all(s == k - 1 for s in tail):
            return agents[order[cut]]
    return None


AXIOM_CHECKERS: dict[str, Callable] = {
    "EF": check_ef,
    "EF1": check_ef1,
    "NW": check_nw,
    "RT": check_rt,
    "EFF": check_eff,
    "RM": check_rm,
    "SP": check_sp,
    "WSP": check_wsp,
    "IR": check_ir,
    "NW*": check_nw_star,
    "TP": check_tp,
    "EP": check_ep,
    "TI": check_ti,
    "NWq": check_nw_quota,
}

PRIORITY_AXIOM_CHECKERS: dict[str, Callable] = {
    "RP": check_rp,
    "WRP": check_wrp,
    "WRP*": check_wrp_star,
    "WRPq": check_wrp_quota,
}

VARIABLE_AXIOM_CHECKERS: dict[str, Callable] = {
    "NW": check_nw_var,
    "EF1": check_ef1_var,
    "EFF": check_eff_var,
    "RM+": check_rm_var,
    "CON": check_con,
    "2-CON": check_2con,
    "T-CON": check_tcon,
    "NEU": check_neu,
    "2-NEU": check_2neu,
}
