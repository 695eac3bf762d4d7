"""Core value types: preferences, bundles, allocations, priorities, problems.

Objects are dense small integers (0..m-1); a bundle is an int bitmask over
object ids (bit o set means object o is in the bundle). Agents are small
positive ints. Everything here is an immutable value and every operation is
a pure function, so all of it is safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import permutations
from typing import Iterable, Iterator

Agent = int
Bundle = int  # bitmask over object ids

INFINITE = float("inf")  # quota value meaning "no cap"


class CapacityError(ValueError):
    """The request is larger than the engine that would decide it can represent."""


def bundle_of(objects: Iterable[int]) -> Bundle:
    mask = 0
    for o in objects:
        mask |= 1 << o
    return mask


def objects_of(bundle: Bundle) -> tuple[int, ...]:
    out = []
    while bundle:
        low = bundle & -bundle
        out.append(low.bit_length() - 1)
        bundle ^= low
    return tuple(out)


def bundle_size(bundle: Bundle) -> int:
    return bundle.bit_count()


@dataclass(frozen=True)
class Preference:
    """A strict ranking of objects, best first, with an optional acceptability cutoff.

    ``cutoff is None`` means every ranked object is acceptable (the plain
    model); an int cutoff c means exactly the first c ranked objects are
    acceptable and the rest are worse than receiving nothing.
    """

    ranking: tuple[int, ...]
    cutoff: int | None = None

    def __post_init__(self):
        if len(set(self.ranking)) != len(self.ranking):
            raise ValueError("ranking repeats an object")
        if self.cutoff is not None and not 0 <= self.cutoff <= len(self.ranking):
            raise ValueError(f"cutoff {self.cutoff} out of range")

    @cached_property
    def rank(self) -> tuple[int, ...]:
        """Position of each object id in the ranking (unranked ids get a large sentinel)."""
        size = max(self.ranking, default=-1) + 1
        table = [len(self.ranking) + 1] * size
        for pos, o in enumerate(self.ranking):
            table[o] = pos
        return tuple(table)

    @cached_property
    def ranked_mask(self) -> Bundle:
        return bundle_of(self.ranking)

    @cached_property
    def acceptable(self) -> Bundle:
        if self.cutoff is None:
            return self.ranked_mask
        return bundle_of(self.ranking[: self.cutoff])

    def prefers(self, x: int, y: int) -> bool:
        return self.rank[x] < self.rank[y]

    @cached_property
    def _mask_table(self) -> tuple[int, ...]:
        # object-mask -> rank-space mask, for every subset of the ranked objects
        bits = max(self.ranking, default=-1) + 1
        if bits > 12:
            raise ValueError("mask table only built for small universes")
        rank = self.rank
        table = [0] * (1 << bits)
        for o in self.ranking:
            obit, rbit = 1 << o, 1 << rank[o]
            step = obit << 1
            for base in range(0, 1 << bits, step):
                for m in range(base + obit, base + step):
                    table[m] |= rbit
        return tuple(table)

    def rank_mask(self, bundle: Bundle) -> int:
        """Map a bundle to rank space: bit r set iff the r-th best ranked object is in it."""
        return self._mask_table[bundle]


def top(pref: Preference, available: Bundle) -> int | None:
    """Best acceptable object of `available`, or None when the agent would pass."""
    pool = available & pref.acceptable
    for o in pref.ranking:
        if pool >> o & 1:
            return o
    return None


def top_k(pref: Preference, available: Bundle, k: int) -> Bundle:
    """The k best-ranked objects of `available` (acceptability plays no role here)."""
    if not 0 <= k <= bundle_size(available):
        raise ValueError(f"k={k} outside 0..|X|={bundle_size(available)}")
    out = 0
    for o in pref.ranking:
        if k == 0:
            break
        if available >> o & 1:
            out |= 1 << o
            k -= 1
    return out


def restrict(pref: Preference, available: Bundle) -> Preference:
    """Restriction of the ranking to `available`, carrying the cutoff over."""
    if available == 0:
        raise ValueError("restriction to an empty set")
    ranking = tuple(o for o in pref.ranking if available >> o & 1)
    if pref.cutoff is None:
        return Preference(ranking)
    kept_acceptable = sum(1 for o in ranking if pref.acceptable >> o & 1)
    return Preference(ranking, kept_acceptable)


def truncate_at(pref: Preference, x: int) -> Preference:
    """Truncation keeping the acceptable prefix down to x; everything worse becomes unacceptable.

    Canonical representative: the tail keeps its ranking order.
    """
    if not pref.acceptable >> x & 1:
        raise ValueError(f"object {x} is not acceptable")
    return Preference(pref.ranking, pref.rank[x] + 1)


def complete_extension(pref: Preference) -> Preference:
    """The unique extension making every object acceptable (ranking unchanged)."""
    if pref.cutoff is None:
        return pref
    return Preference(pref.ranking, len(pref.ranking))


def is_truncation_of(p: Preference, q: Preference) -> bool:
    """True iff p truncates q: same ranking, acceptability cut no deeper.

    Tail order is preserved: a truncation moves the cutoff up without
    re-ranking anything (the reading under which truncation invariance is a
    coherent requirement; see truncate_at).
    """
    pc = p.cutoff if p.cutoff is not None else len(p.ranking)
    qc = q.cutoff if q.cutoff is not None else len(q.ranking)
    return p.ranking == q.ranking and pc <= qc


def is_extension_of(p: Preference, q: Preference) -> bool:
    return is_truncation_of(q, p)


@lru_cache(maxsize=None)
def preference_space(n_objects: int, cutoffs: bool = False) -> tuple[Preference, ...]:
    """Every ranking of objects 0..n_objects-1, in permutation order.

    With cutoffs, each ranking appears once per cutoff 0..n_objects in turn.
    Preference indexes into this tuple are what the relation tables are indexed by.
    """
    rankings = permutations(range(n_objects))
    if cutoffs:
        return tuple(Preference(r, c) for r in rankings for c in range(n_objects + 1))
    return tuple(Preference(r) for r in rankings)


Priority = tuple[Agent, ...]  # highest priority first


@dataclass(frozen=True)
class PickingSequence:
    """Agent-at-step function: an explicit finite prefix followed by a round-robin cycle."""

    prefix: tuple[Agent, ...] = ()
    cycle: tuple[Agent, ...] = ()

    def at(self, k: int) -> Agent:
        """Agent picking at step k (0-based)."""
        if k < len(self.prefix):
            return self.prefix[k]
        if not self.cycle:
            raise ValueError(f"picking sequence undefined at step {k}")
        return self.cycle[(k - len(self.prefix)) % len(self.cycle)]

    @staticmethod
    def round_robin(priority: Priority) -> "PickingSequence":
        return PickingSequence(cycle=tuple(priority))


VARIANTS = ("fixed", "quota", "unacceptable", "variable")


@dataclass(frozen=True)
class Problem:
    """A population, an available object set, and a preference profile.

    fixed/quota: every preference ranks the full declared universe, no cutoffs
    (quota problems additionally carry one quota per agent).
    unacceptable: preferences carry cutoffs.
    variable: preferences rank exactly the available set; available may be empty.
    """

    variant: str
    agents: tuple[Agent, ...]
    available: Bundle
    profile: tuple[Preference, ...]
    quotas: tuple[int | float, ...] | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if len(self.profile) != len(self.agents):
            raise ValueError("profile/agents length mismatch")
        if self.variant != "variable" and self.available == 0:
            raise ValueError("available set must be nonempty")
        if (self.quotas is not None) != (self.variant == "quota"):
            raise ValueError("quotas present iff variant is 'quota'")
        if self.quotas is not None and any(q != INFINITE and q < 1 for q in self.quotas):
            raise ValueError("quotas must be at least 1")
        if self.quotas is not None:  # a tuple, so a problem's fields key the rules' caches
            object.__setattr__(self, "quotas", tuple(self.quotas))

    def pref_of(self, agent: Agent) -> Preference:
        return self.profile[self.agents.index(agent)]


Allocation = tuple[Bundle, ...]  # aligned with problem.agents


@dataclass(frozen=True)
class AllocationViolation:
    kind: str  # "overlap" | "out-of-universe" | "quota-breach"
    detail: str


def validate_allocation(problem: Problem, alloc: Allocation) -> AllocationViolation | None:
    """First violated allocation invariant (disjointness, feasibility, quotas), or None."""
    if len(alloc) != len(problem.agents):
        return AllocationViolation("out-of-universe", "bundle count != agent count")
    seen = 0
    for agent, bundle in zip(problem.agents, alloc):
        if seen & bundle:
            return AllocationViolation(
                "overlap", f"objects {objects_of(seen & bundle)} assigned twice"
            )
        seen |= bundle
    if seen & ~problem.available:
        return AllocationViolation(
            "out-of-universe",
            f"objects {objects_of(seen & ~problem.available)} are not available",
        )
    if problem.quotas is not None:
        for agent, bundle, q in zip(problem.agents, alloc, problem.quotas):
            if bundle_size(bundle) > q:
                return AllocationViolation(
                    "quota-breach", f"agent {agent} holds {bundle_size(bundle)} > quota {q}"
                )
    return None


def subsets_of(mask: Bundle, nonempty: bool = True) -> Iterator[Bundle]:
    """All subsets of `mask`, ascending; skips the empty set unless told otherwise."""
    sub = 0
    while True:
        if sub or not nonempty:
            yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask
