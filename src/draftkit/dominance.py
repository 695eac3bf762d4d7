"""Pairwise-dominance comparison of bundles, its variants, and additive utility schemes.

A bundle S weakly dominates T under a ranking when some injection maps each
object of T to a weakly better object of S. In rank space (bit k of a mask is
the object ranked k-th) that is Hall's condition on nested sets: every prefix of
the ranks holds at least as many objects of S as of T. `_pd_matrix` is the one
definition of that relation, read by the scalar comparisons and gathered per
preference by `dominance_table`; `_rank_masks` maps bundles to rank space for
that table and, cached as `rank_mask_table`, for the manipulation search. Its
equivalence with injection existence is a tested claim against
`weakly_dominates_oracle` (exhaustive bipartite matching).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial
from random import Random
from typing import Sequence

import numpy as np

from .core import (
    INFINITE,
    Bundle,
    CapacityError,
    Preference,
    bundle_size,
    objects_of,
    preference_space,
)
from .rules import _per_space

ORACLE_SIZE_CAP = 12
MAX_RELATION_CELLS = 1 << 30  # bools in one relation table: 7 objects with cutoffs fit, 8 do not


@cache
def _pd_matrix(size: int) -> np.ndarray:
    """Bool (2**size, 2**size): [s, t] iff each prefix of the ranks holds at least as many
    bits of s as of t. Built one prefix at a time, so temporaries stay (2**size, 2**size)."""
    masks = np.arange(1 << size)
    count = np.zeros(1 << size, dtype=np.intp)  # bits of each mask among the k best ranks
    table = np.ones((1 << size, 1 << size), dtype=bool)
    for k in range(size):
        count += masks >> k & 1
        table &= count[:, None] >= count[None, :]
    table.flags.writeable = False
    return table


@cache
def _pd_rows(size: int) -> list[int]:
    """Row s of `_pd_matrix(size)` as an int: bit t set iff s dominates t."""
    packed = np.packbits(_pd_matrix(size), axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def dominates_rank_masks(s: int, t: int) -> bool:
    return _pd_rows((s | t).bit_length())[s] >> t & 1 == 1


def weakly_dominates(pref: Preference, s: Bundle, t: Bundle) -> bool:
    """S at-least-as-good-as T under pref's pairwise comparison.

    When pref carries a cutoff, only the acceptable parts of the bundles are
    compared (the ranking of unacceptable objects is ignored), which is the
    comparison the unacceptable-objects model uses.
    """
    if pref.cutoff is not None:
        acc = pref.acceptable
        s &= acc
        t &= acc
    return dominates_rank_masks(pref.rank_mask(s), pref.rank_mask(t))


def strictly_dominates(pref: Preference, s: Bundle, t: Bundle) -> bool:
    return weakly_dominates(pref, s, t) and not weakly_dominates(pref, t, s)


def quota_weakly_dominates(pref: Preference, quota: int | float, s: Bundle, t: Bundle) -> bool:
    """Dominance where the agent only counts her best `quota` objects of each bundle.

    In rank space a bundle's best objects are the lowest bits of its rank mask,
    so each mask keeps its lowest `quota` bits; a cutoff then keeps the rank
    prefix `(1 << cutoff) - 1`, as `weakly_dominates` does.
    """
    if quota < 1:
        raise ValueError("quota must be at least 1")
    s, t = pref.rank_mask(s), pref.rank_mask(t)
    while s.bit_count() > quota:
        s ^= 1 << (s.bit_length() - 1)
    while t.bit_count() > quota:
        t ^= 1 << (t.bit_length() - 1)
    if pref.cutoff is not None:
        s &= (1 << pref.cutoff) - 1
        t &= (1 << pref.cutoff) - 1
    return dominates_rank_masks(s, t)


def envies(pref: Preference, own: Bundle, other: Bundle, quota: int | float = INFINITE) -> bool:
    """True when `own` fails to weakly dominate `other` under the variant comparison."""
    if quota != INFINITE:
        return not quota_weakly_dominates(pref, quota, own, other)
    return not weakly_dominates(pref, own, other)


def _rank_masks(prefs: Sequence[Preference]) -> np.ndarray:
    """RANK[p, s]: bundle s in prefs[p]'s rank space, `Preference.rank_mask` without a cutoff;
    an object prefs[p] does not rank adds no bit. uint8 (len(prefs), 2^w), w the highest
    ranked object + 1 (at most 8)."""
    width = max((p.ranked_mask for p in prefs), default=0).bit_length()
    if width > 8:
        raise ValueError(f"rank-mask tables hold bundles of at most 8 objects, not {width}")
    bits = np.zeros((len(prefs), width), dtype=np.uint8)  # [p, o]: the rank bit of object o
    for row, p in zip(bits, prefs):
        row[list(p.ranking)] = 1 << np.arange(len(p.ranking))
    table = np.zeros((len(prefs), 1 << width), dtype=np.uint8)
    for o in range(width):  # the bundles holding o are those without it, plus o's rank bit
        np.bitwise_or(table[:, : 1 << o], bits[:, o, None], out=table[:, 1 << o : 2 << o])
    table.flags.writeable = False
    return table


# cached per preference space for the manipulation search; a relation table is cached itself
rank_mask_table = _per_space(_rank_masks)


def dominance_table(
    prefs: Sequence[Preference], n_objects: int, quota: int | None = None
) -> np.ndarray:
    """DOM[p, s, t]: under prefs[p] bundle s weakly dominates bundle t, for all s, t < 2**n_objects.

    Each preference maps every bundle to rank space through `_rank_masks`, then keeps
    the agent's `quota` best objects of each bundle (as `quota_weakly_dominates` does) and
    the ranks its cutoff accepts; the pairs are looked up in `_pd_matrix`. Every preference
    must rank objects 0..n_objects-1.
    """
    rank_masks = _rank_masks(prefs).astype(np.intp)
    if quota is not None:
        left, rank_masks = rank_masks, np.zeros_like(rank_masks)
        for _ in range(min(quota, n_objects)):
            low = left & -left
            rank_masks |= low
            left = left ^ low
    cutoffs = np.array([n_objects if p.cutoff is None else p.cutoff for p in prefs])
    rank_masks &= ((1 << cutoffs) - 1)[:, None]
    table = _pd_matrix(n_objects)[rank_masks[:, :, None], rank_masks[:, None, :]]
    table.flags.writeable = False
    return table


def relation_table(
    n_objects: int, cutoffs: bool = False, quota: int | float | None = None
) -> np.ndarray:
    """DOM over `preference_space(n_objects, cutoffs)` under one quota.

    Each table is built on first use and cached for the life of the process;
    no quota and an infinite quota share one table. A table of more than
    MAX_RELATION_CELLS cells raises CapacityError before anything is built.
    """
    q = None if quota is None or quota == INFINITE else int(quota)
    return _relation_table(n_objects, cutoffs, q)


@cache
def _relation_table(n_objects: int, cutoffs: bool, quota: int | None) -> np.ndarray:
    cells = factorial(n_objects) * (n_objects + 1 if cutoffs else 1) << 2 * n_objects
    if cells > MAX_RELATION_CELLS:
        raise CapacityError(
            f"{n_objects} objects make a relation table of {cells} cells, "
            f"more than one table holds ({MAX_RELATION_CELLS})"
        )
    return dominance_table(preference_space(n_objects, cutoffs), n_objects, quota)


def weakly_dominates_oracle(pref: Preference, s: Bundle, t: Bundle) -> bool:
    """Injection-existence oracle: exhaustive bipartite matching on the weakly-better relation.

    Independent of the sorted-comparison shortcut; refuses bundles above the
    desk-scale cap.
    """
    if bundle_size(s) > ORACLE_SIZE_CAP or bundle_size(t) > ORACLE_SIZE_CAP:
        raise ValueError(f"oracle capped at bundles of {ORACLE_SIZE_CAP} objects")
    if pref.cutoff is not None:
        acc = pref.acceptable
        s &= acc
        t &= acc
    t_objs = objects_of(t)
    s_objs = objects_of(s)
    rank = pref.rank
    match: dict[int, int] = {}  # s-object -> t-object

    def augment(x: int, blocked: set[int]) -> bool:
        for y in s_objs:
            if y in blocked or rank[y] > rank[x]:
                continue
            blocked.add(y)
            if y not in match or augment(match[y], blocked):
                match[y] = x
                return True
        return False

    return all(augment(x, set()) for x in t_objs)


@dataclass(frozen=True)
class WeightScheme:
    """Per-rank additive weights: positive and strictly decreasing with rank."""

    name: str
    weights: tuple[Fraction, ...]  # index 0 = weight of the best-ranked object

    def __post_init__(self):
        if any(w <= 0 for w in self.weights):
            raise ValueError(f"scheme {self.name!r} has a non-positive weight")
        if any(a <= b for a, b in zip(self.weights, self.weights[1:])):
            raise ValueError(f"scheme {self.name!r} is not strictly decreasing")


def geometric_scheme(size: int) -> WeightScheme:
    return WeightScheme("geometric", tuple(Fraction(1, 2 ** (r + 1)) for r in range(size)))


def linear_scheme(size: int) -> WeightScheme:
    return WeightScheme("linear", tuple(Fraction(size - r) for r in range(size)))


def random_scheme(size: int, seed: int) -> WeightScheme:
    rng = Random(seed)
    raw = sorted(rng.sample(range(1, 1000 * size), size), reverse=True)
    return WeightScheme(f"random-{seed}", tuple(Fraction(w) for w in raw))


def additive_utility(pref: Preference, scheme: WeightScheme, bundle: Bundle) -> Fraction:
    """Sum of rank weights over the bundle (acceptable objects only when a cutoff is present)."""
    if len(scheme.weights) < len(pref.ranking):
        raise ValueError("scheme too short for this ranking")
    if pref.cutoff is not None:
        bundle &= pref.acceptable
    total = Fraction(0)
    for o in objects_of(bundle):
        total += scheme.weights[pref.rank[o]]
    return total
