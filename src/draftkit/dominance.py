"""Pairwise-dominance comparison of bundles, its variants, and additive utility schemes.

A bundle S weakly dominates T under a ranking when some injection maps each
object of T to a weakly better object of S. The fast test works in rank space:
sort both bundles best-first and compare position by position. Its equivalence
with injection existence is a tested claim against `weakly_dominates_oracle`
(exhaustive bipartite matching), not an assumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from random import Random
from typing import Sequence

import numpy as np

from .core import INFINITE, Bundle, Preference, bundle_size, objects_of, preference_space

ORACLE_SIZE_CAP = 12


def _rank_masks_dominate(s: int, t: int) -> bool:
    """Rank-space test: i-th best of s at least as good (lower bit) as i-th best of t."""
    if s.bit_count() < t.bit_count():
        return False
    while t:
        if (s & -s) > (t & -t):
            return False
        s &= s - 1
        t &= t - 1
    return True


def _build_table(size: int) -> list[int]:
    rows = []
    for s in range(1 << size):
        row = 0
        for t in range(1 << size):
            if _rank_masks_dominate(s, t):
                row |= 1 << t
        rows.append(row)
    return rows


# row s has bit t set iff rank-space bundle s weakly dominates t (universes up to 6 objects)
PD_ROWS = _build_table(6)


def dominates_rank_masks(s: int, t: int) -> bool:
    if s < 64 and t < 64:
        return PD_ROWS[s] >> t & 1 == 1
    return _rank_masks_dominate(s, t)


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


def _pd_matrix(size: int) -> np.ndarray:
    """Bool (2**size, 2**size) form of the rank-space relation: [s, t] iff s dominates t."""
    if size <= 6:
        rows = np.array(PD_ROWS[: 1 << size], dtype=np.uint64)
        return (rows[:, None] >> np.arange(1 << size, dtype=np.uint64) & 1).astype(bool)
    masks = range(1 << size)
    return np.array([[_rank_masks_dominate(s, t) for t in masks] for s in masks])


def dominance_table(
    prefs: Sequence[Preference], n_objects: int, quota: int | None = None
) -> np.ndarray:
    """DOM[p, s, t]: under prefs[p] bundle s weakly dominates bundle t, for all s, t < 2**n_objects.

    Each preference maps every bundle to rank space through one array (cutoff
    and quota applied there), and the pairs are looked up in `PD_ROWS`. A quota
    keeps the agent's `quota` best objects of each bundle, as in
    `quota_weakly_dominates`. Every preference must rank objects 0..n_objects-1.
    """
    subsets = np.arange(1 << n_objects)
    members = subsets[:, None] >> np.arange(n_objects) & 1  # (2**m, m)
    ranks = np.array([p.rank for p in prefs], dtype=np.int64).reshape(len(prefs), n_objects)
    rank_masks = (1 << ranks) @ members.T  # (P, 2**m)
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


def ef1_table(dom: np.ndarray, n_objects: int) -> np.ndarray:
    """EF1OK[p, own, other]: `own` dominates `other` with at most one object of `other` removed."""
    ok = dom.copy()
    others = np.arange(1 << n_objects)
    for o in range(n_objects):
        holding = others[others >> o & 1 == 1]
        ok[:, :, holding] |= dom[:, :, holding ^ (1 << o)]
    ok.flags.writeable = False
    return ok


def relation_table(
    n_objects: int, cutoffs: bool = False, quota: int | float | None = None, ef1: bool = False
) -> np.ndarray:
    """DOM (or, with ef1, EF1OK) over `preference_space(n_objects, cutoffs)` under one quota.

    Each table is built on first use and cached for the life of the process;
    no quota and an infinite quota share one table.
    """
    q = None if quota is None or quota == INFINITE else int(quota)
    return _relation_table(n_objects, cutoffs, q, ef1)


@lru_cache(maxsize=None)
def _relation_table(n_objects: int, cutoffs: bool, quota: int | None, ef1: bool) -> np.ndarray:
    if ef1:
        return ef1_table(_relation_table(n_objects, cutoffs, quota, False), n_objects)
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
