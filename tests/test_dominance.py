from fractions import Fraction
from itertools import permutations
from random import Random

import numpy as np
import pytest

import scalar_checkers as oracle
from draftkit.core import (
    INFINITE,
    Preference,
    bundle_size,
    objects_of,
    preference_space,
    subsets_of,
    top_k,
)
from draftkit.dominance import (
    WeightScheme,
    _pd_matrix,
    additive_utility,
    dominance_table,
    dominates_rank_masks,
    envies,
    geometric_scheme,
    linear_scheme,
    quota_weakly_dominates,
    random_scheme,
    rank_mask_table,
    relation_table,
    strictly_dominates,
    weakly_dominates,
    weakly_dominates_oracle,
)
from draftkit.rules import pick_table

from helpers import bundle, pref


def test_pairwise_dominance_footnote_example():
    p = pref("abc")  # read as x>y>z
    assert weakly_dominates(p, bundle("ab"), bundle("ac"))
    assert not weakly_dominates(p, bundle("ac"), bundle("ab"))


def test_subset_always_dominated():
    p = pref("dcba")
    for s in subsets_of(bundle("abcd"), nonempty=False):
        for t in subsets_of(s, nonempty=False):
            assert weakly_dominates(p, s, t)


def test_reflexive():
    p = pref("bca")
    for s in subsets_of(bundle("abc"), nonempty=False):
        assert weakly_dominates(p, s, s)


def test_oracle_trivial_cases():
    p = pref("ab")
    assert not weakly_dominates_oracle(p, 0, bundle("a"))
    assert weakly_dominates_oracle(p, bundle("a"), 0)
    assert weakly_dominates_oracle(p, bundle("ab"), bundle("ac") & bundle("ab"))


def test_oracle_matches_footnote_example():
    p = pref("abc")
    assert weakly_dominates_oracle(p, bundle("ab"), bundle("ac"))
    assert not weakly_dominates_oracle(p, bundle("ac"), bundle("ab"))


def test_oracle_size_cap():
    p = Preference(tuple(range(13)))
    with pytest.raises(ValueError):
        weakly_dominates_oracle(p, (1 << 13) - 1, 0)


def test_fast_equals_oracle_exhaustive_all_prefs_small():
    # equivalence of sorted comparison with injection existence, all prefs, m <= 4
    for m in (1, 2, 3, 4):
        full = (1 << m) - 1
        for ranking in permutations(range(m)):
            p = Preference(ranking)
            for s in subsets_of(full, nonempty=False):
                for t in subsets_of(full, nonempty=False):
                    assert weakly_dominates(p, s, t) == weakly_dominates_oracle(p, s, t)


def test_quota_variants_match_oracle_after_truncation():
    for m in (2, 3, 4):
        full = (1 << m) - 1
        p = Preference(tuple(range(m)))
        for q in list(range(1, m + 1)) + [INFINITE]:
            for s in subsets_of(full, nonempty=False):
                for t in subsets_of(full, nonempty=False):
                    ss = s if q == INFINITE else top_k(p, s, min(int(q), bundle_size(s)))
                    tt = t if q == INFINITE else top_k(p, t, min(int(q), bundle_size(t)))
                    assert quota_weakly_dominates(p, q, s, t) == weakly_dominates_oracle(
                        p, ss, tt
                    )


@pytest.mark.parametrize(
    "rankings",
    [list(permutations(range(4))), [tuple(range(5))], [tuple(range(6))]],
    ids=["every-4", "identity-5", "identity-6"],
)
def test_rank_space_quota_dominance_matches_top_k_form(rankings):
    # every quota and cutoff, every pair of bundles
    m = len(rankings[0])
    bundles = list(subsets_of((1 << m) - 1, nonempty=False))
    for ranking in rankings:
        for cutoff in [None, *range(m + 1)]:
            p = Preference(ranking, cutoff)
            for q in [*range(1, m + 1), INFINITE]:
                for s in bundles:
                    for t in bundles:
                        expected = oracle.quota_weakly_dominates(p, q, s, t)
                        assert quota_weakly_dominates(p, q, s, t) == expected, (p, q, s, t)


def test_quota_below_one_rejected():
    with pytest.raises(ValueError):
        quota_weakly_dominates(pref("ab"), 0, bundle("a"), bundle("b"))


def test_unacceptable_variant_matches_oracle_on_acceptable_parts():
    m = 4
    full = (1 << m) - 1
    for cutoff in range(m + 1):
        p = Preference(tuple(range(m)), cutoff)
        for s in subsets_of(full, nonempty=False):
            for t in subsets_of(full, nonempty=False):
                expected = weakly_dominates_oracle(
                    Preference(tuple(range(m))), s & p.acceptable, t & p.acceptable
                )
                assert weakly_dominates(p, s, t) == expected


def test_quota_one_compares_tops():
    p = pref("abc")
    assert quota_weakly_dominates(p, 1, bundle("ac"), bundle("b"))
    assert not quota_weakly_dominates(pref("ab"), 1, bundle("b"), bundle("a"))


def test_infinite_quota_reduces_to_base():
    p = pref("cadb")
    for s in subsets_of(bundle("abcd"), nonempty=False):
        for t in subsets_of(bundle("abcd"), nonempty=False):
            assert quota_weakly_dominates(p, INFINITE, s, t) == weakly_dominates(p, s, t)


def test_unacceptable_ignores_unacceptable_objects():
    p = pref("a|b")
    assert weakly_dominates(p, bundle("ab"), bundle("a"))
    assert weakly_dominates(p, bundle("a"), bundle("ab"))  # not antisymmetric here


def test_all_unacceptable_bundles_equivalent():
    p = pref("|ab")
    assert weakly_dominates(p, bundle("a"), bundle("b"))
    assert weakly_dominates(p, bundle("b"), bundle("a"))


def test_unacceptable_strict_failure():
    p = pref("ab|c")
    assert not weakly_dominates(p, bundle("bc"), bundle("a"))


def test_envies_examples():
    p = pref("abcd")
    assert envies(p, bundle("bd"), bundle("ac"))
    assert not weakly_dominates_oracle(p, bundle("bd"), bundle("ac"))  # oracle agrees
    assert not envies(p, bundle("abc"), bundle("ab"))  # superset never envied
    assert not envies(p, 0, 0)


def test_responsiveness_relations():
    # adding an object strictly improves; swapping in a weakly better object weakly improves
    m = 5
    full = (1 << m) - 1
    p = Preference(tuple(range(m)))
    for s in subsets_of(full, nonempty=False):
        for x in objects_of(full & ~s):
            assert strictly_dominates(p, s | 1 << x, s)
            for y in objects_of(full & ~s):
                if p.rank[x] <= p.rank[y]:
                    assert weakly_dominates(p, s | 1 << x, s | 1 << y)


def test_partial_order_laws_base_variant():
    m = 5
    full = (1 << m) - 1
    p = Preference(tuple(range(m)))
    subs = list(subsets_of(full, nonempty=False))
    geq = {(s, t) for s in subs for t in subs if weakly_dominates(p, s, t)}
    for s in subs:
        assert (s, s) in geq
    for s, t in geq:
        if (t, s) in geq:
            assert s == t
    for s, t in geq:
        for u in subs:
            if (t, u) in geq:
                assert (s, u) in geq


def test_geometric_utility_example():
    p = pref("abc")
    assert additive_utility(p, geometric_scheme(3), bundle("ac")) == Fraction(5, 8)


def test_empty_bundle_zero_utility():
    assert additive_utility(pref("abc"), linear_scheme(3), 0) == 0


def test_utility_strictly_monotone_in_objects():
    p = pref("cab")
    for scheme in (geometric_scheme(3), linear_scheme(3), random_scheme(3, seed=7)):
        for s in subsets_of(bundle("abc"), nonempty=False):
            for x in objects_of(bundle("abc") & ~s):
                assert additive_utility(p, scheme, s | 1 << x) > additive_utility(p, scheme, s)


def test_non_monotone_scheme_rejected():
    with pytest.raises(ValueError):
        WeightScheme("bad", (Fraction(1), Fraction(1)))
    with pytest.raises(ValueError):
        WeightScheme("bad", (Fraction(1), Fraction(0)))


def test_unacceptable_utility_counts_acceptable_only():
    p = pref("a|b")
    scheme = geometric_scheme(2)
    assert additive_utility(p, scheme, bundle("ab")) == additive_utility(p, scheme, bundle("a"))


def test_dominance_implies_all_consistent_utilities_agree():
    m = 5
    p = Preference((3, 0, 4, 1, 2))
    schemes = [geometric_scheme(m), linear_scheme(m)] + [random_scheme(m, s) for s in range(5)]
    full = (1 << m) - 1
    for s in subsets_of(full, nonempty=False):
        for t in subsets_of(full, nonempty=False):
            if weakly_dominates(p, s, t):
                for scheme in schemes:
                    assert additive_utility(p, scheme, s) >= additive_utility(p, scheme, t)


def test_no_dominance_is_witnessed_by_some_scheme():
    # sampled falsification direction: some provided scheme separates every non-dominated pair
    m = 5
    p = Preference(tuple(range(m)))
    schemes = [geometric_scheme(m), linear_scheme(m)] + [
        random_scheme(m, seed) for seed in range(100)
    ]
    full = (1 << m) - 1
    for s in subsets_of(full, nonempty=False):
        for t in subsets_of(full, nonempty=False):
            if not weakly_dominates(p, s, t):
                assert any(
                    additive_utility(p, sch, t) > additive_utility(p, sch, s)
                    for sch in schemes
                )


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("cutoffs", [False, True])
def test_relation_tables_match_scalar_dominance(m, cutoffs):
    rankings = list(permutations(range(m)))
    if cutoffs:
        prefs = [Preference(r, c) for r in rankings for c in range(m + 1)]
        quotas = [None]
    else:
        prefs = [Preference(r) for r in rankings]
        quotas = [None] + list(range(1, m + 1))
    top = pick_table(tuple(prefs))
    for q in quotas:
        dom = dominance_table(prefs, m, q)

        def rel(p, s, t):
            return weakly_dominates(p, s, t) if q is None else quota_weakly_dominates(p, q, s, t)

        for i, p in enumerate(prefs):
            for s in range(1 << m):
                for t in range(1 << m):
                    assert dom[i, s, t] == rel(p, s, t)
                    # EF1 as `axioms._envy` reads it: t less its best acceptable object
                    assert dom[i, s, t ^ top[i, t]] == (
                        rel(p, s, t) or any(rel(p, s, t & ~(1 << o)) for o in objects_of(t))
                    )


@pytest.mark.parametrize("m", range(7))
@pytest.mark.parametrize("cutoffs", [False, True])
def test_rank_mask_table_is_the_scalar_rank_mask(m, cutoffs):
    """Every bundle of the universe, in each preference's rank space (the cutoff plays no
    role there), and on a space whose preferences rank different sets of objects."""
    prefs = preference_space(m, cutoffs)
    table = rank_mask_table(prefs)
    assert table.shape == (len(prefs), 1 << m) and table.dtype == np.uint8
    for i, p in enumerate(prefs):
        assert table[i].tolist() == [p.rank_mask(s) for s in range(1 << m)]
    ragged = tuple(
        Preference(r, len(r) // 2 if cutoffs else None)
        for x in subsets_of((1 << min(m, 4)) - 1)
        for r in permutations(objects_of(x))
    )
    table = rank_mask_table(ragged)
    for i, p in enumerate(ragged):  # an object p does not rank adds no bit
        assert table[i].tolist() == [p.rank_mask(s & p.ranked_mask) for s in range(len(table[i]))]


@pytest.mark.parametrize("cutoffs", [False, True])
def test_five_object_relation_tables_match_scalar_dominance(cutoffs):
    """Seeded cells of every five-object table, each quota included."""
    prefs, rng = preference_space(5, cutoffs), Random(5)
    for q in [None] + ([] if cutoffs else list(range(1, 6))):
        dom = relation_table(5, cutoffs, q)
        for _ in range(4000):
            i, s, t = rng.randrange(len(prefs)), rng.randrange(32), rng.randrange(32)
            p = prefs[i]
            expected = weakly_dominates(p, s, t) if q is None else quota_weakly_dominates(p, q, s, t)
            assert dom[i, s, t] == expected, (p, q, s, t)


@pytest.mark.parametrize("m", range(1, 6))
def test_relation_tables_are_reflexive(m):
    """Every bundle weakly dominates itself under every preference, with and without cutoffs
    and under every quota: the deviation scans' packed sets may hold the truthful bundle."""
    for cutoffs in (False, True):
        for quota in (None, *range(1, m + 1), INFINITE):
            assert np.diagonal(relation_table(m, cutoffs, quota), axis1=1, axis2=2).all(), quota


@pytest.mark.parametrize("size", range(1, 9))
def test_rank_space_relation_is_the_positionwise_comparison(size):
    """The prefix-count relation, as a table and as the scalar rows, on every mask pair."""
    table, masks = _pd_matrix(size), range(1 << size)
    for s in masks:
        expected = [oracle.rank_masks_dominate(s, t) for t in masks]
        assert table[s].tolist() == expected
        assert [dominates_rank_masks(s, t) for t in masks] == expected
