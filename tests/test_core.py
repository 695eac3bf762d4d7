import pytest

from draftkit.core import (
    INFINITE,
    PickingSequence,
    Preference,
    Problem,
    bundle_of,
    bundle_size,
    complete_extension,
    is_extension_of,
    is_truncation_of,
    objects_of,
    restrict,
    subsets_of,
    top,
    top_k,
    truncate_at,
    validate_allocation,
)

from helpers import bundle, fixed_problem, pref


def test_bundle_helpers_roundtrip():
    assert objects_of(bundle_of([0, 3, 2])) == (0, 2, 3)
    assert bundle_size(bundle("abd")) == 3
    assert list(subsets_of(bundle("ab"))) == [1, 2, 3]
    assert list(subsets_of(0, nonempty=False)) == [0]


def test_top_picks_best_of_pool():
    assert top(pref("abcd"), bundle("bd")) == 1  # b


def test_top_all_unacceptable_passes():
    assert top(pref("|ab"), bundle("ab")) is None


def test_top_empty_pool_passes():
    assert top(pref("abc"), 0) is None


def test_top_k_prefix():
    assert top_k(pref("abc"), bundle("abc"), 2) == bundle("ab")


def test_top_k_zero_empty():
    assert top_k(pref("abc"), bundle("abc"), 0) == 0


def test_top_k_restriction_then_max():
    assert top_k(pref("cab"), bundle("ab"), 1) == bundle("a")


def test_top_k_over_cap_rejected():
    with pytest.raises(ValueError):
        top_k(pref("abc"), bundle("ab"), 3)


def test_restrict_subsequence():
    assert restrict(pref("abcd"), bundle("bd")).ranking == (1, 3)


def test_restrict_carries_cutoff():
    r = restrict(pref("a|b"), bundle("ab"))
    assert r.acceptable == bundle("a")


def test_restrict_full_universe_identity():
    p = pref("abcd")
    assert restrict(p, bundle("abcd")) == p


def test_restrict_is_idempotent():
    for spec in ("abcd", "ab|cd", "|abcd"):
        p = pref(spec)
        once = restrict(p, bundle("bd"))
        assert restrict(once, bundle("bd")) == once


def test_truncate_at_keeps_tail_order():
    # a>b>c all acceptable, truncate at b: a>b acceptable, c unacceptable, order kept
    p = Preference((0, 1, 2), 3)
    t = truncate_at(p, 1)
    assert t == Preference((0, 1, 2), 2)


def test_truncate_at_worst_acceptable_is_identity():
    p = pref("ab|c")
    assert truncate_at(p, 1) == p


def test_truncate_at_best_is_maximal():
    t = truncate_at(pref("abc|"), 0)
    assert t.acceptable == bundle("a")


def test_truncate_unacceptable_rejected():
    with pytest.raises(ValueError):
        truncate_at(pref("a|bc"), 1)


def test_complete_extension_moves_cutoff_to_end():
    assert complete_extension(pref("a|b")) == Preference((0, 1), 2)


def test_complete_extension_identity_when_complete():
    p = pref("abc")
    assert complete_extension(p) is p


def test_complete_extension_of_all_unacceptable_keeps_ranking():
    p = pref("|abc")
    assert complete_extension(p) == Preference((0, 1, 2), 3)


def test_truncate_then_extend_recovers_ranking():
    p = Preference((2, 0, 1), 3)
    for x in (2, 0, 1):
        assert complete_extension(truncate_at(p, x)).ranking == p.ranking


def test_truncation_extension_relations():
    p = Preference((0, 1, 2), 3)
    t = Preference((0, 1, 2), 1)
    rerank_tail = Preference((0, 2, 1), 1)  # same acceptable prefix, tail reordered
    assert is_truncation_of(t, p) and is_extension_of(p, t)
    assert not is_truncation_of(rerank_tail, p)  # truncations never re-rank the tail
    assert not is_truncation_of(p, t)
    assert not is_truncation_of(Preference((1, 0, 2), 2), p)


def test_top_in_pool_and_beats_acceptable_rest():
    # invariant: top(p, X) is in X, and beats every other acceptable member of X
    for spec in ("abcd", "ab|cd", "cadb", "|abcd"):
        p = pref(spec)
        for x in subsets_of(bundle("abcd")):
            t = top(p, x)
            if t is None:
                assert x & p.acceptable == 0
            else:
                assert x >> t & 1
                for o in objects_of(x & p.acceptable):
                    assert o == t or p.prefers(t, o)
            assert top_k(p, x, bundle_size(x)) == x


def test_picking_sequence_prefix_then_cycle():
    seq = PickingSequence(prefix=(1, 1), cycle=(1, 2))
    assert [seq.at(k) for k in range(6)] == [1, 1, 1, 2, 1, 2]
    with pytest.raises(ValueError):
        PickingSequence(prefix=(1,)).at(3)


def test_validate_allocation_overlap():
    prob = fixed_problem("abc", "abc")
    v = validate_allocation(prob, (bundle("a"), bundle("a")))
    assert v is not None and v.kind == "overlap"


def test_validate_allocation_ok():
    prob = fixed_problem("abc", "abc")
    assert validate_allocation(prob, (bundle("ab"), bundle("c"))) is None


def test_validate_allocation_quota_breach():
    prob = Problem(
        "quota", (1, 2), bundle("ab"), (pref("ab"), pref("ab")), quotas=(1, INFINITE)
    )
    v = validate_allocation(prob, (bundle("ab"), 0))
    assert v is not None and v.kind == "quota-breach"


def test_validate_allocation_outside_available():
    prob = fixed_problem("abc", "abc", available="ab")
    v = validate_allocation(prob, (bundle("c"), 0))
    assert v is not None and v.kind == "out-of-universe"


def test_fixed_and_quota_preferences_rank_every_available_object():
    """A fixed or quota preference that leaves an available object unranked is refused, as
    the docstring says; before, a draft over it found no object to pick."""
    with pytest.raises(ValueError, match="unranked"):
        Problem("fixed", (1, 2), 0b111, (Preference((0, 1)), Preference((2, 1, 0))))
    with pytest.raises(ValueError, match="unranked"):
        Problem("quota", (1, 2), 0b011, (Preference((1, 0)), Preference((0, 2))), (1, 1))
    # a preference may rank objects outside the available set, or exactly that set
    Problem("fixed", (1, 2), 0b011, (Preference((1, 0)), Preference((2, 0, 1))))
    Problem("quota", (1, 2), 0b011, (Preference((1, 0)), Preference((0, 1))), (1, 1))


def test_problem_validation():
    with pytest.raises(ValueError):
        Problem("fixed", (1,), 0, (pref("ab"),))
    with pytest.raises(ValueError):
        Problem("fixed", (1, 2), bundle("ab"), (pref("ab"),))
    with pytest.raises(ValueError):
        Problem("nope", (1,), 1, (pref("a"),))
    with pytest.raises(ValueError):
        Problem("quota", (1,), 1, (pref("a"),), quotas=(0,))
