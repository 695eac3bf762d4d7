from itertools import product

import pytest

from draftkit.core import (
    INFINITE,
    Preference,
    Problem,
    bundle_size,
    objects_of,
    subsets_of,
    top,
    validate_allocation,
)
from draftkit.rules import (
    Case,
    Rule,
    dictatorship,
    draft_rule,
    null_allocation,
    piecewise_rule,
    priority_draft,
    problem_key,
    quota_draft,
    rm_counterexample,
    serial_dictatorship,
    snake_draft,
    tabulated_rule,
    unacceptable_draft,
    variable_draft,
    wrp_counterexample,
)

from helpers import as_sets, bundle, fixed_problem, naive_draft, unacc_problem

WORKED_EXAMPLE = fixed_problem("abcd", "cdba", "adcb")


def test_worked_example_allocation_and_trace():
    alloc, trace = priority_draft(WORKED_EXAMPLE, (1, 2, 3))
    assert alloc == (bundle("ab"), bundle("c"), bundle("d"))
    assert [(agent, obj) for _, agent, obj in trace] == [(1, 0), (2, 2), (3, 3), (1, 1)]


def test_single_agent_takes_everything():
    prob = fixed_problem("cba")
    alloc, _ = priority_draft(prob, (1,))
    assert alloc == (bundle("abc"),)


def test_two_agent_manipulation_instance_truthful_outcome():
    prob = fixed_problem("abc", "bca")
    alloc, _ = priority_draft(prob, (1, 2))
    assert alloc == (bundle("ac"), bundle("b"))


def test_reversed_priority_hand_simulation():
    alloc, trace = priority_draft(WORKED_EXAMPLE, (3, 2, 1))
    assert [agent for _, agent, _ in trace] == [3, 2, 1, 3]
    naive = naive_draft(WORKED_EXAMPLE, [3, 2, 1], 4)
    assert as_sets(alloc) == (naive[1], naive[2], naive[3])


def test_draft_agrees_with_naive_simulation_exhaustively():
    rankings = list(product(*[list(__import__("itertools").permutations(range(3)))] * 2))
    for r1, r2 in rankings:
        for x in subsets_of((1 << 3) - 1):
            prob = Problem("fixed", (1, 2), x, (Preference(r1), Preference(r2)))
            alloc, _ = priority_draft(prob, (1, 2))
            naive = naive_draft(prob, [1, 2], bundle_size(x))
            assert as_sets(alloc) == (naive[1], naive[2])


def test_more_agents_than_objects():
    prob = fixed_problem("ab", "ab", "ab")
    alloc, _ = priority_draft(prob, (1, 2, 3))
    assert alloc == (bundle("a"), bundle("b"), 0)


def quota_problem(*prefs, quotas, available=None):
    base = fixed_problem(*prefs, available=available)
    return Problem("quota", base.agents, base.available, base.profile, quotas=quotas)


def test_quota_draft_binding_quotas():
    prob = quota_problem("abc", "abc", quotas=(1, 1))
    alloc, _ = quota_draft(prob, (1, 2))
    assert alloc == (bundle("a"), bundle("b"))  # c stays unassigned


def test_quota_draft_derived_two_one():
    prob = quota_problem("abc", "abc", quotas=(2, 1))
    alloc, trace = quota_draft(prob, (1, 2))
    assert alloc == (bundle("ac"), bundle("b"))
    assert [obj for _, _, obj in trace] == [0, 1, 2, None, None]


def test_infinite_quotas_reproduce_plain_draft_exhaustively():
    # all problems with n in {2,3}, universe of up to 4 objects
    from itertools import permutations

    for n in (2, 3):
        for m in (2, 3, 4):
            rankings = list(permutations(range(m)))
            for combo in product(rankings, repeat=n):
                for x in subsets_of((1 << m) - 1):
                    prefs = tuple(Preference(r) for r in combo)
                    agents = tuple(range(1, n + 1))
                    fixed = Problem("fixed", agents, x, prefs)
                    quota = Problem("quota", agents, x, prefs, quotas=(INFINITE,) * n)
                    assert (
                        quota_draft(quota, agents)[0] == priority_draft(fixed, agents)[0]
                    )


def test_unacceptable_draft_all_unacceptable():
    prob = unacc_problem("|ab", "|ab")
    alloc, _ = unacceptable_draft(prob, (1, 2))
    assert alloc == (0, 0)


def test_unacceptable_draft_all_acceptable_equals_draft():
    prob = unacc_problem("abc|", "cba|")
    fixed = fixed_problem("abc", "cba")
    assert unacceptable_draft(prob, (1, 2))[0] == priority_draft(fixed, (1, 2))[0]


def test_unacceptable_draft_derived_example():
    prob = unacc_problem("a|b", "|ab")
    alloc, trace = unacceptable_draft(prob, (1, 2))
    assert alloc == (bundle("a"), 0)
    assert [obj for _, _, obj in trace] == [0, None, None]


def variable_problem(agents, available_names, *prefs):
    from helpers import bundle as b, pref as p

    return Problem(
        "variable", tuple(agents), b(available_names), tuple(p(s) for s in prefs)
    )


def test_variable_draft_full_population_matches_fixed():
    prob = WORKED_EXAMPLE
    var = Problem("variable", prob.agents, prob.available, prob.profile)
    assert variable_draft(var, (1, 2, 3))[0] == priority_draft(prob, (1, 2, 3))[0]


def test_variable_draft_single_unit_serial_picks():
    prob = variable_problem([2, 5], "ab", "ab", "ab")
    alloc, _ = variable_draft(prob, (1, 2, 3, 4, 5))
    assert alloc == (bundle("a"), bundle("b"))


def test_variable_draft_empty_available():
    prob = Problem("variable", (1, 2), 0, (Preference(()), Preference(())))
    assert variable_draft(prob, (1, 2))[0] == (0, 0)


def test_serial_dictatorship_fixed_equals_dictatorship():
    prob = fixed_problem("abc", "cba")
    assert serial_dictatorship(prob, (1, 2))[0] == dictatorship(prob, (1, 2))[0]


def test_serial_dictatorship_unacceptable_recursion():
    prob = unacc_problem("ab|c", "a|bc", "abc|")
    alloc, _ = serial_dictatorship(prob, (1, 2, 3))
    # displayed recursion: X ∩ U(1), then X ∩ U(2) minus taken, then X ∩ U(3) minus taken
    taken = 0
    expected = []
    for agent in (1, 2, 3):
        t = prob.available & prob.pref_of(agent).acceptable & ~taken
        expected.append(t)
        taken |= t
    assert list(alloc) == expected
    assert alloc == (bundle("ab"), 0, bundle("c"))


def test_null_and_dictatorship():
    prob = fixed_problem("abc", "bac")
    assert null_allocation(prob)[0] == (0, 0)
    assert dictatorship(prob, (2, 1))[0] == (0, bundle("abc"))


def test_snake_single_round_equals_draft():
    prob = variable_problem([1, 2, 3], "ab", "ab", "ab", "ba")
    assert snake_draft(prob, (1, 2, 3))[0] == variable_draft(prob, (1, 2, 3))[0]


def test_snake_derived_two_rounds():
    prob = fixed_problem("abcd", "abcd")
    assert snake_draft(prob, (1, 2))[0] == (bundle("ad"), bundle("bc"))


def test_piecewise_empty_overrides_is_default():
    rule = piecewise_rule(draft_rule((1, 2)), [])
    prob = fixed_problem("ab", "ba")
    assert rule.allocate(prob) == draft_rule((1, 2)).allocate(prob)


def test_piecewise_first_match_wins():
    rule = piecewise_rule(
        draft_rule((1, 2)),
        [
            (Case(), Rule("zero", lambda p: ((0,) * len(p.agents), None))),
            (Case(), draft_rule((2, 1))),
        ],
    )
    assert rule.allocate(fixed_problem("ab", "ab")) == (0, 0)


def test_counterexample_rules_dispatch():
    wrp = wrp_counterexample(2, 3)
    unanimous = fixed_problem("abc", "abc")
    other = fixed_problem("abc", "acb")
    assert wrp.allocate(unanimous) == (bundle("ac"), bundle("b"))
    assert wrp.allocate(other)[1] != 0 and wrp.allocate(other)[1] & bundle("a")

    rm = rm_counterexample(2)
    special = fixed_problem("abc", "bca")
    assert rm.allocate(special) == (bundle("ab"), bundle("c"))
    assert rm.allocate(fixed_problem("abc", "bca", available="ab")) == (
        bundle("a"),
        bundle("b"),
    )


def test_tabulated_rule_lookup_and_miss():
    prob = fixed_problem("ab", "ba")
    table = {problem_key(prob): (bundle("b"), bundle("a"))}
    rule = tabulated_rule("t", table)
    assert rule.allocate(prob) == (bundle("b"), bundle("a"))
    with pytest.raises(KeyError):
        rule.allocate(fixed_problem("ab", "ab"))


def test_problem_key_restricts_to_available():
    a = fixed_problem("abc", "bca", available="ab")
    b = fixed_problem("acb", "bac", available="ab")  # same restriction to {a,b}
    assert problem_key(a) == problem_key(b)


def test_trace_replays_greedily_and_validates():
    # every engine output validates; draft traces pick the top of the remaining set
    from itertools import permutations

    for r1 in permutations(range(3)):
        for r2 in permutations(range(3)):
            for x in subsets_of(7):
                prob = Problem("fixed", (1, 2), x, (Preference(r1), Preference(r2)))
                alloc, trace = priority_draft(prob, (1, 2))
                assert validate_allocation(prob, alloc) is None
                remaining = x
                rebuilt = {1: 0, 2: 0}
                for k, agent, obj in trace:
                    assert obj == top(prob.pref_of(agent), remaining)
                    remaining &= ~(1 << obj)
                    rebuilt[agent] |= 1 << obj
                assert (rebuilt[1], rebuilt[2]) == alloc


def test_every_engine_output_validates():
    prob = unacc_problem("ab|c", "c|ab")
    quota = quota_problem("abc", "cba", quotas=(1, 2))
    fixed = fixed_problem("abc", "cba")
    var = variable_problem([1, 2], "abc", "abc", "cab")
    checks = [
        (prob, unacceptable_draft(prob, (1, 2))[0]),
        (quota, quota_draft(quota, (1, 2))[0]),
        (fixed, priority_draft(fixed, (1, 2))[0]),
        (fixed, serial_dictatorship(fixed, (1, 2))[0]),
        (fixed, dictatorship(fixed, (1, 2))[0]),
        (fixed, null_allocation(fixed)[0]),
        (var, variable_draft(var, (2, 1))[0]),
        (var, snake_draft(var, (1, 2))[0]),
    ]
    for problem, alloc in checks:
        assert validate_allocation(problem, alloc) is None


def test_rm_lemma_for_draft_small():
    # adding an object everyone ranks below her own bundle only ever grows bundles
    from itertools import permutations

    for n, m in ((2, 4), (3, 3)):
        agents = tuple(range(1, n + 1))
        rankings = list(permutations(range(m)))
        for combo in product(rankings, repeat=n):
            prefs = tuple(Preference(r) for r in combo)
            for x in subsets_of((1 << m) - 1):
                if x == (1 << m) - 1:
                    continue
                prob = Problem("fixed", agents, x, prefs)
                alloc, _ = priority_draft(prob, agents)
                for extra in objects_of(((1 << m) - 1) & ~x):
                    ok = all(
                        all(p.prefers(y, extra) for y in objects_of(b))
                        for p, b in zip(prefs, alloc)
                    )
                    if not ok:
                        continue
                    bigger = Problem("fixed", agents, x | 1 << extra, prefs)
                    balloc, _ = priority_draft(bigger, agents)
                    assert all(b & a == a for a, b in zip(alloc, balloc))
