import gc
import weakref
from itertools import product

import numpy as np
import pytest

import scalar_checkers as oracle
from draftkit.axioms import (
    ProblemDomain,
    ProblemKeys,
    fixed_domain,
    quota_domain,
    unacceptable_domain,
    variable_domain,
)
from draftkit.core import (
    INFINITE,
    PickingSequence,
    Preference,
    Problem,
    bundle_size,
    objects_of,
    subsets_of,
    top,
    validate_allocation,
)
from draftkit.rules import (
    _RECENT_SPACES,
    _pick_rows,
    Case,
    dictatorship_rule,
    draft_rule,
    ir_counterexample,
    neutrality_counterexample,
    null_rule,
    pairwise_consistency_counterexample,
    pick_table,
    piecewise_rule,
    population_rm_counterexample,
    quota_draft_rule,
    rm_counterexample,
    sequence_draft_rule,
    serial_dictatorship_rule,
    snake_draft_rule,
    tabulated_rule,
    unacceptable_draft_rule,
    variable_draft_rule,
    wrp_counterexample,
)

from helpers import as_sets, bundle, fixed_problem, key_code, naive_draft, pref, unacc_problem

WORKED_EXAMPLE = fixed_problem("abcd", "cdba", "adcb")


def test_worked_example_allocation_and_trace():
    alloc, trace = draft_rule((1, 2, 3)).run(WORKED_EXAMPLE)
    assert alloc == (bundle("ab"), bundle("c"), bundle("d"))
    assert [(agent, obj) for _, agent, obj in trace] == [(1, 0), (2, 2), (3, 3), (1, 1)]


def test_single_agent_takes_everything():
    prob = fixed_problem("cba")
    alloc, _ = draft_rule((1,)).run(prob)
    assert alloc == (bundle("abc"),)


def test_two_agent_manipulation_instance_truthful_outcome():
    prob = fixed_problem("abc", "bca")
    alloc, _ = draft_rule((1, 2)).run(prob)
    assert alloc == (bundle("ac"), bundle("b"))


def test_reversed_priority_hand_simulation():
    alloc, trace = draft_rule((3, 2, 1)).run(WORKED_EXAMPLE)
    assert [agent for _, agent, _ in trace] == [3, 2, 1, 3]
    naive = naive_draft(WORKED_EXAMPLE, [3, 2, 1], 4)
    assert as_sets(alloc) == (naive[1], naive[2], naive[3])


def test_draft_agrees_with_naive_simulation_exhaustively():
    rankings = list(product(*[list(__import__("itertools").permutations(range(3)))] * 2))
    draft = draft_rule((1, 2))
    for r1, r2 in rankings:
        for x in subsets_of((1 << 3) - 1):
            prob = Problem("fixed", (1, 2), x, (Preference(r1), Preference(r2)))
            alloc, _ = draft.run(prob)
            naive = naive_draft(prob, [1, 2], bundle_size(x))
            assert as_sets(alloc) == (naive[1], naive[2])


def test_more_agents_than_objects():
    prob = fixed_problem("ab", "ab", "ab")
    alloc, _ = draft_rule((1, 2, 3)).run(prob)
    assert alloc == (bundle("a"), bundle("b"), 0)


def quota_problem(*prefs, quotas, available=None):
    base = fixed_problem(*prefs, available=available)
    return Problem("quota", base.agents, base.available, base.profile, quotas=quotas)


def test_quota_draft_binding_quotas():
    prob = quota_problem("abc", "abc", quotas=(1, 1))
    alloc, _ = quota_draft_rule((1, 2)).run(prob)
    assert alloc == (bundle("a"), bundle("b"))  # c stays unassigned


def test_quota_draft_derived_two_one():
    prob = quota_problem("abc", "abc", quotas=(2, 1))
    alloc, trace = quota_draft_rule((1, 2)).run(prob)
    assert alloc == (bundle("ac"), bundle("b"))
    assert [obj for _, _, obj in trace] == [0, 1, 2, None, None]


def test_quota_draft_reads_quotas_given_as_a_list():
    listed = Problem("quota", (1, 2), bundle("abc"), (pref("abc"), pref("abc")), quotas=[2, 1])
    assert listed.quotas == (2, 1)
    assert quota_draft_rule((1, 2)).allocate(listed) == (bundle("ac"), bundle("b"))


def test_infinite_quotas_reproduce_plain_draft_exhaustively():
    # all problems with n in {2,3}, universe of up to 4 objects
    from itertools import permutations

    for n in (2, 3):
        agents = tuple(range(1, n + 1))
        quota_draft, draft = quota_draft_rule(agents), draft_rule(agents)
        for m in (2, 3, 4):
            rankings = list(permutations(range(m)))
            for combo in product(rankings, repeat=n):
                for x in subsets_of((1 << m) - 1):
                    prefs = tuple(Preference(r) for r in combo)
                    fixed = Problem("fixed", agents, x, prefs)
                    quota = Problem("quota", agents, x, prefs, quotas=(INFINITE,) * n)
                    assert quota_draft.allocate(quota) == draft.allocate(fixed)


def test_unacceptable_draft_all_unacceptable():
    prob = unacc_problem("|ab", "|ab")
    alloc, _ = unacceptable_draft_rule((1, 2)).run(prob)
    assert alloc == (0, 0)


def test_unacceptable_draft_all_acceptable_equals_draft():
    prob = unacc_problem("abc|", "cba|")
    fixed = fixed_problem("abc", "cba")
    assert unacceptable_draft_rule((1, 2)).run(prob)[0] == draft_rule((1, 2)).run(fixed)[0]


def test_unacceptable_draft_derived_example():
    prob = unacc_problem("a|b", "|ab")
    alloc, trace = unacceptable_draft_rule((1, 2)).run(prob)
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
    assert variable_draft_rule((1, 2, 3)).run(var)[0] == draft_rule((1, 2, 3)).run(prob)[0]


def test_variable_draft_single_unit_serial_picks():
    prob = variable_problem([2, 5], "ab", "ab", "ab")
    alloc, _ = variable_draft_rule((1, 2, 3, 4, 5)).run(prob)
    assert alloc == (bundle("a"), bundle("b"))


def test_variable_draft_empty_available():
    prob = Problem("variable", (1, 2), 0, (Preference(()), Preference(())))
    assert variable_draft_rule((1, 2)).run(prob)[0] == (0, 0)


def test_serial_dictatorship_fixed_equals_dictatorship():
    prob = fixed_problem("abc", "cba")
    assert serial_dictatorship_rule((1, 2)).run(prob) == dictatorship_rule((1, 2)).run(prob)


def test_serial_dictatorship_unacceptable_recursion():
    prob = unacc_problem("ab|c", "a|bc", "abc|")
    alloc, _ = serial_dictatorship_rule((1, 2, 3)).run(prob)
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
    assert null_rule().run(prob) == ((0, 0), None)
    assert dictatorship_rule((2, 1)).run(prob) == ((0, bundle("abc")), None)


def test_snake_single_round_equals_draft():
    prob = variable_problem([1, 2, 3], "ab", "ab", "ab", "ba")
    assert snake_draft_rule((1, 2, 3)).run(prob)[0] == variable_draft_rule((1, 2, 3)).run(prob)[0]


def test_snake_derived_two_rounds():
    prob = fixed_problem("abcd", "abcd")
    assert snake_draft_rule((1, 2)).run(prob)[0] == (bundle("ad"), bundle("bc"))


def test_piecewise_empty_overrides_is_default():
    rule = piecewise_rule(draft_rule((1, 2)), [])
    prob = fixed_problem("ab", "ba")
    assert rule.allocate(prob) == draft_rule((1, 2)).allocate(prob)


def test_piecewise_first_match_wins():
    rule = piecewise_rule(
        draft_rule((1, 2)),
        [
            (Case(), oracle.scalar_rule("zero", lambda p: ((0,) * len(p.agents), None))),
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
    """A code table allocates its entry at each key; a problem outside the index's domain
    raises KeyError: another available set, population, variant, quotas or preference."""
    index = ProblemKeys(ProblemDomain("fixed", 2, ((1, 2),), (bundle("ab"),)))
    splits = [(bundle("a"), bundle("b")), (bundle("b"), bundle("a")), (bundle("ab"), 0), (0, 0)]
    rule = tabulated_rule("t", index, splits)
    assert [rule.allocate(p) for p in index.problems(0)] == splits
    prob = fixed_problem("ab", "ba")
    assert rule.allocate(prob) == splits[key_code(index, prob)] == splits[1]
    for outside in (
        fixed_problem("ab", "ba", available="a"),
        Problem("fixed", (1, 3), bundle("ab"), prob.profile),
        Problem("quota", (1, 2), bundle("ab"), prob.profile, (1, 1)),
        Problem("unacceptable", (1, 2), bundle("ab"), (pref("a|b"), pref("ba"))),
        fixed_problem("abc", "bac", available="ab"),
    ):
        with pytest.raises(KeyError, match="rule 't' is not defined at this problem"):
            rule.allocate(outside)


def test_engine_only_rules_refuse_problems_past_eight_objects():
    """A rule without a scalar runner allocates through one row of its engine. The pick
    table's bundles are 8-bit, so the engines that read it refuse nine objects; a plan
    rule's runner and the reference rules' widening rows still serve them."""
    nine = Problem("unacceptable", (1, 2), 0b11, (Preference(tuple(range(9)), 9),) * 2)
    assert unacceptable_draft_rule((1, 2)).allocate(nine) == (0b01, 0b10)
    wide = Problem("unacceptable", (1, 2), 0x1FF, (Preference(tuple(range(9)), 5),) * 2)
    assert serial_dictatorship_rule((2, 1)).run(wide) == ((0, 0x1F), None)
    assert dictatorship_rule((2, 1)).run(wide) == ((0, 0x1FF), None)
    assert null_rule().run(wide) == ((0, 0), None)
    for rule in (ir_counterexample((1, 2)), neutrality_counterexample((1, 2), 0)):
        with pytest.raises(ValueError, match="at most 8 objects, not 9"):
            rule.allocate(nine)


def test_problem_key_restricts_to_available():
    """The oracle's key, and the key code that stands for it, restrict to the available set."""
    a = fixed_problem("abc", "bca", available="ab")
    b = fixed_problem("acb", "bac", available="ab")  # same restriction to {a,b}
    assert oracle.problem_key(a) == oracle.problem_key(b)
    index = ProblemKeys(fixed_domain(2, 3))
    assert key_code(index, a) == key_code(index, b)


def test_trace_replays_greedily_and_validates():
    # every engine output validates; draft traces pick the top of the remaining set
    from itertools import permutations

    draft = draft_rule((1, 2))
    for r1 in permutations(range(3)):
        for r2 in permutations(range(3)):
            for x in subsets_of(7):
                prob = Problem("fixed", (1, 2), x, (Preference(r1), Preference(r2)))
                alloc, trace = draft.run(prob)
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
        (prob, unacceptable_draft_rule((1, 2)).run(prob)[0]),
        (quota, quota_draft_rule((1, 2)).run(quota)[0]),
        (fixed, draft_rule((1, 2)).run(fixed)[0]),
        (fixed, serial_dictatorship_rule((1, 2)).run(fixed)[0]),
        (fixed, dictatorship_rule((1, 2)).run(fixed)[0]),
        (fixed, null_rule().run(fixed)[0]),
        (var, variable_draft_rule((2, 1)).run(var)[0]),
        (var, snake_draft_rule((1, 2)).run(var)[0]),
    ]
    for problem, alloc in checks:
        assert validate_allocation(problem, alloc) is None


def test_rm_lemma_for_draft_small():
    # adding an object everyone ranks below her own bundle only ever grows bundles
    from itertools import permutations

    for n, m in ((2, 4), (3, 3)):
        agents = tuple(range(1, n + 1))
        draft = draft_rule(agents)
        rankings = list(permutations(range(m)))
        for combo in product(rankings, repeat=n):
            prefs = tuple(Preference(r) for r in combo)
            for x in subsets_of((1 << m) - 1):
                if x == (1 << m) - 1:
                    continue
                prob = Problem("fixed", agents, x, prefs)
                alloc = draft.allocate(prob)
                for extra in objects_of(((1 << m) - 1) & ~x):
                    ok = all(
                        all(p.prefers(y, extra) for y in objects_of(b))
                        for p, b in zip(prefs, alloc)
                    )
                    if not ok:
                        continue
                    bigger = Problem("fixed", agents, x | 1 << extra, prefs)
                    balloc = draft.allocate(bigger)
                    assert all(b & a == a for a, b in zip(alloc, balloc))


def _last_first(priority):
    """A picking sequence that is not a round robin: the last agent picks first."""
    return PickingSequence((priority[-1],), priority)


# each plan rule's factory and its step-by-step oracle, both taking a priority
PLAN_RULES = {
    "draft": (draft_rule, oracle.draft),
    "sequence-draft": (
        lambda pi: sequence_draft_rule(_last_first(pi)),
        lambda p, pi: oracle.sequence_draft(p, _last_first(pi)),
    ),
    "quota-draft": (quota_draft_rule, oracle.quota_draft),
    "u-draft": (unacceptable_draft_rule, oracle.unacceptable_draft),
    "variable-draft": (variable_draft_rule, oracle.variable_draft),
    "snake": (snake_draft_rule, oracle.snake_draft),
    "population-rm-cx": (population_rm_counterexample, oracle.population_rm_draft),
    "pairwise-consistency-cx": (
        pairwise_consistency_counterexample,
        oracle.pairwise_consistency_draft,
    ),
}
PLAN_DOMAINS = {
    "fixed23": fixed_domain(2, 3),
    "fixed33": fixed_domain(3, 3),
    "quota23-1-2": quota_domain(2, 3, (1, 2)),
    "unacceptable23": unacceptable_domain(2, 3),
    "variable23": variable_domain(2, 3),
    "variable33": variable_domain(3, 3),
}


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:  # a rule must fail where, and as, its oracle fails
        return type(exc), str(exc)


@pytest.mark.parametrize("reverse", [False, True], ids=["identity", "reversed"])
@pytest.mark.parametrize("rule_name", sorted(PLAN_RULES))
@pytest.mark.parametrize("domain_name", sorted(PLAN_DOMAINS))
def test_plan_rules_run_as_the_step_by_step_oracle(domain_name, rule_name, reverse):
    """Rule.run gives the oracle's allocation and trace, or its error, at every problem."""
    domain = PLAN_DOMAINS[domain_name]
    make, run_oracle = PLAN_RULES[rule_name]
    priority = domain.populations[-1][:: -1 if reverse else 1]
    rule = make(priority)
    for problem in domain.problems():
        expected = _outcome(lambda: run_oracle(problem, priority))
        assert _outcome(lambda: rule.run(problem)) == expected, problem


def test_tables_of_past_preference_spaces_are_freed():
    """A process that meets ever new preference spaces keeps only the recent ones' tables."""
    tables = [weakref.ref(pick_table((Preference((0, 1, 2)),) * k)) for k in range(1, 201)]
    gc.collect()
    assert sum(table() is not None for table in tables) <= 2 * _RECENT_SPACES


def test_block_draft_gathers_no_turn_after_the_last_possible_pick():
    """A block whose turns may pass reads no turn past n·|X|, and stops at n turns that
    pick in no row; the allocations are those of running every turn."""
    seen = []

    class Reads(tuple):
        def __getitem__(self, k):
            seen.append(k)
            return tuple.__getitem__(self, k)

    nothing, everything = Preference((0, 1, 2), 0), Preference((0, 1, 2), 3)
    turns = (0, 1) * 4  # two agents, three objects: the passing draft's |X| + 1 rounds
    limits = Reads((INFINITE,) * len(turns))
    digits = np.array([[0, 1], [1, 0], [1, 1]])
    got = _pick_rows((nothing, everything), digits, 0b111, turns, limits)
    assert got.tolist() == [[0, 0b111], [0b111, 0], [0b101, 0b010]]
    assert seen == list(range(6))  # agent 2 alone picks until turn 5; the last round is not read
    seen.clear()
    got = _pick_rows((nothing, everything), digits[2:], 0b111, turns, limits)
    assert got.tolist() == [[0b101, 0b010]] and seen == list(range(5))  # turns 3 and 4 pick nothing
