from itertools import product

import numpy as np
import pytest

from draftkit.axioms import (
    AXIOM_CHECKERS,
    PRIORITY_AXIOM_CHECKERS,
    VARIABLE_AXIOM_CHECKERS,
    FixedSweep,
    ProblemKeys,
    check_2con,
    check_2neu,
    check_con,
    check_ef,
    check_ef1,
    check_ef1_var,
    check_eff,
    check_eff_var,
    check_ep,
    check_ir,
    check_msp,
    check_msp_certificate,
    check_msp_falsify,
    check_neu,
    check_nw,
    check_nw_quota,
    check_nw_var,
    check_nw_star,
    check_rm,
    check_rm_var,
    check_rp,
    check_rt,
    check_sp,
    check_tcon,
    check_ti,
    check_tp,
    check_truthful_best_case,
    check_wrp_any,
    check_wrp_quota,
    check_wrp_star,
    critical_agent,
    fixed_domain,
    quota_domain,
    unacceptable_domain,
    variable_domain,
)
from draftkit.core import Preference, Problem, preference_space, subsets_of
from draftkit.csp import build_csp
from draftkit.dominance import geometric_scheme, linear_scheme, random_scheme
from draftkit.rules import (
    draft_rule,
    dictatorship_rule,
    ir_counterexample,
    neutrality_counterexample,
    null_rule,
    pairwise_consistency_counterexample,
    population_rm_counterexample,
    problem_key,
    quota_draft_rule,
    rm_counterexample,
    serial_dictatorship_rule,
    snake_draft_rule,
    tabulated_rule,
    ti_counterexample,
    unacceptable_draft_rule,
    variable_draft_rule,
    wrp_counterexample,
    wrp_star_counterexample,
)
from draftkit.verifier import pareto_efficient

from helpers import bundle, fixed_problem, pref
from scalar_checkers import pareto_oracle, restricted_code, scalar_rule

D23 = fixed_domain(2, 3)
PI2 = (1, 2)


def verdicts(rule, domain, priority):
    return {
        "RP": check_rp(rule, domain, priority).holds,
        "EF1": check_ef1(rule, domain).holds,
        "EFF": check_eff(rule, domain).holds,
        "NW": check_nw(rule, domain).holds,
        "SP": check_sp(rule, domain).holds,
        "WSP": check_wsp_holds(rule, domain),
    }


def check_wsp_holds(rule, domain):
    from draftkit.axioms import check_wsp

    return check_wsp(rule, domain).holds


def test_table1_matrix_small():
    expected = {
        "null": dict(RP=True, EF1=True, EFF=False, NW=False, SP=True, WSP=True),
        "dict": dict(RP=True, EF1=False, EFF=True, NW=True, SP=True, WSP=True),
        "draft": dict(RP=True, EF1=True, EFF=True, NW=True, SP=False, WSP=False),
    }
    rules = {
        "null": null_rule(),
        "dict": dictatorship_rule(PI2),
        "draft": draft_rule(PI2),
    }
    for name, rule in rules.items():
        assert verdicts(rule, D23, PI2) == expected[name], name


def test_draft_wsp_witness_is_manipulation_example():
    from draftkit.axioms import check_wsp

    rep = check_wsp(draft_rule(PI2), D23)
    assert not rep.holds
    w = rep.witness
    assert w["problem"]["profile"] == {1: "a>b>c", 2: "b>c>a"}
    assert w["agent"] == 1
    assert w["misreport"] == "b>a>c"
    assert w["misreport_bundle"] == "{a,b}" and w["truthful_bundle"] == "{a,c}"


def test_rt_verdicts():
    assert check_rt(draft_rule(PI2), D23).holds
    assert check_rt(null_rule(), D23).holds
    # the dominated allocation served as a tabulated rule on a one-problem domain
    prob = fixed_problem("abcd", "dcba")
    dom = fixed_domain(2, 4)
    bad = tabulated_rule(
        "bad", {problem_key(prob): (bundle("ac"), bundle("bd"))}, fallback=draft_rule(PI2)
    )
    rep = check_rt(bad, dom)
    assert not rep.holds and len(rep.witness["cycle"]) == 2


def _array_oracle(prob, alloc) -> bool:
    rows = np.array([alloc], dtype=np.uint8)
    return bool(pareto_efficient([prob], rows, len(prob.profile[0].ranking))[0, 0])


def test_pareto_oracle_examples():
    for oracle in (pareto_oracle, _array_oracle):
        prob = fixed_problem("abcd", "dcba")
        assert not oracle(prob, (bundle("ac"), bundle("bd")))
        assert oracle(prob, (bundle("ab"), bundle("cd")))
        single = fixed_problem("a", "a", available="a")
        assert oracle(single, (bundle("a"), 0))
        assert not oracle(single, (0, 0))


def test_efficiency_decomposition_matches_oracle_exhaustively():
    # every allocation at every problem: NW+RT iff no strict Pareto dominator (n=2, m=3)
    from draftkit.axioms import _trade_cycle, _union

    m = 3
    dom = fixed_domain(2, m)
    prefs = dom.preference_space()
    for x in dom.available_sets:
        objs = [o for o in range(m) if x >> o & 1]
        for p1, p2 in product(prefs, repeat=2):
            prob = Problem("fixed", (1, 2), x, (p1, p2))
            for assign in product(range(3), repeat=len(objs)):
                alloc = [0, 0]
                for o, who in zip(objs, assign):
                    if who < 2:
                        alloc[who] |= 1 << o
                alloc = tuple(alloc)
                fast = _union(alloc) == x and _trade_cycle((p1, p2), alloc) is None
                assert fast == pareto_oracle(prob, alloc)


def test_unacc_efficiency_decomposition_matches_oracle_exhaustively():
    from draftkit.axioms import _trade_cycle, _union

    m = 2
    dom = unacceptable_domain(2, m)
    prefs = dom.preference_space()
    for x in dom.available_sets:
        objs = [o for o in range(m) if x >> o & 1]
        for p1, p2 in product(prefs, repeat=2):
            prob = Problem("unacceptable", (1, 2), x, (p1, p2))
            wanted = (p1.acceptable | p2.acceptable) & x
            for assign in product(range(3), repeat=len(objs)):
                alloc = [0, 0]
                for o, who in zip(objs, assign):
                    if who < 2:
                        alloc[who] |= 1 << o
                alloc = tuple(alloc)
                ir = all(not (b & ~p.acceptable) for p, b in zip((p1, p2), alloc))
                nw_star = wanted & ~_union(alloc) == 0
                fast = ir and nw_star and _trade_cycle((p1, p2), alloc) is None
                assert fast == pareto_oracle(prob, alloc)


def test_rm_holds_for_draft_and_fails_for_counterexample():
    assert check_rm(draft_rule(PI2), D23).holds
    rule = rm_counterexample(2)
    rep = check_rm(rule, D23)
    assert not rep.holds
    # the displayed instance replays: dropping x3 from the pinned problem helps agent 2
    special = fixed_problem("abc", "bca")
    smaller = fixed_problem("abc", "bca", available="ab")
    from draftkit.dominance import weakly_dominates

    big_bundle = rule.allocate(special)[1]
    small_bundle = rule.allocate(smaller)[1]
    assert small_bundle == bundle("b") and big_bundle == bundle("c")
    assert not weakly_dominates(pref("bca"), big_bundle, small_bundle)


def test_rm_trivial_subset_reflexivity():
    # X' = X is not even enumerated; equality of sets means no pair, so a one-set domain holds
    from draftkit.axioms import ProblemDomain

    dom = ProblemDomain("fixed", 2, ((1, 2),), (0b11,))
    assert check_rm(draft_rule(PI2), dom).holds


def test_wrp_counterexample_fails_every_priority_but_keeps_rest():
    rule = wrp_counterexample(2, 3)
    assert not check_wrp_any(rule, D23).holds
    assert check_ef1(rule, D23).holds
    assert check_eff(rule, D23).holds
    assert check_rm(rule, D23).holds


def test_sp_holds_for_null_and_dictatorship():
    assert check_sp(null_rule(), D23).holds
    assert check_sp(dictatorship_rule(PI2), D23).holds


def test_msp_certificate_for_draft():
    rep = check_msp_certificate(draft_rule(PI2), D23)
    assert rep.verdict == "proved"


def test_msp_certificate_clause_b_failure_reported():
    # at one non-unanimous profile both agents get nothing: worst case drops below unanimity
    special = fixed_problem("abc", "acb")
    rule = tabulated_rule("clause-b", {problem_key(special): (0, 0)}, fallback=draft_rule(PI2))
    rep = check_msp_certificate(rule, D23)
    assert rep.verdict == "violated" and rep.witness["clause"] == "b"


def test_msp_falsifier_draft_clean_and_refutes_truth_punisher():
    schemes = [geometric_scheme(3), linear_scheme(3)] + [random_scheme(3, s) for s in range(5)]
    assert check_msp_falsify(draft_rule(PI2), D23, schemes).verdict == "holds"

    truth_abc = Preference((0, 1, 2))

    def punish(p: Problem):
        if p.profile[0] == truth_abc:
            return (0,) * len(p.agents), None
        return draft_rule(PI2).run(p)

    punisher = scalar_rule("punish", punish, restriction_invariant=False)
    rep = check_msp_falsify(punisher, D23, schemes)
    assert rep.verdict == "refuted"
    assert check_msp(draft_rule(PI2), D23, schemes).verdict == "proved"


def test_truthful_best_case_top_k():
    schemes = [geometric_scheme(3), linear_scheme(3), random_scheme(3, 11)]
    assert check_truthful_best_case(draft_rule(PI2), D23, schemes).holds


def test_quota_checks_hold_for_quota_draft():
    for quotas in ((1, 1), (1, 2), (2, 1)):
        dom = quota_domain(2, 3, quotas)
        rule = quota_draft_rule(PI2)
        assert check_wrp_quota(rule, dom, PI2).holds
        assert check_nw_quota(rule, dom).holds
        assert check_ef1(rule, dom).holds
        assert check_rm(rule, dom).holds


def test_quota_wrp_violation_when_agent2_overfed():
    dom = quota_domain(2, 2, (1, 1))
    special = Problem("quota", (1, 2), bundle("ab"), (pref("ab"), pref("ab")), quotas=(1, 1))

    def greedy2(p: Problem):
        if p.available == bundle("ab"):
            return (0, bundle("ab")), None
        return quota_draft_rule(PI2).run(p)

    rep = check_wrp_quota(scalar_rule("greedy2", greedy2), dom, PI2)
    assert not rep.holds


def test_unacceptable_suite_for_udraft():
    dom = unacceptable_domain(2, 3)
    rule = unacceptable_draft_rule(PI2)
    for chk in (check_ir, check_nw_star, check_tp, check_ep, check_ti, check_ef1, check_rm):
        assert chk(rule, dom).holds, chk.__name__
    assert check_wrp_star(rule, dom, PI2).holds
    assert check_eff(rule, dom).holds


def test_ir_counterexample_fails_only_ir():
    dom = unacceptable_domain(2, 2)
    rule = ir_counterexample(PI2)
    assert not check_ir(rule, dom).holds
    assert check_nw_star(rule, dom).holds
    assert check_ef1(rule, dom).holds
    assert check_rm(rule, dom).holds
    assert check_ti(rule, dom).holds
    assert check_rp(rule, dom, PI2).holds


@pytest.mark.parametrize(
    "checker, domain, extra",
    [
        (check_tp, D23, ()),
        (check_ep, D23, ()),
        (check_ti, D23, ()),
        (check_tp, quota_domain(2, 3, (1, 2)), ()),
        (check_nw_quota, D23, ()),
        (check_nw_quota, unacceptable_domain(2, 2), ()),
        (check_wrp_quota, D23, (PI2,)),
        (check_msp_certificate, variable_domain(2, 2), ()),
        (check_msp_falsify, variable_domain(2, 2), ([linear_scheme(2)],)),
        (check_truthful_best_case, variable_domain(1, 2), ([linear_scheme(2)],)),
    ],
)
def test_checkers_refuse_variants_they_are_not_defined_on(checker, domain, extra):
    with pytest.raises(ValueError, match="is not defined on"):
        checker(draft_rule(PI2), domain, *extra)


def _cross_variant_cases():
    for name, checker in {**AXIOM_CHECKERS, **PRIORITY_AXIOM_CHECKERS}.items():
        extra = (PI2,) if name in PRIORITY_AXIOM_CHECKERS else ()
        yield pytest.param(name, checker, variable_domain(2, 2), extra, id=f"{name}-variable")
    for name, checker in VARIABLE_AXIOM_CHECKERS.items():
        yield pytest.param(name, checker, fixed_domain(2, 2), (), id=f"{name}-fixed")


@pytest.mark.parametrize("name, checker, domain, extra", _cross_variant_cases())
def test_checkers_refuse_the_other_population_model(name, checker, domain, extra):
    """The sweep takes the view of the domain's variant, so each checker refuses a variant
    it is not defined on itself; NW and EF1 alone are defined on every variant."""
    rule = variable_draft_rule(PI2) if domain.variant == "variable" else draft_rule(PI2)
    if name in ("NW", "EF1"):
        assert checker(rule, domain, *extra).holds
        return
    with pytest.raises(ValueError, match="is not defined on"):
        checker(rule, domain, *extra)


@pytest.mark.parametrize(
    "rule", [variable_draft_rule(PI2), null_rule(), dictatorship_rule(PI2)], ids=lambda r: r.name
)
def test_nw_and_ef1_are_one_scan_on_variable_domains(rule):
    domain = variable_domain(2, 3)
    assert check_nw(rule, domain) == check_nw_var(rule, domain)
    assert check_ef1(rule, domain) == check_ef1_var(rule, domain)


def test_ti_counterexample_replays_displayed_instance():
    rule = ti_counterexample(2, 3)
    dom = unacceptable_domain(2, 3)
    rep = check_ti(rule, dom)
    assert not rep.holds
    # displayed instance: truth a>b acceptable, truncating to a|b moves the bundle {a} to {}
    truth = Problem(
        "unacceptable",
        (1, 2),
        bundle("ab"),
        (Preference((1, 2, 0), 3), Preference((0, 1, 2), 2)),
    )
    truncated = Problem(
        "unacceptable",
        (1, 2),
        bundle("ab"),
        (Preference((1, 2, 0), 3), Preference((0, 1, 2), 1)),
    )
    assert rule.allocate(truth)[1] == bundle("a")
    assert rule.allocate(truncated)[1] == 0


def test_wrp_star_counterexample_flips_priorities():
    rule = wrp_star_counterexample(2, special_object=0)
    dom = unacceptable_domain(2, 2)
    assert not check_wrp_any(rule, dom, star=True).holds
    assert check_eff(rule, dom).holds
    assert check_ef1(rule, dom).holds
    assert check_rm(rule, dom).holds
    assert check_ti(rule, dom).holds


def test_serial_dictatorship_fails_ef1_keeps_rest():
    dom = unacceptable_domain(2, 2)
    rule = serial_dictatorship_rule(PI2)
    assert not check_ef1(rule, dom).holds
    assert check_ir(rule, dom).holds
    assert check_nw_star(rule, dom).holds
    assert check_rm(rule, dom).holds
    assert check_ti(rule, dom).holds
    assert check_rp(rule, dom, PI2).holds


def test_variable_suite_for_draft():
    dom = variable_domain(3, 3)
    rule = variable_draft_rule((1, 2, 3))
    for chk in (check_ef1_var, check_eff_var, check_rm_var, check_con, check_tcon, check_neu):
        assert chk(rule, dom).holds, chk.__name__


def test_variable_counterexamples():
    dom = variable_domain(3, 3)
    pi = (1, 2, 3)

    snake = snake_draft_rule(pi)
    assert not check_tcon(snake, dom).holds
    for chk in (check_ef1_var, check_eff_var, check_rm_var, check_2con, check_2neu):
        assert chk(snake, dom).holds, chk.__name__

    tail = population_rm_counterexample(pi)
    assert not check_rm_var(tail, dom).holds
    for chk in (check_ef1_var, check_eff_var, check_2con, check_tcon, check_2neu):
        assert chk(tail, dom).holds, chk.__name__

    switch = pairwise_consistency_counterexample(pi)
    assert not check_2con(switch, dom).holds
    for chk in (check_ef1_var, check_eff_var, check_rm_var, check_tcon, check_2neu):
        assert chk(switch, dom).holds, chk.__name__

    neu = neutrality_counterexample(pi, special_object=0)
    assert not check_2neu(neu, dom).holds
    for chk in (check_ef1_var, check_eff_var, check_rm_var, check_2con, check_tcon):
        assert chk(neu, dom).holds, chk.__name__

    vdict = dictatorship_rule(pi)
    assert not check_ef1_var(vdict, dom).holds
    for chk in (check_eff_var, check_rm_var, check_2con, check_tcon, check_2neu):
        assert chk(vdict, dom).holds, chk.__name__

    vnull = null_rule()
    assert not check_eff_var(vnull, dom).holds
    for chk in (check_ef1_var, check_rm_var, check_2con, check_tcon, check_2neu):
        assert chk(vnull, dom).holds, chk.__name__


def test_neutrality_counterexample_witnesses_past_four_objects():
    """Both reports count every relabeling of the sets of five objects before the witness."""
    dom = variable_domain(3, 5)
    neu = neutrality_counterexample((1, 2, 3), special_object=0)
    witness = {
        "problem": {
            "variant": "variable", "agents": [2, 3], "available": "{a}",
            "profile": {2: "a", 3: "a"},
        },
        "allocation": {2: "{}", 3: "{a}"},
        "relabeling": {"a": "b"},
        "relabeled_problem": {
            "variant": "variable", "agents": [2, 3], "available": "{b}",
            "profile": {2: "b", 3: "b"},
        },
        "relabeled_allocation": {2: "{b}", 3: "{}"},
    }
    for chk, checked in ((check_neu, 4_254_181), (check_2neu, 4_156_681)):
        rep = chk(neu, dom)
        assert (rep.verdict, rep.checked, rep.note, rep.witness) == (
            "violated", checked, "", witness
        ), chk.__name__


def test_critical_agent_examples():
    assert critical_agent((1, 2, 3), (bundle("ab"), bundle("c"), bundle("d")), (1, 2, 3)) == 1
    assert critical_agent((1, 2, 3), (bundle("a"), bundle("b"), bundle("c")), (1, 2, 3)) == 3
    assert critical_agent((1, 2, 3), (bundle("ab"), 0, bundle("c")), (1, 2, 3)) is None


def test_critical_agent_exists_for_draft_everywhere():
    dom = fixed_domain(3, 3)
    sw = FixedSweep(draft_rule((1, 2, 3)), dom)
    for xi in range(len(sw.xs)):
        for alloc in sw.grid(xi).tolist():
            assert critical_agent((1, 2, 3), alloc, (1, 2, 3)) is not None


def test_ef_holds_vacuously_for_null():
    assert check_ef(null_rule(), D23).holds
    assert not check_nw(null_rule(), D23).holds


def test_truthful_maxmin_equals_unanimous_adversary_utility():
    # with the certificate holding, the worst case of truth-telling is the unanimous profile
    from itertools import product as _product

    from draftkit.dominance import additive_utility, geometric_scheme

    dom = fixed_domain(2, 3)
    sw = FixedSweep(draft_rule(PI2), dom)
    scheme = geometric_scheme(3)
    for xi in range(len(sw.xs)):
        grid = sw.grid(xi).tolist()
        for slot in range(2):
            other = 1 - slot
            for truth_idx in range(sw.P):
                pref = sw.prefs[truth_idx]
                unanimous = grid[sw.encode([truth_idx] * 2)][slot]
                worst = min(
                    additive_utility(
                        pref, scheme, grid[sw.replace(sw.encode([truth_idx] * 2), other, adv)][slot]
                    )
                    for adv in range(sw.P)
                )
                assert worst == additive_utility(pref, scheme, unanimous)


@pytest.mark.parametrize("n, m", [(2, 3), (3, 3)])
def test_problem_keys_on_variable_domains_follow_the_domain(n, m):
    """Every (population, set) block is indexed, the empty set and one-agent populations
    included, and the keys come in `problems()` order, one per problem. A rule search
    still refuses the domain."""
    domain = variable_domain(n, m)
    index, problems = ProblemKeys(domain), list(domain.problems())
    assert 0 in index.xs and min(len(pop) for pop, _ in index.blocks) == 1
    blocks = range(len(index.blocks))
    assert [p for b in blocks for p in index.problems(b)] == problems
    assert [k for b in blocks for k in index.keys(b)] == [problem_key(p) for p in problems]
    assert index.offsets[-1] == len(problems)
    with pytest.raises(ValueError, match="fixed-population variants only"):
        build_csp(domain, ("NW",))


@pytest.mark.parametrize("n, m", [(2, 3), (3, 3)])
def test_problem_keys_find_restricted_problems_like_the_scalar_oracle(n, m):
    """From every block's keys, read as full-space preferences, the key at each subset's
    block is that of the profile restricted by `core.restrict`."""
    domain = variable_domain(n, m)
    index, full = ProblemKeys(domain), preference_space(m)
    for b, (pop, x) in enumerate(index.blocks):
        rows = list(product(index.firsts[b].tolist(), repeat=len(pop)))
        for y in subsets_of(x, nonempty=False):
            c = index.blocks.index((pop, y))
            expected = [restricted_code(domain, [full[i] for i in row], y) for row in rows]
            assert (index.find(c, np.array(rows)) - index.offsets[c]).tolist() == expected


RM_WITNESS = {
    "problem": {
        "variant": "fixed",
        "agents": [1, 2, 3],
        "available": "{a,b,c,d}",
        "profile": {1: "a>b>c>d", 2: "b>c>d>a", 3: "b>c>d>a"},
    },
    "smaller_set": "{a,b}",
    "agent": 2,
    "bundle_large": "{c}",
    "bundle_small": "{b}",
    "allocation_small": {1: "{a}", 2: "{b}", 3: "{}"},
}
RM_VAR_WITNESS = {
    "problem": {
        "variant": "variable",
        "agents": [1, 2],
        "available": "{a,b}",
        "profile": {1: "a>b", 2: "a>b"},
    },
    "smaller_set": "{a}",
    "agent": 2,
    "bundle_large": "{b}",
    "bundle_small": "{a}",
}


@pytest.mark.parametrize(
    "check, rule, domain, checked, witness",
    [
        pytest.param(
            check_rm, rm_counterexample(3, 4), fixed_domain(3, 4), 553_186, RM_WITNESS,
            id="RM-pair-major",
        ),
        pytest.param(
            check_rm_var, population_rm_counterexample((1, 2, 3)), variable_domain(3, 4), 1_513,
            RM_VAR_WITNESS, id="RM+-code-major",
        ),
    ],
)
def test_rm_scan_order_fixes_the_witness_and_the_count(check, rule, domain, checked, witness):
    """Fixed RM scans each (set, smaller set) pair whole before the next; RM+ tries every
    smaller set at each code. Each order gives its own first witness and check count."""
    rep = check(rule, domain)
    assert (rep.verdict, rep.checked, rep.witness) == ("violated", checked, witness)
