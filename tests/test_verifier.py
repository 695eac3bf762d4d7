import time
from itertools import permutations

import pytest

from draftkit.axioms import fixed_domain, unacceptable_domain, variable_domain
from draftkit.core import Preference, Problem
from draftkit.csp import build_csp, solve_csp
from draftkit.rules import (
    Rule,
    dictatorship_rule,
    draft_rule,
    snake_draft_rule,
    variable_draft_rule,
)
from draftkit.verifier import (
    REPRODUCED,
    PriorityInferenceError,
    find_manipulation,
    infer_priority,
    probe_wsp_conjecture,
    replay_theorem4_cases,
    verify_efficiency_decomposition,
    verify_extension_lemma,
    verify_t1,
    verify_t2,
    verify_t3,
    verify_t5,
    verify_t6,
    verify_t7,
    verify_t8,
    verify_truncation_invariance_implication,
)

from helpers import bundle, fixed_problem


def test_t1_uniqueness_small():
    rep = verify_t1(2, 2)
    assert rep.outcome == REPRODUCED
    assert rep.detail["status"] == "unique" and rep.detail["equals_draft"] == [True]
    assert rep.detail["note"] == "uniqueness over the checked domain"


def test_t1_uniqueness_three_objects():
    t = time.time()
    rep = verify_t1(2, 3)
    assert rep.outcome == REPRODUCED and rep.detail["equals_draft"] == [True]
    assert time.time() - t < 30
    csp = build_csp(fixed_domain(2, 3), ("WRP", "EF1", "NW", "RM"), (1, 2))
    assert solve_csp(csp, mode="find-all").stats.nodes <= 1  # propagation alone pins every variable


def test_t2_unsat_both_priorities():
    rep = verify_t2(3)
    assert rep.outcome == REPRODUCED
    assert rep.detail["status"] == "unsat" and rep.detail["certificate_replays"]


def test_t3_unsat():
    t = time.time()
    rep = verify_t3(4)
    assert rep.outcome == REPRODUCED
    assert rep.detail["status"] == "unsat" and rep.detail["certificate_replays"]
    assert time.time() - t < 300


def test_t6_quota_uniqueness():
    for quotas in ((1, 1), (1, 2)):
        rep = verify_t6(2, quotas)
        assert rep.outcome == REPRODUCED and rep.detail["status"] == "unique", quotas


def test_t7_unacceptable_uniqueness_small():
    rep = verify_t7(2)
    assert rep.outcome == REPRODUCED and rep.detail["status"] == "unique"


def test_replay_theorem4_cases():
    log = replay_theorem4_cases()
    assert log["cases"] == 4 and log["orientations"] == 2
    contradictions = [s for s in log["steps"] if s["step"].endswith("contradiction")]
    assert len(contradictions) == 16


def test_find_manipulation_worked_example():
    prob = fixed_problem("abc", "bca")
    report = find_manipulation(draft_rule((1, 2)), prob, agent=1)
    assert report is not None
    misreport, gained, lost = report
    assert misreport.ranking == (1, 0, 2)  # b > a > c
    assert gained == bundle("ab") and lost == bundle("ac")


def test_find_manipulation_none_for_dictatorship():
    rule = dictatorship_rule((1, 2))
    for p1 in permutations(range(3)):
        for p2 in permutations(range(3)):
            prob = Problem("fixed", (1, 2), bundle("abc"), (Preference(p1), Preference(p2)))
            for agent in (1, 2):
                assert find_manipulation(rule, prob, agent) is None


def test_find_manipulation_none_at_unanimous_adversary():
    rule = draft_rule((1, 2))
    for p1 in permutations(range(3)):
        prob = Problem("fixed", (1, 2), bundle("abc"), (Preference(p1), Preference(p1)))
        assert find_manipulation(rule, prob, 1) is None


def test_infer_priority_recovers_draft_priority():
    for perm in permutations((1, 2, 3)):
        assert infer_priority(variable_draft_rule(perm), perm) == perm


def test_infer_priority_snake_matches_draft_on_probes():
    assert infer_priority(snake_draft_rule((1, 2, 3)), (1, 2, 3)) == (1, 2, 3)


def test_infer_priority_reports_relabeling_inconsistency():
    base = variable_draft_rule((1, 2))

    def runner(problem):
        # flips the aligned probe exactly when both rank object b first
        if problem.available == bundle("ab") and all(
            p.ranking == (1, 0) for p in problem.profile
        ):
            return tuple(reversed(base.allocate(problem))), None
        return base.run(problem)

    with pytest.raises(PriorityInferenceError, match="neutrality"):
        infer_priority(Rule("weird", runner), (1, 2))


def test_extension_lemma_draft_and_snake():
    dom = variable_domain(2, 3)
    pi = (1, 2)
    rep = verify_extension_lemma(variable_draft_rule(pi), pi, dom)
    assert rep.detail["precondition_ok"] and rep.detail["agrees_everywhere"]
    assert rep.outcome == REPRODUCED

    rep = verify_extension_lemma(snake_draft_rule(pi), pi, dom)
    assert rep.detail["precondition_ok"]  # single-unit problems have one round only
    assert not rep.detail["tcon_holds"] and not rep.detail["agrees_everywhere"]
    assert rep.outcome == REPRODUCED  # lemma not contradicted: its hypotheses fail
    assert rep.detail["divergence"] is not None


def test_t8_composite():
    rep = verify_t8(3, 3)
    assert rep.outcome == REPRODUCED
    assert rep.detail["sweep_ok"] and rep.detail["priorities_recovered"]
    assert rep.detail["extension_ok"] and rep.detail["snake_diverges"]


def test_t5_small():
    rep = verify_t5(n_agents=2, n_objects=3, n_random_schemes=5)
    assert rep.outcome == REPRODUCED
    assert rep.detail == {"certificate": ["proved"], "falsifier": ["holds"], "best_case": ["holds"]}


def test_efficiency_decomposition_small():
    rep = verify_efficiency_decomposition(fixed_domain(2, 3), n_random_rules=25)
    assert rep.ok and rep.checked_pairs > 0


def test_efficiency_decomposition_unacceptable_small():
    rep = verify_efficiency_decomposition(unacceptable_domain(2, 2), n_random_rules=25)
    assert rep.ok


def test_ti_implication_report():
    rep = verify_truncation_invariance_implication(2, n_random_rules=40)
    assert rep.outcome == REPRODUCED
    assert rep.detail["violations"] == 0 and rep.detail["premise_holds"] >= 1


def test_wsp_conjecture_probe_carries_caveat():
    res = probe_wsp_conjecture(2)
    assert "neither" in res.note and "conjecture" in res.note


def test_extension_lemma_reports_rm_failure_fixture():
    from draftkit.axioms import variable_domain as _vd
    from draftkit.rules import population_rm_counterexample

    dom = _vd(2, 3)
    rep = verify_extension_lemma(population_rm_counterexample((1, 2)), (1, 2), dom)
    assert not rep.detail["rm_holds"]  # the fixture's defect is reported
    assert rep.outcome == REPRODUCED  # and the lemma itself is not contradicted


def test_critical_agent_driver_sweeps_draft_and_survivors():
    from draftkit.verifier import verify_critical_agent

    rep = verify_critical_agent(3, 3)
    assert rep.outcome == REPRODUCED and rep.detail["survivors_swept"] == 1


def test_rm_lemma_driver():
    from draftkit.verifier import verify_rm_lemma

    rep = verify_rm_lemma()
    assert rep.outcome == REPRODUCED and rep.detail["checked"] > 100000
