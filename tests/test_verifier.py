import json
import time
from itertools import permutations
from random import Random

import pytest

import scalar_checkers as oracle
from draftkit.cli import RULE_FACTORIES, main

from draftkit import verifier
from draftkit.axioms import (
    AxiomSpace,
    describe_problem,
    fixed_domain,
    quota_domain,
    unacceptable_domain,
    variable_domain,
)
from draftkit.core import INFINITE, Preference, Problem, objects_of
from draftkit.csp import ProblemKeys, _splits, build_csp, solve_csp
from draftkit.rules import (
    dictatorship_rule,
    draft_rule,
    ir_counterexample,
    snake_draft_rule,
    unacceptable_draft_rule,
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


def test_survivor_unlike_its_target_is_not_reproduced():
    """T1's survivor under priority (1, 2) is that priority's draft, not the reversed one."""
    domain, axioms = fixed_domain(2, 3), ("WRP", "EF1", "NW", "RM")
    rep = verifier.characterization_search(
        domain, axioms, (1, 2), draft_rule((2, 1)), show_matches=True
    )
    assert rep.outcome == verifier.NOT_REPRODUCED
    assert rep.detail["status"] == "unique" and rep.detail["equals_draft"] == [False]


@pytest.mark.parametrize(
    "domain, axioms",
    [
        (fixed_domain(2, 3), ("WRP", "EF1", "NW", "RM")),
        (fixed_domain(3, 3), ("WRP", "EF1", "NW", "RM")),
        (quota_domain(2, 3, (1, 2)), ("WRPq", "EF1", "NWq", "RM")),
        (unacceptable_domain(2, 3), ("WRP*", "EF1", "NW*", "RM", "IR", "TI")),
    ],
    ids=["fixed23", "fixed33", "quota23", "unacceptable23"],
)
def test_survivor_comparison_is_the_per_key_loop(domain, axioms):
    """One target fill per set gives what `allocate` at each key's first problem gives, for
    the matching draft, the reversed-priority draft and, off the quota variant, serial
    dictatorship."""
    agents = domain.populations[0]
    csp = build_csp(domain, axioms, agents)
    tables = solve_csp(csp).solutions
    variant = {"fixed": "draft", "quota": "draft-quota", "unacceptable": "u-draft"}
    for name in (variant[domain.variant], "serial-dictatorship"):
        factory, variants = RULE_FACTORIES[name]
        for priority in (agents, agents[::-1]) if domain.variant in variants else ():
            target = factory(priority)
            per_key = [
                all(t[k] == target.allocate(p) for k, p in zip(csp.keys, csp.problems))
                for t in tables
            ]
            assert verifier._equal_to_target(csp, tables, target) == per_key, (name, priority)


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


def _random_problem(rng: Random, variant: str, n: int, m: int) -> Problem:
    """A problem of the variant with agents 1..n over objects 0..m-1."""
    objs = list(range(m))
    x = rng.randrange(0 if variant == "variable" else 1, 1 << m)
    if variant == "variable":
        objs = list(objects_of(x))
    profile = []
    for _ in range(n):
        ranking = tuple(rng.sample(objs, len(objs)))
        cutoff = rng.randint(0, len(objs)) if variant == "unacceptable" else None
        profile.append(Preference(ranking, cutoff))
    quotas = tuple(rng.choice((1, 2, INFINITE)) for _ in range(n)) if variant == "quota" else None
    return Problem(variant, tuple(range(1, n + 1)), x, tuple(profile), quotas)


def _manipulation_cases():
    for name, (factory, variants) in RULE_FACTORIES.items():
        for variant in variants:
            yield pytest.param(factory, variant, id=f"{name}-{variant}")


@pytest.mark.parametrize("factory, variant", _manipulation_cases())
def test_find_manipulation_matches_the_misreport_loop(factory, variant):
    """The one-block search returns the scalar loop's first manipulation, at every agent."""
    rng = Random(f"{factory.__name__}:{variant}")
    for n in (2, 3):
        for m in (3, 4):
            for _ in range(6):
                prob = _random_problem(rng, variant, n, m)
                rule = factory(tuple(rng.sample(prob.agents, n)))
                for agent in prob.agents:
                    expected = oracle.find_manipulation(rule, prob, agent)
                    assert find_manipulation(rule, prob, agent) == expected, (prob, agent)


def _manipulation_edge_cases():
    """(rule, problem) pairs where the manipulation kernel changes shape."""
    rng = Random(20241020)
    for n, m in ((2, 5), (3, 4)):  # cutoffs at the rank-space width
        for _ in range(4 if m == 5 else 6):
            prob = _random_problem(rng, "unacceptable", n, m)
            yield unacceptable_draft_rule(tuple(rng.sample(prob.agents, n))), prob
    for x in (0, 0b1, 0b100):  # an empty set, and sets of one object
        for n in (1, 2, 3):
            profile = tuple(Preference(objects_of(x)) for _ in range(n))
            yield variable_draft_rule(tuple(range(n, 0, -1))), Problem(
                "variable", tuple(range(1, n + 1)), x, profile
            )
    subsets = [y for y in range(1 << 5) if y.bit_count() in (3, 4)]
    for _ in range(12):  # available sets smaller than the universe
        prob = _random_problem(rng, "fixed", 2, 5)
        yield draft_rule(tuple(rng.sample(prob.agents, 2))), Problem(
            "fixed", prob.agents, rng.choice(subsets), prob.profile
        )
    # agents ranking different sets that all hold the available set: the worked example
    # with an unavailable fourth object ranked by agent 2 alone, then random ones
    worked = (Preference((0, 1, 2)), Preference((1, 2, 0, 3)))
    yield draft_rule((1, 2)), Problem("fixed", (1, 2), 0b111, worked)
    for _ in range(12):
        x, profile = rng.choice(subsets), []
        for _ in range(rng.choice((2, 3))):
            objs = [o for o in range(5) if x >> o & 1 or rng.random() < 0.5]
            profile.append(Preference(tuple(rng.sample(objs, len(objs)))))
        agents = tuple(range(1, len(profile) + 1))
        rule = rng.choice((draft_rule, snake_draft_rule))(tuple(rng.sample(agents, len(agents))))
        yield rule, Problem("fixed", agents, x, tuple(profile))


def test_find_manipulation_matches_the_misreport_loop_where_the_kernel_changes():
    """Cutoffs at 2x5 and 3x4, variable sets of zero and one object, available sets smaller
    than the universe, and profiles whose agents rank different sets (a truthful preference
    outside the report space then joins the preferences the engine reads)."""
    found = ragged = 0
    for rule, prob in _manipulation_edge_cases():
        universe = set().union(*[p.ranking for p in prob.profile])
        ragged += any(len(p.ranking) < len(universe) for p in prob.profile)
        for agent in prob.agents:
            expected = oracle.find_manipulation(rule, prob, agent)
            assert find_manipulation(rule, prob, agent) == expected, (prob, agent)
            found += expected is not None
    assert found > 0 and ragged > 0


def test_find_manipulation_matches_the_misreport_loop_on_seeded_3x5_drafts():
    rng = Random(20240801)
    found = 0
    for _ in range(200):
        prob = _random_problem(rng, "fixed", 3, 5)
        rule = draft_rule(tuple(rng.sample(prob.agents, 3)))
        for agent in prob.agents:
            expected = oracle.find_manipulation(rule, prob, agent)
            assert find_manipulation(rule, prob, agent) == expected, (prob, agent)
            found += expected is not None
    assert found > 0


def test_infer_priority_recovers_draft_priority():
    for perm in permutations((1, 2, 3)):
        assert infer_priority(variable_draft_rule(perm), perm) == perm


def test_infer_priority_snake_matches_draft_on_probes():
    assert infer_priority(snake_draft_rule((1, 2, 3)), (1, 2, 3)) == (1, 2, 3)


def test_infer_priority_allocates_each_probe_once():
    base, probes = variable_draft_rule((1, 2, 3)), []
    rule = oracle.scalar_rule("counted", lambda p: probes.append(p) or base.run(p))
    assert infer_priority(rule, (1, 2, 3)) == (1, 2, 3)
    assert len(probes) == len(set(probes)) == 3 * 4  # 3 pairs, 2 labelings, 2 probes


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
        infer_priority(oracle.scalar_rule("weird", runner), (1, 2))


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
    assert rep.disagreements == [] and rep.random_rules == 25


def _flip_admitted(monkeypatch, flips):
    """Patch the decomposition's `admitted` so that, at fixed 2x3's full set, the verdict
    of each (key, split) in `flips` is inverted (split None: every split of the key)."""
    real = verifier.admitted

    def flipped(space, x, splits, digits, names):
        out = real(space, x, splits, digits, names)
        if x == 0b111:
            for key, split in flips:
                out[key, slice(None) if split is None else split] ^= True
        return out

    monkeypatch.setattr(verifier, "admitted", flipped)
    index = ProblemKeys(fixed_domain(2, 3))
    xi = index.xs.index(0b111)
    return index, xi


def test_efficiency_decomposition_lists_a_flipped_key_once_per_rule(monkeypatch):
    index, xi = _flip_admitted(monkeypatch, [(5, None)])
    n_rules = 30
    rep = verify_efficiency_decomposition(fixed_domain(2, 3), n_random_rules=n_rules)
    flipped = describe_problem(index.problems(xi)[5])
    n_splits = len(_splits(0b111, 2))
    exhaustive, spot = rep.disagreements[:n_splits], rep.disagreements[n_splits:]
    assert [d["problem"] for d in exhaustive] == [flipped] * n_splits
    assert all(d["decomposed"] != d["oracle"] for d in exhaustive)
    # every split of the key disagrees, so every rule misses there whatever it draws
    keys = [prob for i in range(len(index.xs)) for prob in index.problems(i)]
    agreements = [
        [k != index.offsets[xi] + 5] * len(_splits(prob.available, 2))
        for k, prob in enumerate(keys)
    ]
    assert spot == oracle.random_rule_misses(keys, agreements, n_rules, seed=1)
    assert spot == [{"problem": flipped}] * n_rules


def test_efficiency_decomposition_lists_misses_rule_major(monkeypatch):
    index, xi = _flip_admitted(monkeypatch, [(9, None), (2, None)])
    rep = verify_efficiency_decomposition(fixed_domain(2, 3), n_random_rules=4)
    first, second = (describe_problem(index.problems(xi)[k]) for k in (2, 9))
    spot = [d["problem"] for d in rep.disagreements if "allocation" not in d]
    assert spot == [first, second] * 4


def test_efficiency_decomposition_spot_check_names_a_flipped_cell(monkeypatch):
    index, xi = _flip_admitted(monkeypatch, [(7, 3)])
    n_rules = 200
    rep = verify_efficiency_decomposition(fixed_domain(2, 3), n_random_rules=n_rules)
    flipped = describe_problem(index.problems(xi)[7])
    exhaustive, spot = rep.disagreements[:1], rep.disagreements[1:]
    assert exhaustive[0]["problem"] == flipped and "allocation" in exhaustive[0]
    assert len(spot) <= n_rules and all(d == {"problem": flipped} for d in spot)


def test_efficiency_decomposition_unacceptable_small():
    rep = verify_efficiency_decomposition(unacceptable_domain(2, 2), n_random_rules=25)
    assert rep.ok


def test_ti_implication_report():
    rep = verify_truncation_invariance_implication(2)
    assert rep.outcome == REPRODUCED
    assert rep.detail == {"links": 6, "cells": 96, "draft_premise": True, "violations": 0}


EP_FLIPPED = ("t", "a", "b")  # EP read as: truthful t keeps the extension's a over b


@pytest.mark.parametrize("flip_ep", [False, True], ids=["premise", "ep-flipped"])
@pytest.mark.parametrize("n_objects", [2, 3, 4])
def test_ti_implication_is_the_scalar_cell_check(monkeypatch, n_objects, flip_ep):
    """Same links, cells, violations and first witness as the check on Preference objects
    and `weakly_dominates_oracle`, with the lemma's premise and with EP reversed."""
    if flip_ep:
        monkeypatch.setitem(verifier.TI_PREMISE, "EP", EP_FLIPPED)
    detail = dict(verify_truncation_invariance_implication(n_objects).detail)
    witness = detail.pop("witness", None)
    if witness is not None:
        assert witness.pop("relation") == "table"
    expected = oracle.ti_implication(n_objects, flip_ep)
    assert detail.pop("draft_premise") is True
    assert detail | {"witness": witness} == expected
    assert (expected["violations"] > 0) == flip_ep


# the first preference "a>b|" truncated to "a|b", receiving {a} and then nothing
P4_WITNESS = {
    "preference": "a>b|",
    "truncation": "a|b",
    "bundle_before": "{a}",
    "bundle_after": "{}",
}


def _p4_report(capsys) -> dict:
    assert main(["--json", "--no-timestamp", "verify", "P4"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("P4: NOT reproduced\n")
    return json.loads(out[out.index("\n{\n") :])["detail"]


def _flip_empty_over_a(dom):
    # under "a|b" (index 1), the empty bundle now weakly dominates {a}
    dom = dom.copy()
    dom.reshape(len(dom), 4, 4)[1, 0, 1] ^= True
    return dom


def test_p4_refutes_ep_read_the_other_way(monkeypatch, capsys):
    monkeypatch.setitem(verifier.TI_PREMISE, "EP", EP_FLIPPED)
    detail = _p4_report(capsys)
    assert detail["witness"] == P4_WITNESS | {"relation": "table"}
    # the same cell under each ranking, "b>a|" to "b|a" too
    assert detail["draft_premise"] is True and detail["violations"] == 2


def test_p4_refutes_one_flipped_cell_of_the_relation_table(monkeypatch, capsys):
    relation = AxiomSpace.relation

    def flipped(space, slot=None):
        return _flip_empty_over_a(relation(space, slot))

    monkeypatch.setattr(AxiomSpace, "relation", flipped)
    detail = _p4_report(capsys)
    assert detail["witness"] == P4_WITNESS | {"relation": "table"}
    assert detail["draft_premise"] is True and detail["violations"] == 1


def test_p4_needs_the_draft_to_meet_the_premise(monkeypatch, capsys):
    """A vacuous premise is no evidence: with a rule that breaks IR in place of the passing
    draft, P4 is not reproduced though no cell fails."""
    monkeypatch.setattr(verifier, "unacceptable_draft_rule", ir_counterexample)
    detail = _p4_report(capsys)
    assert detail == {"links": 6, "cells": 96, "draft_premise": False, "violations": 0}


def test_p4_refutes_one_flipped_cell_of_the_oracle_relation(monkeypatch, capsys):
    oracle_relation = verifier._oracle_relation

    def flipped(n_objects, cutoffs):
        index, table = oracle_relation(n_objects, cutoffs)
        return index, _flip_empty_over_a(table)

    monkeypatch.setattr(verifier, "_oracle_relation", flipped)
    detail = _p4_report(capsys)
    assert detail["witness"] == P4_WITNESS | {"relation": "oracle"}
    assert detail["draft_premise"] is True and detail["violations"] == 1


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
    assert rep.outcome == REPRODUCED and rep.detail["checked"] == 533664
