"""Acceptance suite: one test per exit criterion, each printing a pass/fail line.

Everything here is exact (zero tolerated violations); stated runtime targets
are asserted as hard bounds on single-threaded wall clock. Rule-space results
are desk-scale: they quantify over the checked finite domains only, and the
reports they rest on say so.
"""

import time
from itertools import permutations, product

from draftkit.axioms import (
    FixedSweep,
    check_2con,
    check_2neu,
    check_ef1,
    check_ef1_var,
    check_eff,
    check_eff_var,
    check_ep,
    check_ir,
    check_msp_certificate,
    check_msp_falsify,
    check_nw,
    check_nw_quota,
    check_nw_star,
    check_rm,
    check_rm_var,
    check_rp,
    check_sp,
    check_tcon,
    check_ti,
    check_tp,
    check_truthful_best_case,
    check_wrp_any,
    check_wrp_quota,
    check_wrp_star,
    check_wsp,
    fixed_domain,
    quota_domain,
    unacceptable_domain,
    variable_domain,
)
from draftkit.core import INFINITE, Preference, Problem, bundle_size, subsets_of, top_k
from draftkit.dominance import (
    geometric_scheme,
    linear_scheme,
    quota_weakly_dominates,
    random_scheme,
    weakly_dominates,
    weakly_dominates_oracle,
)
from draftkit.rules import (
    dictatorship_rule,
    draft_rule,
    ir_counterexample,
    neutrality_counterexample,
    null_rule,
    pairwise_consistency_counterexample,
    population_rm_counterexample,
    quota_draft_rule,
    rm_counterexample,
    rm_star_counterexample,
    serial_dictatorship_rule,
    snake_draft_rule,
    ti_counterexample,
    unacceptable_draft_rule,
    variable_draft_rule,
    wrp_counterexample,
    wrp_star_counterexample,
)
from draftkit.verifier import (
    REPRODUCED,
    find_manipulation,
    replay_theorem4_cases,
    verify_efficiency_decomposition,
    verify_extension_lemma,
    verify_t1,
    verify_t2,
    verify_t3,
    verify_theorem4_unsat,
)

from conftest import record
from helpers import bundle, fixed_problem, pref

SEED = 20240801


class _Shared:
    """Sweeps shared between criteria 3 and 4 (same domains, same rules)."""

    sweeps = None
    build_seconds = None


def _shared_sweeps():
    if _Shared.sweeps is None:
        t0 = time.perf_counter()
        sweeps = {}
        for n in (2, 3):
            pi = tuple(range(1, n + 1))
            dom = fixed_domain(n, 4)
            sweeps[n] = {
                "domain": dom,
                "priority": pi,
                "draft": FixedSweep(draft_rule(pi), dom),
                "null": FixedSweep(null_rule(), dom),
                "dictatorship": FixedSweep(dictatorship_rule(pi), dom),
            }
            for sw in ("draft", "null", "dictatorship"):
                for xi in range(len(sweeps[n][sw].xs)):
                    sweeps[n][sw].grid(xi)
        _Shared.build_seconds = time.perf_counter() - t0
        _Shared.sweeps = sweeps
    return _Shared.sweeps


def test_c01_worked_example_run():
    prob = fixed_problem("abcd", "cdba", "adcb")
    draft = draft_rule((1, 2, 3))
    draft.run(prob)  # warm caches
    t0 = time.perf_counter()
    alloc, trace = draft.run(prob)
    elapsed = time.perf_counter() - t0
    assert alloc == (bundle("ab"), bundle("c"), bundle("d"))
    assert [obj for _, _, obj in trace] == [0, 2, 3, 1]  # selections a, c, d, b
    assert [agent for agent, in [(a,) for _, a, _ in trace]] == [1, 2, 3, 1]
    assert elapsed < 0.001
    record("C01 worked example", f"PASS ({elapsed * 1e6:.0f} us)")


def test_c02_manipulation_example():
    prob = fixed_problem("abc", "bca")
    found = find_manipulation(draft_rule((1, 2)), prob, agent=1)
    assert found is not None
    misreport, gained, lost = found
    assert misreport == Preference((1, 0, 2))  # b > a > c
    assert gained == bundle("ab") and lost == bundle("ac")
    record("C02 manipulation example", "PASS")


def test_c03_draft_axiom_sweep():
    t0 = time.perf_counter()
    sweeps = _shared_sweeps()
    checked = 0
    for n in (2, 3):
        sw, dom, pi = sweeps[n]["draft"], sweeps[n]["domain"], sweeps[n]["priority"]
        for rep in (
            check_rp(sw, dom, pi),
            check_ef1(sw, dom),
            check_eff(sw, dom),
            check_rm(sw, dom),
        ):
            assert rep.holds, rep
            checked += rep.checked
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    record("C03 draft sweep (RP,EF1,EFF,RM)", f"PASS ({elapsed:.1f}s, {checked} checks)")


TABLE1 = {
    "null": dict(RP=True, EF1=True, EFF=False, NW=False, SP=True, WSP=True),
    "dictatorship": dict(RP=True, EF1=False, EFF=True, NW=True, SP=True, WSP=True),
    "draft": dict(RP=True, EF1=True, EFF=True, NW=True, SP=False, WSP=False),
}


def test_c04_table1_matrix():
    sweeps = _shared_sweeps()
    t0 = time.perf_counter()
    cells = 0
    for n in (2, 3):
        dom, pi = sweeps[n]["domain"], sweeps[n]["priority"]
        for name, expected in TABLE1.items():
            sw = sweeps[n][name]
            got = {
                "RP": check_rp(sw, dom, pi).holds,
                "EF1": check_ef1(sw, dom).holds,
                "EFF": check_eff(sw, dom).holds,
                "NW": check_nw(sw, dom).holds,
                "SP": check_sp(sw, dom).holds,
                "WSP": check_wsp(sw, dom).holds,
            }
            assert got == expected, (n, name, got)
            cells += 6
    elapsed = time.perf_counter() - t0
    record("C04 rule/axiom matrix", f"PASS ({elapsed:.1f}s, {cells} cells)")


def test_c05_efficiency_oracle_equivalence():
    t0 = time.perf_counter()
    plain = verify_efficiency_decomposition(fixed_domain(2, 4), n_random_rules=1000, seed=SEED)
    assert plain.ok
    cutoffs = verify_efficiency_decomposition(
        unacceptable_domain(2, 4), n_random_rules=1000, seed=SEED
    )
    assert cutoffs.ok
    elapsed = time.perf_counter() - t0
    record(
        "C05 efficiency decompositions",
        f"PASS ({elapsed:.1f}s, {plain.checked_pairs + cutoffs.checked_pairs} pairs)",
    )


def test_c06_characterization_uniqueness():
    t0 = time.perf_counter()
    rep = verify_t1(2, 3)
    elapsed = time.perf_counter() - t0
    assert rep.outcome == REPRODUCED
    assert rep.detail["status"] == "unique" and rep.detail["equals_draft"] == [True]
    assert elapsed < 30
    record("C06 characterization uniqueness", f"PASS ({elapsed:.1f}s)")


def test_c07_priority_impossibility():
    t0 = time.perf_counter()
    rep = verify_t2(3)
    elapsed = time.perf_counter() - t0
    assert rep.outcome == REPRODUCED
    assert rep.detail["status"] == "unsat" and rep.detail["certificate_replays"]
    assert elapsed < 30
    record("C07 RP+EF1+NW+WSP unsat", f"PASS ({elapsed:.1f}s)")


def test_c08_efficiency_impossibility():
    t0 = time.perf_counter()
    rep = verify_t3(4)
    elapsed = time.perf_counter() - t0
    assert rep.outcome == REPRODUCED
    assert rep.detail["status"] == "unsat" and rep.detail["certificate_replays"]
    assert elapsed < 300
    record("C08 EFF+EF1+WSP unsat", f"PASS ({elapsed:.1f}s)")


def test_c09_five_object_impossibility():
    t0 = time.perf_counter()
    log = replay_theorem4_cases()
    replay_elapsed = time.perf_counter() - t0
    assert log["cases"] == 4 and log["orientations"] == 2

    t0 = time.perf_counter()
    rep = verify_theorem4_unsat()
    generic_elapsed = time.perf_counter() - t0
    assert rep.outcome == REPRODUCED
    assert rep.detail["status"] == "unsat" and rep.detail["certificate_replays"]
    assert generic_elapsed < 600
    record(
        "C09 two-agent five-object unsat",
        f"PASS (replay {replay_elapsed:.1f}s, generic search {generic_elapsed:.1f}s)",
    )


def test_c10_maxmin_strategyproofness():
    t0 = time.perf_counter()
    for n in (2, 3):
        pi = tuple(range(1, n + 1))
        cert = check_msp_certificate(draft_rule(pi), fixed_domain(n, 4))
        assert cert.verdict == "proved", (n, cert.witness)
    schemes = [geometric_scheme(3), linear_scheme(3)] + [
        random_scheme(3, SEED + k) for k in range(100)
    ]
    fals = check_msp_falsify(draft_rule((1, 2)), fixed_domain(2, 3), schemes)
    assert fals.verdict == "holds"
    elapsed = time.perf_counter() - t0
    record("C10 maxmin strategy-proofness", f"PASS ({elapsed:.1f}s)")


def test_c11_truthful_best_case():
    t0 = time.perf_counter()
    schemes = [geometric_scheme(3), linear_scheme(3)] + [
        random_scheme(3, SEED + k) for k in range(10)
    ]
    for n in (2, 3):
        pi = tuple(range(1, n + 1))
        rep = check_truthful_best_case(draft_rule(pi), fixed_domain(n, 3), schemes)
        assert rep.holds, rep.witness
    elapsed = time.perf_counter() - t0
    record("C11 truthful best case", f"PASS ({elapsed:.1f}s)")


def test_c12_quota_and_unacceptable_sweeps():
    t0 = time.perf_counter()
    pi = (1, 2)
    for quotas in product((1, 2, INFINITE), repeat=2):
        dom = quota_domain(2, 4, quotas)
        sw = FixedSweep(quota_draft_rule(pi), dom)
        assert check_wrp_quota(sw, dom, pi).holds, quotas
        assert check_ef1(sw, dom).holds, quotas
        assert check_nw_quota(sw, dom).holds, quotas
        assert check_rm(sw, dom).holds, quotas

    dom = unacceptable_domain(2, 4)
    sw = FixedSweep(unacceptable_draft_rule(pi), dom)
    assert check_wrp_star(sw, dom, pi).holds
    assert check_ef1(sw, dom).holds
    assert check_nw_star(sw, dom).holds
    assert check_rm(sw, dom).holds
    assert check_ir(sw, dom).holds
    assert check_ti(sw, dom).holds
    assert check_tp(sw, dom).holds
    assert check_ep(sw, dom).holds
    elapsed = time.perf_counter() - t0
    record("C12 quota/unacceptable sweeps", f"PASS ({elapsed:.1f}s)")


def _verdicts(rule, dom, checks):
    return {name: chk(rule, dom).holds for name, chk in checks.items()}


def test_c13_independence_counterexamples():
    t0 = time.perf_counter()

    # plain-variant rules: exactly one of {WRP, EF1, NW, RM} fails
    dom = fixed_domain(2, 3)
    checks = {
        "WRP": lambda r, d: check_wrp_any(r, d),
        "EF1": check_ef1,
        "NW": check_nw,
        "RM": check_rm,
    }
    plain_rules = {
        "NW": null_rule(),
        "EF1": dictatorship_rule((1, 2)),
        "WRP": wrp_counterexample(2, 3),
        "RM": rm_counterexample(2),
    }
    for fails, rule in plain_rules.items():
        got = _verdicts(rule, dom, checks)
        assert got == {name: name != fails for name in checks}, (rule.name, got)

    # the displayed resource-monotonicity witness replays
    rm = plain_rules["RM"]
    special = fixed_problem("abc", "bca")
    smaller = fixed_problem("abc", "bca", available="ab")
    assert rm.allocate(special)[1] == bundle("c")
    assert rm.allocate(smaller)[1] == bundle("b")
    assert not weakly_dominates(pref("bca"), bundle("c"), bundle("b"))

    # unacceptable-variant rules: exactly one of {IR, NW*, WRP*, EF1, RM, TI} fails
    udom = unacceptable_domain(2, 3)
    uchecks = {
        "IR": check_ir,
        "NW*": check_nw_star,
        "WRP*": lambda r, d: check_wrp_any(r, d, star=True),
        "EF1": check_ef1,
        "RM": check_rm,
        "TI": check_ti,
    }
    urules = {
        "IR": ir_counterexample((1, 2)),
        "NW*": null_rule(),
        "WRP*": wrp_star_counterexample(2, special_object=0),
        "EF1": serial_dictatorship_rule((1, 2)),
        "RM": rm_star_counterexample(2, 3),
        "TI": ti_counterexample(2, 3),
    }
    for fails, rule in urules.items():
        got = _verdicts(rule, udom, uchecks)
        assert got == {name: name != fails for name in uchecks}, (rule.name, got)

    # displayed truncation-invariance witness: truncating moves {a} to {}
    ti = urules["TI"]
    truth = Problem(
        "unacceptable", (1, 2), bundle("ab"),
        (Preference((1, 2, 0), 3), Preference((0, 1, 2), 2)),
    )
    truncated = Problem(
        "unacceptable", (1, 2), bundle("ab"),
        (Preference((1, 2, 0), 3), Preference((0, 1, 2), 1)),
    )
    assert ti.allocate(truth)[1] == bundle("a")
    assert ti.allocate(truncated)[1] == 0

    # displayed unacceptable resource-monotonicity witness
    rmu = urules["RM"]
    base = Problem(
        "unacceptable", (1, 2), bundle("abc"),
        (Preference((0, 1, 2), 3), Preference((1, 2, 0), 3)),
    )
    smaller = Problem(
        "unacceptable", (1, 2), bundle("ab"),
        (Preference((0, 1, 2), 3), Preference((1, 2, 0), 3)),
    )
    assert rmu.allocate(base)[1] == bundle("c")
    assert rmu.allocate(smaller)[1] == bundle("b")

    # variable-population rules: exactly one of the six axioms fails
    vdom = variable_domain(3, 3)
    vchecks = {
        "EF1": check_ef1_var,
        "EFF": check_eff_var,
        "RM": check_rm_var,
        "2-CON": check_2con,
        "T-CON": check_tcon,
        "2-NEU": check_2neu,
    }
    pi = (1, 2, 3)
    vrules = {
        "EF1": dictatorship_rule(pi),
        "EFF": null_rule(),
        "RM": population_rm_counterexample(pi),
        "2-CON": pairwise_consistency_counterexample(pi),
        "T-CON": snake_draft_rule(pi),
        "2-NEU": neutrality_counterexample(pi, special_object=0),
    }
    for fails, rule in vrules.items():
        got = _verdicts(rule, vdom, vchecks)
        assert got == {name: name != fails for name in vchecks}, (rule.name, got)

    elapsed = time.perf_counter() - t0
    record("C13 independence counterexamples", f"PASS ({elapsed:.1f}s, 16 rules)")


def test_c14_variable_population_results():
    t0 = time.perf_counter()
    dom = variable_domain(3, 4)
    pi = (1, 2, 3)
    rule = variable_draft_rule(pi)
    from draftkit.axioms import check_con, check_neu

    for chk in (check_ef1_var, check_eff_var, check_rm_var, check_con, check_tcon, check_neu):
        rep = chk(rule, dom)
        assert rep.holds, (rep.axiom, rep.witness)

    from draftkit.verifier import infer_priority

    for perm in permutations(range(1, 5)):
        assert infer_priority(variable_draft_rule(perm), perm) == perm

    ext = verify_extension_lemma(rule, pi, dom).detail
    assert ext["precondition_ok"] and ext["agrees_everywhere"]
    snake = verify_extension_lemma(snake_draft_rule(pi), pi, dom).detail
    assert snake["precondition_ok"] and not snake["tcon_holds"] and not snake["agrees_everywhere"]
    assert snake["divergence"] is not None
    elapsed = time.perf_counter() - t0
    record("C14 variable-population results", f"PASS ({elapsed:.1f}s)")


def test_c15_dominance_oracle_equivalence():
    t0 = time.perf_counter()
    pairs = 0
    for m in range(1, 7):
        full = (1 << m) - 1
        plain = Preference(tuple(range(m)))
        for s in subsets_of(full, nonempty=False):
            for t in subsets_of(full, nonempty=False):
                pairs += 1
                assert weakly_dominates(plain, s, t) == weakly_dominates_oracle(plain, s, t)
                for q in list(range(1, m + 1)) + [INFINITE]:
                    ss = s if q == INFINITE else top_k(plain, s, min(int(q), bundle_size(s)))
                    tt = t if q == INFINITE else top_k(plain, t, min(int(q), bundle_size(t)))
                    assert quota_weakly_dominates(plain, q, s, t) == weakly_dominates_oracle(
                        plain, ss, tt
                    )
                for cutoff in range(m + 1):
                    p = Preference(tuple(range(m)), cutoff)
                    assert weakly_dominates(p, s, t) == weakly_dominates_oracle(p, s, t)
    elapsed = time.perf_counter() - t0
    record("C15 dominance oracle equivalence", f"PASS ({elapsed:.1f}s, {pairs} bundle pairs)")
