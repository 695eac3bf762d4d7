"""The three benchmark workloads, written against draftkit's public functions.

Every call into draftkit goes through ``tr.call(name, fn, ...)`` so that a
traced pass records one span per call; with tracing off the call goes straight
through. Each operation returns an outcome that is compared with the outcome
recorded in ``expected.json``.

Only two inputs depend on the seed: the 100 random weight schemes of the
maxmin falsifier (prove) and the manipulation problems (refute). Every other
input is an exhaustive domain, identical for every seed.
"""

from __future__ import annotations

import hashlib
import json
from random import Random

from draftkit.axioms import (
    FixedSweep,
    VariableSweep,
    check_2con,
    check_2neu,
    check_con,
    check_ef1,
    check_ef1_var,
    check_eff,
    check_eff_var,
    check_ep,
    check_ir,
    check_msp_certificate,
    check_msp_falsify,
    check_neu,
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
    check_wrp_any,
    check_wrp_quota,
    check_wrp_star,
    check_wsp,
    fixed_domain,
    quota_domain,
    unacceptable_domain,
    variable_domain,
)
from draftkit.core import INFINITE, Preference, Problem, subsets_of
from draftkit.csp import build_csp, replay_certificate, solve_csp
from draftkit.dominance import (
    geometric_scheme,
    linear_scheme,
    quota_weakly_dominates,
    random_scheme,
    strictly_dominates,
    weakly_dominates,
)
from draftkit.grid import build_grid, replay_grid_certificate, solve_grid
from draftkit.problemfile import parse_problem, serialize_problem
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
    find_manipulation,
    replay_theorem4_cases,
    verify_efficiency_decomposition,
)

PI2 = (1, 2)
PI3 = (1, 2, 3)

# refute: seeded manipulation queries, 3 agents x 5 objects each
MANIPULATION_PROBLEMS = 1000
MANIPULATION_AGENTS = ("p1", "p2", "p3")
MANIPULATION_OBJECTS = ("a", "b", "c", "d", "e")
# prove: seeded weight schemes for the maxmin falsifier
RANDOM_SCHEMES = 100


def make_inputs(workload: str, seed: int) -> dict:
    """Seeded inputs, built before timing starts. Plain data only."""
    rng = Random(f"{workload}:{seed}")
    if workload == "prove":
        return {"scheme_seeds": [rng.randrange(2**31) for _ in range(RANDOM_SCHEMES)]}
    if workload == "refute":
        return {"problems": [_manipulation_text(rng) for _ in range(MANIPULATION_PROBLEMS)]}
    return {}


def _manipulation_text(rng: Random) -> str:
    """A problem document in the canonical form that serialize_problem emits."""
    objs = list(MANIPULATION_OBJECTS)
    priority = list(MANIPULATION_AGENTS)
    rng.shuffle(priority)
    lines = [
        "universe: " + " ".join(objs),
        "variant: fixed",
        "agents: " + " ".join(MANIPULATION_AGENTS),
        "priority: " + " ".join(priority),
        "available: " + " ".join(objs),
    ]
    for name in MANIPULATION_AGENTS:
        ranking = rng.sample(objs, len(objs))
        lines.append(f"pref {name}: " + " > ".join(ranking))
    return "\n".join(lines) + "\n"


def family(op_id: str) -> str:
    """Seeded operations repeat under one family name: ``manipulate#12`` -> ``manipulate``."""
    return op_id.split("#", 1)[0]


class Pass:
    """One pass over a workload's operations, collecting each operation's outcome."""

    def __init__(self, tracer):
        self.tr = tracer
        self.outcomes: dict[str, dict] = {}

    def op(self, op_id: str, fn, *args):
        token = self.tr.begin_op(op_id)
        try:
            outcome = fn(*args)
        except Exception as exc:  # a crashing operation is a wrong verdict, not a crashed run
            outcome = {"error": f"{type(exc).__name__}: {exc}"}
        finally:
            self.tr.end_op(token)
        self.outcomes[op_id] = outcome

    def check(self, checker, *args) -> dict:
        rep = self.tr.call(f"axioms.{checker.__name__}", checker, *args)
        self.tr.note(checked=rep.checked, violated=not rep.holds)
        return report_outcome(rep)


def report_outcome(rep) -> dict:
    """Verdict, checked count and witness JSON of an AxiomReport."""
    return {
        "verdict": rep.verdict,
        "checked": rep.checked,
        "witness": json.loads(json.dumps(rep.witness, sort_keys=True, default=str)),
    }


def _fill_fixed(sw: FixedSweep) -> int:
    return sum(len(sw.grid(xi)) for xi in range(len(sw.xs)))


def _fill_variable(sw: VariableSweep, domain) -> int:
    return sum(
        len(sw.grid(pop, x)) for pop in domain.populations for x in domain.available_sets
    )


def _swept_group(p: Pass, label, make_domain, make_rule, checks, sweep=FixedSweep):
    """Build one sweep, fill it completely, then run every check on the filled sweep."""
    tr = p.tr
    state = {}

    def fill():
        domain = tr.call(f"axioms.{make_domain[0].__name__}", *make_domain)
        rule = tr.call(f"rules.{make_rule[0].__name__}", *make_rule)
        sw = tr.call(f"axioms.{sweep.__name__}", sweep, rule, domain)
        if sweep is FixedSweep:
            allocs = tr.call("rules.fill", _fill_fixed, sw)
        else:
            allocs = tr.call("rules.fill", _fill_variable, sw, domain)
        tr.note(allocs=allocs)
        state.update(sw=sw, domain=domain)
        return {"allocations": allocs}

    p.op(f"{label}.fill", fill)
    for axiom, checker, *extra in checks:
        p.op(
            f"{label}.{axiom}",
            lambda checker=checker, extra=extra: p.check(
                checker, state["sw"], state["domain"], *extra
            ),
        )


def _bare_check(p: Pass, op_id, make_domain, make_rule, checker, *extra):
    """A check handed the bare rule, so it fills its own sweep lazily (the CLI path)."""

    def run():
        domain = p.tr.call(f"axioms.{make_domain[0].__name__}", *make_domain)
        rule = p.tr.call(f"rules.{make_rule[0].__name__}", *make_rule)
        return p.check(checker, rule, domain, *extra)

    p.op(op_id, run)


# ---------------------------------------------------------------------------
# prove: full scans that hold, so every instance is visited
# ---------------------------------------------------------------------------


def _dominance_sweep(tr) -> dict:
    """Plain, quota and cutoff dominance over every bundle pair up to 6 objects."""
    bits = bytearray()
    for m in range(1, 7):
        full = (1 << m) - 1
        plain = Preference(tuple(range(m)))
        quotas = list(range(1, m + 1)) + [INFINITE]
        cutoffs = [Preference(tuple(range(m)), c) for c in range(m + 1)]
        subsets = list(subsets_of(full, nonempty=False))
        for s in subsets:
            for t in subsets:
                bits.append(tr.call("dominance.weakly_dominates", weakly_dominates, plain, s, t))
                for q in quotas:
                    bits.append(
                        tr.call(
                            "dominance.quota_weakly_dominates",
                            quota_weakly_dominates, plain, q, s, t,
                        )
                    )
                for p in cutoffs:
                    bits.append(tr.call("dominance.weakly_dominates", weakly_dominates, p, s, t))
    return {"pairs": len(bits), "dominating": sum(bits), "sha256": hashlib.sha256(bits).hexdigest()}


def prove(p: Pass, inputs: dict) -> None:
    tr = p.tr
    _swept_group(
        p, "fixed34.draft", (fixed_domain, 3, 4), (draft_rule, PI3),
        [
            ("RP", check_rp, PI3),
            ("EF1", check_ef1),
            ("EFF", check_eff),
            ("NW", check_nw),
            ("RM", check_rm),
            ("MSP-certificate", check_msp_certificate),
        ],
    )
    _swept_group(
        p, "fixed34.dictatorship", (fixed_domain, 3, 4), (dictatorship_rule, PI3),
        [("SP", check_sp), ("WSP", check_wsp)],
    )
    _swept_group(
        p, "unacceptable24.u-draft", (unacceptable_domain, 2, 4), (unacceptable_draft_rule, PI2),
        [
            ("WRP*", check_wrp_star, PI2),
            ("EF1", check_ef1),
            ("NW*", check_nw_star),
            ("RM", check_rm),
            ("IR", check_ir),
            ("TI", check_ti),
            ("TP", check_tp),
            ("EP", check_ep),
            ("EFF*", check_eff),
        ],
    )
    _swept_group(
        p, "quota24.quota-draft", (quota_domain, 2, 4, (1, 2)), (quota_draft_rule, PI2),
        [
            ("WRPq", check_wrp_quota, PI2),
            ("EF1", check_ef1),
            ("NWq", check_nw_quota),
            ("RM", check_rm),
        ],
    )
    _swept_group(
        p, "variable34.variable-draft", (variable_domain, 3, 4), (variable_draft_rule, PI3),
        [
            ("EF1", check_ef1_var),
            ("EFF", check_eff_var),
            ("RM", check_rm_var),
            ("CON", check_con),
            ("T-CON", check_tcon),
            ("NEU", check_neu),
        ],
        sweep=VariableSweep,
    )

    def msp_falsify():
        schemes = [
            tr.call("dominance.geometric_scheme", geometric_scheme, 3),
            tr.call("dominance.linear_scheme", linear_scheme, 3),
        ] + [
            tr.call("dominance.random_scheme", random_scheme, 3, s)
            for s in inputs["scheme_seeds"]
        ]
        domain = tr.call("axioms.fixed_domain", fixed_domain, 2, 3)
        rule = tr.call("rules.draft_rule", draft_rule, PI2)
        return p.check(check_msp_falsify, rule, domain, schemes)

    p.op("fixed23.draft.MSP-falsifier", msp_falsify)

    def efficiency():
        domain = tr.call("axioms.fixed_domain", fixed_domain, 2, 4)
        rep = tr.call(
            "verifier.verify_efficiency_decomposition", verify_efficiency_decomposition, domain
        )
        tr.note(pairs=rep.checked_pairs)
        return {
            "checked_pairs": rep.checked_pairs,
            "random_rules": rep.random_rules,
            "disagreements": rep.disagreements,
        }

    p.op("fixed24.efficiency-decomposition", efficiency)
    p.op("dominance.all-pairs", _dominance_sweep, tr)


# ---------------------------------------------------------------------------
# refute: checks that stop at their first witness, plus manipulation queries
# ---------------------------------------------------------------------------


def _manipulation(tr, text: str) -> dict:
    doc = tr.call("problemfile.parse_problem", parse_problem, text)
    roundtrip = tr.call("problemfile.serialize_problem", serialize_problem, doc) == text
    prob = doc.problem
    rule = tr.call("rules.draft_rule", draft_rule, doc.priority)
    replays = True
    for slot, agent in enumerate(prob.agents):
        found = tr.call("verifier.find_manipulation", find_manipulation, rule, prob, agent)
        tr.note(found=int(found is not None))
        if found is None:
            continue
        report, gained, truth = found
        profile = list(prob.profile)
        profile[slot] = report
        deviated = Problem(prob.variant, prob.agents, prob.available, tuple(profile))
        replays = (
            replays
            and tr.call("rules.allocate", rule.allocate, deviated)[slot] == gained
            and tr.call("rules.allocate", rule.allocate, prob)[slot] == truth
            and tr.call(
                "dominance.strictly_dominates",
                strictly_dominates, prob.profile[slot], gained, truth,
            )
        )
    return {"roundtrip": roundtrip, "replays": replays}


def refute(p: Pass, inputs: dict) -> None:
    fixed = (fixed_domain, 3, 4)
    _bare_check(p, "fixed34.null.NW", fixed, (null_rule,), check_nw)
    _bare_check(p, "fixed34.null.EFF", fixed, (null_rule,), check_eff)
    _bare_check(p, "fixed34.dictatorship.EF1", fixed, (dictatorship_rule, PI3), check_ef1)
    _bare_check(p, "fixed34.draft.SP", fixed, (draft_rule, PI3), check_sp)
    _bare_check(p, "fixed34.draft.WSP", fixed, (draft_rule, PI3), check_wsp)
    _bare_check(p, "fixed34.wrp-cx.WRP", fixed, (wrp_counterexample, 3, 4), check_wrp_any)
    _bare_check(p, "fixed34.rm-cx.RM", fixed, (rm_counterexample, 3, 4), check_rm)

    unacc = (unacceptable_domain, 2, 4)
    _bare_check(p, "unacceptable24.ir-cx.IR", unacc, (ir_counterexample, PI2), check_ir)
    _bare_check(p, "unacceptable24.null.NW*", unacc, (null_rule,), check_nw_star)
    _bare_check(
        p, "unacceptable24.wrp*-cx.WRP*", unacc, (wrp_star_counterexample, 2, 0),
        check_wrp_any, True,
    )
    _bare_check(
        p, "unacceptable24.serial-dictatorship.EF1", unacc,
        (serial_dictatorship_rule, PI2), check_ef1,
    )
    _bare_check(p, "unacceptable24.rm*-cx.RM", unacc, (rm_star_counterexample, 2, 4), check_rm)
    _bare_check(p, "unacceptable24.ti-cx.TI", unacc, (ti_counterexample, 2, 4), check_ti)

    var = (variable_domain, 3, 4)
    _bare_check(p, "variable34.dictatorship.EF1", var, (dictatorship_rule, PI3), check_ef1_var)
    _bare_check(p, "variable34.null.EFF", var, (null_rule,), check_eff_var)
    _bare_check(
        p, "variable34.population-rm-cx.RM", var, (population_rm_counterexample, PI3),
        check_rm_var,
    )
    _bare_check(
        p, "variable34.pairwise-consistency-cx.2-CON", var,
        (pairwise_consistency_counterexample, PI3), check_2con,
    )
    _bare_check(p, "variable34.snake.T-CON", var, (snake_draft_rule, PI3), check_tcon)
    _bare_check(
        p, "variable34.neutrality-cx.2-NEU", var, (neutrality_counterexample, PI3, 0), check_2neu,
    )

    for i, text in enumerate(inputs["problems"]):
        p.op(f"manipulate#{i}", _manipulation, p.tr, text)


# ---------------------------------------------------------------------------
# search: rule-space searches with certificates
# ---------------------------------------------------------------------------


def _compare_with_target(csp, solutions, target) -> list[bool]:
    """The comparison step of verifier.characterization_search."""
    return [
        all(table[k] == target.allocate(prob) for k, prob in zip(csp.keys, csp.problems))
        for table in solutions
    ]


def _characterization(tr, make_domain, axioms, priority, make_target) -> dict:
    domain = tr.call(f"axioms.{make_domain[0].__name__}", *make_domain)
    csp = tr.call("csp.build_csp", build_csp, domain, axioms, priority)
    tr.note(constraints=len(csp.constraints))
    res = tr.call("csp.solve_csp", solve_csp, csp, mode="find-all")
    tr.note(revisions=res.stats.revisions, nodes=res.stats.nodes)
    target = tr.call(f"rules.{make_target.__name__}", make_target, priority)
    matches = tr.call("verifier.target_compare", _compare_with_target, csp, res.solutions, target)
    return {"status": res.status, "solutions": len(res.solutions), "matches_target": matches}


def _csp_unsat(tr, make_domain, axioms, priority) -> dict:
    domain = tr.call(f"axioms.{make_domain[0].__name__}", *make_domain)
    csp = tr.call("csp.build_csp", build_csp, domain, axioms, priority)
    tr.note(constraints=len(csp.constraints))
    res = tr.call("csp.solve_csp", solve_csp, csp, mode="prove-unsat")
    tr.note(revisions=res.stats.revisions, nodes=res.stats.nodes)
    replays = res.certificate is not None and tr.call(
        "csp.replay_certificate", replay_certificate, csp, res.certificate
    )
    return {"status": res.status, "replays": replays}


def _grid_unsat(tr, n_objects, axioms, priority=PI2) -> dict:
    grid = tr.call("grid.build_grid", build_grid, n_objects, axioms, priority=priority)
    tr.note(tensor_bytes=grid.initial.nbytes + grid.m_row.nbytes + grid.m_col.nbytes)
    res = tr.call("grid.solve_grid", solve_grid, grid, mode="prove-unsat")
    tr.note(revisions=res.stats.revisions, nodes=res.stats.nodes)
    replays = res.certificate is not None and tr.call(
        "grid.replay_grid_certificate", replay_grid_certificate, grid, res.certificate
    )
    return {"status": res.status, "replays": replays}


def _theorem4_cases(tr) -> dict:
    log = tr.call("verifier.replay_theorem4_cases", replay_theorem4_cases)
    return {"cases": log["cases"], "orientations": log["orientations"], "steps": len(log["steps"])}


def search(p: Pass, inputs: dict) -> None:
    tr = p.tr
    t1 = ("WRP", "EF1", "NW", "RM")
    p.op("csp.T1.fixed24", _characterization, tr, (fixed_domain, 2, 4), t1, PI2, draft_rule)
    p.op("csp.T1.fixed33", _characterization, tr, (fixed_domain, 3, 3), t1, PI3, draft_rule)
    p.op(
        "csp.T6.quota24", _characterization, tr, (quota_domain, 2, 4, (1, 2)),
        ("WRPq", "EF1", "NWq", "RM"), PI2, quota_draft_rule,
    )
    p.op(
        "csp.T7.unacceptable23", _characterization, tr, (unacceptable_domain, 2, 3),
        ("WRP*", "EF1", "NW*", "RM", "IR", "TI"), PI2, unacceptable_draft_rule,
    )
    p.op(
        "csp.T2.fixed23", _csp_unsat, tr, (fixed_domain, 2, 3), ("RP", "EF1", "NW", "WSP"), PI2
    )
    for pi in (PI2, PI2[::-1]):
        p.op(
            f"grid.T2.5-objects.pi{''.join(map(str, pi))}", _grid_unsat, tr, 5,
            ("RP", "EF1", "NW", "WSP"), pi,
        )
    p.op("grid.T3.5-objects", _grid_unsat, tr, 5, ("EFF", "EF1", "WSP"))
    p.op("grid.T4.5-objects", _grid_unsat, tr, 5, ("NW", "EF1", "SP"))
    p.op("verifier.theorem4-cases", _theorem4_cases, tr)


RUNNERS = {"prove": prove, "refute": refute, "search": search}
WORKLOADS = tuple(RUNNERS)
