"""Differential tests: the table-driven checkers against the scalar oracle in scalar_checkers.

Each gather or unary-table checker, on fixed-population and variable-population
domains alike, must return the very AxiomReport of its scalar loop: verdict,
`checked` count and witness, so the witness is still the first violation in
enumeration order.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from itertools import permutations, product
from math import factorial
from random import Random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scalar_checkers as oracle
from draftkit import axioms, packed, verifier
from draftkit.axioms import (
    OBJECT_NAMES,
    FixedSweep,
    VariableSweep,
    all_priorities,
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
    bundle_of,
    bundle_size,
    is_extension_of,
    is_truncation_of,
    objects_of,
    preference_space,
    subsets_of,
    validate_allocation,
)
from draftkit.dominance import geometric_scheme, linear_scheme, random_scheme, relation_table
from draftkit.rules import (
    Case,
    dictatorship_rule,
    draft_rule,
    ir_counterexample,
    neutrality_counterexample,
    null_rule,
    pairwise_consistency_counterexample,
    piecewise_rule,
    population_rm_counterexample,
    problem_key,
    quota_draft_rule,
    rm_counterexample,
    rm_star_counterexample,
    sequence_draft_rule,
    serial_dictatorship_rule,
    snake_draft_rule,
    tabulated_rule,
    ti_counterexample,
    unacceptable_draft_rule,
    variable_draft_rule,
    wrp_counterexample,
    wrp_star_counterexample,
)

from helpers import distinct_problems, pref

DEVIATION = ("check_sp", "check_wsp", "check_msp_certificate")
PAIRWISE = ("check_ef", "check_ef1", "check_rm")
UNARY = ("check_nw", "check_rt", "check_ir", "check_nw_star", "check_eff", "WRP", "WRP*")
REPORT_CHANGE = ("check_tp", "check_ep", "check_ti")
QUOTA = ("check_nw_quota", "WRPq")
# checkers that take a priority, run for every priority of the population
RANKED = {"RP": "check_rp", "WRP": "check_wrp", "WRP*": "check_wrp_star", "WRPq": "check_wrp_quota"}


def _fixed_rules(n: int, m: int) -> dict:
    pi = tuple(range(1, n + 1))
    rules = {
        "draft": draft_rule(pi),
        "dictatorship": dictatorship_rule(pi),
        "null": null_rule(),
        "wrp-cx": wrp_counterexample(n, m),  # not restriction-invariant
    }
    if m > n:  # the pinned problem needs n + 1 objects
        rules["rm-cx"] = rm_counterexample(n, m)
    return rules


def _unacceptable_rules(m: int) -> dict:
    return {
        "u-draft": unacceptable_draft_rule((1, 2)),
        "ti-cx": ti_counterexample(2, m),
        "rm*-cx": rm_star_counterexample(2, m),
    }


def _cases():
    for n, m in ((2, 3), (3, 3)):
        for name in _fixed_rules(n, m):
            yield pytest.param("fixed", n, m, name, None, id=f"fixed{n}{m}-{name}")
    for name in _unacceptable_rules(3):
        yield pytest.param("unacceptable", 2, 3, name, None, id=f"unacceptable23-{name}")
    for quotas in ((1, 2), (1, INFINITE)):
        yield pytest.param(("quota", quotas), 2, 4, "quota-draft", None, id=f"quota24-{quotas}")
    # Larger domains: the scalar oracle needs 2-45 s for a check that holds or
    # fails late there (SP/WSP above all), so each rule is compared on a share
    # of the checkers that keeps every kernel covered at this size.
    for name, checkers in LARGE_FIXED.items():
        yield pytest.param("fixed", 3, 4, name, checkers, id=f"fixed34-{name}")
    for name, checkers in LARGE_UNACCEPTABLE.items():
        yield pytest.param("unacceptable", 2, 4, name, checkers, id=f"unacceptable24-{name}")


LARGE_FIXED = {
    "draft": ("check_ef", "check_ef1", "RP", "check_nw", "WRP", "check_rt", "check_eff"),
    "dictatorship": ("check_ef1", "check_rm", "check_msp_certificate", "WRP*", "check_ir"),
    "null": ("check_ef", "check_eff", "check_nw_star"),
    "rm-cx": ("check_rm", "check_msp_certificate", "check_rt"),
    "wrp-cx": ("check_sp", "check_wsp", "check_msp_certificate", "RP", "WRP"),
}
LARGE_UNACCEPTABLE = {
    "u-draft": (
        "check_ti", "check_ef1", "check_ir", "check_nw_star", "WRP*", "check_rt", "check_eff"
    ),
    "ti-cx": ("check_ti", "check_ep", "check_tp", "check_eff"),
    "rm*-cx": ("check_rm", "check_ef", "RP", "WRP"),
}


def _filled(kind, n: int, m: int, name: str) -> FixedSweep:
    if kind == "fixed":
        domain, rule = fixed_domain(n, m), _fixed_rules(n, m)[name]
    elif kind == "unacceptable":
        domain, rule = unacceptable_domain(n, m), _unacceptable_rules(m)[name]
    else:
        domain, rule = quota_domain(n, m, kind[1]), quota_draft_rule((1, 2))
    sw = FixedSweep(rule, domain)
    for xi in range(len(sw.xs)):
        sw.grid(xi)
    return sw


def _assert_same(sw: FixedSweep, checkers=None):
    """Compare the given checkers (RANKED ones for every priority), or all that apply to the domain."""
    domain = sw.domain
    if checkers is None:
        checkers = DEVIATION + PAIRWISE + UNARY + ("RP",)
        if domain.variant == "unacceptable":
            checkers += REPORT_CHANGE
        if domain.variant == "quota":
            checkers += QUOTA
    for name in checkers:
        if name in RANKED:
            fast, slow = getattr(axioms, RANKED[name]), getattr(oracle, RANKED[name])
            for pi in all_priorities(sw.agents):
                assert fast(sw, domain, pi) == slow(sw, domain, pi), (name, pi)
        else:
            assert getattr(axioms, name)(sw, domain) == getattr(oracle, name)(sw, domain), name


@pytest.mark.parametrize("kind, n, m, name, checkers", _cases())
def test_gather_checkers_match_scalar_oracle(kind, n, m, name, checkers):
    _assert_same(_filled(kind, n, m, name), checkers)


@pytest.mark.parametrize(
    "checker, rule, domain",
    [
        ("check_sp", ti_counterexample(2, 3), unacceptable_domain(2, 3)),
        ("check_ep", ti_counterexample(2, 3), unacceptable_domain(2, 3)),
        ("check_ef1", dictatorship_rule((1, 2, 3)), fixed_domain(3, 3)),
        ("check_ti", ti_counterexample(2, 3), unacceptable_domain(2, 3)),
        ("check_msp_certificate", wrp_counterexample(2, 3), fixed_domain(2, 3)),
        ("check_nw", null_rule(), fixed_domain(3, 3)),
        ("check_ir", ir_counterexample((1, 2)), unacceptable_domain(2, 3)),
    ],
)
def test_refuting_check_fills_the_same_grids(checker, rule, domain):
    fast, slow = FixedSweep(rule, domain), FixedSweep(rule, domain)
    assert getattr(axioms, checker)(fast, domain) == getattr(oracle, checker)(slow, domain)
    assert sorted(fast._grids) == sorted(slow._grids)
    assert len(fast._grids) < len(fast.xs)


def _fill_cases():
    pi = (1, 2)
    anywhere = {
        "serial-dictatorship": serial_dictatorship_rule(pi),
        "pi-dictatorship": dictatorship_rule(pi),
        "null": null_rule(),
    }
    piecewise = {"wrp-cx": wrp_counterexample(2, 3), "rm-cx": rm_counterexample(2, 3)}
    cases = {  # quotas (1, 2) admit neither dictatorship
        "fixed23": (
            fixed_domain(2, 3),
            {"draft": draft_rule(pi), **anywhere, "snake": snake_draft_rule(pi), **piecewise},
        ),
        "quota23": (
            quota_domain(2, 3, (1, 2)),
            {"draft": quota_draft_rule(pi), "null": null_rule()},
        ),
        "unacceptable23": (
            unacceptable_domain(2, 3),
            {"draft": unacceptable_draft_rule(pi), **anywhere, "ti-cx": ti_counterexample(2, 3)},
        ),
        "variable23": (
            variable_domain(2, 3),
            {
                "draft": variable_draft_rule(pi),
                **anywhere,
                "snake": snake_draft_rule(pi),
                "population-rm-cx": population_rm_counterexample(pi),
                "2con-cx": pairwise_consistency_counterexample(pi),
            },
        ),
    }
    for label, (domain, rules) in cases.items():
        for name, rule in rules.items():
            yield pytest.param(domain, rule, id=f"{label}-{name}")


@pytest.mark.parametrize("domain, rule", _fill_cases())
def test_sweep_rows_are_the_rule_allocations(domain, rule):
    """Every decoded row, in the domain's enumeration order, is the valid allocation of the
    rule's scalar runner."""
    sw = axioms._sweep(rule, domain)
    runner = oracle.scalar_runner(rule)
    problems = iter(domain.problems())
    for key in sw.blocks():
        for code in range(len(sw.rows(key))):
            problem, alloc = next(problems), sw.allocation_at(key, code)
            assert sw.problem_at(key, code) == problem
            assert all(type(b) is int for b in alloc)
            assert alloc == runner(problem)[0]
            assert validate_allocation(problem, alloc) is None
    assert next(problems, None) is None


# the piecewise counterexamples on the domains where the benchmark refutes them
PIECEWISE = {
    "fixed34": (
        fixed_domain(3, 4),
        {"wrp-cx": wrp_counterexample(3, 4), "rm-cx": rm_counterexample(3, 4)},
    ),
    "unacceptable24": (
        unacceptable_domain(2, 4),
        {
            "wrp*-cx": wrp_star_counterexample(2, 0),
            "rm*-cx": rm_star_counterexample(2, 4),
            "ti-cx": ti_counterexample(2, 4),
        },
    ),
}


TABLE_DOMAINS = {  # domain and draft of each kind of random table
    "fixed": (fixed_domain(2, 3), draft_rule((1, 2))),
    "variable": (variable_domain(2, 3), variable_draft_rule((1, 2))),
    "unacceptable": (unacceptable_domain(2, 2), unacceptable_draft_rule((1, 2))),
}


@lru_cache(maxsize=None)
def _table_space(kind: str):
    """Distinct problem keys of a domain, their candidate allocations, and the draft's pick."""
    domain, base = TABLE_DOMAINS[kind]
    keys, cands, table = [], [], {}
    for prob in domain.problems():
        key = problem_key(prob)
        if key not in table:
            keys.append(key)
            cands.append(oracle._all_allocations(prob))
            table[key] = base.allocate(prob)
    return domain, keys, cands, table


def _engine_cases():
    """The benchmark's own sweeps and random tables: each engine against the oracle's
    row-by-row fill through the rule's scalar runner."""
    pi3, pi2 = (1, 2, 3), (1, 2)
    cases = {
        "fixed34": (
            fixed_domain(3, 4),
            {
                "draft": draft_rule(pi3),
                "draft-reversed": draft_rule(pi3[::-1]),
                "snake": snake_draft_rule(pi3),
                "pi-dictatorship": dictatorship_rule(pi3),
                "serial-dictatorship": serial_dictatorship_rule(pi3),
                **PIECEWISE["fixed34"][1],
            },
        ),
        "unacceptable24": (
            unacceptable_domain(2, 4),
            {
                "u-draft": unacceptable_draft_rule(pi2),
                "serial-dictatorship": serial_dictatorship_rule(pi2),
                "ir-cx": (ir_counterexample(pi2), oracle.ir_counterexample_runner(pi2)),
                **PIECEWISE["unacceptable24"][1],
            },
        ),
        "quota24-1-2": (quota_domain(2, 4, (1, 2)), {"draft": quota_draft_rule(pi2)}),
        "quota24-1-inf": (quota_domain(2, 4, (1, INFINITE)), {"draft": quota_draft_rule(pi2)}),
        "variable34": (
            variable_domain(3, 4),
            {
                "draft": variable_draft_rule(pi3),
                "snake": snake_draft_rule(pi3),
                "population-rm-cx": population_rm_counterexample(pi3),
                "2con-cx": pairwise_consistency_counterexample(pi3),
            },
        ),
    }
    for n, m in ((2, 3), (3, 3), (3, 4)):
        pi = tuple(range(1, n + 1))
        rules = cases.setdefault(f"variable{n}{m}", (variable_domain(n, m), {}))[1]
        rules["neutrality-cx"] = (neutrality_counterexample(pi, 0), oracle.neutrality_runner(pi, 0))
    tables = {"fixed23": "fixed", "unacceptable22": "unacceptable", "variable23": "variable"}
    for label, kind in tables.items():
        domain, keys, cands, _ = _table_space(kind)
        rules, draft = cases.setdefault(label, (domain, {}))[1], TABLE_DOMAINS[kind][1]
        for seed in range(2):  # complete, half with the draft as fallback, half without one
            rng = Random(seed)
            table = {key: rng.choice(cand) for key, cand in zip(keys, cands)}
            half = dict(rng.sample(list(table.items()), len(table) // 2))
            for name, args in (
                (f"tabulated-{seed}", (table,)),
                (f"tabulated-fallback-{seed}", (half, draft)),
                (f"tabulated-miss-{seed}", (half,)),
            ):
                rules[name] = (tabulated_rule(name, *args), oracle.tabulated_runner(name, *args))
    for label, (domain, rules) in cases.items():
        for name, rule in rules.items():
            rule, runner = rule if isinstance(rule, tuple) else (rule, oracle.scalar_runner(rule))
            yield pytest.param(domain, rule, runner, id=f"{label}-{name}")


@pytest.mark.parametrize("domain, rule, runner", _engine_cases())
def test_engine_arrays_are_the_scalar_fill(domain, rule, runner):
    """Block by block, the array engine's fill is the oracle's row-by-row fill through the
    rule's scalar runner, errors included; only a table with a miss raises."""
    fast = axioms._sweep(rule, domain)
    slow = axioms._sweep(replace(rule, fill=oracle.row_fill(runner)), domain)
    raised = False
    for key in fast.blocks():
        got, expected = _outcome(lambda: fast.rows(key)), _outcome(lambda: slow.rows(key))
        if isinstance(expected, tuple):
            assert got == expected, key
            raised = True
            continue
        assert got.dtype == expected.dtype == np.uint8
        assert np.array_equal(got, expected), key
    assert raised == ("-miss-" in rule.name)


def _piecewise_cases():
    for label, (domain, rules) in PIECEWISE.items():
        for name, rule in rules.items():
            yield pytest.param(domain, rule, id=f"{label}-{name}")


@pytest.mark.parametrize("domain, rule", _piecewise_cases())
def test_every_case_hits_and_its_rows_are_its_problems(domain, rule):
    """Case.rows is the oracle's case test at every row of every block, and each case hits
    a row."""
    sw = FixedSweep(rule, domain)
    overrides = rule.fill.__self__.overrides  # a piecewise rule's engine is its Piecewise's fill
    assert overrides
    for case, _ in overrides:
        rows = np.concatenate([case.rows(x, sw.prefs, sw.digits) for x in sw.xs])
        holds = (oracle.case_holds(case, problem) for problem in domain.problems())
        scalar = np.fromiter(holds, bool, len(rows))
        assert np.array_equal(rows, scalar)
        assert rows.any()


ENGINES = {
    "draft": lambda pi, seq: draft_rule(pi),
    "sequence-draft": lambda pi, seq: sequence_draft_rule(seq),
    "quota-draft": lambda pi, seq: quota_draft_rule(pi),
    "u-draft": lambda pi, seq: unacceptable_draft_rule(pi),
    "variable-draft": lambda pi, seq: variable_draft_rule(pi),
    "snake": lambda pi, seq: snake_draft_rule(pi),
    "serial-dictatorship": lambda pi, seq: serial_dictatorship_rule(pi),
    "pi-dictatorship": lambda pi, seq: dictatorship_rule(pi),
    "null": lambda pi, seq: null_rule(),
    "ir-cx": lambda pi, seq: ir_counterexample(pi),  # its runner: RUNNERS
    "population-rm-cx": lambda pi, seq: population_rm_counterexample(pi),
    "2con-cx": lambda pi, seq: pairwise_consistency_counterexample(pi),
}
RUNNERS = {"ir-cx": lambda pi, seq: oracle.ir_counterexample_runner(pi)}  # others: scalar_runner
MAX_BLOCK_ROWS = 15_000


def _space_size(variant: str, k: int) -> int:
    return factorial(k) * (k + 1 if variant == "unacceptable" else 1)


@st.composite
def engine_blocks(draw):
    """A rule, a domain, one of its blocks of at most MAX_BLOCK_ROWS rows, and the rule's
    scalar runner.

    Priorities and picking sequences may miss or add an agent, so error paths are drawn too."""
    variant = draw(st.sampled_from(["fixed", "quota", "unacceptable", "variable"]))
    n = draw(st.integers(1, 3))
    agents = tuple(range(1, n + 1))
    sizes = [k for k in range(1, 6) if _space_size(variant, k) ** n <= MAX_BLOCK_ROWS]
    m = draw(st.sampled_from(sizes if variant != "variable" else range(1, 6)))
    some_agents = st.lists(st.integers(1, n + 1), min_size=1, max_size=n + 1, unique=True)
    pi = tuple(draw(st.permutations(agents) | some_agents))
    prefix = draw(st.lists(st.integers(1, n), max_size=3))
    seq = PickingSequence(tuple(prefix), tuple(draw(st.permutations(agents) | some_agents)))
    name = draw(st.sampled_from(sorted(ENGINES)))
    rule = ENGINES[name](pi, seq)
    runner = RUNNERS[name](pi, seq) if name in RUNNERS else oracle.scalar_runner(rule)
    if variant == "quota":
        quota = st.one_of(st.integers(1, 3), st.just(INFINITE))
        domain = quota_domain(n, m, draw(st.lists(quota, min_size=n, max_size=n)))
    else:
        make = {"fixed": fixed_domain, "unacceptable": unacceptable_domain}
        domain = make.get(variant, variable_domain)(n, m)
    sw = axioms._sweep(rule, domain)
    pop = draw(st.integers(0, len(domain.populations) - 1))
    size = len(domain.populations[pop])
    small = [k for k in sw.blocks() if len(sw.prefs_at(k)) ** size <= MAX_BLOCK_ROWS]
    return name, sw, draw(st.sampled_from([k for k in small if k[0] == pop])), runner


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:  # the engine must fail exactly as the scalar engine does
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None, database=None)
@given(engine_blocks())
def test_engine_rows_are_the_rule_allocations(case):
    name, sw, key, runner = case
    got = _outcome(lambda: sw.rows(key))
    for code in range(len(sw.digits_at(key))):
        problem = sw.problem_at(key, code)
        expected = _outcome(lambda: runner(problem)[0])
        if isinstance(expected, tuple) and isinstance(expected[0], type):
            assert got == expected  # the scalar fill stops at its first error
            return
        assert tuple(got[code].tolist()) == expected, (problem, code)
        if sw.domain.variant != "quota" or name in ("quota-draft", "null"):
            assert validate_allocation(problem, expected) is None


@pytest.mark.parametrize(
    "rule, domain, error, message",
    [
        (draft_rule((1, 2)), quota_domain(2, 3, (1, 2)), ValueError, "fixed-variant"),
        (draft_rule((1, 2)), unacceptable_domain(2, 3), ValueError, "fixed-variant"),
        (sequence_draft_rule(PickingSequence((1,))), fixed_domain(2, 3), ValueError, "at step 1"),
        (sequence_draft_rule(PickingSequence((3,), (1, 2))), fixed_domain(2, 3), ValueError, "not in"),
        (quota_draft_rule((1, 2)), fixed_domain(2, 3), ValueError, "needs quotas"),
        (quota_draft_rule((1, 2)), quota_domain(2, 3, (0, 1)), ValueError, "at least 1"),
        (unacceptable_draft_rule((1, 3)), unacceptable_domain(2, 3), ValueError, r"absent agents \[3\]"),
        (quota_draft_rule((1,)), quota_domain(2, 3, (1, 2)), ValueError, r"cover agents \[2\]"),
        (variable_draft_rule((1,)), variable_domain(2, 3), ValueError, r"cover agents \[2\]"),
        (snake_draft_rule((2,)), variable_domain(2, 3), ValueError, r"cover agents \[1\]"),
        (serial_dictatorship_rule((2,)), fixed_domain(2, 3), ValueError, r"cover agents \[1\]"),
        (dictatorship_rule((1,)), unacceptable_domain(2, 3), ValueError, r"cover agents \[2\]"),
        (variable_draft_rule((1, 2)), unacceptable_domain(2, 3), RuntimeError, "found no object"),
        (draft_rule((1,)), fixed_domain(2, 3), ValueError, r"cover agents \[2\]"),
        (draft_rule((1, 2, 3)), fixed_domain(2, 3), ValueError, r"absent agents \[3\]"),
        (draft_rule((1, 1)), fixed_domain(2, 3), ValueError, r"repeats agents \[1\]"),
        (unacceptable_draft_rule((1, 1)), unacceptable_domain(2, 3), ValueError, r"repeats agents \[1\]"),
        (quota_draft_rule((1, 1)), quota_domain(2, 3, (1, 2)), ValueError, r"repeats agents \[1\]"),
        (variable_draft_rule((1, 1, 2)), variable_domain(2, 3), ValueError, r"repeats agents \[1\]"),
        (snake_draft_rule((2, 1, 2)), variable_domain(2, 3), ValueError, r"repeats agents \[2\]"),
        (serial_dictatorship_rule((1, 2, 1)), fixed_domain(2, 3), ValueError, r"repeats agents \[1\]"),
    ],
)
def test_engines_raise_their_scalar_engines_errors(rule, domain, error, message):
    """On the domain's largest block, the array engine fails as the scalar fill does."""
    key = (len(domain.populations) - 1, len(domain.available_sets) - 1)
    slow = axioms._sweep(replace(rule, fill=oracle.row_fill(oracle.scalar_runner(rule))), domain)
    with pytest.raises(error, match=message) as scalar:
        slow.rows(key)
    with pytest.raises(error) as engine:
        axioms._sweep(rule, domain).rows(key)
    assert str(engine.value) == str(scalar.value)


# --- property test: random tabulated rules put witnesses anywhere -------------


@st.composite
def tabulated_rules(draw, kind: str):
    """The draft with a few cells redrawn at random, declared invariant or not."""
    domain, keys, cands, base = _table_space(kind)
    table = dict(base)
    for _ in range(draw(st.integers(0, 5))):
        k = draw(st.integers(0, len(keys) - 1))
        table[keys[k]] = cands[k][draw(st.integers(0, len(cands[k]) - 1))]
    rule = tabulated_rule("random", table)
    return domain, replace(rule, restriction_invariant=draw(st.booleans()))


@settings(max_examples=60, deadline=None, database=None)
@given(st.sampled_from(["fixed", "unacceptable"]).flatmap(tabulated_rules))
def test_random_tabulated_rules_match_scalar_oracle(case):
    domain, rule = case
    _assert_same(FixedSweep(rule, domain))


SMALL_BLOCK = 64  # cells per scan step: every small domain's scan takes many steps


def _many_block_cases():
    for n, m in ((2, 3), (3, 3)):
        for name in _fixed_rules(n, m):
            yield pytest.param("fixed", n, m, name, id=f"fixed{n}{m}-{name}")
    for name in _unacceptable_rules(3):
        yield pytest.param("unacceptable", 2, 3, name, id=f"unacceptable23-{name}")


@pytest.mark.parametrize("kind, n, m, name", _many_block_cases())
def test_deviation_scans_across_many_blocks_match_scalar_oracle(kind, n, m, name):
    """SP, WSP, TP, EP, TI, the MSP certificate and RM with steps of a few codes: the checks
    summed across steps, the MSP certificate's unanimous codes and TI's admitted cells."""
    checkers = DEVIATION + ("check_rm",) + (REPORT_CHANGE if kind == "unacceptable" else ())
    with mock.patch.object(axioms, "_BLOCK", SMALL_BLOCK):
        _assert_same(_filled(kind, n, m, name), checkers)


@settings(max_examples=20, deadline=None, database=None)
@given(st.sampled_from(["fixed", "unacceptable"]).flatmap(tabulated_rules))
def test_random_tabulated_rules_match_scalar_oracle_across_many_blocks(case):
    domain, rule = case
    with mock.patch.object(axioms, "_BLOCK", SMALL_BLOCK):
        for invariant in (False, True):
            _assert_same(FixedSweep(replace(rule, restriction_invariant=invariant), domain))


@pytest.mark.parametrize("kind, n, m, name", _many_block_cases())
def test_deviation_scans_on_multiword_sets_match_scalar_oracle(kind, n, m, name):
    """SP, WSP, TP, EP, TI and the MSP certificate with three bundles per word of a packed
    set, so that a set of 3-object bundles spans three words, the last one partly."""
    checkers = DEVIATION + (REPORT_CHANGE if kind == "unacceptable" else ())
    with mock.patch.object(axioms, "_WORD_BITS", 3):
        _assert_same(_filled(kind, n, m, name), checkers)


def _cutoff_reward(good: tuple[int, ...]):
    """Agent 1 gets the whole set exactly when her reported cutoff is in `good`, agent 2 the
    rest: not restriction-invariant, since the cutoff counts objects outside the set."""

    def run(p: Problem):
        return ((p.available, 0) if p.profile[0].cutoff in good else (0, p.available)), None

    return oracle.scalar_rule(f"cutoff-reward-{good}", run, restriction_invariant=False)


@pytest.mark.parametrize("good", [(0, 2), (1, 3)], ids=["even", "odd"])
def test_report_changes_at_the_nearest_cutoff_match_scalar_oracle(good):
    """On unacceptable 2x3, every extension that helps under even rewards, and truth 2's
    truncation that helps under odd ones, is one cutoff away: the nearest cutoff of the
    exclusive prefix and suffix ORs."""
    sw = FixedSweep(_cutoff_reward(good), unacceptable_domain(2, 3))
    _assert_same(sw, DEVIATION + REPORT_CHANGE)


@pytest.mark.parametrize("quotas", [(1, 2), (1, INFINITE)], ids=["quota12", "quota1inf"])
@pytest.mark.parametrize("pi", [(1, 2), (2, 1)], ids=["pi12", "pi21"])
def test_misreport_scans_read_each_slots_quota(quotas, pi):
    """SP and WSP on quota 2x4 read each slot's BAD table under its own quota; the draft
    that lets agent 2 pick first fails both where agent 1's quota is 1."""
    sw = FixedSweep(quota_draft_rule(pi), quota_domain(2, 4, quotas))
    _assert_same(sw, ("check_sp", "check_wsp"))


@pytest.mark.parametrize("m", range(1, 5))
@pytest.mark.parametrize("bits", [64, 3])
def test_failing_sets_pack_the_deviation_relations(m, bits):
    """Bit t % bits of word t // bits of BAD[d·2^m + own] is set exactly where the relation
    rejects (d, own, t), with and without cutoffs and quotas."""
    one, t = packed.bundle_bits(m, bits), np.arange(1 << m)
    assert (one[t // bits, t] == np.left_shift(1, t % bits)).all() and (one != 0).sum() == len(t)
    for cutoffs, quota in ((False, None), (False, 1), (True, None)):
        dom = relation_table(m, cutoffs, quota)
        d, own = np.arange(len(dom))[:, None, None], t[:, None]
        for name in ("SP", "WSP"):
            table = packed.failing_sets(axioms.DEVIATIONS[name], m, cutoffs, quota, bits)
            got = table[t // bits, (d << m) + own] & one[t // bits, t] != 0
            assert (got == ~axioms.DEVIATIONS[name](dom, d, own, t)).all(), (name, cutoffs, quota)


# --- variable-population checkers ---------------------------------------------

VARIABLE = (
    "check_nw_var",
    "check_ef1_var",
    "check_eff_var",
    "check_rm_var",
    "check_con",
    "check_2con",
    "check_tcon",
    "check_neu",
    "check_2neu",
)


def _variable_rules(n: int) -> dict:
    pi = tuple(range(1, n + 1))
    return {
        "variable-draft": variable_draft_rule(pi),
        "snake": snake_draft_rule(pi),
        "pi-dictatorship": dictatorship_rule(pi),
        "null": null_rule(),
        "population-rm-cx": population_rm_counterexample(pi),
        "pairwise-consistency-cx": pairwise_consistency_counterexample(pi),
        "neutrality-cx": neutrality_counterexample(pi, special_object=0),
    }


# At 3x4 the scalar NEU takes about 7 s and RM+ about 3 s on a rule that
# passes them, so each rule is compared on a share of the checkers that covers
# every kernel at this size, each on a passing and on a failing rule.
LARGE_VARIABLE = {
    "variable-draft": ("check_neu", "check_con", "check_tcon", "check_ef1_var"),
    "snake": ("check_tcon", "check_rm_var", "check_2neu", "check_eff_var"),
    "pi-dictatorship": ("check_ef1_var", "check_2con", "check_nw_var"),
    "null": ("check_nw_var", "check_eff_var", "check_ef1_var", "check_tcon"),
    "population-rm-cx": ("check_rm_var", "check_2con"),
    "pairwise-consistency-cx": ("check_con", "check_2con"),
    "neutrality-cx": ("check_neu", "check_2neu"),
}


def _variable_cases():
    for n, m in ((2, 3), (3, 3)):
        for name in _variable_rules(n):
            yield pytest.param(n, m, name, VARIABLE, id=f"variable{n}{m}-{name}")
    # one agent and five objects: NEU relabels the full set of five objects too
    yield pytest.param(1, 5, "variable-draft", VARIABLE, id="variable15-variable-draft")
    for name, checkers in LARGE_VARIABLE.items():
        yield pytest.param(3, 4, name, checkers, id=f"variable34-{name}")


def _assert_same_variable(sw: VariableSweep, checkers=VARIABLE):
    for name in checkers:
        assert getattr(axioms, name)(sw, sw.domain) == getattr(oracle, name)(sw, sw.domain), name


@pytest.mark.parametrize("n, m, name, checkers", _variable_cases())
def test_variable_checkers_match_scalar_oracle(n, m, name, checkers):
    domain = variable_domain(n, m)
    sw = VariableSweep(_variable_rules(n)[name], domain)
    for pop in domain.populations:
        for x in domain.available_sets:
            sw.grid(pop, x)
    _assert_same_variable(sw, checkers)


def test_neu_relabels_sets_of_five_objects():
    """One planted cell at the full set of five objects: ranking bacde gets nothing."""
    full = (1 << 5) - 1
    planted = Case(lambda x: x == full, (lambda q: q == pref("bacde"),))
    rule = piecewise_rule(variable_draft_rule((1,)), [(planted, null_rule())])
    domain = variable_domain(1, 5)
    rep = axioms.check_neu(rule, domain)
    assert rep == oracle.check_neu(rule, domain)
    assert (rep.verdict, rep.note) == ("violated", "")
    assert rep.witness["problem"]["available"] == "{a,b,c,d,e}"
    assert rep.witness["relabeled_problem"]["profile"] == {1: "b>a>c>d>e"}


def _relabeling_oracle(x: int, t: int):
    """CANON and BACK of `canonical_relabelings` on t's subsets, one dict per bijection."""
    index = {r: i for i, r in enumerate(permutations(objects_of(t)))}
    rankings = list(permutations(objects_of(x)))
    canon, back = [], []
    for r0 in rankings:
        sigma = dict(zip(r0, objects_of(t)))  # ranking r0 onto t's ascending order
        inverse = {b: a for a, b in sigma.items()}
        canon.append([index[tuple(sigma[o] for o in r)] for r in rankings])
        back.append([bundle_of(inverse[o] for o in objects_of(b)) for b in subsets_of(t, False)])
    return canon, back


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_canonical_relabelings_are_the_dict_bijections(m):
    for x, t in product(range(1 << m), repeat=2):
        if bundle_size(x) == bundle_size(t):
            canon, back = axioms.canonical_relabelings(x, t)
            want_canon, want_back = _relabeling_oracle(x, t)
            assert canon.tolist() == want_canon, (x, t)
            assert back[:, list(subsets_of(t, False))].tolist() == want_back, (x, t)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@pytest.mark.parametrize(
    "make",
    [fixed_domain, lambda n, m: quota_domain(n, m, (1, 2)), unacceptable_domain],
    ids=["fixed", "quota12", "unacceptable"],
)
def test_restriction_reps_are_the_restrict_scan(make, m):
    """The first index of each restriction-code class is the first index whose
    `core.restrict` to the set is the same, at every preference index and every set."""
    domain = make(2, m)
    for x in domain.available_sets:
        want = oracle.restriction_reps(domain, x)
        assert axioms.restriction_reps(domain, x).tolist() == want, (domain.variant, x)


@pytest.mark.parametrize("m", range(5))
def test_change_targets_are_the_truncation_scan(m):
    """TP's and TI's truncations and EP's extensions of each preference index, in index
    order, found by `core.is_truncation_of` over the whole space; pads repeat the index."""
    prefs = preference_space(m, cutoffs=True)
    for pick, related in ((0, is_truncation_of), (1, is_extension_of)):
        targets, counted = axioms._change_targets(m, pick)
        for i, p in enumerate(prefs):
            want = [j for j, q in enumerate(prefs) if q != p and related(q, p)]
            assert targets[i][counted[i]].tolist() == want, (m, pick, p)
            assert (targets[i][~counted[i]] == i).all()


def test_refuting_variable_check_fills_only_up_to_the_witness():
    domain = variable_domain(3, 4)
    base, calls = population_rm_counterexample((1, 2, 3)), []
    rule = oracle.scalar_rule(base.name, lambda p: calls.append(p) or base.run(p))
    sw = VariableSweep(rule, domain)
    rep = axioms.check_rm_var(sw, domain)
    assert (rep.verdict, rep.checked) == ("violated", 1513)
    problem = rep.witness["problem"]
    pop = tuple(problem["agents"])
    big = sum(1 << OBJECT_NAMES.index(o) for o in problem["available"].strip("{}").split(","))
    blocks = [(p, x) for p in domain.populations for x in domain.available_sets]
    last = blocks.index((pop, big))
    filled = [(domain.populations[p], domain.available_sets[x]) for p, x in sw._grids]
    assert last < len(blocks) - 1
    assert max(blocks.index(block) for block in filled) == last
    assert len(calls) == len(set(calls)) == sum(len(sw.grid(*block)) for block in filled)


@settings(max_examples=60, deadline=None, database=None)
@given(tabulated_rules("variable"))
def test_random_tabulated_rules_match_scalar_oracle_on_variable_domains(case):
    domain, rule = case
    _assert_same_variable(VariableSweep(rule, domain))


# --- trade cycles: the Warshall closure against the depth-first search ---------


@st.composite
def rt_blocks(draw):
    """Random allocation rows over a fixed or cutoff preference space, possibly none."""
    variant = draw(st.sampled_from(["fixed", "unacceptable"]))
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    domain = (fixed_domain if variant == "fixed" else unacceptable_domain)(n, m)
    P = _space_size(variant, m)
    rows = draw(st.integers(0, 40))

    def rows_of(values, width):
        row = st.lists(values, min_size=width, max_size=width)
        return draw(st.lists(row, min_size=rows, max_size=rows))

    owners = rows_of(st.integers(0, n), m)  # owner n is nobody
    digits = np.array(rows_of(st.integers(0, P - 1), n), dtype=np.intp).reshape(rows, n)
    bundles = [[sum(1 << o for o, who in enumerate(r) if who == i) for i in range(n)] for r in owners]
    allocs = np.array(bundles, dtype=np.uint8).reshape(rows, n)
    return domain, allocs, digits, draw(st.sampled_from([1, 3, 1 << 15]))


@settings(max_examples=200, deadline=None, database=None)
@given(rt_blocks())
def test_rt_closure_is_the_trade_cycle_search(case):
    domain, allocs, digits, block = case
    space = axioms.AxiomSpace(domain)
    x = (1 << domain.n_objects) - 1
    with mock.patch.object(axioms, "_BLOCK", block):  # small blocks split the rows
        got = axioms.UNARY["RT"].ok(space, x, allocs, digits)
    assert got.shape == (len(allocs), 1)
    expected = [
        axioms._trade_cycle([space.prefs[d] for d in ds], alloc) is None
        for alloc, ds in zip(allocs.tolist(), digits.tolist())
    ]
    assert got[:, 0].tolist() == expected


def test_rt_closure_finds_a_three_agent_cycle():
    # each agent ranks first the object the next one holds: a -> b -> c -> a
    domain = fixed_domain(3, 3)
    space = axioms.AxiomSpace(domain)
    prefs = [(1, 0, 2), (2, 1, 0), (0, 2, 1)]
    digits = np.array([[space.index[Preference(r)] for r in prefs]])
    allocs = np.array([[0b001, 0b010, 0b100]], dtype=np.uint8)
    assert not axioms.UNARY["RT"].ok(space, 0b111, allocs, digits)[0, 0]
    assert len(axioms._trade_cycle([Preference(r) for r in prefs], (1, 2, 4))) == 3


def test_rt_witness_of_a_tabulated_rule_passing_nw():
    profile = (Preference((0, 1, 2, 3)), Preference((3, 2, 1, 0)))
    special = Problem("fixed", (1, 2), 0b1111, profile)
    table = {problem_key(special): (0b0101, 0b1010)}
    rule = tabulated_rule("swap-tops", table, fallback=draft_rule((1, 2)))
    domain = fixed_domain(2, 4)
    assert axioms.check_nw(rule, domain).holds
    rep = axioms.check_rt(rule, domain)
    assert rep == oracle.check_rt(rule, domain)
    assert (rep.verdict, rep.checked) == ("violated", 8088)
    assert rep.witness == {
        "problem": axioms.describe_problem(special),
        "allocation": {1: "{a,c}", 2: "{b,d}"},
        "cycle": ["c", "b"],
    }
    eff = axioms.check_eff(rule, domain)
    assert (eff.verdict, eff.note, eff.witness) == ("violated", "fails RT", rep.witness)


# --- the array Pareto oracle against the scalar one ---------------------------


@pytest.mark.parametrize(
    "domain",
    [fixed_domain(2, 3), unacceptable_domain(2, 3), fixed_domain(3, 3)],
    ids=["fixed23", "unacceptable23", "fixed33"],
)
def test_pareto_oracle_matches_scalar_oracle(domain):
    """Every allocation at every problem key, the keys of one available set in one call."""
    keys = distinct_problems(domain)[1]
    for x in domain.available_sets:
        probs = [prob for prob in keys if prob.available == x]
        allocs = oracle._all_allocations(probs[0])
        rows = np.array(allocs, dtype=np.uint8)
        with mock.patch.object(verifier, "_ORACLE_CELLS", 1000):  # steps of one or many problems
            got = verifier.pareto_efficient(probs, rows, domain.n_objects)
        assert got.tolist() == [[oracle.pareto_oracle(p, a) for a in allocs] for p in probs], x


# --- maxmin falsifier and truthful best case against their scalar loops ------

TRUTH_ABC = Preference((0, 1, 2))


def _punish(p: Problem):
    """The draft, except that everyone gets nothing when agent 1 reports a > b > c."""
    if p.profile[0] == TRUTH_ABC:
        return (0,) * len(p.agents), None
    return draft_rule(tuple(range(1, len(p.agents) + 1))).run(p)


def _worst_first(p: Problem):
    """The draft, except that agent 1 picks by the reverse of the reported ranking."""
    flipped = Preference(p.profile[0].ranking[::-1])
    p = replace(p, profile=(flipped,) + p.profile[1:])
    return draft_rule(tuple(range(1, len(p.agents) + 1))).run(p)


def _msp_rules(n: int) -> dict:
    return {
        "draft": draft_rule(tuple(range(1, n + 1))),
        "punish": oracle.scalar_rule("punish", _punish, restriction_invariant=False),
        "worst-first": oracle.scalar_rule("worst-first", _worst_first, restriction_invariant=False),
    }


SCHEMES = [geometric_scheme(3), linear_scheme(3)] + [random_scheme(3, 7 + k) for k in range(10)]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", ["draft", "punish", "worst-first"])
@pytest.mark.parametrize("checker", ["check_msp_falsify", "check_truthful_best_case"])
def test_maxmin_checks_match_scalar_loops(checker, name, n):
    domain = fixed_domain(n, 3)
    sw = FixedSweep(_msp_rules(n)[name], domain)
    rep = getattr(axioms, checker)(sw, domain, SCHEMES)
    assert rep == getattr(oracle, checker)(sw, domain, SCHEMES)
    if name == "draft":
        assert rep.holds and rep.checked == len(sw.xs) * n * sw.P * len(SCHEMES)
    elif checker == "check_msp_falsify" and name == "punish":
        assert (rep.verdict, rep.checked) == ("refuted", 1)
    else:
        assert not rep.holds


def test_maxmin_falsifier_splits_truths_into_blocks():
    domain = fixed_domain(3, 3)
    sw = FixedSweep(_msp_rules(3)["worst-first"], domain)
    with mock.patch.object(axioms, "_BLOCK", 1):
        for checker in ("check_msp_falsify", "check_truthful_best_case"):
            assert getattr(axioms, checker)(sw, domain, SCHEMES) == getattr(oracle, checker)(
                sw, domain, SCHEMES
            )


def test_short_scheme_raises_as_additive_utility_does():
    short = geometric_scheme(2)
    for checker in ("check_msp_falsify", "check_truthful_best_case"):
        with pytest.raises(ValueError, match="scheme too short"):
            getattr(axioms, checker)(draft_rule((1, 2)), fixed_domain(2, 3), [short])
