import gc
import os
import subprocess
import sys
import weakref
from itertools import combinations, product
from math import comb, factorial
from pathlib import Path

import numpy as np
import pytest

import draftkit
import scalar_checkers as oracle
from draftkit.core import INFINITE, bundle_size
from draftkit.axioms import (
    UNARY,
    AxiomSpace,
    ProblemDomain,
    _digits,
    check_ef1,
    check_nw,
    check_rm,
    check_wrp,
    fixed_domain,
    quota_domain,
    unacceptable_domain,
)
from draftkit.csp import (
    MAX_SOLUTIONS,
    BinaryConstraint,
    PropagationStep,
    InfeasibilityCertificate,
    Network,
    ProblemKeys,
    SolveStats,
    _bits,
    _propagate as _propagate_csp,
    _splits,
    admitted,
    build_csp,
    replay_certificate,
    relabelings,
    solve_csp,
    solutions_as_rules,
)
from draftkit.grid import (
    _propagate,
    build_grid,
    expand,
    replay_grid_certificate,
    solve_grid,
)
from draftkit.rules import draft_rule, problem_key, tabulated_rule

from helpers import GRID_AXIOMS, bundle, distinct_problems


def test_unsupported_axiom_refused_by_name():
    with pytest.raises(ValueError, match="CON"):
        build_csp(fixed_domain(2, 2), ["NW", "CON"])


def test_nw_ef1_on_one_problem_leaves_the_two_splits():
    dom = ProblemDomain("fixed", 2, ((1, 2),), (bundle("ab"),))
    csp = build_csp(dom, ["NW", "EF1"])
    for cands in csp.network.candidates:
        assert sorted(cands) == [(bundle("a"), bundle("b")), (bundle("b"), bundle("a"))]


def test_empty_axiom_set_no_pruning():
    dom = ProblemDomain("fixed", 2, ((1, 2),), (bundle("ab"),))
    csp = build_csp(dom, [])
    for prob, cands in zip(csp.problems, csp.network.candidates):
        assert len(cands) == len(oracle._all_allocations(prob))
    assert not csp.constraints


def test_find_all_past_the_solution_cap_is_undecided():
    """36 four-candidate variables that no constraint links have 4^36 solutions and make no
    revision, so only the solution cap stops the search."""
    dom = ProblemDomain("fixed", 3, ((1, 2),), (bundle("abc"),))
    csp = build_csp(dom, ["NW", "EF1"])
    assert not csp.constraints and [d.bit_count() for d in csp.network.domains] == [4] * 36
    res = solve_csp(csp)
    assert (res.status, res.stats.revisions) == ("undecided", 0)
    assert len(res.solutions) == MAX_SOLUTIONS + 1


def test_characterization_propagation_pins_draft_small():
    dom = fixed_domain(2, 2)
    csp = build_csp(dom, ["WRP", "EF1", "NW", "RM"], priority=(1, 2))
    res = solve_csp(csp, mode="find-all")
    assert res.status == "sat" and len(res.solutions) == 1
    rule = draft_rule((1, 2))
    table = res.solutions[0]
    for k, prob in zip(csp.keys, csp.problems):
        assert table[k] == rule.allocate(prob)


def test_solver_exhaustiveness_matches_brute_force():
    """One enumeration of every tabulated rule on fixed 2×2, filtered by the axiom checkers,
    gives the survivors of WRP+NW+RM and, among them, of T1. T1 is decided at the quotient
    root; WRP+NW+RM leaves variables open there and is searched on the full network."""
    dom = fixed_domain(2, 2)
    csp, weak = (build_csp(dom, axioms, priority=(1, 2)) for axioms in (T1, ("WRP", "NW", "RM")))
    wiped, doms = _root(weak.quotient)
    assert wiped is None and sum(d.bit_count() > 1 for d in doms) == 2

    keys, problems = csp.keys, csp.problems
    assert weak.keys == keys
    cands = [oracle._all_allocations(p) for p in problems]
    brute, brute_weak = [], []
    for combo in product(*cands):
        table = dict(zip(keys, combo))
        rule = tabulated_rule("t", table)
        if not check_nw(rule, dom).holds:
            continue
        if not check_wrp(rule, dom, (1, 2)).holds:
            continue
        if not check_rm(rule, dom).holds:
            continue
        brute_weak.append(table)
        if check_ef1(rule, dom).holds:
            brute.append(table)
    assert len(brute_weak) == 16 and len(brute) == 1
    for got, want in ((csp, brute), (weak, brute_weak)):
        assert sorted(map(str, want)) == sorted(map(str, solve_csp(got, mode="find-all").solutions))


def test_generic_unsat_certificate_replays():
    dom = ProblemDomain("fixed", 3, ((1, 2),), (bundle("abc"),))
    csp = build_csp(dom, ["RP", "EF1", "NW", "WSP"], priority=(1, 2))
    res = solve_csp(csp, mode="prove-unsat")
    assert res.status == "unsat"
    assert replay_certificate(csp, res.certificate)


def _clique_colouring(n_vertices: int, n_colours: int) -> Network:
    """Colouring the complete graph on n_vertices with n_colours: one "≠" constraint per edge,
    unsatisfiable when there are fewer colours than vertices."""
    full = (1 << n_colours) - 1
    unlike = [full & ~(1 << c) for c in range(n_colours)]  # the colours other than c
    edges = list(combinations(range(n_vertices), 2))
    constraints = [BinaryConstraint("≠", u, v, unlike, unlike) for u, v in edges]
    return Network(
        list(range(n_vertices)), [list(range(n_colours))] * n_vertices, [full] * n_vertices,
        constraints,
    )


def _without_inner_steps(node: InfeasibilityCertificate, root: bool = True):
    """The certificate as it was when only leaves and the root kept their steps."""
    branches = [(val, _without_inner_steps(child, False)) for val, child in node.branches]
    inner = node.branch_var is not None and not root
    return InfeasibilityCertificate(
        node.emptied_var, [] if inner else node.trace, node.branch_var, branches
    )


def _nodes(node: InfeasibilityCertificate, doms: list[int]):
    """Each node of a certificate with the domains its trace starts from, in replay order."""
    yield node, list(doms)
    for step in node.trace:
        doms[step.var] &= ~step.removed
    for val, child in node.branches:
        child_doms = list(doms)
        child_doms[node.branch_var] = 1 << val
        yield from _nodes(child, child_doms)


def _mutations(net: Network, cert: InfeasibilityCertificate):
    """Edit `cert` in place, one edit at a time, and yield the kind of each edit; the edit
    is undone when the generator resumes. Kinds: "flip" trades one removed bit of a
    propagation step for a candidate every constraint of that name still supports, "drop
    step" drops the step that empties a leaf's variable, "emptied_var" names a variable
    left alive at a leaf, "drop branch" drops a branch node's last branch."""
    for node, doms in list(_nodes(cert, list(net.domains))):
        for i, step in enumerate(list(node.trace)):
            if step.constraint != "decision":
                same = [net.constraints[ci] for ci in net.watchers[step.var]]
                same = [c for c in same if c.name == step.constraint]
                supported = [
                    val
                    for val in _bits(doms[step.var] & ~step.removed)
                    if all(c.allowed(step.var, val) & doms[c.other(step.var)] for c in same)
                ]
                if supported:
                    low = step.removed & -step.removed
                    flipped = step.removed ^ low | 1 << supported[0]
                    node.trace[i] = PropagationStep(step.constraint, step.var, flipped)
                    yield "flip"
                    node.trace[i] = step
            doms[step.var] &= ~step.removed
        if node.emptied_var is not None:
            last = node.trace.pop()
            yield "drop step"
            node.trace.append(last)
            emptied = node.emptied_var
            node.emptied_var = next(var for var, d in enumerate(doms) if d)
            yield "emptied_var"
            node.emptied_var = emptied
        if node.branches:
            last = node.branches.pop()
            yield "drop branch"
            node.branches.append(last)


def _assert_mutations_refused(net: Network, cert: InfeasibilityCertificate) -> set[str]:
    """Every edit of `_mutations` makes the replay fail; returns the kinds that applied."""
    kinds = set()
    for kind in _mutations(net, cert):
        assert replay_certificate(net, cert) is False, kind
        kinds.add(kind)
    assert replay_certificate(net, cert) is True  # every edit was undone
    return kinds


def test_rule_space_certificate_mutations_are_refused():
    """The fixed 2×3 RP+EF1+NW+WSP refutation empties a variable at the root of the full
    network, so it has steps and a leaf but no branch."""
    csp = build_csp(fixed_domain(2, 3), ("RP", "EF1", "NW", "WSP"), (1, 2))
    res = solve_csp(csp, mode="prove-unsat")
    assert res.status == "unsat" and not res.certificate.branches
    kinds = _assert_mutations_refused(csp.network, res.certificate)
    assert kinds == {"flip", "drop step", "emptied_var"}


def test_clique_colouring_certificate_mutations_are_refused():
    csp = _clique_colouring(5, 4)
    res = solve_csp(csp, mode="prove-unsat")
    assert res.status == "unsat"
    kinds = _assert_mutations_refused(csp, res.certificate)
    assert kinds == {"flip", "drop step", "emptied_var", "drop branch"}


@pytest.mark.parametrize("n_vertices, n_colours, nodes", [(4, 3, 4), (5, 4, 17)])
def test_certificates_replay_at_any_depth(n_vertices, n_colours, nodes):
    csp = _clique_colouring(n_vertices, n_colours)
    res = solve_csp(csp, mode="prove-unsat")
    assert res.status == "unsat" and res.stats.nodes == nodes
    assert replay_certificate(csp, res.certificate) is True
    # replay needs the inner nodes' steps: without them the deeper decisions are not covered
    assert replay_certificate(csp, _without_inner_steps(res.certificate)) is False


def test_replay_leaves_no_reference_cycle():
    """With the cyclic collector off, the CSP is freed as soon as its replay returns."""
    csp = _clique_colouring(4, 3)
    cert = solve_csp(csp, mode="prove-unsat").certificate
    gc.collect()
    gc.disable()
    try:
        assert replay_certificate(csp, cert) is True
        alive = weakref.ref(csp)
        del csp
        assert alive() is None
    finally:
        gc.enable()


def test_generic_and_grid_engines_agree_on_small_impossibility():
    dom = ProblemDomain("fixed", 3, ((1, 2),), (bundle("abc"),))
    csp = build_csp(dom, ["RP", "EF1", "NW", "WSP"], priority=(1, 2))
    grid = build_grid(3, ("RP", "EF1", "NW", "WSP"), priority=(1, 2))
    res_a = solve_csp(csp, mode="prove-unsat")
    res_b = solve_grid(grid, mode="prove-unsat")
    assert res_a.status == res_b.status == "unsat"
    assert replay_grid_certificate(grid, res_b.certificate)


def test_budget_exhaustion_is_reported_not_truncated():
    dom = fixed_domain(2, 3)
    csp = build_csp(dom, ["WRP", "EF1", "NW", "RM"], priority=(1, 2))
    res = solve_csp(csp, budget=10)
    assert res.status == "undecided"
    assert "network" not in vars(csp)  # spent on the quotient root, before the full build


def test_survivors_pass_the_axiom_suite():
    dom = fixed_domain(2, 2)
    csp = build_csp(dom, ["WRP", "EF1", "NW", "RM"], priority=(1, 2))
    res = solve_csp(csp, mode="find-all")
    for rule in solutions_as_rules(res):
        assert check_nw(rule, dom).holds
        assert check_wrp(rule, dom, (1, 2)).holds
        assert check_ef1(rule, dom).holds
        assert check_rm(rule, dom).holds


def test_grid_sat_mode_finds_rule_when_axioms_weakened():
    grid = build_grid(3, ("NW", "SP"))  # dictatorship-style rules survive
    res = solve_grid(grid, mode="find-one")
    assert res.status == "sat" and res.solutions


def test_dropping_the_deviation_axiom_turns_sat():
    # without SP, the remaining axioms are satisfiable and the draft itself survives
    from draftkit.axioms import check_ef1 as _ef1, check_nw as _nw

    dom = ProblemDomain("fixed", 3, ((1, 2),), (bundle("abc"),))
    csp = build_csp(dom, ["NW", "EF1"])
    res = solve_csp(csp, mode="find-one")
    assert res.status == "sat"
    rule = draft_rule((1, 2))
    assert _nw(rule, dom).holds and _ef1(rule, dom).holds


# --- differential tests: table-driven encoders against the scalar builds ------

CSP_CASES = [
    (fixed_domain(2, 3), ax, pi)
    for pi in ((1, 2), (2, 1))
    for ax in [
        ("NW",), ("EF",), ("EF1",), ("RP",), ("WRP",), ("WRP*",), ("IR",), ("NW*",), ("RT",),
        ("EFF",), ("RM",), ("NW", "SP"), ("NW", "WSP"),
        ("WRP", "EF1", "NW", "RM"), ("RP", "EF1", "NW", "WSP"), ("NW", "EF1", "SP"),
    ]
] + [
    (quota_domain(2, 4, (1, 2)), ax, pi)
    for pi in ((1, 2), (2, 1))
    for ax in [("NWq",), ("WRPq",), ("EF",), ("RP",), ("EF1",), ("WRPq", "EF1", "NWq", "RM")]
] + [
    (unacceptable_domain(2, 3), ax, pi)
    for pi in ((1, 2), (2, 1))
    for ax in [
        ("IR",), ("NW*",), ("WRP*",), ("EFF",), ("EF1",), ("IR", "TI"), ("NW*", "IR", "SP"),
        ("WRP*", "EF1", "NW*", "RM", "IR", "TI"),
    ]
] + [
    (fixed_domain(3, 3), ("WRP", "EF1", "NW", "RM"), (1, 2, 3)),
    (fixed_domain(3, 3), ("NW", "SP"), (1, 2, 3)),
    (quota_domain(3, 3, (1, 1, INFINITE)), ("NWq", "RM", "SP"), (1, 2, 3)),
    (unacceptable_domain(2, 4), ("IR", "TI", "NW*"), (1, 2)),
]


@pytest.mark.parametrize(
    "domain, axioms, priority",
    CSP_CASES,
    ids=[
        f"{d.variant}{'' if len(p) == 2 else f'{len(p)}x'}{d.n_objects}-{'+'.join(a)}-{p[0]}"
        for d, a, p in CSP_CASES
    ],
)
def test_build_csp_matches_scalar_build(domain, axioms, priority):
    csp = build_csp(domain, axioms, priority)
    keys, candidates, constraints = oracle.build_csp(domain, axioms, priority)
    assert csp.keys == keys
    assert csp.network.candidates == candidates
    assert csp.network.constraints == constraints


KEY_DOMAINS = [fixed_domain(3, 3), quota_domain(2, 4, (1, 2)), unacceptable_domain(2, 3)]
KEY_IDS = ["fixed33", "quota24", "unacceptable23"]


@pytest.mark.parametrize("domain", KEY_DOMAINS, ids=KEY_IDS)
def test_distinct_problems_is_the_first_occurrence_scan(domain):
    assert distinct_problems(domain) == oracle.distinct_problems(domain)


def _domain_id(d):
    quotas = f"-q{''.join(map(str, d.quotas))}" if d.quotas else ""
    return f"{d.variant}{len(d.populations[0])}x{d.n_objects}{quotas}"


CASE_DOMAINS = list(dict.fromkeys(d for d, _, _ in CSP_CASES))


@pytest.mark.parametrize("domain", CASE_DOMAINS, ids=map(_domain_id, CASE_DOMAINS))
def test_keys_are_the_problem_keys_of_their_problems(domain):
    keys, problems = distinct_problems(domain)
    assert keys == [problem_key(p) for p in problems]
    csp = build_csp(domain, ())
    assert csp.keys == keys and csp.problems == problems


# --- the slot-factored unary table against the all-rows loop -------------------

ADMIT_DOMAINS = [
    fixed_domain(2, 3), fixed_domain(3, 3), quota_domain(2, 4, (1, 2)), unacceptable_domain(2, 3)
]


def _unary_names(variant: str) -> list[str]:
    """Every unary entry defined on the variant, alone, and EFF."""
    return [name for name, entry in UNARY.items() if variant in entry.variants] + ["EFF"]


@pytest.mark.parametrize("reverse", [False, True], ids=["priority", "reversed"])
@pytest.mark.parametrize("domain", ADMIT_DOMAINS, ids=map(_domain_id, ADMIT_DOMAINS))
def test_admitted_is_the_all_rows_table(domain, reverse):
    agents = domain.populations[0]
    space = AxiomSpace(domain, agents[::-1] if reverse else agents)
    index = ProblemKeys(domain)
    for xi, x in enumerate(index.xs):
        splits, digits = _splits(x, index.n, domain.quotas), index.digits[xi]
        for name in _unary_names(domain.variant):
            got = admitted(space, x, splits, digits, (name,))
            assert np.array_equal(got, oracle.admitted(space, x, splits, digits, (name,))), name


@pytest.mark.parametrize("priority", [(1, 2), (2, 1)])
@pytest.mark.parametrize("n_objects", [3, 4, 5])
def test_admitted_grid_tables_are_the_all_rows_table(n_objects, priority):
    full = (1 << n_objects) - 1
    space = AxiomSpace(ProblemDomain("fixed", n_objects, ((1, 2),), (full,)), priority)
    splits = np.array([(a, full & ~a) for a in range(1 << n_objects)], dtype=np.uint8)
    digits = _digits(len(space.prefs), 2)
    grid_tables = [("RP", "EF1", "NW"), ("EFF", "EF1"), ("NW", "EF1")]
    for names in [(name,) for name in _unary_names("fixed")] + grid_tables:
        got = admitted(space, full, splits, digits, names)
        assert np.array_equal(got, oracle.admitted(space, full, splits, digits, names)), names


DECLARED_DOMAINS = [fixed_domain(3, 4), quota_domain(2, 4, (1, 2)), unacceptable_domain(3, 3)]


@pytest.mark.parametrize("name", [name for name, e in UNARY.items() if e.reads is not None])
def test_unary_columns_read_only_their_declared_slot(name):
    """Changing a slot's preference never changes a column that does not declare it."""
    entry, rng = UNARY[name], np.random.default_rng(2024)
    for domain in DECLARED_DOMAINS:
        if domain.variant not in entry.variants:
            continue
        agents = domain.populations[0]
        for priority in (agents, agents[::-1]):
            space = AxiomSpace(domain, priority)
            reads, P = entry.reads(space), len(space.prefs)
            for x in domain.available_sets:
                splits = _splits(x, space.n, domain.quotas)
                allocs = splits[rng.integers(len(splits), size=500)]
                digits = rng.integers(P, size=(500, space.n))
                before = entry.ok(space, x, allocs, digits)
                assert before.shape[1] == len(reads)
                for slot in range(space.n):
                    changed = digits.copy()
                    changed[:, slot] = rng.integers(P, size=500)
                    after = entry.ok(space, x, allocs, changed)
                    blind = [k for k, s in enumerate(reads) if s != slot]
                    assert np.array_equal(after[:, blind], before[:, blind]), (slot, x)


@pytest.mark.parametrize("domain", KEY_DOMAINS, ids=KEY_IDS)
def test_splits_within_quotas_are_the_scalar_candidates(domain):
    for prob in oracle.distinct_problems(domain)[1]:
        got = _splits(prob.available, len(prob.agents), domain.quotas)
        assert got.dtype == np.uint8
        assert list(map(tuple, got.tolist())) == oracle._all_allocations(prob)


@pytest.mark.parametrize("n_objects", [3, 4])
@pytest.mark.parametrize(
    "axioms, priority",
    [
        (("RP", "EF1", "NW", "WSP"), (1, 2)),
        (("RP", "EF1", "NW", "WSP"), (2, 1)),
        (("EFF", "EF1", "WSP"), (1, 2)),
        (("NW", "EF1", "SP"), (1, 2)),
    ],
)
def test_build_grid_matches_triple_loop(n_objects, axioms, priority):
    grid = build_grid(n_objects, axioms, priority=priority)
    P, C = len(grid.rankings), 1 << n_objects
    assert grid.m_row.shape == grid.m_col.shape == (2, P, C) and grid.initial.shape == (P,)
    # the identity row, read through the relabelings: profile (r1, r2) admits split a
    # where its quotient cell RP[r1, r2] admits RC[r1, a]
    tables = relabelings(n_objects)
    bits = grid.initial[tables.RP][:, :, None] >> tables.RC[:, None, :].astype(np.uint64)
    initial = (bits & np.uint64(1)) << np.arange(C, dtype=np.uint64)
    initial = np.bitwise_or.reduce(initial, axis=-1)
    # the cones are stored factored: X[:, None, :] & Y[None, :, :] is the oracle's tensor
    cones = (initial, oracle.grid_cones(grid.m_row), oracle.grid_cones(grid.m_col))
    for got, want in zip(cones, oracle.build_grid(n_objects, axioms, priority)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def _assert_propagates_as_dense_revision(grid):
    """Root propagation, then a decision on each of the first open cells, give the dense
    oracle's fixpoint, emptied cell and revision count."""
    P = len(grid.rankings)
    dense = oracle.grid_cones(grid.m_row), oracle.grid_cones(grid.m_col)

    def both(D, rows, cols):
        got, want = D.copy(), D.copy()
        got_stats, want_stats = SolveStats(), SolveStats()
        wiped = _propagate(grid, got, rows, cols, got_stats, 10**9)
        assert wiped == oracle.grid_propagate(*dense, want, rows, cols, want_stats)
        assert got_stats.revisions == want_stats.revisions and np.array_equal(got, want)
        return got, wiped

    D, wiped = both(expand(grid, grid.initial), range(P), range(P))
    if wiped is None:
        for var in np.flatnonzero(np.bitwise_count(D.reshape(-1)) > 1)[:8].tolist():
            r1, r2 = divmod(var, P)
            child, mask = D.copy(), int(D[r1, r2])
            child[r1, r2] = mask & -mask
            both(child, {r1}, {r2})


@pytest.mark.parametrize("priority", [(1, 2), (2, 1)])
@pytest.mark.parametrize("axioms", GRID_AXIOMS, ids="+".join)
@pytest.mark.parametrize("n_objects", [3, 4])
def test_grid_propagation_matches_dense_revision(n_objects, axioms, priority):
    _assert_propagates_as_dense_revision(build_grid(n_objects, axioms, priority=priority))


@pytest.mark.parametrize(
    "axioms, priority",
    [
        (("RP", "EF1", "NW", "WSP"), (1, 2)),
        (("RP", "EF1", "NW", "WSP"), (2, 1)),
        (("EFF", "EF1", "WSP"), (1, 2)),
        (("NW", "EF1", "SP"), (1, 2)),
    ],
    ids=["T2-1", "T2-2", "T3", "T4"],
)
def test_five_object_grids_propagate_as_dense_revision(axioms, priority):
    _assert_propagates_as_dense_revision(build_grid(5, axioms, priority=priority))


T1, T6 = ("WRP", "EF1", "NW", "RM"), ("WRPq", "EF1", "NWq", "RM")
T7 = ("WRP*", "EF1", "NW*", "RM", "IR", "TI")
# with CSP_CASES, every T1/T2/T6/T7 rule-space CSP that the verify drivers build in these tests
PAIRWISE_CASES = CSP_CASES + [
    (fixed_domain(2, 2), T1, (1, 2)),
    *((quota_domain(2, m, q), T6, (1, 2)) for m, q in [(2, (1, 1)), (2, (1, 2)), (3, (1, 2))]),
    (unacceptable_domain(2, 2), T7, (1, 2)),
    (fixed_domain(2, 4), ("RM",), (1, 2)),  # 81 candidates: masks wider than one word
]


@pytest.mark.parametrize(
    "domain, axioms, priority",
    PAIRWISE_CASES,
    ids=[
        f"{d.variant}{len(p)}x{d.n_objects}-{'+'.join(a)}-{p[0]}"
        + (f"-q{''.join(map(str, d.quotas))}" if d.quotas else "")
        for d, a, p in PAIRWISE_CASES
    ],
)
def test_build_csp_batch_matches_pairwise_build(domain, axioms, priority):
    csp = build_csp(domain, axioms, priority)
    assert csp.network.constraints == oracle.build_csp_pairwise(domain, axioms, priority)


def test_constraint_axioms_refused_off_their_variant():
    with pytest.raises(ValueError, match="'TI' is not defined on 'fixed'"):
        build_csp(fixed_domain(2, 2), ["NW", "TI"])
    with pytest.raises(ValueError, match="'NWq' is not defined on 'fixed'"):
        build_csp(fixed_domain(2, 2), ["NWq"])


# --- the quotient modulo object relabeling against the full network ------------

QUOTIENT_CASES = [
    (fixed_domain(2, 3), T1, (1, 2)),
    (fixed_domain(2, 4), T1, (1, 2)),
    (fixed_domain(3, 3), T1, (1, 2, 3)),
    (fixed_domain(3, 4), T1, (1, 2, 3)),
    (quota_domain(2, 4, (1, 2)), T6, (1, 2)),
    (unacceptable_domain(2, 3), T7, (1, 2)),
    (unacceptable_domain(2, 4), T7, (1, 2)),
    (fixed_domain(2, 3), ("RP", "EF1", "NW", "WSP"), (1, 2)),
    (fixed_domain(1, 3), ("NW", "SP"), (1,)),  # one agent: a pair's two ends share an orbit
]


def _root(net, stats=None):
    doms = list(net.domains)
    wiped = _propagate_csp(net, doms, range(len(net.constraints)), stats or SolveStats(), 10**9, [])
    return wiped, doms


@pytest.mark.parametrize(
    "domain, axioms, priority",
    QUOTIENT_CASES,
    ids=[f"{_domain_id(d)}-{'+'.join(a)}" for d, a, _ in QUOTIENT_CASES],
)
def test_quotient_root_is_the_full_root_relabeled(domain, axioms, priority):
    """Root propagation on the representatives, relabeled onto every key, is the full
    network's fixpoint: at each key the same allocations stay alive. Both searches give the
    same verdict and solutions, and an unsat certificate replays and refuses each edit."""
    csp = build_csp(domain, axioms, priority)
    (wiped, quotient), (full_wiped, full) = _root(csp.quotient), _root(csp.network)
    assert (wiped is None) == (full_wiped is None)
    if wiped is None:
        index, candidates = csp.index, csp.network.candidates
        for xi, lo, hi in zip(range(len(index.xs)), index.offsets, index.offsets[1:]):
            back = index.back(xi)
            for k in range(lo, hi):
                i = csp.orbit[k]
                rows = csp.rows[i][list(_bits(quotient[i]))]
                moved = back[csp.relabeling[k]][rows]  # the representative's rows, at key k
                alive = [candidates[k][j] for j in _bits(full[k])]
                assert sorted(map(tuple, moved.tolist())) == sorted(alive)
    got, want = solve_csp(csp), solve_csp(csp.network)
    assert (got.status, got.solutions) == (want.status, want.solutions)
    if got.status == "unsat":
        assert _assert_mutations_refused(csp.network, got.certificate)


def test_propagation_revises_a_self_loop_from_both_ends():
    """A constraint between two keys of one orbit links their representative to itself; its
    second end is revised through the backward masks: candidate 1 supports nothing there."""
    loop = BinaryConstraint("loop", 0, 0, [0b01, 0b01], [0b11, 0b00])
    net, doms = Network([0], [[0, 1]], [0b11], [loop]), [0b11]
    assert _propagate_csp(net, doms, [0], SolveStats(), 10, []) is None
    assert doms == [0b01]


ORBIT_DOMAINS = [fixed_domain(3, 3), quota_domain(2, 4, (1, 2)), unacceptable_domain(2, 4)]


@pytest.mark.parametrize("domain", ORBIT_DOMAINS, ids=_domain_id)
def test_relabelings_act_freely_on_keys(domain):
    """Each orbit holds |X|!·C(m, |X|) keys, the unacceptable variant included: a key keeps
    its first ranking of X whole, so no relabeling but the identity fixes it."""
    index = ProblemKeys(domain)
    reps, _ = index.orbits()
    m = domain.n_objects
    sizes = {x: factorial(bundle_size(x)) * comb(m, bundle_size(x)) for x in index.xs}
    for xi, x in enumerate(index.xs):
        at = np.unique(reps[index.offsets[xi] : index.offsets[xi + 1]])
        assert (np.bincount(reps)[at] == sizes[x]).all()
        assert (reps[at] == at).all()  # a representative stands for itself


LENGTH_CASES = [
    (fixed_domain(2, 4), T1, (1, 2)),
    (fixed_domain(3, 3), ("NW", "SP"), (1, 2, 3)),
    (quota_domain(3, 3, (1, 1, INFINITE)), ("NWq", "RM", "SP"), (1, 2, 3)),
    (unacceptable_domain(2, 3), T7, (1, 2)),
    (fixed_domain(1, 3), ("NW", "SP"), (1,)),
]


@pytest.mark.parametrize("domain, axioms, priority", LENGTH_CASES)
def test_constraint_count_is_known_before_the_full_build(domain, axioms, priority):
    csp = build_csp(domain, axioms, priority)
    n = len(csp.constraints)
    assert "network" not in vars(csp)  # the length did not build the full network
    assert n == len(csp.network.constraints)


def test_non_neutral_unary_entry_is_refused(monkeypatch):
    """Planted: at the full set, agent 1 never receives object a."""
    from draftkit import csp as csp_module

    real = csp_module.admitted

    def planted(space, x, splits, digits, names):
        out = real(space, x, splits, digits, names)
        if x == 0b111:
            out[:, splits[:, 0] & 1 != 0] = False
        return out

    monkeypatch.setattr(csp_module, "admitted", planted)
    with pytest.raises(ValueError, match="unary axioms .* not neutral in objects"):
        build_csp(fixed_domain(2, 3), T1, (1, 2))


def test_non_neutral_constraint_is_refused(monkeypatch):
    """Planted: RM also holds whenever the larger problem's bundle holds object a."""
    from draftkit.axioms import DEVIATIONS, sp_ok

    def planted(dom, d, own, other):
        return sp_ok(dom, d, own, other) | (own & 1 == 1)

    monkeypatch.setitem(DEVIATIONS, "RM", planted)
    with pytest.raises(ValueError, match="the RM constraints are not neutral in objects"):
        build_csp(fixed_domain(2, 3), T1, (1, 2))


def test_sets_that_a_relabeling_moves_out_of_the_domain_are_refused():
    with pytest.raises(ValueError, match="not closed under object relabeling"):
        build_csp(ProblemDomain("fixed", 3, ((1, 2),), (bundle("ab"),)), ["NW"])


@pytest.mark.parametrize(
    "sets, axioms",
    [((0b111,), ("EF1", "NW", "RM", "SP")), ((0b111, 0b011, 0b101, 0b110), ("NW", "RM"))],
    ids=["full-set-only", "no-singletons"],
)
def test_rm_without_the_subsets_of_a_set_is_refused(sets, axioms):
    """RM links each available set to each of its subsets, so a missing subset is named."""
    with pytest.raises(ValueError, match=r"\{a\}, a subset of \{a,b,c\}, is not an available set"):
        build_csp(ProblemDomain("fixed", 3, ((1, 2),), sets), axioms)


def test_searches_never_import_numpy_ma():
    """A bare `np.unique` imports numpy.ma on its first call (NumPy 2.x, about 10 ms); the CON
    scan, the CSP search and the grid search take distinct values without it."""
    script = "; ".join(
        [
            "import sys",
            "from draftkit.axioms import check_con, fixed_domain, variable_domain",
            "from draftkit.csp import build_csp, solve_csp",
            "from draftkit.grid import build_grid, solve_grid",
            "from draftkit.rules import variable_draft_rule",
            "check_con(variable_draft_rule((1, 2, 3)), variable_domain(3, 3))",
            "solve_csp(build_csp(fixed_domain(2, 3), T1, (1, 2)), mode='find-all')",
            "solve_grid(build_grid(4, ('RP', 'EF1', 'NW', 'WSP')), mode='prove-unsat')",
            "print('numpy.ma' in sys.modules)",
        ]
    ).replace("T1", repr(T1))
    env = dict(os.environ, PYTHONPATH=str(Path(draftkit.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (0, "False\n"), run.stderr
