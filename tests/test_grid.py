"""The two-agent grid modulo object relabeling, against the full grid it stands for.

Root propagation runs on the P quotient cells (identity, s). These tests hold
its outcome and fixpoint to the dense (P, P, C) revision of the full grid,
its searches to `depth_first` driven by that revision, its invariance check
to planted faults, and its replay to mutated certificates.
"""

from dataclasses import replace
from functools import partial
from itertools import permutations

import numpy as np
import pytest

import scalar_checkers as oracle
from draftkit import grid
from draftkit.axioms import AxiomSpace, ProblemDomain, _digits
from draftkit.core import CapacityError, bundle_of, objects_of
from draftkit.csp import SolveStats, admitted, depth_first, relabelings
from draftkit.grid import (
    _pick,
    _read_off,
    _root,
    build_grid,
    replay_grid_certificate,
    solve_grid,
)
from draftkit.verifier import probe_wsp_conjecture

from helpers import GRID_AXIOMS

T2 = ("RP", "EF1", "NW", "WSP")


def _full_unary(n_objects, axioms, priority=(1, 2)):
    """(P, P) uint64: the unary axioms judged by `csp.admitted` on every profile."""
    full = (1 << n_objects) - 1
    space = AxiomSpace(ProblemDomain("fixed", n_objects, ((1, 2),), (full,)), priority)
    splits = np.array([(a, full & ~a) for a in range(1 << n_objects)], dtype=np.uint8)
    unary = [ax for ax in axioms if ax not in ("SP", "WSP")]
    P = len(space.prefs)
    return grid._pack(admitted(space, full, splits, _digits(P, 2), unary)).reshape(P, P)


def _dense_propagate(g):
    """A `depth_first` propagate over the full grid through the dense revision."""
    P = len(g.rankings)
    rows, cols = oracle.grid_cones(g.m_row), oracle.grid_cones(g.m_col)

    def propagate(D, var, removed):
        lines = (range(P), range(P)) if var is None else ({var // P}, {var % P})
        wiped = oracle.grid_propagate(rows, cols, D.reshape(P, P), *lines, SolveStats())
        return (None if wiped is None else g.var_index(*wiped)), []

    return propagate


@pytest.mark.parametrize("n_objects", [3, 4, 5])
@pytest.mark.parametrize("priority", [(1, 2), (2, 1)])
@pytest.mark.parametrize("axioms", GRID_AXIOMS, ids="+".join)
def test_quotient_root_is_the_dense_fixpoint(axioms, priority, n_objects):
    """Both wipe out, or neither does and the quotient's fixpoint, relabeled onto every
    profile, is the dense revision's fixpoint cell for cell."""
    g = build_grid(n_objects, axioms, priority=priority)
    P = len(g.rankings)
    want = _full_unary(n_objects, axioms, priority)
    wiped = _dense_propagate(g)(want.reshape(-1), None, 0)[0]
    got = np.zeros((P, P), dtype=np.uint64)
    emptied = _root(g, got, SolveStats(), 10**9)
    assert (emptied is None) == (wiped is None)
    if emptied is None:
        assert np.array_equal(got, want)
    else:
        assert g.var_profile(emptied)[0] == 0  # a quotient cell: the identity row


SAT_GRIDS = [(3, ("NW", "EF1", "SP")), (4, ("NW", "EF1", "SP")), (3, ("NW", "SP")),
             (3, ("NW", "EF1", "WSP"))]


@pytest.mark.parametrize("mode", ["find-one", "find-all"])
@pytest.mark.parametrize(
    "n_objects, axioms", SAT_GRIDS, ids=[f"{n}-{'+'.join(ax)}" for n, ax in SAT_GRIDS]
)
def test_sat_searches_are_the_dense_search(n_objects, axioms, mode):
    g = build_grid(n_objects, axioms)
    flat = _full_unary(n_objects, axioms).reshape(-1)
    want = depth_first(flat, _dense_propagate(g), _pick, partial(_read_off, g), mode, SolveStats())
    got = solve_grid(g, mode=mode)
    assert got.status == want.status == "sat"
    assert got.solutions == want.solutions


def test_build_grid_refuses_a_unary_entry_that_is_not_neutral(monkeypatch):
    def object_0_to_agent_1(space, x, splits, digits, names):
        return admitted(space, x, splits, digits, names) & (splits[:, 0] & 1 != 0)

    monkeypatch.setattr(grid, "admitted", object_0_to_agent_1)
    with pytest.raises(ValueError, match="unary axioms .* not neutral"):
        build_grid(3, ("NW", "EF1", "SP"))


@pytest.mark.parametrize("factor, ranking, split, bit", [(0, 0, 0, 0), (1, 5, 3, 6), (0, 2, 7, 1)])
def test_build_grid_refuses_a_cone_factor_with_one_flipped_bit(
    monkeypatch, factor, ranking, split, bit
):
    cones = grid._cones

    def flipped(ok, dom, own):
        out = cones(ok, dom, own)
        out[factor, ranking, split] ^= np.uint64(1 << bit)
        return out

    monkeypatch.setattr(grid, "_cones", flipped)
    with pytest.raises(ValueError, match="cones are not neutral"):
        build_grid(3, ("NW", "EF1", "SP"))


@pytest.mark.parametrize(
    "search",
    [partial(build_grid, 7, ("NW", "EF1", "SP")), partial(probe_wsp_conjecture, 7)],
    ids=["build_grid", "probe_wsp_conjecture"],
)
def test_grid_past_capacity_raises_before_building(monkeypatch, search):
    """Past MAX_OBJECTS objects a split's bit no longer fits a 64-bit candidate mask: the
    builder raises CapacityError before it builds the deviation relation's cones."""

    def unreachable(*args):
        raise AssertionError("the grid was built past its capacity")

    monkeypatch.setattr(grid, "_cones", unreachable)
    with pytest.raises(CapacityError, match=r"^7 objects exceeds the grid search's capacity"):
        search()


@pytest.mark.parametrize("m", range(1, 7))
def test_relabeling_tables_are_the_dict_bijections(m):
    """RP, RC, RC_inv and the generators, built from one dict per relabeling."""
    rankings = list(permutations(range(m)))
    index = {r: i for i, r in enumerate(rankings)}

    def tables(sigma):  # its ranking map, split map and inverse's split map
        inverse = {b: a for a, b in sigma.items()}
        ranks = [index[tuple(sigma[o] for o in r)] for r in rankings]
        splits = [[bundle_of(s[o] for o in objects_of(a)) for a in range(1 << m)]
                  for s in (sigma, inverse)]
        return ranks, *splits

    # sigma_r sends ranking r to the identity
    RP, RC, RC_inv = zip(*(tables({o: r.index(o) for o in r}) for r in rankings))
    got = relabelings(m)
    assert (got.RP.tolist(), got.RC.tolist(), got.RC_inv.tolist()) == (
        list(RP), list(RC), list(RC_inv)
    )
    # the transposition (0 1) and the m-cycle o -> o + 1, which is (0 1) at two objects
    swap = [{0: 1, 1: 0} | {o: o for o in range(2, m)}] if m > 1 else []
    gens = swap + ([{o: (o + 1) % m for o in range(m)}] if m > 2 else [])
    assert [[t.tolist() for t in g] for g in got.generators] == [list(tables(g)) for g in gens]


def test_replay_accepts_only_the_recorded_emptied_variable():
    g = build_grid(3, T2)
    cert = solve_grid(g).certificate
    assert cert.emptied_var is not None and replay_grid_certificate(g, cert)
    P = len(g.rankings)
    r1, r2 = g.var_profile(cert.emptied_var)
    to_rank = relabelings(3).generators[0][0]
    # another cell of the emptied cell's orbit empties too, but it is not the recorded one
    for var in (g.var_index(to_rank[r1], to_rank[r2]), cert.emptied_var + 1, P * P - 1):
        assert not replay_grid_certificate(g, replace(cert, emptied_var=var))


# A neutral two-object network that root arc consistency does not refute, though no
# assignment satisfies it: the column factors (2, P, C) and the quotient cells' masks.
# Every desk-scale grid of real axioms is refuted at the root or solved without a
# backtrack, so only a planted network makes an unsat search branch.
BRANCHING_COLUMNS = [[[13, 3, 13, 13], [11, 11, 5, 11]], [[7, 7, 15, 15], [7, 15, 7, 15]]]
BRANCHING_CELLS = [11, 6]


@pytest.fixture
def branching_grid(monkeypatch):
    cells = np.array(BRANCHING_CELLS, dtype=np.uint64)
    tables = relabelings(2)

    def neutral_table(space, x, splits, digits, names):
        masks = cells[tables.RP[digits[:, 0], digits[:, 1]]]
        return (masks[:, None] >> tables.RC[digits[:, 0]].astype(np.uint64) & 1).astype(bool)

    columns = np.array(BRANCHING_COLUMNS, dtype=np.uint64)
    monkeypatch.setattr(grid, "_cones", lambda ok, dom, own: columns)
    monkeypatch.setattr(grid, "admitted", neutral_table)
    return build_grid(2, ("SP",))


def _leaves(node):
    if node.emptied_var is not None:
        yield node
    for _, child in node.branches:
        yield from _leaves(child)


def test_replay_of_a_branching_refutation_follows_every_decision(branching_grid):
    g = branching_grid
    res = solve_grid(g)
    cert = res.certificate
    assert res.status == "unsat" and res.stats.nodes > 0 and cert.branch_var is not None
    assert replay_grid_certificate(g, cert)
    # a dropped branch leaves a candidate of the branch variable unrefuted
    assert not replay_grid_certificate(g, replace(cert, branches=cert.branches[:-1]))
    # each leaf must empty exactly the variable it records
    for leaf in _leaves(cert):
        recorded = leaf.emptied_var
        for var in {recorded ^ 1, (recorded + 2) % 4}:
            leaf.emptied_var = var
            assert not replay_grid_certificate(g, cert)
        leaf.emptied_var = recorded
    assert replay_grid_certificate(g, cert)
