"""Vectorized rule-space search for two-agent domains with one fixed available set.

The impossibility searches all share this shape: variables form a preference
grid (one per ordered ranking pair), candidates are the full splits of the
object pool between the two agents, and the only binary constraints are
unilateral-deviation constraints along grid rows and columns. That structure
lets arc consistency run line by line, one routine applied to the grid and to
its transpose: a deviation constraint's allowed mask is the AND of one factor
per end, so a line is revised from its live (position, candidate) pairs and the
distinct masks of two (P, C) factors, never from a (P, P, C) tensor. The
backtracking itself is `csp.depth_first`, over the flattened grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .axioms import DEVIATIONS, AxiomSpace, ProblemDomain, _digits
from .csp import (
    BudgetExceeded,
    InfeasibilityCertificate,
    SolveResult,
    SolveStats,
    admitted,
    depth_first,
)

MAX_OBJECTS = 6  # candidate sets are uint64 masks with one bit per split: 2**6 = 64


@dataclass
class GridCSP:
    n_objects: int
    axioms: tuple[str, ...]
    rankings: list[tuple[int, ...]]
    candidates: list[int]  # agent-1 bundles; agent 2 holds the complement (NW built in)
    initial: np.ndarray  # (P, P) uint64 candidate masks after unary filters
    # (2, P, C) uint64 factored cones of the same-row (agent-2 deviation) constraints: the
    # pair of positions (r, r2) allows at candidate a the mask m_row[0, r, a] & m_row[1, r2, a]
    m_row: np.ndarray
    m_col: np.ndarray  # same for columns (agent-1 deviations)

    def var_index(self, r1: int, r2: int) -> int:
        return r1 * len(self.rankings) + r2

    def var_profile(self, var: int) -> tuple[int, int]:
        return divmod(var, len(self.rankings))


def _cones(ok, dom: np.ndarray, own: np.ndarray) -> np.ndarray:
    """The two factors of one agent's deviation constraints, from the deviation relation.

    `own[a]` is the agent's bundle under candidate a. Factor 0 at [r, a] has
    bit b set where truth r at a does not gain from b, factor 1 at [r2, a]
    where truth r2 at b does not gain from a; the pair (r, r2) allows at a the
    AND of the two, the relation read in both directions.
    """
    d = np.arange(len(dom))[:, None, None]
    s, t = own[None, :, None], own[None, None, :]
    return np.stack([_pack(ok(dom, d, s, t)), _pack(ok(dom, d, t, s))])


def build_grid(n_objects: int, axioms, priority=(1, 2)) -> GridCSP:
    """Unary axioms filter the splits; exactly one of SP/WSP forms the deviation constraints."""
    axioms = tuple(axioms)
    deviation = [ax for ax in axioms if ax in ("SP", "WSP")]
    if len(deviation) != 1:
        raise ValueError("grid search needs exactly one of SP / WSP")
    unary = [ax for ax in axioms if ax not in ("SP", "WSP")]
    for ax in unary:
        if ax not in ("NW", "EF1", "RP", "EFF"):
            raise ValueError(f"axiom {ax!r} has no grid encoder")

    full = (1 << n_objects) - 1
    space = AxiomSpace(ProblemDomain("fixed", n_objects, ((1, 2),), (full,)), priority)
    rankings = [p.ranking for p in space.prefs]
    P = len(rankings)
    candidates = list(range(1 << n_objects))
    splits = np.array([(a, full & ~a) for a in candidates], dtype=np.uint8)

    ok, dom = DEVIATIONS[deviation[0]], space.relation()
    m_col = _cones(ok, dom, splits[:, 0])
    m_row = _cones(ok, dom, splits[:, 1])

    # the unary table over every profile, in code order: profile (r1, r2) is cell r1 * P + r2
    initial = _pack(admitted(space, full, splits, _digits(P, 2), unary)).reshape(P, P)

    return GridCSP(n_objects, axioms, rankings, candidates, initial, m_row, m_col)


def _pack(alive: np.ndarray) -> np.ndarray:
    """Bool (..., C) as uint64 masks, C at most 64: bit a set where alive[..., a]."""
    packed = np.packbits(alive, axis=-1, bitorder="little")
    pad = [(0, 0)] * (packed.ndim - 1) + [(0, 8 - packed.shape[-1])]
    return np.pad(packed, pad).view("<u8")[..., 0].astype(np.uint64, copy=False)


_BITS = np.uint64(1) << np.arange(64, dtype=np.uint64)
_ONES = np.uint64(2**64 - 1)
_LIVE_CELLS = 1 << 19  # (live pair, distinct mask) cells per step of a line's revision


def _distinct_columns(Z: np.ndarray) -> np.ndarray:
    """(C, U): the distinct values of each row of Z (C, P), then all-ones up to the
    widest row's count U. All-ones meets every nonzero mask, so it decides nothing."""
    S = np.sort(Z, axis=1)
    repeat = S[:, 1:] == S[:, :-1]
    S[:, 1:][repeat] = _ONES
    S.sort(axis=1)
    return S[:, : S.shape[1] - int(repeat.sum(axis=1).min())]


def _revise(D: np.ndarray, cones: np.ndarray, lines, same: set, cross: set, stats, budget):
    """Revise each listed row of D against the factored cones, in order; a changed row
    marks itself in `same` and its changed positions in `cross`. Returns an emptied (row,
    position) or None. Columns are the rows of D.T, revised against m_col.

    Candidate a at position c survives iff X[c, a] & Y[c2, a] meets the row at every
    position c2, itself included, with the row as it stood before its revision. With
    Z = Y & row, that is a check of X[c, a] against each distinct value of the column
    Z[:, a], taken only for the candidates live in the row: K * U work for K live pairs
    and U distinct values in the widest column, in steps of at most _LIVE_CELLS cells.
    """
    X, Y = cones
    bits = _BITS[: X.shape[1]]
    for r in sorted(lines):
        stats.revisions += len(D)
        if stats.revisions > budget:
            raise BudgetExceeded
        B = D[r]
        cols = np.flatnonzero(np.bitwise_or.reduce(B) & bits)
        pos, k = np.nonzero(B[:, None] & bits[cols])  # live pair: position, index into cols
        if not len(pos):
            continue
        a = cols[k]
        Z = _distinct_columns((Y[:, cols] & B[:, None]).T)
        step = max(1, _LIVE_CELLS // Z.shape[1])
        dead = np.empty(len(pos), dtype=bool)
        for lo in range(0, len(pos), step):
            s = slice(lo, lo + step)
            dead[s] = ~((X[pos[s], a[s], None] & Z[k[s]]) != 0).all(axis=1)
        if dead.any():
            newB = B.copy()
            np.bitwise_xor.at(newB, pos[dead], bits[a[dead]])
            changed = np.unique(pos[dead])
            D[r] = newB
            wiped = changed[newB[changed] == 0]
            if wiped.size:
                return r, int(wiped[0])
            cross.update(changed.tolist())
            same.add(r)
    return None


def _propagate(grid: GridCSP, D: np.ndarray, rows, cols, stats, budget):
    """Row/column arc consistency to fixpoint, dirty rows then dirty columns each round;
    returns an emptied (r1, r2) or None."""
    rows, cols = set(rows), set(cols)
    while rows or cols:
        lines, rows = rows, set()
        wiped = _revise(D, grid.m_row, lines, rows, cols, stats, budget)
        if wiped is not None:
            return wiped
        lines, cols = cols, set()
        wiped = _revise(D.T, grid.m_col, lines, cols, rows, stats, budget)
        if wiped is not None:
            return wiped[::-1]
    return None


def solve_grid(grid: GridCSP, mode: str = "prove-unsat", budget: int = 10_000_000) -> SolveResult:
    """`depth_first` over the flattened grid, with bulk propagation; deterministic.

    Propagation records no steps yet, so certificate nodes carry empty traces;
    replay re-executes the decisions instead.
    """
    stats = SolveStats()
    P = len(grid.rankings)

    def propagate(D, var, removed):
        rows, cols = (range(P), range(P)) if var is None else ({var // P}, {var % P})
        wiped = _propagate(grid, D.reshape(P, P), rows, cols, stats, budget)
        return (None if wiped is None else grid.var_index(*wiped)), []

    def pick(D):
        sizes = np.bitwise_count(D)
        open_vars = sizes > 1
        if not open_vars.any():
            return None
        return int(np.where(open_vars, sizes, np.iinfo(sizes.dtype).max).argmin())

    def read_off(D):
        if (D == 0).any():
            return int((D == 0).argmax())
        return {
            (grid.rankings[r1], grid.rankings[r2]): int(a).bit_length() - 1
            for (r1, r2), a in np.ndenumerate(D.reshape(P, P))
        }

    flat = grid.initial.astype(np.uint64).reshape(-1)
    return depth_first(flat, propagate, pick, read_off, mode, stats)


def replay_grid_certificate(grid: GridCSP, cert: InfeasibilityCertificate) -> bool:
    """Re-execute the recorded decisions; each leaf must reproduce its wipeout."""
    return _replay(grid, cert, grid.initial.astype(np.uint64).copy(), SolveStats())


def _replay(grid: GridCSP, node: InfeasibilityCertificate, D: np.ndarray, stats) -> bool:
    # a module-level recursion: a nested one would hold the grid in a reference cycle
    P = len(grid.rankings)
    wiped = _propagate(grid, D, set(range(P)), set(range(P)), stats, 10**9)
    if node.emptied_var is not None:
        return wiped is not None or bool((D == 0).any())
    if wiped is not None:
        return False  # recorded a branch where propagation already refutes
    if node.branch_var is None:
        return False
    r1, r2 = grid.var_profile(node.branch_var)
    covered = 0
    for val, child in node.branches:
        covered |= 1 << val
        child_D = D.copy()
        child_D[r1, r2] = np.uint64(1 << val)
        if not _replay(grid, child, child_D, stats):
            return False
    return covered & int(D[r1, r2]) == int(D[r1, r2])
