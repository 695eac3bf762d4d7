"""Vectorized rule-space search for two-agent domains with one fixed available set: the
specialised path of `csp`'s search modulo object relabeling.

The impossibility searches all share this shape: variables form a preference
grid (one per ordered ranking pair), candidates are the full splits of the
object pool between the two agents, and the only binary constraints are
unilateral-deviation constraints along grid rows and columns. A deviation
constraint's allowed mask is the AND of one factor per end, so the cones are
stored as two (P, C) factors and no (P, P, C) tensor is built.

Every grid axiom is neutral in objects: relabeling the objects in both
rankings and in the splits maps the network onto itself, and `build_grid`
refuses a network that two generators of the relabelings do not fix. The
relabelings act freely on the first ranking, so each orbit of profiles holds
exactly one profile (identity, s), and the arc-consistency fixpoint of a
symmetric network is symmetric. Root propagation therefore runs on those P
quotient cells; a wipeout there is the verdict. Otherwise the fixpoint,
relabeled onto every profile, seeds `csp.depth_first` over the flattened
grid, whose decisions revise one row and one column: a line is revised from
its live (position, candidate) pairs and the distinct masks of the factors.
The relabeling tables are `csp.relabelings`: `axioms.canonical_relabelings` of
the pool onto itself, the tables that NEU reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .axioms import DEVIATIONS, AxiomSpace, ProblemDomain, sorted_distinct
from .core import CapacityError
from .csp import (
    BudgetExceeded,
    InfeasibilityCertificate,
    SolveResult,
    SolveStats,
    admitted,
    depth_first,
    relabelings,
)

MAX_OBJECTS = 6  # candidate sets are uint64 masks with one bit per split: 2**6 = 64


@dataclass
class GridCSP:
    n_objects: int
    axioms: tuple[str, ...]
    rankings: list[tuple[int, ...]]  # permutation order: the identity is ranking 0
    candidates: list[int]  # agent-1 bundles; agent 2 holds the complement (NW built in)
    initial: np.ndarray  # (P,) uint64 candidate masks after unary filters at (identity, s)
    # (2, P, C) uint64 factored cones of the same-row (agent-2 deviation) constraints: the
    # pair of positions (r, r2) allows at candidate a the mask m_row[0, r, a] & m_row[1, r2, a]
    m_row: np.ndarray
    m_col: np.ndarray  # same for columns (agent-1 deviations)
    # (P, C) the column constraint between cells (identity, s) and (r, s) at candidate a,
    # relabeled by sigma_r: m_quot[r, a] = sigma_r(m_col[0, 0, a] & m_col[1, r, a])
    m_quot: np.ndarray

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
    """Unary axioms filter the splits; exactly one of SP/WSP forms the deviation constraints.

    CapacityError past MAX_OBJECTS objects, before anything is built. The unary
    table is judged on the quotient's profiles (identity, s) only. ValueError is
    raised where a generator moves the identity row (against the rows judged at its
    2P image profiles) or any cone factor. A unary table that is not neutral at
    other profiles passes, and the quotient then solves its neutral copy.
    """
    if n_objects > MAX_OBJECTS:
        raise CapacityError(
            f"{n_objects} objects exceeds the grid search's capacity ({MAX_OBJECTS}): "
            "its candidate sets are 64-bit masks with one bit per split of the pool"
        )
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
    # agent 2's bundle under split a is agent 1's under the complement split C - 1 - a
    flip = np.arange(len(candidates))[::-1]
    m_row = _relabel(m_col[:, :, flip], flip)

    tables = relabelings(n_objects)
    # the profiles (identity, s), then (g(identity), g(s)) for each generator g
    maps = [np.arange(P)] + [g[0] for g in tables.generators]
    digits = np.concatenate([np.stack([np.full(P, g[0]), g], axis=1) for g in maps])
    initial, *images = _pack(admitted(space, full, splits, digits, unary)).reshape(-1, P)
    for (to_rank, to_split, back), image in zip(tables.generators, images):
        if not np.array_equal(image, _relabel(initial, back)):
            raise ValueError(f"the unary axioms of {axioms} are not neutral in objects")
        for cones in (m_row, m_col):
            if not np.array_equal(cones[:, to_rank][:, :, to_split], _relabel(cones, back)):
                raise ValueError(f"the {deviation[0]} cones are not neutral in objects")

    m_quot = _relabel(m_col[0, 0] & m_col[1], tables.RC_inv[:, None, :])
    return GridCSP(n_objects, axioms, rankings, candidates, initial, m_row, m_col, m_quot)


def _pack(alive: np.ndarray) -> np.ndarray:
    """Bool (..., C) as uint64 masks, C at most 64: bit a set where alive[..., a]."""
    packed = np.packbits(alive, axis=-1, bitorder="little")
    octets = np.zeros(packed.shape[:-1] + (8,), dtype=np.uint8)
    octets[..., : packed.shape[-1]] = packed
    return octets.view("<u8")[..., 0].astype(np.uint64, copy=False)


def _relabel(masks: np.ndarray, source: np.ndarray) -> np.ndarray:
    """uint64 masks over C candidates whose bit c is bit source[..., c] of `masks`.
    `source` is one (C,) map for every mask, or one map per leading index of `masks`
    with a 1 in place of its second to last axis."""
    octets = np.ascontiguousarray(masks, dtype="<u8")[..., None].view(np.uint8)
    bits = np.unpackbits(octets, axis=-1, count=source.shape[-1], bitorder="little")
    if source.ndim == 1:
        return _pack(np.take(bits, source, axis=-1))
    return _pack(np.take_along_axis(bits, source, axis=-1))


_BITS = np.uint64(1) << np.arange(64, dtype=np.uint64)
_ONES = np.uint64(2**64 - 1)
_LIVE_CELLS = 1 << 19  # (live pair, distinct mask) cells per step of a line's revision
_QUOTIENT_CELLS = 1 << 16  # (live pair, column cell) masks per step of a column revision


def expand(grid: GridCSP, Dq: np.ndarray) -> np.ndarray:
    """(P, P) masks of every profile from the quotient cells' masks Dq: profile (r1, r2)
    holds split a where Dq[RP[r1, r2]] holds RC[r1, a]."""
    tables, P = relabelings(grid.n_objects), len(Dq)
    out = np.empty((P, P), dtype=np.uint64)
    step = max(1, _LIVE_CELLS // (P * len(grid.candidates)))
    for lo in range(0, P, step):
        rows = slice(lo, lo + step)
        out[rows] = _relabel(Dq[tables.RP[rows]], tables.RC[rows, None, :])
    return out


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
        stats.revisions += D.shape[1]
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
            changed = sorted_distinct(pos[dead])
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


def _revise_quotient_columns(grid: GridCSP, Dq: np.ndarray, stats, budget):
    """Revise every quotient cell s against its column, as Dq stood before: candidate a
    survives iff m_quot[r, a] meets Dq[RP[r, s]] at every r, the column's cell (r, s)
    read as its quotient cell. Returns an emptied cell or None."""
    stats.revisions += len(Dq)
    if stats.revisions > budget:
        raise BudgetExceeded
    bits = _BITS[: grid.m_quot.shape[1]]
    cell, a = np.nonzero(Dq[:, None] & bits)  # live pairs
    seen = Dq[relabelings(grid.n_objects).RP]  # [r, s]: the column's cell r, relabeled
    step = max(1, _QUOTIENT_CELLS // len(Dq))
    dead = np.empty(len(cell), dtype=bool)
    for lo in range(0, len(cell), step):
        k = slice(lo, lo + step)
        meets = grid.m_quot[:, a[k]]
        meets &= seen[:, cell[k]]
        dead[k] = ~meets.all(axis=0)
    np.bitwise_xor.at(Dq, cell[dead], bits[a[dead]])
    changed = sorted_distinct(cell[dead])
    wiped = changed[Dq[changed] == 0]
    return int(wiped[0]) if wiped.size else None


def _propagate_quotient(grid: GridCSP, Dq: np.ndarray, stats, budget):
    """Arc consistency on the quotient cells to fixpoint: the identity row's revision,
    then every cell's column revision, until a round removes nothing. Returns an
    emptied cell or None."""
    while True:
        before = Dq.copy()
        wiped = _revise(Dq[None, :], grid.m_row, (0,), set(), set(), stats, budget)
        if wiped is not None:
            return wiped[1]
        wiped = _revise_quotient_columns(grid, Dq, stats, budget)
        if wiped is not None:
            return wiped
        if np.array_equal(before, Dq):
            return None


def _root(grid: GridCSP, D: np.ndarray, stats, budget) -> int | None:
    """Root propagation on the quotient. Returns the emptied variable (identity, s), or
    None with the fixpoint relabeled onto every profile of D (P, P)."""
    Dq = grid.initial.copy()
    wiped = _propagate_quotient(grid, Dq, stats, budget)
    if wiped is not None:
        return grid.var_index(0, wiped)
    D[:] = expand(grid, Dq)
    return None


def _pick(D: np.ndarray) -> int | None:
    sizes = np.bitwise_count(D)
    open_vars = sizes > 1
    if not open_vars.any():
        return None
    return int(np.where(open_vars, sizes, np.iinfo(sizes.dtype).max).argmin())


def _read_off(grid: GridCSP, D: np.ndarray):
    if (D == 0).any():
        return int((D == 0).argmax())
    P = len(grid.rankings)
    return {
        (grid.rankings[r1], grid.rankings[r2]): int(a).bit_length() - 1
        for (r1, r2), a in np.ndenumerate(D.reshape(P, P))
    }


def solve_grid(grid: GridCSP, mode: str = "prove-unsat", budget: int = 10_000_000) -> SolveResult:
    """`depth_first` over the flattened grid: quotient propagation at the root, then bulk
    propagation from each decision's row and column; deterministic.

    Propagation records no steps yet, so certificate nodes carry empty traces;
    replay re-executes the decisions instead.
    """
    stats = SolveStats()
    P = len(grid.rankings)

    def propagate(D, var, removed):
        if var is None:
            return _root(grid, D.reshape(P, P), stats, budget), []
        wiped = _propagate(grid, D.reshape(P, P), {var // P}, {var % P}, stats, budget)
        return (None if wiped is None else grid.var_index(*wiped)), []

    flat = np.zeros(P * P, dtype=np.uint64)  # the root fills it
    return depth_first(flat, propagate, _pick, partial(_read_off, grid), mode, stats)


def replay_grid_certificate(grid: GridCSP, cert: InfeasibilityCertificate) -> bool:
    """Re-execute the recorded decisions as the solve does: each leaf must empty exactly
    its recorded variable, and each branch must cover its variable's candidates."""
    P, stats = len(grid.rankings), SolveStats()
    D = np.zeros((P, P), dtype=np.uint64)
    return _replay(grid, cert, D, _root(grid, D, stats, 10**9), stats)


def _replay(grid: GridCSP, node: InfeasibilityCertificate, D, wiped, stats) -> bool:
    # a module-level recursion: a nested one would hold the grid in a reference cycle
    if wiped is None and (D == 0).any():
        wiped = int((D == 0).argmax())  # a leaf that `_read_off` reports
    if node.emptied_var is not None:
        return wiped == node.emptied_var
    if wiped is not None or node.branch_var is None:
        return False  # a branch where propagation already refutes, or a leaf that does not
    r1, r2 = grid.var_profile(node.branch_var)
    covered = 0
    for val, child in node.branches:
        covered |= 1 << val
        child_D = D.copy()
        child_D[r1, r2] = np.uint64(1 << val)
        emptied = _propagate(grid, child_D, {r1}, {r2}, stats, 10**9)
        emptied = None if emptied is None else grid.var_index(*emptied)
        if not _replay(grid, child, child_D, emptied, stats):
            return False
    return covered == int(D[r1, r2])
