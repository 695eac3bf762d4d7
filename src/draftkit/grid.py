"""Vectorized rule-space search for two-agent domains with one fixed available set.

The impossibility searches all share this shape: variables form a preference
grid (one per ordered ranking pair), candidates are the full splits of the
object pool between the two agents, and the only binary constraints are
unilateral-deviation constraints along grid rows and columns. That structure
lets arc consistency run as whole-row / whole-column mask arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .axioms import DEVIATIONS, AxiomSpace, ProblemDomain, admissible
from .csp import InfeasibilityCertificate, SolveResult, SolveStats

MAX_OBJECTS = 6  # candidate sets are uint64 masks with one bit per split: 2**6 = 64


def _popcount(arr: np.ndarray) -> np.ndarray:
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(arr)
    bytes_view = arr.astype(np.uint64).view(np.uint8).reshape(arr.shape + (8,))
    lut = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)
    return lut[bytes_view].sum(axis=-1)


@dataclass
class GridCSP:
    n_objects: int
    axioms: tuple[str, ...]
    rankings: list[tuple[int, ...]]
    candidates: list[int]  # agent-1 bundles; agent 2 holds the complement (NW built in)
    initial: np.ndarray  # (P, P) uint64 candidate masks after unary filters
    m_row: np.ndarray  # (P, P, C) allowed masks for same-row (agent-2 deviation) pairs
    m_col: np.ndarray  # same for columns (agent-1 deviations)

    def var_index(self, r1: int, r2: int) -> int:
        return r1 * len(self.rankings) + r2

    def var_profile(self, var: int) -> tuple[int, int]:
        return divmod(var, len(self.rankings))


def _cones(ok, dom: np.ndarray, own: np.ndarray) -> np.ndarray:
    """Allowed masks of one agent's deviation constraints, from the deviation relation.

    `own[a]` is the agent's bundle under candidate a. Entry [r, r2, a] has bit
    b set where truth r at a does not gain from b and truth r2 at b does not
    gain from a: the relation read in both directions.
    """
    d = np.arange(len(dom))[:, None, None]
    s, t = own[None, :, None], own[None, None, :]
    return _pack(ok(dom, d, s, t))[:, None, :] & _pack(ok(dom, d, t, s))[None, :, :]


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
    C = len(candidates)
    splits = np.array([(a, full & ~a) for a in candidates], dtype=np.uint8)

    ok, dom = DEVIATIONS[deviation[0]], space.relation()
    m_col = _cones(ok, dom, splits[:, 0])
    m_row = _cones(ok, dom, splits[:, 1])

    # the unary table, one grid row (agent 1's ranking) at a time: rows are (r2, split) pairs
    allocs = np.tile(splits, (P, 1))
    digits = np.repeat(np.arange(P), C)[:, None].repeat(2, axis=1)
    initial = np.empty((P, P), dtype=np.uint64)
    for r1 in range(P):
        digits[:, 0] = r1
        initial[r1] = _pack(admissible(space, full, allocs, digits, unary).reshape(P, C))

    return GridCSP(n_objects, axioms, rankings, candidates, initial, m_row, m_col)


def _pack(alive: np.ndarray) -> np.ndarray:
    """Bool (..., C) as uint64 masks: bit a set where alive[..., a]."""
    pow2 = np.uint64(1) << np.arange(alive.shape[-1], dtype=np.uint64)
    return (alive.astype(np.uint64) * pow2).sum(axis=-1, dtype=np.uint64)


class _Budget(Exception):
    pass


def _propagate(grid: GridCSP, D: np.ndarray, dirty_rows, dirty_cols, stats, budget):
    """Row/column arc consistency to fixpoint; returns an emptied (r1, r2) or None."""
    P = len(grid.rankings)
    while dirty_rows or dirty_cols:
        rows, dirty_rows = sorted(dirty_rows), set()
        for r in rows:
            stats.revisions += P
            if stats.revisions > budget:
                raise _Budget
            B = D[r]
            support = (B[None, :, None] & grid.m_row) != 0
            newB = B & _pack(support.all(axis=1))
            changed = np.nonzero(newB != B)[0]
            if changed.size:
                D[r] = newB
                if (newB[changed] == 0).any():
                    c = int(changed[np.nonzero(newB[changed] == 0)[0][0]])
                    return (r, c)
                dirty_cols.update(int(c) for c in changed)
                dirty_rows.add(r)
        cols, dirty_cols = sorted(dirty_cols), set()
        for c in cols:
            stats.revisions += P
            if stats.revisions > budget:
                raise _Budget
            B = D[:, c]
            support = (B[None, :, None] & grid.m_col) != 0
            newB = B & _pack(support.all(axis=1))
            changed = np.nonzero(newB != B)[0]
            if changed.size:
                D[:, c] = newB
                if (newB[changed] == 0).any():
                    r = int(changed[np.nonzero(newB[changed] == 0)[0][0]])
                    return (r, c)
                dirty_rows.update(int(r) for r in changed)
                dirty_cols.add(c)
    return None


def solve_grid(grid: GridCSP, mode: str = "prove-unsat", budget: int = 10_000_000) -> SolveResult:
    """Backtracking with bulk propagation; deterministic; replay by re-execution."""
    stats = SolveStats()
    P = len(grid.rankings)
    D = grid.initial.astype(np.uint64).copy()
    solutions: list[dict] = []

    def emptied_cert(rc):
        return InfeasibilityCertificate(emptied_var=grid.var_index(*rc))

    def pick_var(D):
        sizes = _popcount(D)
        open_vars = sizes > 1
        if not open_vars.any():
            return None
        masked = np.where(open_vars, sizes, np.iinfo(sizes.dtype).max)
        flat = int(masked.argmin())
        return divmod(flat, P)

    def extract(D):
        out = {}
        for r1 in range(P):
            for r2 in range(P):
                a = int(D[r1, r2]).bit_length() - 1
                out[(grid.rankings[r1], grid.rankings[r2])] = a
        return out

    def search(D) -> InfeasibilityCertificate:
        stats.nodes += 1
        var = pick_var(D)
        if var is None:
            if (D == 0).any():
                flat = int((D == 0).argmax())
                return emptied_cert(divmod(flat, P))
            solutions.append(extract(D))
            return InfeasibilityCertificate()
        r1, r2 = var
        branches = []
        mask = int(D[r1, r2])
        m = mask
        while m:
            low = m & -m
            m ^= low
            val = low.bit_length() - 1
            child = D.copy()
            child[r1, r2] = np.uint64(low)
            wiped = _propagate(grid, child, {r1}, {r2}, stats, budget)
            if wiped is not None:
                branches.append((val, emptied_cert(wiped)))
                continue
            sub = search(child)
            if solutions and mode in ("find-one", "prove-unsat"):
                return sub
            branches.append((val, sub))
        return InfeasibilityCertificate(
            branch_var=grid.var_index(r1, r2), branches=branches
        )

    try:
        wiped = _propagate(grid, D, set(range(P)), set(range(P)), stats, budget)
        if wiped is not None:
            return SolveResult("unsat", [], emptied_cert(wiped), stats)
        cert = search(D)
    except _Budget:
        return SolveResult("undecided", solutions, None, stats)
    if solutions:
        return SolveResult("sat", solutions, None, stats)
    return SolveResult("unsat", [], cert, stats)


def replay_grid_certificate(grid: GridCSP, cert: InfeasibilityCertificate) -> bool:
    """Re-execute the recorded decisions; each leaf must reproduce its wipeout."""
    stats = SolveStats()
    P = len(grid.rankings)

    def verify(node, D) -> bool:
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
            if not verify(child, child_D):
                return False
        return covered & int(D[r1, r2]) == int(D[r1, r2])

    return verify(cert, grid.initial.astype(np.uint64).copy())
