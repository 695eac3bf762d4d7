"""Packed bundle sets: the array kernels of the single-agent deviation scans.

SP, WSP, TP, EP, TI and the MSP certificate (see `axioms`) judge each profile
code and slot of a fixed-population sweep against the bundles that the slot's
agent reaches by changing her report. At one slot, the codes that share the
other agents' digits (a *context*) reach the same bundles; only the truthful
index d and its bundle `own` differ. So a context's bundles are ORed once into
a packed set, bundle t as bit t % bits of word t // bits, and a (code,
slot) fails where that set meets BAD[d, own]: the bundles at which the axiom's
relation rejects (d, own, ·).

Words are int64, read as bit patterns: the bitwise loops of int64 are the
ones the rest of the program runs, and each NumPy loop's first call in a
process costs it about 64 KB of resident memory.

A grid is one available set's uint8 (Pⁿ, n) allocation rows: row = profile
code, slot 0 the most significant digit. With cutoffs, a preference index is
ranking·(m+1) + cutoff.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from .dominance import relation_table

RELATION_STEP = 1 << 18  # relation cells judged per step of `failing_sets`


@lru_cache(maxsize=None)
def bundle_bits(n_objects: int, bits: int) -> np.ndarray:
    """ONE[w, t]: bundle t's bit in word w of a packed set, int64 (words, 2^n_objects)."""
    S = 1 << n_objects
    one = np.zeros((-(-S // bits), S), dtype=np.int64)
    for w, lo in enumerate(range(0, S, bits)):
        one[w, lo : lo + bits] = np.left_shift(1, np.arange(min(bits, S - lo)))
    one.flags.writeable = False
    return one


@lru_cache(maxsize=None)
def failing_sets(ok: Callable, n_objects: int, cutoffs: bool, quota, bits: int) -> np.ndarray:
    """BAD[w, d·2^m + own]: word w of the packed set of bundles t at which ok(DOM, d, own, t)
    fails, DOM = relation_table(n_objects, cutoffs, quota).

    Built in steps of preferences, so that no temporary is the size of the relation.
    """
    dom = relation_table(n_objects, cutoffs, quota)
    P, S = dom.shape[:2]
    t, out = np.arange(S), np.zeros((-(-S // bits), P * S), dtype=np.int64)
    step = max(1, RELATION_STEP // (S * S))
    for lo in range(0, P, step):
        bad = ~ok(dom, slice(lo, lo + step), t[:, None], t).reshape(-1, S)
        for b in t.tolist():  # bundle b is bit b % bits of word b // bits
            out[b // bits, lo * S : lo * S + len(bad)] |= bad[:, b].astype(np.int64) << b % bits
    out.flags.writeable = False
    return out


def meets(sets, table: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Where the packed sets (one array per word) share a bundle with table's sets at `at`."""
    out = None
    for words, packed in zip(sets, table):
        hit = (words & packed.take(at)) != 0
        out = hit if out is None else out | hit
    return out


def report_sets(one: np.ndarray, bundles: np.ndarray, reports: np.ndarray) -> np.ndarray:
    """(words, H, 1, C): per context of bundles (H, P, C), the packed set of its bundles at
    the report indexes `reports` of axis 1."""
    picked = bundles[:, reports]
    return np.stack([np.bitwise_or.reduce(bits.take(picked), axis=1, keepdims=True) for bits in one])


def scan(grid: np.ndarray, P: int, group: int, judge: Callable, block: int):
    """First failing (code, slot) of the grid in row-major order, and the checks up to it.

    Steps of about `block` cells hold whole groups of `group` codes, a multiple
    of the P^(n-1) codes of one first digit, so every later slot's contexts lie
    within a step. At each slot, a step's bundles are read as (H, D, C): H runs
    of D consecutive digits of the slot, the first d0, each over the C codes of
    the later slots. `judge(slot, bundles, d0)` returns the bool (H, D, C)
    failures and each cell's checks, broadcastable to them. Returns ((code,
    slot) or None, the checks before that cell, or over the whole grid).
    """
    (total, n), checked = grid.shape, 0
    step = max(group, block // n // group * group)
    for lo in range(0, total, step):
        hi, judged = min(lo + step, total), []
        for slot in range(n):
            pow_ = P ** (n - 1 - slot)
            bundles = grid[lo:hi, slot].reshape(-1, (hi - lo) // pow_ if slot == 0 else P, pow_)
            judged.append(judge(slot, bundles, lo // pow_ % P))
        flat = [bad.reshape(-1) for bad, _ in judged]
        hits = [(i, s) for s, f in enumerate(flat) for i in [int(f.argmax())] if f[i]]
        if not hits:
            checked += sum(int(checks.sum()) * (bad.size // checks.size) for bad, checks in judged)
            continue
        code, slot = min(hits)
        for s, (bad, checks) in enumerate(judged):
            checked += int(np.broadcast_to(checks, bad.shape).reshape(-1)[: code + (s < slot)].sum())
        return (lo + code, slot), checked
    return None, checked


def misreport_judge(grid, P: int, one, tables, reports, checks, block: int) -> Callable:
    """`scan`'s judge of misreports: at each context, the packed set of the bundles at the
    report indexes `reports`, against tables[slot]; truth d makes checks[d] checks.

    Slot 0's contexts span the whole grid, so its sets are built once, in steps
    of about `block` cells.
    """
    m, column = one.shape[1].bit_length() - 1, grid[:, 0].reshape(1, P, -1)
    first = np.empty((len(one), 1, 1, column.shape[2]), dtype=np.int64)
    step = max(1, block // len(reports))
    for lo in range(0, column.shape[2], step):
        first[..., lo : lo + step] = report_sets(one, column[..., lo : lo + step], reports)

    def judge(slot, bundles, d0):
        d = np.arange(d0, d0 + bundles.shape[1])
        sets = first if slot == 0 else report_sets(one, bundles, reports)
        return meets(sets, tables[slot], (d << m)[:, None] + bundles), checks[d, None]

    return judge


def unanimous_failures(grid, P: int, one, table, reports, block: int) -> np.ndarray:
    """Bool (P, n): where truth d fails at a slot of the unanimous profile of d, the packed
    set of the slot's bundles at the report indexes `reports` meeting `table`."""
    n, m, truths = grid.shape[1], one.shape[1].bit_length() - 1, np.arange(P)
    unanimous = truths * sum(P**s for s in range(n))
    bad = np.empty((P, n), dtype=bool)
    step = max(1, block // P)
    for slot in range(n):
        pow_ = P ** (n - 1 - slot)
        bundles = grid[:, slot].reshape(-1, P, pow_)
        outer, inner = np.divmod(unanimous - truths * pow_, P * pow_)  # the contexts
        for d in (truths[lo : lo + step] for lo in range(0, P, step)):
            sets = report_sets(one, bundles[outer[d], :, inner[d]][..., None], reports)
            at = (d << m) + grid[unanimous[d], slot]
            bad[d, slot] = meets(sets.reshape(len(one), -1), table, at)
    return bad


def unanimous_judge(grid, P: int, one, table) -> Callable:
    """`scan`'s judge of each cell against the bundle its slot gets at the unanimous profile
    of its truth (everyone reports it), against `table`; one check per cell."""
    m, n = one.shape[1].bit_length() - 1, grid.shape[1]
    unanimous = np.arange(P) * sum(P**s for s in range(n))

    def judge(slot, bundles, d0):
        d = np.arange(d0, d0 + bundles.shape[1])
        sets = one[:, grid[unanimous[d], slot], None]  # (words, D, 1): one bundle per truth
        return meets(sets, table, (d << m)[:, None] + bundles), np.ones(1, dtype=np.intp)

    return judge


def change_judge(one, table, checks, pick: int) -> Callable:
    """`scan`'s judge of report changes within a ranking: its smaller cutoffs (pick 0,
    truncations) as an exclusive prefix OR along the cutoff axis, or its larger ones
    (pick 1, extensions) as an exclusive suffix OR, against `table`; truth d makes
    checks[d] checks."""
    m = one.shape[1].bit_length() - 1

    def judge(slot, bundles, d0):
        H, D, C = bundles.shape
        cuts, sets = bundles.reshape(H, D // (m + 1), m + 1, C), []
        for bits in one:
            reached, out = bits.take(cuts), np.zeros(cuts.shape, dtype=np.int64)
            if pick == 0:
                np.bitwise_or.accumulate(reached[:, :, :-1], axis=2, out=out[:, :, 1:])
            else:
                np.bitwise_or.accumulate(reached[:, :, :0:-1], axis=2, out=out[:, :, -2::-1])
            sets.append(out.reshape(H, D, C))
        d = np.arange(d0, d0 + D)
        return meets(sets, table, (d << m)[:, None] + bundles), checks[d, None]

    return judge


def truncation_judge(acc: np.ndarray, m: int) -> Callable:
    """`scan`'s judge of truncation invariance, acc[d] the objects preference d accepts.

    The truncations of truth d that keep `own` acceptable are the cutoffs
    [need(d, own), cutoff(d)) of its ranking, each a check, and one of them
    changes the bundle exactly where need comes before the start of the run of
    equal bundles that ends at d's cutoff.
    """
    accepts = (np.arange(1 << m) & ~acc.reshape(-1, 1, m + 1, 1)) == 0  # [ranking, ., cutoff, own]
    need = np.repeat(accepts.argmax(axis=2).astype(np.uint8), m + 1, axis=1)
    cutoff = np.arange(m + 1, dtype=np.uint8)[:, None]
    checks = ((cutoff - need) * (need < cutoff)).reshape(-1)  # per d·2^m + own
    need, runs = need.reshape(-1), np.arange(1, m + 1, dtype=np.uint8)[:, None]

    def judge(slot, bundles, d0):
        H, D, C = bundles.shape
        cuts = bundles.reshape(H, D // (m + 1), m + 1, C)
        starts = np.zeros(cuts.shape, dtype=np.uint8)  # where each cutoff's run of equal bundles starts
        starts[:, :, 1:] = (cuts[:, :, 1:] != cuts[:, :, :-1]) * runs
        np.maximum.accumulate(starts, axis=2, out=starts)
        at = (np.arange(d0, d0 + D) << m)[:, None] + bundles
        return need.take(at) < starts.reshape(H, D, C), checks.take(at)

    return judge
