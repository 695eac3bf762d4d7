"""Shared test fixtures: tiny constructors and independent step-simulation oracles."""

from __future__ import annotations

from itertools import permutations

from draftkit.core import Preference, Problem, bundle_of
from draftkit.csp import ProblemKeys

LETTERS = "abcdefgh"

# the grid searches' axiom sets: T2, T3, T4, the WSP probe's, and NW + SP
GRID_AXIOMS = [
    ("RP", "EF1", "NW", "WSP"), ("EFF", "EF1", "WSP"), ("NW", "EF1", "SP"), ("NW", "EF1", "WSP"),
    ("NW", "SP"),
]


def obj(name: str) -> int:
    return LETTERS.index(name)


def bundle(names: str) -> int:
    return bundle_of(obj(c) for c in names)


def pref(spec: str) -> Preference:
    """Build a preference from a string like 'abcd' or 'ab|cd' (cutoff before '|')."""
    if "|" in spec:
        head, tail = spec.split("|")
        return Preference(tuple(obj(c) for c in head + tail), len(head))
    return Preference(tuple(obj(c) for c in spec))


def fixed_problem(*prefs: str, available: str | None = None) -> Problem:
    universe = LETTERS[: len(prefs[0].replace("|", ""))]
    avail = bundle(available if available is not None else universe)
    return Problem(
        "fixed", tuple(range(1, len(prefs) + 1)), avail, tuple(pref(s) for s in prefs)
    )


def unacc_problem(*prefs: str, available: str | None = None) -> Problem:
    universe = LETTERS[: len(prefs[0].replace("|", ""))]
    avail = bundle(available if available is not None else universe)
    return Problem(
        "unacceptable", tuple(range(1, len(prefs) + 1)), avail, tuple(pref(s) for s in prefs)
    )


def naive_draft(problem: Problem, order: list[int], n_steps: int) -> dict[int, set[int]]:
    """Independent step-by-step simulation using lists and index(), no bitmasks."""
    remaining = sorted(
        o for o in range(8) if problem.available >> o & 1
    )
    out: dict[int, set[int]] = {a: set() for a in problem.agents}
    for k in range(n_steps):
        agent = order[k % len(order)]
        ranking = list(problem.pref_of(agent).ranking)
        acceptable = [o for o in remaining if problem.pref_of(agent).acceptable >> o & 1]
        if not acceptable:
            continue
        pick = min(acceptable, key=ranking.index)
        out[agent].add(pick)
        remaining.remove(pick)
    return out


def as_sets(alloc) -> tuple[set[int], ...]:
    return tuple({o for o in range(8) if b >> o & 1} for b in alloc)


def all_profiles(n_agents: int, n_objects: int):
    """All fixed-model profiles over a small universe, deterministic order."""
    from itertools import product

    rankings = list(permutations(range(n_objects)))
    for combo in product(rankings, repeat=n_agents):
        yield tuple(Preference(r) for r in combo)


def distinct_problems(domain) -> tuple[list, list[Problem]]:
    """Each problem key of a fixed-population domain once, in enumeration order, with its
    first problem, read off the `csp.ProblemKeys` index."""
    index = ProblemKeys(domain)
    sets = range(len(index.xs))
    keys = [key for xi in sets for key in index.keys(xi)]
    return keys, [prob for xi in sets for prob in index.problems(xi)]
