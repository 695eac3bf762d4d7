"""Shared test fixtures: tiny constructors and independent step-simulation oracles."""

from __future__ import annotations

from itertools import permutations

from draftkit.core import Preference, Problem, bundle_of
from draftkit.csp import ProblemKeys
from draftkit.rules import Rule, tabulated_rule

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


def distinct_problems(domain) -> list[Problem]:
    """The first problem of each key of a fixed-population domain, in key-code order, read
    off the `csp.ProblemKeys` index."""
    index = ProblemKeys(domain)
    return [prob for xi in range(len(index.xs)) for prob in index.problems(xi)]


def key_code(index: ProblemKeys, problem: Problem) -> int:
    """The code of the problem's key in the index, as a tabulated rule finds it."""
    fields = (problem.variant, problem.agents, problem.available, problem.quotas)
    b, full = index.locate(*fields, problem.profile)
    return int(index.find(b, full))


def code_table(name: str, domain, rule: Rule, cells: dict | None = None) -> Rule:
    """The rule tabulated over the domain's keys, each (problem, allocation) of `cells`
    taking the place of the rule's allocation at that problem's key."""
    index = ProblemKeys(domain)
    table = [rule.allocate(prob) for b in range(len(index.blocks)) for prob in index.problems(b)]
    for prob, alloc in (cells or {}).items():
        table[key_code(index, prob)] = alloc
    return tabulated_rule(name, index, table)
