"""Axiom checkers over enumerable problem domains.

Every checker takes a rule and a ProblemDomain, quantifies the axiom's
"for any problem" over exactly the domain's problems, and returns an
AxiomReport whose witness (when violated) carries enough of the instance to
replay the violation. Witnesses are the first violation in the domain's
deterministic enumeration order, independent of how the sweep is scheduled.

Domains are finite and explicit; reports therefore state exactly what was
checked, nothing more.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, combinations, permutations, product
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .core import (
    INFINITE,
    Agent,
    Allocation,
    Bundle,
    Preference,
    Priority,
    Problem,
    bundle_of,
    bundle_size,
    objects_of,
    subsets_of,
    top,
    top_k,
)
from .dominance import (
    WeightScheme,
    additive_utility,
    dominance_table,
    ef1_table,
    quota_weakly_dominates,
    weakly_dominates,
)
from .rules import Rule

OBJECT_NAMES = "abcdefghijklmnopqrstuvwxyz"


def format_bundle(mask: Bundle) -> str:
    return "{" + ",".join(OBJECT_NAMES[o] for o in objects_of(mask)) + "}"


def format_pref(pref: Preference) -> str:
    names = [OBJECT_NAMES[o] for o in pref.ranking]
    if pref.cutoff is None:
        return ">".join(names)
    return ">".join(names[: pref.cutoff]) + "|" + ">".join(names[pref.cutoff :])


def describe_problem(problem: Problem) -> dict:
    out = {
        "variant": problem.variant,
        "agents": list(problem.agents),
        "available": format_bundle(problem.available),
        "profile": {a: format_pref(p) for a, p in zip(problem.agents, problem.profile)},
    }
    if problem.quotas is not None:
        out["quotas"] = ["inf" if q == INFINITE else q for q in problem.quotas]
    return out


def describe_allocation(problem: Problem, alloc: Allocation) -> dict:
    return {a: format_bundle(b) for a, b in zip(problem.agents, alloc)}


@dataclass(frozen=True)
class AxiomReport:
    axiom: str
    verdict: str  # "holds" | "violated" | "proved" | "refuted" | "undecided"
    witness: dict | None = None
    checked: int = 0
    note: str = ""

    @property
    def holds(self) -> bool:
        return self.verdict in ("holds", "proved")


def _holds(axiom, checked, note=""):
    return AxiomReport(axiom, "holds", None, checked, note)


def _violated(axiom, checked, witness, note=""):
    return AxiomReport(axiom, "violated", witness, checked, note)


# ---------------------------------------------------------------------------
# Problem domains
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _rankings(objects: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    return tuple(permutations(objects))


@lru_cache(maxsize=None)
def _fixed_prefs(m: int) -> tuple[Preference, ...]:
    return tuple(Preference(r) for r in _rankings(tuple(range(m))))


@lru_cache(maxsize=None)
def _cutoff_prefs(m: int) -> tuple[Preference, ...]:
    return tuple(
        Preference(r, c) for r in _rankings(tuple(range(m))) for c in range(m + 1)
    )


@lru_cache(maxsize=None)
def _restricted_prefs(objects: tuple[int, ...]) -> tuple[Preference, ...]:
    return tuple(Preference(r) for r in _rankings(objects))


@dataclass(frozen=True)
class ProblemDomain:
    """A finite quantification range: populations x available sets x preference profiles.

    Enumeration order is deterministic: populations as given, available sets as
    given, profiles in lexicographic order over the per-agent preference space.
    """

    variant: str
    n_objects: int
    populations: tuple[tuple[Agent, ...], ...]
    available_sets: tuple[Bundle, ...]
    quotas: tuple[int | float, ...] | None = None

    def preference_space(self) -> tuple[Preference, ...]:
        if self.variant == "unacceptable":
            return _cutoff_prefs(self.n_objects)
        if self.variant == "variable":
            raise ValueError("variable domains have per-available-set preference spaces")
        return _fixed_prefs(self.n_objects)

    def rankings_of(self, available: Bundle) -> tuple[Preference, ...]:
        return _restricted_prefs(objects_of(available))

    def problems(self) -> Iterator[Problem]:
        if self.variant == "variable":
            for pop in self.populations:
                for x in self.available_sets:
                    space = self.rankings_of(x) if x else (Preference(()),)
                    for combo in product(space, repeat=len(pop)):
                        yield Problem("variable", pop, x, combo)
            return
        prefs = self.preference_space()
        for pop in self.populations:
            for x in self.available_sets:
                for combo in product(prefs, repeat=len(pop)):
                    yield Problem(self.variant, pop, x, combo, self.quotas)


def _subset_masks(m: int, nonempty=True) -> tuple[Bundle, ...]:
    masks = [x for x in range(0 if not nonempty else 1, 1 << m)]
    masks.sort(key=lambda x: (x.bit_count(), x))
    return tuple(masks)


def fixed_domain(n_agents: int, n_objects: int) -> ProblemDomain:
    return ProblemDomain(
        "fixed", n_objects, (tuple(range(1, n_agents + 1)),), _subset_masks(n_objects)
    )


def quota_domain(n_agents: int, n_objects: int, quotas: Sequence[int | float]) -> ProblemDomain:
    return ProblemDomain(
        "quota",
        n_objects,
        (tuple(range(1, n_agents + 1)),),
        _subset_masks(n_objects),
        tuple(quotas),
    )


def unacceptable_domain(n_agents: int, n_objects: int) -> ProblemDomain:
    return ProblemDomain(
        "unacceptable",
        n_objects,
        (tuple(range(1, n_agents + 1)),),
        _subset_masks(n_objects),
    )


def variable_domain(n_agents: int, n_objects: int) -> ProblemDomain:
    pops = []
    for size in range(1, n_agents + 1):
        pops.extend(combinations(range(1, n_agents + 1), size))
    return ProblemDomain(
        "variable", n_objects, tuple(pops), (0,) + _subset_masks(n_objects)
    )


def all_priorities(agents: Iterable[Agent]) -> list[Priority]:
    return list(permutations(tuple(agents)))


# ---------------------------------------------------------------------------
# Indexed sweep over a fixed-population domain (fixed / quota / unacceptable)
# ---------------------------------------------------------------------------


class FixedSweep:
    """Evaluates a rule over a whole fixed-population domain once.

    Allocations live in arrays indexed by (available-set index, profile code);
    a profile code is the base-P encoding of per-agent preference indexes, slot
    0 most significant. Cross-problem checks (misreports, subsets, truncations)
    are then pure index arithmetic, so a rule is run exactly once per problem.
    Each set's grid is filled on first use and mirrored in a uint8 array that
    the gather checkers read.
    """

    def __init__(self, rule: Rule, domain: ProblemDomain):
        if domain.variant == "variable":
            raise ValueError("use VariableSweep for variable domains")
        self.rule = rule
        self.domain = domain
        self.prefs = domain.preference_space()
        self.pref_index = {p: i for i, p in enumerate(self.prefs)}
        self.agents = domain.populations[0]
        self.n = len(self.agents)
        self.P = len(self.prefs)
        self.xs = domain.available_sets
        self.x_index = {x: i for i, x in enumerate(self.xs)}
        # grids are filled in itertools.product order: slot 0 is the most significant digit
        self._pow = tuple(self.P ** (self.n - 1 - slot) for slot in range(self.n))
        self._grids: dict[int, list[Allocation]] = {}
        self._arrays: dict[int, np.ndarray] = {}
        self._reps: dict[int, np.ndarray] = {}

    # --- profile codes ---

    def codes(self) -> range:
        return range(self.P**self.n)

    def decode(self, code: int) -> tuple[int, ...]:
        return tuple(code // p % self.P for p in self._pow)

    def encode(self, idxs: Sequence[int]) -> int:
        code = 0
        for i in idxs:
            code = code * self.P + i
        return code

    def replace(self, code: int, slot: int, new_idx: int) -> int:
        step = self._pow[slot]
        old = code // step % self.P
        return code + (new_idx - old) * step

    def slot_index(self, code: int, slot: int) -> int:
        return code // self._pow[slot] % self.P

    def profile(self, code: int) -> tuple[Preference, ...]:
        return tuple(self.prefs[i] for i in self.decode(code))

    def problem(self, x_idx: int, code: int) -> Problem:
        return Problem(
            self.domain.variant,
            self.agents,
            self.xs[x_idx],
            self.profile(code),
            self.domain.quotas,
        )

    def grid(self, x_idx: int) -> list[Allocation]:
        if x_idx not in self._grids:
            allocate = self.rule.allocate
            variant, agents, x, quotas = (
                self.domain.variant,
                self.agents,
                self.xs[x_idx],
                self.domain.quotas,
            )
            self._grids[x_idx] = [
                allocate(Problem(variant, agents, x, combo, quotas))
                for combo in product(self.prefs, repeat=self.n)
            ]
        return self._grids[x_idx]

    def allocs(self, x_idx: int) -> np.ndarray:
        """grid(x_idx) as a uint8 (Pⁿ, n) array: row = profile code, column = agent slot."""
        if x_idx not in self._arrays:
            if self.domain.n_objects > 8:
                raise ValueError("allocation arrays hold bundles of at most 8 objects")
            grid = self.grid(x_idx)
            flat = np.fromiter(chain.from_iterable(grid), np.uint8, len(grid) * self.n)
            self._arrays[x_idx] = flat.reshape(len(grid), self.n)
        return self._arrays[x_idx]

    @cached_property
    def digits(self) -> np.ndarray:
        """(Pⁿ, n) preference index of each slot at each profile code."""
        return np.indices((self.P,) * self.n).reshape(self.n, -1).T

    def restriction_reps(self, x_idx: int) -> np.ndarray:
        """Per preference index, the first index whose restriction to this set is the same."""
        if x_idx not in self._reps:
            x = self.xs[x_idx]
            first: dict = {}
            reps = []
            for i, p in enumerate(self.prefs):
                ranking = tuple(o for o in p.ranking if x >> o & 1)
                cut = (
                    None
                    if p.cutoff is None
                    else sum(1 for o in ranking if p.acceptable >> o & 1)
                )
                reps.append(first.setdefault((ranking, cut), i))
            self._reps[x_idx] = np.array(reps)
        return self._reps[x_idx]


def _dominates(pref: Preference, quota, s: Bundle, t: Bundle) -> bool:
    if quota is not None and quota != INFINITE:
        return quota_weakly_dominates(pref, quota, s, t)
    return weakly_dominates(pref, s, t)


def _union(alloc: Allocation) -> Bundle:
    u = 0
    for b in alloc:
        u |= b
    return u


# ---------------------------------------------------------------------------
# Gather kernels: relation tables and first-violation scans over a FixedSweep
# ---------------------------------------------------------------------------

_BLOCK = 1 << 15  # gathered cells per step of a deviation scan; bounds its temporaries


@lru_cache(maxsize=None)
def _dom_table(cutoffs: bool, m: int, quota: int | None) -> np.ndarray:
    return dominance_table(_cutoff_prefs(m) if cutoffs else _fixed_prefs(m), m, quota)


@lru_cache(maxsize=None)
def _ef1_table(cutoffs: bool, m: int, quota: int | None) -> np.ndarray:
    return ef1_table(_dom_table(cutoffs, m, quota), m)


def _relation(sw: FixedSweep, quota=None, ef1: bool = False) -> np.ndarray:
    """DOM[pref_idx, s, t] (or EF1OK) for one quota, indexed like sw.prefs; built on first use."""
    q = None if quota is None or quota == INFINITE else int(quota)
    key = (sw.domain.variant == "unacceptable", sw.domain.n_objects, q)
    return _ef1_table(*key) if ef1 else _dom_table(*key)


def _slot_relations(sw: FixedSweep, ef1: bool = False) -> list[np.ndarray]:
    """One relation table per agent slot, under that agent's quota."""
    return [_relation(sw, q, ef1) for q in sw.domain.quotas or (None,) * sw.n]


def _first_violation(bad: np.ndarray, counted: np.ndarray | None = None):
    """First True cell of `bad` in row-major order, and the checks made up to it.

    `counted` marks the cells that are checks (every cell when None); `bad`
    must be False outside them. Returns (index tuple or None, checks), where
    checks runs up to and including the violation, or over the whole block.
    """
    flat = bad.reshape(-1)
    at = int(flat.argmax()) if flat.size else 0
    if flat.size and flat[at]:
        if counted is None:
            checks = at + 1
        else:
            checks = int(np.count_nonzero(counted.reshape(-1)[: at + 1]))
        return tuple(int(i) for i in np.unravel_index(at, bad.shape)), checks
    return None, flat.size if counted is None else int(np.count_nonzero(counted))


def _first_code(bad: np.ndarray):
    """Like _first_violation on a (codes, checks) block where each code counts as one check.

    Returns ((code, column) or None, codes checked).
    """
    hit, checks = _first_violation(bad.any(axis=1))
    if hit is None:
        return None, checks
    return (hit[0], int(bad[hit[0]].argmax())), checks


def _deviation_scan(sw: FixedSweep, xi: int, codes, targets, counted, bad_of, admit=None):
    """First violation among single-agent report changes at `codes` of set xi.

    At each code (in order), each slot and each column k, the agent with
    truthful preference index d reports targets[d, k] instead. The cell is a
    check where counted[d, k] holds and, if given, admit(own, alt) does.
    bad_of(slot, d, own, other) judges the checks from the truthful and the
    deviating bundle. Returns ((code, slot, report index) or None, checks).
    """
    allocs = sw.allocs(xi)
    width = targets.shape[1]
    step = max(1, _BLOCK // (sw.n * width))
    checked = 0
    for lo in range(0, len(codes), step):
        block = codes[lo : lo + step]
        bad = np.zeros((len(block), sw.n, width), dtype=bool)
        ok = np.zeros_like(bad)
        for slot in range(sw.n):
            d = sw.digits[block, slot]
            alt = targets[d]
            own = allocs[block, slot][:, None]
            other = allocs[block[:, None] + (alt - d[:, None]) * sw._pow[slot], slot]
            valid = counted[d] if admit is None else counted[d] & admit(own, alt)
            ok[:, slot] = valid
            bad[:, slot] = valid & bad_of(slot, d[:, None], own, other)
        hit, checks = _first_violation(bad, ok)
        checked += checks
        if hit is not None:
            c, slot, k = hit
            code = int(block[c])
            return (code, slot, int(targets[sw.slot_index(code, slot), k])), checked
    return None, checked


# ---------------------------------------------------------------------------
# Trade relation and efficiency
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TradeRelation:
    """Directed relation on (agent, held object): points to strictly better objects held elsewhere."""

    edges: tuple[tuple[tuple[Agent, int], tuple[Agent, int]], ...]

    def successors(self, node):
        return [b for a, b in self.edges if a == node]


def build_trade_relation(problem: Problem, alloc: Allocation) -> TradeRelation:
    holders = {}
    for agent, b in zip(problem.agents, alloc):
        for o in objects_of(b):
            holders[o] = agent
    edges = []
    for agent, pref, b in zip(problem.agents, problem.profile, alloc):
        for x in objects_of(b):
            for y, j in holders.items():
                if j != agent and pref.prefers(y, x):
                    edges.append(((agent, x), (j, y)))
    return TradeRelation(tuple(edges))


def _trade_cycle(profile: Sequence[Preference], alloc: Allocation) -> list[int] | None:
    """Cycle of objects in the trade relation, or None. DFS over held objects."""
    holder = {}
    for slot, b in enumerate(alloc):
        for o in objects_of(b):
            holder[o] = slot
    objs = list(holder)
    color = {o: 0 for o in objs}  # 0 new, 1 on stack, 2 done
    parent: dict[int, int | None] = {}

    for start in objs:
        if color[start]:
            continue
        stack = [(start, iter(objs))]
        color[start] = 1
        parent[start] = None
        while stack:
            x, it = stack[-1]
            pref = profile[holder[x]]
            advanced = False
            for y in it:
                if holder[y] == holder[x] or not pref.prefers(y, x):
                    continue
                if color[y] == 1:
                    cycle = [x]
                    while cycle[-1] != y:
                        cycle.append(parent[cycle[-1]])
                    return cycle[::-1]
                if color[y] == 0:
                    color[y] = 1
                    parent[y] = x
                    stack.append((y, iter(objs)))
                    advanced = True
                    break
            if not advanced:
                color[x] = 2
                stack.pop()
    return None


def pareto_oracle(problem: Problem, alloc: Allocation) -> bool:
    """Brute-force efficiency: no feasible allocation strictly Pareto-dominates this one.

    Unacceptable variant: individual rationality is part of the definition.
    Dominating means every agent weakly better off and someone strictly, under
    the variant's bundle comparison.
    """
    n = len(problem.agents)
    objs = objects_of(problem.available)
    if len(objs) > 5 or n > 3:
        raise ValueError("oracle capped at 5 objects / 3 agents")
    if problem.variant == "unacceptable":
        for pref, b in zip(problem.profile, alloc):
            if b & ~pref.acceptable:
                return False
    for assignment in product(range(n + 1), repeat=len(objs)):
        bundles = [0] * n
        for o, who in zip(objs, assignment):
            if who < n:
                bundles[who] |= 1 << o
        some_strict = False
        all_weak = True
        for pref, b, a in zip(problem.profile, bundles, alloc):
            if not weakly_dominates(pref, b, a):
                all_weak = False
                break
            if not weakly_dominates(pref, a, b):
                some_strict = True
        if all_weak and some_strict:
            return False
    return True


# ---------------------------------------------------------------------------
# Fixed-family checkers
# ---------------------------------------------------------------------------


def _sweep(rule, domain) -> FixedSweep:
    if isinstance(rule, FixedSweep):
        return rule
    return FixedSweep(rule, domain)


def check_nw(rule, domain) -> AxiomReport:
    """Non-wastefulness: every available object is assigned."""
    sw = _sweep(rule, domain)
    checked = 0
    for xi, x in enumerate(sw.xs):
        for code, alloc in enumerate(sw.grid(xi)):
            checked += 1
            if _union(alloc) != x:
                prob = sw.problem(xi, code)
                return _violated(
                    "NW",
                    checked,
                    {
                        "problem": describe_problem(prob),
                        "allocation": describe_allocation(prob, alloc),
                        "unassigned": format_bundle(x & ~_union(alloc)),
                    },
                )
    return _holds("NW", checked)


def _check_envy(sw: FixedSweep, name: str, pairs, tables) -> AxiomReport:
    """Per-problem envy scan: for (a, b) in pairs, a's bundle must pass tables[a] against b's.

    Pairs are listed in check order; each problem counts as one check.
    """
    checked = 0
    for xi in range(len(sw.xs)):
        allocs, digits = sw.allocs(xi), sw.digits
        bad = np.zeros((len(allocs), len(pairs)), dtype=bool)
        for k, (a, b) in enumerate(pairs):
            bad[:, k] = ~tables[a][digits[:, a], allocs[:, a], allocs[:, b]]
        hit, checks = _first_code(bad)
        checked += checks
        if hit is not None:
            code, k = hit
            prob = sw.problem(xi, code)
            return _violated(
                name,
                checked,
                {
                    "problem": describe_problem(prob),
                    "allocation": describe_allocation(prob, sw.grid(xi)[code]),
                    "envious": prob.agents[pairs[k][0]],
                    "envied": prob.agents[pairs[k][1]],
                },
            )
    return _holds(name, checked)


def _ordered_pairs(n: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(n) for b in range(n) if a != b]


def check_ef(rule, domain) -> AxiomReport:
    """Envy-freeness: everyone weakly prefers her own bundle to anyone else's."""
    sw = _sweep(rule, domain)
    return _check_envy(sw, "EF", _ordered_pairs(sw.n), _slot_relations(sw))


def _ef1_ok(pref: Preference, quota, own: Bundle, other: Bundle) -> bool:
    if _dominates(pref, quota, own, other):
        return True
    for o in objects_of(other):
        if _dominates(pref, quota, own, other & ~(1 << o)):
            return True
    return False


def check_ef1(rule, domain) -> AxiomReport:
    """Envy bounded by one object: some |S| <= 1 removal from the envied bundle kills the envy."""
    sw = _sweep(rule, domain)
    return _check_envy(sw, "EF1", _ordered_pairs(sw.n), _slot_relations(sw, ef1=True))


def check_rp(rule, domain, priority: Priority) -> AxiomReport:
    """Respect for the priority: nobody envies an agent with lower priority."""
    sw = _sweep(rule, domain)
    pos = [priority.index(a) for a in sw.agents]
    pairs = [(a, b) for a, b in _ordered_pairs(sw.n) if pos[a] < pos[b]]
    return _check_envy(sw, f"RP-{list(priority)}", pairs, _slot_relations(sw))


def check_wrp(rule, domain, priority: Priority) -> AxiomReport:
    """Weak respect for the priority: bundle sizes never grow along the priority order."""
    sw = _sweep(rule, domain)
    pos = {a: priority.index(a) for a in sw.agents}
    order = sorted(range(sw.n), key=lambda i: pos[sw.agents[i]])
    checked = 0
    for xi in range(len(sw.xs)):
        for code, alloc in enumerate(sw.grid(xi)):
            checked += 1
            sizes = [bundle_size(alloc[i]) for i in order]
            if any(a < b for a, b in zip(sizes, sizes[1:])):
                prob = sw.problem(xi, code)
                return _violated(
                    f"WRP-{list(priority)}",
                    checked,
                    {
                        "problem": describe_problem(prob),
                        "allocation": describe_allocation(prob, alloc),
                        "sizes": sizes,
                    },
                )
    return _holds(f"WRP-{list(priority)}", checked)


def check_wrp_any(rule, domain, star: bool = False) -> AxiomReport:
    """Existential form: some priority is (weakly) respected; used for independence checks."""
    failures = {}
    for pi in all_priorities(domain.populations[0]):
        rep = (check_wrp_star if star else check_wrp)(rule, domain, pi)
        if rep.holds:
            return _holds(rep.axiom, rep.checked, note=f"respected priority {list(pi)}")
        failures[str(list(pi))] = rep.witness
    return _violated("WRP*" if star else "WRP", 0, {"per_priority": failures})


def check_rt(rule, domain) -> AxiomReport:
    """Robustness against trades: the trade relation is acyclic at every problem."""
    sw = _sweep(rule, domain)
    checked = 0
    for xi in range(len(sw.xs)):
        for code, alloc in enumerate(sw.grid(xi)):
            checked += 1
            profile = sw.profile(code)
            cycle = _trade_cycle(profile, alloc)
            if cycle is not None:
                prob = sw.problem(xi, code)
                return _violated(
                    "RT",
                    checked,
                    {
                        "problem": describe_problem(prob),
                        "allocation": describe_allocation(prob, alloc),
                        "cycle": [OBJECT_NAMES[o] for o in cycle],
                    },
                )
    return _holds("RT", checked)


def check_ir(rule, domain) -> AxiomReport:
    """Individual rationality: nobody receives an object she finds unacceptable."""
    sw = _sweep(rule, domain)
    checked = 0
    for xi in range(len(sw.xs)):
        for code, alloc in enumerate(sw.grid(xi)):
            checked += 1
            profile = sw.profile(code)
            for i in range(sw.n):
                bad = alloc[i] & ~profile[i].acceptable
                if bad:
                    prob = sw.problem(xi, code)
                    return _violated(
                        "IR",
                        checked,
                        {
                            "problem": describe_problem(prob),
                            "allocation": describe_allocation(prob, alloc),
                            "agent": prob.agents[i],
                            "unacceptable": format_bundle(bad),
                        },
                    )
    return _holds("IR", checked)


def check_nw_star(rule, domain) -> AxiomReport:
    """Non-wastefulness with unacceptable objects: everything acceptable to someone is assigned."""
    sw = _sweep(rule, domain)
    checked = 0
    for xi, x in enumerate(sw.xs):
        for code, alloc in enumerate(sw.grid(xi)):
            checked += 1
            profile = sw.profile(code)
            wanted = 0
            for p in profile:
                wanted |= p.acceptable
            missing = wanted & x & ~_union(alloc)
            if missing:
                prob = sw.problem(xi, code)
                return _violated(
                    "NW*",
                    checked,
                    {
                        "problem": describe_problem(prob),
                        "allocation": describe_allocation(prob, alloc),
                        "unassigned": format_bundle(missing),
                    },
                )
    return _holds("NW*", checked)


def check_wrp_star(rule, domain, priority: Priority) -> AxiomReport:
    """Weak priority respect counted in each agent's own acceptable objects (both sides)."""
    sw = _sweep(rule, domain)
    pos = {a: priority.index(a) for a in sw.agents}
    checked = 0
    for xi in range(len(sw.xs)):
        for code, alloc in enumerate(sw.grid(xi)):
            checked += 1
            profile = sw.profile(code)
            for i in range(sw.n):
                acc = profile[i].acceptable
                mine = bundle_size(alloc[i] & acc)
                for j in range(sw.n):
                    if pos[sw.agents[i]] < pos[sw.agents[j]] and mine < bundle_size(
                        alloc[j] & acc
                    ):
                        prob = sw.problem(xi, code)
                        return _violated(
                            f"WRP*-{list(priority)}",
                            checked,
                            {
                                "problem": describe_problem(prob),
                                "allocation": describe_allocation(prob, alloc),
                                "higher": prob.agents[i],
                                "lower": prob.agents[j],
                            },
                        )
    return _holds(f"WRP*-{list(priority)}", checked)


def check_eff(rule, domain) -> AxiomReport:
    """Efficiency via its two-way decomposition: NW+RT, or IR+NW*+RT with unacceptable objects."""
    parts = (
        [check_ir, check_nw_star, check_rt]
        if domain.variant == "unacceptable"
        else [check_nw, check_rt]
    )
    sw = _sweep(rule, domain)
    checked = 0
    for part in parts:
        rep = part(sw, domain)
        checked = max(checked, rep.checked)
        if not rep.holds:
            name = "EFF*" if domain.variant == "unacceptable" else "EFF"
            return _violated(name, rep.checked, rep.witness, note=f"fails {rep.axiom}")
    name = "EFF*" if domain.variant == "unacceptable" else "EFF"
    return _holds(name, checked)


def check_rm(rule, domain) -> AxiomReport:
    """Resource monotonicity: growing the available set weakly improves every agent."""
    sw = _sweep(rule, domain)
    tables = _slot_relations(sw)
    pairs = [
        (bi, si)
        for bi, big in enumerate(sw.xs)
        for si, small in enumerate(sw.xs)
        if small != big and small & big == small
    ]
    checked = 0
    for bi, si in pairs:
        big, small = sw.allocs(bi), sw.allocs(si)
        digits = sw.digits
        bad = np.stack(
            [~tables[i][digits[:, i], big[:, i], small[:, i]] for i in range(sw.n)], axis=1
        )
        hit, checks = _first_code(bad)
        checked += checks
        if hit is not None:
            code, i = hit
            big_alloc, small_alloc = sw.grid(bi)[code], sw.grid(si)[code]
            return _violated(
                "RM",
                checked,
                {
                    "problem": describe_problem(sw.problem(bi, code)),
                    "smaller_set": format_bundle(sw.xs[si]),
                    "agent": sw.agents[i],
                    "bundle_large": format_bundle(big_alloc[i]),
                    "bundle_small": format_bundle(small_alloc[i]),
                    "allocation_small": describe_allocation(sw.problem(si, code), small_alloc),
                },
            )
    return _holds("RM", checked)


def _misreport_targets(sw: FixedSweep, xi: int):
    """Misreports to check on set xi, as (targets, counted) tables over truthful indexes.

    A restriction-invariant rule sees only a report's restriction to the set,
    so one report per restriction class is enough, minus the truth's own
    class; any other rule is checked against every other report.
    """
    key = sw.restriction_reps(xi) if sw.rule.restriction_invariant else np.arange(sw.P)
    reps = np.flatnonzero(key == np.arange(sw.P))  # each class's rep is its first index
    return np.broadcast_to(reps, (sw.P, len(reps))), reps[None, :] != key[:, None]


def check_sp(rule, domain) -> AxiomReport:
    """Strategy-proofness: the truthful bundle weakly dominates every misreport bundle."""
    return _check_sp_like(rule, domain, weak=False)


def check_wsp(rule, domain) -> AxiomReport:
    """Weak strategy-proofness: no misreport bundle strictly dominates the truthful one."""
    return _check_sp_like(rule, domain, weak=True)


def _check_sp_like(rule, domain, weak: bool) -> AxiomReport:
    sw = _sweep(rule, domain)
    tables = _slot_relations(sw)
    name = "WSP" if weak else "SP"

    def bad_of(slot, d, own, other):
        dom = tables[slot]
        if weak:
            return dom[d, other, own] & ~dom[d, own, other]
        return ~dom[d, own, other]

    codes = np.arange(sw.P**sw.n)
    checked = 0
    for xi in range(len(sw.xs)):
        targets, counted = _misreport_targets(sw, xi)
        hit, checks = _deviation_scan(sw, xi, codes, targets, counted, bad_of)
        checked += checks
        if hit is not None:
            code, slot, alt = hit
            grid = sw.grid(xi)
            prob = sw.problem(xi, code)
            return _violated(
                name,
                checked,
                {
                    "problem": describe_problem(prob),
                    "agent": sw.agents[slot],
                    "misreport": format_pref(sw.prefs[alt]),
                    "truthful_bundle": format_bundle(grid[code][slot]),
                    "misreport_bundle": format_bundle(grid[sw.replace(code, slot, alt)][slot]),
                },
            )
    return _holds(name, checked)


def check_msp_certificate(rule, domain) -> AxiomReport:
    """Sufficient maxmin-strategy-proofness certificate.

    (a) against a unanimous adversary (everyone reports the agent's truth),
    truth weakly dominates every misreport; (b) against every adversary
    profile, truth weakly dominates its unanimous-adversary bundle. Together
    these make the truthful worst case both attained at the unanimous profile
    and maximal, for every utility consistent with the ranking.
    """
    sw = _sweep(rule, domain)
    dom = _relation(sw)
    unanimous = np.arange(sw.P) * sum(sw._pow)  # code of the profile where all report idx

    def bad_of(slot, d, own, other):
        return ~dom[d, own, other]

    checked = 0
    for xi in range(len(sw.xs)):
        targets, counted = _misreport_targets(sw, xi)
        hit, checks = _deviation_scan(sw, xi, unanimous, targets, counted, bad_of)
        checked += checks
        if hit is not None:
            code, slot, alt = hit
            return AxiomReport(
                "MSP-certificate",
                "violated",
                {
                    "clause": "a",
                    "problem": describe_problem(sw.problem(xi, code)),
                    "agent": sw.agents[slot],
                    "misreport": format_pref(sw.prefs[alt]),
                },
                checked,
            )
        # clause (b): adversaries range over everything, truth fixed
        allocs, digits = sw.allocs(xi), sw.digits
        bad = np.zeros(allocs.shape, dtype=bool)
        for slot in range(sw.n):
            d = digits[:, slot]
            base = allocs[unanimous[d], slot]
            bad[:, slot] = ~dom[d, allocs[:, slot], base]
        hit, checks = _first_violation(bad)
        checked += checks
        if hit is not None:
            code, slot = hit
            grid = sw.grid(xi)
            return AxiomReport(
                "MSP-certificate",
                "violated",
                {
                    "clause": "b",
                    "problem": describe_problem(sw.problem(xi, code)),
                    "agent": sw.agents[slot],
                    "unanimous_bundle": format_bundle(grid[int(unanimous[digits[code, slot]])][slot]),
                    "bundle": format_bundle(grid[code][slot]),
                },
                checked,
            )
    return AxiomReport("MSP-certificate", "proved", None, checked)


def check_msp_falsify(rule, domain, schemes: Sequence[WeightScheme]) -> AxiomReport:
    """Sound maxmin falsifier: truth must attain the maxmin utility under every given scheme."""
    sw = _sweep(rule, domain)
    checked = 0
    for xi in range(len(sw.xs)):
        grid = sw.grid(xi)
        adversary_codes: dict[int, list[int]] = {}
        for slot in range(sw.n):
            others = [s for s in range(sw.n) if s != slot]
            codes = [0]
            for s in others:
                codes = [c + i * sw._pow[s] for c in codes for i in range(sw.P)]
            adversary_codes[slot] = codes
        for slot in range(sw.n):
            for truth_idx in range(sw.P):
                pref = sw.prefs[truth_idx]
                for scheme in schemes:
                    checked += 1
                    values = {}
                    for report_idx in range(sw.P):
                        worst = None
                        for adv in adversary_codes[slot]:
                            code = adv + report_idx * sw._pow[slot]
                            u = additive_utility(pref, scheme, grid[code][slot])
                            if worst is None or u < worst:
                                worst = u
                        values[report_idx] = worst
                    if values[truth_idx] < max(values.values()):
                        better = max(values, key=lambda r: values[r])
                        return AxiomReport(
                            "MSP-falsifier",
                            "refuted",
                            {
                                "available": format_bundle(sw.xs[xi]),
                                "agent": sw.agents[slot],
                                "truth": format_pref(pref),
                                "scheme": scheme.name,
                                "better_report": format_pref(sw.prefs[better]),
                                "maxmin": str(max(values.values())),
                                "truthful_min": str(values[truth_idx]),
                            },
                            checked,
                        )
    return AxiomReport(
        "MSP-falsifier", "holds", None, checked, note="no falsification under given schemes"
    )


def check_msp(rule, domain, schemes: Sequence[WeightScheme]) -> AxiomReport:
    """Three-valued maxmin strategy-proofness: certificate proves, falsifier refutes."""
    cert = check_msp_certificate(rule, domain)
    if cert.verdict == "proved":
        return AxiomReport("MSP", "proved", None, cert.checked)
    fals = check_msp_falsify(rule, domain, schemes)
    if fals.verdict == "refuted":
        return AxiomReport("MSP", "refuted", fals.witness, fals.checked)
    return AxiomReport(
        "MSP",
        "undecided",
        cert.witness,
        cert.checked + fals.checked,
        note="certificate failed but no scheme falsified truth-telling",
    )


def check_truthful_best_case(rule, domain, schemes: Sequence[WeightScheme]) -> AxiomReport:
    """Best case over adversaries of truthful play equals the utility of the k best objects."""
    sw = _sweep(rule, domain)
    checked = 0
    for xi, x in enumerate(sw.xs):
        grid = sw.grid(xi)
        for slot in range(sw.n):
            others = [s for s in range(sw.n) if s != slot]
            adv_codes = [0]
            for s in others:
                adv_codes = [c + i * sw._pow[s] for c in adv_codes for i in range(sw.P)]
            for truth_idx in range(sw.P):
                pref = sw.prefs[truth_idx]
                bundles = {grid[adv + truth_idx * sw._pow[slot]][slot] for adv in adv_codes}
                k = bundle_size(next(iter(bundles)))
                if any(bundle_size(b) != k for b in bundles):
                    return _violated(
                        "best-case-top-k",
                        checked,
                        {
                            "available": format_bundle(x),
                            "agent": sw.agents[slot],
                            "note": "bundle size varies with adversaries",
                        },
                    )
                best = top_k(pref, x, min(k, bundle_size(x)))
                for scheme in schemes:
                    checked += 1
                    target = additive_utility(pref, scheme, best)
                    got = max(additive_utility(pref, scheme, b) for b in bundles)
                    if got != target:
                        return _violated(
                            "best-case-top-k",
                            checked,
                            {
                                "available": format_bundle(x),
                                "agent": sw.agents[slot],
                                "truth": format_pref(pref),
                                "scheme": scheme.name,
                                "best_bundle_utility": str(got),
                                "top_k_utility": str(target),
                            },
                        )
    return _holds("best-case-top-k", checked)


# --- truncations / extensions -------------------------------------------------


@lru_cache(maxsize=None)
def _truncation_table(m: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Per preference index: (indexes of its truncations, indexes of its extensions).

    Truncations keep the ranking and move the cutoff up; extensions move it
    down. Tail order is preserved on both sides, matching truncate_at.
    """
    prefs = _cutoff_prefs(m)
    table = []
    for p in prefs:
        truncs = tuple(
            i for i, q in enumerate(prefs) if q.ranking == p.ranking and q.cutoff < p.cutoff
        )
        exts = tuple(
            i for i, q in enumerate(prefs) if q.ranking == p.ranking and q.cutoff > p.cutoff
        )
        table.append((truncs, exts))
    return tuple(table)


@lru_cache(maxsize=None)
def _change_targets(m: int, pick: int) -> tuple[np.ndarray, np.ndarray]:
    """_truncation_table column `pick` as padded (targets, counted) arrays over preference indexes."""
    rows = [row[pick] for row in _truncation_table(m)]
    width = max(1, max(len(r) for r in rows))
    targets = np.array([list(r) + [i] * (width - len(r)) for i, r in enumerate(rows)])
    counted = np.array([[k < len(r) for k in range(width)] for r in rows])
    return targets, counted


def _check_report_change(rule, domain, kind: str) -> AxiomReport:
    """Shared sweep for truncation-proofness (TP) and extension-proofness (EP)."""
    sw = _sweep(rule, domain)
    targets, counted = _change_targets(domain.n_objects, 0 if kind == "TP" else 1)
    dom = _relation(sw)

    def bad_of(slot, d, own, other):
        return ~dom[d, own, other]

    codes = np.arange(sw.P**sw.n)
    checked = 0
    for xi in range(len(sw.xs)):
        hit, checks = _deviation_scan(sw, xi, codes, targets, counted, bad_of)
        checked += checks
        if hit is not None:
            code, slot, alt = hit
            grid = sw.grid(xi)
            return _violated(
                kind,
                checked,
                {
                    "problem": describe_problem(sw.problem(xi, code)),
                    "agent": sw.agents[slot],
                    "report": format_pref(sw.prefs[alt]),
                    "truthful_bundle": format_bundle(grid[code][slot]),
                    "report_bundle": format_bundle(grid[sw.replace(code, slot, alt)][slot]),
                },
            )
    return _holds(kind, checked)


def check_tp(rule, domain) -> AxiomReport:
    """Truncation-proofness: no truncation of the truth ever strictly helps."""
    return _check_report_change(rule, domain, "TP")


def check_ep(rule, domain) -> AxiomReport:
    """Extension-proofness: no extension of the truth ever strictly helps."""
    return _check_report_change(rule, domain, "EP")


def check_ti(rule, domain) -> AxiomReport:
    """Truncation invariance: truncating while keeping one's bundle acceptable changes nothing."""
    sw = _sweep(rule, domain)
    targets, counted = _change_targets(domain.n_objects, 0)
    acceptable = np.array([p.acceptable for p in sw.prefs])

    def admit(own, alt):
        return (own & ~acceptable[alt]) == 0

    def bad_of(slot, d, own, other):
        return other != own

    codes = np.arange(sw.P**sw.n)
    checked = 0
    for xi in range(len(sw.xs)):
        hit, checks = _deviation_scan(sw, xi, codes, targets, counted, bad_of, admit)
        checked += checks
        if hit is not None:
            code, slot, alt = hit
            grid = sw.grid(xi)
            return _violated(
                "TI",
                checked,
                {
                    "problem": describe_problem(sw.problem(xi, code)),
                    "agent": sw.agents[slot],
                    "truncation": format_pref(sw.prefs[alt]),
                    "bundle_before": format_bundle(grid[code][slot]),
                    "bundle_after": format_bundle(grid[sw.replace(code, slot, alt)][slot]),
                },
            )
    return _holds("TI", checked)


# --- quota axioms ---------------------------------------------------------------


def check_wrp_quota(rule, domain, priority: Priority) -> AxiomReport:
    """Quota form of weak priority respect: filled quota excuses a smaller bundle."""
    sw = _sweep(rule, domain)
    quotas = domain.quotas
    pos = {a: priority.index(a) for a in sw.agents}
    checked = 0
    for xi in range(len(sw.xs)):
        for code, alloc in enumerate(sw.grid(xi)):
            checked += 1
            for i in range(sw.n):
                size_i = bundle_size(alloc[i])
                if size_i == quotas[i]:
                    continue
                for j in range(sw.n):
                    if pos[sw.agents[i]] < pos[sw.agents[j]] and size_i < bundle_size(
                        alloc[j]
                    ):
                        prob = sw.problem(xi, code)
                        return _violated(
                            f"WRPq-{list(priority)}",
                            checked,
                            {
                                "problem": describe_problem(prob),
                                "allocation": describe_allocation(prob, alloc),
                                "higher": sw.agents[i],
                                "lower": sw.agents[j],
                            },
                        )
    return _holds(f"WRPq-{list(priority)}", checked)


def check_nw_quota(rule, domain) -> AxiomReport:
    """Quota form of non-wastefulness: assign min(|X|, total quota) objects."""
    sw = _sweep(rule, domain)
    total = sum(sw.domain.quotas)
    checked = 0
    for xi, x in enumerate(sw.xs):
        target = min(bundle_size(x), total)
        for code, alloc in enumerate(sw.grid(xi)):
            checked += 1
            if bundle_size(_union(alloc)) != target:
                prob = sw.problem(xi, code)
                return _violated(
                    "NWq",
                    checked,
                    {
                        "problem": describe_problem(prob),
                        "allocation": describe_allocation(prob, alloc),
                        "assigned": bundle_size(_union(alloc)),
                        "target": target,
                    },
                )
    return _holds("NWq", checked)


# ---------------------------------------------------------------------------
# Variable-population sweep and checkers
# ---------------------------------------------------------------------------


class VariableSweep:
    """Per-(population, available set) allocation grids for a variable-population domain."""

    def __init__(self, rule: Rule, domain: ProblemDomain):
        if domain.variant != "variable":
            raise ValueError("VariableSweep needs a variable domain")
        self.rule = rule
        self.domain = domain
        self.pop_index = {pop: i for i, pop in enumerate(domain.populations)}
        self.x_index = {x: i for i, x in enumerate(domain.available_sets)}
        self._grids: dict[tuple[int, int], list[Allocation]] = {}
        self._pref_lists: dict[Bundle, tuple[Preference, ...]] = {}
        self._pref_index: dict[Bundle, dict] = {}

    def prefs_of(self, x: Bundle) -> tuple[Preference, ...]:
        if x not in self._pref_lists:
            self._pref_lists[x] = (
                self.domain.rankings_of(x) if x else (Preference(()),)
            )
            self._pref_index[x] = {
                p.ranking: i for i, p in enumerate(self._pref_lists[x])
            }
        return self._pref_lists[x]

    def pref_idx(self, x: Bundle, ranking: tuple[int, ...]) -> int:
        self.prefs_of(x)
        return self._pref_index[x][ranking]

    def grid(self, pop: tuple[Agent, ...], x: Bundle) -> list[Allocation]:
        key = (self.pop_index[pop], self.x_index[x])
        if key not in self._grids:
            prefs = self.prefs_of(x)
            self._grids[key] = [
                self.rule.allocate(Problem("variable", pop, x, combo))
                for combo in product(prefs, repeat=len(pop))
            ]
        return self._grids[key]

    def alloc_at(self, pop, x, profile: tuple[Preference, ...]) -> Allocation:
        # product order: the first agent's preference is the most significant digit
        prefs = self.prefs_of(x)
        code = 0
        for p in profile:
            code = code * len(prefs) + self.pref_idx(x, p.ranking)
        return self.grid(pop, x)[code]

    def problems(self, pop, x) -> Iterator[tuple[int, tuple[Preference, ...], Allocation]]:
        prefs = self.prefs_of(x)
        grid = self.grid(pop, x)
        for code, combo in enumerate(product(prefs, repeat=len(pop))):
            yield code, combo, grid[code]


def _vsweep(rule, domain) -> VariableSweep:
    if isinstance(rule, VariableSweep):
        return rule
    return VariableSweep(rule, domain)


def _var_problem(pop, x, profile) -> Problem:
    return Problem("variable", pop, x, profile)


def check_nw_var(rule, domain) -> AxiomReport:
    sw = _vsweep(rule, domain)
    checked = 0
    for pop in domain.populations:
        for x in domain.available_sets:
            for code, profile, alloc in sw.problems(pop, x):
                checked += 1
                if _union(alloc) != x:
                    prob = _var_problem(pop, x, profile)
                    return _violated(
                        "NW",
                        checked,
                        {
                            "problem": describe_problem(prob),
                            "allocation": describe_allocation(prob, alloc),
                        },
                    )
    return _holds("NW", checked)


def check_ef1_var(rule, domain) -> AxiomReport:
    sw = _vsweep(rule, domain)
    checked = 0
    for pop in domain.populations:
        for x in domain.available_sets:
            for code, profile, alloc in sw.problems(pop, x):
                checked += 1
                for j in range(len(pop)):
                    for i in range(len(pop)):
                        if i != j and not _ef1_ok(profile[j], None, alloc[j], alloc[i]):
                            prob = _var_problem(pop, x, profile)
                            return _violated(
                                "EF1",
                                checked,
                                {
                                    "problem": describe_problem(prob),
                                    "allocation": describe_allocation(prob, alloc),
                                    "envious": pop[j],
                                    "envied": pop[i],
                                },
                            )
    return _holds("EF1", checked)


def check_eff_var(rule, domain) -> AxiomReport:
    """Efficiency (NW + RT) on every variable-population problem."""
    sw = _vsweep(rule, domain)
    checked = 0
    for pop in domain.populations:
        for x in domain.available_sets:
            for code, profile, alloc in sw.problems(pop, x):
                checked += 1
                if _union(alloc) != x or _trade_cycle(profile, alloc) is not None:
                    prob = _var_problem(pop, x, profile)
                    return _violated(
                        "EFF",
                        checked,
                        {
                            "problem": describe_problem(prob),
                            "allocation": describe_allocation(prob, alloc),
                        },
                    )
    return _holds("EFF", checked)


def check_rm_var(rule, domain) -> AxiomReport:
    """Resource monotonicity across nested available sets, preferences restricted."""
    sw = _vsweep(rule, domain)
    checked = 0
    for pop in domain.populations:
        for big in domain.available_sets:
            if not big:
                continue
            for code, profile, alloc in sw.problems(pop, big):
                for small in subsets_of(big):
                    if small == big:
                        continue
                    checked += 1
                    reduced = tuple(
                        Preference(tuple(o for o in p.ranking if small >> o & 1))
                        for p in profile
                    )
                    small_alloc = sw.alloc_at(pop, small, reduced)
                    for i, p in enumerate(profile):
                        if not weakly_dominates(p, alloc[i], small_alloc[i]):
                            prob = _var_problem(pop, big, profile)
                            return _violated(
                                "RM+",
                                checked,
                                {
                                    "problem": describe_problem(prob),
                                    "smaller_set": format_bundle(small),
                                    "agent": pop[i],
                                    "bundle_large": format_bundle(alloc[i]),
                                    "bundle_small": format_bundle(small_alloc[i]),
                                },
                            )
    return _holds("RM+", checked)


def _check_con_like(rule, domain, pair_only: bool) -> AxiomReport:
    """Removing a subgroup with its bundles leaves the rest unchanged (2-CON: remainder of 2)."""
    sw = _vsweep(rule, domain)
    name = "2-CON" if pair_only else "CON"
    checked = 0
    for pop in domain.populations:
        if len(pop) < 2:
            continue
        for x in domain.available_sets:
            for code, profile, alloc in sw.problems(pop, x):
                for drop_size in range(1, len(pop)):
                    if pair_only and len(pop) - drop_size != 2:
                        continue
                    for dropped in combinations(range(len(pop)), drop_size):
                        checked += 1
                        keep = [i for i in range(len(pop)) if i not in dropped]
                        removed = 0
                        for i in dropped:
                            removed |= alloc[i]
                        new_x = x & ~removed
                        new_pop = tuple(pop[i] for i in keep)
                        new_profile = tuple(
                            Preference(
                                tuple(o for o in profile[i].ranking if new_x >> o & 1)
                            )
                            for i in keep
                        )
                        reduced_alloc = sw.alloc_at(new_pop, new_x, new_profile)
                        expected = tuple(alloc[i] for i in keep)
                        if reduced_alloc != expected:
                            prob = _var_problem(pop, x, profile)
                            red = _var_problem(new_pop, new_x, new_profile)
                            return _violated(
                                name,
                                checked,
                                {
                                    "problem": describe_problem(prob),
                                    "allocation": describe_allocation(prob, alloc),
                                    "departing": [pop[i] for i in dropped],
                                    "reduced_problem": describe_problem(red),
                                    "reduced_allocation": describe_allocation(
                                        red, reduced_alloc
                                    ),
                                },
                            )
    return _holds(name, checked)


def check_con(rule, domain) -> AxiomReport:
    return _check_con_like(rule, domain, pair_only=False)


def check_2con(rule, domain) -> AxiomReport:
    return _check_con_like(rule, domain, pair_only=True)


def check_tcon(rule, domain) -> AxiomReport:
    """Removing every agent's best assigned object leaves the rest of each bundle unchanged."""
    sw = _vsweep(rule, domain)
    checked = 0
    for pop in domain.populations:
        for x in domain.available_sets:
            if not x:
                continue
            for code, profile, alloc in sw.problems(pop, x):
                checked += 1
                tops = 0
                for p, b in zip(profile, alloc):
                    if b:
                        tops |= 1 << top(p, b)
                new_x = x & ~tops
                new_profile = tuple(
                    Preference(tuple(o for o in p.ranking if new_x >> o & 1))
                    for p in profile
                )
                reduced = sw.alloc_at(pop, new_x, new_profile)
                expected = tuple(b & ~tops for b in alloc)
                if reduced != expected:
                    prob = _var_problem(pop, x, profile)
                    return _violated(
                        "T-CON",
                        checked,
                        {
                            "problem": describe_problem(prob),
                            "allocation": describe_allocation(prob, alloc),
                            "removed_tops": format_bundle(tops),
                            "reduced_allocation": describe_allocation(
                                _var_problem(pop, new_x, new_profile), reduced
                            ),
                            "expected": describe_allocation(
                                _var_problem(pop, new_x, new_profile), expected
                            ),
                        },
                    )
    return _holds("T-CON", checked)


NEU_SIZE_CAP = 4  # factorial growth: |X|! bijections per target set


def _check_neu_like(rule, domain, pair_only: bool) -> AxiomReport:
    sw = _vsweep(rule, domain)
    name = "2-NEU" if pair_only else "NEU"
    checked = 0
    capped = False
    by_size: dict[int, list[Bundle]] = {}
    for x in domain.available_sets:
        by_size.setdefault(bundle_size(x), []).append(x)
    for pop in domain.populations:
        if pair_only and len(pop) != 2:
            continue
        for x in domain.available_sets:
            k = bundle_size(x)
            if k > NEU_SIZE_CAP:
                capped = True
                continue
            src = objects_of(x)
            for code, profile, alloc in sw.problems(pop, x):
                for target in by_size.get(k, []):
                    for image in permutations(objects_of(target)):
                        sigma = dict(zip(src, image))
                        if x == target and all(a == b for a, b in sigma.items()):
                            continue
                        checked += 1
                        new_profile = tuple(
                            Preference(tuple(sigma[o] for o in p.ranking))
                            for p in profile
                        )
                        mapped = tuple(
                            bundle_of(sigma[o] for o in objects_of(b)) for b in alloc
                        )
                        relabeled = sw.alloc_at(pop, target, new_profile)
                        if relabeled != mapped:
                            prob = _var_problem(pop, x, profile)
                            tgt = _var_problem(pop, target, new_profile)
                            return _violated(
                                name,
                                checked,
                                {
                                    "problem": describe_problem(prob),
                                    "allocation": describe_allocation(prob, alloc),
                                    "relabeling": {
                                        OBJECT_NAMES[a]: OBJECT_NAMES[b]
                                        for a, b in sigma.items()
                                    },
                                    "relabeled_problem": describe_problem(tgt),
                                    "relabeled_allocation": describe_allocation(
                                        tgt, relabeled
                                    ),
                                },
                            )
    note = f"relabelings capped at |X| <= {NEU_SIZE_CAP}" if capped else ""
    return _holds(name, checked, note)


def check_neu(rule, domain) -> AxiomReport:
    return _check_neu_like(rule, domain, pair_only=False)


def check_2neu(rule, domain) -> AxiomReport:
    return _check_neu_like(rule, domain, pair_only=True)


# ---------------------------------------------------------------------------
# Critical agent
# ---------------------------------------------------------------------------


def critical_agent(agents: Sequence[Agent], alloc: Allocation, priority: Priority) -> Agent | None:
    """The pivot agent: equal bundle sizes at or above her, exactly one fewer below.

    All-equal sizes make the last agent in priority order the pivot (the
    smaller block is empty). Returns None when no such pivot exists.
    """
    order = sorted(range(len(agents)), key=lambda i: priority.index(agents[i]))
    sizes = [bundle_size(alloc[i]) for i in order]
    for cut in range(len(sizes) - 1, -1, -1):
        head, tail = sizes[: cut + 1], sizes[cut + 1 :]
        k = sizes[cut]
        if all(s == k for s in head) and all(s == k - 1 for s in tail):
            return agents[order[cut]]
    return None


AXIOM_CHECKERS: dict[str, Callable] = {
    "EF": check_ef,
    "EF1": check_ef1,
    "NW": check_nw,
    "RT": check_rt,
    "EFF": check_eff,
    "RM": check_rm,
    "SP": check_sp,
    "WSP": check_wsp,
    "IR": check_ir,
    "NW*": check_nw_star,
    "TP": check_tp,
    "EP": check_ep,
    "TI": check_ti,
    "NWq": check_nw_quota,
}

PRIORITY_AXIOM_CHECKERS: dict[str, Callable] = {
    "RP": check_rp,
    "WRP": check_wrp,
    "WRP*": check_wrp_star,
    "WRPq": check_wrp_quota,
}

VARIABLE_AXIOM_CHECKERS: dict[str, Callable] = {
    "NW": check_nw_var,
    "EF1": check_ef1_var,
    "EFF": check_eff_var,
    "RM+": check_rm_var,
    "CON": check_con,
    "2-CON": check_2con,
    "T-CON": check_tcon,
    "NEU": check_neu,
    "2-NEU": check_2neu,
}
