"""Allocation engines: drafts in all four variants, reference rules, and rule combinators.

A picking rule is defined once, as a turn plan: ``plan(variant, agents,
available, quotas) -> (turns, limits, passes)`` gives the slot that picks at
each turn, an optional per-turn quota past which that slot passes, and whether
a turn may pass at all; the plan also raises for a problem the rule is not
defined on. Two interpreters run every plan. `_pick_one` runs one problem, at
any number of objects, and returns ``(allocation, trace)``; `_pick_rows` runs
a block of profiles at once: rows of per-slot preference indexes over one
population and one available set, as the uint8 ``(rows, agents)`` array the
axiom sweeps and the manipulation search read, through `pick_table`. Every
draft (fixed, quota, unacceptable, variable, snake, any picking sequence) and
the population-RM and pairwise-consistency counterexamples are plans.

A trace is a tuple of ``(step, agent, object-or-None)`` entries, 1-based
steps; ``None`` records that the agent passed (was handed the null
selection). Passed steps never reach the returned bundles. Replaying a trace
greedily reproduces the allocation; the theorem verifier consumes selection
orders, so traces are first class, and they come only from `Rule.run`.

Every rule is its array engine, `Rule.fill`. A piecewise rule fills through its
default rule's engine and overwrites the rows an override's `Case` takes; a
tabulated rule is a sequence of allocations indexed by the key codes of an
`axioms.ProblemKeys` index, the one name of a key, and looks each distinct code
of a block up once; the IR and neutrality counterexamples run over the whole
block. Serial dictatorship, π-dictatorship and null fill rows of the narrowest
unsigned type that holds the available set, so one row of their engine serves
`Rule.run` at any number of objects. Only the plan rules carry a scalar runner:
`_pick_one`, the one tracer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import Callable, Sequence

import numpy as np

from .core import (
    INFINITE,
    Agent,
    Allocation,
    Bundle,
    PickingSequence,
    Preference,
    Priority,
    Problem,
    bundle_size,
    complete_extension,
    top,
)

Trace = tuple[tuple[int, Agent, int | None], ...]
# An array engine: fill(variant, agents, available, prefs, quotas, digits) -> (rows, n), uint8
# through 8 objects. The first five describe the block, as the fields of its problems do;
# digits[r, slot] indexes prefs at row r. Row r of the result is the allocation at that profile.
Fill = Callable[..., np.ndarray]
# A turn plan: plan(variant, agents, available, quotas) -> (turns, limits, passes).
Plan = Callable[..., tuple[tuple[int, ...], tuple[int | float, ...] | None, bool]]


# ---------------------------------------------------------------------------
# Interpreters: `_pick_rows` runs turns on a block, `_pick_one` on one problem
# ---------------------------------------------------------------------------


_RECENT_SPACES = 64  # preference spaces whose tables each cache keeps
_TABLE_ROWS = 1 << 12  # preferences per step of a table build
_PLANS = 256  # turn plans each picking rule keeps


def _per_space(build: Callable[[tuple[Preference, ...]], np.ndarray]):
    """Cache `build(prefs)` once per preference space, for lookups whose cost does not
    grow with len(prefs).

    A lookup goes by the tuple's identity, among the most recently seen tuples
    (each held, so its id stays its own); any other tuple is hashed by its
    contents once, so equal spaces share one table. Both caches keep the
    `_RECENT_SPACES` latest spaces, so a long-running process that meets ever
    new spaces holds at most twice that many tables.
    """
    by_contents = lru_cache(maxsize=_RECENT_SPACES)(build)
    by_id: dict[int, tuple[tuple[Preference, ...], np.ndarray]] = {}

    @wraps(build)
    def table(prefs: tuple[Preference, ...]) -> np.ndarray:
        hit = by_id.get(id(prefs))
        if hit is None:
            if len(by_id) >= _RECENT_SPACES:
                del by_id[next(iter(by_id))]
            hit = by_id[id(prefs)] = (prefs, by_contents(prefs))
        return hit[1]

    return table


@_per_space
def pick_table(prefs: tuple[Preference, ...]) -> np.ndarray:
    """TOP[pref, s]: the bit of prefs[pref]'s best acceptable object in bundle s, or 0 (a pass)
    when s holds none; uint8 (len(prefs), 2^w), w the highest ranked object + 1 (at most 8)."""
    width = max(p.ranked_mask for p in prefs).bit_length()
    if width > 8:
        raise ValueError(f"pick tables hold bundles of at most 8 objects, not {width}")
    longest = max(len(p.ranking) for p in prefs)  # a shorter ranking pads past its cutoff
    padded = [p.ranking + (0,) * (longest - len(p.ranking)) for p in prefs]
    rankings = np.array(padded, dtype=np.uint8).reshape(len(prefs), -1)
    cutoffs = np.array([len(p.ranking) if p.cutoff is None else p.cutoff for p in prefs])
    subsets = np.arange(1 << width, dtype=np.uint8)
    table = np.zeros((len(prefs), 1 << width), dtype=np.uint8)
    for lo in range(0, len(prefs), _TABLE_ROWS):  # row blocks bound the temporaries
        rows = slice(lo, lo + _TABLE_ROWS)
        for pos in range(rankings.shape[1] - 1, -1, -1):  # better positions overwrite worse
            obj = rankings[rows, pos, None]
            hit = subsets >> obj & 1 == 1
            hit &= (pos < cutoffs[rows])[:, None]
            np.copyto(table[rows], np.left_shift(1, obj, dtype=np.uint8), where=hit)
    table.flags.writeable = False
    return table


@_per_space
def _acceptable_table(prefs: tuple[Preference, ...]) -> np.ndarray:
    """Per preference index, the mask of its acceptable objects, in the narrowest unsigned
    type that holds them all."""
    masks = [p.acceptable for p in prefs]
    table = np.array(masks, dtype=np.min_scalar_type(max(masks, default=0)))
    table.flags.writeable = False
    return table


def _pick_rows(prefs, digits: np.ndarray, x: Bundle, turns, limits=None, passes=True):
    """Every row of a block run through the same turns at once.

    At turn k the agent in slot turns[k] takes her best acceptable remaining
    object, one gather `TOP[digits[:, slot], remaining]` over all rows; a slot
    that holds limits[k] objects already passes. Without `passes` a turn that
    finds nothing raises, as `_pick_one` does.

    Like `_pick_one`, a block whose turns may pass stops once n consecutive
    turns pick in no row, and never gathers a turn past the first n·|X|: a row
    still running at turn k picked in each of the k // n windows of n turns
    before it, so from turn n·|X| on it has nothing left to pick.
    """
    table = pick_table(tuple(prefs))
    flat, width = table.reshape(-1), table.shape[1]
    base = {slot: digits[:, slot] * width for slot in set(turns)}
    cols = [np.zeros(len(digits), dtype=np.uint8) for _ in range(digits.shape[1])]
    remaining = np.full(len(digits), x, dtype=np.uint8)
    if passes:
        turns = turns[: len(cols) * bundle_size(x)]
    idle = 0
    for k, slot in enumerate(turns):
        bit = flat[base[slot] + remaining]
        if limits is not None and limits[k] != INFINITE:
            bit[np.bitwise_count(cols[slot]) >= limits[k]] = 0
        picks = np.count_nonzero(bit)  # a C call, where any() and all() add a Python wrapper
        if passes:
            idle = 0 if picks else idle + 1
            if idle == len(cols):
                break
        elif picks < len(bit):
            raise RuntimeError("sequential pick found no object")
        cols[slot] |= bit
        remaining ^= bit
    return np.stack(cols, axis=1)


def _pick_one(problem: Problem, turns, limits=None, passes=True) -> tuple[Allocation, Trace]:
    """One problem run through the turns, at any number of objects, with its trace.

    The same turns as `_pick_rows`, on Python ints. With `passes`, the draft ends
    at n consecutive passes, and `_pick_rows` at n consecutive turns that pick in no
    row: in every plan a pass is final (a slot's limit is the same at each of its turns, a filled quota
    stays filled and the remaining objects only shrink), so no later turn could pick.
    """
    agents, profile = problem.agents, problem.profile
    bundles = [0] * len(agents)
    remaining = problem.available
    trace = []
    passed = 0
    for k, slot in enumerate(turns):
        if limits is not None and bundles[slot].bit_count() >= limits[k]:
            picked = None
        else:
            picked = top(profile[slot], remaining)
        if picked is not None:
            passed = 0
            bundles[slot] |= 1 << picked
            remaining ^= 1 << picked
        elif not passes:
            raise RuntimeError("sequential pick found no object")
        else:
            passed += 1
        trace.append((k + 1, agents[slot], picked))
        if passed == len(agents):
            break
    return tuple(bundles), tuple(trace)


# ---------------------------------------------------------------------------
# Picking rules: each is one turn plan
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _population_order(agents: tuple[Agent, ...], priority: Priority) -> tuple[Agent, ...]:
    """The priority restricted to the agents present; it must name each of them, once.
    Cached, since the plans ask at every problem."""
    repeated = sorted({a for a in priority if priority.count(a) > 1})
    if repeated:
        raise ValueError(f"priority repeats agents {repeated}")
    order = tuple(a for a in priority if a in agents)
    missing = [a for a in agents if a not in order]
    if missing:
        raise ValueError(f"priority does not cover agents {missing}")
    return order


@lru_cache(maxsize=None)
def _agent_order(agents: tuple[Agent, ...], priority: Priority) -> tuple[Agent, ...]:
    """The priority as an order of exactly these agents, as the fixed-population drafts need."""
    absent = [a for a in priority if a not in agents]
    if absent:
        raise ValueError(f"priority names absent agents {absent}")
    return _population_order(agents, priority)


def _slots(agents: tuple[Agent, ...], order) -> tuple[int, ...]:
    """Slot of each agent of `order` (ValueError for an absent agent, as `Problem.pref_of`)."""
    return tuple(agents.index(agent) for agent in order)


def _cycle(slots: tuple[int, ...], steps: int) -> tuple[int, ...]:
    """The first `steps` turns of the slots repeated."""
    return tuple(slots[k % len(slots)] for k in range(steps))


def _plan_rule(name: str, plan: Plan) -> Rule:
    """The rule a turn plan defines: `_pick_one` runs it on one problem, `_pick_rows` on a
    block. A plan depends only on the block's description, so each is built once."""
    plan = lru_cache(maxsize=_PLANS)(plan)

    def runner(problem: Problem) -> tuple[Allocation, Trace]:
        turns = plan(problem.variant, problem.agents, problem.available, problem.quotas)
        return _pick_one(problem, *turns)

    def fill(variant, agents, x, prefs, quotas, digits):
        return _pick_rows(prefs, digits, x, *plan(variant, agents, x, quotas))

    return Rule(name, fill, runner)


def _omega_plan(priority: Priority, quota_limited: bool) -> Plan:
    """Round robin in priority order where a turn may pass. Each round before the draft
    ends makes a pick, so |X| + 1 rounds reach the n consecutive passes that end it."""

    def plan(variant, agents, x, quotas):
        if quota_limited and quotas is None:
            raise ValueError("quota draft needs quotas")
        turns = _slots(agents, _agent_order(agents, priority)) * (bundle_size(x) + 1)
        limits = tuple(quotas[slot] for slot in turns) if quota_limited else None
        return turns, limits, True

    return plan


def _order_plan(priority: Priority, turns_of) -> Plan:
    """A draft whose |X| turns are turns_of(slots, |X|), the slots of the priority restricted
    to the agents present; a turn never passes."""

    def plan(variant, agents, x, quotas):
        slots = _slots(agents, _population_order(agents, priority))
        return turns_of(slots, bundle_size(x)), None, False

    return plan


def _serial_dictatorship_fill(priority: Priority) -> Fill:
    """Each agent, in priority order, takes every remaining object she finds acceptable."""

    def fill(variant, agents, x, prefs, quotas, digits):
        acceptable = _acceptable_table(tuple(prefs))
        out = np.zeros(digits.shape, dtype=np.min_scalar_type(x))
        remaining = np.full(len(digits), x, dtype=out.dtype)
        for agent in _population_order(agents, priority):
            slot = agents.index(agent)
            take = out[:, slot]  # a subset of remaining, so it fits out's type
            np.bitwise_and(remaining, acceptable[digits[:, slot]], out=take, casting="unsafe")
            remaining ^= take
        return out

    return fill


def _dictatorship_fill(priority: Priority) -> Fill:
    """The highest-priority agent present takes the whole available set."""

    def fill(variant, agents, x, prefs, quotas, digits):
        out = np.zeros(digits.shape, dtype=np.min_scalar_type(x))
        out[:, agents.index(_population_order(agents, priority)[0])] = x
        return out

    return fill


def _null_fill(variant, agents, x, prefs, quotas, digits):
    return np.zeros(digits.shape, dtype=np.min_scalar_type(x))


@dataclass(frozen=True)
class Rule:
    """The unit the axiom checkers and the rule-space search quantify over.

    ``fill`` is the rule's array engine (see `Fill`) and its one definition.
    ``restriction_invariant`` declares that the outcome depends on preferences
    only through their restriction to the available set; checkers may exploit
    it, so combinators must not claim it.

    ``run`` and ``allocate`` solve one problem through the scalar ``runner`` when
    the rule has one, else through one row of the engine, untraced. A picking rule
    is one turn plan, and `_plan_rule` makes both from it: ``runner`` is
    `_pick_one`, the only tracer, and ``fill`` is `_pick_rows`; no other rule has
    a runner. An engine whose rows widen with the available set (serial
    dictatorship, π-dictatorship, null) serves any number of objects; the others
    stop at 8.
    """

    name: str
    fill: Fill
    runner: Callable[[Problem], tuple[Allocation, Trace | None]] | None = None
    restriction_invariant: bool = True

    def run(self, problem: Problem) -> tuple[Allocation, Trace | None]:
        if self.runner is not None:
            return self.runner(problem)
        prefs = tuple(dict.fromkeys(problem.profile))
        digits = np.array([[prefs.index(p) for p in problem.profile]], dtype=np.intp)
        row = self.fill(
            problem.variant, problem.agents, problem.available, prefs, problem.quotas, digits
        )
        return tuple(row[0].tolist()), None

    def allocate(self, problem: Problem) -> Allocation:
        return self.run(problem)[0]


def draft_rule(priority: Priority) -> Rule:
    """Draft of fixed-population problems: round robin in priority order, each turn taking
    the agent's best remaining object."""

    def plan(variant, agents, x, quotas):
        slots = _slots(agents, _agent_order(agents, priority))
        if variant != "fixed":
            raise ValueError("draft runs on fixed-variant problems")
        return _cycle(slots, bundle_size(x)), None, False

    return _plan_rule(f"draft{list(priority)}", plan)


def sequence_draft_rule(sequence: PickingSequence, name: str = "draft-seq") -> Rule:
    """Draft of fixed-population problems whose agent at step k is sequence.at(k)."""

    def plan(variant, agents, x, quotas):
        if variant != "fixed":
            raise ValueError("draft runs on fixed-variant problems")
        return _slots(agents, map(sequence.at, range(bundle_size(x)))), None, False

    return _plan_rule(name, plan)


def quota_draft_rule(priority: Priority) -> Rule:
    """Draft where an agent whose quota is filled passes; it ends after n consecutive passes."""
    return _plan_rule(f"draft-quota{list(priority)}", _omega_plan(priority, quota_limited=True))


def unacceptable_draft_rule(priority: Priority) -> Rule:
    """Draft that never assigns an unacceptable object: an agent with none left passes."""
    return _plan_rule(f"u-draft{list(priority)}", _omega_plan(priority, quota_limited=False))


def variable_draft_rule(priority: Priority) -> Rule:
    """Draft for variable populations: round robin over the priority restricted to the
    agents present."""
    return _plan_rule(f"draft-variable{list(priority)}", _order_plan(priority, _cycle))


def snake_draft_rule(priority: Priority) -> Rule:
    """Priority order in odd rounds, reversed order in even rounds."""
    snake = _order_plan(priority, lambda slots, steps: _cycle(slots + slots[::-1], steps))
    return _plan_rule(f"snake{list(priority)}", snake)


def serial_dictatorship_rule(priority: Priority) -> Rule:
    return Rule(f"serial-dictatorship{list(priority)}", _serial_dictatorship_fill(priority))


def dictatorship_rule(priority: Priority) -> Rule:
    return Rule(f"pi-dictatorship{list(priority)}", _dictatorship_fill(priority))


def null_rule() -> Rule:
    return Rule("null", _null_fill)


def tabulated_rule(name: str, index, table: Sequence[Allocation]) -> Rule:
    """The rule that allocates table[k] at every problem of key k of `index`, an
    `axioms.ProblemKeys`; KeyError at a problem outside the index's domain."""

    def fill(variant, agents, x, prefs, quotas, digits):
        try:
            b, full = index.locate(variant, agents, x, quotas, prefs)
        except KeyError:
            raise KeyError(f"rule {name!r} is not defined at this problem") from None
        keys, inverse = np.unique(index.find(b, full[digits]), return_inverse=True)
        rows = np.array([table[k] for k in keys.tolist()], dtype=np.uint8)
        return rows.reshape(len(keys), len(agents))[inverse]

    return Rule(name, fill)


@dataclass(frozen=True)
class Case:
    """Where a piecewise rule's override applies: an optional test on the available set
    and an optional test on each slot's preference, all of which must pass.

    A problem with fewer agents than `slots` never matches; slots past them are free.
    """

    available: Callable[[Bundle], bool] | None = None
    slots: tuple[Callable[[Preference], bool] | None, ...] = ()

    def rows(self, x: Bundle, prefs, digits: np.ndarray) -> np.ndarray:
        """Whether the case holds at each row of `digits` over x, as a bool array: each
        slot test runs once per preference and is gathered by the slot's digits."""
        if (self.available is not None and not self.available(x)) or (
            digits.shape[1] < len(self.slots)
        ):
            return np.zeros(len(digits), dtype=bool)
        hit = np.ones(len(digits), dtype=bool)
        for slot, test in enumerate(self.slots):
            if test is not None:
                hit &= np.fromiter(map(test, prefs), bool, len(prefs))[digits[:, slot]]
        return hit


@dataclass(frozen=True)
class Piecewise:
    """A default rule with (Case, rule) overrides: the first matching case's rule decides."""

    default: Rule
    overrides: tuple[tuple[Case, Rule], ...]

    def fill(self, variant, agents, x, prefs, quotas, digits):
        """Each override fills the rows its case takes first; the default fills the rest."""
        parts, taken = [], np.zeros(len(digits), dtype=bool)
        for case, rule in self.overrides:
            hit = case.rows(x, prefs, digits) & ~taken
            if hit.any():
                parts.append((hit, rule))
                taken |= hit
        if not parts:
            return self.default.fill(variant, agents, x, prefs, quotas, digits)
        out = np.empty((len(digits), len(agents)), dtype=np.uint8)
        for hit, rule in parts + [(~taken, self.default)]:
            if hit.any():
                out[hit] = rule.fill(variant, agents, x, prefs, quotas, digits[hit])
        return out


def piecewise_rule(default: Rule, overrides, name: str = "piecewise") -> Rule:
    """First matching (Case, rule) override wins, else the default rule."""
    piecewise = Piecewise(default, tuple(overrides))
    return Rule(name, piecewise.fill, restriction_invariant=False)


# ---------------------------------------------------------------------------
# Reference rules used in the independence arguments.
# ---------------------------------------------------------------------------


def _ascending_ranking(head: Sequence[int], n_objects: int) -> tuple[int, ...]:
    rest = tuple(o for o in range(n_objects) if o not in head)
    return tuple(head) + rest


def _profile_case(profile: tuple[Preference, ...], available=None) -> Case:
    """The case of exactly this profile, at the available sets that pass `available`."""
    return Case(available, tuple((lambda q, p=p: q == p) for p in profile))


def wrp_counterexample(n_agents: int, n_objects: int) -> Rule:
    """Draft under one priority at a single unanimous profile, another priority elsewhere.

    Keeps efficiency, EF1, and resource monotonicity but no single priority is
    respected at every problem.
    """
    agents = tuple(range(1, n_agents + 1))
    unanimous = tuple(Preference(tuple(range(n_objects))) for _ in agents)
    pi1, pi2 = agents, agents[::-1]
    return piecewise_rule(
        draft_rule(pi2),
        [(_profile_case(unanimous), draft_rule(pi1))],
        name="wrp-counterexample",
    )


def rm_counterexample(n_agents: int, n_objects: int | None = None) -> Rule:
    """Identity-priority draft, except one pinned problem where agent 1 picks twice first.

    The pinned outcome comes from the picking sequence (1, 1, 2, ..., n) on the
    first n+1 objects; enlarging the set past the pinned problem then hurts
    agent 2, breaking resource monotonicity and nothing else.
    """
    if n_objects is None:
        n_objects = n_agents + 1
    if n_objects < n_agents + 1:
        raise ValueError("needs at least n+1 objects")
    agents = tuple(range(1, n_agents + 1))
    special_x = (1 << (n_agents + 1)) - 1  # objects 0..n
    prof = [Preference(_ascending_ranking(range(n_agents + 1), n_objects))]
    for _ in agents[1:]:
        prof.append(Preference(_ascending_ranking(list(range(1, n_agents + 1)) + [0], n_objects)))
    special_profile = tuple(prof)
    seq = PickingSequence(prefix=(1,), cycle=agents)  # picks run 1, 1, 2, ..., n
    special = _profile_case(special_profile, lambda x: x == special_x)
    return piecewise_rule(
        draft_rule(agents),
        [(special, sequence_draft_rule(seq))],
        name="rm-counterexample",
    )


def ir_counterexample(priority: Priority) -> Rule:
    """Runs the draft on the complete extensions, so unacceptable objects get assigned."""
    u_draft = unacceptable_draft_rule(priority)

    def fill(variant, agents, x, prefs, quotas, digits):
        extended = tuple(map(complete_extension, prefs))
        Problem(variant, agents, x, (extended[0],) * len(agents))  # refuses a quota block
        return u_draft.fill(variant, agents, x, extended, quotas, digits)

    return Rule("ir-counterexample", fill)


def wrp_star_counterexample(n_agents: int, special_object: int = 0) -> Rule:
    """Priority flips with whether agent 1 top-ranks one distinguished object."""
    agents = tuple(range(1, n_agents + 1))
    pi1, pi2 = agents, agents[::-1]

    agent1_tops_special = Case(slots=(lambda q: q.ranking[0] == special_object,))
    return piecewise_rule(
        unacceptable_draft_rule(pi2),
        [(agent1_tops_special, unacceptable_draft_rule(pi1))],
        name="wrp*-counterexample",
    )


def rm_star_counterexample(n_agents: int, n_objects: int | None = None) -> Rule:
    """Pins object 0 onto agent 1 ahead of the draft on one family of profiles.

    Active when the available set is exactly the first n+1 objects, every
    agent's preference truncates or extends the reference profile, and agent 1
    finds object 0 acceptable; breaks resource monotonicity only.
    """
    if n_objects is None:
        n_objects = n_agents + 1
    if n_objects < n_agents + 1:
        raise ValueError("needs at least n+1 objects")
    agents = tuple(range(1, n_agents + 1))
    special_x = (1 << (n_agents + 1)) - 1
    # reference rankings; the reference profile accepts exactly the pinned set's objects
    first = _ascending_ranking(range(n_agents + 1), n_objects)
    rest = _ascending_ranking(list(range(1, n_agents + 1)) + [0], n_objects)
    # truncations/extensions of the reference profile, read tail-order-preserving:
    # same ranking, any cutoff (the wider prefix-only class breaks truncation invariance),
    # with object 0 acceptable to agent 1
    is_special = Case(
        lambda x: x == special_x,
        (lambda q: q.ranking == first and bool(q.acceptable & 1),)
        + (lambda q: q.ranking == rest,) * (n_agents - 1),
    )

    u_draft = unacceptable_draft_rule(agents)

    def special(variant, agents, x, prefs, quotas, digits):
        out = u_draft.fill(variant, agents, x & ~1, prefs, quotas, digits)
        out[:, 0] |= 1
        return out

    return piecewise_rule(
        u_draft,
        [(is_special, Rule("rm*-special", special))],
        name="rm*-counterexample",
    )


def ti_counterexample(n_agents: int, n_objects: int) -> Rule:
    """Hands everything to agent 1 at one pinned profile on problems inside {0,1}.

    Agent 2 can reach that pinned profile by truncating, changing her bundle,
    which breaks truncation invariance; everything else stays intact.
    """
    if n_objects < 2:
        raise ValueError("needs objects 0 and 1")
    agents = tuple(range(1, n_agents + 1))
    # agent 1: object 1 best, object 0 worst, everything acceptable;
    # agent 2: only object 0 acceptable; further agents accept nothing
    prof = [Preference(tuple([1] + list(range(2, n_objects)) + [0]), n_objects)]
    prof.append(Preference(tuple(range(n_objects)), 1))
    for _ in agents[2:]:
        prof.append(Preference(tuple(range(n_objects)), 0))
    is_special = _profile_case(tuple(prof), lambda x: x | 0b11 == 0b11)

    def special(variant, agents, x, prefs, quotas, digits):
        out = np.zeros(digits.shape, dtype=np.uint8)
        out[:, 0] = x
        return out

    return piecewise_rule(
        unacceptable_draft_rule(agents),
        [(is_special, Rule("ti-special", special))],
        name="ti-counterexample",
    )


def population_rm_counterexample(priority: Priority) -> Rule:
    """Starts partial rounds with the tail of the priority order instead of its head.

    On problems where the objects do not fill whole rounds, the first picks go
    to the lowest-priority agents; growing the object set can then demote an
    agent's haul, breaking resource monotonicity across object sets only.
    """

    def tail_first(slots, steps):
        c = steps % len(slots)
        return slots[len(slots) - c :] + _cycle(slots, steps - c)

    return _plan_rule("population-rm-counterexample", _order_plan(priority, tail_first))


def pairwise_consistency_counterexample(priority: Priority) -> Rule:
    """Uses the priority for two-agent problems and its reversal otherwise."""
    pairs, others = _order_plan(priority, _cycle), _order_plan(priority[::-1], _cycle)

    def plan(variant, agents, x, quotas):
        return (pairs if len(agents) == 2 else others)(variant, agents, x, quotas)

    return _plan_rule("2con-counterexample", plan)


def neutrality_counterexample(
    priority: Priority, special_object: int, special_priority: Priority | None = None
) -> Rule:
    """Draft whose contests over one distinguished object resolve under a different priority.

    Turns run in base-priority order; the turn owner's top object goes to the
    best contender under that object's own priority. With every per-object
    priority equal this is exactly the draft; flipping the order below the top
    agent for a single object breaks neutrality and nothing else. The
    distinguished priority must keep the same top agent, or resource
    monotonicity fails when that object diverts the top agent's claim.
    """
    if special_priority is None:
        special_priority = (priority[0],) + tuple(reversed(priority[1:]))
    if special_priority[0] != priority[0]:
        raise ValueError("the distinguished priority must keep the same top agent")

    def fill(variant, agents, x, prefs, quotas, digits):
        """|X| contests over the whole block, each awarding one object."""
        table = pick_table(tuple(prefs))
        flat, width = table.reshape(-1), table.shape[1]
        orders = [
            _slots(agents, _population_order(agents, p)) for p in (priority, special_priority)
        ]
        at = [digits[:, slot] * width for slot in range(len(agents))]
        cols = [np.zeros(len(digits), dtype=np.uint8) for _ in agents]
        active = [np.ones(len(digits), dtype=bool) for _ in agents]
        remaining = np.full(len(digits), x, dtype=np.uint8)
        for _ in range(bundle_size(x)):
            tops = [flat[a + remaining] for a in at]
            head = np.zeros(len(digits), dtype=np.uint8)
            for slot in orders[0][::-1]:  # the turn owner: the first active slot in base order
                head = np.where(active[slot], tops[slot], head)
            special = head == 1 << special_object
            for order, skip in zip(orders, (special, ~special)):  # the head's own order decides
                taken = skip.copy()
                for slot in order:  # its first active contender wins and leaves the round
                    win = active[slot] & (tops[slot] == head) & ~taken
                    taken |= win
                    np.bitwise_or(cols[slot], head, out=cols[slot], where=win)
                    active[slot] &= ~win
            remaining ^= head
            idle = ~np.logical_or.reduce(active)  # every slot has won: a new round starts
            for slot_active in active:
                slot_active |= idle
        return np.stack(cols, axis=1)

    return Rule("2neu-counterexample", fill)
