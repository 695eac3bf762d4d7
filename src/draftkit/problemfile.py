"""Problem documents, CSV preference tables, and machine-readable run reports.

The problem document is line-based and human-writable::

    # lines starting with '#' are comments
    universe: a b c d
    variant: fixed            # fixed | quota | unacceptable | variable
    agents: north south
    priority: north south     # optional
    quota: north=2 south=inf  # quota variant only
    available: a b c d        # optional; defaults to the whole universe
    pref north: a > b > c > d
    pref south: c > d | b > a # '|' separates acceptable from unacceptable

Rankings use '>' between objects and '|' for the acceptability cutoff, the
same syntax the CSV rows use. Unknown fields are rejected with their line
number. Serialization emits fields in one canonical order, so a parse /
serialize round trip is byte-stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .core import INFINITE, Preference, Priority, Problem, bundle_of, objects_of

CANONICAL_FIELDS = ("universe", "variant", "agents", "priority", "quota", "available")


class ProblemFileError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")
        self.line = line


@dataclass(frozen=True)
class ProblemDocument:
    problem: Problem
    object_names: tuple[str, ...]
    agent_names: tuple[str, ...]  # aligned with problem.agents
    priority: Priority | None

    def object_name(self, o: int) -> str:
        return self.object_names[o]

    def agent_name(self, agent: int) -> str:
        return self.agent_names[self.problem.agents.index(agent)]


def _parse_ranking(text: str, names: dict, line: int) -> Preference:
    cutoff = None
    if "|" in text:
        head, _, tail = text.partition("|")
        parts_head = [t.strip() for t in head.split(">") if t.strip()]
        parts_tail = [t.strip() for t in tail.split(">") if t.strip()]
        if text.count("|") > 1:
            raise ProblemFileError("more than one cutoff marker", line)
        cutoff = len(parts_head)
        parts = parts_head + parts_tail
    else:
        parts = [t.strip() for t in text.split(">") if t.strip()]
    seen = set()
    ranking = []
    for token in parts:
        if token not in names:
            raise ProblemFileError(f"unknown object {token!r}", line)
        if token in seen:
            raise ProblemFileError(f"object {token!r} ranked twice", line)
        seen.add(token)
        ranking.append(names[token])
    return Preference(tuple(ranking), cutoff)


def parse_problem(text: str) -> ProblemDocument:
    fields: dict[str, tuple[str, int]] = {}
    prefs: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ProblemFileError(f"expected 'field: value', got {line!r}", lineno)
        key, _, value = line.partition(":")
        key = key.strip()
        if key.startswith("pref "):
            agent = key[5:].strip()
            if agent in prefs:
                raise ProblemFileError(f"duplicate preference for {agent!r}", lineno)
            prefs[agent] = (value.strip(), lineno)
        elif key in CANONICAL_FIELDS:
            if key in fields:
                raise ProblemFileError(f"duplicate field {key!r}", lineno)
            fields[key] = (value.strip(), lineno)
        else:
            raise ProblemFileError(f"unknown field {key!r}", lineno)

    def need(key):
        if key not in fields:
            raise ProblemFileError(f"missing field {key!r}")
        return fields[key][0]

    object_names = tuple(need("universe").split())
    if len(set(object_names)) != len(object_names):
        raise ProblemFileError("universe repeats an object", fields["universe"][1])
    names = {n: i for i, n in enumerate(object_names)}

    variant = fields.get("variant", ("fixed", 0))[0]
    agent_names = tuple(need("agents").split())
    if len(set(agent_names)) != len(agent_names):
        raise ProblemFileError("agents repeat a name", fields["agents"][1])
    agent_ids = tuple(range(1, len(agent_names) + 1))
    agent_of = dict(zip(agent_names, agent_ids))

    if "available" in fields:
        value, line = fields["available"]
        tokens = value.split()
        for t in tokens:
            if t not in names:
                raise ProblemFileError(f"unknown object {t!r}", line)
        available = bundle_of(names[t] for t in tokens)
    else:
        available = (1 << len(object_names)) - 1

    priority = None
    if "priority" in fields:
        value, line = fields["priority"]
        tokens = value.split()
        if sorted(tokens) != sorted(agent_names):
            raise ProblemFileError("priority must list every agent exactly once", line)
        priority = tuple(agent_of[t] for t in tokens)

    quotas = None
    if "quota" in fields:
        value, line = fields["quota"]
        if variant != "quota":
            raise ProblemFileError("quota field on a non-quota problem", line)
        qmap = {}
        for token in value.split():
            name, _, amount = token.partition("=")
            if name not in agent_of:
                raise ProblemFileError(f"unknown agent {name!r} in quota", line)
            if amount == "inf":
                qmap[name] = INFINITE
            else:
                try:
                    qmap[name] = int(amount)
                except ValueError:
                    raise ProblemFileError(f"malformed quota {token!r}", line)
        missing = [n for n in agent_names if n not in qmap]
        if missing:
            raise ProblemFileError(f"missing quotas for {missing}", line)
        quotas = tuple(qmap[n] for n in agent_names)
    elif variant == "quota":
        raise ProblemFileError("quota variant needs a 'quota' field")

    profile = []
    for name in agent_names:
        if name not in prefs:
            raise ProblemFileError(f"missing preference for agent {name!r}")
        value, line = prefs[name]
        pref = _parse_ranking(value, names, line)
        if variant == "variable":
            expected = set(objects_of(available))
        else:
            expected = set(range(len(object_names)))
        got = set(pref.ranking)
        if got != expected:
            missing = sorted(object_names[o] for o in expected - got)
            if missing:
                raise ProblemFileError(
                    f"agent {name!r} does not rank {missing}", line
                )
            extra = sorted(object_names[o] for o in got - expected)
            raise ProblemFileError(f"agent {name!r} ranks unavailable {extra}", line)
        if variant == "unacceptable" and pref.cutoff is None:
            pref = Preference(pref.ranking, len(pref.ranking))
        if variant != "unacceptable" and pref.cutoff is not None:
            raise ProblemFileError(
                f"cutoff marker on a {variant!r} problem (agent {name!r})", line
            )
        profile.append(pref)
    extra = sorted(set(prefs) - set(agent_names))
    if extra:
        raise ProblemFileError(f"preferences for unknown agents {extra}")

    problem = _problem(variant, agent_ids, available, tuple(profile), quotas)
    return ProblemDocument(problem, object_names, agent_names, priority)


def _problem(*fields) -> Problem:
    """The document's `Problem`, with the checks `Problem` makes reported as file errors."""
    try:
        return Problem(*fields)
    except ValueError as exc:
        raise ProblemFileError(str(exc))


def format_ranking(doc: ProblemDocument, pref: Preference) -> str:
    names = [doc.object_names[o] for o in pref.ranking]
    if pref.cutoff is None or pref.cutoff == len(names):
        return " > ".join(names)
    head = " > ".join(names[: pref.cutoff])
    tail = " > ".join(names[pref.cutoff :])
    return f"{head} | {tail}".strip()


def serialize_problem(doc: ProblemDocument) -> str:
    prob = doc.problem
    lines = [
        "universe: " + " ".join(doc.object_names),
        "variant: " + prob.variant,
        "agents: " + " ".join(doc.agent_names),
    ]
    if doc.priority is not None:
        lines.append(
            "priority: " + " ".join(doc.agent_name(a) for a in doc.priority)
        )
    if prob.quotas is not None:
        lines.append(
            "quota: "
            + " ".join(
                f"{n}={'inf' if q == INFINITE else q}"
                for n, q in zip(doc.agent_names, prob.quotas)
            )
        )
    lines.append(
        "available: " + " ".join(doc.object_names[o] for o in objects_of(prob.available))
    )
    for name, pref in zip(doc.agent_names, prob.profile):
        lines.append(f"pref {name}: " + format_ranking(doc, pref))
    return "\n".join(lines) + "\n"


def load_problem(path: str | Path) -> ProblemDocument:
    return parse_problem(Path(path).read_text())


def ingest_csv(path: str | Path, variant: str | None = None) -> ProblemDocument:
    """Rows 'name,a>b>c|d'; every row must rank the same object set."""
    rows = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, _, ranking = line.partition(",")
        if not _ or not ranking.strip():
            raise ProblemFileError("expected 'agent,ranking'", lineno)
        rows.append((name.strip(), ranking.strip(), lineno))
    if not rows:
        raise ProblemFileError("empty preference table")

    universe: list[str] = []
    seen = set()
    for _, ranking, lineno in rows:
        for token in ranking.replace("|", ">").split(">"):
            token = token.strip()
            if token and token not in seen:
                seen.add(token)
                universe.append(token)
    object_names = tuple(sorted(universe))
    names = {n: i for i, n in enumerate(object_names)}

    prefs = []
    any_cutoff = False
    for name, ranking, lineno in rows:
        pref = _parse_ranking(ranking, names, lineno)
        if set(pref.ranking) != set(range(len(object_names))):
            missing = sorted(
                object_names[o] for o in set(range(len(object_names))) - set(pref.ranking)
            )
            raise ProblemFileError(f"agent {name!r} does not rank {missing}", lineno)
        any_cutoff = any_cutoff or pref.cutoff is not None
        prefs.append(pref)

    if variant is None:
        variant = "unacceptable" if any_cutoff else "fixed"
    if variant == "unacceptable":
        prefs = [
            p if p.cutoff is not None else Preference(p.ranking, len(p.ranking))
            for p in prefs
        ]
    agent_names = tuple(name for name, _, _ in rows)
    if len(set(agent_names)) != len(agent_names):
        raise ProblemFileError("duplicate agent rows")
    agent_ids = tuple(range(1, len(agent_names) + 1))
    problem = _problem(variant, agent_ids, (1 << len(object_names)) - 1, tuple(prefs))
    return ProblemDocument(problem, object_names, agent_names, None)


def render_report(report: dict, timestamp: str | None = None) -> str:
    payload = dict(report)
    if timestamp is not None:
        payload["timestamp"] = timestamp
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
