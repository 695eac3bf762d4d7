"""Command-line surface: run drafts, audit axioms, reproduce the desk-scale results.

Exit codes: 0 = expected verdict / all axioms hold, 1 = violation or unexpected
verdict, 2 = input error, 3 = undecided (cap, capacity or budget), 4 = crash
(traceback on stderr). Reports are deterministic for fixed inputs; timestamps
are dropped with --no-timestamp.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

from .axioms import (
    AXIOM_CHECKERS,
    AXIOM_VARIANTS,
    PRIORITY_AXIOM_CHECKERS,
    VARIABLE_AXIOM_CHECKERS,
    ProblemDomain,
    _sweep,
    fixed_domain,
    past_capacity,
    quota_domain,
    unacceptable_domain,
    variable_domain,
)
from .core import INFINITE, Priority, objects_of
from .problemfile import (
    ProblemDocument,
    ProblemFileError,
    ingest_csv,
    load_problem,
    render_report,
)
from .rules import (
    Rule,
    dictatorship_rule,
    draft_rule,
    null_rule,
    quota_draft_rule,
    serial_dictatorship_rule,
    snake_draft_rule,
    unacceptable_draft_rule,
    variable_draft_rule,
)
from . import verifier

DEFAULT_SEED = 20240801
DEFAULT_BUDGET = 10_000_000
ENUMERATION_CAP = 6  # objects, fixed-model sweeps
SEARCH_CAP = 5  # objects, rule-space search and relabeling sweeps

RULE_FACTORIES = {
    "draft": (draft_rule, ("fixed",)),
    "draft-quota": (quota_draft_rule, ("quota",)),
    "u-draft": (unacceptable_draft_rule, ("unacceptable",)),
    "draft-variable": (variable_draft_rule, ("variable",)),
    "serial-dictatorship": (serial_dictatorship_rule, ("fixed", "unacceptable", "variable")),
    "pi-dictatorship": (dictatorship_rule, ("fixed", "quota", "unacceptable", "variable")),
    "null": (lambda priority: null_rule(), ("fixed", "quota", "unacceptable", "variable")),
    "snake": (snake_draft_rule, ("fixed", "variable")),
}

class InputError(Exception):
    pass


def _undecided(args, reason: str, report: dict) -> int:
    print(f"undecided: {reason}", file=sys.stderr)
    _emit(report | {"exit": 3}, args)
    return 3


def _emit(report: dict, args) -> None:
    stamp = None if args.no_timestamp else datetime.now(timezone.utc).isoformat()
    text = render_report(report, stamp)
    if args.out:
        Path(args.out).write_text(text)
    elif args.json:
        sys.stdout.write(text)


def _build_rule(name: str, variant: str, priority: Priority) -> Rule:
    if name not in RULE_FACTORIES:
        raise InputError(f"unknown rule {name!r} (choose from {sorted(RULE_FACTORIES)})")
    factory, variants = RULE_FACTORIES[name]
    if variant not in variants:
        raise InputError(f"rule {name!r} does not run on {variant!r} problems")
    return factory(priority)


def _doc_priority(doc: ProblemDocument, args) -> Priority:
    if getattr(args, "priority", None):
        names = list(doc.agent_names)
        if sorted(args.priority) != sorted(names):
            raise InputError("--priority must list every agent name exactly once")
        return tuple(doc.problem.agents[names.index(n)] for n in args.priority)
    if doc.priority is not None:
        return doc.priority
    return doc.problem.agents


def cmd_run(args) -> int:
    doc = ingest_csv(args.problem) if args.problem.endswith(".csv") else load_problem(args.problem)
    prob = doc.problem
    priority = _doc_priority(doc, args)
    rule = _build_rule(args.rule, prob.variant, priority)
    alloc, trace = rule.run(prob)

    pick_order: dict[int, list[int]] = {a: [] for a in prob.agents}
    if trace:
        for _, agent, obj in trace:
            if obj is not None:
                pick_order[agent].append(obj)
    else:
        for agent, bundle in zip(prob.agents, alloc):
            pick_order[agent] = list(objects_of(bundle))

    assigned = 0
    for b in alloc:
        assigned |= b
    unassigned = [doc.object_name(o) for o in objects_of(prob.available & ~assigned)]

    print(f"rule: {rule.name}")
    for agent in prob.agents:
        names = ", ".join(doc.object_name(o) for o in pick_order[agent]) or "-"
        print(f"  {doc.agent_name(agent):>12}  {names}")
    if trace:
        steps = " ".join(
            f"{k}:{doc.agent_name(agent)}->"
            + (doc.object_name(obj) if obj is not None else "pass")
            for k, agent, obj in trace
        )
        print(f"trace: {steps}")
    if unassigned:
        print("unassigned: " + ", ".join(unassigned))

    report = {
        "command": "run",
        "rule": args.rule,
        "priority": [doc.agent_name(a) for a in priority],
        "allocation": {
            doc.agent_name(a): [doc.object_name(o) for o in pick_order[a]]
            for a in prob.agents
        },
        "trace": [
            [k, doc.agent_name(agent), doc.object_name(obj) if obj is not None else None]
            for k, agent, obj in (trace or ())
        ],
        "unassigned": unassigned,
        "exit": 0,
    }
    _emit(report, args)
    return 0


def _parse_quotas(text: str | None, n: int):
    if text is None:
        return (INFINITE,) * n
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise InputError(f"expected {n} quota values")
    if not all(p == "inf" or (p.isdigit() and int(p) >= 1) for p in parts):
        raise InputError("quotas must be positive integers or 'inf'")
    return tuple(INFINITE if p == "inf" else int(p) for p in parts)


def _make_domain(args) -> ProblemDomain:
    if args.quotas is not None and args.variant != "quota":
        raise InputError(f"--quotas applies to the quota variant, not {args.variant!r}")
    if args.variant == "fixed":
        return fixed_domain(args.agents, args.objects)
    if args.variant == "quota":
        return quota_domain(args.agents, args.objects, _parse_quotas(args.quotas, args.agents))
    if args.variant == "unacceptable":
        return unacceptable_domain(args.agents, args.objects)
    if args.variant == "variable":
        return variable_domain(args.agents, args.objects)
    raise InputError(f"unknown variant {args.variant!r}")


def _axiom_runner(domain, rule, priority, axioms):
    """Refuse every axiom the domain's variant does not define, then run them on one sweep."""
    for name in axioms:
        if name not in AXIOM_VARIANTS:
            raise InputError(f"unknown axiom {name!r}")
        if domain.variant not in AXIOM_VARIANTS[name]:
            raise InputError(f"axiom {name!r} is not defined for {domain.variant} domains")
    # one sweep serves every axiom of the run, so each problem is allocated once
    sweep = _sweep(rule, domain)

    def run_one(name: str):
        if domain.variant == "variable":
            return VARIABLE_AXIOM_CHECKERS[name](sweep, domain)
        if name in PRIORITY_AXIOM_CHECKERS:
            return PRIORITY_AXIOM_CHECKERS[name](sweep, domain, priority)
        return AXIOM_CHECKERS[name](sweep, domain)

    return run_one


def _axiom_list(text: str) -> list[str]:
    axioms = [a.strip() for a in text.split(",") if a.strip()]
    if not axioms:
        raise InputError("--axioms names no axiom")
    repeated = sorted({a for a in axioms if axioms.count(a) > 1})
    if repeated:
        raise InputError(f"--axioms repeats {', '.join(repeated)}")
    return axioms


def cmd_check(args) -> int:
    axioms = _axiom_list(args.axioms)
    if args.agents < 1 or args.objects < 1:
        raise InputError("--agents and --objects must be at least 1")
    report = {"command": "check", "verdicts": {}}
    if args.objects > ENUMERATION_CAP and not args.i_know_this_is_huge:
        reason = (
            f"{args.objects} objects exceeds the enumeration cap "
            f"({ENUMERATION_CAP}); pass --i-know-this-is-huge to force"
        )
        return _undecided(args, reason, report | {"note": "cap exceeded"})
    reason = past_capacity(args.objects, args.agents, cutoffs=args.variant == "unacceptable")
    if reason:
        return _undecided(args, reason, report | {"note": "capacity exceeded"})
    domain = _make_domain(args)
    priority = tuple(range(1, args.agents + 1))
    if args.priority:
        if sorted(args.priority) != sorted(map(str, priority)):
            raise InputError(f"--priority must list the agent ids 1..{args.agents} once each")
        priority = tuple(int(p) for p in args.priority)
    rule = _build_rule(args.rule, args.variant, priority)
    run_one = _axiom_runner(domain, rule, priority, axioms)
    try:
        reports = [run_one(a) for a in axioms]
    except verifier.CapacityError as exc:
        return _undecided(args, str(exc), report | {"note": "capacity exceeded"})

    verdicts = {}
    all_hold = True
    for name, rep in zip(axioms, reports):
        verdicts[name] = {"verdict": rep.verdict, "checked": rep.checked}
        if rep.witness:
            verdicts[name]["witness"] = rep.witness
        if rep.note:
            verdicts[name]["note"] = rep.note
        all_hold = all_hold and rep.holds
        print(f"  {name:>6}: {rep.verdict} ({rep.checked} checks)")
    code = 0 if all_hold else 1
    _emit({"command": "check", "rule": args.rule, "verdicts": verdicts, "exit": code}, args)
    return code


def _verify_efficiency(make_domain, n_objects: int, seed: int) -> verifier.Verdict:
    # verify_efficiency_decomposition keeps its own report shape: the benchmark reads it
    rep = verifier.verify_efficiency_decomposition(
        make_domain(2, n_objects), n_random_rules=1000, seed=seed
    )
    detail = {"checked_pairs": rep.checked_pairs, "disagreements": len(rep.disagreements)}
    return verifier.Verdict.of(rep.ok, detail)


def _verify_theorem4_cases() -> verifier.Verdict:
    # replay_theorem4_cases keeps its log dict: the benchmark reads it
    try:
        log = verifier.replay_theorem4_cases()
    except verifier.Theorem4ReplayError as exc:
        return verifier.Verdict.of(False, {"mismatch": str(exc)})
    return verifier.Verdict.of(True, {"steps": len(log["steps"]), "cases": log["cases"]})


class VerifyId(NamedTuple):
    """One `verify` id: its driver, the flags it reads and the least agent and object counts
    it takes."""

    driver: Callable[..., verifier.Verdict]
    flags: dict  # every flag the driver reads -> its default
    min_agents: int = 1
    min_objects: int = 1


VERIFY_IDS = {
    "T1": VerifyId(verifier.verify_t1, {"agents": 2, "objects": 3, "budget": DEFAULT_BUDGET}),
    "T2": VerifyId(verifier.verify_t2, {"objects": 3, "budget": DEFAULT_BUDGET}),
    "T3": VerifyId(verifier.verify_t3, {"objects": 4, "budget": DEFAULT_BUDGET}),
    "T4": VerifyId(verifier.verify_theorem4_unsat, {"objects": 5, "budget": DEFAULT_BUDGET}),
    "T4-replay": VerifyId(_verify_theorem4_cases, {}),
    "T5": VerifyId(verifier.verify_t5, {"agents": 3, "objects": 4, "seed": DEFAULT_SEED}, 2),
    "T6": VerifyId(verifier.verify_t6, {"objects": 3, "quotas": "1,2", "budget": DEFAULT_BUDGET}),
    "T7": VerifyId(verifier.verify_t7, {"objects": 3, "budget": DEFAULT_BUDGET}),
    # below 2 agents or 3 objects no population drafts a second round: the snake is the draft
    "T8": VerifyId(verifier.verify_t8, {"agents": 3, "objects": 4}, 2, 3),
    "P1": VerifyId(partial(_verify_efficiency, fixed_domain), {"objects": 4, "seed": DEFAULT_SEED}),
    "P3": VerifyId(
        partial(_verify_efficiency, unacceptable_domain), {"objects": 3, "seed": DEFAULT_SEED}
    ),
    "P4": VerifyId(verifier.verify_truncation_invariance_implication, {"objects": 2}),
    "L1": VerifyId(verifier.verify_critical_agent, {"agents": 3, "objects": 3}),
    "L2": VerifyId(verifier.verify_rm_lemma, {}),
    "L8": VerifyId(verifier.verify_priority_recovery, {"agents": 4}),
    "L9": VerifyId(verifier.verify_extension_comparison, {"agents": 2, "objects": 3}, 2, 3),
}
VERIFY_FLAGS = ("agents", "objects", "quotas")  # verify's own flags: None when not given
PARAMETERS = {"agents": "n_agents", "objects": "n_objects"}  # other flags keep their names
EXIT_CODES = {verifier.REPRODUCED: 0, verifier.NOT_REPRODUCED: 1, verifier.UNDECIDED: 3}
EXIT_CRASH = 4


def cmd_verify(args) -> int:
    entry, stub = VERIFY_IDS[args.theorem], {"command": "verify", "theorem": args.theorem}
    for flag in VERIFY_FLAGS:
        if getattr(args, flag) is not None and flag not in entry.flags:
            raise InputError(f"{args.theorem} does not read --{flag}")
    values = {
        flag: default if getattr(args, flag) is None else getattr(args, flag)
        for flag, default in entry.flags.items()
    }
    if "agents" in values and values["agents"] < entry.min_agents:
        raise InputError(f"{args.theorem} needs --agents of at least {entry.min_agents}")
    if "objects" in values and values["objects"] < entry.min_objects:
        raise InputError(f"{args.theorem} needs --objects of at least {entry.min_objects}")
    if "quotas" in values:
        values["quotas"] = _parse_quotas(values["quotas"], 2)
    if values.get("objects", 0) > SEARCH_CAP and not args.i_know_this_is_huge:
        return _undecided(
            args,
            f"{values['objects']} objects exceeds the search cap ({SEARCH_CAP}); "
            "pass --i-know-this-is-huge to force",
            stub,
        )
    reason = past_capacity(values.get("objects", 0), values.get("agents", 1))
    if reason:
        return _undecided(args, reason, stub)
    try:
        verdict = entry.driver(**{PARAMETERS.get(f, f): v for f, v in values.items()})
    except verifier.CapacityError as exc:
        return _undecided(args, str(exc), stub)
    code = EXIT_CODES[verdict.outcome]
    print(f"{args.theorem}: {verdict.outcome}")
    for key, value in verdict.detail.items():
        if isinstance(value, (dict, list)):  # nested values as the JSON report writes them
            value = json.dumps(value, sort_keys=True)
        print(f"  {key}: {value}")
    report = {"command": "verify", "theorem": args.theorem, "detail": verdict.detail, "exit": code}
    _emit(report, args)
    return code


def cmd_manipulate(args) -> int:
    doc = load_problem(args.problem)
    prob = doc.problem
    priority = _doc_priority(doc, args)
    rule = _build_rule(args.rule, prob.variant, priority)
    if args.agent not in doc.agent_names:
        raise InputError(f"unknown agent {args.agent!r}")
    agent = prob.agents[doc.agent_names.index(args.agent)]
    try:
        found = verifier.find_manipulation(rule, prob, agent)
    except verifier.CapacityError as exc:
        return _undecided(args, str(exc), {"command": "manipulate", "note": "capacity exceeded"})
    if found is None:
        print("no profitable misreport at this problem")
        _emit({"command": "manipulate", "found": False, "exit": 0}, args)
        return 0
    report_pref, gained, lost = found
    from .problemfile import format_ranking

    misreport = format_ranking(doc, report_pref)
    print(f"agent {args.agent} gains by reporting: {misreport}")
    print(
        "  bundle "
        + "{" + ", ".join(doc.object_name(o) for o in objects_of(gained)) + "}"
        + " instead of "
        + "{" + ", ".join(doc.object_name(o) for o in objects_of(lost)) + "}"
    )
    _emit(
        {
            "command": "manipulate",
            "found": True,
            "agent": args.agent,
            "misreport": misreport,
            "gained": [doc.object_name(o) for o in objects_of(gained)],
            "lost": [doc.object_name(o) for o in objects_of(lost)],
            "exit": 0,
        },
        args,
    )
    return 0


def cmd_infer_priority(args) -> int:
    try:
        priority = tuple(int(p) for p in args.priority)
    except ValueError:
        raise InputError("--priority must list integer agent ids") from None
    if len(set(priority)) != len(priority):
        raise InputError("--priority must list each agent id once")
    rule = _build_rule(args.rule, "variable", priority)
    try:
        inferred = verifier.infer_priority(rule, sorted(priority))
    except verifier.PriorityInferenceError as exc:
        print(f"inference failed: {exc}")
        _emit({"command": "infer-priority", "error": str(exc), "exit": 1}, args)
        return 1
    print("inferred priority: " + " ".join(map(str, inferred)))
    _emit({"command": "infer-priority", "priority": list(inferred), "exit": 0}, args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="draftkit",
        description="Draft allocation rules, axiom audits, and desk-scale verification.",
    )
    parser.add_argument("--out", help="write the machine-readable report to this file")
    parser.add_argument("--json", action="store_true", help="print the report to stdout")
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="propagation budget")
    parser.add_argument("--no-timestamp", action="store_true", help="omit timestamps")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an allocation rule on a problem file")
    run.add_argument("problem", help="problem document (.txt) or preference table (.csv)")
    run.add_argument("--rule", default="draft", choices=sorted(RULE_FACTORIES))
    run.add_argument("--priority", nargs="+", help="agent names, highest first")
    run.set_defaults(fn=cmd_run)

    check = sub.add_parser("check", help="audit axioms over an enumerated domain")
    check.add_argument("--rule", required=True, choices=sorted(RULE_FACTORIES))
    check.add_argument("--axioms", required=True, help="comma-separated axiom names")
    check.add_argument("--agents", type=int, default=2)
    check.add_argument("--objects", type=int, default=3)
    check.add_argument(
        "--variant", default="fixed", choices=("fixed", "quota", "unacceptable", "variable")
    )
    check.add_argument("--quotas", help="comma-separated, e.g. 1,2 or 1,inf")
    check.add_argument("--priority", nargs="+", help="agent ids, highest first")
    check.add_argument("--i-know-this-is-huge", action="store_true")
    check.set_defaults(fn=cmd_check)

    verify = sub.add_parser("verify", help="reproduce a desk-scale result")
    verify.add_argument("theorem", choices=VERIFY_IDS)
    verify.add_argument("--agents", type=int)
    verify.add_argument("--objects", type=int)
    verify.add_argument("--quotas")
    verify.add_argument("--i-know-this-is-huge", action="store_true")
    verify.set_defaults(fn=cmd_verify)

    manip = sub.add_parser("manipulate", help="search misreports at one problem")
    manip.add_argument("problem")
    manip.add_argument("--agent", required=True, help="agent name from the file")
    manip.add_argument("--rule", default="draft", choices=sorted(RULE_FACTORIES))
    manip.add_argument("--priority", nargs="+")
    manip.set_defaults(fn=cmd_manipulate)

    infer = sub.add_parser("infer-priority", help="recover a rule's priority from probes")
    infer.add_argument("--rule", default="draft-variable", choices=sorted(RULE_FACTORIES))
    infer.add_argument("--priority", nargs="+", required=True, help="agent ids, highest first")
    infer.set_defaults(fn=cmd_infer_priority)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, ProblemFileError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # a crash must not read as a verdict: 1 means "violation found"
        import traceback  # loaded only on a crash, so every other run starts without it

        traceback.print_exc()
        return EXIT_CRASH


if __name__ == "__main__":
    sys.exit(main())
