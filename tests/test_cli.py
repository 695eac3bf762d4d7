import json
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import scalar_checkers as oracle
from draftkit.cli import main
from draftkit.core import INFINITE, VARIANTS, Preference, Problem, objects_of
from draftkit.problemfile import (
    ProblemDocument,
    ProblemFileError,
    ingest_csv,
    parse_problem,
    serialize_problem,
)

from helpers import bundle

WORKED = """\
universe: a b c d
variant: fixed
agents: one two three
priority: one two three
pref one: a > b > c > d
pref two: c > d > b > a
pref three: a > d > c > b
"""


@pytest.fixture
def worked_file(tmp_path):
    path = tmp_path / "worked.txt"
    path.write_text(WORKED)
    return str(path)


def test_parse_worked_example():
    doc = parse_problem(WORKED)
    assert doc.problem.variant == "fixed"
    assert doc.agent_names == ("one", "two", "three")
    assert doc.priority == (1, 2, 3)
    assert doc.problem.available == bundle("abcd")


def test_round_trip_is_stable():
    doc = parse_problem(WORKED)
    once = serialize_problem(doc)
    again = serialize_problem(parse_problem(once))
    assert once == again
    assert parse_problem(once).problem == doc.problem


def test_unknown_field_rejected_with_line():
    with pytest.raises(ProblemFileError, match="line 2.*unknown field"):
        parse_problem("universe: a\nbogus: 1\nagents: x\npref x: a\n")


def test_incomplete_ranking_rejected():
    text = WORKED.replace("pref one: a > b > c > d", "pref one: a > b > c")
    with pytest.raises(ProblemFileError, match="does not rank"):
        parse_problem(text)


def test_cutoff_on_fixed_problem_rejected():
    text = WORKED.replace("pref one: a > b > c > d", "pref one: a > b | c > d")
    with pytest.raises(ProblemFileError, match="cutoff"):
        parse_problem(text)


def test_unacceptable_round_trip():
    text = """\
universe: a b c
variant: unacceptable
agents: i j
pref i: a | b > c
pref j: b > a > c
"""
    doc = parse_problem(text)
    assert doc.problem.profile[0].cutoff == 1
    assert doc.problem.profile[1].cutoff == 3  # no marker: everything acceptable
    assert serialize_problem(parse_problem(serialize_problem(doc))) == serialize_problem(doc)


def test_quota_parsing_and_errors():
    text = """\
universe: a b c
variant: quota
agents: i j
quota: i=1 j=inf
pref i: a > b > c
pref j: b > a > c
"""
    doc = parse_problem(text)
    assert doc.problem.quotas[0] == 1 and doc.problem.quotas[1] == float("inf")
    with pytest.raises(ProblemFileError, match="missing quotas"):
        parse_problem(text.replace("quota: i=1 j=inf", "quota: i=1"))


NAMES = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_-", min_size=1, max_size=4)


@st.composite
def problem_documents(draw):
    """Any valid document: variant, names, available set, cutoffs, quotas and priority."""
    variant = draw(st.sampled_from(VARIANTS))
    objects = tuple(draw(st.lists(NAMES, min_size=1, max_size=5, unique=True)))
    agents = tuple(draw(st.lists(NAMES, min_size=1, max_size=4, unique=True)))
    ids = tuple(range(1, len(agents) + 1))
    available = draw(st.integers(0 if variant == "variable" else 1, (1 << len(objects)) - 1))
    ranked = objects_of(available) if variant == "variable" else tuple(range(len(objects)))
    profile = []
    for _ in agents:
        ranking = tuple(draw(st.permutations(ranked)))
        cutoff = draw(st.integers(0, len(ranking))) if variant == "unacceptable" else None
        profile.append(Preference(ranking, cutoff))
    quotas = None
    if variant == "quota":
        quota = st.one_of(st.integers(1, 6), st.just(INFINITE))
        quotas = tuple(draw(st.lists(quota, min_size=len(ids), max_size=len(ids))))
    priority = draw(st.none() | st.permutations(ids).map(tuple))
    problem = Problem(variant, ids, available, tuple(profile), quotas)
    return ProblemDocument(problem, objects, agents, priority)


@settings(max_examples=200, deadline=None, database=None)
@given(problem_documents())
def test_problem_documents_round_trip(doc):
    text = serialize_problem(doc)
    back = parse_problem(text)
    assert back == doc
    assert serialize_problem(back) == text


def test_csv_ingest(tmp_path):
    path = tmp_path / "prefs.csv"
    path.write_text("team1,a>b>c>d\nteam2,a>b|c>d\n")
    doc = ingest_csv(path)
    assert doc.problem.variant == "unacceptable"
    assert doc.agent_names == ("team1", "team2")
    assert doc.problem.profile[1].cutoff == 2


def test_csv_differing_objects_rejected(tmp_path):
    path = tmp_path / "prefs.csv"
    path.write_text("team1,a>b>c\nteam2,a>b\n")
    with pytest.raises(ProblemFileError, match="does not rank.*c"):
        ingest_csv(path)


def test_cli_run_worked_example(worked_file, capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main(["--out", str(out), "--no-timestamp", "run", worked_file, "--rule", "draft"])
    assert code == 0
    text = capsys.readouterr().out
    assert "trace: 1:one->a 2:two->c 3:three->d 4:one->b" in text
    report = json.loads(out.read_text())
    assert report["allocation"] == {"one": ["a", "b"], "two": ["c"], "three": ["d"]}
    assert report["unassigned"] == []


TWELVE_OBJECTS = "universe: a b c d e f g h i j k l\nagents: x y z\n"
TWELVE_FIXED = TWELVE_OBJECTS + (
    "variant: fixed\n"
    "pref x: a > b > c > d > e > f > g > h > i > j > k > l\n"
    "pref y: l > k > j > i > h > g > f > e > d > c > b > a\n"
    "pref z: f > a > l > g > b > k > h > c > j > i > d > e\n"
)
TWELVE_UNACCEPTABLE = TWELVE_OBJECTS + (
    "variant: unacceptable\n"
    "pref x: a > b > c > d > e | f > g > h > i > j > k > l\n"
    "pref y: a > l > k > j > i > h > g | f > e > d > c > b\n"
    "pref z: f > a > l > g > b > k > h > c > j | i > d > e\n"
)


TWENTY_UNACCEPTABLE = (
    "universe: a b c d e f g h i j k l m n o p q r s t\n"
    "variant: unacceptable\n"
    "agents: x y z\n"
    "priority: z x y\n"
    "pref x: a > b > c > d > e > f > g > h > i > j | k > l > m > n > o > p > q > r > s > t\n"
    "pref y: t > s > r > q > p > o > n > m > l > k > j > i > h | g > f > e > d > c > b > a\n"
    "pref z: e > j > o > t | a > b > c > d > f > g > h > i > k > l > m > n > p > q > r > s\n"
)


def _bundles(**rows) -> str:
    """`run`'s bundle lines, one per agent in file order."""
    return "".join(f"  {agent:>12}  {objects}\n" for agent, objects in rows.items())


TWELVE = "a, b, c, d, e, f, g, h, i, j, k, l"


@pytest.mark.parametrize(
    "text, rule, expected",
    [
        (
            TWELVE_FIXED,
            "draft",
            "trace: 1:x->a 2:y->l 3:z->f 4:x->b 5:y->k 6:z->g 7:x->c 8:y->j 9:z->h 10:x->d "
            "11:y->i 12:z->e\n",
        ),
        (
            TWELVE_FIXED,
            "snake",
            "trace: 1:x->a 2:y->l 3:z->f 4:z->g 5:y->k 6:x->b 7:x->c 8:y->j 9:z->h 10:z->i "
            "11:y->e 12:x->d\n",
        ),
        (
            TWELVE_UNACCEPTABLE,
            "u-draft",
            "trace: 1:x->a 2:y->l 3:z->f 4:x->b 5:y->k 6:z->g 7:x->c 8:y->j 9:z->h 10:x->d "
            "11:y->i 12:z->pass 13:x->e 14:y->pass 15:z->pass 16:x->pass\n",
        ),
        (
            TWELVE_UNACCEPTABLE,
            "serial-dictatorship",
            _bundles(x="a, b, c, d, e", y="g, h, i, j, k, l", z="f"),
        ),
        (TWELVE_UNACCEPTABLE, "pi-dictatorship", _bundles(x=TWELVE, y="-", z="-")),
        (TWELVE_FIXED, "null", _bundles(x="-", y="-", z="-") + f"unassigned: {TWELVE}\n"),
        (
            TWENTY_UNACCEPTABLE,
            "serial-dictatorship",
            _bundles(x="a, b, c, d, f, g, h, i", y="k, l, m, n, p, q, r, s", z="e, j, o, t"),
        ),
    ],
    ids=[
        "draft",
        "snake",
        "u-draft",
        "serial-dictatorship",
        "pi-dictatorship",
        "null",
        "serial-dictatorship-twenty",
    ],
)
def test_cli_run_drafts_twelve_objects(tmp_path, capsys, text, rule, expected):
    """`run` solves one problem at any width: a plan rule through its tracer, and serial
    dictatorship, π-dictatorship and null through one row of their engines, which widens
    past 8 objects (uint16 at 12, uint32 at 20)."""
    path = tmp_path / "wide.txt"
    path.write_text(text)
    assert main(["--no-timestamp", "run", str(path), "--rule", rule]) == 0
    out = capsys.readouterr().out
    assert expected in out
    assert ("trace: " in out) == expected.startswith("trace: ")


def test_cli_reports_are_deterministic(worked_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["--out", str(a), "--no-timestamp", "run", worked_file])
    main(["--out", str(b), "--no-timestamp", "run", worked_file])
    assert a.read_bytes() == b.read_bytes()


def test_cli_rule_variant_mismatch(worked_file, capsys):
    code = main(["run", worked_file, "--rule", "u-draft"])
    assert code == 2
    assert "does not run on" in capsys.readouterr().err


def test_cli_quota_run_flags_unassigned(tmp_path, capsys):
    path = tmp_path / "q.txt"
    path.write_text(
        "universe: a b c\nvariant: quota\nagents: i j\nquota: i=1 j=1\n"
        "pref i: a > b > c\npref j: a > b > c\n"
    )
    code = main(["run", str(path), "--rule", "draft-quota"])
    assert code == 0
    assert "unassigned: c" in capsys.readouterr().out


def test_cli_udraft_all_unacceptable(tmp_path, capsys):
    path = tmp_path / "u.txt"
    path.write_text(
        "universe: a b\nvariant: unacceptable\nagents: i j\n"
        "pref i: | a > b\npref j: | b > a\n"
    )
    code = main(["run", str(path), "--rule", "u-draft"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("-") >= 2  # both bundles empty


def test_cli_check_draft_passes_and_fails(capsys):
    code = main(["check", "--rule", "draft", "--axioms", "RP,EF1,EFF,RM",
                 "--agents", "2", "--objects", "3"])
    assert code == 0
    code = main(["check", "--rule", "draft", "--axioms", "WSP",
                 "--agents", "2", "--objects", "3"])
    assert code == 1


def test_cli_check_pi_dictatorship_ef1(capsys):
    code = main(["check", "--rule", "pi-dictatorship", "--axioms", "EF1",
                 "--agents", "2", "--objects", "3"])
    assert code == 1


def test_cli_check_cap(capsys):
    code = main(["check", "--rule", "draft", "--axioms", "NW",
                 "--agents", "2", "--objects", "7"])
    assert code == 3


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--rule", "draft", "--axioms", "TP,TI"], "'TP' is not defined for fixed"),
        (["--rule", "draft", "--axioms", "EP"], "'EP' is not defined for fixed"),
        (["--rule", "draft", "--axioms", "NWq"], "'NWq' is not defined for fixed"),
        (["--rule", "draft", "--axioms", "WRPq"], "'WRPq' is not defined for fixed"),
        (["--rule", "draft-quota", "--variant", "quota", "--quotas", "1,2", "--axioms", "TP"],
         "'TP' is not defined for quota"),
        (["--rule", "u-draft", "--variant", "unacceptable", "--axioms", "NW,NWq"],
         "'NWq' is not defined for unacceptable"),
        (["--rule", "draft", "--axioms", "NW,BOGUS"], "unknown axiom 'BOGUS'"),
        (["--rule", "draft", "--axioms", "NW,RM+"], "axiom 'RM+' is not defined for fixed domains"),
        (["--rule", "u-draft", "--variant", "unacceptable", "--axioms", "CON"],
         "axiom 'CON' is not defined for unacceptable domains"),
        (["--rule", "draft-variable", "--variant", "variable", "--axioms", "NW,RM"],
         "axiom 'RM' is not defined for variable domains"),
    ],
)
def test_cli_check_refuses_axioms_off_their_variant(capsys, argv, message):
    assert main(["check", "--agents", "2", "--objects", "3"] + argv) == 2
    out = capsys.readouterr()
    assert message in out.err
    assert out.out == ""  # refused before any axiom runs


@pytest.mark.parametrize(
    "argv",
    [
        ["--agents", "0"],
        ["--objects", "0"],
        ["--agents", "-1"],
        ["--variant", "quota", "--quotas", "0,1"],
        ["--variant", "quota", "--quotas", "1,x"],
        ["--priority", "1", "3"],
        ["--priority", "1", "1"],
    ],
)
def test_cli_check_refuses_bad_sizes(capsys, argv):
    rule = "draft-quota" if "quota" in argv else "draft"
    assert main(["check", "--rule", rule, "--axioms", "NW"] + argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("variant, rule", [("fixed", "draft"), ("unacceptable", "u-draft")])
def test_cli_check_refuses_quotas_off_the_quota_variant(capsys, variant, rule):
    argv = ["check", "--rule", rule, "--axioms", "EF1", "--variant", variant, "--quotas", "1,2"]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.err == f"error: --quotas applies to the quota variant, not '{variant}'\n"
    assert out.out == ""


@pytest.mark.parametrize(
    "axioms, message",
    [
        (",", "names no axiom"),
        (" , ,", "names no axiom"),
        ("EF1,EF1", "repeats EF1"),
        ("NW,EF1,NW,EF1", "repeats EF1, NW"),
    ],
)
def test_cli_check_refuses_empty_or_repeated_axioms(capsys, axioms, message):
    argv = ["check", "--rule", "draft", "--axioms", axioms, "--agents", "2", "--objects", "2"]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.err == f"error: --axioms {message}\n"
    assert out.out == ""  # refused before any axiom runs


UNIQUE = "uniqueness over the checked domain"
FINITE = "finite-domain result: quantifies over the checked domain only"
UNSAT = {"certificate_replays": True, "note": FINITE, "status": "unsat"}


@pytest.mark.parametrize(
    "argv, detail",
    [
        (["L9"], {"extension_ok": True, "snake_diverges": True}),
        (
            ["T8", "--agents", "2", "--objects", "3"],
            {
                "extension_ok": True,
                "note": FINITE,
                "priorities_recovered": True,
                "snake_diverges": True,
                "sweep_ok": True,
            },
        ),
        (["T1"], {"equals_draft": [True], "note": UNIQUE, "status": "unique", "survivors": 1}),
        (["T2"], UNSAT),
        (["T3"], UNSAT),
        (["T4"], UNSAT),
        (["T4-replay"], {"cases": 4, "steps": 72}),
        (["T6"], {"note": UNIQUE, "status": "unique", "survivors": 1}),
        (["T7"], {"note": UNIQUE, "status": "unique", "survivors": 1}),
        (["P3"], {"checked_pairs": 16560, "disagreements": 0}),
        (["P4"], {"cells": 96, "draft_premise": True, "links": 6, "violations": 0}),
        (["L1"], {"checked": 1764, "ok": True, "survivors_swept": 1}),
        (["L8"], {"checked": 24, "ok": True}),
        (["L9", "--agents", "3", "--objects", "4"], {"extension_ok": True, "snake_diverges": True}),
        (["L9", "--agents", "5", "--objects", "3"], {"extension_ok": True, "snake_diverges": True}),
    ],
)
def test_cli_verify_extension_detail_is_pinned(tmp_path, capsys, argv, detail):
    out = tmp_path / "report.json"
    assert main(["--out", str(out), "--no-timestamp", "verify"] + argv) == 0
    expected = {"command": "verify", "detail": detail, "exit": 0, "theorem": argv[0]}
    assert out.read_text() == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def _verify_stdout(theorem: str, summary: list[str], detail: dict) -> str:
    report = {"command": "verify", "detail": detail, "exit": 0, "theorem": theorem}
    lines = [f"{theorem}: reproduced"] + [f"  {line}" for line in summary]
    return "\n".join(lines) + "\n" + json.dumps(report, indent=2, sort_keys=True) + "\n"


T1_STDOUT = _verify_stdout(
    "T1",
    ["status: unique", "survivors: 1", "equals_draft: [true]", f"note: {UNIQUE}"],
    {"equals_draft": [True], "note": UNIQUE, "status": "unique", "survivors": 1},
)
UNIQUE_SUMMARY = ["status: unique", "survivors: 1", f"note: {UNIQUE}"]
UNIQUE_DETAIL = {"note": UNIQUE, "status": "unique", "survivors": 1}


@pytest.mark.parametrize(
    "argv, stdout",
    [
        (["T1"], T1_STDOUT),
        (["T1", "--agents", "3", "--objects", "3"], T1_STDOUT),
        (["T6"], _verify_stdout("T6", UNIQUE_SUMMARY, UNIQUE_DETAIL)),
        (["T7"], _verify_stdout("T7", UNIQUE_SUMMARY, UNIQUE_DETAIL)),
        (
            ["P4"],
            _verify_stdout(
                "P4",
                ["links: 6", "cells: 96", "draft_premise: True", "violations: 0"],
                {"cells": 96, "draft_premise": True, "links": 6, "violations": 0},
            ),
        ),
        (
            ["L1"],
            _verify_stdout(
                "L1",
                ["ok: True", "checked: 1764", "survivors_swept: 1"],
                {"checked": 1764, "ok": True, "survivors_swept": 1},
            ),
        ),
    ],
)
def test_cli_verify_csp_reports_are_pinned(capsys, argv, stdout):
    """The --json reports of the ids that build a rule-space CSP or read its problem keys,
    byte for byte."""
    assert main(["--json", "--no-timestamp", "verify"] + argv) == 0
    out = capsys.readouterr()
    assert out.out == stdout and out.err == ""


def test_cli_verify_t1(capsys):
    code = main(["verify", "T1", "--objects", "2"])
    assert code == 0
    assert "reproduced" in capsys.readouterr().out


def test_cli_verify_t2(capsys):
    assert main(["verify", "T2"]) == 0


def test_cli_verify_replay(capsys):
    assert main(["verify", "T4-replay"]) == 0


def test_cli_verify_l8(capsys):
    assert main(["verify", "L8", "--agents", "3"]) == 0


def test_cli_verify_cap(capsys):
    assert main(["verify", "T1", "--objects", "6"]) == 3


def test_cli_verify_l8_past_its_agent_cap_is_undecided(monkeypatch, capsys):
    from draftkit import verifier

    def infer_priority(*args, **kwargs):
        raise AssertionError("L8 inferred a priority past its agent cap")

    monkeypatch.setattr(verifier, "infer_priority", infer_priority)
    assert main(["verify", "L8", "--agents", str(verifier.PRIORITY_RECOVERY_MAX_AGENTS + 1)]) == 3
    out = capsys.readouterr()
    assert out.err.startswith("undecided: 8 agents make 40320 priorities") and out.out == ""


def test_cli_verify_t8_past_the_priority_recovery_cap_is_undecided(monkeypatch, capsys):
    """T8 recovers priorities at its --agents, so 8 agents (whose 6^8 profiles per set a
    sweep would hold) are refused before any probe or sweep."""
    from draftkit import verifier

    def unreachable(*args, **kwargs):
        raise AssertionError("T8 probed or swept past the priority-recovery cap")

    monkeypatch.setattr(verifier, "infer_priority", unreachable)
    monkeypatch.setattr(verifier, "VariableSweep", unreachable)
    assert main(["verify", "T8", "--agents", "8", "--objects", "3"]) == 3
    out = capsys.readouterr()
    assert out.err.startswith("undecided: 8 agents make 40320 priorities") and out.out == ""


def test_cli_verify_t4_reads_objects(capsys):
    """Below the paper's five objects NW + EF1 + SP can be met: the search finds a rule."""
    assert main(["verify", "T4", "--objects", "4"]) == 1
    assert "status: sat" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["T1", "--objects", "0"],
        ["L1", "--agents", "0"],
        ["T2", "--objects", "-1"],
        ["T5", "--agents", "1"],
        ["T4", "--agents", "3"],
        ["L2", "--agents", "2"],
        ["L8", "--objects", "3"],
        ["T1", "--quotas", "1,2"],
        ["T6", "--quotas", "1,x"],
        ["T6", "--quotas", "1"],
        ["T6", "--quotas", "0,1"],
    ],
)
def test_cli_verify_refuses_bad_sizes(capsys, argv):
    assert main(["verify"] + argv) == 2
    out = capsys.readouterr()
    assert out.err.startswith("error: ") and out.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["L9", "--agents", "2", "--objects", "2"], "L9 needs --objects of at least 3"),
        (["L9", "--agents", "1", "--objects", "3"], "L9 needs --agents of at least 2"),
        (["T8", "--agents", "2", "--objects", "2"], "T8 needs --objects of at least 3"),
    ],
)
def test_cli_verify_refuses_sizes_without_a_second_round(capsys, argv, message):
    """Below 2 agents or 3 objects no population drafts a second round, so the snake draft
    is the draft and the extension comparison has nothing to show: an input error, not a
    NOT reproduced."""
    assert main(["verify"] + argv) == 2
    out = capsys.readouterr()
    assert out.err == f"error: {message}\n" and out.out == ""


@pytest.mark.parametrize("theorem", ["T2", "T3", "T4"])
def test_cli_verify_grid_capacity_is_undecided(monkeypatch, capsys, theorem):
    from draftkit import grid

    def cones(*args, **kwargs):
        raise AssertionError("the grid was built past its capacity")

    monkeypatch.setattr(grid, "_cones", cones)
    assert main(["verify", theorem, "--objects", "7", "--i-know-this-is-huge"]) == 3
    out = capsys.readouterr()
    assert out.err.startswith("undecided: 7 objects exceeds the grid") and out.out == ""


@pytest.mark.parametrize("theorem", ["L9", "T1"])
def test_cli_verify_past_row_capacity_is_undecided(monkeypatch, capsys, tmp_path, theorem):
    from draftkit import cli

    def unreachable(**kwargs):
        raise AssertionError("verify ran past the allocation arrays' capacity")

    entry = cli.VERIFY_IDS[theorem]
    monkeypatch.setitem(cli.VERIFY_IDS, theorem, entry._replace(driver=unreachable))
    out_file = tmp_path / "report.json"
    argv = ["--out", str(out_file), "--no-timestamp", "verify", theorem, "--objects", "9"]
    assert main(argv + ["--i-know-this-is-huge"]) == 3
    out = capsys.readouterr()
    assert out.err.startswith("undecided: 9 objects exceeds the allocation arrays' capacity (8)")
    assert out.out == ""
    assert json.loads(out_file.read_text())["exit"] == 3


@pytest.mark.parametrize("theorem", ["P1", "P3"])
def test_cli_verify_past_pareto_oracle_capacity_is_undecided(
    monkeypatch, capsys, tmp_path, theorem
):
    from draftkit import axioms

    def unreachable(self):
        raise AssertionError("verify enumerated a domain past the Pareto oracle's capacity")

    monkeypatch.setattr(axioms.ProblemDomain, "problems", unreachable)
    out_file = tmp_path / "report.json"
    argv = ["--out", str(out_file), "--no-timestamp", "verify", theorem, "--objects", "6"]
    assert main(argv + ["--i-know-this-is-huge"]) == 3
    out = capsys.readouterr()
    assert out.err == (
        "undecided: 6 objects and 2 agents exceed the Pareto oracle's capacity "
        "(5 objects, 3 agents): it tries every split of the available objects\n"
    )
    assert out.out == ""
    assert json.loads(out_file.read_text())["exit"] == 3


@pytest.mark.parametrize("variant", ["fixed", "variable"])
def test_cli_check_past_row_capacity_is_undecided(monkeypatch, capsys, tmp_path, variant):
    from draftkit import cli

    def make_domain(args):
        raise AssertionError("the domain was built past the allocation arrays' capacity")

    monkeypatch.setattr(cli, "_make_domain", make_domain)
    out_file = tmp_path / "report.json"
    argv = ["--out", str(out_file), "--no-timestamp", "check", "--rule", "pi-dictatorship"]
    argv += ["--axioms", "NW", "--agents", "1", "--objects", "9", "--variant", variant]
    assert main(argv + ["--i-know-this-is-huge"]) == 3
    out = capsys.readouterr()
    assert out.err.startswith("undecided: 9 objects exceeds the allocation arrays' capacity (8)")
    assert out.out == ""
    assert json.loads(out_file.read_text())["exit"] == 3


@pytest.mark.parametrize(
    "variant, agents, objects, profiles",
    [("fixed", 9, 4, 24**9), ("unacceptable", 2, 6, (720 * 7) ** 2), ("variable", 5, 4, 24**5)],
)
def test_cli_check_past_profile_capacity_is_undecided(
    monkeypatch, capsys, tmp_path, variant, agents, objects, profiles
):
    from draftkit import cli

    def make_domain(args):
        raise AssertionError("the domain was built past the sweeps' capacity")

    monkeypatch.setattr(cli, "_make_domain", make_domain)
    out_file = tmp_path / "report.json"
    argv = ["--out", str(out_file), "--no-timestamp", "check", "--rule", "pi-dictatorship"]
    argv += ["--axioms", "NW", "--agents", str(agents), "--objects", str(objects)]
    assert main(argv + ["--variant", variant]) == 3
    out = capsys.readouterr()
    assert out.err == (
        f"undecided: {agents} agents over {objects} objects make {profiles} profiles per "
        "available set, more than a sweep holds (2097152)\n"
    )
    assert out.out == ""
    assert json.loads(out_file.read_text())["exit"] == 3


@pytest.mark.parametrize(
    "variant, rule, cells",
    [("fixed", "draft", 40320 << 16), ("unacceptable", "u-draft", 40320 * 9 << 16)],
)
def test_cli_check_past_relation_capacity_is_undecided(
    monkeypatch, capsys, tmp_path, variant, rule, cells
):
    from draftkit import dominance

    def dominance_table(*args):
        raise AssertionError("a relation table was built past its capacity")

    monkeypatch.setattr(dominance, "dominance_table", dominance_table)
    out_file = tmp_path / "report.json"
    argv = ["--out", str(out_file), "--no-timestamp", "check", "--rule", rule, "--axioms", "RM"]
    argv += ["--agents", "1", "--objects", "8", "--variant", variant, "--i-know-this-is-huge"]
    assert main(argv) == 3
    out = capsys.readouterr()
    assert out.err == (
        f"undecided: 8 objects make a relation table of {cells} cells, "
        "more than one table holds (1073741824)\n"
    )
    assert out.out == ""
    report = json.loads(out_file.read_text())
    assert report == {"command": "check", "exit": 3, "note": "capacity exceeded", "verdicts": {}}


@pytest.mark.parametrize("theorem", ["T1", "T5", "L1", "T8", "L9"])
def test_cli_verify_past_profile_capacity_is_undecided(monkeypatch, capsys, tmp_path, theorem):
    """Each id that sizes a sweep or search by --agents refuses 9 agents before building it."""
    from draftkit import cli

    def unreachable(**kwargs):
        raise AssertionError("verify built a domain past the sweeps' capacity")

    entry = cli.VERIFY_IDS[theorem]
    monkeypatch.setitem(cli.VERIFY_IDS, theorem, entry._replace(driver=unreachable))
    out_file = tmp_path / "report.json"
    argv = ["--out", str(out_file), "--no-timestamp", "verify", theorem, "--agents", "9"]
    assert main(argv) == 3
    out = capsys.readouterr()
    assert out.err.startswith("undecided: 9 agents over ")
    assert out.err.endswith("profiles per available set, more than a sweep holds (2097152)\n")
    assert out.out == ""
    assert json.loads(out_file.read_text())["exit"] == 3


@pytest.mark.parametrize("theorem, objects", [("T7", 6), ("P4", 6), ("T6", 7)])
def test_cli_verify_past_key_capacity_is_undecided(monkeypatch, capsys, tmp_path, theorem, objects):
    """The rule-space searches and P4 refuse a domain past the sweeps' profile codes per
    available set before building any of its problem keys, sweeps or relations."""
    from draftkit import verifier

    def unreachable(*args, **kwargs):
        raise AssertionError("verify built a search, sweep or relation past the sweeps' capacity")

    monkeypatch.setattr(verifier, "build_csp", unreachable)
    monkeypatch.setattr(verifier, "FixedSweep", unreachable)
    monkeypatch.setattr(verifier, "_oracle_relation", unreachable)
    out_file = tmp_path / "report.json"
    argv = ["--out", str(out_file), "--no-timestamp", "verify", theorem, "--objects", str(objects)]
    assert main(argv + ["--i-know-this-is-huge"]) == 3
    out = capsys.readouterr()
    assert out.err == (
        f"undecided: 2 agents over {objects} objects make 25401600 profiles per "
        "available set, more than a sweep holds (2097152)\n"
    )
    assert out.out == ""
    assert json.loads(out_file.read_text())["exit"] == 3


def test_cli_verify_text_prints_nested_detail_as_json(monkeypatch, capsys):
    """A failing P4-style detail: the summary prints its witness dict and list as the JSON
    report does, not as Python reprs."""
    from draftkit import cli, verifier

    witness = {"relation": "table", "preference": "a > b | c", "bundle_before": "{a}"}
    detail = {"links": 3, "draft_premise": True, "witness": witness, "equals_draft": [True]}
    driver = lambda **kwargs: verifier.Verdict.of(False, detail)  # noqa: E731
    monkeypatch.setitem(cli.VERIFY_IDS, "P4", cli.VERIFY_IDS["P4"]._replace(driver=driver))
    assert main(["--no-timestamp", "verify", "P4"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "P4: NOT reproduced",
        "  links: 3",
        "  draft_premise: True",
        '  witness: {"bundle_before": "{a}", "preference": "a > b | c", "relation": "table"}',
        "  equals_draft: [true]",
    ]


def test_cli_crash_exits_4_with_traceback(monkeypatch, capsys):
    from draftkit import cli

    def build_rule(name, variant, priority):
        raise RuntimeError("engine failed")

    monkeypatch.setattr(cli, "_build_rule", build_rule)
    assert main(["check", "--rule", "draft", "--axioms", "NW"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):")
    assert err.rstrip().endswith("RuntimeError: engine failed")


def test_cli_manipulate_worked_example(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text(
        "universe: a b c\nagents: i j\nvariant: fixed\n"
        "pref i: a > b > c\npref j: b > c > a\n"
    )
    code = main(["manipulate", str(path), "--agent", "i"])
    assert code == 0
    out = capsys.readouterr().out
    assert "b > a > c" in out and "{a, b}" in out


def test_cli_manipulate_past_row_capacity_is_undecided(monkeypatch, capsys, tmp_path):
    from draftkit import cli

    def unreachable(*args):
        raise AssertionError("manipulate allocated past the allocation arrays' capacity")

    build = cli._build_rule
    monkeypatch.setattr(cli, "_build_rule", lambda *args: replace(build(*args), fill=unreachable))
    objs = "abcdefghi"
    path = tmp_path / "nine.txt"
    path.write_text(
        f"universe: {' '.join(objs)}\nagents: i j\nvariant: fixed\n"
        f"pref i: {' > '.join(objs)}\npref j: {' > '.join(reversed(objs))}\n"
    )
    out_file = tmp_path / "report.json"
    argv = ["--out", str(out_file), "--no-timestamp", "manipulate", str(path), "--agent", "i"]
    assert main(argv) == 3
    out = capsys.readouterr()
    assert out.err.startswith("undecided: 9 objects exceeds the allocation arrays' capacity (8)")
    assert out.out == ""
    assert json.loads(out_file.read_text())["exit"] == 3


def test_cli_infer_priority(capsys):
    code = main(["infer-priority", "--rule", "draft-variable", "--priority", "2", "1", "3"])
    assert code == 0
    assert "2 1 3" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["infer-priority", "--priority", "a", "b"], "must list integer agent ids"),
        (["infer-priority", "--priority", "1", "1", "2"], "must list each agent id once"),
        (["run", "ranks-nothing.csv"], "available set must be nonempty"),
    ],
)
def test_cli_refuses_bad_input(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ranks-nothing.csv").write_text("a,|\n")  # one agent who ranks no object
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.err.startswith("error: ") and message in out.err and out.out == ""


@pytest.mark.parametrize(
    "argv, problems",
    [
        (["--axioms", "SP,WSP,EF1,RM,NW,RP", "--variant", "fixed"], 7 * 6**2),
        (["--axioms", "EF1,RM+,CON,NW", "--variant", "variable"], None),
    ],
)
def test_cli_check_allocates_each_problem_once(monkeypatch, capsys, argv, problems):
    from draftkit import cli
    from draftkit.axioms import variable_domain

    calls = []
    build = cli._build_rule

    def counting_rule(name, variant, priority):
        rule = build(name, variant, priority)
        return oracle.scalar_rule(
            rule.name, lambda p: calls.append(p) or rule.run(p), rule.restriction_invariant
        )

    monkeypatch.setattr(cli, "_build_rule", counting_rule)
    code = main(["check", "--rule", "pi-dictatorship", "--agents", "2", "--objects", "3"] + argv)
    assert code in (0, 1)
    if problems is None:
        problems = sum(1 for _ in variable_domain(2, 3).problems())
    assert len(calls) == len(set(calls)) == problems
