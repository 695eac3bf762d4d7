import json

import pytest

from draftkit.cli import main
from draftkit.problemfile import (
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
                "note": UNIQUE,
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
        (["P4"], {"premise_holds": 1, "rules_checked": 209, "violations": 0}),
        (["L1"], {"checked": 1764, "ok": True, "survivors_swept": 1}),
        (["L8"], {"checked": 24, "ok": True}),
    ],
)
def test_cli_verify_extension_detail_is_pinned(tmp_path, capsys, argv, detail):
    out = tmp_path / "report.json"
    assert main(["--out", str(out), "--no-timestamp", "verify"] + argv) == 0
    expected = {"command": "verify", "detail": detail, "exit": 0, "theorem": argv[0]}
    assert out.read_text() == json.dumps(expected, indent=2, sort_keys=True) + "\n"


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


@pytest.mark.parametrize(
    "argv",
    [
        ["T1", "--objects", "0"],
        ["L1", "--agents", "0"],
        ["T2", "--objects", "-1"],
        ["T5", "--agents", "1"],
        ["T4", "--objects", "3"],
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


@pytest.mark.parametrize("theorem", ["T2", "T3"])
def test_cli_verify_grid_capacity_is_undecided(monkeypatch, capsys, theorem):
    from draftkit import verifier

    def build_grid(*args, **kwargs):
        raise AssertionError("the grid was built past its capacity")

    monkeypatch.setattr(verifier, "build_grid", build_grid)
    assert main(["verify", theorem, "--objects", "7", "--i-know-this-is-huge"]) == 3
    out = capsys.readouterr()
    assert out.err.startswith("undecided: 7 objects exceeds the grid") and out.out == ""


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


def test_cli_infer_priority(capsys):
    code = main(["infer-priority", "--rule", "draft-variable", "--priority", "2", "1", "3"])
    assert code == 0
    assert "2 1 3" in capsys.readouterr().out


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
    from draftkit.rules import Rule

    calls = []
    build = cli._build_rule

    def counting_rule(name, variant, priority):
        rule = build(name, variant, priority)
        return Rule(rule.name, lambda p: calls.append(p) or rule.run(p), rule.restriction_invariant)

    monkeypatch.setattr(cli, "_build_rule", counting_rule)
    code = main(["check", "--rule", "pi-dictatorship", "--agents", "2", "--objects", "3"] + argv)
    assert code in (0, 1)
    if problems is None:
        problems = sum(1 for _ in variable_domain(2, 3).problems())
    assert len(calls) == len(set(calls)) == problems
