"""Command line interface, driven through main(argv)."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import chrkit.cli
from chrkit.cli import main

from conftest import FIXTURES, mutated


def fx(name):
    return str(FIXTURES / f"{name}.chr")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.splitlines()]


def test_parse_prints_the_program_back(capsys):
    code, out, _ = run_cli(capsys, "parse", fx("mau"))
    assert code == 0
    assert out == "r @ p(Y) <=> q(Y).\nrp @ q(Z) <=> Z=a | true.\n"


def test_parse_rejects_bad_files(tmp_path, capsys):
    bad = tmp_path / "bad.chr"
    bad.write_text("r @ p <=>")
    code, _, err = run_cli(capsys, "parse", str(bad))
    assert code == 1
    assert "bad.chr" in err
    code, _, err = run_cli(capsys, "parse", str(tmp_path / "missing.chr"))
    assert code == 1
    assert "cannot read" in err


def test_annotate_numbers_the_bodies(capsys):
    code, out, _ = run_cli(capsys, "annotate", fx("chain"))
    assert code == 0
    assert out == "r @ p(X) <=> q(X)#1.\nv @ q(Y) <=> s(Y)#1.\n"


@pytest.mark.parametrize("argv, flags", [
    (["parse"], ["--max-depth", "--max-states", "--seed"]),
    (["annotate"], ["--max-depth", "--max-states", "--seed"]),
    (["unfold", "--rule", "r"], ["--max-depth", "--max-states", "--seed"]),
    (["check-replace", "--rule", "r"], ["--max-depth", "--max-states", "--seed"]),
    (["run", "--goal", "p(X)"], ["--seed"]),
    (["verify", "--goal", "p(X)"], ["--seed"]),
])
def test_flags_a_command_would_ignore_are_usage_errors(capsys, argv, flags):
    for flag in flags:
        with pytest.raises(SystemExit) as exc:
            main([argv[0], fx("chain"), *argv[1:], flag, "3"])
        assert exc.value.code == 2
    capsys.readouterr()


def test_run_single_goal(capsys):
    code, out, _ = run_cli(capsys, "run", fx("mau"), "--goal", "p(X)")
    assert (code, out) == (0, "q(X)\n")


def test_run_multiple_goals_are_labelled(capsys):
    code, out, _ = run_cli(
        capsys, "run", fx("mau"), "--goal", "p(X)", "--goal", "p(a)"
    )
    assert code == 0
    assert out.splitlines() == ["% goal: p(X)", "q(X)", "% goal: p(a)", "true"]


def test_run_json_schema(capsys):
    code, out, _ = run_cli(capsys, "run", fx("mau"), "--goal", "p(b)", "--json")
    assert code == 0
    [rec] = json_lines(out)
    assert rec == {
        "schema": "chrkit/1",
        "cmd": "run",
        "goal": "p(b)",
        "semantics": "annotated",
        "answers": ["q(b)"],
        "truncated": False,
    }


def test_run_semantics_aliases(capsys):
    for flag, resolved in (("wt", "standard"), ("wt-prime", "annotated")):
        code, out, _ = run_cli(
            capsys, "run", fx("mau"), "--goal", "p(X)", "--semantics", flag, "--json"
        )
        assert code == 0
        assert json_lines(out)[0]["semantics"] == resolved


def test_run_goals_file_with_comments(tmp_path, capsys):
    goals = tmp_path / "goals.txt"
    goals.write_text("p(X)\n% a comment\n\nq(a)  % trailing\n")
    code, out, _ = run_cli(capsys, "run", fx("mau"), "--goals", str(goals))
    assert code == 0
    assert out.splitlines() == ["% goal: p(X)", "q(X)", "% goal: q(a)", "true"]


def test_run_requires_a_goal(capsys):
    code, _, err = run_cli(capsys, "run", fx("mau"))
    assert code == 1
    assert "no goals" in err


def test_run_truncation_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "run", fx("gen_adam"),
        "--goal", "f(adam, seth), f(seth, enosh), f(enosh, kenan)",
        "--max-depth", "1",
    )
    assert code == 3
    assert "truncated" in err


def test_unfold_all_lists_three_variants(capsys):
    code, out, _ = run_cli(capsys, "unfold", fx("gen_adam"), "--rule", "r1", "--all")
    assert code == 0
    assert len(out.splitlines()) == 3


def test_unfold_filters_by_source_and_ids(capsys):
    code, out, _ = run_cli(
        capsys, "unfold", fx("gen_adam"), "--rule", "r1", "--with", "br2"
    )
    assert code == 0
    [line] = out.splitlines()
    assert line.startswith("with br2 at 1,2: r1 @ ")
    code, out, err = run_cli(
        capsys, "unfold", fx("gen_adam"), "--rule", "r1", "--at", "2,1"
    )
    assert code == 0
    assert out == ""
    assert "no unfold sites" in err


def test_unfold_unknown_rule(capsys):
    code, _, err = run_cli(capsys, "unfold", fx("mau"), "--rule", "nope")
    assert code == 1
    assert "no rule named" in err


def test_check_replace_positive(capsys):
    code, out, _ = run_cli(capsys, "check-replace", fx("chain"), "--rule", "r")
    assert code == 0
    assert "rule r is replaceable under the safe criterion" in out
    assert "unfold site: v at 1" in out


def test_check_replace_negative_with_hazard(capsys):
    code, out, _ = run_cli(capsys, "check-replace", fx("matching"), "--rule", "r1")
    assert code == 4
    assert "NOT replaceable" in out
    assert "unify-only" in out


def test_check_replace_weak_json(capsys):
    code, out, _ = run_cli(
        capsys, "check-replace", fx("unicatesta"), "--rule", "r", "--weak", "--json"
    )
    assert code == 0
    [rec] = json_lines(out)
    assert rec["ok"] is True
    assert rec["mode"] == "weak"
    assert rec["sites"] == [{"source": "rp", "ids": [1, 2]}]


def test_transform_writes_program_and_certificate(tmp_path, capsys):
    out_path = tmp_path / "chain2.chr"
    cert_path = tmp_path / "chain2.cert.jsonl"
    code, out, _ = run_cli(
        capsys, "transform", fx("chain"), "--sequence", "r",
        "--goal", "p(a)", "--goal", "p(X), q(b)",
        "--out", str(out_path), "--cert", str(cert_path),
    )
    assert code == 0
    assert str(out_path) in out
    assert out_path.read_text() == (
        "r @ p(X) <=> s(_U1)#2, X=_U1.\nv @ q(Y) <=> s(Y)#1.\n"
    )
    header, *records = [json.loads(l) for l in cert_path.read_text().splitlines()]
    assert header["cmd"] == "transform" and header["sequence"] == ["r"]
    assert [r["goal"] for r in records] == ["p(a)", "p(X), q(b)"]
    assert all(r["equal"] and not r["truncated"] for r in records)


def test_transform_refuses_unsafe_sequences(capsys):
    code, _, err = run_cli(
        capsys, "transform", fx("mau"), "--sequence", "r", "--goal", "p(X)"
    )
    assert code == 1
    assert "replacing r" in err


def test_transform_weak_flags_answer_changes(tmp_path, capsys):
    # the weak criterion accepts this replacement, but the differential
    # certificate still notices that the full answer sets moved
    out_path = tmp_path / "m.chr"
    code, _, err = run_cli(
        capsys, "transform", fx("matching"), "--sequence", "r1", "--weak",
        "--goal", "g(a, R)",
        "--out", str(out_path), "--cert", str(tmp_path / "m.cert.jsonl"),
    )
    assert code == 4
    assert "answers changed" in err


def test_transform_reports_a_budget_hit_with_exit_3(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "transform", fx("chain"), "--sequence", "r", "--goal", "p(X)",
        "--max-states", "1", "--json",
        "--out", str(tmp_path / "c.chr"), "--cert", str(tmp_path / "c.cert.jsonl"),
    )
    assert code == 3
    _, record = json_lines(out)
    assert record["truncated"] is True and record["equal"] is True


@pytest.mark.parametrize("flag", ["--out", "--cert"])
def test_transform_into_a_missing_directory_exits_1(tmp_path, capsys, flag):
    code, _, err = run_cli(
        capsys, "transform", fx("chain"), "--sequence", "r", "--goal", "p(X)",
        "--out", str(tmp_path / "c.chr"), "--cert", str(tmp_path / "c.cert.jsonl"),
        flag, str(tmp_path / "missing" / "x"),
    )
    assert code == 1
    assert err.startswith("chrkit: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_verify_with_a_witness_dir_under_a_file_exits_1(tmp_path, capsys):
    prog = tmp_path / "loop.chr"
    prog.write_text("r @ p(X) <=> p(X).\n")
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file\n")
    code, _, err = run_cli(
        capsys, "verify", str(prog), "--goal", "p(a)",
        "--witness-dir", str(blocker / "w"),
    )
    assert code == 1
    assert err.startswith("chrkit: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_verify_table_and_exit(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "verify", fx("solve_order_loop"),
        "--goal", "V=d, p(V)", "--goal", "p(a)",
        "--witness-dir", str(tmp_path / "w"),
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["goal", "termination", "confluence", "qa-equal"]
    assert lines[1].startswith("V=d, p(V)")
    assert "terminates" in lines[1] and "yes" in lines[1]
    assert lines[-1].startswith("% bounded search")
    assert not (tmp_path / "w").exists()  # nothing to witness


def test_verify_writes_witness_files(tmp_path, capsys):
    prog = tmp_path / "branch.chr"
    prog.write_text("a @ p <=> q.\nb @ p <=> r.\nl @ s <=> s.\n")
    wdir = tmp_path / "w"
    code, out, _ = run_cli(
        capsys, "verify", str(prog), "--goal", "p", "--goal", "s",
        "--witness-dir", str(wdir),
    )
    assert code == 0
    assert "not-confluent" in out and "diverges" in out
    names = sorted(f.name for f in wdir.iterdir())
    assert names == ["witness-01-confluence.txt", "witness-02-cycle.txt"]
    assert "goal: s" in (wdir / "witness-02-cycle.txt").read_text()


def test_verify_json_records(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "verify", fx("chain"), "--goal", "p(a)", "--json",
        "--witness-dir", str(tmp_path / "w"),
    )
    assert code == 0
    [rec] = json_lines(out)
    assert rec["termination"] == "terminates"
    assert rec["confluence"] == "confluent"
    assert rec["qa_equal"] is True
    assert rec["witnesses"] == []


def test_verify_truncation_exit(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "verify", fx("gen_adam"),
        "--goal", "f(adam, seth), f(seth, enosh), f(enosh, kenan)",
        "--max-depth", "1", "--witness-dir", str(tmp_path / "w"),
    )
    assert code == 3


def test_deep_terms_end_with_an_exit_code_not_a_traceback(tmp_path, capsys):
    prog = tmp_path / "copy.chr"
    prog.write_text(
        "r @ p(s(X), Y) <=> Y = s(Z), p(X, Z), d(Z).\nz @ p(z, Y) <=> Y = z.\n"
    )
    depth = 400

    def nat(n):
        return f"{'s(' * n}z{')' * n}"

    code, out, err = run_cli(
        capsys, "run", str(prog), "--max-depth", str(depth + 1),
        "--goal", f"p({nat(depth)}, N)",
    )
    assert (code, err) == (0, "")
    trail = sorted(f"d({nat(k)})" for k in range(depth))
    assert out == ", ".join(trail + [f"N={nat(depth)}"]) + "\n"


def test_a_goal_nested_5000_deep_runs_to_its_answer(tmp_path, capsys):
    prog = tmp_path / "wrap.chr"
    prog.write_text("r @ p(X, Y) <=> Y = f(X), q(Y).\n")
    depth = 5000
    deep = f"{'g(' * depth}a{')' * depth}"
    code, out, err = run_cli(capsys, "run", str(prog), "--goal", f"p({deep}, N)")
    assert (code, err) == (0, "")
    assert out == f"q(f({deep})), N=f({deep})\n"


@pytest.mark.parametrize("semantics", ["standard", "annotated"])
@pytest.mark.parametrize("goal, answer", [
    ("X = {t}, X = {t}, p(X)", "q({t}), X={t}"),
    ("p({t}), p({t})", "q({t}), q({t})"),
])
def test_two_equal_700_deep_terms_are_compared_without_recursion(
    tmp_path, capsys, semantics, goal, answer
):
    prog = tmp_path / "copy.chr"
    prog.write_text("r @ p(X) <=> q(X).\n")
    deep = _nested("s(", 700, "z")
    code, out, err = run_cli(
        capsys, "run", str(prog), "--semantics", semantics,
        "--goal", goal.format(t=deep),
    )
    assert (code, err) == (0, "")
    assert out == answer.format(t=deep) + "\n"


@pytest.mark.parametrize("semantics", ["standard", "annotated"])
def test_states_with_equal_700_deep_bindings_are_compared_without_recursion(
    tmp_path, capsys, semantics
):
    # both firings leave q, q and a 700-deep binding of a rule variable
    # that no atom holds; deduplicating the two states reads the bindings
    prog = tmp_path / "drop.chr"
    prog.write_text("r @ p(X) <=> q.\n")
    deep = _nested("s(", 700, "z")
    code, out, err = run_cli(
        capsys, "run", str(prog), "--semantics", semantics,
        "--goal", f"p({deep}), p({deep})",
    )
    assert (code, out, err) == (0, "q, q\n", "")


@pytest.mark.parametrize("semantics", ["standard", "annotated"])
def test_states_of_1200_equal_atoms_are_compared_without_recursion(
    tmp_path, capsys, semantics
):
    prog = tmp_path / "drop.chr"
    prog.write_text("r @ p(X) <=> q.\n")
    code, _, err = run_cli(
        capsys, "run", str(prog), "--semantics", semantics,
        "--goal", ", ".join(["p(a)"] * 1200), "--max-depth", "1", "--max-states", "3",
    )
    assert code == 3
    assert "truncated" in err


def test_a_1500_deep_rule_body_is_unfolded_checked_and_transformed(tmp_path, capsys):
    # unfolding q records the equation Z = s^1500(z), which is deduplicated
    # by its printed text
    deep = _nested("s(", 1500, "z")
    prog = tmp_path / "deep.chr"
    prog.write_text(f"r @ p(X) <=> q(X, {deep}).\nv @ q(Y, Z) <=> t(Y, Z).\n")
    unfolded = f"r @ p(X) <=> t(_U1,_U2)#2, X=_U1, {deep}=_U2.\n"
    code, out, err = run_cli(capsys, "unfold", str(prog), "--rule", "r", "--all")
    assert (code, out, err) == (0, unfolded, "")
    code, out, err = run_cli(capsys, "check-replace", str(prog), "--rule", "r")
    assert (code, err) == (0, "")
    assert out.startswith("rule r is replaceable under the safe criterion\n")
    out_path = tmp_path / "deep2.chr"
    code, _, err = run_cli(
        capsys, "transform", str(prog), "--sequence", "r", "--goal", "p(a)",
        "--out", str(out_path), "--cert", str(tmp_path / "deep2.cert.jsonl"),
    )
    assert (code, err) == (0, "")
    assert out_path.read_text() == unfolded + "v @ q(Y,Z) <=> t(Y,Z)#1.\n"


# Fresh names skip the names the program and the goal already use: a goal
# or rule variable named like a fresh one is never captured.


@pytest.mark.parametrize("semantics", ["standard", "annotated"])
def test_a_goal_variable_named_like_a_renamed_rule_variable_stays_apart(
    tmp_path, capsys, semantics
):
    prog = tmp_path / "pair.chr"
    prog.write_text("r @ p(X, X) <=> q.\n")
    code, out, err = run_cli(
        capsys, "run", str(prog), "--semantics", semantics, "--goal", "p(_R1, a)"
    )
    assert (code, out, err) == (0, "p(_R1,a)\n", "")


def test_answer_locals_skip_goal_variables_named_like_them(tmp_path, capsys):
    prog = tmp_path / "local.chr"
    prog.write_text("r @ p(X) <=> q(X, Y).\n")
    code, out, err = run_cli(capsys, "run", str(prog), "--goal", "p(_L1)")
    assert (code, out, err) == (0, "q(_L1,_L2)\n", "")


def test_an_unfolding_skips_the_target_rules_variable_names(tmp_path, capsys):
    prog = tmp_path / "u.chr"
    prog.write_text("r @ p(A) <=> q(A, _U1).\ns @ q(X, Y) <=> t(X, Y).\n")
    out_path = tmp_path / "u2.chr"
    cert_path = tmp_path / "u2.cert.jsonl"
    code, _, err = run_cli(
        capsys, "transform", str(prog), "--sequence", "r", "--goal", "p(a)",
        "--out", str(out_path), "--cert", str(cert_path),
    )
    assert (code, err) == (0, "")
    assert out_path.read_text().splitlines()[0] == (
        "r @ p(A) <=> t(_U2,_U3)#2, A=_U2, _U1=_U3."
    )
    _, record = [json.loads(l) for l in cert_path.read_text().splitlines()]
    assert record["equal"] is True
    assert record["answers_after"] == record["answers_before"] == ["t(a,_L1)"]


def test_an_ambiguous_rule_name_exits_1(tmp_path, capsys):
    # a weak transform keeps every unfolded version of r1 under its name
    out_path = tmp_path / "out.chr"
    code, _, _ = run_cli(
        capsys, "transform", fx("gen_adam"), "--sequence", "r1", "--weak",
        "--goal", "f(a,b)", "--out", str(out_path),
        "--cert", str(tmp_path / "out.cert"),
    )
    assert code == 0
    code, out, err = run_cli(capsys, "check-replace", str(out_path), "--rule", "r1")
    assert (code, out, err) == (1, "", "chrkit: rule name 'r1' is ambiguous\n")


def test_malformed_id_and_rule_lists_exit_1(tmp_path, capsys):
    code, out, err = run_cli(capsys, "unfold", fx("mau"), "--rule", "r", "--at", "1,x")
    assert (code, out) == (1, "")
    assert err == "chrkit: --at wants a comma separated id list, got '1,x'\n"
    code, out, err = run_cli(
        capsys, "transform", fx("mau"), "--sequence", " , ", "--goal", "p(X)",
        "--out", str(tmp_path / "out.chr"),
    )
    assert (code, out) == (1, "")
    assert err == "chrkit: --sequence wants a comma separated list of rule names\n"
    assert list(tmp_path.iterdir()) == []


def test_library_errors_become_one_line_messages(monkeypatch, capsys):
    def broken(args):
        raise ValueError("first line\nsecond line")

    monkeypatch.setattr(chrkit.cli, "cmd_parse", broken)
    code, out, err = run_cli(capsys, "parse", fx("mau"))
    assert code == 1
    assert err == "chrkit: ValueError: first line second line\n"


FUZZ_GOALS = ("p(X)", "f(X, Y), f(Y, Z)", "g(a, R)", "h, h", "V=d, p(V)", "q(b), h(V)")


def _nested(prefix, depth, leaf):
    return prefix * depth + leaf + ")" * depth


@st.composite
def fuzz_calls(draw):
    """A command on a mutated fixture program, with a mutated goal or one
    holding a term at least 2,000 deep or 200 arguments wide."""
    fixture = draw(st.sampled_from(sorted(FIXTURES.glob("*.chr"))))
    text = fixture.read_text()
    rule = draw(st.sampled_from([line.split("@")[0].strip()
                                 for line in text.splitlines() if "@" in line]))
    depth = draw(st.integers(2000, 2500))
    width = draw(st.integers(200, 300))
    arg = draw(st.sampled_from((
        _nested("s(", depth, "z"),
        _nested("g(a,", depth, "X"),
        "w(" + ",".join(draw(st.sampled_from(("a", "X", "f(Y)"))) for _ in range(width)) + ")",
    )))
    goal = draw(st.one_of(
        st.sampled_from(FUZZ_GOALS).flatmap(mutated),
        st.sampled_from((f"p({arg})", f"f({arg}, Y), f(Y, Z)", f"X = {arg}, p(X)")),
    ))
    command = draw(st.sampled_from(
        ("parse", "annotate", "run", "verify", "check-replace", "unfold")
    ))
    return draw(st.one_of(st.just(text), mutated(text))), command, rule, goal


@settings(max_examples=60, deadline=None)
@given(fuzz_calls())
def test_any_input_ends_with_an_exit_code_not_a_traceback(call):
    text, command, rule, goal = call
    with tempfile.TemporaryDirectory() as tmp:
        prog = Path(tmp) / "fuzz.chr"
        prog.write_text(text)
        argv = [command, str(prog)]
        if command in ("run", "verify"):
            argv += ["--goal", goal, "--max-depth", "3", "--max-states", "40"]
        if command == "verify":
            argv += ["--witness-dir", str(Path(tmp) / "w")]
        if command in ("check-replace", "unfold"):
            argv += ["--rule", rule]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in range(5)
    assert "Traceback" not in err.getvalue()
