"""Concrete syntax: scanner, parser, printer, annotation."""

import pytest

from chrkit.syntax import (
    IdAtom,
    ParseError,
    Program,
    Rule,
    Token,
    annotate,
    clean_tokens,
    identify_atoms,
    parse_goal,
    parse_program,
    print_program,
    print_rule,
    strip_annotations,
)
from chrkit.terms import Compound, Equation, FalseConstraint, Var, const

from conftest import FIXTURES, load


def test_simplification_rule_shape():
    p = parse_program("r @ p(X), q(X) <=> X=a | s(X).")
    (r,) = p.rules
    assert r.name == "r"
    assert r.kept == ()
    assert len(r.removed) == 2
    assert r.guard == (Equation(Var("X"), const("a")),)
    assert r.body == (Compound("s", (Var("X"),)),)
    assert r.removed


def test_propagation_rule_shape():
    p = parse_program("r @ p(X) ==> q(X).")
    (r,) = p.rules
    assert r.kept == (Compound("p", (Var("X"),)),)
    assert r.removed == ()
    assert not r.removed


def test_simpagation_rule_shape():
    p = parse_program("r @ p(X) \\ q(Y) <=> r(X, Y).")
    (r,) = p.rules
    assert r.kept == (Compound("p", (Var("X"),)),)
    assert r.removed == (Compound("q", (Var("Y"),)),)


def test_rule_names_are_required():
    with pytest.raises(ParseError):
        parse_program("p <=> q.")


def test_plain_programs_need_unique_rule_names():
    with pytest.raises(ParseError):
        parse_program("r @ p <=> q.\nr @ q <=> s.")
    # annotated programs may repeat names (unfolding duplicates them)
    p = parse_program("r @ p <=> q#1.\nr @ q <=> s#1.")
    assert len(p.rules) == 2


def test_body_can_mix_atoms_builtins_and_false():
    p = parse_program("r @ p(X) <=> q(X), X=a, false.")
    (r,) = p.rules
    kinds = [type(it) for it in r.body]
    assert kinds == [Compound, Equation, FalseConstraint]


def test_annotated_rule_with_tokens_parses():
    p = parse_program("r @ h <=> k#1, s#2 ; {r2@1,2}.")
    (r,) = p.rules
    assert p.annotated
    assert r.body_idents() == (1, 2)
    assert r.tokens == frozenset({Token("r2", (1, 2))})


def test_goal_parsing():
    goal = parse_goal("X=a, p(X), q(b)")
    assert len(goal) == 3
    assert isinstance(goal[0], Equation)


@pytest.mark.parametrize(
    "text",
    [
        "p <=> q",                      # missing final dot
        "r @ <=> q.",                   # empty head
        "r @ p ==> .",                  # empty body
        "r @ p \\ q ==> s.",            # kept atoms with a propagation arrow
        "r @ p <=> q # .",              # identifier is not an integer
        "r @ p <=> q ; {r@1}.",         # token with no identified atoms
        "r @ X <=> q.",                 # variable as a head atom
        "r @ p <=> q#1, s#1.",          # duplicate identifiers
        "p(X, .",                       # junk inside a term
    ],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_program(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("r @ X = a <=> true.", "rule heads must be user-defined constraints"),
        ("r @ p <=> | q.", "empty guard"),
        ("r @ p <=> q | true.", "guards may contain only equations"),
    ],
)
def test_parse_error_messages(text, message):
    with pytest.raises(ParseError, match=message):
        parse_program(text)


def test_goals_take_no_identifiers_and_an_optional_final_dot():
    with pytest.raises(ParseError, match="goals are written without identifiers"):
        parse_goal("p(X)#1")
    assert parse_goal("p(X).") == parse_goal("p(X)")


def test_a_false_body_prints_back_unchanged():
    assert print_program(parse_program("r @ p <=> false.")) == "r @ p <=> false.\n"


def test_parse_error_carries_position():
    try:
        parse_program("r @ p <=>\nq #.")
    except ParseError as e:
        assert e.line == 2
    else:
        pytest.fail("expected a ParseError")


def test_plain_and_annotated_rules_do_not_mix():
    with pytest.raises(ParseError):
        parse_program("a @ p <=> q.\nb @ p <=> q#1.")


def test_fixture_roundtrips():
    for path in sorted(FIXTURES.glob("*.chr")):
        program = parse_program(path.read_text())
        assert parse_program(print_program(program)) == program


def test_annotated_roundtrip():
    p = annotate(load("token_update"))
    assert parse_program(print_program(p)) == p


def test_print_rule_spells_all_parts():
    p = parse_program("r @ k(X) \\ p(X) <=> X=b | q(X), X=a.")
    assert print_rule(p.rules[0]) == "r @ k(X) \\ p(X) <=> X=b | q(X), X=a."


def test_annotate_numbers_bodies_from_one():
    p = annotate(parse_program("r @ p <=> q, X=a, s."))
    (r,) = p.rules
    assert r.body_idents() == (1, 2)
    assert [b.ident for b in r.body if isinstance(b, IdAtom)] == [1, 2]
    assert r.tokens == frozenset()


def test_strip_annotations_inverts_annotate():
    plain = load("gen_adam")
    assert strip_annotations(annotate(plain)) == plain


def test_identify_atoms_offsets():
    items = (Compound("p", ()), Equation(Var("X"), const("a")), Compound("q", ()))
    out, last = identify_atoms(items)
    assert last == 2
    assert out[0] == IdAtom(Compound("p", ()), 1)
    assert isinstance(out[1], Equation)
    assert out[2] == IdAtom(Compound("q", ()), 2)


def test_identify_atoms_rejects_preidentified_input():
    with pytest.raises(ValueError):
        identify_atoms((IdAtom(Compound("p", ()), 1),))


def test_clean_tokens_drops_dangling_identifiers():
    live = (IdAtom(Compound("k", ()), 1),)
    toks = {Token("r", (1,)), Token("r", (1, 2)), Token("q", (3,))}
    assert clean_tokens(toks, live) == frozenset({Token("r", (1,))})
    assert clean_tokens(toks, ()) == frozenset()
    assert clean_tokens((), live) == frozenset()


def test_validate_rejects_token_ids_outside_body():
    r = Rule("r", (), (Compound("p", ()),), (),
             (IdAtom(Compound("q", ()), 1),),
             frozenset({Token("x", (7,))}))
    with pytest.raises(ValueError):
        Program((r,), annotated=True).validate()


def test_validate_rejects_annotations_in_plain_program():
    r = Rule("r", (), (Compound("p", ()),), (),
             (IdAtom(Compound("q", ()), 1),))
    with pytest.raises(ValueError):
        Program((r,), annotated=False).validate()


def test_comments_and_whitespace_are_ignored():
    text = "% leading note\nr @ p <=>   % inline\n   q.\n\n"
    p = parse_program(text)
    assert len(p.rules) == 1
    assert p.rules[0].body == (Compound("q", ()),)
