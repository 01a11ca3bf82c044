"""A derivation step pays for what it changes: rules renamed only when they
fire, solved forms memoised, answers printed once. Each is property-tested
against the version it replaces, and work gates count what is left."""

import gc
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import load
from test_matching import GOAL_VARS, HEAD_VARS, LOCAL, SHAPES, programs
from test_matching import terms as terms_over
from test_term_walkers import ref_rename_vars, substitutions, terms_st

from chrkit import cli
from chrkit.constraints import FAILED, TRUE, Store, conjoin, entails_exists
from chrkit.semantics import annotated, matching, search, standard
from chrkit.semantics.matching import Firing, enumerate_firings, head_assignments
from chrkit.semantics.search import explore
from chrkit.syntax import IdAtom, Rule, Token, annotate, parse_goal, parse_program
from chrkit.terms import (
    Compound,
    Equation,
    FalseConstraint,
    FreshSupply,
    Subst,
    Term,
    Var,
    const,
    map_terms,
    rename_vars,
    solved_form,
    walk,
)

# ------------------------------------------------------------- reference
# The term walkers and head matcher as they were before, kept verbatim;
# each calls the other references in place of the functions this file
# checks.


def ref_vars_in_order(obj) -> dict:
    """The free variables of a term, an equation, or any nesting of
    iterables and objects with a ``map_terms`` method, as the keys of a
    dict in order of first appearance (preorder, left to right)."""
    out: dict = {}
    # a stack of iterators over children, each resumed where the walk left it
    stack = [iter((obj,))]
    while stack:
        for o in stack[-1]:
            cls = type(o)
            if cls is Var:
                out[o] = None
            elif cls is Compound:
                if o.args:
                    stack.append(iter(o.args))
                    break
            elif cls is Equation:
                stack.append(iter((o.lhs, o.rhs)))
                break
            elif cls in (tuple, list, set, frozenset):
                stack.append(iter(o))
                break
            elif cls is FalseConstraint:
                pass
            elif hasattr(o, "map_terms"):
                parts: list = []
                o.map_terms(lambda t: (parts.append(t), t)[1])
                stack.append(iter(parts))
                break
            else:
                raise TypeError(f"cannot collect variables from {o!r}")
        else:
            stack.pop()
    return out


def ref_vars_of(obj) -> set:
    """Free variables of a term, an equation, or any nesting of iterables."""
    return set(ref_vars_in_order(obj))


def ref_rebuild(t: Term, sub: Subst, chase: bool) -> Term:
    """The term with each variable V replaced by its image through ``sub``:
    the end of V's chain of bindings when ``chase`` (a triangular
    substitution), ``sub.get(V, V)`` otherwise (a renaming). A compound
    image is rebuilt in turn."""
    # a frame per compound: functor, iterator over args, args rebuilt so
    # far; the bottom frame collects the result
    stack = [(None, iter((t,)), [])]
    while True:
        functor, rest, done = stack[-1]
        for a in rest:
            if isinstance(a, Var):
                a = walk(a, sub) if chase else sub.get(a, a)
                if isinstance(a, Var):
                    done.append(a)
                    continue
            if a.args:
                stack.append((a.functor, iter(a.args), []))
                break
            done.append(a)
        else:
            stack.pop()
            if not stack:
                return done[0]
            stack[-1][2].append(Compound(functor, tuple(done)))


def ref_resolve(t: Term, sub: Subst) -> Term:
    """Apply a (possibly triangular) substitution exhaustively."""
    t = walk(t, sub)
    if isinstance(t, Var) or not t.args:
        return t
    return ref_rebuild(t, sub, True)


def ref_rename_vars_rebuilt(obj, mapping: Subst):
    """Apply a Var -> Var renaming in a single simultaneous step.

    Unlike apply_subst, images are never looked up again, so mappings that
    swap or chain names (X -> Y, Y -> X) behave as a plain bijection.
    """
    return map_terms(obj, ref_rebuild, mapping, False)


def ref_solved_form(sub: Subst) -> Subst:
    """Idempotent version of a triangular substitution."""
    out: Subst = {}
    for v in sub:
        t = ref_resolve(v, sub)
        if t != v:
            out[v] = t
    return out


def ref_rename_apart(obj, vars_to_rename=None, fresh=None):
    """Rename the object's variables to fresh ones, by default from a new
    ``FreshSupply()`` that avoids the object's variables; returns
    (renamed, mapping)."""
    names = ref_vars_of(obj)
    if vars_to_rename is None:
        vars_to_rename = names
    fresh = fresh or FreshSupply(avoid=names)
    mapping: Subst = {v: fresh.fresh() for v in sorted(vars_to_rename, key=lambda v: v.name)}
    return ref_rename_vars_rebuilt(obj, mapping), mapping


def ref_enumerate_firings(program, atoms, builtins: Store, tokens, fresh=None):
    """All firings of program rules on the given identified atoms.

    Enumeration order is deterministic: program order, then assignments over
    atoms sorted by identifier. Each rule is renamed apart once per call,
    from ``fresh``, which must avoid the atoms' variables (by default a
    ``FreshSupply()`` that does). On a failed store every assignment fires.
    """
    ordered = sorted(atoms, key=lambda a: a.ident)
    index = matching.functor_index(ordered)
    mgu = None if builtins.failed else builtins.mgu()
    fresh = fresh or FreshSupply(avoid=ref_vars_of(ordered))
    out = []
    for idx, rule in enumerate(program.rules):
        renamed, _ = ref_rename_apart(rule, fresh=fresh)
        heads = renamed.heads
        for chosen, theta in head_assignments(heads, ordered, index, mgu):
            combo = tuple(ordered[j] for j in chosen)
            token = Token(rule.name, tuple(a.ident for a in combo))
            if token in tokens:
                continue
            # theta's terms share no variable with its keys, so rename_vars
            # applies it in one simultaneous step
            if renamed.guard and not entails_exists(
                builtins, (), ref_rename_vars_rebuilt(renamed.guard, theta)
            ):
                continue
            nk = len(renamed.kept)
            eqs = matching.argument_equations(combo, heads)
            out.append(Firing(idx, renamed, combo[:nk], combo[nk:], eqs, token))
    return out


# ------------------------------------------------------------ strategies

LEAVES = tuple(Var(f"V{i}") for i in range(8))
TERM_CONSTS = (const("a"), const("b"))


@st.composite
def triangular_substitutions(draw):
    """A triangular substitution: a variable is free, a link in a chain to
    a later one, or bound to a term over later variables; some images are
    made of earlier images, so subterms are shared. The keys come in any
    order."""
    n = draw(st.integers(1, len(LEAVES)))
    images: dict = {}
    pool: list = []  # compound images drawn so far, each over later variables
    for i in reversed(range(n)):
        later = LEAVES[i + 1:n]
        kind = draw(st.sampled_from(("free", "link", "term", "shared", "self")))
        if kind == "link" and later:
            images[LEAVES[i]] = draw(st.sampled_from(later))
        elif kind == "shared" and pool:
            parts = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
            images[LEAVES[i]] = Compound("g", tuple(parts))
            pool.append(images[LEAVES[i]])
        elif kind == "self":
            images[LEAVES[i]] = LEAVES[i]
        elif kind == "term":
            t = draw(terms_over(later + TERM_CONSTS, 2) if later else st.sampled_from(TERM_CONSTS))
            images[LEAVES[i]] = t
            if isinstance(t, Compound):
                pool.append(t)
    keys = draw(st.permutations(list(images)))
    return {k: images[k] for k in keys}


# the atoms and the store may use the rules' own variable names, and the
# names the supply hands out
STATE_VARS = GOAL_VARS + HEAD_VARS + (LOCAL,)
STATE_TERMS = terms_over(STATE_VARS, 1)
STATE_ATOMS = st.one_of(*(
    st.tuples(*[st.one_of(st.sampled_from(STATE_VARS), STATE_TERMS)] * n).map(
        lambda args, f=f: Compound(f, args)
    )
    for f, n in SHAPES
))


@st.composite
def states(draw):
    """Atoms with distinct identifiers in any order, a built-in store
    (sometimes failed) and recorded tokens over the atoms."""
    atoms = draw(st.lists(STATE_ATOMS, min_size=1, max_size=5))
    idents = draw(st.permutations(range(1, len(atoms) + 1)))
    stated = tuple(IdAtom(a, i) for a, i in zip(atoms, idents))
    eqs = draw(st.lists(
        st.builds(Equation, st.sampled_from(STATE_VARS), STATE_TERMS), max_size=4,
    ))
    store = TRUE
    for e in eqs:
        if not conjoin(store, [e]).failed:
            store = conjoin(store, [e])
    if draw(st.sampled_from((False,) * 7 + (True,))):
        store = FAILED
    tokens = frozenset(draw(st.lists(
        st.builds(
            Token,
            st.sampled_from(("r0", "r1", "r2")),
            st.lists(st.sampled_from(idents), min_size=1, max_size=3, unique=True).map(tuple),
        ),
        max_size=4,
    )))
    return stated, store, tokens


# ------------------------------------------------------------ properties


@settings(deadline=None, max_examples=300)
@given(st.one_of(triangular_substitutions(), substitutions()))
@example({  # V1's image is rebuilt once, then read from the memo
    LEAVES[0]: Compound("f", (LEAVES[1], LEAVES[1])),
    LEAVES[1]: Compound("g", (LEAVES[2], const("a"))),
    LEAVES[2]: LEAVES[3],
    LEAVES[3]: const("b"),
})
def test_solved_form_matches_the_unmemoised_reference(sub):
    assert solved_form(sub) == ref_solved_form(sub)


@given(st.one_of(terms_st, st.lists(terms_st, max_size=3).map(tuple)),
       st.dictionaries(st.sampled_from((Var("X"), Var("Y"), Var("Z"))), terms_st))
def test_rename_vars_takes_compound_images_as_they_are(obj, sub):
    # the recursive reference never looks an image up again
    assert rename_vars(obj, sub) == ref_rename_vars(obj, sub)


@settings(max_examples=400, deadline=None)
@given(programs(), states(), st.sampled_from(("_R", "_V")), st.sampled_from(("standard", "annotated")))
# a guard's own variable shares its name with a variable the head matched:
# the matched term keeps its variable
@example(
    parse_program("r0 @ p(X) <=> X = f(Y) | true."),
    ((IdAtom(Compound("p", (Compound("f", (Var("Y"),)),)), 1),), TRUE, frozenset()),
    "_R",
    "standard",
)
# an atom variable named like the first fresh one: the supply skips it
@example(
    parse_program("r0 @ p(X, X) <=> q."),
    ((IdAtom(Compound("p", (Var("_R1"), const("a"))), 1),), TRUE, frozenset()),
    "_R",
    "annotated",
)
def test_enumeration_matches_the_rename_every_rule_reference(program, state, prefix, semantics):
    if semantics == "annotated":
        program = annotate(program)
    atoms, store, tokens = state
    avoid = ref_vars_of(atoms)
    fresh_new, fresh_ref = FreshSupply(prefix, avoid), FreshSupply(prefix, avoid)
    new = enumerate_firings(program, atoms, store, tokens, fresh_new)
    ref = ref_enumerate_firings(program, atoms, store, tokens, fresh_ref)
    # a Firing compares every field, the renamed rule included
    assert new == ref
    # the supplies stand at the same name
    assert fresh_new.fresh() == fresh_ref.fresh()


def test_the_rule_cache_lives_on_the_rule():
    program = parse_program("r @ p(X) <=> q(X).")
    atoms = (IdAtom(Compound("p", (const("a"),)), 1),)
    assert enumerate_firings(program, atoms, TRUE, frozenset())
    assert program.rules[0].variables == (Var("X"),)
    dead = weakref.ref(program)
    del program
    gc.collect()
    assert dead() is None


# ------------------------------------------------------------- work gates


def peano(depth: int) -> str:
    return "s(" * depth + "z" + ")" * depth


COPY = parse_program("r @ p(s(X), Y) <=> Y = s(Z), p(X, Z), d(Z).")


def test_a_rule_is_renamed_only_when_it_has_a_surviving_firing(monkeypatch):
    program = load("matching")
    renamed = []

    def logging_rename(obj, mapping):
        if isinstance(obj, Rule):
            renamed.append(obj.name)
        return rename_vars(obj, mapping)

    calls = []

    def checked(*args):
        renamed.clear()
        out = enumerate_firings(*args)
        calls.append(out)
        # at most once per rule, and only for the rules that fire
        assert sorted(renamed) == sorted({f.rule.name for f in out})
        return out

    monkeypatch.setattr(matching, "rename_vars", logging_rename)
    for mod in (standard, annotated):
        monkeypatch.setattr(mod, "enumerate_firings", checked)
    for goal in ("g(a, B)", "g(C, B)", "f(a, W), f(b, V), g(b, U)"):
        for semantics in ("standard", "annotated"):
            explore(program, parse_goal(goal), semantics=semantics)
    assert any(calls) and not all(calls)


@pytest.mark.parametrize("json", [False, True])
def test_run_prints_each_answer_item_at_most_twice(monkeypatch, capsys, tmp_path, json):
    goal = f"p({peano(20)}, A)"
    (answer,) = search.qualified_answers(
        COPY, parse_goal(goal), semantics="standard", max_applies=22
    ).answers
    items = len(answer.atoms) + len(answer.builtins)
    printed = []

    def counting(item):
        printed.append(item)
        return real(item)

    real = search.print_item
    monkeypatch.setattr(search, "print_item", counting)
    path = tmp_path / "copy.chr"
    path.write_text("r @ p(s(X), Y) <=> Y = s(Z), p(X, Z), d(Z).\n")
    argv = ["run", str(path), "--goal", goal, "--semantics", "standard", "--max-depth", "22"]
    assert cli.main(argv + (["--json"] if json else [])) == 0
    assert answer.text in capsys.readouterr().out
    # once for render_answer's sort, once for the text
    assert 0 < len(printed) <= 2 * items
