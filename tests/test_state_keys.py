"""Renaming-invariant state fingerprints and the pruned equivalence check,
property-tested against the unpruned check they replace, plus work-count
gates on the searches that use them."""

from typing import Dict, Optional

import pytest
from hypothesis import example, given, settings, strategies as st

from chrkit import equivalence
from chrkit.constraints import TRUE, Store, conjoin
from chrkit.semantics import search
from chrkit.semantics.search import explore
from chrkit.syntax import IdAtom, Token, clean_tokens, parse_goal, parse_program
from chrkit.terms import Compound, Equation, Var, const, rename_vars, vars_of

from test_constraints import reference_stores_equivalent

# ------------------------------------------------------------- reference
# The unpruned comparison: atom matching, then a bijection search over the
# leftover store variables with a from-scratch store comparison at every
# leaf. It is kept verbatim, except that the leaf calls the mutual-entailment
# reference kept in tests/test_constraints.py, not the code under test.


def _match_term(ta, tb, rho: Dict, fixed) -> Optional[Dict]:
    """Extend the injective variable map rho so that ta renamed equals tb."""
    if isinstance(ta, Var) and isinstance(tb, Var):
        if ta in fixed or tb in fixed:
            return rho if ta == tb else None
        if ta in rho:
            return rho if rho[ta] == tb else None
        if tb in rho.values():
            return None
        out = dict(rho)
        out[ta] = tb
        return out
    if isinstance(ta, Compound) and isinstance(tb, Compound):
        if ta.functor != tb.functor or len(ta.args) != len(tb.args):
            return None
        for x, y in zip(ta.args, tb.args):
            rho = _match_term(x, y, rho, fixed)
            if rho is None:
                return None
        return rho
    return None


def _match_atom_sets(todo, avail, fixed, rho, idmap):
    """Yield (rho, idmap) pairs matching the IdAtom multiset todo onto avail."""
    if not todo:
        yield rho, idmap
        return
    first = todo[0]
    for j, cand in enumerate(avail):
        r2 = _match_term(first.atom, cand.atom, rho, fixed)
        if r2 is None:
            continue
        im = dict(idmap)
        im[first.ident] = cand.ident
        yield from _match_atom_sets(todo[1:], avail[:j] + avail[j + 1:], fixed, r2, im)


def _tokens_correspond(tok_a, tok_b, idmap) -> bool:
    mapped = set()
    for t in tok_a:
        if not all(i in idmap for i in t.idents):
            return False
        mapped.add(Token(t.rule_name, tuple(idmap[i] for i in t.idents)))
    return mapped == set(tok_b)


def _constrained_vars(store: Store):
    out = set()
    for v, t in store.solved().items():
        out.add(v)
        out |= vars_of(t)
    return out


def _stores_equivalent_mod(sa: Store, sb: Store, rho, fixed) -> bool:
    """Can rho be extended over the leftover variables so the stores are
    equivalent theories?"""
    if sa.failed or sb.failed:
        return sa.failed and sb.failed
    la = sorted(_constrained_vars(sa) - set(rho) - fixed, key=lambda v: v.name)
    lb = _constrained_vars(sb) - set(rho.values()) - fixed
    if len(la) != len(lb):
        return False
    sig_a = sa.solved()
    sig_b = sb.solved()

    def leaf(full_rho):
        renamed = tuple(rename_vars(e, full_rho) for e in sa.equations)
        return reference_stores_equivalent(Store(renamed), sb)

    def rec(i, rho, avail):
        if i == len(la):
            return leaf(rho)
        v = la[i]
        bound = sig_a.get(v)
        for w in sorted(avail, key=lambda x: x.name):
            if bound is not None and not vars_of(bound):
                if sig_b.get(w) != bound:
                    continue
            r2 = dict(rho)
            r2[v] = w
            if rec(i + 1, r2, avail - {w}):
                return True
        return False

    return rec(0, dict(rho), lb)


def _shape_key(a: IdAtom):
    return (a.atom.functor, len(a.atom.args))


def states_equivalent_mod(
    chr_a, builtins_a, tokens_a, chr_b, builtins_b, tokens_b, fixed_vars
) -> bool:
    """Comparison modulo renaming of variables outside fixed_vars and of
    atom identifiers. Failed states are all identified with each other."""
    if builtins_a.failed or builtins_b.failed:
        return builtins_a.failed and builtins_b.failed
    if len(chr_a) != len(chr_b):
        return False
    if sorted(map(_shape_key, chr_a)) != sorted(map(_shape_key, chr_b)):
        return False
    fixed = frozenset(fixed_vars)
    ta = clean_tokens(tokens_a, chr_a)
    tb = clean_tokens(tokens_b, chr_b)
    if len(ta) != len(tb):
        return False
    todo = sorted(chr_a, key=lambda a: (_shape_key(a), a.ident))
    avail = sorted(chr_b, key=lambda a: (_shape_key(a), a.ident))
    for rho, idmap in _match_atom_sets(todo, avail, fixed, {}, {}):
        if not _tokens_correspond(ta, tb, idmap):
            continue
        if _stores_equivalent_mod(builtins_a, builtins_b, rho, fixed):
            return True
    return False


# ------------------------------------------------------------ strategies

VARS = tuple(Var(n) for n in ("X", "Y", "Z", "U", "V"))
FRESH = tuple(Var(n) for n in ("_T1", "_T2", "_T3"))
DEAD = 99  # an identifier no atom carries


def f(t):
    return Compound("f", (t,))


def g(s, t):
    return Compound("g", (s, t))


terms_st = st.recursive(
    st.sampled_from(VARS + (const("a"), const("b"))),
    lambda inner: st.one_of(st.builds(f, inner), st.builds(g, inner, inner)),
    max_leaves=3,
)
atom_st = st.one_of(
    st.just(Compound("k", ())),
    st.builds(lambda t: Compound("p", (t,)), terms_st),
    st.builds(lambda s, t: Compound("q", (s, t)), terms_st, terms_st),
)
fixed_st = st.frozensets(st.sampled_from(VARS))


def batched(draw, eqs):
    """The equations split into consecutive batches."""
    cuts = draw(st.lists(st.booleans(), min_size=len(eqs), max_size=len(eqs)))
    batches, cur = [], []
    for e, cut in zip(eqs, cuts):
        cur.append(e)
        if cut:
            batches.append(cur)
            cur = []
    return batches + [cur]


def build_store(batches) -> Store:
    store = TRUE
    for batch in batches:
        store = conjoin(store, batch)
    return store


@st.composite
def states(draw):
    """(atoms, equations, store, tokens): 0-4 atoms, 0-5 equations
    conjoined in batches, tokens over the identifiers and a dead one."""
    terms = draw(st.lists(atom_st, max_size=4))
    ids = draw(st.lists(st.integers(1, 9), min_size=len(terms),
                        max_size=len(terms), unique=True))
    atoms = tuple(IdAtom(t, i) for t, i in zip(terms, ids))
    eqs = draw(st.lists(st.builds(Equation, terms_st, terms_st), max_size=5))
    token_st = st.builds(
        Token,
        st.sampled_from(("r", "v")),
        st.lists(st.sampled_from(ids + [DEAD]), min_size=1, max_size=2).map(tuple),
    )
    tokens = draw(st.frozensets(token_st, max_size=3))
    return atoms, eqs, build_store(batched(draw, eqs)), tokens


@st.composite
def twins(draw, state, fixed):
    """An equivalent copy of the state: non-fixed variables renamed by a
    bijection, identifiers permuted, and the same equations shuffled,
    flipped and conjoined in other batches. Returns (twin, renaming)."""
    atoms, eqs, _, tokens = state
    free = [v for v in VARS if v not in fixed]
    rho = dict(zip(free, draw(st.permutations(free + list(FRESH)))))
    new_ids = draw(st.lists(st.integers(1, 20), min_size=len(atoms),
                            max_size=len(atoms), unique=True))
    idmap = {x.ident: i for x, i in zip(atoms, new_ids)}
    twin_atoms = tuple(
        IdAtom(rename_vars(x.atom, rho), idmap[x.ident]) for x in atoms
    )
    order = draw(st.permutations(range(len(eqs))))
    flips = draw(st.lists(st.booleans(), min_size=len(eqs), max_size=len(eqs)))
    twin_eqs = []
    for i, flip in zip(order, flips):
        e = rename_vars(eqs[i], rho)
        twin_eqs.append(Equation(e.rhs, e.lhs) if flip else e)
    twin_tokens = frozenset(
        Token(t.rule_name, tuple(idmap.get(i, i) for i in t.idents))
        for t in tokens
    )
    twin = (twin_atoms, twin_eqs, build_store(batched(draw, twin_eqs)), twin_tokens)
    return twin, rho


@st.composite
def near_misses(draw, state):
    """The state with its last equation, last atom or one token dropped, or
    with one more equation: often inequivalent to it, sometimes not."""
    atoms, eqs, _, tokens = state
    choice = draw(st.integers(0, 3))
    if choice == 0 and eqs:
        eqs = eqs[:-1]
    elif choice == 1 and atoms:
        atoms = atoms[:-1]
    elif choice == 2 and tokens:
        tokens = frozenset(sorted(tokens, key=repr)[1:])
    else:
        eqs = eqs + [Equation(draw(st.sampled_from(VARS + FRESH)), draw(terms_st))]
    return atoms, eqs, build_store(batched(draw, eqs)), tokens


def exact(sa, sb, fixed, **readings):
    return equivalence.states_equivalent_mod(
        sa[0], sa[2], sa[3], sb[0], sb[2], sb[3], fixed, **readings
    )


def reference(sa, sb, fixed):
    return states_equivalent_mod(sa[0], sa[2], sa[3], sb[0], sb[2], sb[3], fixed)


def fingerprint(s, fixed):
    return equivalence.state_fingerprint(s[0], s[2], s[3], fixed)


# ------------------------------------------------------------ properties


@settings(deadline=None, max_examples=300)
@given(st.data(), states(), fixed_st)
def test_twins_share_fingerprint_and_profiles(data, state, fixed):
    twin, rho = data.draw(twins(state, fixed))
    read_a = fingerprint(state, fixed)
    read_b = fingerprint(twin, fixed)
    assert read_a.key == read_b.key
    # every failed state shares the key None and is read for no profiles
    assert (read_a.key is None) == state[2].failed
    # a canonical key is certified for both twins or for neither
    assert read_a.canonical == read_b.canonical
    if read_a.key is not None:
        assert {rho.get(v, v): p for v, p in read_a.profiles.items()} == read_b.profiles
    assert exact(state, twin, fixed)
    assert reference(state, twin, fixed)


@settings(deadline=None, max_examples=300)
@given(st.data(), states(), fixed_st)
def test_pruned_check_agrees_with_the_reference(data, state, fixed):
    twin, _ = data.draw(twins(state, fixed))
    for other in (data.draw(states()), data.draw(near_misses(twin))):
        want = reference(state, other, fixed)
        assert exact(state, other, fixed) == want
        read_a = fingerprint(state, fixed)
        read_b = fingerprint(other, fixed)
        # equivalent states always share a fingerprint
        if want:
            assert read_a.key == read_b.key
        # readings handed in give what the ones made inside give
        if read_a.key == read_b.key:
            assert exact(
                state, other, fixed, reading_a=read_a, reading_b=read_b
            ) == want


def state_of(atoms, *eqs):
    """A state of the given atoms, identified 1, 2, ... in order, over the
    given equations, with no tokens."""
    return (tuple(IdAtom(t, i) for i, t in enumerate(atoms, 1)), list(eqs),
            conjoin(TRUE, eqs), frozenset())


def eq_state(*eqs):
    """A state with no atoms and no tokens over the given equations."""
    return state_of((), *eqs)


X, Y, Z, U, V = VARS
# one store component that no atom and no fixed variable reaches: its
# variables can only be matched through the bindings themselves
COMPONENT = eq_state(Equation(X, f(Y)), Equation(Z, Compound("g", (Y,))))


@settings(deadline=None, max_examples=200)
@given(states(), states(), fixed_st)
@example(COMPONENT, eq_state(Equation(Compound("g", (V,)), U), Equation(Y, f(V))), frozenset())
@example(COMPONENT, eq_state(Equation(X, f(Y)), Equation(Z, Compound("g", (U,)))), frozenset())
def test_exact_check_agrees_with_the_reference_on_any_two_states(sa, sb, fixed):
    assert exact(sa, sb, fixed) == reference(sa, sb, fixed)


@st.composite
def pairs(draw):
    """A state, another one (its twin, a near miss of the twin or any
    state) and a fixed set."""
    state, fixed = draw(states()), draw(fixed_st)
    twin, _ = draw(twins(state, fixed))
    other = draw(st.one_of(st.just(twin), near_misses(twin), states()))
    return state, other, fixed


def atom_p(*args):
    return Compound("p", args)


# the refused states: two atoms with one sort key (p(X) and p(Y), told
# apart only by which of them q shares a variable with), a nested binding
# (X = f(g(Z, Z)), where g alone tells Z from U) and a variable only the
# store mentions bound over a class no atom names (Z, shared by Y and V in
# one state only); the nested and unnamed pairs are not equivalent, yet
# one level of bindings over named classes reads them alike
TIE = (state_of([atom_p(X), atom_p(Y), Compound("q", (X,))]),
       state_of([atom_p(X), atom_p(Y), Compound("q", (Y,))]))
NESTED = (state_of([Compound("q", (X, Z))], Equation(X, f(g(Z, Z)))),
          state_of([Compound("q", (X, Z))], Equation(X, f(g(U, U)))))
UNNAMED = (state_of([atom_p(X)], Equation(Y, f(Z)), Equation(V, g(Z, Z))),
           state_of([atom_p(X)], Equation(Y, f(Z)), Equation(V, g(U, U))))


@settings(deadline=None, max_examples=300)
@given(pairs())
@example((*TIE, frozenset()))
@example((*NESTED, frozenset()))
@example((*UNNAMED, frozenset()))
# two classes only the store mentions, of equal size, paired apart
@example((state_of([], Equation(Y, Z), Equation(U, V)),
          state_of([], Equation(Y, U), Equation(V, Z)), frozenset()))
# functors named like the tags of a profile: a sort key never compares a
# functor's arity with a tag's payload
@example((state_of([atom_p(const("bound")), atom_p(const("free")), atom_p(X), atom_p(Y)],
                   Equation(X, const("bound"))),
          state_of([atom_p(Y), atom_p(X), atom_p(const("free")), atom_p(const("bound"))],
                   Equation(Y, const("bound"))), frozenset()))
def test_a_canonical_key_decides_equivalence(pair):
    sa, sb, fixed = pair
    want = reference(sa, sb, fixed)
    read_a, read_b = fingerprint(sa, fixed), fingerprint(sb, fixed)
    if read_a.canonical or read_b.canonical:
        assert (read_a.key == read_b.key) == want
    assert exact(sa, sb, fixed, reading_a=read_a, reading_b=read_b) == want


@pytest.mark.parametrize("pair", [TIE, NESTED, UNNAMED], ids=["tie", "nested", "unnamed"])
def test_refused_states_keep_the_fingerprint(pair):
    assert not any(fingerprint(s, frozenset()).canonical for s in pair)


def test_fingerprint_sees_dead_local_bindings():
    # as in test_mod_distinguishes_dead_local_bindings: binding a variable
    # that no atom mentions still tells the states apart
    (p,) = parse_goal("p(X)")
    eqs = [Equation(Var("Y"), const("a"))]
    free = ((IdAtom(p, 1),), [], TRUE, frozenset())
    bound = ((IdAtom(p, 1),), eqs, conjoin(TRUE, eqs), frozenset())
    assert fingerprint(free, {Var("X")}).key != fingerprint(bound, {Var("X")}).key


def test_profiles_read_the_carried_mgu_without_resolving_it():
    # X0 = s(X1), X1 = s(X2), ... conjoined a link at a time: each linked
    # variable is a bound class of its own, and only the last one is free
    xs = [Var(f"X{i}") for i in range(2000)]
    store = TRUE
    for x, y in zip(xs, xs[1:]):
        store = conjoin(store, [Equation(x, Compound("s", (y,)))])
    prof = equivalence.var_profiles((), store, {xs[0]})
    assert prof[xs[0]] == prof[xs[1000]] == ("bound", "s", 1)
    assert prof[xs[-1]] == ("free", (), 1)


# ---------------------------------------------------------- work counts


def _count(monkeypatch):
    """Count the exact state comparisons the search makes and the
    store-equivalence leaves inside them."""
    calls = {"states": 0, "leaves": 0}
    exact_check = search.states_equivalent_mod
    leaf = equivalence.stores_equivalent

    def counted_exact(*args, **kwargs):
        calls["states"] += 1
        return exact_check(*args, **kwargs)

    def counted_leaf(*args, **kwargs):
        calls["leaves"] += 1
        return leaf(*args, **kwargs)

    monkeypatch.setattr(search, "states_equivalent_mod", counted_exact)
    monkeypatch.setattr(equivalence, "stores_equivalent", counted_leaf)
    return calls


def test_independent_atoms_compare_each_state_at_most_once(monkeypatch):
    # five interchangeable atoms: 811 states survive dedup, and the exact
    # check only meets states with the same fingerprint
    calls = _count(monkeypatch)
    p = parse_program("r @ p(X) <=> q(X). v @ q(Y) <=> s(Y).")
    res = explore(p, parse_goal(", ".join(f"p(X{i})" for i in range(5))))
    assert res.expanded == 811
    assert calls["states"] <= 811
    assert calls["leaves"] <= 811


def test_linear_branch_states_never_meet_the_exact_check(monkeypatch):
    # every state holds one p/1 atom, so all share a shape bucket; the
    # number of bound variables tells them apart by fingerprint alone
    calls = _count(monkeypatch)
    p = parse_program("r @ p(X) <=> X = s(Y), p(Y).")
    res = explore(p, parse_goal("p(N)"), max_applies=150)
    assert res.expanded == 151
    assert calls["states"] == 0


def _counted(monkeypatch, owner, name):
    """Count the calls made through the owner's attribute ``name``."""
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_independent_atoms_are_deduplicated_by_canonical_keys(monkeypatch):
    # six atoms on goal variables: every state's atoms are told apart by
    # the fixed names in them, so each is keyed by its canonical form and
    # each of the 2,188 hits is one key comparison, no exact search
    calls = _count(monkeypatch)
    runs = _counted(monkeypatch, equivalence, "_run")
    items = equivalence.Reading.items
    built = []
    monkeypatch.setattr(equivalence.Reading, "items",
                        property(lambda r: built.append(r) or items.func(r)))
    p = parse_program("r @ p(X) <=> q(X). v @ q(Y) <=> s(Y).")
    res = explore(p, parse_goal(", ".join(f"p(X{i})" for i in range(6))))
    assert res.expanded == 2917
    assert calls["states"] == 2188
    assert runs[0] == len(built) == 0


def test_a_nested_store_is_read_without_its_normal_form(monkeypatch):
    # X = s(Y) nests every state's store: no state is canonical, none is
    # resolved for its form, and the fingerprints alone tell them apart
    calls = _count(monkeypatch)
    solved = _counted(monkeypatch, Store, "solved")
    p = parse_program("r @ p(X) <=> X = s(Y), p(Y).")
    res = explore(p, parse_goal("p(N)"), max_applies=300)
    assert res.expanded == 301
    assert calls["states"] == solved[0] == 0


def _count_matches(monkeypatch):
    """Count the term matches of the exact checks the search makes, and
    record for each check whether it hit, its matches and the size of the
    state (atoms plus constrained variables)."""
    matches, checks = [0], []
    match = equivalence._match_term
    exact_check = search.states_equivalent_mod

    def counted_match(*args):
        matches[0] += 1
        return match(*args)

    def counted_exact(*args, **kwargs):
        before = matches[0]
        hit = exact_check(*args, **kwargs)
        size = len(args[0]) + len(args[1].constrained_vars())
        checks.append((hit, matches[0] - before, size))
        return hit

    monkeypatch.setattr(equivalence, "_match_term", counted_match)
    monkeypatch.setattr(search, "states_equivalent_mod", counted_exact)
    return matches, checks


@pytest.mark.parametrize("depth", [20, 40, 80])
def test_a_dedup_hit_costs_term_matches_linear_in_the_state(monkeypatch, depth):
    # firing a before or after some r leaves the same state twice, so
    # every exact check is a hit; all links of the chain N = s(Y1),
    # Y1 = s(Y2), ... but the last reach no atom, and each must find its
    # counterpart without a search over the others
    matches, checks = _count_matches(monkeypatch)
    p = parse_program("r @ p(X) <=> X = s(Y), p(Y). a @ q <=> t.")
    explore(p, parse_goal("p(N), q"), max_applies=depth)
    assert len(checks) == depth - 1
    assert all(hit and n < 3 * size for hit, n, size in checks)


def test_equal_shaped_misses_stay_a_short_search(monkeypatch):
    # every firing adds p(W), p(Y) and p(f(X)): many states share a
    # fingerprint, and the few that are not equivalent must fail fast, not
    # by a search over the bijections of the equal p atoms (this call took
    # 108 s when p(f(X)) and p(W) drew candidates from one pool)
    matches, checks = _count_matches(monkeypatch)
    p = parse_program("r1 @ p(X) <=> b = b | p(W), p(Y), p(f(X)).")
    res = explore(p, parse_goal("p(B), p(A)"), "standard", max_applies=5, max_states=300)
    assert res.expanded == 301
    assert len(checks) <= 233
    assert sum(hit for hit, _, _ in checks) == 228
    assert matches[0] <= 10_000


@pytest.mark.parametrize("rules, goal, semantics", [
    # many equal s atoms told apart only by the tokens over them: an atom
    # draws candidates with its own token roles, and each token is checked
    # as soon as its atoms are matched
    (
        "r0 @ t(X), t(f(X)) ==> f(b) = X | Z = Z, s. "
        "r1 @ s, s ==> q(X,Z), s. r2 @ t(f(b)) <=> true.",
        "s, s, t(A)", "standard",
    ),
    # states whose tokens name p(C) in one and an equal-looking p(_R2)
    # in the other: the one atom with those roles has one candidate, so
    # it is matched first and the check fails at once
    (
        "r0 @ p(X), p(X), s ==> p(f(W)), s, p(X). "
        "r1 @ p(b) ==> s, Z = g(f(V), g(Y, Y)), p(g(Z, a)). r2 @ s, s <=> true. "
        "r3 @ p(Y), p(f(b)) <=> p(Y), s, g(W, Z) = g(b, Y).",
        "p(C), p(C), s, s, p(C), p(C), s", "annotated",
    ),
    # each firing adds q(g(W, g(V, Y)), Z), q(W, b) and W = a: the two
    # atoms share only W, so a pairing is told apart by the bindings of
    # the atoms' variables, which are checked right after each atom
    (
        "r0 @ q(Z, Y) ==> W = a, q(g(W, g(V, Y)), Z), q(W, b).",
        "q(C, C), u(g(b, g(C, a)), C), A = C, u(a, C), q(b, g(B, A)), q(b, g(B, A))",
        "annotated",
    ),
])
def test_repeated_atoms_with_tokens_are_matched_by_token_roles(
    monkeypatch, rules, goal, semantics
):
    matches, _ = _count_matches(monkeypatch)
    res = explore(
        parse_program(rules), parse_goal(goal), semantics, max_applies=5, max_states=200
    )
    assert res.expanded == 201
    assert matches[0] <= 100_000
