"""Rule comparison modulo renaming, property-tested against the nested
generator search it replaces, on the rules and unfoldings of random
annotated programs and on renamed and reordered twins of each rule."""

from hypothesis import given, settings, strategies as st

from chrkit.equivalence import rules_isomorphic
from chrkit.syntax import IdAtom, Rule, Token
from chrkit.terms import Equation, FalseConstraint, Var, rename_vars, vars_of
from chrkit.unfold import unfold_all, unfold_sites

from test_site_enumeration import annotated_programs
from test_state_keys import _match_atom_sets, _match_term, _tokens_correspond

# ------------------------------------------------------------- reference
# The rule comparison kept verbatim: one generator per part, nested, with
# the tokens checked once every body atom is matched.


def reference_rules_isomorphic(ra, rb) -> bool:
    """Same rule modulo variable renaming and identifier renaming; head,
    guard and body parts are compared as multisets."""
    if ra.name != rb.name:
        return False
    if (
        len(ra.kept) != len(rb.kept)
        or len(ra.removed) != len(rb.removed)
        or len(ra.guard) != len(rb.guard)
        or len(ra.body) != len(rb.body)
        or len(ra.tokens) != len(rb.tokens)
    ):
        return False

    def eq_pairs(e):
        return (e.lhs, e.rhs)

    def match_lists(pairs_a, pairs_b, rho, unordered_eq=False):
        """pairs are lists of terms or of 2-tuples; multiset matching."""
        if not pairs_a:
            yield rho
            return
        first = pairs_a[0]
        for j, cand in enumerate(pairs_b):
            orientations = [cand]
            if unordered_eq and isinstance(cand, tuple):
                orientations.append((cand[1], cand[0]))
            for o in orientations:
                if isinstance(first, tuple):
                    r2 = _match_term(first[0], o[0], rho, frozenset())
                    if r2 is not None:
                        r2 = _match_term(first[1], o[1], r2, frozenset())
                else:
                    r2 = _match_term(first, o, rho, frozenset())
                if r2 is None:
                    continue
                yield from match_lists(
                    pairs_a[1:], pairs_b[:j] + pairs_b[j + 1:], r2, unordered_eq
                )

    body_atoms_a = [b for b in ra.body if isinstance(b, IdAtom)]
    body_atoms_b = [b for b in rb.body if isinstance(b, IdAtom)]
    body_bi_a = [eq_pairs(b) for b in ra.body if isinstance(b, Equation)]
    body_bi_b = [eq_pairs(b) for b in rb.body if isinstance(b, Equation)]
    false_a = sum(1 for b in ra.body if isinstance(b, FalseConstraint))
    false_b = sum(1 for b in rb.body if isinstance(b, FalseConstraint))
    if (
        len(body_atoms_a) != len(body_atoms_b)
        or len(body_bi_a) != len(body_bi_b)
        or false_a != false_b
    ):
        return False

    for rho1 in match_lists(list(ra.kept), list(rb.kept), {}):
        for rho2 in match_lists(list(ra.removed), list(rb.removed), rho1):
            for rho3 in match_lists(
                [eq_pairs(g) for g in ra.guard],
                [eq_pairs(g) for g in rb.guard],
                rho2,
                unordered_eq=True,
            ):
                for rho4 in match_lists(
                    body_bi_a, body_bi_b, rho3, unordered_eq=True
                ):
                    for rho5, idmap in _match_atom_sets(
                        body_atoms_a, body_atoms_b, frozenset(), rho4, {}
                    ):
                        if _tokens_correspond(ra.tokens, rb.tokens, idmap):
                            return True
    return False


def reference_unfold_all(program, target_index):
    out = []
    for site in unfold_sites(program, target_index):
        if not any(reference_rules_isomorphic(site.rule, seen) for seen in out):
            out.append(site.rule)
    return out


# ------------------------------------------------------------ strategies


@st.composite
def twins(draw, rule):
    """The rule with its variables renamed by a bijection, its identifiers
    and tokens permuted alike, its heads, guard and body shuffled and
    each equation flipped or not."""
    names = sorted(vars_of(rule), key=lambda v: v.name)
    new = draw(st.permutations([Var(f"T{i}") for i in range(len(names))]))
    rule = rename_vars(rule, dict(zip(names, new)))
    idents = rule.body_idents()
    idmap = dict(zip(idents, draw(st.lists(
        st.integers(1, 20), min_size=len(idents), max_size=len(idents), unique=True,
    ))))

    def shuffled(items):
        return tuple(draw(st.permutations(items)))

    def flip(e):
        return Equation(e.rhs, e.lhs) if draw(st.booleans()) else e

    body = [
        IdAtom(b.atom, idmap[b.ident]) if isinstance(b, IdAtom) else flip(b)
        for b in rule.body
    ]
    return Rule(
        rule.name,
        shuffled(rule.kept),
        shuffled(rule.removed),
        shuffled([flip(g) for g in rule.guard]),
        shuffled(body),
        frozenset(Token(t.rule_name, tuple(idmap[i] for i in t.idents)) for t in rule.tokens),
    )


# ------------------------------------------------------------ properties


@settings(max_examples=200, deadline=None)
@given(st.data(), annotated_programs())
def test_rules_isomorphic_agrees_with_the_reference(data, case):
    program, _ = case
    rules = list(program.rules)
    for target in range(len(program.rules)):
        rules += [site.rule for site in unfold_sites(program, target)]
    for ra in rules:
        twin = data.draw(twins(ra))
        assert rules_isomorphic(ra, twin)
        assert reference_rules_isomorphic(ra, twin)
        for rb in rules:
            if rb.name == ra.name:
                assert rules_isomorphic(ra, rb) == reference_rules_isomorphic(ra, rb)


@settings(max_examples=200, deadline=None)
@given(annotated_programs())
def test_unfold_all_keeps_the_rules_the_reference_keeps(case):
    program, target = case
    assert unfold_all(program, target) == reference_unfold_all(program, target)
