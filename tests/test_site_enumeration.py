"""Unfold sites and deletion hazards drawn from head matching's functor
index, property-tested against the permutation enumerations they replace.
The references, kept verbatim, call each other in place of the functions
this file checks."""

from itertools import combinations, permutations
from typing import List, Optional

from hypothesis import given, settings, strategies as st

from chrkit.constraints import (
    TRUE,
    conjoin,
    entails_exists,
    entailment_witness,
    equations_satisfiable,
    satisfiable,
)
from chrkit.replace import Hazard, deletion_hazards
from chrkit.semantics.annotated import shift_identifiers
from chrkit.syntax import IdAtom, Program, Rule, Token, clean_tokens
from chrkit.terms import (
    Compound,
    Equation,
    FreshSupply,
    Var,
    apply_subst,
    const,
    rename_apart,
    vars_of,
)
from chrkit.unfold import UnfoldSite, _dedup_equations, unfold_sites

# ------------------------------------------------------------- reference


def _body_split(rule: Rule):
    atoms = [b for b in rule.body if isinstance(b, IdAtom)]
    builtins = [b for b in rule.body if not isinstance(b, IdAtom)]
    return atoms, builtins


def reference_unfold_at(program: Program, target_index: int, source_index: int,
                        idents, fresh: Optional[FreshSupply] = None,
                        track_tokens: bool = True) -> Optional[UnfoldSite]:
    """Unfold the target rule with the source rule at the body atoms with
    the given identifiers (source's kept positions first). None if the site
    does not satisfy the side conditions.

    track_tokens=False drops all token bookkeeping (no blocking, nothing
    recorded). That produces wrong rules on propagation sources; it exists
    so tests can demonstrate the divergence the bookkeeping prevents.
    """
    r = program.rules[target_index]
    fresh = fresh or FreshSupply("_U")
    v, _ = rename_apart(program.rules[source_index], fresh=fresh)
    body_atoms, body_builtins = _body_split(r)
    by_id = {a.ident: a for a in body_atoms}
    heads = v.kept + v.removed
    if len(idents) != len(heads) or len(set(idents)) != len(idents):
        return None
    try:
        matched = [by_id[i] for i in idents]
    except KeyError:
        return None
    if any(
        a.atom.functor != h.functor or len(a.atom.args) != len(h.args)
        for a, h in zip(matched, heads)
    ):
        return None
    token = Token(program.rules[source_index].name, tuple(idents))
    if track_tokens and token in r.tokens:
        return None
    assumed = conjoin(TRUE, r.guard + tuple(body_builtins))
    if assumed.failed:
        return None
    eqs = tuple(
        Equation(a.atom.args[i], h.args[i])
        for a, h in zip(matched, heads)
        for i in range(len(h.args))
    )
    theta = entailment_witness(assumed, vars_of((v.kept, v.removed)), eqs)
    if theta is None:
        return None
    residue = tuple(
        apply_subst(c, theta)
        for c in v.guard
        if not entails_exists(assumed, frozenset(), [apply_subst(c, theta)])
    )
    new_guard = r.guard + residue
    if not satisfiable(conjoin(TRUE, new_guard)):
        return None
    top = max((a.ident for a in body_atoms), default=0)
    inst_body, inst_tokens = shift_identifiers(v.body, v.tokens, top)
    n_kept = len(v.kept)
    kept_matched = matched[:n_kept]
    other_atoms = tuple(a for a in body_atoms if a.ident not in set(idents))
    new_body = (
        other_atoms
        + tuple(kept_matched)
        + inst_body
        + tuple(body_builtins)
        + _dedup_equations(eqs)
    )
    survivors = other_atoms + tuple(kept_matched)
    if track_tokens:
        new_tokens = clean_tokens(r.tokens, survivors) | inst_tokens
        if not v.removed:
            new_tokens = new_tokens | {
                Token(token.rule_name, tuple(a.ident for a in kept_matched))
            }
    else:
        new_tokens = frozenset()
    unfolded = Rule(r.name, r.kept, r.removed, new_guard, new_body, new_tokens)
    unfolded.validate(annotated=True)
    return UnfoldSite(
        source_index,
        tuple(idents),
        tuple(sorted(theta.items(), key=lambda kv: kv[0].name)),
        unfolded,
    )


def reference_unfold_sites(program: Program, target_index: int) -> List[UnfoldSite]:
    """Every unfold site of the target rule, in source-rule order and then
    by the identifier sequence used."""
    if not program.annotated:
        raise ValueError("unfolding works on annotated programs")
    r = program.rules[target_index]
    body_atoms, _ = _body_split(r)
    ordered = sorted(body_atoms, key=lambda a: a.ident)
    out: List[UnfoldSite] = []
    for si, v in enumerate(program.rules):
        width = len(v.kept) + len(v.removed)
        if width > len(ordered):
            continue
        for combo in permutations(ordered, width):
            fresh = FreshSupply("_U")
            site = reference_unfold_at(
                program, target_index, si, tuple(a.ident for a in combo), fresh
            )
            if site is not None:
                out.append(site)
    return out


def _head_fits(atom: IdAtom, head) -> bool:
    return atom.atom.functor == head.functor and len(atom.atom.args) == len(head.args)


def _position_equations(assigned) -> tuple:
    return tuple(
        Equation(a.atom.args[i], h.args[i])
        for a, h in assigned
        for i in range(len(h.args))
    )


def reference_deletion_hazards(program: Program, target_index: int) -> List[Hazard]:
    """Rules whose run-time firings on the target's body atoms are not
    covered by any unfold site."""
    if not program.annotated:
        raise ValueError("hazard analysis works on annotated programs")
    r = program.rules[target_index]
    body_atoms = sorted(
        (b for b in r.body if isinstance(b, IdAtom)), key=lambda a: a.ident
    )
    covered = {(s.source_index, s.idents) for s in reference_unfold_sites(program, target_index)}
    out: List[Hazard] = []
    for si, source in enumerate(program.rules):
        v, _ = rename_apart(source, fresh=FreshSupply("_H"))
        heads = v.kept + v.removed
        frozen = vars_of((v.guard, v.body)) - vars_of((v.kept, v.removed))
        width = len(heads)

        # run-time match on the whole head that no unfold site covers
        for combo in permutations(body_atoms, width):
            if not all(_head_fits(a, h) for a, h in zip(combo, heads)):
                continue
            ids = tuple(a.ident for a in combo)
            if Token(source.name, ids) in r.tokens:
                continue
            if (si, ids) in covered:
                continue
            eqs = _position_equations(zip(combo, heads))
            if equations_satisfiable(r.guard + eqs + v.guard, frozen):
                out.append(
                    Hazard(
                        "unify-only",
                        si,
                        source.name,
                        ids,
                        tuple(range(width)),
                        f"{source.name} could fire on body atoms {ids} of "
                        f"{r.name} given a stronger store, but no unfold "
                        "site covers that firing",
                    )
                )

        # mixed firings: some head positions from the body, some from outside
        if width < 2:
            continue
        position_sets = [
            subset
            for size in range(1, width)
            for subset in combinations(range(width), size)
        ]
        for subset in position_sets:
            for combo in permutations(body_atoms, len(subset)):
                pairs = [(a, heads[p]) for a, p in zip(combo, subset)]
                if not all(_head_fits(a, h) for a, h in pairs):
                    continue
                eqs = _position_equations(pairs)
                if equations_satisfiable(r.guard + eqs + v.guard, frozen):
                    out.append(
                        Hazard(
                            "partial-head",
                            si,
                            source.name,
                            tuple(a.ident for a in combo),
                            tuple(subset),
                            f"{source.name} could consume body atoms "
                            f"{tuple(a.ident for a in combo)} of {r.name} "
                            "together with atoms from outside the rule",
                        )
                    )
    return out


# ------------------------------------------------------------- strategies
# No variable is named like a fresh one (_U<n>, _H<n>): there the new
# enumeration renames apart where the reference captures.

SHAPES = (("p", 1), ("q", 2), ("h", 0))
VARS = tuple(Var(n) for n in ("X", "Y", "Z", "L"))
CONSTS = (const("a"), const("b"))
LEAVES = st.sampled_from(VARS + CONSTS)
TERMS = st.one_of(LEAVES, st.builds(lambda t: Compound("f", (t,)), LEAVES))
ATOMS = st.one_of(*(
    st.tuples(*[TERMS] * n).map(lambda args, f=f: Compound(f, args))
    for f, n in SHAPES
))
EQUATIONS = st.builds(Equation, TERMS, TERMS)


@st.composite
def annotated_rules(draw, name, names):
    heads = draw(st.lists(ATOMS, min_size=1, max_size=3))
    split = draw(st.integers(0, len(heads)))
    guard = tuple(draw(st.lists(EQUATIONS, max_size=2)))
    atoms = draw(st.lists(ATOMS, max_size=4))
    body = [IdAtom(a, i) for i, a in enumerate(atoms, 1)]
    body += draw(st.lists(EQUATIONS, max_size=2))
    body = draw(st.permutations(body))
    tokens = frozenset()
    if atoms:
        tokens = frozenset(draw(st.lists(
            st.builds(
                Token,
                st.sampled_from(names),
                st.lists(
                    st.integers(1, len(atoms)), min_size=1, max_size=2, unique=True,
                ).map(tuple),
            ),
            max_size=2,
        )))
    return Rule(name, tuple(heads[:split]), tuple(heads[split:]), guard, tuple(body), tokens)


@st.composite
def annotated_programs(draw):
    names = [f"r{i}" for i in range(draw(st.integers(1, 3)))]
    rules = tuple(draw(annotated_rules(name, names)) for name in names)
    return Program(rules, annotated=True).validate(), draw(st.integers(0, len(rules) - 1))


# ------------------------------------------------------------- properties


@settings(max_examples=300, deadline=None)
@given(annotated_programs())
def test_unfold_sites_match_the_permutation_enumeration(case):
    program, target = case
    assert unfold_sites(program, target) == reference_unfold_sites(program, target)


@settings(max_examples=300, deadline=None)
@given(annotated_programs())
def test_deletion_hazards_match_the_permutation_enumeration(case):
    program, target = case
    sites = unfold_sites(program, target)
    assert deletion_hazards(program, target, sites) == reference_deletion_hazards(program, target)
