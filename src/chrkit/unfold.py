"""Unfolding: replace part of a rule body by the body of a matching rule.

Given annotated rules r and v in the same program, an unfold site is an
injective assignment of v's head positions (kept, then removed) to user
constraints in r's body such that, assuming r's guard and the built-ins in
r's body, the heads of a renamed copy of v match the assigned atoms under a
substitution theta that binds only v's variables. The unfolded rule keeps
r's heads, conjoins r's guard with the non-entailed part of v's guard
instantiated by theta, replaces the atoms matched by v's removed head with
v's body (identifiers shifted past r's largest one), records the matching
equations, and updates the token store so that a rule that removes nothing
is never used twice on the same atoms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .constraints import TRUE, conjoin, entails_exists, entailment_witness, satisfiable
from .equivalence import rules_isomorphic
from .syntax import Program, Rule, Token, clean_tokens, print_term, split_builtins
from .terms import FreshSupply, apply_subst, rename_apart, vars_of
from .semantics.annotated import shift_identifiers
from .semantics.matching import argument_equations, functor_index, head_assignments


@dataclass(frozen=True)
class UnfoldSite:
    source_index: int
    idents: tuple
    theta: tuple  # sorted (var, term) pairs, for reporting
    rule: Rule


def _dedup_equations(eqs) -> tuple:
    """The equations without trivial ones and without repeats in either
    orientation, judged by printed text."""
    out = []
    seen = set()
    for e in eqs:
        lhs, rhs = print_term(e.lhs), print_term(e.rhs)
        if lhs == rhs:
            continue
        key = frozenset((lhs, rhs))
        if key in seen:
            continue
        seen.add(key)
        out.append(e)
    return tuple(out)


def unfold_at(program: Program, target_index: int, source_index: int,
              idents, track_tokens: bool = True) -> Optional[UnfoldSite]:
    """Unfold the target rule with the source rule at the body atoms with
    the given identifiers (source's kept positions first). None if the site
    does not satisfy the side conditions. The source rule is renamed apart
    with ``_U`` names that skip the target rule's variables.

    track_tokens=False drops all token bookkeeping (no blocking, nothing
    recorded). That produces wrong rules on propagation sources; it exists
    so tests can demonstrate the divergence the bookkeeping prevents.
    """
    r = program.rules[target_index]
    v, _ = rename_apart(program.rules[source_index], fresh=FreshSupply("_U", vars_of(r)))
    body_atoms, body_builtins = split_builtins(r.body)
    by_id = {a.ident: a for a in body_atoms}
    heads = v.heads
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
    assumed = conjoin(TRUE, r.guard + body_builtins)
    if assumed.failed:
        return None
    eqs = argument_equations(matched, heads)
    theta = entailment_witness(assumed, vars_of(heads), eqs)
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
        + body_builtins
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


def unfold_sites(program: Program, target_index: int) -> List[UnfoldSite]:
    """Every unfold site of the target rule, in source-rule order and then
    by the identifier sequence used."""
    if not program.annotated:
        raise ValueError("unfolding works on annotated programs")
    r = program.rules[target_index]
    body_atoms, _ = split_builtins(r.body)
    ordered = sorted(body_atoms, key=lambda a: a.ident)
    index = functor_index(ordered)
    out: List[UnfoldSite] = []
    for si, v in enumerate(program.rules):
        for chosen, _ in head_assignments(v.heads, ordered, index):
            site = unfold_at(
                program, target_index, si, tuple(ordered[j].ident for j in chosen)
            )
            if site is not None:
                out.append(site)
    return out


def distinct_rules(sites) -> List[Rule]:
    """The sites' unfolded rules without duplicates (modulo variable and
    identifier renaming), first occurrences in site order."""
    out: List[Rule] = []
    for site in sites:
        if not any(rules_isomorphic(site.rule, seen) for seen in out):
            out.append(site.rule)
    return out


def unfold_all(program: Program, target_index: int) -> List[Rule]:
    """The set of rules obtainable by unfolding the target rule once,
    without duplicates (modulo variable and identifier renaming)."""
    return distinct_rules(unfold_sites(program, target_index))
