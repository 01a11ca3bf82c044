"""Replacing a rule by its unfolded versions, with safety analysis.

A rule can be taken out of a program and stood in for by everything its body
unfolds to. That is only sound when the body cannot react in ways the
unfolder did not see. Two families of hazards are detected:

* unify-only: some rule could fire on the body atoms at run time given a
  strong enough built-in store, but no unfold site exists for it (the match
  needs bindings that only a computation can supply, or the guard cannot be
  discharged at transformation time);
* partial-head: some multi-headed rule could consume body atoms together
  with atoms from elsewhere (the goal or other rule bodies), a reaction the
  unfolder can never capture.

The strict criterion demands no hazards, at least one unfold site, and
every unfolded guard equivalent to the original. The weak criterion only
demands some unfolded version with an equivalent guard; it is meant for
programs already known to terminate and be confluent under the normal
strategy. ``force`` skips the checks, which is how the known counter
examples are reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import List, Optional, Tuple

from .constraints import equations_satisfiable, guards_equivalent
from .syntax import IdAtom, Program, Rule, Token
from .semantics.matching import argument_equations, functor_index, head_assignments
from .terms import FreshSupply, rename_apart, vars_of
from .unfold import distinct_rules, unfold_all, unfold_sites


@dataclass(frozen=True)
class Hazard:
    kind: str  # "unify-only" or "partial-head"
    source_index: int
    source_name: str
    idents: tuple
    positions: tuple
    detail: str


def deletion_hazards(program: Program, target_index: int, sites) -> List[Hazard]:
    """Rules whose run-time firings on the target's body atoms are not
    covered by any of the given unfold sites of the target.

    For each source rule, the whole head is tried first, then every proper
    subset of head positions by size: a match of the whole head that no
    token spends and no site covers is unify-only, a match of a proper
    subset is partial-head (the other positions take atoms from outside).
    """
    if not program.annotated:
        raise ValueError("hazard analysis works on annotated programs")
    r = program.rules[target_index]
    body_atoms = sorted(
        (b for b in r.body if isinstance(b, IdAtom)), key=lambda a: a.ident
    )
    index = functor_index(body_atoms)
    covered = {(s.source_index, s.idents) for s in sites}
    target_vars = vars_of(r)
    out: List[Hazard] = []
    for si, source in enumerate(program.rules):
        v, _ = rename_apart(source, fresh=FreshSupply("_H", target_vars))
        heads = v.heads
        frozen = vars_of((v.guard, v.body)) - vars_of(heads)
        width = len(heads)
        subsets = [tuple(range(width))] + [
            subset
            for size in range(1, width)
            for subset in combinations(range(width), size)
        ]
        for subset in subsets:
            whole = len(subset) == width
            part = [heads[p] for p in subset]
            for chosen, _ in head_assignments(part, body_atoms, index):
                combo = tuple(body_atoms[j] for j in chosen)
                ids = tuple(a.ident for a in combo)
                if whole and (Token(source.name, ids) in r.tokens or (si, ids) in covered):
                    continue
                eqs = argument_equations(combo, part)
                if not equations_satisfiable(r.guard + eqs + v.guard, frozen):
                    continue
                if whole:
                    kind = "unify-only"
                    detail = (
                        f"{source.name} could fire on body atoms {ids} of "
                        f"{r.name} given a stronger store, but no unfold "
                        "site covers that firing"
                    )
                else:
                    kind = "partial-head"
                    detail = (
                        f"{source.name} could consume body atoms {ids} of "
                        f"{r.name} together with atoms from outside the rule"
                    )
                out.append(Hazard(kind, si, source.name, ids, subset, detail))
    return out


@dataclass
class ReplacementVerdict:
    ok: bool
    sites: List[Tuple[int, tuple]]
    hazards: List[Hazard]
    guard_mismatches: List[Rule]
    reasons: List[str]
    unfolded: List[Rule]  # the distinct unfolded rules judged; replace_rule installs them


def check_replacement(program: Program, target_index: int, mode: str = "safe") -> ReplacementVerdict:
    """Decide whether the target rule may be replaced by its unfolded
    versions under the strict or the weak criterion."""
    if mode not in ("safe", "weak"):
        raise ValueError(f"unknown mode {mode!r}")
    r = program.rules[target_index]
    found = unfold_sites(program, target_index)
    sites = [(s.source_index, s.idents) for s in found]
    unfolded = distinct_rules(found)
    reasons: List[str] = []
    if mode == "weak":
        if not any(guards_equivalent(r.guard, u.guard) for u in unfolded):
            reasons.append(
                f"no unfolded version of {r.name} keeps the guard equivalent"
            )
        return ReplacementVerdict(not reasons, sites, [], [], reasons, unfolded)
    hazards = deletion_hazards(program, target_index, found)
    mismatches = [u for u in unfolded if not guards_equivalent(r.guard, u.guard)]
    if hazards:
        reasons.append(f"{len(hazards)} hazard(s) against rule {r.name}")
    if not sites:
        reasons.append(f"rule {r.name} has no unfold site")
    if mismatches:
        reasons.append(
            f"{len(mismatches)} unfolded version(s) of {r.name} change the guard"
        )
    return ReplacementVerdict(not reasons, sites, hazards, mismatches, reasons, unfolded)


@dataclass
class ReplaceReport:
    verdict: Optional[ReplacementVerdict]
    replaced: Rule
    added: List[Rule]


def replace_rule(
    program: Program, target_index: int, mode: str = "safe"
) -> Tuple[Program, ReplaceReport]:
    """Replace the target rule in place by all its unfolded versions.

    mode "safe" and "weak" enforce the respective criteria and raise
    ValueError when they fail; "force" performs the replacement untested.
    """
    r = program.rules[target_index]
    verdict = None
    if mode == "force":
        added = unfold_all(program, target_index)
    else:
        verdict = check_replacement(program, target_index, mode)
        if not verdict.ok:
            raise ValueError(
                f"rule {r.name} cannot be replaced ({mode}): "
                + "; ".join(verdict.reasons)
            )
        added = verdict.unfolded
    rules = (
        program.rules[:target_index]
        + tuple(added)
        + program.rules[target_index + 1:]
    )
    out = Program(rules, annotated=True).validate()
    return out, ReplaceReport(verdict, r, added)
