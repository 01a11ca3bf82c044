"""Head matching shared by both operational readings.

A firing is one way a rule can react with the current store: an injective
assignment of store atoms to head positions (kept first, then removed) such
that the built-in store entails the induced argument equations together with
the guard, and no token for that rule/atom combination has been recorded.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import List

from ..constraints import Store, entails_exists
from ..syntax import Rule, Token
from ..terms import Equation, FreshSupply, rename_apart, vars_of


@dataclass(frozen=True)
class Firing:
    rule_index: int
    rule: Rule  # renamed-apart copy
    kept: tuple
    removed: tuple
    head_eqs: tuple
    token: Token

    @property
    def idents(self) -> tuple:
        return self.token.idents


def _positions_fit(atoms, heads) -> bool:
    return all(
        a.atom.functor == h.functor and len(a.atom.args) == len(h.args)
        for a, h in zip(atoms, heads)
    )


def enumerate_firings(program, atoms, builtins: Store, tokens, fresh: FreshSupply = None) -> List[Firing]:
    """All firings of program rules on the given identified atoms.

    Enumeration order is deterministic: program order, then assignments over
    atoms sorted by identifier. Each rule is renamed apart once per call.
    """
    ordered = sorted(atoms, key=lambda a: a.ident)
    out: List[Firing] = []
    for idx, rule in enumerate(program.rules):
        renamed, _ = rename_apart(rule, fresh=fresh)
        heads = renamed.kept + renamed.removed
        if len(heads) > len(ordered):
            continue
        head_vars = vars_of((renamed.kept, renamed.removed))
        for combo in permutations(ordered, len(heads)):
            if not _positions_fit(combo, heads):
                continue
            token = Token(rule.name, tuple(a.ident for a in combo))
            if token in tokens:
                continue
            eqs = tuple(
                Equation(a.atom.args[i], h.args[i])
                for a, h in zip(combo, heads)
                for i in range(len(h.args))
            )
            if not entails_exists(builtins, head_vars, eqs + renamed.guard):
                continue
            nk = len(renamed.kept)
            out.append(Firing(idx, renamed, combo[:nk], combo[nk:], eqs, token))
    return out
