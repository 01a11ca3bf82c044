"""Head matching shared by both operational readings.

A firing is one way a rule can react with the current store: an injective
assignment of store atoms to head positions (kept first, then removed) such
that the built-in store entails the induced argument equations together with
the guard, and no token for that rule/atom combination has been recorded.

Firings are found the way compiled CHR finds them. The atoms are indexed by
functor and arity, and each head position draws its candidates from its own
bucket. The heads are matched as they are written: a head matches its atom
one way when the pattern, each of its variables mapped to a store term,
equals the atom's arguments read through ``walk`` on the store's mgu, and
a head variable that repeats must meet identical store terms. The pattern's
variables are only ever keys of that map, so their names cannot meet the
store's. This match holds exactly when the argument equations with a
renamed-apart copy of the head are entailed. A failed store entails
anything, so there every assignment matches. Only a guard goes to the
entailment check, instantiated with the matched terms.

Each rule still draws fresh names for all its variables once per call, in
program order, so the names a derivation hands out do not depend on which
rules fire; but a rule is renamed apart only once one of its firings has
passed the token and guard checks. A call that asks only for the first
firing stops matching there, and the rules after it still draw their names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..constraints import Store, entails_exists
from ..syntax import Rule, Token
from ..terms import Equation, FreshSupply, Var, rename_vars, vars_of, walk


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


def _identical(s, t, mgu) -> bool:
    """Are two store terms the same term under the mgu?"""
    stack = [(s, t)]
    while stack:
        s, t = stack.pop()
        if s is t:
            continue
        s, t = walk(s, mgu), walk(t, mgu)
        if type(s) is Var or type(t) is Var:
            if s is not t:
                return False
        elif s.functor != t.functor or len(s.args) != len(t.args):
            return False
        else:
            stack.extend(zip(s.args, t.args))
    return True


def _match(head, atom, theta, mgu):
    """theta extended so that the head pattern, its variables mapped
    through it, equals the atom under the mgu; None when there is none.
    The head's functor and arity are the atom's."""
    theta = dict(theta)
    stack = list(zip(reversed(head.args), reversed(atom.args)))
    while stack:
        p, t = stack.pop()
        if type(p) is Var:
            if p not in theta:
                theta[p] = t
            elif not _identical(theta[p], t, mgu):
                return None
            continue
        t = walk(t, mgu)
        if type(t) is Var or t.functor != p.functor or len(t.args) != len(p.args):
            return None
        stack.extend(zip(reversed(p.args), reversed(t.args)))
    return theta


def argument_equations(atoms, heads) -> tuple:
    """The equations between each atom's arguments and its head's."""
    return tuple(
        Equation(a.atom.args[i], h.args[i])
        for a, h in zip(atoms, heads)
        for i in range(len(h.args))
    )


def functor_index(ordered) -> dict:
    """The positions of the identified atoms in ``ordered`` by the functor
    and arity of their atom, each bucket in order."""
    buckets: dict = {}
    for j, a in enumerate(ordered):
        buckets.setdefault((a.atom.functor, len(a.atom.args)), []).append(j)
    return buckets


def head_assignments(heads, ordered, index, mgu=None):
    """(positions, theta) for each injective choice of one atom in
    ``ordered`` per head, drawn from the head's bucket of the atoms'
    ``functor_index``, in lexicographic order of the positions. With an
    mgu, only choices where every head matches its atom, theta mapping the
    head variables to store terms; without one, every choice, theta
    empty."""
    pools = [index.get((h.functor, len(h.args)), ()) for h in heads]
    if not all(pools):
        return
    # a frame per filled head: its pool iterator, the positions so far and
    # theta so far
    stack = [(iter(pools[0]), (), {})]
    while stack:
        rest, chosen, theta = stack[-1]
        for j in rest:
            if j in chosen:
                continue
            t2 = theta if mgu is None else _match(heads[len(chosen)], ordered[j].atom, theta, mgu)
            if t2 is None:
                continue
            if len(chosen) + 1 == len(heads):
                yield chosen + (j,), t2
            else:
                stack.append((iter(pools[len(chosen) + 1]), chosen + (j,), t2))
                break
        else:
            stack.pop()


def enumerate_firings(
    program, atoms, builtins: Store, tokens, fresh: FreshSupply = None, first: bool = False
) -> List[Firing]:
    """All firings of program rules on the given identified atoms, or with
    ``first`` only the first of them, if any.

    Enumeration order is deterministic: program order, then assignments over
    atoms sorted by identifier. Each rule draws fresh names for its
    variables once per call, from ``fresh``, which must avoid the atoms'
    variables (by default a ``FreshSupply()`` that does); it is renamed
    apart with them only when it fires. With ``first``, the rules after the
    first firing are not matched but still draw their names, so the supply
    is left where a full call leaves it. On a failed store every assignment
    fires.
    """
    ordered = sorted(atoms, key=lambda a: a.ident)
    index = functor_index(ordered)
    mgu = None if builtins.failed else builtins.mgu()
    fresh = fresh or FreshSupply(avoid=vars_of(ordered))
    out: List[Firing] = []
    for idx, rule in enumerate(program.rules):
        mapping = {v: fresh.fresh() for v in rule.variables}
        if first and out:
            continue
        renamed = None
        for chosen, theta in head_assignments(rule.heads, ordered, index, mgu):
            combo = tuple(ordered[j] for j in chosen)
            token = Token(rule.name, tuple(a.ident for a in combo))
            if token in tokens:
                continue
            # theta binds the head variables to their store terms and the
            # mapping renames the guard's own; one simultaneous step
            if rule.guard and not entails_exists(
                builtins, (), rename_vars(rule.guard, {**mapping, **theta})
            ):
                continue
            if renamed is None:
                renamed = rename_vars(rule, mapping)
            nk = len(rule.kept)
            eqs = argument_equations(combo, renamed.heads)
            out.append(Firing(idx, renamed, combo[:nk], combo[nk:], eqs, token))
            if first:
                break
    return out
