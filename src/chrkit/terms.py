"""First-order terms, substitutions and unification.

Terms are immutable: a variable (name starting with an uppercase letter or
underscore) or a compound (lowercase functor plus argument tuple). Constants
are zero-arity compounds. Unification always runs the occurs check, so the
equational theory is the one of finite trees.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Union


@dataclass(frozen=True)
class Var:
    name: str

    def __repr__(self):
        return f"Var({self.name})"


@dataclass(frozen=True)
class Compound:
    functor: str
    args: tuple = ()

    def __repr__(self):
        if not self.args:
            return f"Compound({self.functor})"
        return f"Compound({self.functor}, {list(self.args)})"


Term = Union[Var, Compound]


def const(name: str) -> Compound:
    return Compound(name, ())


@dataclass(frozen=True)
class Equation:
    """A built-in equality constraint between two terms."""

    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class FalseConstraint:
    """The always-inconsistent built-in constraint."""


BuiltinItem = Union[Equation, FalseConstraint]


def vars_of(obj) -> set:
    """Free variables of a term, an equation, or any nesting of iterables."""
    out: set = set()
    _collect_vars(obj, out)
    return out


def _collect_vars(obj, out: set) -> None:
    if isinstance(obj, Var):
        out.add(obj)
    elif isinstance(obj, Compound):
        for a in obj.args:
            _collect_vars(a, out)
    elif isinstance(obj, Equation):
        _collect_vars(obj.lhs, out)
        _collect_vars(obj.rhs, out)
    elif isinstance(obj, FalseConstraint):
        pass
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for x in obj:
            _collect_vars(x, out)
    elif hasattr(obj, "map_terms"):
        obj.map_terms(lambda t: (_collect_vars(t, out), t)[1])
    else:
        raise TypeError(f"cannot collect variables from {obj!r}")


Subst = dict  # Var -> Term, triangular; use resolve() to read through chains


def walk(t: Term, sub: Subst) -> Term:
    while isinstance(t, Var):
        nxt = sub.get(t)
        if nxt is None or nxt == t:
            return t
        t = nxt
    return t


def resolve(t: Term, sub: Subst) -> Term:
    """Apply a (possibly triangular) substitution exhaustively."""
    t = walk(t, sub)
    if isinstance(t, Var) or not t.args:
        return t
    return Compound(t.functor, tuple(resolve(a, sub) for a in t.args))


def apply_subst(obj, sub: Subst):
    """Structure-preserving substitution application."""
    if isinstance(obj, (Var, Compound)):
        return resolve(obj, sub)
    if isinstance(obj, Equation):
        return Equation(resolve(obj.lhs, sub), resolve(obj.rhs, sub))
    if isinstance(obj, FalseConstraint):
        return obj
    if isinstance(obj, tuple):
        return tuple(apply_subst(x, sub) for x in obj)
    if isinstance(obj, list):
        return [apply_subst(x, sub) for x in obj]
    if hasattr(obj, "map_terms"):
        return obj.map_terms(lambda t: apply_subst(t, sub))
    raise TypeError(f"cannot substitute into {obj!r}")


def rename_vars(obj, mapping: Subst):
    """Apply a Var -> Var renaming in a single simultaneous step.

    Unlike apply_subst, images are never looked up again, so mappings that
    swap or chain names (X -> Y, Y -> X) behave as a plain bijection.
    """

    def term(t: Term) -> Term:
        if isinstance(t, Var):
            return mapping.get(t, t)
        if not t.args:
            return t
        return Compound(t.functor, tuple(term(a) for a in t.args))

    def go(obj):
        if isinstance(obj, (Var, Compound)):
            return term(obj)
        if isinstance(obj, Equation):
            return Equation(term(obj.lhs), term(obj.rhs))
        if isinstance(obj, FalseConstraint):
            return obj
        if isinstance(obj, tuple):
            return tuple(go(x) for x in obj)
        if isinstance(obj, list):
            return [go(x) for x in obj]
        if hasattr(obj, "map_terms"):
            return obj.map_terms(go)
        raise TypeError(f"cannot rename in {obj!r}")

    return go(obj)


def occurs_in(v: Var, t: Term, sub: Subst) -> bool:
    # explicit stack: terms reached through a triangular substitution can be
    # deeper than the interpreter's recursion limit
    stack = [t]
    while stack:
        t = walk(stack.pop(), sub)
        if isinstance(t, Var):
            if t == v:
                return True
        else:
            stack.extend(t.args)
    return False


def unify(pairs, frozen=frozenset(), prefer=frozenset(), base: Optional[Subst] = None):
    """Most general unifier of term pairs, or None.

    Runs the occurs check. Variables in ``frozen`` behave like constants:
    they are never bound (two distinct frozen variables do not unify, and a
    frozen variable only unifies with a variable or with itself). For
    variable-variable pairs the variable in ``prefer`` is bound when exactly
    one side is preferred, so callers can steer which side of the binding
    survives.
    """
    sub: Subst = dict(base) if base else {}
    stack = [(l, r) for (l, r) in pairs]
    while stack:
        s, t = stack.pop()
        s, t = walk(s, sub), walk(t, sub)
        if s == t:
            continue
        if isinstance(s, Var) and isinstance(t, Var):
            if s in frozen and t in frozen:
                return None
            if s in frozen:
                s, t = t, s
            elif t not in frozen:
                # both bindable: let the preference set pick the bound side
                if t in prefer and s not in prefer:
                    s, t = t, s
            sub[s] = t
        elif isinstance(s, Var) or isinstance(t, Var):
            if isinstance(t, Var):
                s, t = t, s
            if s in frozen:
                return None
            if occurs_in(s, t, sub):
                return None
            sub[s] = t
        else:
            if s.functor != t.functor or len(s.args) != len(t.args):
                return None
            stack.extend(zip(s.args, t.args))
    return sub


def unify_terms(s: Term, t: Term, frozen=frozenset()):
    return unify([(s, t)], frozen=frozen)


def solved_form(sub: Subst) -> Subst:
    """Idempotent version of a triangular substitution."""
    out: Subst = {}
    for v in sub:
        t = resolve(v, sub)
        if t != v:
            out[v] = t
    return out


class FreshSupply:
    """Source of fresh variable names (``_V1``, ``_V2``, ...)."""

    def __init__(self, prefix: str = "_V"):
        self.prefix = prefix
        self._counter = itertools.count(1)

    def fresh(self) -> Var:
        return Var(f"{self.prefix}{next(self._counter)}")


def rename_apart(obj, vars_to_rename=None, fresh: Optional[FreshSupply] = None):
    """Rename the object's variables to fresh ones, by default from a new
    ``FreshSupply()``; returns (renamed, mapping)."""
    fresh = fresh or FreshSupply()
    if vars_to_rename is None:
        vars_to_rename = vars_of(obj)
    mapping: Subst = {v: fresh.fresh() for v in sorted(vars_to_rename, key=lambda v: v.name)}
    return rename_vars(obj, mapping), mapping

