"""First-order terms, substitutions and unification.

Terms are immutable: a variable (name starting with an uppercase letter or
underscore) or a compound (lowercase functor plus argument tuple). Constants
are zero-arity compounds. Variables are interned, one object per name (the
hash-consing of a term's leaves), so comparing or hashing one is a pointer
operation and ``is`` agrees with ``==``. Unification always runs the occurs
check, so the equational theory is the one of finite trees.

No function here recurses over term depth, which a user's term or one
built through a triangular substitution can make exceed the recursion
limit: every walk keeps its own stack. ``map_terms`` recurses only over
the shallow nesting of the objects that hold terms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Union


class Var:
    """A variable, interned: ``Var(name)`` gives the one object of its
    class with that name, so ``==`` and ``hash`` are those of identity and
    agree with ``is``. A subclass interns its own names apart."""

    __slots__ = ("name",)
    _interned: dict = {}  # name -> the variable, one dict per class

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._interned = {}

    def __new__(cls, name: str):
        v = cls._interned.get(name)
        if v is None:
            v = object.__new__(cls)
            object.__setattr__(v, "name", name)
            # one atomic call: of two threads interning a name, both get
            # the object the first stored
            v = cls._interned.setdefault(name, v)
        return v

    def __setattr__(self, attr, value):
        raise AttributeError(f"cannot assign to {attr!r} of an interned variable")

    def __delattr__(self, attr):
        raise AttributeError(f"cannot delete {attr!r} of an interned variable")

    def __reduce__(self):
        # copy, deepcopy and unpickling intern the name again
        return self.__class__, (self.name,)

    def __repr__(self):
        return f"Var({self.name})"


@dataclass(frozen=True, eq=False)
class Compound:
    """A functor applied to a tuple of argument terms. ``==`` and ``hash``
    compare the structure, and ``repr`` prints ``Compound(f, [args])``;
    all three keep their own stack, so a term of any depth works."""

    functor: str
    args: tuple = ()

    def __eq__(self, other):
        if other.__class__ is not Compound:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.functor != b.functor or len(a.args) != len(b.args):
                return False
            for x, y in zip(a.args, b.args):
                if x.__class__ is Compound and y.__class__ is Compound:
                    stack.append((x, y))
                elif not x == y:
                    return False
        return True

    def __hash__(self):
        # post-order: a compound hashes its functor with its arguments'
        # hashes, so equal terms hash alike; a frame per compound holds
        # the functor, an iterator over its args and their hashes so far
        frames = [(self.functor, iter(self.args), [])]
        while True:
            functor, rest, done = frames[-1]
            for a in rest:
                if a.__class__ is Compound and a.args:
                    frames.append((a.functor, iter(a.args), []))
                    break
                done.append(hash(a))
            else:
                frames.pop()
                h = hash((functor, tuple(done)))
                if not frames:
                    return h
                frames[-1][2].append(h)

    def __repr__(self):
        # the stack holds compounds still to print and finished text
        out = []
        stack = [self]
        while stack:
            t = stack.pop()
            if t.__class__ is not Compound:
                out.append(t)
            elif not t.args:
                out.append(f"Compound({t.functor})")
            else:
                out.append(f"Compound({t.functor}, [")
                stack.append("])")
                for i in range(len(t.args) - 1, -1, -1):
                    a = t.args[i]
                    stack.append(a if a.__class__ is Compound else repr(a))
                    if i:
                        stack.append(", ")
        return "".join(out)


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


def vars_in_order(obj) -> dict:
    """The free variables of a term, an equation, or any nesting of
    iterables and objects with a ``parts`` method (the terms and term
    holders they are made of), as the keys of a dict in order of first
    appearance (preorder, left to right)."""
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
            elif hasattr(o, "parts"):
                stack.append(iter(o.parts()))
                break
            else:
                raise TypeError(f"cannot collect variables from {o!r}")
        else:
            stack.pop()
    return out


def vars_of(obj) -> set:
    """Free variables of a term, an equation, or any nesting of iterables."""
    return set(vars_in_order(obj))


Subst = dict  # Var -> Term, triangular; use resolve() to read through chains


def walk(t: Term, sub: Subst) -> Term:
    while isinstance(t, Var):
        nxt = sub.get(t)
        if nxt is None or nxt is t:
            return t
        t = nxt
    return t


def _rebuild(t: Term, sub: Subst, memo: Optional[dict]) -> Term:
    """The term with each variable V replaced by its image through ``sub``.

    With a ``memo`` dict, ``sub`` is triangular: the image is the end of V's
    chain of bindings, itself rebuilt, and it is recorded in ``memo``, which
    is read first, so a variable is resolved once per memo. Without one,
    the image is ``sub.get(V, V)`` as it is (a renaming, or a substitution
    applied in one simultaneous step)."""
    # a frame per compound: functor, iterator over args, args rebuilt so
    # far, the variable whose image it is (or None); the bottom frame
    # collects the result
    stack = [(None, iter((t,)), [], None)]
    while True:
        functor, rest, done, _ = stack[-1]
        for a in rest:
            v = None
            if isinstance(a, Var):
                if memo is None:
                    done.append(sub.get(a, a))
                    continue
                if a in memo:
                    done.append(memo[a])
                    continue
                v, a = a, walk(a, sub)
                if isinstance(a, Var):
                    memo[v] = a
                    done.append(a)
                    continue
            if not a.args:
                if v is not None:
                    memo[v] = a
                done.append(a)
                continue
            stack.append((a.functor, iter(a.args), [], v))
            break
        else:
            _, _, _, v = stack.pop()
            if not stack:
                return done[0]
            term = Compound(functor, tuple(done))
            if v is not None:
                memo[v] = term
            stack[-1][2].append(term)


def resolve(t: Term, sub: Subst, memo: Optional[dict] = None) -> Term:
    """Apply a (possibly triangular) substitution exhaustively. A ``memo``
    shared by calls over the same substitution resolves each variable
    once (see ``_rebuild``)."""
    return _rebuild(t, sub, {} if memo is None else memo)


def map_terms(obj, fn, *args):
    """Structure-preserving application of ``fn(term, *args)`` to every
    term held by a term, an equation, a tuple or list of them, or an
    object with a ``map_terms`` method."""
    if isinstance(obj, (Var, Compound)):
        return fn(obj, *args)
    if isinstance(obj, Equation):
        return Equation(fn(obj.lhs, *args), fn(obj.rhs, *args))
    if isinstance(obj, FalseConstraint):
        return obj
    if type(obj) in (tuple, list):
        return type(obj)(map_terms(x, fn, *args) for x in obj)
    if hasattr(obj, "map_terms"):
        return obj.map_terms(lambda t: map_terms(t, fn, *args))
    raise TypeError(f"cannot map terms in {obj!r}")


def apply_subst(obj, sub: Subst):
    """Structure-preserving substitution application."""
    return map_terms(obj, resolve, sub, {})


def rename_vars(obj, mapping: Subst):
    """Apply a Var -> Var renaming in a single simultaneous step.

    Unlike apply_subst, images are never looked up again, so mappings that
    swap or chain names (X -> Y, Y -> X) behave as a plain bijection. The
    same holds for images that are compounds: they are used as they are.
    """
    return map_terms(obj, _rebuild, mapping, None)


def occurs_in(v: Var, t: Term, sub: Subst) -> bool:
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
        if s is t:
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


def solved_form(sub: Subst) -> Subst:
    """Idempotent version of a triangular substitution. Each variable's
    image is resolved once and shared by the images that contain it."""
    memo: dict = {}
    out: Subst = {}
    for v in sub:
        t = resolve(v, sub, memo)
        if t != v:
            out[v] = t
    return out


class FreshSupply:
    """Source of fresh variable names (``_V1``, ``_V2``, ...) that skips
    the name of every variable in ``avoid``, so a name it hands out is
    never one of those nor one it handed out before."""

    def __init__(self, prefix: str = "_V", avoid=()):
        self.prefix = prefix
        self._avoid = frozenset(v.name for v in avoid)
        self._counter = itertools.count(1)

    def fresh(self) -> Var:
        while True:
            name = f"{self.prefix}{next(self._counter)}"
            if name not in self._avoid:
                return Var(name)


def rename_apart(obj, fresh: Optional[FreshSupply] = None):
    """Rename the object's variables to fresh ones, by default from a new
    ``FreshSupply()`` that avoids the object's variables; returns
    (renamed, mapping)."""
    names = vars_of(obj)
    fresh = fresh or FreshSupply(avoid=names)
    mapping: Subst = {v: fresh.fresh() for v in sorted(names, key=lambda v: v.name)}
    return rename_vars(obj, mapping), mapping
