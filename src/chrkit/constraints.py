"""Built-in constraint store: conjunctions of equalities over finite trees.

The built-in language is fixed to true, false and =. A store is either FAILED
or a satisfiable conjunction. It keeps the equations conjoined so far and
carries their triangular most general unifier (mgu): conjoin unifies only the
new equations against the parent store's mgu, so a chain of n conjoins solves
each equation once instead of re-solving the whole history at every step. A
store built directly from an equation tuple computes its mgu lazily, from
scratch. The idempotent solved form, which equivalence and analysis read, is
computed on demand from the equations and cached. Entailment of existentially
quantified equations is decided by unification of the query, instantiated
through the mgu, with every non-quantified variable frozen; for equality over
finite trees this is exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .terms import (
    Equation,
    FalseConstraint,
    Subst,
    Var,
    apply_subst,
    rename_vars,
    solved_form,
    unify,
    vars_of,
)


@dataclass(frozen=True)
class Store:
    """Immutable built-in store; use conjoin() to grow it."""

    equations: tuple = ()
    failed: bool = False
    # the mgu conjoin carried over from the parent store, if any
    _mgu: Optional[dict] = field(default=None, compare=False, repr=False)
    # the mgu of all equations unified in one pass, computed on demand
    _scratch: Optional[dict] = field(default=None, compare=False, repr=False)
    _solved: Optional[dict] = field(default=None, compare=False, repr=False)
    _vars: Optional[frozenset] = field(default=None, compare=False, repr=False)

    def variables(self) -> frozenset:
        """The variables of the equations; conjoin extends the parent's."""
        if self._vars is None:
            object.__setattr__(self, "_vars", frozenset(vars_of(self.equations)))
        return self._vars

    def _scratch_mgu(self) -> Subst:
        if self.failed:
            raise ValueError("failed store has no unifier")
        if self._scratch is None:
            sub = unify([(e.lhs, e.rhs) for e in self.equations])
            assert sub is not None, "unsatisfiable store not marked failed"
            object.__setattr__(self, "_scratch", sub)
        return self._scratch

    def mgu(self) -> Subst:
        """A triangular most general unifier of the equations; read-only."""
        return self._mgu if self._mgu is not None else self._scratch_mgu()

    def solved(self) -> Subst:
        """Idempotent solved form of the equations unified in one pass.

        It is not derived from a carried mgu: which variable of a class the
        mgu keeps unbound depends on how the equations were batched into
        conjoins, and the termination checker's views (analysis._live_view)
        show that choice.
        """
        if self._solved is None:
            object.__setattr__(self, "_solved", solved_form(self._scratch_mgu()))
        return self._solved


TRUE = Store()
FAILED = Store(failed=True)


def conjoin(store: Store, items: Iterable) -> Store:
    """Add built-in constraints to a store; FAILED is absorbing."""
    items = tuple(items)
    if store.failed or any(isinstance(i, FalseConstraint) for i in items):
        return FAILED
    new = tuple(i for i in items if isinstance(i, Equation))
    if not new:
        return store
    sub = unify([(e.lhs, e.rhs) for e in new], base=store.mgu())
    if sub is None:
        return FAILED
    return Store(store.equations + new, _mgu=sub, _vars=store.variables() | vars_of(new))


def satisfiable(store: Store) -> bool:
    return not store.failed


def entailment_witness(store: Store, exvars, eqs: Sequence[Equation]):
    """Witness for: store implies exists(exvars). /\\ eqs.

    Returns the witness substitution (bindings for exvars only) when the
    entailment holds, else None. A failed store entails everything.

    The quantifier binds its variables apart from the store's: an exvar that
    also occurs in the store is renamed to a fresh variable for the check,
    and the witness is given back in the caller's names.
    """
    if store.failed:
        return {}
    exvars = frozenset(exvars)
    clash = exvars and exvars & store.variables()
    back: Subst = {}
    if clash:
        taken = store.variables() | vars_of(eqs)
        names = (Var(f"_E{i}") for i in itertools.count(1))
        fresh = (v for v in names if v not in taken)
        rename = {v: next(fresh) for v in sorted(clash, key=lambda v: v.name)}
        back = {w: v for v, w in rename.items()}
        eqs = rename_vars(tuple(eqs), rename)
        exvars = (exvars - clash) | frozenset(back)
    inst = [apply_subst(e, store.mgu()) for e in eqs]
    frozen = frozenset(vars_of(inst)) - exvars
    sub = unify([(e.lhs, e.rhs) for e in inst], frozen=frozen, prefer=exvars)
    if sub is None:
        return None
    witness = solved_form(sub)
    if back:
        witness = {back.get(v, v): rename_vars(t, back) for v, t in witness.items()}
    return witness


def entails_exists(store: Store, exvars, eqs: Sequence[Equation]) -> bool:
    return entailment_witness(store, exvars, eqs) is not None


def entails_eq(store: Store, eq: Equation) -> bool:
    return entails_exists(store, (), [eq])


def equations_satisfiable(eqs: Sequence[Equation], frozen=frozenset()) -> bool:
    """Satisfiability of a conjunction, treating ``frozen`` vars as constants."""
    return unify([(e.lhs, e.rhs) for e in eqs], frozen=frozenset(frozen)) is not None


def stores_equivalent(a: Store, b: Store) -> bool:
    """Logical equivalence of two stores (mutual entailment)."""
    if a.failed or b.failed:
        return a.failed == b.failed
    bind_a = [Equation(v, t) for v, t in a.solved().items()]
    bind_b = [Equation(v, t) for v, t in b.solved().items()]
    return all(entails_eq(a, e) for e in bind_b) and all(
        entails_eq(b, e) for e in bind_a
    )


def guards_equivalent(guard_a: Sequence[Equation], guard_b: Sequence[Equation]) -> bool:
    """CT-equivalence of two guards given as equation conjunctions."""
    return stores_equivalent(conjoin(TRUE, guard_a), conjoin(TRUE, guard_b))


def project(store: Store, keep) -> tuple:
    """Equations equivalent to the store with everything outside ``keep``
    existentially quantified, as far as equations can express it.

    Variables not in ``keep`` are eliminated when possible (bound ones are
    substituted out, pure links between keep variables surface as keep=keep
    equations). Non-eliminable locals remain, canonically renamed to _L1,
    _L2, ... in order of appearance; they read as existentially quantified.
    """
    if store.failed:
        return (FalseConstraint(),)
    keep = frozenset(keep)
    local = frozenset(vars_of(store.equations)) - keep
    sub = unify(
        [(e.lhs, e.rhs) for e in store.equations], prefer=local
    )
    sigma = solved_form(sub)
    out = []
    for v in sorted(keep & set(sigma), key=lambda v: v.name):
        t = sigma[v]
        if isinstance(t, Var) and t in keep and t.name < v.name:
            out.append(Equation(v, t))
        elif isinstance(t, Var) and t in keep:
            out.append(Equation(t, v))
        else:
            out.append(Equation(v, t))
    # keep-to-keep equations may come out doubled or reversed; normalize
    seen = set()
    uniq = []
    for e in out:
        key = (e.lhs, e.rhs)
        if key not in seen and e.lhs != e.rhs:
            seen.add(key)
            uniq.append(e)
    return canonical_locals(tuple(uniq), keep)


def canonical_locals(obj, keep, prefix: str = "_L"):
    """Rename all variables outside ``keep`` to _L1, _L2, ... by first
    appearance (term order within the object)."""
    mapping: Subst = {}

    def visit(t):
        if isinstance(t, Var):
            if t not in keep and t not in mapping:
                mapping[t] = Var(f"{prefix}{len(mapping) + 1}")
        else:
            for a in getattr(t, "args", ()):
                visit(a)

    def visit_obj(o):
        if isinstance(o, (Var,)) or hasattr(o, "functor"):
            visit(o)
        elif isinstance(o, Equation):
            visit(o.lhs)
            visit(o.rhs)
        elif isinstance(o, FalseConstraint):
            pass
        elif isinstance(o, (tuple, list)):
            for x in o:
                visit_obj(x)
        elif hasattr(o, "map_terms"):
            o.map_terms(lambda t: (visit_obj(t), t)[1])
        else:
            raise TypeError(f"cannot canonicalize {o!r}")

    visit_obj(obj)
    return rename_vars(obj, mapping)
