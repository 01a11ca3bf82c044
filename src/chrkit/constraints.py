"""Built-in constraint store: conjunctions of equalities over finite trees.

The built-in language is fixed to true, false and =. A store is either FAILED
or a satisfiable conjunction. It keeps the equations conjoined so far and one
triangular most general unifier (mgu) of them: conjoin unifies only the new
equations against the parent's mgu, so a chain of n conjoins solves each
equation once; a store built from an equation tuple computes the mgu lazily.
``Store.solved()`` is the store's normal form: the idempotent mgu with each
free class named by its least member (by name). Over finite trees two
satisfiable stores are equivalent iff their normal forms are equal, so
``stores_equivalent`` is one comparison.

The answers and the termination checker's live views depend on which variable
of a class stays free, and read ``solve``: the ``equations`` history unified in
one pass, in order; it stays because outputs depend on its order. Under ``r @
a(Z) <=> p(Z).`` the goal ``p(X), q(Y), X=Y`` answers ``p(Y), q(Y), Y=X`` but
``p(X), q(Y), Y=X`` answers ``p(X), q(X), Y=X``; and views that keep goal
variables as class representatives find that ``r0 @ q(W) <=> g(f(f(Y)),W)=a |
true. r1 @ q(Z) <=> b=W. r2 @ q(W) \\ s(X) <=> s(X), X=Y.`` diverges from
``s(D), q(D), s(A)`` within one rule application, where it is ``unknown``.

Entailment of existentially quantified equations is decided by unification
of the query, instantiated through the mgu, with every non-quantified
variable frozen; for equality over finite trees this is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .terms import (
    Equation,
    FalseConstraint,
    FreshSupply,
    Subst,
    Var,
    apply_subst,
    rename_vars,
    solved_form,
    unify,
    vars_in_order,
    vars_of,
    walk,
)


@dataclass(frozen=True)
class Store:
    """Immutable built-in store; use conjoin() to grow it."""

    equations: tuple = ()
    failed: bool = False
    _mgu: Optional[dict] = field(default=None, compare=False, repr=False)
    _solved: Optional[dict] = field(default=None, compare=False, repr=False)
    _vars: Optional[frozenset] = field(default=None, compare=False, repr=False)
    _constrained: Optional[frozenset] = field(default=None, compare=False, repr=False)

    def variables(self) -> frozenset:
        """The variables of the equations, collected on first use."""
        if self._vars is None:
            object.__setattr__(self, "_vars", frozenset(vars_of(self.equations)))
        return self._vars

    def mgu(self) -> Subst:
        """A triangular most general unifier of the equations; read-only."""
        if self.failed:
            raise ValueError("failed store has no unifier")
        if self._mgu is None:
            sub = unify([(e.lhs, e.rhs) for e in self.equations])
            assert sub is not None, "unsatisfiable store not marked failed"
            object.__setattr__(self, "_mgu", sub)
        return self._mgu

    def solved(self) -> Subst:
        """The normal form, cached; read-only: before ``solved_form``, a copy
        of ``mgu()`` swaps each free class's root for its least member."""
        if self._solved is None:
            mgu, least = self.mgu(), {}
            for v in mgu:
                r = walk(v, mgu)
                if isinstance(r, Var) and v.name < least.get(r, r).name:
                    least[r] = v
            mgu = dict(mgu) if least else mgu
            for r, m in least.items():
                del mgu[m]
                mgu[r] = m
            object.__setattr__(self, "_solved", solved_form(mgu))
        return self._solved

    def constrained_vars(self) -> frozenset:
        """The variables ``solved()`` binds or mentions, cached."""
        if self._constrained is None:
            sigma = self.solved()
            object.__setattr__(
                self, "_constrained", frozenset(sigma) | vars_of(list(sigma.values()))
            )
        return self._constrained


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
    return Store(store.equations + new, _mgu=sub)


def satisfiable(store: Store) -> bool:
    return not store.failed


def solve(store: Store, prefer=frozenset()) -> Subst:
    """Idempotent mgu of the store's equations unified in one pass, in the
    order they were conjoined, binding the ``prefer`` side of each
    variable-variable pair: the history fixes which variable stays free."""
    sub = unify([(e.lhs, e.rhs) for e in store.equations], prefer=prefer)
    return solved_form(sub)


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
        fresh = FreshSupply("_E", store.variables() | vars_of(eqs))
        rename = {v: fresh.fresh() for v in sorted(clash, key=lambda v: v.name)}
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


def equations_satisfiable(eqs: Sequence[Equation], frozen=frozenset()) -> bool:
    """Satisfiability of a conjunction, treating ``frozen`` vars as constants."""
    return unify([(e.lhs, e.rhs) for e in eqs], frozen=frozenset(frozen)) is not None


def stores_equivalent(a: Store, b: Store) -> bool:
    """Logical equivalence of two stores: equal normal forms."""
    if a.failed or b.failed:
        return a.failed == b.failed
    return a.solved() == b.solved()


def guards_equivalent(guard_a: Sequence[Equation], guard_b: Sequence[Equation]) -> bool:
    """CT-equivalence of two guards given as equation conjunctions."""
    return stores_equivalent(conjoin(TRUE, guard_a), conjoin(TRUE, guard_b))


def project(store: Store, keep, sigma: Optional[Subst] = None) -> tuple:
    """Equations equivalent to the store with everything outside ``keep``
    existentially quantified, as far as equations can express it.

    Variables not in ``keep`` are eliminated when possible (bound ones are
    substituted out, pure links between keep variables surface as keep=keep
    equations). Non-eliminable locals remain, canonically renamed to _L1,
    _L2, ... in order of appearance; they read as existentially quantified.
    ``sigma``, when given, equals ``solve(store, store.variables() - keep)``;
    being idempotent, it gives one equation per bound keep variable.
    """
    if store.failed:
        return (FalseConstraint(),)
    keep = frozenset(keep)
    if sigma is None:
        sigma = solve(store, prefer=store.variables() - keep)
    out = []
    for v in sorted(keep & set(sigma), key=lambda v: v.name):
        t = sigma[v]
        if isinstance(t, Var) and t in keep and t.name > v.name:
            out.append(Equation(t, v))
        else:
            out.append(Equation(v, t))
    return canonical_locals(tuple(out), keep)


def canonical_locals(obj, keep):
    """Rename all variables outside ``keep`` to _L1, _L2, ... by first
    appearance (term order within the object), skipping the names of
    ``keep``."""
    fresh = FreshSupply("_L", keep)
    mapping: Subst = {v: fresh.fresh() for v in vars_in_order(obj) if v not in keep}
    return rename_vars(obj, mapping)
