"""Equivalence checks between execution states.

Two gradations are used throughout the toolkit:

* ``states_equivalent_mod``: equal user-constraint stores, equivalent
  built-in stores and equal cleaned token stores, modulo a bijective
  renaming of the variables outside a protected set and of the atom
  identifiers. This is the comparison used for answers, cycle detection and
  confluence.
* ``configs_correspond``: the structural correspondence between a state of
  the two-store semantics (goal kept separate) and one of the fused-store
  semantics, used by the lockstep runner.

``states_equivalent_mod`` is a decision procedure by backtracking over
atom matchings and bijections of the leftover store variables. Callers keep
it off most pairs through ``state_fingerprint``, a key that no renaming the
check allows can change (the symmetry reduction of explicit-state model
checking): states with different keys are never equivalent, and the
per-variable profiles behind the key prune the bijection search.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Optional

from .constraints import Store, stores_equivalent
from .terms import Compound, Equation, FalseConstraint, Var, rename_vars, vars_of, walk
from .syntax import IdAtom, Token, clean_tokens


def _match_term(ta, tb, rho: Dict, fixed, pa=None, pb=None) -> Optional[Dict]:
    """Extend the injective variable map rho so that ta renamed equals tb.

    With profile maps pa and pb, a variable is only mapped to one with the
    same profile. rho itself is never changed."""
    out = dict(rho)
    stack = [(ta, tb)]
    while stack:
        ta, tb = stack.pop()
        if isinstance(ta, Var) and isinstance(tb, Var):
            if ta in fixed or tb in fixed:
                if ta != tb:
                    return None
            elif ta in out:
                if out[ta] != tb:
                    return None
            elif tb in out.values() or (pa is not None and pa[ta] != pb[tb]):
                return None
            else:
                out[ta] = tb
        elif isinstance(ta, Compound) and isinstance(tb, Compound):
            if ta.functor != tb.functor or len(ta.args) != len(tb.args):
                return None
            stack.extend(zip(reversed(ta.args), reversed(tb.args)))
        else:
            return None
    return out


def _match_atom_sets(todo, avail, fixed, rho, idmap, pa=None, pb=None):
    """Yield (rho, idmap) pairs matching the IdAtom multiset todo onto avail."""
    if not todo:
        yield rho, idmap
        return
    first = todo[0]
    for j, cand in enumerate(avail):
        r2 = _match_term(first.atom, cand.atom, rho, fixed, pa, pb)
        if r2 is None:
            continue
        im = dict(idmap)
        im[first.ident] = cand.ident
        yield from _match_atom_sets(
            todo[1:], avail[:j] + avail[j + 1:], fixed, r2, im, pa, pb
        )


def _tokens_correspond(tok_a, tok_b, idmap) -> bool:
    mapped = set()
    for t in tok_a:
        if not all(i in idmap for i in t.idents):
            return False
        mapped.add(Token(t.rule_name, tuple(idmap[i] for i in t.idents)))
    return mapped == set(tok_b)


def _stores_equivalent_mod(sa: Store, sb: Store, rho, fixed, pa, pb) -> bool:
    """Can rho be extended over the leftover variables so the stores are
    equivalent theories? Only variables with equal profiles are paired."""
    if sa.failed or sb.failed:
        return sa.failed and sb.failed
    la = sorted(sa.constrained_vars() - set(rho) - fixed, key=lambda v: v.name)
    lb = sb.constrained_vars() - set(rho.values()) - fixed
    if len(la) != len(lb):
        return False
    sig_a = sa.solved()
    sig_b = sb.solved()

    def leaf(full_rho):
        renamed = tuple(rename_vars(e, full_rho) for e in sa.equations)
        return stores_equivalent(Store(renamed), sb)

    def rec(i, rho, avail):
        if i == len(la):
            return leaf(rho)
        v = la[i]
        bound = sig_a.get(v)
        for w in sorted(avail, key=lambda x: x.name):
            if pa[v] != pb[w]:
                continue
            if bound is not None and not vars_of(bound):
                if sig_b.get(w) != bound:
                    continue
            r2 = dict(rho)
            r2[v] = w
            if rec(i + 1, r2, avail - {w}):
                return True
        return False

    return rec(0, dict(rho), lb)


def _shape_key(a: IdAtom):
    return (a.atom.functor, len(a.atom.args))


def shape_key(atoms, store: Store):
    """The multiset of atom shapes that ``states_equivalent_mod`` compares
    first, as a hashable key; None for every failed state."""
    if store.failed:
        return None
    return tuple(sorted(map(_shape_key, atoms)))


def var_profiles(atoms, store: Store, fixed) -> Dict[Var, tuple]:
    """A label for every variable of a non-failed state that each renaming
    allowed by ``states_equivalent_mod`` keeps.

    The variables are ``fixed``, those of the atoms and those of the
    store's mgu. Variables are in one class when they walk to the same
    unbound variable. A variable whose class is bound to a compound is
    labelled with its functor and arity; one whose class is unbound, with
    the sorted names of the fixed variables in the class and the class
    size. Every member of a bound class walks to a compound with the same
    top symbol, so the carried triangular mgu is read through ``walk``
    and never resolved.
    """
    fixed = frozenset(fixed)
    mgu = store.mgu()
    state_vars = vars_of([a.atom for a in atoms] + list(mgu.values()))
    state_vars |= fixed
    state_vars.update(mgu)
    profiles = {}
    classes: Dict[Var, list] = {}
    for v in state_vars:
        t = walk(v, mgu)
        if isinstance(t, Var):
            classes.setdefault(t, []).append(v)
        else:
            profiles[v] = ("bound", t.functor, len(t.args))
    for members in classes.values():
        names = tuple(sorted(v.name for v in members if v in fixed))
        label = ("free", names, len(members))
        for v in members:
            profiles[v] = label
    return profiles


def _label(term, profiles) -> tuple:
    """The term in preorder, each variable replaced by its profile."""
    out = []
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            out.append(profiles[t])
        else:
            out.append((t.functor, len(t.args)))
            stack.extend(reversed(t.args))
    return tuple(out)


def _multiset(items) -> frozenset:
    return frozenset(Counter(items).items())


def state_fingerprint(atoms, store: Store, tokens, fixed):
    """A hashable key that is equal for any two states
    ``states_equivalent_mod`` identifies, and the state's ``var_profiles``.

    The key combines three multisets: the atoms with every variable
    replaced by its profile, the profiles themselves, and the cleaned
    tokens over those atom labels. All failed states share one key.
    """
    if store.failed:
        return None, {}
    profiles = var_profiles(atoms, store, fixed)
    labels = {a.ident: _label(a.atom, profiles) for a in atoms}
    key = (
        _multiset(labels.values()),
        _multiset(profiles.values()),
        _multiset(
            (t.rule_name, tuple(labels[i] for i in t.idents))
            for t in clean_tokens(tokens, atoms)
        ),
    )
    return key, profiles


def states_equivalent_mod(
    chr_a, builtins_a, tokens_a, chr_b, builtins_b, tokens_b, fixed_vars,
    profiles_a=None, profiles_b=None,
) -> bool:
    """Comparison modulo renaming of variables outside fixed_vars and of
    atom identifiers. Failed states are all identified with each other.

    ``profiles_a`` and ``profiles_b`` are the states' ``var_profiles`` for
    the same fixed variables, computed here when not given; they only
    prune the search and never change its answer."""
    if builtins_a.failed or builtins_b.failed:
        return builtins_a.failed and builtins_b.failed
    if len(chr_a) != len(chr_b):
        return False
    if shape_key(chr_a, builtins_a) != shape_key(chr_b, builtins_b):
        return False
    fixed = frozenset(fixed_vars)
    ta = clean_tokens(tokens_a, chr_a)
    tb = clean_tokens(tokens_b, chr_b)
    if len(ta) != len(tb):
        return False
    if profiles_a is None:
        profiles_a = var_profiles(chr_a, builtins_a, fixed)
    if profiles_b is None:
        profiles_b = var_profiles(chr_b, builtins_b, fixed)
    todo = sorted(chr_a, key=lambda a: (_shape_key(a), a.ident))
    avail = sorted(chr_b, key=lambda a: (_shape_key(a), a.ident))
    for rho, idmap in _match_atom_sets(
        todo, avail, fixed, {}, {}, profiles_a, profiles_b
    ):
        if not _tokens_correspond(ta, tb, idmap):
            continue
        if _stores_equivalent_mod(
            builtins_a, builtins_b, rho, fixed, profiles_a, profiles_b
        ):
            return True
    return False


def _multiset_equal(xs, ys) -> bool:
    return sorted(xs, key=repr) == sorted(ys, key=repr)


def configs_correspond(
    goal,
    std_store,
    std_builtins,
    std_tokens,
    std_counter,
    fused_store,
    fused_builtins,
    fused_tokens,
    fused_counter,
) -> bool:
    """Does a two-store state and a fused-store state describe the same
    computation point?

    The fused store must contain, for each not-yet-introduced user constraint
    of the goal (left to right), the same atom pre-stamped with the exact
    identifier the two-store side is about to hand out, untouched by any
    token; the remaining fused atoms must be the introduced store, identifier
    for identifier, under the same token store. Both readings hand out the
    same identifiers by construction: the goal's atoms are 1..n and a fired
    body's atoms follow the counter in body order. Pending built-ins and the
    built-in stores must agree, and the counters coincide once the pending
    introductions are accounted for.
    """
    goal_atoms = [g for g in goal if isinstance(g, Compound)]
    goal_builtins = [g for g in goal if isinstance(g, (Equation, FalseConstraint))]
    fused_atoms = [x for x in fused_store if isinstance(x, IdAtom)]
    fused_pending = [x for x in fused_store if not isinstance(x, IdAtom)]
    # tokens whose atoms are gone can never fire and carry no information
    std_tokens = clean_tokens(std_tokens, std_store)
    fused_tokens = clean_tokens(fused_tokens, fused_atoms)
    if std_counter + len(goal_atoms) != fused_counter + 1:
        return False
    if not _multiset_equal(goal_builtins, fused_pending):
        return False
    if not stores_equivalent(std_builtins, fused_builtins):
        return False
    if len(fused_atoms) != len(goal_atoms) + len(std_store):
        return False
    by_id = {a.ident: a for a in fused_atoms}
    k1_ids = set()
    for j, atom in enumerate(goal_atoms):
        ia = by_id.get(std_counter + j)
        if ia is None or ia.atom != atom:
            return False
        k1_ids.add(ia.ident)
    token_ids = {i for t in fused_tokens for i in t.idents}
    if k1_ids & token_ids:
        return False
    introduced = {a.ident: a.atom for a in fused_atoms if a.ident not in k1_ids}
    return introduced == {a.ident: a.atom for a in std_store} and std_tokens == fused_tokens


def rules_isomorphic(ra, rb) -> bool:
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
