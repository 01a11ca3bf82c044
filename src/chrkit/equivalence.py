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

Both ``states_equivalent_mod`` and ``rules_isomorphic`` are decided by
one backtracking search over an explicit stack (``_search``): each item
of one side maps to an unused candidate of the other under one injective
renaming, and a token is checked as soon as its identifiers are mapped.
A state's built-in store enters the search as facts, one ``v = value``
per constrained variable, read off its idempotent mgu with each free
class replaced by one class variable: two satisfiable stores over finite
trees are equivalent under a renaming iff their facts correspond. Callers
keep the search off most pairs of states through ``state_fingerprint``, a
key that no renaming the check allows can change (the symmetry reduction
of explicit-state model checking); the per-variable profiles behind the
key and the identifiers' token roles prune the candidates, as in
individualization and refinement (McKay & Piperno, JSC 2014).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Optional

from .constraints import Store, stores_equivalent
from .terms import Compound, Equation, FalseConstraint, Var, rename_vars, vars_of, walk
from .syntax import IdAtom, Token, clean_tokens, print_item


def _match_term(ta, tb, rho: Dict, fixed, pa=None, pb=None) -> Optional[Dict]:
    """Extend the injective variable map rho so that ta renamed equals tb.

    With profile maps pa and pb, a variable is only mapped to one with the
    same profile, or none. rho itself is never changed."""
    out = dict(rho)
    stack = [(ta, tb)]
    while stack:
        ta, tb = stack.pop()
        if isinstance(ta, Var) and isinstance(tb, Var):
            if ta in out:
                if out[ta] != tb:
                    return None
            elif ta in fixed or tb in fixed:
                if ta != tb:
                    return None
            elif tb in out.values() or (pa is not None and pa.get(ta) != pb.get(tb)):
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


class _ClassVar(Var):
    """Stands for a free class of a store; equal to no named variable."""


def _token_roles(tokens) -> Dict:
    """Each identifier's sorted ``(rule name, position)`` pairs over the tokens."""
    roles: Dict = {}
    for t in tokens:
        for pos, i in enumerate(t.idents):
            roles.setdefault(i, []).append((t.rule_name, pos))
    return {i: tuple(sorted(r)) for i, r in roles.items()}


def _item(part, term, ident, roles):
    """A search item keyed by part, shape and roles; one with roles never commits."""
    r = roles.get(ident, ())
    return (part, term.functor, len(term.args), r), term, ident, None if r else 0


def _search(items, cands, tokens_a, tokens_b, fixed=frozenset(), pa=None, pb=None) -> bool:
    """Is there one injective renaming of the variables, the identity on
    ``fixed``, and one injective map of the identifiers under which each
    item ``(key, term, ident, slack)`` equals a distinct candidate with
    its key, and ``tokens_a`` becomes ``tokens_b``?

    Depth first over an explicit stack, the items are mapped fewest
    candidates first, each followed by the store facts (items identified
    by a variable) on its variables; facts on fixed variables come first
    and the others last. A fact on a mapped or fixed variable has one
    candidate, the fact on the image. A token is checked as soon as its
    last identifier is mapped. An item commits to its first matching
    candidate when the match maps at most ``slack`` new variables, which
    occur in no other item: every candidate it could match interchanges
    with that one.
    """
    pools, by_ident = {}, {}
    for c in cands:
        pools.setdefault(c[0], []).append(c)
        by_ident[c[2]] = c
    if len(tokens_a) != len(tokens_b) or len(items) != len(by_ident):
        return False
    facts = {it[2]: it for it in items if isinstance(it[2], Var)}
    order = [facts.pop(v) for v in list(facts) if v in fixed]
    for it in sorted(items, key=lambda it: len(pools.get(it[0], ()))):
        if not isinstance(it[2], Var):
            order += [it] + [facts.pop(v) for v in vars_of(it[1]) if v in facts]
    items = order + list(facts.values())
    pos = {it[2]: k for k, it in enumerate(items) if not isinstance(it[2], Var)}
    due: Dict[int, list] = {}
    for t in tokens_a:
        due.setdefault(max((pos[i] for i in t.idents), default=0), []).append(t)
    if not items:
        return tokens_a == tokens_b

    def choices(k, rho):
        key, _, ident, _ = items[k]
        if isinstance(ident, Var) and (ident in fixed or ident in rho):
            hit = by_ident.get(rho.get(ident, ident))
            return iter((hit,) if hit else ())
        return iter(pools.get(key, ()))

    idmap, used = {}, set()
    # a frame per item being mapped: its index, the renaming before it and
    # its untried candidates; the candidate it holds is in idmap and used
    stack = [(0, {}, choices(0, {}))]
    while stack:
        k, rho, rest = stack[-1]
        _, term, ident, slack = items[k]
        if ident in idmap:
            used.discard(idmap.pop(ident))
        for _, term_b, ident_b, _ in rest:
            if ident_b in used:
                continue
            r2 = _match_term(term, term_b, rho, fixed, pa, pb)
            if r2 is None:
                continue
            idmap[ident] = ident_b
            if any(
                Token(t.rule_name, tuple(idmap[i] for i in t.idents)) not in tokens_b
                for t in due.get(k, ())
            ):
                del idmap[ident]
                continue
            if k + 1 == len(items):
                return True
            used.add(ident_b)
            if slack is not None and len(r2) <= len(rho) + slack:
                stack[-1] = (k, rho, iter(()))
            stack.append((k + 1, r2, choices(k + 1, r2)))
            break
        else:
            stack.pop()
    return False


def _state_items(atoms, store: Store, tokens, profiles, fixed):
    """A non-failed state's search items, cleaned tokens and profiles
    (computed when None). The items are the atoms and one fact
    ``v = value`` per variable of ``store.constrained_vars()``: the value
    is v's binding in ``solved()`` with each free class replaced by one
    class variable, so it depends on no equation order, orientation or
    batching. A fact has a slack of 1, its variable: the search reaches
    the facts on fixed and atom variables once these are mapped, and
    takes their one candidate by identifier, so only the other facts are
    keyed, by their labels.
    """
    tokens = clean_tokens(tokens, atoms)
    if profiles is None:
        profiles = var_profiles(atoms, store, fixed)
    roles = _token_roles(tokens)
    items = [_item("atom", a.atom, a.ident, roles) for a in atoms]
    sigma = store.solved()
    cls = {v: _ClassVar(v.name) for v in store.constrained_vars() if v not in sigma}
    reached = fixed | vars_of([a.atom for a in atoms])
    for v in sorted(store.constrained_vars(), key=lambda v: v.name):
        t = sigma.get(v, v)
        fact = Compound("=", (v, cls[t] if isinstance(t, Var) else rename_vars(t, cls)))
        items.append((None if v in reached else _label(fact, profiles), fact, v, 1))
    return items, tokens, profiles


def shape_key(atoms, store: Store):
    """The multiset of atom shapes, which equivalent states share, as a
    hashable key; None for every failed state."""
    if store.failed:
        return None
    return tuple(sorted((a.atom.functor, len(a.atom.args)) for a in atoms))


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
    """The term in preorder, each variable replaced by its profile (None
    for a class variable)."""
    out = []
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            out.append(profiles.get(t))
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
    replaced by its profile, each paired with its token roles; the
    profiles themselves; and the cleaned tokens over those atom labels.
    All failed states share one key.
    """
    if store.failed:
        return None, {}
    profiles = var_profiles(atoms, store, fixed)
    tokens = clean_tokens(tokens, atoms)
    roles = _token_roles(tokens)
    labels = {a.ident: _label(a.atom, profiles) for a in atoms}
    key = (
        _multiset((labels[a.ident], roles.get(a.ident, ())) for a in atoms),
        _multiset(profiles.values()),
        _multiset((t.rule_name, tuple(labels[i] for i in t.idents)) for t in tokens),
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
    fixed = frozenset(fixed_vars)
    items, ta, pa = _state_items(chr_a, builtins_a, tokens_a, profiles_a, fixed)
    cands, tb, pb = _state_items(chr_b, builtins_b, tokens_b, profiles_b, fixed)
    return _search(items, cands, ta, tb, fixed, pa, pb)


def _multiset_equal(xs, ys) -> bool:
    return sorted(map(print_item, xs)) == sorted(map(print_item, ys))


def configs_correspond(std, fused) -> bool:
    """Does a two-store configuration and a fused-store configuration
    describe the same computation point?

    The two-store side stands for the fused atoms of its store plus each
    goal constraint, left to right, pre-stamped with the identifier it is
    about to get: both readings hand out the same identifiers by
    construction, as the goal's atoms are 1..n and a fired body's atoms
    follow the counter in body order. The counters must then coincide, and
    the pending built-ins, the atoms, the cleaned token stores and the
    built-in stores agree. A token on a pending atom names an identifier
    from the counter on, which the two-store cleaning drops, so equal
    tokens leave the pending atoms untouched.
    """
    stamped = tuple(IdAtom(a, std.counter + j) for j, a in enumerate(std.goal))
    return (
        std.counter + len(std.goal) == fused.counter + 1
        and _multiset_equal(std.pending, fused.pending)
        # atoms are compared as printed text: hashing whole terms costs more
        and _multiset_equal(std.store + stamped, fused.atoms)
        # tokens whose atoms are gone can never fire and carry no information
        and clean_tokens(std.tokens, std.store) == clean_tokens(fused.tokens, fused.atoms)
        and stores_equivalent(std.builtins, fused.builtins)
    )


def _rule_items(rule, flipped: bool) -> list:
    """A rule's search items: heads, guard and body equations (with
    ``flipped``, each also in the other orientation under the same
    identifier) and body atoms, identified ones with their token roles."""
    roles = _token_roles(rule.tokens)
    parts = [("kept", h) for h in rule.kept] + [("removed", h) for h in rule.removed]
    parts += [("guard", g) for g in rule.guard] + [("body", b) for b in rule.body]
    items = []
    for j, (part, x) in enumerate(parts):
        if isinstance(x, Equation):
            sides = ((x.lhs, x.rhs), (x.rhs, x.lhs))[: 1 + flipped]
            items += [_item(part, Compound("=", lr), (j,), roles) for lr in sides]
        elif isinstance(x, IdAtom):
            items.append(_item(part, x.atom, x.ident, roles))
        elif isinstance(x, Compound):
            items.append(_item(part, x, (j,), roles))
    return items


def rules_isomorphic(ra, rb) -> bool:
    """Same rule modulo variable renaming and identifier renaming; head,
    guard and body parts are compared as multisets, and equations in
    either orientation."""
    falses = [sum(isinstance(b, FalseConstraint) for b in r.body) for r in (ra, rb)]
    if ra.name != rb.name or falses[0] != falses[1]:
        return False
    return _search(_rule_items(ra, False), _rule_items(rb, True), ra.tokens, rb.tokens)
