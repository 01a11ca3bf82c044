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
one backtracking search over an explicit stack (``_run``): each item
of one side maps to an unused candidate of the other under one injective
renaming, and a token is checked as soon as its identifiers are mapped.
The search needs the candidate pools of one side (``_pools``) and the
item order and token schedule of the other (``_plan``); ``_search``
builds both for a pair of rules on the spot.
A state's built-in store enters the search as facts, one ``v = value``
per constrained variable, read off its normal form (``Store.solved()``)
with each free class replaced by one class variable: two satisfiable
stores are equivalent under a renaming iff their facts correspond.
``state_fingerprint`` reads a state once, for the one set of fixed
variables it is compared under, as a ``Reading``: its variable profiles,
token roles and atom labels, which key the atoms in the search, as the
initial colouring keys individualization and refinement (McKay & Piperno,
JSC 2014), and its fingerprint ``key``, which no renaming the check
allows can change: callers keep the search off most pairs of states by
comparing keys (the symmetry reduction of explicit-state model checking).
A reading also holds its search plan, built on its first exact check: its
items, their pools and their order, so a state that meets many checks
pays for its setup once.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from typing import Dict, Optional

from .constraints import Store, stores_equivalent
from .terms import (
    Compound, Equation, FalseConstraint, Var, rename_vars, vars_in_order, vars_of, walk,
)
from .syntax import IdAtom, Token, clean_tokens, print_item


def _match_term(ta, tb, rho: Dict, fixed) -> Optional[Dict]:
    """Extend the injective variable map rho so that ta renamed equals tb;
    rho itself is never changed."""
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
            elif tb in out.values():
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

    __slots__ = ()


def _token_roles(tokens) -> Dict:
    """Each identifier's sorted ``(rule name, position)`` pairs over the tokens."""
    roles: Dict = {}
    for t in tokens:
        for pos, i in enumerate(t.idents):
            roles.setdefault(i, []).append((t.rule_name, pos))
    return {i: tuple(sorted(r)) for i, r in roles.items()}


def _item(part, term, ident, roles, label=None):
    """A search item keyed by part, label (or shape) and roles; one with roles never commits."""
    r = roles.get(ident, ())
    return (part, label or (term.functor, len(term.args)), r), term, ident, None if r else 0


def _pools(cands):
    """The candidates of one side by key, and by identifier."""
    pools, by_ident = {}, {}
    for c in cands:
        pools.setdefault(c[0], []).append(c)
        by_ident[c[2]] = c
    return pools, by_ident


def _plan(items, pools, tokens, fixed):
    """One side's items in search order, and its tokens by the index of the
    item that maps their last identifier.

    The items go fewest candidates in ``pools`` first, each followed by
    the store facts (items identified by a variable) on its variables;
    facts on fixed variables come first and the others last. Any order
    gives the same answer, so the order may come from either side's pools."""
    facts = {it[2]: it for it in items if isinstance(it[2], Var)}
    order = [facts.pop(v) for v in list(facts) if v in fixed]
    for it in sorted(items, key=lambda it: len(pools.get(it[0], ()))):
        if not isinstance(it[2], Var):
            order += [it] + [facts.pop(v) for v in vars_in_order(it[1]) if v in facts]
    order += facts.values()
    pos = {it[2]: k for k, it in enumerate(order) if not isinstance(it[2], Var)}
    due: Dict[int, list] = {}
    for t in tokens:
        due.setdefault(max((pos[i] for i in t.idents), default=0), []).append(t)
    return order, due


def _run(items, due, pools, by_ident, tokens_a, tokens_b, fixed) -> bool:
    """Is there one injective renaming of the variables, the identity on
    ``fixed``, and one injective map of the identifiers under which each
    item ``(key, term, ident, slack)``, taken in ``_plan`` order, equals a
    distinct candidate with its key, and ``tokens_a`` becomes ``tokens_b``?

    Depth first over an explicit stack. A fact on a mapped or fixed
    variable has one candidate, the fact on the image. A token is checked
    as soon as its last identifier is mapped. An item commits to its first
    matching candidate when the match maps at most ``slack`` new
    variables, which occur in no other item: every candidate it could
    match interchanges with that one.
    """
    if len(tokens_a) != len(tokens_b) or len(items) != len(by_ident):
        return False
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
            r2 = _match_term(term, term_b, rho, fixed)
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


def _search(items, cands, tokens_a, tokens_b) -> bool:
    """``_run`` over the items planned against the candidates' pools, no
    variable fixed."""
    pools, by_ident = _pools(cands)
    return _run(*_plan(items, pools, tokens_a, ()), pools, by_ident, tokens_a, tokens_b, ())


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


class Reading:
    """A state read once for its fixed set: the cleaned tokens and the
    fingerprint ``key`` (None for every failed state); for a non-failed
    state also its ``var_profiles``, identifiers' token roles, atom labels
    and, on first use, search items with their pools and plan.

    The key combines three multisets: the atom labels, each paired with
    its token roles; the profiles; and the cleaned tokens over the atom
    labels. It is equal for any two states ``states_equivalent_mod``
    identifies."""

    def __init__(self, atoms, store: Store, tokens, fixed: frozenset):
        self.atoms, self.store, self.fixed = atoms, store, fixed
        self.tokens = clean_tokens(tokens, atoms)
        self.key = None
        if store.failed:
            return
        self.profiles = var_profiles(atoms, store, fixed)
        self.roles = _token_roles(self.tokens)
        self.labels = {a.ident: _label(a.atom, self.profiles) for a in atoms}
        self.key = (
            _multiset((self.labels[a.ident], self.roles.get(a.ident, ())) for a in atoms),
            _multiset(self.profiles.values()),
            _multiset((t.rule_name, tuple(self.labels[i] for i in t.idents)) for t in self.tokens),
        )

    @cached_property
    def items(self) -> list:
        """The atoms, keyed by label and token roles, and one fact
        ``v = value`` per variable of ``store.constrained_vars()``: the
        value is v's binding in ``solved()`` with each free class replaced
        by one class variable, as a renaming need not keep a class's least
        member. A fact has a slack of 1, its variable:
        the search reaches the facts on fixed and atom variables once these
        are mapped, and takes their one candidate by identifier, so only
        the other facts are keyed, by their labels."""
        items = [
            _item("atom", a.atom, a.ident, self.roles, self.labels[a.ident])
            for a in self.atoms
        ]
        store, sigma = self.store, self.store.solved()
        cls = {v: _ClassVar(v.name) for v in store.constrained_vars() if v not in sigma}
        reached = self.fixed | vars_of([a.atom for a in self.atoms])
        for v in sorted(store.constrained_vars(), key=lambda v: v.name):
            t = sigma.get(v, v)
            fact = Compound("=", (v, cls[t] if isinstance(t, Var) else rename_vars(t, cls)))
            items.append((None if v in reached else _label(fact, self.profiles), fact, v, 1))
        return items

    @cached_property
    def pools(self) -> tuple:
        """The items as candidates, by key and by identifier."""
        return _pools(self.items)

    @cached_property
    def plan(self) -> tuple:
        """The items in search order, planned against the reading's own
        pools, and its tokens as ``_plan`` schedules them: on equal
        fingerprints both sides' atom pools have the same sizes."""
        return _plan(self.items, self.pools[0], self.tokens, self.fixed)


def state_fingerprint(atoms, store: Store, tokens, fixed) -> Reading:
    """The state's ``Reading`` for the fixed variables, fingerprint included."""
    return Reading(atoms, store, tokens, frozenset(fixed))


def states_equivalent_mod(
    chr_a, builtins_a, tokens_a, chr_b, builtins_b, tokens_b, fixed_vars,
    reading_a=None, reading_b=None,
) -> bool:
    """Comparison modulo renaming of variables outside fixed_vars and of
    atom identifiers, all failed states alike; readings are made if not given.

    The relation is symmetric, so the search maps the second state onto the
    first: a ``StateIndex`` passes its held state second, and that state's
    plan then serves every later lookup, while each new state only pools."""
    if builtins_a.failed or builtins_b.failed:
        return builtins_a.failed and builtins_b.failed
    fixed = frozenset(fixed_vars)
    a = reading_a or Reading(chr_a, builtins_a, tokens_a, fixed)
    b = reading_b or Reading(chr_b, builtins_b, tokens_b, fixed)
    return _run(*b.plan, *a.pools, b.tokens, a.tokens, fixed)


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
