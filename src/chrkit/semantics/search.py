"""Derivation search: normal scheduling, answer extraction, lockstep runs.

The normal scheduler drains built-ins (and, in the two-store reading,
introductions) eagerly and branches only on rule firings at built-in-free
points. Answers are read off the terminal states: failure collapses to
``false``, success keeps the remaining user constraints together with the
built-in store restricted to the variables worth showing. Terminal states
are deduplicated modulo renaming away from the goal variables.

``explore`` dedups the non-failed states it visits, terminal ones
included, through a ``StateIndex``, so its non-failed finals are already
pairwise inequivalent; of its failed finals, all equivalent, the answers
keep the first. ``StateIndex`` is the one lookup modulo renaming, which the
verifiers' histories and answer diff use too: a state meets only the held
states of its multiset of atom shapes, is read (``state_fingerprint``)
only when its shape is held, and meets the exact ``states_equivalent_mod``
only on an equal fingerprint key, found by one dict lookup in its shape,
in push order. Each ``State`` is made for its search's goal variables, so
it is read once, and keeps its ``Reading``, key included; an index
refuses a state made for another fixed set.

Every search here and in ``analysis`` is a loop body over one ``Walk``, a
depth-first walk of the derivation tree. Budgets make every search total:
``max_applies`` bounds the firing depth of a branch and ``max_states`` the
number of expanded nodes. Exceeding either sets the ``truncated`` flag
instead of producing wrong answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional

from ..constraints import Store, canonical_locals, project, solve
from ..equivalence import configs_correspond, state_fingerprint, states_equivalent_mod
from ..syntax import annotate, print_item, strip_annotations
from ..terms import FreshSupply, apply_subst, vars_of
from . import annotated, standard

_MODES = {"standard": standard, "annotated": annotated}


class Walk:
    """Depth-first walk from a root node under a depth and a state budget.

    Iterating yields ``(node, depth)``, first children first. Each node
    yielded counts in ``expanded``; the walk stops with ``truncated`` set
    instead of yielding node ``max_states + 1``. The loop body hands a
    node's children back through ``expand``.
    """

    def __init__(self, root, max_depth: int, max_states: int):
        self.stack = [(root, 0)]
        self.max_depth = max_depth
        self.max_states = max_states
        self.expanded = 0
        self.truncated = False

    def __iter__(self):
        while self.stack:
            node, depth = self.stack.pop()
            self.expanded += 1
            if self.expanded > self.max_states:
                self.truncated = True
                return
            yield node, depth

    def expand(self, depth: int, children) -> bool:
        """Queue the children of a node at ``depth``, one level deeper.

        A node at the depth budget that has children sets ``truncated``
        instead. Returns whether the children were queued.
        """
        if not children:
            return False
        if depth >= self.max_depth:
            self.truncated = True
            return False
        self.stack.extend((child, depth + 1) for child in reversed(children))
        return True


def atom_shape(atoms) -> tuple:
    """The multiset of the atoms' functors and arities, as a hashable key."""
    return tuple(sorted((a.atom.functor, len(a.atom.args)) for a in atoms))


@dataclass(frozen=True)
class State:
    """Atoms, built-in store and token store, read modulo renaming away from
    ``fixed``, the variables of the search's goal."""

    atoms: tuple
    builtins: Store
    tokens: frozenset
    fixed: frozenset

    @property
    def failed(self) -> bool:
        return self.builtins.failed

    @cached_property
    def shape(self):
        """The multiset of atom shapes, which equivalent states share, as a
        hashable key; None for every failed state."""
        return None if self.failed else atom_shape(self.atoms)

    @cached_property
    def reading(self):
        """The state's ``Reading``, its fingerprint ``key`` included, read
        on first use."""
        return state_fingerprint(self.atoms, self.builtins, self.tokens, self.fixed)


class StateIndex:
    """States held by position, looked up modulo renaming away from ``fixed``.

    Each shape holds its states by fingerprint key. A state is read when
    it first meets another of its shape. Every state must be made for
    ``fixed``."""

    def __init__(self, fixed):
        self.fixed = frozenset(fixed)
        self._held: List[State] = []
        # shape -> [positions not keyed yet, {key: positions}], each rising
        self._shapes: dict = {}

    def _shape(self, state: State):
        if state.fixed != self.fixed:
            raise ValueError("the state was made for another set of fixed variables")
        return state.shape

    def find(self, state: State, skip=()) -> Optional[int]:
        """The position of the first held state outside ``skip`` that is
        equivalent to ``state``."""
        bucket = self._shapes.get(self._shape(state))
        if bucket is None:
            return None
        fresh, keyed = bucket
        for pos in fresh:
            keyed.setdefault(self._held[pos].reading.key, []).append(pos)
        fresh.clear()
        a = state.reading
        for pos in keyed.get(a.key, ()):
            b = self._held[pos].reading
            if pos not in skip and states_equivalent_mod(
                a.atoms, a.store, a.tokens, b.atoms, b.store, b.tokens, self.fixed, a, b
            ):
                return pos
        return None

    def push(self, state: State) -> None:
        self._shapes.setdefault(self._shape(state), ([], {}))[0].append(len(self._held))
        self._held.append(state)

    def cut(self, n: int) -> None:
        """Keep the first ``n`` states."""
        while len(self._held) > n:
            state = self._held.pop()
            fresh, keyed = self._shapes[state.shape]
            # every position not keyed yet is above every keyed one
            if fresh:
                fresh.pop()
            else:
                positions = keyed[state.reading.key]
                positions.pop()
                if not positions:
                    del keyed[state.reading.key]
            if not fresh and not keyed:
                del self._shapes[state.shape]

    def add(self, state: State) -> bool:
        """Push the state unless an equivalent one is held; return whether
        it was pushed."""
        if self.find(state) is not None:
            return False
        self.push(state)
        return True


@dataclass
class ExploreResult:
    finals: List[State]
    truncated: bool
    expanded: int
    goal_vars: frozenset


def fit_program(program, semantics: str):
    """The program in the form the semantics reads: annotated for the fused
    store, plain for the two-store reading."""
    if semantics == "annotated":
        return program if program.annotated else annotate(program)
    return strip_annotations(program) if program.annotated else program


def explore(
    program,
    goal,
    semantics: str = "annotated",
    max_applies: int = 30,
    max_states: int = 5000,
    dedup: bool = True,
) -> ExploreResult:
    mod = _MODES[semantics]
    program = fit_program(program, semantics)
    goal_vars = frozenset(vars_of(tuple(goal)))
    fresh = FreshSupply("_R", goal_vars)
    finals: List[State] = []
    visited = StateIndex(goal_vars)
    walk = Walk(mod.initial(goal), max_applies, max_states)
    for cfg, depth in walk:
        cfg, _ = mod.drain(cfg)
        if cfg.failed:
            finals.append(State((), cfg.builtins, frozenset(), goal_vars))
            continue
        state = State(mod.chr_atoms(cfg), cfg.builtins, cfg.tokens, goal_vars)
        if dedup and not visited.add(state):
            continue
        succ = mod.successors(program, cfg, fresh)
        if not succ:
            finals.append(state)
        walk.expand(depth, [child for _, child in succ])
    return ExploreResult(finals, walk.truncated, walk.expanded, goal_vars)


@dataclass(frozen=True)
class QualifiedAnswer:
    atoms: tuple
    builtins: tuple
    failed: bool

    @cached_property
    def text(self) -> str:
        """The answer as printed, printed once."""
        if self.failed:
            return "false"
        parts = [print_item(a) for a in self.atoms] + [print_item(e) for e in self.builtins]
        return ", ".join(parts) if parts else "true"


@dataclass
class AnswerSet:
    answers: tuple
    finals: tuple
    truncated: bool
    goal_vars: frozenset

    @property
    def texts(self) -> tuple:
        return tuple(a.text for a in self.answers)


def render_answer(final: State) -> QualifiedAnswer:
    """The final state's answer, shown over its fixed variables."""
    if final.failed:
        return QualifiedAnswer((), (), True)
    store, goal_vars = final.builtins, final.fixed
    sigma = solve(store, prefer=store.variables() - goal_vars)
    atoms = tuple(apply_subst(a.atom, sigma) for a in final.atoms)
    # the locals left in the atoms are roots of sigma, never bound, so
    # sigma is also the solve that project would make for these keep vars
    eqs = project(store, goal_vars | vars_of(atoms), sigma)
    atoms, eqs = canonical_locals((tuple(sorted(atoms, key=print_item)), eqs), goal_vars)
    return QualifiedAnswer(atoms, eqs, False)


def qualified_answers(
    program,
    goal,
    semantics: str = "annotated",
    max_applies: int = 30,
    max_states: int = 5000,
) -> AnswerSet:
    res = explore(
        program,
        goal,
        semantics=semantics,
        max_applies=max_applies,
        max_states=max_states,
    )
    # explore's dedup left no two equivalent non-failed finals, and the
    # failed ones are all equivalent: the first stands for the rest
    failed = next((fs for fs in res.finals if fs.failed), None)
    reps = [fs for fs in res.finals if not fs.failed or fs is failed]
    rendered = [(render_answer(fs), fs) for fs in reps]
    rendered.sort(key=lambda pair: pair[0].text)
    return AnswerSet(
        tuple(a for a, _ in rendered),
        tuple(fs for _, fs in rendered),
        res.truncated,
        res.goal_vars,
    )


@dataclass
class LockstepReport:
    aligned: bool
    mismatch: Optional[str]
    nodes: int
    finals: int
    solve_count: int
    apply_count: int
    truncated: bool


def lockstep_run(
    program, goal, max_applies: int = 30, max_states: int = 5000
) -> LockstepReport:
    """Run both readings over the same derivation tree and check that they
    stay in correspondence node by node.

    The plain program drives the two-store semantics while its annotated
    version drives the fused one; sharing the fresh-variable sequence keeps
    the renamed rules syntactically identical on both sides.
    """
    prog_std = fit_program(program, "standard")
    prog_ann = annotate(prog_std)
    goal_vars = vars_of(tuple(goal))
    fresh_s = FreshSupply("_R", goal_vars)
    fresh_a = FreshSupply("_R", goal_vars)

    finals = solve_count = apply_count = 0
    walk = Walk((standard.initial(goal), annotated.initial(goal)), max_applies, max_states)

    def report(mismatch: Optional[str]) -> LockstepReport:
        return LockstepReport(
            mismatch is None, mismatch, walk.expanded, finals, solve_count,
            apply_count, walk.truncated,
        )

    for (cs, ca), depth in walk:
        if not configs_correspond(cs, ca):
            return report(f"states diverged entering node {walk.expanded}")
        cs, ns = standard.drain(cs)
        ca, na = annotated.drain(ca)
        if ns != na:
            return report(f"solve counts differ at node {walk.expanded}: {ns} vs {na}")
        solve_count += ns
        if cs.failed or ca.failed:
            if cs.failed != ca.failed:
                return report(f"only one side failed at node {walk.expanded}")
            finals += 1
            continue
        if not configs_correspond(cs, ca):
            return report(f"states diverged after draining node {walk.expanded}")
        succ_s = standard.successors(prog_std, cs, fresh_s)
        succ_a = annotated.successors(prog_ann, ca, fresh_a)
        sig_s = [(f.rule_index, f.idents) for f, _ in succ_s]
        sig_a = [(f.rule_index, f.idents) for f, _ in succ_a]
        if sig_s != sig_a:
            return report(f"firings differ at node {walk.expanded}: {sig_s} vs {sig_a}")
        if not succ_s:
            finals += 1
        children = [(s[1], a[1]) for s, a in zip(succ_s, succ_a)]
        if walk.expand(depth, children):
            apply_count += len(children)
    return report(None)
