"""The reference operational reading: goal and store are separate.

A configuration holds the goal's user constraints not yet introduced and
its built-ins not yet solved, each leftmost first, the identified
user-constraint store, the built-in store, the token store for propagation
control, and the counter handing out the next atom identifier. Three
transitions:

* solve: move the leftmost pending built-in into the built-in store;
* introduce: move the leftmost goal constraint into the store, stamping it
  with the counter;
* apply: react a rule instance with store atoms (see matching.Firing); the
  rule body's constraints go before the goal's and its built-ins before
  the pending ones, matched removed atoms leave the store, the argument
  equations are added to the built-in store, and for rules that remove
  nothing a token is recorded. The counter is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..constraints import TRUE, Store, conjoin
from ..syntax import IdAtom, split_builtins
from ..terms import FreshSupply
from .matching import Firing, enumerate_firings


@dataclass(frozen=True)
class Config:
    goal: tuple
    pending: tuple
    store: tuple
    builtins: Store
    tokens: frozenset
    counter: int

    @property
    def failed(self) -> bool:
        return self.builtins.failed


def initial(goal) -> Config:
    return Config(*split_builtins(goal), (), TRUE, frozenset(), 1)


def solve_step(cfg: Config) -> Optional[Config]:
    if not cfg.pending:
        return None
    builtins = conjoin(cfg.builtins, cfg.pending[:1])
    return Config(cfg.goal, cfg.pending[1:], cfg.store, builtins, cfg.tokens, cfg.counter)


def introduce_step(cfg: Config) -> Optional[Config]:
    if not cfg.goal:
        return None
    store = cfg.store + (IdAtom(cfg.goal[0], cfg.counter),)
    return Config(
        cfg.goal[1:], cfg.pending, store, cfg.builtins, cfg.tokens, cfg.counter + 1
    )


def apply_firing(cfg: Config, firing: Firing) -> Config:
    removed_ids = {a.ident for a in firing.removed}
    store = tuple(a for a in cfg.store if a.ident not in removed_ids)
    tokens = cfg.tokens | {firing.token} if not firing.removed else cfg.tokens
    goal, pending = split_builtins(firing.rule.body)
    return Config(
        goal + cfg.goal,
        pending + cfg.pending,
        store,
        conjoin(cfg.builtins, firing.head_eqs),
        tokens,
        cfg.counter,
    )


def firings(program, cfg: Config, fresh: FreshSupply = None, first: bool = False) -> List[Firing]:
    """The configuration's firings, none on a failed store; with ``first``
    only the first, if any (see ``enumerate_firings``)."""
    if cfg.failed:
        return []
    return enumerate_firings(program, cfg.store, cfg.builtins, cfg.tokens, fresh, first)


def successors(program, cfg: Config, fresh: FreshSupply = None) -> List[Tuple[Firing, Config]]:
    return [(f, apply_firing(cfg, f)) for f in firings(program, cfg, fresh)]


def drain(cfg: Config):
    """Solve and introduce to quiescence, solving eagerly (leftmost first).

    Returns (config, number of solve steps). Stops early when the built-in
    store fails.
    """
    solves = 0
    while not cfg.failed:
        nxt = solve_step(cfg)
        if nxt is not None:
            cfg, solves = nxt, solves + 1
            continue
        nxt = introduce_step(cfg)
        if nxt is None:
            break
        cfg = nxt
    return cfg, solves


def chr_atoms(cfg: Config) -> tuple:
    return cfg.store

