"""The reference operational reading: goal and store are separate.

A configuration holds the pending goal, the identified user-constraint
store, the built-in store, the token store for propagation control, and the
counter handing out the next atom identifier. Three transitions:

* solve: move the leftmost pending built-in into the built-in store;
* introduce: move the leftmost pending user constraint into the store,
  stamping it with the counter;
* apply: react a rule instance with store atoms (see matching.Firing); the
  rule body becomes the new goal prefix, matched removed atoms leave the
  store, the argument equations are added to the built-in store, and for
  rules that remove nothing a token is recorded. The counter is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..constraints import TRUE, Store, conjoin
from ..syntax import Compound, IdAtom
from ..terms import Equation, FalseConstraint, FreshSupply
from .matching import Firing, enumerate_firings


@dataclass(frozen=True)
class Config:
    goal: tuple
    store: tuple
    builtins: Store
    tokens: frozenset
    counter: int

    @property
    def failed(self) -> bool:
        return self.builtins.failed


def initial(goal) -> Config:
    return Config(tuple(goal), (), TRUE, frozenset(), 1)


def solve_step(cfg: Config) -> Optional[Config]:
    for i, item in enumerate(cfg.goal):
        if isinstance(item, (Equation, FalseConstraint)):
            rest = cfg.goal[:i] + cfg.goal[i + 1:]
            return Config(
                rest, cfg.store, conjoin(cfg.builtins, [item]), cfg.tokens, cfg.counter
            )
    return None


def introduce_step(cfg: Config) -> Optional[Config]:
    for i, item in enumerate(cfg.goal):
        if isinstance(item, Compound):
            rest = cfg.goal[:i] + cfg.goal[i + 1:]
            stamped = IdAtom(item, cfg.counter)
            return Config(
                rest,
                cfg.store + (stamped,),
                cfg.builtins,
                cfg.tokens,
                cfg.counter + 1,
            )
    return None


def apply_firing(cfg: Config, firing: Firing) -> Config:
    removed_ids = {a.ident for a in firing.removed}
    store = tuple(a for a in cfg.store if a.ident not in removed_ids)
    tokens = cfg.tokens | {firing.token} if not firing.removed else cfg.tokens
    return Config(
        firing.rule.body + cfg.goal,
        store,
        conjoin(cfg.builtins, firing.head_eqs),
        tokens,
        cfg.counter,
    )


def successors(program, cfg: Config, fresh: FreshSupply = None) -> List[Tuple[Firing, Config]]:
    if cfg.failed:
        return []
    firings = enumerate_firings(program, cfg.store, cfg.builtins, cfg.tokens, fresh)
    return [(f, apply_firing(cfg, f)) for f in firings]


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

