"""The fused-store operational reading for annotated programs.

Goal and user-constraint store live in one structure whose atoms are
identified up front, so there is no introduce transition. The body of an
annotated rule carries its own identifiers and a local token store; when a
rule fires these are shifted past the configuration's counter, which then
advances to the greatest identifier just brought in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..constraints import TRUE, Store, conjoin
from ..syntax import IdAtom, identify_atoms
from ..terms import Equation, FalseConstraint, FreshSupply
from .matching import Firing, enumerate_firings


@dataclass(frozen=True)
class Config:
    store: tuple
    builtins: Store
    tokens: frozenset
    counter: int

    @property
    def failed(self) -> bool:
        return self.builtins.failed


def initial(goal) -> Config:
    items, last = identify_atoms(goal, 0)
    return Config(items, TRUE, frozenset(), last)


def shift_identifiers(body, tokens, offset: int):
    """Shift every identifier in an annotated rule body and its local token
    store by the given offset."""
    shifted_body = tuple(
        IdAtom(b.atom, b.ident + offset) if isinstance(b, IdAtom) else b for b in body
    )
    shifted_tokens = frozenset(t.shifted(offset) for t in tokens)
    return shifted_body, shifted_tokens


def solve_at(cfg: Config, i: int) -> Config:
    item = cfg.store[i]
    if not isinstance(item, (Equation, FalseConstraint)):
        raise ValueError("not a pending built-in")
    rest = cfg.store[:i] + cfg.store[i + 1:]
    return Config(rest, conjoin(cfg.builtins, [item]), cfg.tokens, cfg.counter)


def solve_indices(cfg: Config) -> list:
    return [
        i
        for i, item in enumerate(cfg.store)
        if isinstance(item, (Equation, FalseConstraint))
    ]


def solve_step(cfg: Config) -> Optional[Config]:
    idx = solve_indices(cfg)
    if not idx:
        return None
    return solve_at(cfg, idx[0])


def apply_firing(cfg: Config, firing: Firing) -> Config:
    body, local_tokens = shift_identifiers(
        firing.rule.body, firing.rule.tokens, cfg.counter
    )
    new_ids = [b.ident for b in body if isinstance(b, IdAtom)]
    top = max(new_ids) if new_ids else cfg.counter
    removed_ids = {a.ident for a in firing.removed}
    store = body + tuple(
        x
        for x in cfg.store
        if not (isinstance(x, IdAtom) and x.ident in removed_ids)
    )
    tokens = cfg.tokens | local_tokens
    if not firing.removed:
        tokens = tokens | {firing.token}
    return Config(store, conjoin(cfg.builtins, firing.head_eqs), tokens, top)


def successors(program, cfg: Config, fresh: FreshSupply = None) -> List[Tuple[Firing, Config]]:
    if cfg.failed:
        return []
    atoms = chr_atoms(cfg)
    firings = enumerate_firings(program, atoms, cfg.builtins, cfg.tokens, fresh)
    return [(f, apply_firing(cfg, f)) for f in firings]


def drain(cfg: Config):
    """Solve pending built-ins to quiescence, leftmost first."""
    solves = 0
    while not cfg.failed:
        nxt = solve_step(cfg)
        if nxt is None:
            break
        cfg, solves = nxt, solves + 1
    return cfg, solves


def chr_atoms(cfg: Config) -> tuple:
    return tuple(x for x in cfg.store if isinstance(x, IdAtom))

