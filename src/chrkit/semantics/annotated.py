"""The fused-store operational reading for annotated programs.

Goal and user-constraint store live in one structure whose atoms are
identified up front, so there is no introduce transition. A configuration
keeps those atoms apart from the pending built-ins, each leftmost first;
solve moves the leftmost pending built-in into the built-in store. The body
of an annotated rule carries its own identifiers and a local token store;
when a rule fires these are shifted past the configuration's counter, which
then advances to the greatest identifier just brought in. The body's atoms
go before the surviving ones and its built-ins before the old pending ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..constraints import TRUE, Store, conjoin
from ..syntax import IdAtom, identify_atoms, split_builtins
from ..terms import FreshSupply
from .matching import Firing, enumerate_firings


@dataclass(frozen=True)
class Config:
    atoms: tuple
    pending: tuple
    builtins: Store
    tokens: frozenset
    counter: int

    @property
    def failed(self) -> bool:
        return self.builtins.failed


def initial(goal) -> Config:
    items, last = identify_atoms(goal)
    return Config(*split_builtins(items), TRUE, frozenset(), last)


def shift_identifiers(body, tokens, offset: int):
    """Shift every identifier in an annotated rule body and its local token
    store by the given offset."""
    shifted_body = tuple(
        IdAtom(b.atom, b.ident + offset) if isinstance(b, IdAtom) else b for b in body
    )
    shifted_tokens = frozenset(t.shifted(offset) for t in tokens)
    return shifted_body, shifted_tokens


def solve_at(cfg: Config, i: int) -> Config:
    """Solve the pending built-in at position ``i``."""
    rest = cfg.pending[:i] + cfg.pending[i + 1:]
    builtins = conjoin(cfg.builtins, [cfg.pending[i]])
    return Config(cfg.atoms, rest, builtins, cfg.tokens, cfg.counter)


def solve_step(cfg: Config) -> Optional[Config]:
    return solve_at(cfg, 0) if cfg.pending else None


def apply_firing(cfg: Config, firing: Firing) -> Config:
    body, local_tokens = shift_identifiers(
        firing.rule.body, firing.rule.tokens, cfg.counter
    )
    atoms, pending = split_builtins(body)
    top = max((a.ident for a in atoms), default=cfg.counter)
    removed_ids = {a.ident for a in firing.removed}
    atoms += tuple(a for a in cfg.atoms if a.ident not in removed_ids)
    tokens = cfg.tokens | local_tokens
    if not firing.removed:
        tokens = tokens | {firing.token}
    return Config(
        atoms, pending + cfg.pending, conjoin(cfg.builtins, firing.head_eqs), tokens, top
    )


def firings(program, cfg: Config, fresh: FreshSupply = None, first: bool = False) -> List[Firing]:
    """The configuration's firings, none on a failed store; with ``first``
    only the first, if any (see ``enumerate_firings``)."""
    if cfg.failed:
        return []
    return enumerate_firings(program, cfg.atoms, cfg.builtins, cfg.tokens, fresh, first)


def successors(program, cfg: Config, fresh: FreshSupply = None) -> List[Tuple[Firing, Config]]:
    return [(f, apply_firing(cfg, f)) for f in firings(program, cfg, fresh)]


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
    return cfg.atoms
