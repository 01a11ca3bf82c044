"""Operational semantics: two-store and fused-store readings plus search."""

from . import annotated, standard
from .matching import Firing, enumerate_firings
from .search import (
    AnswerSet,
    ExploreResult,
    FinalState,
    LockstepReport,
    QualifiedAnswer,
    explore,
    lockstep_run,
    qualified_answers,
    render_answer,
)

__all__ = [
    "annotated",
    "standard",
    "Firing",
    "enumerate_firings",
    "AnswerSet",
    "ExploreResult",
    "FinalState",
    "LockstepReport",
    "QualifiedAnswer",
    "explore",
    "lockstep_run",
    "qualified_answers",
    "render_answer",
]
