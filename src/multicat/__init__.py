"""Finite, checkable models of multiple geometry.

Validators for multiple sets, reflexive structures, magmas, strict multiple
infinity-categories, reversor structures, and categorical stretchings, plus
bounded free constructions for the reflexive, strict, and weak (Penon)
monads.  Everything is finite and brute-force checkable; the CLI in
``multicat.cli`` exposes the same operations on canonical JSON documents.
"""

from .colors import Color, add, addable_entries, colors_within, dimension, k_colors, make_color, minus
from .core import (
    SOURCE,
    TARGET,
    MsMorphism,
    MultipleSet,
    compose_morphisms,
    face,
    identity_morphism,
    iterated_face,
    morphisms_equal,
    random_multiple_set,
    terminal_multiple_set,
    validate_morphism,
    validate_multiple_set,
)
from .errors import (
    BoundMismatch,
    BoundsTooSmall,
    BudgetExceeded,
    InvalidBase,
    MulticatError,
    NotComposable,
    ParseError,
    TermNotMaterialized,
    UnknownCell,
)
from .magma import MagmaStructure, composable_pairs, compose, validate_magma, validate_reflexive_magma
from .reflexive import (
    FreeReflexive,
    ReflexiveStructure,
    free_reflexive,
    reflexive_monad_multiply,
    validate_reflexive,
)
from .report import ValidationReport, Violation
from .reversors import (
    Chain,
    ReversorSpace,
    ReversorStructure,
    make_chain,
    search_reversors,
    validate_reversor_morphism,
    validate_reversors,
)
from .serialize import dump, load, parse, serialize, to_document
from .strictcat import (
    StrictCategory,
    StrictPresentation,
    free_strict,
    quotient_to_category,
    term_equal,
    unit_map,
    validate_strict,
)
from .stretching import (
    FreeWeakResult,
    Stretching,
    algebra_unit_check,
    free_weak,
    identity_stretching,
    validate_stretching,
    validate_stretching_morphism,
)

__all__ = [name for name in dir() if not name.startswith("_")]
