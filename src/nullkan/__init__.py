"""Finite-category engine for lifting null-set structures along embeddings.

The package builds comma categories over explicit finite categories,
transports down-closed families of null sets through them by pointwise
Kan extensions, and machine-checks the invariance, minimality, and
extension properties of the lifted structures by exhaustive search.
"""

__version__ = "0.1.0"

# fincat, the largest module, is imported first.  When modules compile at
# import (no bytecode cache), the heap left after its compile otherwise
# depends on the modules compiled before it, and an edit to one of those
# moved the peak RSS of a command by up to 0.2 MB.
from .fincat import BudgetExceeded, EngineError
from .construct import (
    BUILTIN_NAMES,
    Setup,
    builtin_model,
    direct_prevalence,
    main_null,
    run_pipeline,
    verify_extension,
    verify_invariance,
    verify_minimality,
)
from .specfile import parse_spec, serialize_spec, to_setup

__all__ = [
    "BUILTIN_NAMES",
    "BudgetExceeded",
    "EngineError",
    "Setup",
    "builtin_model",
    "direct_prevalence",
    "main_null",
    "parse_spec",
    "run_pipeline",
    "serialize_spec",
    "to_setup",
    "verify_extension",
    "verify_invariance",
    "verify_minimality",
]
