"""Exact-arithmetic workbench for anti-dendriform algebras.

Structure constants over the rationals (or a small prime field); axiom and
compatibility checkers with traceable equation labels; constructions for
split/unified/crossed/bicrossed products, non-abelian cocycles, the
automorphism-lifting machinery, bialgebras and the Yang-Baxter residual.

The names in ``__all__`` are loaded from their submodule on first access
(PEP 562), so ``import adw`` loads no submodule and ``adw.cli`` loads only
what a command calls.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "ADAlgebra": "algebra", "BilinearOp": "algebra", "check_anti_dendriform": "algebra",
    "check_associative": "algebra",
    "RATIONALS": "fields", "InputError": "fields", "PrimeField": "fields",
    "field_from_name": "fields",
    "PreconditionFailure": "reporting", "Report": "reporting", "Violation": "reporting",
    "ADRep": "reps", "check_representation": "reps", "dual_representation": "reps",
    "semidirect_product": "reps",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(importlib.import_module("." + _EXPORTS[name], __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
