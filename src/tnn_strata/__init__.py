"""Exact-arithmetic toolkit for cells of totally nonnegative unipotent
matrices: Bruhat combinatorics, rational Gaussian (LDU) calculus, cell
parametrization and identification, fiber projections, a gradient-like
fiber flow, link sampling, and a link retraction — all at desk scale.

Importing the package loads the exact core (``cells``, ``errors``,
``fiber``, ``perms``, ``ratmat``), which every exact command runs and
which loads no numpy.  The float path, ``flow`` with ``kernels`` and
numpy, and ``verify`` load when one of their names is first read.
Every export is looked up in its submodule on each read and never bound
here, so a name patched on its submodule (by a tracer or a test) is the
one the package gives.
"""

import sys
import types

# Loaded with the package, before anything can patch them, so the from-imports
# between these modules bind the functions themselves.
from . import cells, errors, fiber, perms, ratmat

__version__ = "0.1.0"

_EXPORTS = {
    "cells": "CellPoint cell_of is_tnn lusztig_point",
    "errors": (
        "CellMismatch FlowError InternalInvariantError InvalidArgument MaxStepsExceeded "
        "NonPositiveParameter NonPositiveTau NotComparable NotInG0 NotInG0u "
        "NotUnipotentUpper PreconditionError RankTooLarge Singular StepUnderflow "
        "StratumEscape TnnStrataError UndecidableRank ZNotInYgeqV"
    ),
    "fiber": "FiberFrame SignReport conj_d factor_u pi_n pi_u psi recover_shift rho sign_lemma_check str_of",
    "flow": (
        "FiberIntegrator FlowState LinkCensus LinkSample cell_of_float conj_d_float default_base flow "
        "link_census link_point link_sample random_cell_point retraction"
    ),
    "perms": (
        "BruhatInterval Permutation ReducedWord all_permutations all_reduced_words bruhat_leq "
        "bruhat_less interval mobius reduced_word word_product"
    ),
    "ratmat": (
        "RatMatrix all_minors_nonnegative conj_by_perm det gauss_decompose gauss_minus "
        "gauss_plus is_in_G0 is_in_G0_u is_in_N minor perm_matrix rank"
    ),
    "verify": "RunConfig VerificationReport run_suite",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = [*_HOME]


def __getattr__(name):
    if name in _HOME:
        return getattr(_submodule(_HOME[name]), name)
    if name in ("kernels", "verify"):  # the submodules not loaded above
        return _submodule(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _submodule(name):
    # by __import__, not importlib.import_module, so -X importtime lists it
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    """The package's module type: it keeps an export over the submodule of
    the same name, so ``tnn_strata.flow`` stays the function ``flow`` after
    the import system, loading ``tnn_strata.flow``, binds the module here."""

    def __setattr__(self, name, value):
        if name in _HOME and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
