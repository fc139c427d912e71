"""Exact algebra-valued invariants of rooted trees and forests.

The package enumerates rooted trees and forests up to isomorphism,
evaluates invariants defined by a linear operator on a commutative
algebra (order polynomials, quasi-symmetric refinements), checks the
generating-function identities they satisfy, and extends the whole story
to labeled planar forests over noncommutative algebras.  All arithmetic
is exact rational.

The brute-force oracles (`forestinv.oracles`) and the verification
suites (`forestinv.verify`), with the names re-exported from them, load
on first access: only `forestinv verify` and the tests read them, and
each command starts a fresh process that would otherwise pay for them.
"""

from importlib import import_module as _import_module

from .algebra import (
    Polynomial,
    QSym,
    code,
    one_like,
    parts,
    principal_specialization,
    quasi_shuffle,
    rat,
)
from .engine import (
    BUILT_IN_NAMES,
    CollisionPair,
    InvariantSpec,
    built_in_spec,
    collision_report,
    evaluate,
    evaluate_forest,
    order_poly,
    qsym_strict,
    qsym_strict_spec,
    qsym_weak,
    qsym_weak_spec,
    strict_order_poly,
    strict_order_spec,
    weak_order_spec,
)
from .errors import DomainError, ForestInvError, ParseError, ResourceLimitError
from .genfun import (
    CayleyReport,
    USequence,
    cayley_check,
    elementary_schur,
    u_by_enumeration,
    u_by_recurrence,
    verify_functional_equation,
)
from .operators import (
    DELTA_INV,
    LAMBDA,
    LAMBDA_BAR,
    NABLA_INV,
    LinearOperator,
    delta_inv,
    lambda_,
    lambda_bar,
    nabla_inv,
)
from .planar import (
    GraftCheckReport,
    OperatorFamily,
    PlanarForest,
    PlanarTree,
    PlanarUSequence,
    b_plus_alpha,
    check_tensor_grafting,
    concat,
    enumerate_planar,
    enumerate_planar_forests,
    evaluate_planar,
    evaluate_planar_forest,
    free_word_family,
    parse_planar_forest,
    parse_planar_tree,
    planar_equation_residual,
    planar_tree_count,
    tensor_cocycle_apply,
    tensor_family,
    u_planar_by_enumeration,
    u_planar_by_recurrence,
    underlying_forest,
    underlying_tree,
)
from .render import pretty, render_value
from .series import Series, exp, geometric_inverse
from .trees import (
    EMPTY_FOREST,
    SINGLETON,
    RootedForest,
    RootedTree,
    automorphism_order,
    b_plus,
    enumerate_forests,
    enumerate_trees,
    parse_forest,
    parse_tree,
    remove_root,
)
from .words import FreeWord, TensorElement

__version__ = "0.1.0"

# name -> the submodule that defines it, imported on first access
_LAZY = dict.fromkeys(
    ("oracles", "FiniteVarPoly", "brute_force_order_count", "brute_force_qsym", "delta",
     "finite_lambda", "finite_lambda_bar", "nabla", "qsym_to_finite", "shift_s"), "oracles"
) | dict.fromkeys(("verify", "SuiteResult", "available_suites", "run_suite"), "verify")
__all__ = [name for name in globals() if not name.startswith("_")] + list(_LAZY)


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{_LAZY[name]}")
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _LAZY.keys())
