"""Exact algebra-valued invariants of rooted trees and forests.

The package enumerates rooted trees and forests up to isomorphism,
evaluates invariants defined by a linear operator on a commutative
algebra (order polynomials, quasi-symmetric refinements), checks the
generating-function identities they satisfy, and extends the whole story
to labeled planar forests over noncommutative algebras.  All arithmetic
is exact rational.
"""

from .algebra import (
    FiniteVarPoly,
    Polynomial,
    QSym,
    one_like,
    principal_specialization,
    qsym_to_finite,
    quasi_shuffle,
    rat,
)
from .engine import (
    BUILT_IN_NAMES,
    CollisionPair,
    InvariantSpec,
    InvariantTable,
    brute_force_order_count,
    brute_force_qsym,
    build_table,
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
    DELTA,
    DELTA_INV,
    LAMBDA,
    LAMBDA_BAR,
    NABLA,
    NABLA_INV,
    LinearOperator,
    delta,
    delta_inv,
    finite_lambda,
    finite_lambda_bar,
    lambda_,
    lambda_bar,
    nabla,
    nabla_inv,
    shift_s,
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
from .render import canonical_render, pretty, render_value
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
from .verify import SuiteResult, available_suites, run_suite
from .words import FreeWord, TensorElement

__version__ = "0.1.0"
