"""Recursive evaluation of operator-defined invariants of rooted forests.

An invariant is fixed by a linear operator X on a commutative unital
algebra.  The value of a tree is X applied to the product of the values
of the root's subtrees (a leaf gets X(1)); the value of a forest is the
product over its components, with the empty forest mapping to 1.  Values
depend only on the isomorphism class, so each spec memoizes by canonical
key.

The two polynomial instances count strict and weak order-preserving
labelings; the two quasi-symmetric instances refine them.  A value on n
vertices is homogeneous of degree n, so no carrier truncates; instead
each built-in operator has one cost guard, an estimate of a value's
terms or degree from the tree's shape and a limit, and evaluation
refuses a tree past it before any product.  The brute-force recounts of
both from the definitions live in `oracles`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .algebra import Polynomial, QSym
from .errors import DomainError, ResourceLimitError
from .operators import (
    DELTA_INV,
    LAMBDA,
    LAMBDA_BAR,
    NABLA_INV,
    LinearOperator,
)
from .render import canonical_render
from .trees import (
    RootedForest,
    RootedTree,
    automorphism_order,
    check_depth,
    enumerate_trees,
)


# Most terms a quasi-symmetric tree value may have before `evaluate`
# builds it: 2^15 keeps a 16-leaf star under lambda-bar and every tree on
# 16 vertices under lambda.
QSYM_TERM_LIMIT = 2**15

# Highest degree a polynomial tree value may have before `evaluate`
# builds it: delta-inv on a path of 256 vertices takes about 2.5 s.
POLY_DEGREE_LIMIT = 256


# Term estimates stop at 2^64, far past every limit, so an estimate from
# a huge order is no huge int; `_count_text` prints it as a lower bound.
_PAST_EVERY_LIMIT = 1 << 64


def _weak_terms(vertices: int, height: int) -> int:
    """Terms of the lambda value: 2^(n-1), since every composition of n is
    the fiber-size pattern of some weakly order-preserving labeling."""
    return 1 << min(vertices - 1, 64)


def _strict_terms(vertices: int, height: int) -> int:
    """At most the terms of the lambda-bar value: the compositions of n
    with first part 1 (the root's label class) and more parts than the
    height, the sum of C(n-2, r-2) over r > height.  Exact on stars and
    paths."""
    m = vertices - 2
    if m < 0:
        return 1
    if m > 64 and 2 * (height - 1) <= m:
        # at least half of the 2^m compositions have that many parts
        return _PAST_EVERY_LIMIT
    return (1 << m) - sum(comb(m, j) for j in range(height - 1))


def _degree(vertices: int, height: int) -> int:
    """Degree of a polynomial value: the vertex count."""
    return vertices


# The cost guard of each built-in operator: an estimate of a value's size
# from the shape of its tree (vertex count and height), the limit it must
# not pass, and how the message names that size.  Every estimate is at
# most 2^(n-1), so trees with n at most the bit length of the limit pass
# unestimated.
_GUARDS = {
    LAMBDA_BAR: (_strict_terms, QSYM_TERM_LIMIT, "{} terms"),
    LAMBDA: (_weak_terms, QSYM_TERM_LIMIT, "{} terms"),
    DELTA_INV: (_degree, POLY_DEGREE_LIMIT, "degree {}"),
    NABLA_INV: (_degree, POLY_DEGREE_LIMIT, "degree {}"),
}


def _count_text(count: int) -> str:
    """A count in digits, or the power of two below it when it is long."""
    if count < 10**12:
        return str(count)
    return f"2^{count.bit_length() - 1} or more"


class InvariantSpec:
    """An operator, the unit of its target algebra, and a value cache.

    degree_bound, when set, is a cap that only refuses: evaluation
    refuses trees on more vertices, and nothing is ever truncated.  guard,
    set for the four built-in operators, is the operator's entry in the
    cost-guard table, so evaluation refuses values estimated past its
    limit before building them.
    """

    def __init__(self, name: str, operator: LinearOperator, one, degree_bound=None):
        self.name = name
        self.operator = operator
        self.one = one
        self.degree_bound = degree_bound
        self.guard = _GUARDS.get(operator)
        self._cache: dict[str, object] = {}

    @property
    def algebra(self) -> str:
        return self.operator.algebra

    def __repr__(self):
        return f"InvariantSpec({self.name!r}, algebra={self.algebra!r})"


def check_cost(
    spec: InvariantSpec, vertices: int, height: int, subject="value of a tree on {} vertices"
) -> None:
    """Raise ResourceLimitError, naming the estimate and the limit, when
    the spec's guard estimates a value on a tree of this shape past its
    limit; `subject`, filled in with the vertex count, names that value
    in the message."""
    if spec.guard is None:
        return
    estimate, limit, size_text = spec.guard
    if vertices <= limit.bit_length():
        return
    size = estimate(vertices, height)
    if size > limit:
        raise ResourceLimitError(
            f"the {spec.name} {subject.format(vertices)} has an estimated "
            f"{size_text.format(_count_text(size))}, over the limit of {limit}"
        )


def evaluate(tree: RootedTree, spec: InvariantSpec):
    """Value of a rooted tree: the operator applied to the product of the
    values of the subtrees hanging off the root.  Refuses a tree deeper
    than `trees.DEPTH_LIMIT`, and one whose value is estimated past its
    operator's cost guard."""
    if spec.degree_bound is not None and tree.vertex_count > spec.degree_bound:
        raise DomainError(
            f"tree on {tree.vertex_count} vertices outgrows the "
            f"degree bound {spec.degree_bound}"
        )
    got = spec._cache.get(tree.key)
    if got is None:
        check_depth(tree.height)
        check_cost(spec, tree.vertex_count, tree.height)
        product = spec.one
        for child in tree.children:
            product = product * evaluate(child, spec)
        got = spec.operator(product)
        spec._cache[tree.key] = got
    return got


def evaluate_forest(forest: RootedForest, spec: InvariantSpec):
    """Product of component values; the empty forest maps to the unit."""
    value = spec.one
    for tree in forest:
        value = value * evaluate(tree, spec)
    return value


def strict_order_spec() -> InvariantSpec:
    return InvariantSpec("delta-inv", DELTA_INV, Polynomial.one())


def weak_order_spec() -> InvariantSpec:
    return InvariantSpec("nabla-inv", NABLA_INV, Polynomial.one())


def qsym_strict_spec(max_degree: int | None = None) -> InvariantSpec:
    """The lambda-bar invariant; max_degree, when given, refuses larger
    trees and generating-function orders."""
    return InvariantSpec("lambda-bar", LAMBDA_BAR, QSym.one(), max_degree)


def qsym_weak_spec(max_degree: int | None = None) -> InvariantSpec:
    """The lambda invariant; max_degree as in `qsym_strict_spec`."""
    return InvariantSpec("lambda", LAMBDA, QSym.one(), max_degree)


# A tree's value is homogeneous of degree equal to its vertex count, so
# one shared cache per invariant serves trees of every size.
_SHARED = {
    spec.name: spec
    for spec in (
        strict_order_spec(),
        weak_order_spec(),
        qsym_strict_spec(),
        qsym_weak_spec(),
    )
}


def strict_order_poly(tree: RootedTree) -> Polynomial:
    """Polynomial counting strictly order-preserving labelings from
    {1..m}: labels must increase along every root-to-leaf edge."""
    return evaluate(tree, _SHARED["delta-inv"])


def order_poly(tree: RootedTree) -> Polynomial:
    """Polynomial counting weakly order-preserving labelings from
    {1..m}: labels must not decrease along any root-to-leaf edge."""
    return evaluate(tree, _SHARED["nabla-inv"])


def qsym_strict(tree: RootedTree) -> QSym:
    """Quasi-symmetric refinement of the strict count; homogeneous of
    degree equal to the vertex count."""
    return evaluate(tree, _SHARED["lambda-bar"])


def qsym_weak(tree: RootedTree) -> QSym:
    """Quasi-symmetric refinement of the weak count."""
    return evaluate(tree, _SHARED["lambda"])


def built_in_spec(name: str) -> InvariantSpec:
    """Look up one of the four shipped invariants by operator name."""
    spec = _SHARED.get(name)
    if spec is None:
        raise DomainError(f"unknown operator name: {name}")
    return spec


BUILT_IN_NAMES = tuple(_SHARED)


@dataclass(frozen=True)
class CollisionPair:
    """Two non-isomorphic trees that share an invariant value."""

    n: int
    invariant: str
    tree_a: str
    tree_b: str
    alpha_a: int
    alpha_b: int
    alpha_collision: bool

    def to_jsonable(self) -> dict:
        return {
            "n": self.n,
            "invariant": self.invariant,
            "colliding_trees": [self.tree_a, self.tree_b],
            "alpha": [self.alpha_a, self.alpha_b],
            "alpha_collision": self.alpha_collision,
        }


def collision_report(n_max: int, spec: InvariantSpec) -> list[CollisionPair]:
    """All pairs of distinct trees on up to n_max vertices whose values
    under the given invariant agree exactly (by canonical serialization)."""
    if n_max < 1:
        raise DomainError("need n_max >= 1")
    pairs = []
    for n in range(1, n_max + 1):
        groups: dict[str, list[RootedTree]] = {}
        for tree in enumerate_trees(n):
            groups.setdefault(canonical_render(evaluate(tree, spec)), []).append(tree)
        for bucket in groups.values():
            for a, b in itertools.combinations(bucket, 2):
                alpha_a, alpha_b = automorphism_order(a), automorphism_order(b)
                pairs.append(
                    CollisionPair(
                        n=n,
                        invariant=spec.name,
                        tree_a=a.key,
                        tree_b=b.key,
                        alpha_a=alpha_a,
                        alpha_b=alpha_b,
                        alpha_collision=alpha_a == alpha_b,
                    )
                )
    return pairs
