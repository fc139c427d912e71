"""Recursive evaluation of operator-defined invariants of rooted forests.

An invariant is fixed by a linear operator X on a commutative unital
algebra.  The value of a tree is X applied to the product of the values
of the root's subtrees (a leaf gets X(1)); the value of a forest is the
product over its components, with the empty forest mapping to 1.  A
product starts from its first factor, so none has the unit as an
operand.  Values depend only on the isomorphism class, so each spec
memoizes by canonical key.

The two polynomial instances count strict and weak order-preserving
labelings; the two quasi-symmetric instances refine them.  A value on n
vertices is homogeneous of degree n, so no carrier truncates; instead
each built-in operator has one cost guard, an estimate of a value's
terms or degree from the tree's shape and a limit, and evaluation
refuses a tree past it before any product.  The quasi-symmetric
recurrence is also refused past an exact count of the operand-term
pairs its products take.  The brute-force recounts of both from the
definitions live in `oracles`.

Every fingerprint runs on one grid kernel of plain int tuples, entry j
a tree's value on the first j of m points: a pointwise product, the
prefix sums that stand for the operators, and an int-weighted sum.  One
`_Grid` walk memoizes every subtree, so a whole class shares one walk.
The polynomial instances' points are all 1, so entry j is the exact
value at t = j (Stanley, EC1 3.12): a value on n vertices is read back
once from its entries on n points, and `genfun`'s enumeration build runs
on the same kernel.  The quasi-symmetric instances' entries are taken
mod a prime, and the collision search splits equal fingerprints by value.
"""

from __future__ import annotations

import itertools
from math import comb
from operator import mul
from typing import NamedTuple

from .algebra import Polynomial, QSym, product
from .errors import _PAST_EVERY_LIMIT, DomainError, ResourceLimitError, _count_text
from .operators import (
    DELTA_INV,
    LAMBDA,
    LAMBDA_BAR,
    NABLA_INV,
    LinearOperator,
)
from .trees import (
    _ENUMERATION_CAP,
    _TREE_COUNTS,
    RootedForest,
    RootedTree,
    automorphism_order,
    check_depth,
    check_enumeration,
    enumerate_trees,
)


# Most terms a quasi-symmetric tree value may have before `evaluate`
# builds it: 2^15 keeps a 16-leaf star under lambda-bar and every tree on
# 16 vertices under lambda.
QSYM_TERM_LIMIT = 2**15

# Most pairs of terms, one from each operand, that the quasi-symmetric
# products of `genfun.u_by_recurrence` may take through the quasi-shuffle:
# 2^16 admits lambda through order 14 and lambda-bar through order 15.
# The memory is the quasi-shuffle table those pairs fill, not U_N.
QSYM_PAIR_LIMIT = 2**16

# Most terms the values a whole-class run caches may hold in all, by the
# cost guard's star estimate summed over the cached classes: 2^23 admits
# the enumeration build of lambda through order 12 and lambda-bar through
# 13, at about 100 bytes of memory a term.
CLASS_CACHE_TERM_LIMIT = 2**23

# Highest degree a polynomial tree value may have before `evaluate`
# builds it: from its values at t = 0 .. 256, a path of 256 vertices takes
# 0.011 s under delta-inv and 0.017 s under nabla-inv (Python 3.11, one
# core of a 2-vCPU machine), where the carrier recursion took 1.3-1.5 s.
POLY_DEGREE_LIMIT = 256


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
    # the C(m, j) sum to 2^m, so sum the shorter side of j = height - 1
    if 2 * (height - 1) > m:
        return sum(comb(m, j) for j in range(height - 1, m + 1))
    if m > 64:
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


def _weak_pairs(order: int) -> int:
    """Operand-term pairs of the lambda recurrence through U_order: step n
    of its exp multiplies g_k (2^(k-1) terms) by e_(n-k) (2^(n-k-1)) for
    k < n, (n-1) 2^(n-2) pairs, and steps 1 .. order-1 sum to
    (order-3) 2^(order-2) + 1.  Products by the unit are not counted."""
    if order < 3:
        return 0
    return ((order - 3) << (order - 2)) + 1


def _strict_pairs(order: int) -> int:
    """The same for lambda-bar, whose U_k has 2^(k-2) terms past U_1:
    n 2^(n-3) pairs at step n, (order-2) 2^(order-3) in all."""
    if order < 3:
        return 0
    return (order - 2) << (order - 3)


# The operand-pair estimate of each quasi-symmetric operator's recurrence;
# both are exact.
_RECURRENCE_PAIRS = {LAMBDA_BAR: _strict_pairs, LAMBDA: _weak_pairs}


# The grid kernel: a tree's values on m points are an int tuple of m + 1
# entries, entry j its value f(x_j, ..., x_1) on the first j points, so
# the unit is all ones.  Evaluation is a ring map, so a product is
# pointwise, and each operator is one prefix sum, w_j = sum over k <= j of
# x_k v_k (weak) or x_k v_(k-1) (strict), reduced mod this prime for a
# quasi-symmetric value.  The polynomial points are all 1 with no modulus:
# entry j is the exact value at t = j, and n + 1 entries fix degree n.
_MODULUS = (1 << 61) - 1

# One residue per vertex count enumeration admits, none 0 or 1: the orbit
# of x -> x^2 + 1 from an arbitrary start, so no low-degree relation holds.
_POINTS = tuple(itertools.accumulate(
    range(1, _ENUMERATION_CAP), lambda x, _: (x * x + 1) % _MODULUS, initial=0x1E3779B97F4A7C15
))

# The unit, whether the prefix sum is weak, and the points of each
# operator's grid; None stands for the polynomial grid's all ones.
_GRID_MODELS = {
    DELTA_INV: (Polynomial.one(), False, None),
    NABLA_INV: (Polynomial.one(), True, None),
    LAMBDA_BAR: (QSym.one(), False, _POINTS),
    LAMBDA: (QSym.one(), True, _POINTS),
}


def _times(a: tuple, b: tuple) -> tuple:
    """The pointwise product of two grid values."""
    return tuple(map(mul, a, b))


def _weighted_sum(pairs) -> tuple:
    """The sum of c * v over (int weight, grid value) pairs, or ()."""
    acc = ()
    for c, v in pairs:
        acc = [a + c * x for a, x in zip(acc, v)] if acc else [c * x for x in v]
    return tuple(acc)


def _prefix_sums(values: tuple, weak: bool, points) -> tuple:
    """An operator on grid values: Delta^-1 f(t) sums f(j) over j < t,
    nabla^-1 f(t) over 1 <= j <= t; the prepends weight by the points."""
    values = values[1:] if weak else values[:-1]
    if points is None:
        return tuple(itertools.accumulate(values, initial=0))
    sums = itertools.accumulate(map(mul, points, values), initial=0)
    return tuple([s % _MODULUS for s in sums])


class _Grid:
    """One walk on m points for a `_GRID_MODELS` entry: `walk(tree)` is
    the tree's values, memoized for every subtree by key in `_cache`, so
    `evaluate(tree, grid)` reads back a walked tree; `apply` is the
    operator.  Entries on k < m points are the first k + 1 of those on m."""

    __slots__ = ("_cache", "one", "apply", "walk")

    def __init__(self, model, m: int):
        _, weak, points = model
        memo = self._cache = {}
        one = self.one = (1,) * (m + 1)
        self.apply = lambda values: _prefix_sums(values, weak, points)

        def walk(tree):
            got = memo.get(tree.key)
            if got is None:
                children = tree.children
                value = walk(children[0]) if children else one
                for child in children[1:]:
                    value = _times(value, walk(child))
                got = memo[tree.key] = _prefix_sums(value, weak, points)
            return got

        self.walk = walk


class InvariantSpec:
    """An operator, the unit of its target algebra, and a value cache.

    degree_bound, when set, is a cap that only refuses: no value on more
    vertices is built, and nothing is ever truncated.  guard, set for the
    four built-in operators, is the operator's entry in the cost-guard
    table.  `check_cost` is the one place that reads either, and every
    entry point that builds values asks it before any product.

    grid_model is the operator's entry in `_GRID_MODELS` when the unit is
    that entry's; on_grid is set when that entry is a polynomial one.
    """

    def __init__(self, name: str, operator: LinearOperator, one, degree_bound=None):
        self.name = name
        self.operator = operator
        self.one = one
        self.degree_bound = degree_bound
        self.guard = _GUARDS.get(operator)
        model = _GRID_MODELS.get(operator)
        self.grid_model = model if model is not None and one == model[0] else None
        self.on_grid = self.grid_model is not None and model[2] is None
        self._cache: dict[str, object] = {}

    @property
    def algebra(self) -> str:
        return self.operator.algebra

    def __repr__(self):
        return f"InvariantSpec({self.name!r}, algebra={self.algebra!r})"


def check_cost(
    spec: InvariantSpec, vertices: int, height: int, subject="value of a tree on {} vertices"
) -> None:
    """Refuse a value on a tree of this shape: DomainError when it has
    more vertices than the spec's degree bound, then ResourceLimitError,
    naming the estimate and the limit, when the spec's guard estimates it
    past its limit.  `subject`, filled in with the vertex count, names
    that value in the message."""
    bound = spec.degree_bound
    if bound is not None and vertices > bound:
        raise DomainError(
            f"the {spec.name} {subject.format(vertices)} outgrows the degree bound {bound}"
        )
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


def check_recurrence_cost(spec: InvariantSpec, order: int) -> None:
    """Refuse U_order as `check_cost` refuses the value of a star on
    `order` vertices (the largest of the trees it sums), then raise
    ResourceLimitError, naming the estimate and the limit, when a
    quasi-symmetric recurrence through U_order is estimated to multiply
    more than `QSYM_PAIR_LIMIT` pairs of operand terms."""
    check_cost(spec, order, 1, "term U_{}")
    pairs = _RECURRENCE_PAIRS.get(spec.operator)
    if pairs is None:
        return
    size = pairs(order)
    if size > QSYM_PAIR_LIMIT:
        raise ResourceLimitError(
            f"the {spec.name} recurrence through U_{order} multiplies an estimated "
            f"{_count_text(size)} pairs of terms, over the limit of {QSYM_PAIR_LIMIT}"
        )


def check_class_cache(spec: InvariantSpec, largest: int) -> None:
    """Refuse a run that caches the value of every tree on 1 .. largest
    vertices (at most the enumeration cap) when the cost guard's estimate
    for a star, the largest of each class, summed over the trees of those
    classes passes `CLASS_CACHE_TERM_LIMIT`; the message names the
    estimate and the limit.  A polynomial's degree counts as its terms."""
    if spec.guard is None:
        return
    estimate = spec.guard[0]
    size = sum(_TREE_COUNTS[k] * estimate(k, 1) for k in range(1, largest + 1))
    if size > CLASS_CACHE_TERM_LIMIT:
        raise ResourceLimitError(
            f"caching the {spec.name} values of every tree on 1 to {largest} vertices "
            f"takes an estimated {_count_text(size)} terms, over the limit of "
            f"{CLASS_CACHE_TERM_LIMIT}"
        )


def evaluate(tree: RootedTree, spec: InvariantSpec):
    """Value of a rooted tree: the operator applied to the product of the
    values of the subtrees hanging off the root.  Refuses a tree deeper
    than `trees.DEPTH_LIMIT`, then one that `check_cost` refuses; a
    cached value passed both.

    On the grid, a value on n vertices is read back once from its values
    at t = 0 .. n, walked with a memo of this call, and only the root's
    value is cached; any other spec evaluates and caches every subtree in
    its carrier."""
    got = spec._cache.get(tree.key)
    if got is None:
        check_depth(tree.height)
        check_cost(spec, tree.vertex_count, tree.height)
        if spec.on_grid:
            got = Polynomial.from_values(_Grid(spec.grid_model, tree.vertex_count).walk(tree))
        else:
            # the loop of `product`, written out so that a level costs one frame
            children = tree.children
            value = evaluate(children[0], spec) if children else spec.one
            for child in children[1:]:
                value = value * evaluate(child, spec)
            got = spec.operator(value)
        spec._cache[tree.key] = got
    return got


def evaluate_forest(forest: RootedForest, spec: InvariantSpec):
    """Product of component values; the empty forest maps to the unit."""
    return product((evaluate(tree, spec) for tree in forest), spec.one)


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


class CollisionPair(NamedTuple):
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
    under the given invariant agree exactly.

    Equal values share a fingerprint, their values on one `_Grid` walk
    of n_max points.  A polynomial fingerprint fixes the value, so its
    buckets are the groups.  Otherwise only the trees that share one
    with another tree are evaluated, and they are grouped by value,
    which every carrier hashes and compares exactly.  Groups come in the
    order of their first tree.  Before the first class, n_max
    is checked against the enumeration cap, then by `check_cost` on a
    star, which has the largest estimate of its class."""
    if n_max < 1:
        raise DomainError("need n_max >= 1")
    check_enumeration(n_max)
    check_cost(spec, n_max, 1)
    grid = None if spec.grid_model is None else _Grid(spec.grid_model, n_max)
    pairs = []
    for n in range(1, n_max + 1):
        trees = enumerate_trees(n)
        buckets: dict[object, list[int]] = {}
        for i, tree in enumerate(trees):
            fingerprint = None if grid is None else grid.walk(tree)
            buckets.setdefault(fingerprint, []).append(i)
        groups = [bucket for bucket in buckets.values() if len(bucket) > 1]
        if not spec.on_grid:
            # equal values share a bucket, so one grouping serves them all
            exact: dict[object, list[int]] = {}
            for i in itertools.chain.from_iterable(groups):
                exact.setdefault(evaluate(trees[i], spec), []).append(i)
            groups = [group for group in exact.values() if len(group) > 1]
        # groups are disjoint, so list order is the order of first indices
        groups.sort()
        for group in groups:
            for i, j in itertools.combinations(group, 2):
                a, b = trees[i], trees[j]
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
