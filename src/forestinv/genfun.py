"""Generating functions attached to an invariant.

U_n is the automorphism-weighted sum of the invariant over all trees on
n vertices.  It can be built two independent ways: by direct enumeration,
or by the recurrence U_1 = X(1), U_n = X(S_{n-1}(U_1, ..., U_{n-1}))
where S_k is the elementary Schur polynomial (the weight-k coefficient of
the exponential of a generic series).  The recurrence runs as one `exp`
whose feedback map is X, so order N costs (N-1)(N-2)/2 carrier products; the
per-term build, one fresh exp per U_n, lives in `tests/references.py`
as a test reference.  The enumeration build sums each n! U_n with the int weights
n!/alpha(T), and applies X once to its last term: the tree B+(F)
grafted from a forest F has the value X of F's value, alpha(B+(F)) =
alpha(F), and X is linear, so n! U_n = X(sum over the forests F on n-1
vertices of (n!/alpha(F)) times the value of F), a sum factored over
the shared prefixes of the sorted child lists.  For delta-inv and
nabla-inv the whole build runs on `engine`'s grid kernel, int tuples of
the values at t = 0 .. N (Stanley, EC1 3.12), in one walk whose memo
serves every class, and each U_n is read back once from its first n + 1
values.  The cross-check of the two builds and the residual of the
fixed-point equation q * X(exp U(q)) = U(q) are the main correctness
evidence for the whole engine; the residual is computed from the
enumeration build so it is not true by construction.  Through q^N it
exponentiates U only through q^(N-1), all that q * X(exp U) keeps.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import factorial
from operator import mul
from typing import NamedTuple

from .algebra import Polynomial, linear_combination, one_like
from .engine import (
    InvariantSpec,
    _Grid,
    _times,
    _weighted_sum,
    check_class_cache,
    check_cost,
    check_recurrence_cost,
    evaluate,
)
from .errors import DomainError
from .series import Series, exp, is_noncommutative
from .trees import automorphism_order, check_enumeration, enumerate_trees


def _require_commutative(spec: InvariantSpec) -> None:
    if is_noncommutative(spec.one):
        raise DomainError(
            "this layer needs a commutative algebra; use the planar layer instead"
        )


def elementary_schur(values, n: int, one=None):
    """The weight-n elementary Schur polynomial of v_1, v_2, ...

    S_n is the coefficient of q^n in exp(v_1 q + v_2 q^2 + ...); only
    v_1 .. v_n contribute.  S_0 is the unit.  The carrier must be
    commutative with rational scalars; a scalar value is taken as that
    multiple of the unit.
    """
    values = list(values)
    if n < 0:
        raise DomainError("need n >= 0")
    if len(values) < n:
        raise DomainError(f"need at least {n} leading values, got {len(values)}")
    if any(is_noncommutative(v) for v in values):
        raise DomainError("elementary Schur polynomials need a commutative carrier")
    if one is None:
        if not values:
            raise DomainError("cannot infer the unit from an empty value list")
        one = one_like(values[0])
    if n == 0:
        return one
    generic = Series.from_terms(dict(enumerate(values[:n], start=1)), n, one)
    return exp(generic).coefficient(n)


class USequence(NamedTuple):
    """Leading terms U_1 .. U_order of the tree generating function."""

    spec_name: str
    terms: tuple
    one: object

    @property
    def order(self) -> int:
        return len(self.terms)

    def series(self) -> Series:
        """The truncated series sum of U_n q^n (zero constant term)."""
        return Series((Fraction(0) * self.one,) + self.terms, self.one)


def u_by_recurrence(spec: InvariantSpec, order: int) -> USequence:
    """Build U_1 .. U_order from the fixed-point recurrence.

    One running exp solves E = exp(q X(E)) through q^(order-1): its
    coefficient E_(n-1) is S_(n-1)(U_1, ..., U_(n-1)), so each value the
    operator returns inside it is the next U_n, and the last is
    X(E_(order-1)).  Costs (N-1)(N-2)/2 carrier products at order N, plus one
    operator call per term.  Refuses an order past the spec's degree
    bound, or whose U_order or quasi-symmetric products are estimated
    past the operator's cost guard (`engine.check_recurrence_cost`)."""
    if order < 1:
        raise DomainError("need order >= 1")
    _require_commutative(spec)
    check_recurrence_cost(spec, order)
    terms = []

    def feedback(value):
        terms.append(spec.operator(value))
        return terms[-1]

    grown = exp(Series.zero(order - 1, spec.one), feedback)
    terms.append(spec.operator(grown.coeffs[-1]))
    return USequence(spec.name, tuple(terms), spec.one)


def u_by_enumeration(spec: InvariantSpec, order: int) -> USequence:
    """Build U_1 .. U_order as automorphism-weighted sums over all trees:
    n! U_n is one linear combination of the tree values with the int
    weights n!/alpha(T), the labelings of each tree, divided once.

    The trees on fewer than `order` vertices are children of larger
    trees, so each is evaluated and cached.  The largest class is summed
    before the operator, over the children's values, all cache hits, and
    X is applied once to that sum, which is n! X(S_(n-1)) by linearity,
    so no value of a tree on `order` vertices is built or cached.  The
    per-tree sum this replaces is `u_by_tree_sums` in
    `tests/references.py`.  Before the first class, the order is checked
    against the enumeration cap, then by `engine.check_cost` on a star,
    which has the largest estimate of its class, then by
    `engine.check_class_cache` on the classes it caches, all on the
    caller's spec.

    On the polynomial grid the values are int tuples at t = 0 .. order
    in one `engine._Grid` walk of this call, not in the caller's cache,
    and each U_n is interpolated once; other specs cache in their own."""
    if order < 1:
        raise DomainError("need order >= 1")
    check_enumeration(order)
    _require_commutative(spec)
    check_cost(spec, order, 1, "term U_{}")
    check_class_cache(spec, order - 1)
    if spec.on_grid:
        build = _Grid(spec.grid_model, order)
        value, apply, times, total = build.walk, build.apply, _times, _weighted_sum
    else:
        build, value, apply = spec, partial(evaluate, spec=spec), spec.operator
        times, total = mul, partial(linear_combination, one=spec.one)
    terms = []
    for n in range(1, order):
        labelings = factorial(n)
        class_sum = total(
            (labelings // automorphism_order(tree), value(tree)) for tree in enumerate_trees(n)
        )
        terms.append(_term(class_sum, n, labelings))
    labelings = factorial(order)
    # the star's check above stands for these trees, which the cap keeps
    # far inside the depth limit; the one tree on 1 vertex has no children,
    # so its sum is the unit with weight 1
    top = enumerate_trees(order)
    class_sum = _extension_sum(top, 0, labelings, build, times, total) if order > 1 else build.one
    terms.append(_term(apply(class_sum), order, labelings))
    return USequence(spec.name, tuple(terms), spec.one)


def _term(class_sum, n: int, labelings: int):
    """U_n from n! U_n: interpolated from its first n + 1 values, or scaled."""
    if type(class_sum) is tuple:
        return Polynomial.from_values(class_sum[: n + 1], labelings)
    return Fraction(1, labelings) * class_sum


def _extension_sum(trees, depth, labelings, build, times, total):
    """The sum over `trees`, a run in key order that shares its first
    `depth` children, of (labelings / alpha(T)) times the product, by
    `times`, of the values in `build` of each tree's later children,
    summed by `total`; each child is smaller than its tree, so cached.

    A tree's children are in key order, so the trees that share one more
    child are a run too: the sum is that child's value times the sum over
    its run, one product per run, 116 for the 4766 trees on 12 vertices.
    A run whose child ends a tree's child list is that tree alone, since
    the children of every tree in a class hold the same number of
    vertices, so its child's value enters with the tree's weight."""
    pairs = []
    start = 0
    while start < len(trees):
        first = trees[start]
        child = first.children[depth]
        end = start + 1
        while end < len(trees) and trees[end].children[depth].key == child.key:
            end += 1
        value = evaluate(child, build)
        if len(first.children) == depth + 1:
            pairs.append((labelings // automorphism_order(first), value))
        else:
            rest = _extension_sum(trees[start:end], depth + 1, labelings, build, times, total)
            pairs.append((1, times(value, rest)))
        start = end
    return total(pairs)


def verify_functional_equation(
    spec: InvariantSpec, order: int, sequence: USequence | None = None
) -> Series:
    """Residual of the fixed-point equation, as a series through q^order.

    Returns q * X(exp U(q)) - U(q) with U built by enumeration unless a
    sequence is supplied; a zero residual confirms that the coefficient
    of q^(n-1) in exp U feeds back to U_n under the operator.
    """
    if order < 1:
        raise DomainError("need order >= 1")
    seq = sequence if sequence is not None else u_by_enumeration(spec, order)
    if seq.order < order:
        raise DomainError("sequence is shorter than the requested order")
    u_series = seq.series().truncate(order)
    grown = exp(u_series.truncate(order - 1)).map(spec.operator).times_q()
    return grown - u_series


class CayleyReport(NamedTuple):
    """Exact comparison of tree sums against n^(n-1)/n!."""

    rows: list
    residual_zero: bool

    @property
    def ok(self) -> bool:
        return self.residual_zero and all(row["equal"] for row in self.rows)

    def to_jsonable(self) -> dict:
        return {
            "rows": [
                {
                    "n": row["n"],
                    "tree_sum": str(row["tree_sum"]),
                    "closed_form": str(row["closed_form"]),
                    "equal": row["equal"],
                }
                for row in self.rows
            ],
            "residual_zero": self.residual_zero,
            "ok": self.ok,
        }


def cayley_check(n_max: int) -> CayleyReport:
    """Check that the automorphism-weighted count of trees on n vertices
    equals n^(n-1)/n! exactly, and that the scalar series u(q) built from
    those numbers satisfies q * exp(u) = u through q^n_max."""
    if n_max < 1:
        raise DomainError("need n_max >= 1")
    check_enumeration(n_max)
    rows = []
    sums = []
    for n in range(1, n_max + 1):
        labelings = factorial(n)
        total = Fraction(
            sum(labelings // automorphism_order(tree) for tree in enumerate_trees(n)),
            labelings,
        )
        closed = Fraction(n ** (n - 1), labelings)
        rows.append(
            {"n": n, "tree_sum": total, "closed_form": closed, "equal": total == closed}
        )
        sums.append(total)
    u_series = Series((Fraction(0), *sums), Fraction(1))
    residual = exp(u_series.truncate(n_max - 1)).times_q() - u_series
    return CayleyReport(rows=rows, residual_zero=residual.is_zero())
