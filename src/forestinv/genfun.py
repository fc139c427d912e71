"""Generating functions attached to an invariant.

U_n is the automorphism-weighted sum of the invariant over all trees on
n vertices.  It can be built two independent ways: by direct enumeration,
or by the recurrence U_1 = X(1), U_n = X(S_{n-1}(U_1, ..., U_{n-1}))
where S_k is the elementary Schur polynomial (the weight-k coefficient of
the exponential of a generic series).  The recurrence runs as one `exp`
whose feedback map is X, so order N costs N(N-1)/2 carrier products; the
per-term build, one fresh exp per U_n, lives in `oracles` as a test
reference.  The cross-check of the two builds and the residual of the
fixed-point equation q * X(exp U(q)) = U(q) are the main correctness
evidence for the whole engine; the residual is computed from the
enumeration build so it is not true by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .algebra import one_like
from .engine import InvariantSpec, check_cost, evaluate
from .errors import DomainError, ResourceLimitError
from .series import Series, exp, is_noncommutative
from .trees import _ENUMERATION_CAP, automorphism_order, enumerate_trees


def _require_commutative(spec: InvariantSpec) -> None:
    if is_noncommutative(spec.one):
        raise DomainError(
            "this layer needs a commutative algebra; use the planar layer instead"
        )


def _require_bound(spec: InvariantSpec, order: int) -> None:
    if spec.degree_bound is not None and spec.degree_bound < order:
        raise DomainError(
            f"degree bound {spec.degree_bound} cannot hold order {order}"
        )


def elementary_schur(values, n: int, one=None):
    """The weight-n elementary Schur polynomial of v_1, v_2, ...

    S_n is the coefficient of q^n in exp(v_1 q + v_2 q^2 + ...); only
    v_1 .. v_n contribute.  S_0 is the unit.  The carrier must be
    commutative with rational scalars.
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


@dataclass
class USequence:
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
    X(E_(order-1)).  Costs N(N-1)/2 carrier products at order N, plus one
    operator call per term.  Refuses an order whose U_order is estimated
    past the operator's cost guard (`engine.check_cost`)."""
    if order < 1:
        raise DomainError("need order >= 1")
    _require_commutative(spec)
    _require_bound(spec, order)
    # U_order sums the values of the trees on `order` vertices, and the
    # star's estimate is the largest of theirs
    check_cost(spec, order, 1, "term U_{}")
    terms = []

    def feedback(value):
        terms.append(spec.operator(value))
        return terms[-1]

    grown = exp(Series.zero(order - 1, spec.one), feedback)
    terms.append(spec.operator(grown.coeffs[-1]))
    return USequence(spec.name, tuple(terms), spec.one)


def u_by_enumeration(spec: InvariantSpec, order: int) -> USequence:
    """Build U_1 .. U_order as automorphism-weighted sums over all trees."""
    if order < 1:
        raise DomainError("need order >= 1")
    if order > _ENUMERATION_CAP:
        raise ResourceLimitError(
            f"enumerating all trees through {order} vertices is over the limit"
        )
    _require_commutative(spec)
    _require_bound(spec, order)
    terms = []
    for n in range(1, order + 1):
        # n!/alpha(T) counts the labelings of T, so the sum runs on int weights
        labelings = factorial(n)
        total = Fraction(0) * spec.one
        for tree in enumerate_trees(n):
            total = total + (labelings // automorphism_order(tree)) * evaluate(tree, spec)
        terms.append(Fraction(1, labelings) * total)
    return USequence(spec.name, tuple(terms), spec.one)


def verify_functional_equation(
    spec: InvariantSpec, order: int, sequence: USequence | None = None
) -> Series:
    """Residual of the fixed-point equation, as a series through q^order.

    Returns q * X(exp U(q)) - U(q) with U built by enumeration unless a
    sequence is supplied; a zero residual confirms that the coefficient
    of q^(n-1) in exp U feeds back to U_n under the operator.
    """
    seq = sequence if sequence is not None else u_by_enumeration(spec, order)
    if seq.order < order:
        raise DomainError("sequence is shorter than the requested order")
    u_series = seq.series().truncate(order)
    grown = exp(u_series).map(spec.operator).times_q()
    return grown - u_series


@dataclass
class CayleyReport:
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
    if n_max > _ENUMERATION_CAP:
        raise ResourceLimitError(
            f"enumerating all trees through {n_max} vertices is over the limit"
        )
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
    residual = exp(u_series).times_q() - u_series
    return CayleyReport(rows=rows, residual_zero=residual.is_zero())
