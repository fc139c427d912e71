"""Linear operators on the algebra carriers.

Each operator is a named callable with an algebra tag, so pipelines can
refuse to mix carriers.  The polynomial operators are the forward and
backward difference operators and their right inverses pinned down by
vanishing at zero; the quasi-symmetric operators prepend a part to each
composition, with the second one also merging into the head part.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

from .algebra import (
    FiniteVarPoly,
    Polynomial,
    QSym,
    binomial_basis,
    rat,
    to_newton,
)
from .errors import DomainError

POLYNOMIAL = "polynomial"
QSYM = "qsym"
FINITE = "finite"
FREE_WORD = "free-word"
TENSOR = "tensor"
RATIONAL = "rational"

NONCOMMUTATIVE_TAGS = frozenset({FREE_WORD, TENSOR})


@dataclass(frozen=True)
class LinearOperator:
    """A named linear map on one algebra carrier."""

    name: str
    algebra: str
    apply: Callable[[Any], Any] = field(repr=False)

    def __call__(self, x):
        return self.apply(x)


def delta(p: Polynomial) -> Polynomial:
    """Forward difference: f(t + 1) - f(t)."""
    return p.shift(1) - p


def nabla(p: Polynomial) -> Polynomial:
    """Backward difference: f(t) - f(t - 1)."""
    return p - p.shift(-1)


def delta_inv(g: Polynomial) -> Polynomial:
    """The unique f with f(t + 1) - f(t) = g(t) and f(0) = 0.

    Writing g in the Newton basis sends C(t, k) to C(t, k + 1); every
    C(t, k + 1) vanishes at 0, which pins down the constant of summation.
    """
    out = Polynomial.zero()
    for k, c in enumerate(to_newton(g)):
        out = out + c * binomial_basis(k + 1)
    return out


def nabla_inv(g: Polynomial) -> Polynomial:
    """The unique f with f(t) - f(t - 1) = g(t) and f(0) = 0.

    With h = delta_inv(g), the map t -> h(t + 1) - g(0) solves it, and
    h(t + 1) = h(t) + g(t), so no shift of the input is needed.
    """
    return delta_inv(g) + g - Polynomial((g.coefficient(0),))


def lambda_bar(a: QSym) -> QSym:
    """Prepend a new part 1 to every composition.

    M_(a_1, ..., a_r) goes to M_(1, a_1, ..., a_r) and the unit goes to
    M_(1); the QSym constructor drops terms pushed past the truncation
    bound.
    """
    return QSym({(1,) + comp: coeff for comp, coeff in a.terms.items()}, a.max_degree)


def lambda_(a: QSym) -> QSym:
    """Prepend a part 1, plus absorb it into the head part.

    M_(a_1, ..., a_r) goes to M_(1, a_1, ..., a_r) + M_(1 + a_1, ..., a_r);
    the unit goes to M_(1) alone.
    """
    out = {}
    for comp, coeff in a.terms.items():
        for grown in ((1,) + comp,) + (((1 + comp[0],) + comp[1:],) if comp else ()):
            out[grown] = out.get(grown, Fraction(0)) + coeff
    return QSym(out, a.max_degree)


def shift_s(p: FiniteVarPoly) -> FiniteVarPoly:
    """Index shift x_i -> x_{i+1} in the finite-variable model; monomials
    using the last variable are pushed out to zero."""
    return p.shifted()


def finite_lambda_bar(p: FiniteVarPoly) -> FiniteVarPoly:
    """Direct finite-model evaluation of the strict prepend operator:
    the sum over k of x_k times the k-fold index shift."""
    out = FiniteVarPoly.zero(p.num_vars, p.max_degree)
    shifted = p
    for k in range(1, p.num_vars + 1):
        shifted = shift_s(shifted)
        out = out + FiniteVarPoly.variable(k, p.num_vars, p.max_degree) * shifted
    return out


def finite_lambda(p: FiniteVarPoly) -> FiniteVarPoly:
    """Direct finite-model evaluation of the weak prepend operator:
    the sum over k of x_k times the (k-1)-fold index shift."""
    out = FiniteVarPoly.zero(p.num_vars, p.max_degree)
    shifted = p
    for k in range(1, p.num_vars + 1):
        out = out + FiniteVarPoly.variable(k, p.num_vars, p.max_degree) * shifted
        shifted = shift_s(shifted)
    return out


DELTA = LinearOperator("delta", POLYNOMIAL, delta)
NABLA = LinearOperator("nabla", POLYNOMIAL, nabla)
DELTA_INV = LinearOperator("delta-inv", POLYNOMIAL, delta_inv)
NABLA_INV = LinearOperator("nabla-inv", POLYNOMIAL, nabla_inv)
LAMBDA_BAR = LinearOperator("lambda-bar", QSYM, lambda_bar)
LAMBDA = LinearOperator("lambda", QSYM, lambda_)
SHIFT = LinearOperator("shift", FINITE, shift_s)


def compose(operators) -> LinearOperator:
    """Composition in the usual order: the last operator listed is
    applied first, like writing the maps side by side."""
    ops = tuple(operators)
    if not ops:
        raise DomainError("compose needs at least one operator")
    tags = {op.algebra for op in ops}
    if len(tags) > 1:
        raise DomainError(f"cannot compose across algebras: {sorted(tags)}")

    def run(x):
        for op in reversed(ops):
            x = op(x)
        return x

    return LinearOperator(" . ".join(op.name for op in ops), ops[0].algebra, run)


def op_add(a: LinearOperator, b: LinearOperator) -> LinearOperator:
    if a.algebra != b.algebra:
        raise DomainError(f"cannot add operators across algebras: {a.algebra}, {b.algebra}")
    return LinearOperator(f"({a.name} + {b.name})", a.algebra, lambda x: a(x) + b(x))


def op_scale(c, a: LinearOperator) -> LinearOperator:
    scalar = rat(c)
    return LinearOperator(f"{scalar}*{a.name}", a.algebra, lambda x: scalar * a(x))
