"""Linear operators on the algebra carriers.

Each operator is a named callable with an algebra tag, so pipelines can
refuse to mix carriers.  The polynomial operators are the forward and
backward difference operators and their right inverses pinned down by
vanishing at zero; the quasi-symmetric operators prepend a part to each
composition, with the second one also merging into the head part.  The
four inverses and prepends raise the degree of every non-zero input by
exactly one and drop no term.  Their
index-shift realizations in finitely many variables, which check them,
live in `oracles`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, lcm
from typing import Any, Callable

from .algebra import Polynomial, QSym

POLYNOMIAL = "polynomial"
QSYM = "qsym"
FREE_WORD = "free-word"
TENSOR = "tensor"


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


# Power sums sum_{j<t} j^k = A_k(t) / L for k = 0..d: the integer
# coefficient rows A_0..A_d over one common denominator L.  Empty until the
# first delta_inv call, then grown to the highest degree seen.
_POWER_SUMS: tuple = ((), 1)


def _power_sums(degree: int) -> tuple:
    """The power-sum table, grown to cover every k <= degree."""
    global _POWER_SUMS
    rows, den = _POWER_SUMS
    if degree < len(rows):
        return _POWER_SUMS
    # Faulhaber: (k+1) sum_{j<t} j^k = sum_i C(k+1, i) B_i t^(k+1-i), with
    # B_1 = -1/2; B_k is the linear coefficient of row k.
    bernoulli = [Fraction(row[1], den) for row in rows]
    grown = []
    for k in range(len(rows), degree + 1):
        if k == 0:
            bernoulli.append(Fraction(1))
        else:
            total = sum(comb(k + 1, i) * b for i, b in enumerate(bernoulli) if b)
            bernoulli.append(-total / (k + 1))
        row = [Fraction(0)] * (k + 2)
        for i, b in enumerate(bernoulli):
            row[k + 1 - i] = comb(k + 1, i) * b / (k + 1)
        grown.append(row)
    new_den = lcm(den, *(c.denominator for row in grown for c in row))
    scale = new_den // den
    rows = tuple(tuple(a * scale for a in row) for row in rows) if scale != 1 else rows
    rows += tuple(
        tuple(c.numerator * (new_den // c.denominator) for c in row) for row in grown
    )
    _POWER_SUMS = (rows, new_den)
    return _POWER_SUMS


def delta_inv(g: Polynomial) -> Polynomial:
    """The unique f with f(t + 1) - f(t) = g(t) and f(0) = 0.

    f(t) = sum_{j<t} g(j), so each t^k goes to the power sum A_k(t) / L:
    one integer matrix-vector product with the cached power-sum table.
    """
    nums = g.numerators
    rows, den = _power_sums(len(nums) - 1)
    out = [0] * (len(nums) + 1)
    for n, row in zip(nums, rows):
        if n:
            for i, a in enumerate(row):
                out[i] += n * a
    return Polynomial.from_numerators(out, den * g.denominator)


def nabla_inv(g: Polynomial) -> Polynomial:
    """The unique f with f(t) - f(t - 1) = g(t) and f(0) = 0.

    With h = delta_inv(g), the map t -> h(t + 1) - g(0) solves it, and
    h(t + 1) = h(t) + g(t), so no shift of the input is needed.
    """
    g_minus_constant = Polynomial.from_numerators((0,) + g.numerators[1:], g.denominator)
    return delta_inv(g) + g_minus_constant


def lambda_bar(a: QSym) -> QSym:
    """Prepend a new part 1 to every composition.

    M_(a_1, ..., a_r) goes to M_(1, a_1, ..., a_r) and the unit goes to
    M_(1), so the degree of every term grows by exactly one.
    """
    return QSym._from_valid_terms({(1,) + comp: coeff for comp, coeff in a.terms.items()})


def lambda_(a: QSym) -> QSym:
    """Prepend a part 1, plus absorb it into the head part.

    M_(a_1, ..., a_r) goes to M_(1, a_1, ..., a_r) + M_(1 + a_1, ..., a_r);
    the unit goes to M_(1) alone.  Like `lambda_bar`, it raises the
    degree of every term by exactly one.
    """
    out = {}
    for comp, coeff in a.terms.items():
        for grown in ((1,) + comp,) + (((1 + comp[0],) + comp[1:],) if comp else ()):
            out[grown] = out.get(grown, 0) + coeff
    return QSym._from_valid_terms(out)


DELTA_INV = LinearOperator("delta-inv", POLYNOMIAL, delta_inv)
NABLA_INV = LinearOperator("nabla-inv", POLYNOMIAL, nabla_inv)
LAMBDA_BAR = LinearOperator("lambda-bar", QSYM, lambda_bar)
LAMBDA = LinearOperator("lambda", QSYM, lambda_)
