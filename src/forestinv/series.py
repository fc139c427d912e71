"""Truncated formal power series in q over an exact coefficient algebra.

A Series stores coefficients for q^0 .. q^order plus the unit of the
coefficient algebra, so zeros and units can be manufactured without
knowing the carrier type.  Coefficients only need +, - and * with
rational scalars; noncommutative carriers are fine everywhere except
`exp`, which refuses them.  `times_q` knows q F one order further than
F.  `exp` and `geometric_inverse` solve coefficient recurrences in
N(N-1)/2 carrier products at order N, each optionally feeding a linear
map of its own output back in.  An `exp` coefficient multiplies through
the carrier's product and sums the weighted products in one pass of
`algebra.linear_combination`, so a weight scales no operand, and its
term that meets the q^0 coefficient, the unit, is added as it is.  A
`geometric_inverse` coefficient hands its operand pairs, the one with
the unit among them, to `algebra.sum_of_products`, which the word
carriers answer in one pass with no product built on its own.
`exp` runs on the labeled coefficients n! E_n, so a series with integral
labeled coefficients, such as a tree generating function, is
exponentiated by integer products and one division per output
coefficient.  The power sums they replaced live in
`tests/references.py` as test references.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .algebra import linear_combination, sum_of_products
from .errors import DomainError


def is_noncommutative(value) -> bool:
    """Whether value lies in a carrier whose product does not commute, as
    its class declares; scalars and carriers that declare nothing
    commute."""
    return getattr(value, "noncommutative", False)


class Series:
    """Power series known modulo q^(order + 1)."""

    __slots__ = ("coeffs", "one")

    def __init__(self, coeffs, one):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise DomainError("a series needs at least the q^0 coefficient")
        self.coeffs = coeffs
        self.one = one

    @classmethod
    def zero(cls, order: int, one):
        return cls((Fraction(0) * one,) * (order + 1), one)

    @classmethod
    def unit(cls, order: int, one):
        return cls((one,) + (Fraction(0) * one,) * order, one)

    @classmethod
    def from_terms(cls, terms, order: int, one):
        """Series with the given dict of {exponent: coefficient}."""
        zero = Fraction(0) * one
        coeffs = [zero] * (order + 1)
        for k, v in terms.items():
            if 0 <= k <= order:
                coeffs[k] = v
        return cls(coeffs, one)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int):
        if not 0 <= k <= self.order:
            raise DomainError(f"coefficient q^{k} is outside the truncation")
        return self.coeffs[k]

    def _zero(self):
        return Fraction(0) * self.one

    def is_zero(self) -> bool:
        zero = self._zero()
        return all(c == zero for c in self.coeffs)

    def __add__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        return Series(
            tuple(a + b for a, b in zip(self.coeffs[: n + 1], other.coeffs[: n + 1])),
            self.one,
        )

    def __neg__(self):
        return Series(tuple(Fraction(-1) * c for c in self.coeffs), self.one)

    def __sub__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Series):
            n = min(self.order, other.order)
            zero = self._zero()
            out = [zero] * (n + 1)
            for i, a in enumerate(self.coeffs[: n + 1]):
                for j in range(n + 1 - i):
                    out[i + j] = out[i + j] + a * other.coeffs[j]
            return Series(out, self.one)
        return Series(tuple(c * other for c in self.coeffs), self.one)

    def __rmul__(self, other):
        return Series(tuple(other * c for c in self.coeffs), self.one)

    def times_q(self) -> "Series":
        """Multiply by q: q F is known one order further than F."""
        return Series((self._zero(),) + self.coeffs, self.one)

    def map(self, func) -> "Series":
        """Apply a coefficientwise map (a lifted linear operator)."""
        return Series(tuple(func(c) for c in self.coeffs), self.one)

    def truncate(self, order: int) -> "Series":
        if order > self.order:
            raise DomainError("cannot extend a truncated series")
        return Series(self.coeffs[: order + 1], self.one)

    def __eq__(self, other):
        return isinstance(other, Series) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "Series(%s)" % ", ".join(
            f"q^{k}: {c!r}" for k, c in enumerate(self.coeffs)
        )


def _integral(x):
    """x, with an integral Fraction scalar stored as int: the scalar form of
    what the carriers do to their own coefficients, so that integral
    labeled scalars multiply on ints too."""
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


def _in_carrier(coeffs, one) -> list:
    """The coefficients as elements of the unit's carrier: a scalar
    coefficient of a carrier series is scaled onto the unit once here, so
    the recurrences can add a coefficient as it is."""
    if isinstance(one, (int, Fraction)):
        return list(coeffs)
    return [c * one if isinstance(c, (int, Fraction)) else c for c in coeffs]


def exp(series: Series, feedback=None) -> Series:
    """exp of a series f with zero constant term, over a commutative
    carrier, from the labeled form of the recurrence of E' = f' E.  On the
    labeled coefficients e_n = n! E_n and g_k = k! f_k it reads

        e_0 = 1,  e_n = sum_{k=1..n} C(n-1, k-1) g_k e_(n-k),

    the exponential formula for labeled structures: no step divides, and
    E_n = e_n / n! is scaled once per coefficient.  The weights
    C(n-1, k-1) go to the linear-combination kernel with the products
    g_k e_(n-k), so g_k is never copied to scale it.  Where f has integral
    labeled coefficients, as the tree generating functions do, every
    carrier product and sum runs on integers.

    With `feedback`, a linear map X on the carrier, returns the E with
    E = exp(f + q X(E)) through q^order: the same recurrence, with
    g_n = n! (f_n + X(E_(n-1))) at step n, the first step that needs it.
    X is called once per step, on E_0 .. E_(order-1) in turn, so a caller
    can record its values, and f_n is added to its value only when it is
    not zero, so a zero series, as the U recurrences pass, costs no copy.

    A scalar coefficient of a carrier series is taken as that multiple
    of the unit.  Costs N(N-1)/2 carrier products at order N, plus N calls
    of X and N one-pass sums: the k = n term is g_n itself, since e_0 is
    the unit."""
    if is_noncommutative(series.one):
        raise DomainError("exp needs a commutative coefficient algebra")
    zero = series._zero()
    if series.coeffs[0] != zero:
        raise DomainError("exp needs a zero constant term")
    coeffs = _in_carrier(series.coeffs, series.one)
    labeled = [_integral(factorial(k) * c) for k, c in enumerate(coeffs)]
    e = [_integral(series.one)]
    out = [series.one]
    for n in range(1, series.order + 1):
        if feedback is not None:
            fed = feedback(out[n - 1])
            if coeffs[n] != zero:
                fed = fed + coeffs[n]
            labeled[n] = _integral(factorial(n) * fed)
        # k = n meets e_0, the unit: C(n-1, n-1) g_n e_0 is g_n
        pairs = [(comb(n - 1, k - 1), labeled[k] * e[n - k]) for k in range(1, n)]
        pairs.append((1, labeled[n]))
        total = linear_combination(pairs, series.one)
        e.append(_integral(total))
        out.append(Fraction(1, factorial(n)) * total)
    return Series(out, series.one)


def geometric_inverse(series: Series, feedback=None) -> Series:
    """1/(1 - f) for a series f with zero constant term, from the
    coefficient recurrence of G = 1 + f G:

        G_0 = 1,  G_n = sum_{k=1..n} f_k G_(n-k).

    Each f_k multiplies from the left, so this holds over noncommutative
    carriers too.

    With `feedback`, a linear map X on the carrier, returns the G with
    G = 1/(1 - f - q X(G)) through q^order: the same recurrence, with
    f_n + X(G_(n-1)) in place of f_n from step n, the first step that
    needs it.  As in `exp`, X is called once per step, on G_0 ..
    G_(order-1) in turn, so a caller can record its values, and a zero
    f_n is not added.

    Each G_n is one call of `algebra.sum_of_products` on its n pairs
    (f_k, G_(n-k)): the word carriers, which the planar recurrence runs
    on, concatenate the keys of every pair straight into one accumulator
    and reduce once, and other carriers multiply each pair and sum.

    A scalar coefficient of a carrier series is taken as that multiple
    of the unit.  Costs N(N-1)/2 carrier products at order N, plus N calls
    of X: the other N of the N(N+1)/2 pairs meet G_0, the unit, which on
    the word carriers only adds f_n's terms into the sum."""
    zero = series._zero()
    if series.coeffs[0] != zero:
        raise DomainError("geometric inverse needs a zero constant term")
    f = _in_carrier(series.coeffs, series.one)
    out = [series.one]
    for n in range(1, series.order + 1):
        if feedback is not None:
            fed = feedback(out[n - 1])
            if f[n] != zero:
                fed = fed + f[n]
            f[n] = fed
        out.append(sum_of_products([(f[k], out[n - k]) for k in range(1, n + 1)], series.one))
    return Series(out, series.one)
