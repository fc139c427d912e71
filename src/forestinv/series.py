"""Truncated formal power series in q over an exact coefficient algebra.

A Series stores coefficients for q^0 .. q^order plus the unit of the
coefficient algebra, so zeros and units can be manufactured without
knowing the carrier type.  Coefficients only need +, - and * with
rational scalars; noncommutative carriers are fine everywhere except
`exp`, which refuses them.  `exp` and `geometric_inverse` solve
coefficient recurrences; the power sums they replaced live in `oracles`
as test references.
"""

from __future__ import annotations

from fractions import Fraction

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
        """Multiply by q, keeping the truncation order fixed."""
        return Series((self._zero(),) + self.coeffs[:-1], self.one)

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


def tail_sum(f, g):
    """Sum of f[k] * g[n - k] for k = 1 .. n, where n = len(g): the
    q^n coefficient of (f - f_0) * g, with g known through q^(n-1).

    One step of the recurrences below; a build that learns f one
    coefficient at a time can run them itself, one step per term."""
    n = len(g)
    total = f[1] * g[n - 1]
    for k in range(2, n + 1):
        total = total + f[k] * g[n - k]
    return total


def exp(series: Series) -> Series:
    """exp of a series f with zero constant term, over a commutative
    carrier, from the coefficient recurrence of E' = f' E:

        E_0 = 1,  n E_n = sum_{k=1..n} k f_k E_(n-k).

    Costs N(N+1)/2 carrier products at order N."""
    if is_noncommutative(series.one):
        raise DomainError("exp needs a commutative coefficient algebra")
    if series.coeffs[0] != series._zero():
        raise DomainError("exp needs a zero constant term")
    scaled = [k * c for k, c in enumerate(series.coeffs)]
    out = [series.one]
    for n in range(1, series.order + 1):
        out.append(Fraction(1, n) * tail_sum(scaled, out))
    return Series(out, series.one)


def geometric_inverse(series: Series) -> Series:
    """1/(1 - f) for a series f with zero constant term, from the
    coefficient recurrence of G = 1 + f G:

        G_0 = 1,  G_n = sum_{k=1..n} f_k G_(n-k).

    Each f_k multiplies from the left, so this holds over noncommutative
    carriers too.  Costs N(N+1)/2 carrier products at order N."""
    if series.coeffs[0] != series._zero():
        raise DomainError("geometric inverse needs a zero constant term")
    out = [series.one]
    for _ in range(series.order):
        out.append(tail_sum(series.coeffs, out))
    return Series(out, series.one)
