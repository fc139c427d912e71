"""Exact arithmetic carriers for tree invariants.

Three commutative algebras over the rationals live here: dense univariate
polynomials in t, quasi-symmetric elements written in the monomial
composition basis, and a finite-variable polynomial model used as an
independent oracle for the quasi-symmetric layer.  All coefficients are
`fractions.Fraction`; there is no floating point anywhere in the package.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .errors import DomainError

Rational = Fraction


def rat(x) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise DomainError(f"not an exact scalar: {x!r}")


def _merge_bounds(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _fits(size, bound):
    return bound is None or size <= bound


def one_like(x):
    """Multiplicative unit of the algebra that x belongs to."""
    if isinstance(x, (Fraction, int)):
        return Fraction(1)
    return x.one_like()


class Polynomial:
    """Dense univariate polynomial in t with rational coefficients.

    Coefficients are stored ascending with no trailing zeros, so equal
    polynomials have equal tuples; the zero polynomial stores ().
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def t(cls):
        return cls((0, 1))

    def one_like(self):
        return Polynomial.one()

    def zero_like(self):
        return Polynomial.zero()

    @property
    def degree(self) -> int:
        # zero reports degree -1
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        merged = list(a)
        for i, c in enumerate(b):
            merged[i] += c
        return Polynomial(merged)

    def __neg__(self):
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero() or other.is_zero():
                return Polynomial()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Polynomial(out)
        return Polynomial(tuple(rat(other) * c for c in self.coeffs))

    def __rmul__(self, other):
        return Polynomial(tuple(rat(other) * c for c in self.coeffs))

    def __call__(self, x) -> Fraction:
        value = Fraction(0)
        for c in reversed(self.coeffs):
            value = value * rat(x) + c
        return value

    def shift(self, c) -> "Polynomial":
        """The polynomial f(t + c), computed exactly by Horner steps."""
        shifted_t = Polynomial((rat(c), Fraction(1)))
        out = Polynomial()
        for a in reversed(self.coeffs):
            out = out * shifted_t + Polynomial((a,))
        return out

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero():
            return "Polynomial(0)"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*t" if c != 1 else "t")
            else:
                parts.append(f"{c}*t^{k}" if c != 1 else f"t^{k}")
        return "Polynomial(%s)" % " + ".join(parts)


@lru_cache(maxsize=None)
def binomial_basis(k: int) -> Polynomial:
    """The falling binomial C(t, k) = t(t-1)...(t-k+1)/k! as an exact
    polynomial; the degree-k element of the Newton basis."""
    if k < 0:
        raise DomainError("binomial basis needs k >= 0")
    p = Polynomial.one()
    for i in range(k):
        p = p * Polynomial((-i, 1))
    return p * Fraction(1, factorial(k))


def to_newton(poly: Polynomial) -> list[Fraction]:
    """Coefficients c_k with poly = sum of c_k * C(t, k).

    c_k is the k-th forward difference of the polynomial at 0, read off a
    difference table of the values at 0, 1, ..., degree.
    """
    values = [poly(i) for i in range(poly.degree + 1)]
    out = []
    while values:
        out.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    return out


def from_newton(cs) -> Polynomial:
    """Rebuild a polynomial from Newton basis coefficients."""
    out = Polynomial()
    for k, c in enumerate(cs):
        out = out + rat(c) * binomial_basis(k)
    return out


Composition = tuple


@lru_cache(maxsize=None)
def quasi_shuffle(a: Composition, b: Composition):
    """Overlapping shuffles of two compositions, with multiplicities.

    Each step either takes the head of one argument or merges both heads
    into their sum; this is the structure constant table of the monomial
    basis product.
    """
    if not a:
        return ((b, 1),)
    if not b:
        return ((a, 1),)
    acc = Counter()
    for comp, m in quasi_shuffle(a[1:], b):
        acc[(a[0],) + comp] += m
    for comp, m in quasi_shuffle(a, b[1:]):
        acc[(b[0],) + comp] += m
    for comp, m in quasi_shuffle(a[1:], b[1:]):
        acc[(a[0] + b[0],) + comp] += m
    return tuple(sorted(acc.items()))


class QSym:
    """Quasi-symmetric element in the monomial composition basis, graded
    by total degree and truncated above `max_degree`.

    `terms` maps a composition (a_1, ..., a_r) of positive integers to its
    rational coefficient; the empty composition () is the unit.  Every
    operation drops terms whose degree exceeds the bound, and an operation
    on operands with different bounds truncates to the smaller one.  A
    bound of None means unbounded.  Equality compares terms only; the
    bound is bookkeeping, not identity.
    """

    __slots__ = ("terms", "max_degree")

    def __init__(self, terms, max_degree: int | None):
        if max_degree is not None and max_degree < 0:
            raise DomainError("truncation bound must be non-negative")
        clean = {}
        for comp, coeff in terms.items():
            comp = tuple(comp)
            if any(part < 1 for part in comp):
                raise DomainError(f"composition parts must be positive: {comp}")
            coeff = rat(coeff)
            if coeff != 0 and _fits(sum(comp), max_degree):
                clean[comp] = coeff
        self.terms = clean
        self.max_degree = max_degree

    @classmethod
    def zero(cls, max_degree: int | None):
        return cls({}, max_degree)

    @classmethod
    def one(cls, max_degree: int | None):
        return cls({(): Fraction(1)}, max_degree)

    @classmethod
    def monomial(cls, composition, max_degree=None):
        composition = tuple(composition)
        if max_degree is None:
            max_degree = sum(composition)
        return cls({composition: Fraction(1)}, max_degree)

    def one_like(self):
        return QSym.one(self.max_degree)

    def zero_like(self):
        return QSym.zero(self.max_degree)

    def is_zero(self) -> bool:
        return not self.terms

    def homogeneous_degree(self):
        """The common degree of all terms, or None if mixed or zero."""
        degrees = {sum(comp) for comp in self.terms}
        return degrees.pop() if len(degrees) == 1 else None

    def __add__(self, other):
        if not isinstance(other, QSym):
            return NotImplemented
        bound = _merge_bounds(self.max_degree, other.max_degree)
        merged = dict(self.terms)
        for comp, coeff in other.terms.items():
            merged[comp] = merged.get(comp, Fraction(0)) + coeff
        return QSym(merged, bound)

    def __neg__(self):
        return QSym({c: -v for c, v in self.terms.items()}, self.max_degree)

    def __sub__(self, other):
        if not isinstance(other, QSym):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, QSym):
            bound = _merge_bounds(self.max_degree, other.max_degree)
            out = {}
            for ca, va in self.terms.items():
                deg_a = sum(ca)
                for cb, vb in other.terms.items():
                    if bound is not None and deg_a + sum(cb) > bound:
                        continue
                    v = va * vb
                    for comp, m in quasi_shuffle(ca, cb):
                        out[comp] = out.get(comp, Fraction(0)) + m * v
            return QSym(out, bound)
        scalar = rat(other)
        return QSym({c: scalar * v for c, v in self.terms.items()}, self.max_degree)

    def __rmul__(self, other):
        scalar = rat(other)
        return QSym({c: scalar * v for c, v in self.terms.items()}, self.max_degree)

    def __eq__(self, other):
        return isinstance(other, QSym) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "QSym(0)"
        parts = []
        for comp in sorted(self.terms):
            coeff = self.terms[comp]
            label = "1" if comp == () else "M(%s)" % ",".join(map(str, comp))
            parts.append(label if coeff == 1 and comp != () else f"{coeff}*{label}")
        return "QSym(%s)" % " + ".join(parts)


def principal_specialization(element: QSym, m: int) -> Fraction:
    """Value after setting x_1 = ... = x_m = 1 and the rest to zero.

    A monomial term indexed by a length-r composition contributes one for
    each of the C(m, r) increasing index choices.
    """
    if m < 0:
        raise DomainError("need m >= 0")
    total = Fraction(0)
    for comp, coeff in element.terms.items():
        total += coeff * comb(m, len(comp))
    return total


class FiniteVarPoly:
    """Polynomial in x_1 .. x_num_vars, total degree capped at max_degree.

    Terms map full-length exponent tuples to rational coefficients.  This
    is the concrete model the quasi-symmetric layer is checked against;
    the index-shift substitution x_i -> x_{i+1} (monomials using the last
    variable are pushed out to zero) lives here as .shifted().
    """

    __slots__ = ("terms", "num_vars", "max_degree")

    def __init__(self, terms, num_vars: int, max_degree: int):
        if num_vars < 1:
            raise DomainError("need at least one variable")
        if max_degree < 0:
            raise DomainError("truncation bound must be non-negative")
        clean = {}
        for expo, coeff in terms.items():
            expo = tuple(expo)
            if len(expo) != num_vars or any(e < 0 for e in expo):
                raise DomainError(f"bad exponent tuple: {expo}")
            coeff = rat(coeff)
            if coeff != 0 and sum(expo) <= max_degree:
                clean[expo] = coeff
        self.terms = clean
        self.num_vars = num_vars
        self.max_degree = max_degree

    @classmethod
    def zero(cls, num_vars: int, max_degree: int):
        return cls({}, num_vars, max_degree)

    @classmethod
    def one(cls, num_vars: int, max_degree: int):
        return cls({(0,) * num_vars: Fraction(1)}, num_vars, max_degree)

    @classmethod
    def variable(cls, index: int, num_vars: int, max_degree: int):
        """The generator x_index, 1-based."""
        if not 1 <= index <= num_vars:
            raise DomainError(f"variable index {index} outside 1..{num_vars}")
        expo = [0] * num_vars
        expo[index - 1] = 1
        return cls({tuple(expo): Fraction(1)}, num_vars, max_degree)

    def one_like(self):
        return FiniteVarPoly.one(self.num_vars, self.max_degree)

    def zero_like(self):
        return FiniteVarPoly.zero(self.num_vars, self.max_degree)

    def is_zero(self) -> bool:
        return not self.terms

    def _check_vars(self, other):
        if self.num_vars != other.num_vars:
            raise DomainError("mixed variable counts")

    def __add__(self, other):
        if not isinstance(other, FiniteVarPoly):
            return NotImplemented
        self._check_vars(other)
        bound = min(self.max_degree, other.max_degree)
        merged = dict(self.terms)
        for expo, coeff in other.terms.items():
            merged[expo] = merged.get(expo, Fraction(0)) + coeff
        return FiniteVarPoly(merged, self.num_vars, bound)

    def __neg__(self):
        return FiniteVarPoly(
            {e: -v for e, v in self.terms.items()}, self.num_vars, self.max_degree
        )

    def __sub__(self, other):
        if not isinstance(other, FiniteVarPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, FiniteVarPoly):
            self._check_vars(other)
            bound = min(self.max_degree, other.max_degree)
            out = {}
            for ea, va in self.terms.items():
                for eb, vb in other.terms.items():
                    expo = tuple(x + y for x, y in zip(ea, eb))
                    if sum(expo) > bound:
                        continue
                    out[expo] = out.get(expo, Fraction(0)) + va * vb
            return FiniteVarPoly(out, self.num_vars, bound)
        scalar = rat(other)
        return FiniteVarPoly(
            {e: scalar * v for e, v in self.terms.items()}, self.num_vars, self.max_degree
        )

    def __rmul__(self, other):
        scalar = rat(other)
        return FiniteVarPoly(
            {e: scalar * v for e, v in self.terms.items()}, self.num_vars, self.max_degree
        )

    def shifted(self) -> "FiniteVarPoly":
        """Substitute x_i -> x_{i+1}; monomials using x_num_vars vanish."""
        out = {}
        for expo, coeff in self.terms.items():
            if expo[-1] != 0:
                continue
            out[(0,) + expo[:-1]] = coeff
        return FiniteVarPoly(out, self.num_vars, self.max_degree)

    def max_index(self) -> int:
        """Largest variable index actually used; 0 for constants."""
        best = 0
        for expo in self.terms:
            for i in range(self.num_vars - 1, -1, -1):
                if expo[i]:
                    best = max(best, i + 1)
                    break
        return best

    def restrict_indices(self, j: int) -> "FiniteVarPoly":
        """Keep only monomials whose variables all have index <= j."""
        out = {
            expo: coeff
            for expo, coeff in self.terms.items()
            if all(e == 0 for e in expo[j:])
        }
        return FiniteVarPoly(out, self.num_vars, self.max_degree)

    def __eq__(self, other):
        return isinstance(other, FiniteVarPoly) and (
            self.num_vars == other.num_vars and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.num_vars, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "FiniteVarPoly(0)"
        parts = []
        for expo in sorted(self.terms):
            coeff = self.terms[expo]
            factors = [
                f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                for i, e in enumerate(expo)
                if e
            ]
            body = "*".join(factors) if factors else "1"
            parts.append(body if coeff == 1 and factors else f"{coeff}*{body}")
        return "FiniteVarPoly(%s)" % " + ".join(parts)


def qsym_to_finite(element: QSym, num_vars: int, max_degree=None) -> FiniteVarPoly:
    """Expand a quasi-symmetric element in num_vars concrete variables.

    Each composition (a_1, ..., a_r) becomes the sum of the monomials
    x_{i_1}^{a_1} ... x_{i_r}^{a_r} over strictly increasing index tuples.
    The degree cap defaults to the element's bound, or to its highest
    degree when the element is unbounded.
    """
    highest = max((sum(c) for c in element.terms), default=0)
    if max_degree is None:
        max_degree = highest if element.max_degree is None else element.max_degree
    if max_degree < highest:
        raise DomainError("degree cap below the element's highest term")
    out = {}
    for comp, coeff in element.terms.items():
        r = len(comp)
        if r > num_vars:
            continue
        for spots in itertools.combinations(range(num_vars), r):
            expo = [0] * num_vars
            for spot, part in zip(spots, comp):
                expo[spot] = part
            key = tuple(expo)
            out[key] = out.get(key, Fraction(0)) + coeff
    return FiniteVarPoly(out, num_vars, max_degree)
