"""Exact arithmetic carriers for tree invariants.

Two commutative algebras over the rationals live here: dense univariate
polynomials in t and quasi-symmetric elements written in the monomial
composition basis.  Arithmetic is exact and runs on Python ints wherever
it can: a polynomial is integer numerators over one common denominator,
and the dict carriers (here and in `words`) store integral coefficients
as int and the rest as `fractions.Fraction`, all through the one coercion
`rat`.  Their linear-space arithmetic lives once, in `TermCarrier`.  A
quasi-symmetric product clears each operand's denominators once, runs the
quasi-shuffle accumulation on integer numerators and divides once per
output term.  No carrier truncates: every product keeps every term.
There is no floating point anywhere in the package.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm

from .errors import DomainError


def rat(x):
    """Coerce an int, Fraction, or "p/q" string to an exact scalar: an int
    when the value is integral, a Fraction otherwise.

    This is the one coefficient coercion of every carrier, so integral
    coefficients stay on Python int arithmetic.  An int and the equal
    Fraction compare, hash and print alike.
    """
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    if isinstance(x, str):
        return rat(Fraction(x))
    raise DomainError(f"not an exact scalar: {x!r}")


_INT_ONLY = frozenset((int,))


def _exact_nonzero(terms) -> dict:
    """The terms without zero coefficients, integral Fractions stored as
    int: the only clean-up a sum or product of valid terms needs.  A
    zero-free int-only dict comes back as it is, after two scans of its
    values, so callers pass a fresh dict that they own."""
    values = terms.values()
    if _INT_ONLY.issuperset(map(type, values)) and 0 not in values:
        return terms
    clean = {}
    for key, coeff in terms.items():
        if coeff:
            if type(coeff) is not int and coeff.denominator == 1:
                coeff = coeff.numerator
            clean[key] = coeff
    return clean


def _numerators(terms) -> tuple[dict, int]:
    """The terms as integer numerators over the lcm of their coefficients'
    denominators, and that lcm; int-only terms come back as they are,
    after one scan of the coefficient types."""
    if _INT_ONLY.issuperset(map(type, terms.values())):
        return terms, 1
    den = lcm(*(coeff.denominator for coeff in terms.values()))
    return {key: coeff.numerator * (den // coeff.denominator)
            for key, coeff in terms.items()}, den


def one_like(x):
    """Multiplicative unit of the algebra that x belongs to."""
    if isinstance(x, (Fraction, int)):
        return Fraction(1)
    return x.one_like()


class Polynomial:
    """Dense univariate polynomial in t with rational coefficients.

    The coefficients are integer numerators, ascending, over one positive
    common denominator, kept reduced: the gcd of the denominator and all
    numerators is 1 and there is no trailing zero, so equal polynomials
    have equal representations.  The zero polynomial is ((), 1).  All
    arithmetic runs on Python ints; `coeffs` gives the coefficients as
    Fractions.
    """

    __slots__ = ("numerators", "denominator")

    def __init__(self, coeffs=()):
        cs = [rat(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        # the lcm of reduced denominators leaves the numerators coprime to it
        nums = [c.numerator * (den // c.denominator) for c in cs]
        while nums and not nums[-1]:
            nums.pop()
        self.numerators = tuple(nums)
        self.denominator = den

    @classmethod
    def from_numerators(cls, numerators, denominator: int) -> "Polynomial":
        """The polynomial with coefficients numerators[k] / denominator,
        brought to reduced form; all are ints, the denominator non-zero."""
        nums = list(numerators)
        while nums and not nums[-1]:
            nums.pop()
        if not nums:
            denominator = 1
        else:
            if denominator < 0:
                nums = [-n for n in nums]
                denominator = -denominator
            if denominator != 1:
                g = gcd(denominator, *nums)
                if g != 1:
                    nums = [n // g for n in nums]
                    denominator //= g
        out = object.__new__(cls)
        out.numerators = tuple(nums)
        out.denominator = denominator
        return out

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
    def coeffs(self) -> tuple:
        """The coefficients as Fractions, ascending, no trailing zeros."""
        den = self.denominator
        return tuple(Fraction(n, den) for n in self.numerators)

    @property
    def degree(self) -> int:
        # zero reports degree -1
        return len(self.numerators) - 1

    def is_zero(self) -> bool:
        return not self.numerators

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.numerators):
            return Fraction(self.numerators[k], self.denominator)
        return Fraction(0)

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.numerators, other.numerators
        den, other_den = self.denominator, other.denominator
        if den != other_den:
            g = gcd(den, other_den)
            a = [n * (other_den // g) for n in a]
            b = [n * (den // g) for n in b]
            den = den // g * other_den
        if len(a) < len(b):
            a, b = b, a
        merged = list(a)
        for i, n in enumerate(b):
            merged[i] += n
        return Polynomial.from_numerators(merged, den)

    def __neg__(self):
        return Polynomial.from_numerators([-n for n in self.numerators], self.denominator)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            a, b = self.numerators, other.numerators
            if not a or not b:
                return Polynomial()
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b, i):
                        out[j] += x * y
            return Polynomial.from_numerators(out, self.denominator * other.denominator)
        return self._scaled(other)

    def __rmul__(self, other):
        return self._scaled(other)

    def _scaled(self, other) -> "Polynomial":
        if isinstance(other, TermCarrier):
            return NotImplemented
        c = rat(other)
        return Polynomial.from_numerators(
            [c.numerator * n for n in self.numerators], c.denominator * self.denominator
        )

    def __call__(self, x) -> Fraction:
        nums = self.numerators
        if not nums:
            return Fraction(0)
        x = rat(x)
        p, q = x.numerator, x.denominator
        # Horner on numerators: the value is total / (denominator * q^degree)
        total, scale = nums[-1], 1
        for n in nums[-2::-1]:
            scale *= q
            total = total * p + n * scale
        return Fraction(total, self.denominator * scale)

    def shift(self, c) -> "Polynomial":
        """The polynomial f(t + c), computed exactly by Horner steps."""
        shifted_t = Polynomial((c, 1))
        out = Polynomial()
        for a in reversed(self.coeffs):
            out = out * shifted_t + Polynomial((a,))
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.denominator == other.denominator
            and self.numerators == other.numerators
        )

    def __hash__(self):
        return hash((self.numerators, self.denominator))

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


class TermCarrier:
    """A rational combination of basis keys: the linear-space arithmetic
    shared by `QSym` and the word algebras.

    `terms` maps each key to its non-zero coefficient, an int when
    integral and a Fraction otherwise.  Each subclass supplies the public
    constructor, the product and the repr.  Elements of different
    carriers never compare equal, add or multiply.  No carrier truncates:
    a tree's value is homogeneous of degree its vertex count, so a
    generating function cut at q^N is already bounded in every degree.

    Keys are checked once, where outside data comes in: the public
    constructors check every key and coerce every coefficient.  Sums,
    negation, scalar products and products of valid elements build their
    result through the trusted `_from_valid_terms`, which only drops zero
    coefficients and stores integral Fractions as int.
    """

    __slots__ = ("terms",)

    # read by `series.is_noncommutative`; exp refuses noncommutative carriers
    noncommutative = False

    @classmethod
    def _from_valid_terms(cls, terms):
        """The element with these terms, trusted to be valid keys with
        exact coefficients; only zeros and integral Fractions are cleaned
        up."""
        out = object.__new__(cls)
        out.terms = _exact_nonzero(terms)
        return out

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def one(cls):
        """The unit, the empty key."""
        return cls({(): 1})

    def one_like(self):
        return self._from_valid_terms({(): 1})

    def zero_like(self):
        return self._from_valid_terms({})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        merged = dict(self.terms)
        for key, coeff in other.terms.items():
            merged[key] = merged.get(key, 0) + coeff
        return self._from_valid_terms(merged)

    def __neg__(self):
        return self._from_valid_terms({key: -coeff for key, coeff in self.terms.items()})

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def _scaled(self, other):
        """The element times a scalar; another carrier is no scalar."""
        if isinstance(other, (TermCarrier, Polynomial)):
            return NotImplemented
        scalar = rat(other)
        return self._from_valid_terms(
            {key: scalar * coeff for key, coeff in self.terms.items()}
        )

    __rmul__ = _scaled

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))


class QSym(TermCarrier):
    """Quasi-symmetric element in the monomial composition basis, graded
    by total degree.

    `terms` maps a composition (a_1, ..., a_r) of positive integers to its
    rational coefficient; the empty composition () is the unit.
    """

    __slots__ = ()

    def __init__(self, terms):
        clean = {}
        for comp, coeff in terms.items():
            comp = tuple(comp)
            if any(part < 1 for part in comp):
                raise DomainError(f"composition parts must be positive: {comp}")
            coeff = rat(coeff)
            if coeff != 0:
                clean[comp] = coeff
        self.terms = clean

    @classmethod
    def monomial(cls, composition, max_degree: int | None = None):
        """M_composition; refuses a composition of degree above
        max_degree, when one is given."""
        composition = tuple(composition)
        if max_degree is not None and sum(composition) > max_degree:
            raise DomainError(
                f"composition {composition} has degree above {max_degree}"
            )
        return cls({composition: 1})

    def homogeneous_degree(self):
        """The common degree of all terms, or None if mixed or zero."""
        degrees = {sum(comp) for comp in self.terms}
        return degrees.pop() if len(degrees) == 1 else None

    def __mul__(self, other):
        if isinstance(other, QSym):
            nums_a, den_a = _numerators(self.terms)
            nums_b, den_b = _numerators(other.terms)
            out = {}
            for ca, va in nums_a.items():
                for cb, vb in nums_b.items():
                    v = va * vb
                    for comp, m in quasi_shuffle(ca, cb):
                        out[comp] = out.get(comp, 0) + m * v
            den = den_a * den_b
            if den != 1:
                out = {comp: Fraction(v, den) for comp, v in out.items()}
            return QSym._from_valid_terms(out)
        return self._scaled(other)

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

