"""Exact arithmetic carriers for tree invariants.

Two commutative algebras over the rationals live here: dense univariate
polynomials in t and quasi-symmetric elements written in the monomial
composition basis.  A quasi-symmetric term is keyed by the code of its
composition, one character per part whose code point is the part, made
by `code` and read back by `parts`, the only encoder and decoder: a str
caches its hash, so the products, prepends and renders that look a key
up again and again never re-hash it, and codes sort like the tuples.
Arithmetic is exact and runs on Python ints wherever
it can: a polynomial is integer numerators over one common denominator,
and the dict carriers (here and in `words`) store integral coefficients
as int and the rest as `fractions.Fraction`, all through the one coercion
`rat`.  Their constructor and linear-space arithmetic live once, in
`TermCarrier`.  A quasi-symmetric product clears each operand's
denominators once, runs the quasi-shuffle accumulation on integer
numerators and divides once per output term; the product commutes, so
the operand with more terms runs outside and goes first into the
memoized `quasi_shuffle`, whose table then holds a pair of compositions
of a mixed-size product in one orientation only.  No carrier truncates:
every product keeps every term.  A sum of many weighted values, such as
a series coefficient or a tree sum, goes through one carrier kernel,
`linear_combination`, which accumulates every term into one integer
list or dict over one common denominator and normalizes once; the
module function of that name picks the kernel from the unit, and scalars
just add.  `product` multiplies values left to right starting from the
first, so no product has the unit as an operand.
There is no floating point anywhere in the package.
"""

from __future__ import annotations

import sys
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


def linear_combination(pairs, one):
    """The sum of c * x over the (weight, element) pairs, in the algebra
    whose unit is `one`; no pairs give its zero.  A carrier with its own
    one-pass kernel, `linear_combination`, sums through it; scalars and
    other carriers sum c * x with +."""
    kernel = getattr(type(one), "linear_combination", None)
    if kernel is not None:
        return kernel(pairs)
    return sum((c * x for c, x in pairs), Fraction(0) * one)


def product(values, one):
    """The ordered product of the values, left to right, or `one` when
    there are none; the unit is never an operand."""
    values = iter(values)
    out = next(values, one)
    for value in values:
        out = out * value
    return out


def _weight(c):
    """A linear-combination weight as its numerator and denominator."""
    if type(c) is not int:
        c = rat(c)
    return c.numerator, c.denominator


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
    def linear_combination(cls, pairs) -> "Polynomial":
        """The sum of c * p over (weight, polynomial) pairs in one pass:
        every term lands in one integer list over one common denominator,
        rescaled to the lcm when a new denominator comes, and the result
        is reduced once."""
        acc, den = [], 1
        for c, p in pairs:
            if type(p) is not cls:
                raise TypeError(f"not a polynomial: {p!r}")
            num, c_den = _weight(c)
            if not num or not p.numerators:
                continue
            term_den = c_den * p.denominator
            if den % term_den:
                grown = lcm(den, term_den)
                acc = [n * (grown // den) for n in acc]
                den = grown
            scale = num * (den // term_den)
            if len(acc) < len(p.numerators):
                acc.extend([0] * (len(p.numerators) - len(acc)))
            for i, n in enumerate(p.numerators):
                acc[i] += scale * n
        return cls.from_numerators(acc, den)

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


# Largest part a composition may have: its code point in a key code.
MAX_PART = sys.maxunicode


def code(composition) -> str:
    """The key code of a composition: one character per part, with the
    part as its code point; the empty composition gives "", the unit.
    Code points compare like ints and a prefix sorts first, so codes sort
    exactly like the tuples they encode."""
    composition = tuple(composition)
    if not all(isinstance(part, int) and 1 <= part <= MAX_PART for part in composition):
        raise DomainError(
            f"composition parts must be positive integers up to {MAX_PART}: {composition}"
        )
    return "".join(map(chr, composition))


def parts(key: str) -> tuple:
    """The composition a key code encodes, as a tuple of ints."""
    return tuple(map(ord, key))


@lru_cache(maxsize=None)
def quasi_shuffle(a: str, b: str):
    """Overlapping shuffles of two composition codes, with multiplicities.

    Each step either takes the head of one argument or merges both heads
    into their sum; this is the structure constant table of the monomial
    basis product.  The pairs come in no fixed order.
    """
    if not a:
        return ((b, 1),)
    if not b:
        return ((a, 1),)
    head_a, rest_a, head_b, rest_b = a[0], a[1:], b[0], b[1:]
    try:
        merged = chr(ord(head_a) + ord(head_b))
    except ValueError:
        raise DomainError(f"merged composition part is above {MAX_PART}") from None
    acc = {}
    get = acc.get
    for comp, m in quasi_shuffle(rest_a, b):
        comp = head_a + comp
        acc[comp] = get(comp, 0) + m
    for comp, m in quasi_shuffle(a, rest_b):
        comp = head_b + comp
        acc[comp] = get(comp, 0) + m
    for comp, m in quasi_shuffle(rest_a, rest_b):
        comp = merged + comp
        acc[comp] = get(comp, 0) + m
    return tuple(acc.items())


class TermCarrier:
    """A rational combination of basis keys: the linear-space arithmetic
    shared by `QSym` and the word algebras.

    `terms` maps each key to its non-zero coefficient, an int when
    integral and a Fraction otherwise.  Each subclass supplies its key
    check `_checked_key` (the key it stores, or `DomainError`), the
    product and the repr.  Elements of different carriers never compare
    equal, add or multiply.  No carrier truncates: a tree's value is
    homogeneous of degree its vertex count, so a generating function cut
    at q^N is already bounded in every degree.

    Keys are checked once, where outside data comes in: the public
    constructor checks every key and coerces every coefficient.  Sums,
    negation, scalar products and products of valid elements build their
    result through the trusted `_from_valid_terms`, which only drops zero
    coefficients and stores integral Fractions as int.
    """

    __slots__ = ("terms",)

    # read by `series.is_noncommutative`; exp refuses noncommutative carriers
    noncommutative = False

    def __init__(self, terms):
        clean = {}
        for key, coeff in terms.items():
            key = self._checked_key(key)
            coeff = rat(coeff)
            if coeff != 0:
                clean[key] = coeff
        self.terms = clean

    @classmethod
    def _from_valid_terms(cls, terms):
        """The element with these terms, trusted to be valid keys with
        exact coefficients; only zeros and integral Fractions are cleaned
        up."""
        out = object.__new__(cls)
        out.terms = _exact_nonzero(terms)
        return out

    @classmethod
    def linear_combination(cls, pairs):
        """The sum of c * x over (weight, element) pairs in one pass: every
        term lands in one dict of integer numerators over one common
        denominator, rescaled to the lcm when a new denominator comes, and
        the result is divided and cleaned up once.  Int weights on
        int-only elements give int-only terms."""
        acc, den = {}, 1
        for c, x in pairs:
            if type(x) is not cls:
                raise TypeError(f"not a {cls.__name__}: {x!r}")
            num, c_den = _weight(c)
            if not num:
                continue
            nums, x_den = _numerators(x.terms)
            term_den = c_den * x_den
            if den % term_den:
                grown = lcm(den, term_den)
                acc = {key: v * (grown // den) for key, v in acc.items()}
                den = grown
            scale = num * (den // term_den)
            get = acc.get
            for key, v in nums.items():
                acc[key] = get(key, 0) + scale * v
        if den != 1:
            acc = {key: Fraction(v, den) for key, v in acc.items()}
        return cls._from_valid_terms(acc)

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def one(cls):
        """The unit, the empty key."""
        return cls({(): 1})

    def one_like(self):
        """The unit of this carrier, keyed by its own empty key."""
        return self._from_valid_terms({self._checked_key(()): 1})

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

    `terms` maps the code of a composition (a_1, ..., a_r) of positive
    integers, `code((a_1, ..., a_r))`, to its rational coefficient; the
    empty code "" is the unit.  Keys come in as tuples, through the
    constructor, `monomial` and `one`, and are encoded there; they go out
    as tuples through `parts`, in `homogeneous_degree`, the repr and the
    render.
    """

    __slots__ = ()

    _checked_key = staticmethod(code)

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
        degrees = {sum(parts(key)) for key in self.terms}
        return degrees.pop() if len(degrees) == 1 else None

    def __mul__(self, other):
        if isinstance(other, QSym):
            # the product commutes: the operand with more terms goes outside
            # and first into each quasi-shuffle, so the pair table holds one
            # orientation of every mixed-size pair
            a, b = self.terms, other.terms
            if len(a) < len(b):
                a, b = b, a
            nums_a, den_a = _numerators(a)
            nums_b, den_b = _numerators(b)
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
        shown = []
        for key in sorted(self.terms):
            coeff = self.terms[key]
            label = "M(%s)" % ",".join(map(str, parts(key))) if key else "1"
            shown.append(label if coeff == 1 and key else f"{coeff}*{label}")
        return "QSym(%s)" % " + ".join(shown)


def principal_specialization(element: QSym, m: int) -> Fraction:
    """Value after setting x_1 = ... = x_m = 1 and the rest to zero.

    A monomial term indexed by a length-r composition, whose code has r
    characters, contributes one for each of the C(m, r) increasing index
    choices.
    """
    if m < 0:
        raise DomainError("need m >= 0")
    total = Fraction(0)
    for comp, coeff in element.terms.items():
        total += coeff * comb(m, len(comp))
    return total

