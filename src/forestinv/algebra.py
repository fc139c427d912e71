"""Exact arithmetic carriers for tree invariants.

Two commutative algebras over the rationals live here: dense univariate
polynomials in t and quasi-symmetric elements written in the monomial
composition basis.  A quasi-symmetric term is keyed by the code of its
composition, one character per part whose code point is the part, made
by `code` and read back by `parts`, the only encoder and decoder: a str
caches its hash, so the products, prepends and renders that look a key
up again and again never re-hash it, and codes sort like the tuples.

Every carrier, here and in `words`, stores one exact form: integer
numerators over one positive denominator, kept reduced, so all its
arithmetic runs on Python ints.  `rat`, the one coefficient coercion,
brings outside coefficients in at the public constructors, after which
`_cleared` puts them over one denominator; reprs and renders write each
coefficient from its numerator with `ratio_text`, and Fractions come
back only in the `coeffs` and `terms` views.  A polynomial's values at
t = 0 .. N, on which `engine` walks the order polynomials, are plain int
tuples there, read back here by `Polynomial.from_values`.  Every
carrier's +, -, scaling and equality live once, in `_LinearSpace`, and
the dict carriers' constructor once, in `TermCarrier`.  A product multiplies
numerators and the two denominators; a quasi-symmetric product
commutes, so the operand with more terms runs outside and goes first
into the memoized `quasi_shuffle`, whose table then holds a pair of
compositions of a mixed-size product in one orientation only.  No
carrier truncates: every product keeps every term.

A sum of weighted values, such as a series coefficient or a tree sum,
goes through one carrier kernel, `linear_combination`, which
accumulates every term into one integer list or dict over one common
denominator and reduces once.  The module function of that name picks
the kernel from the unit, and scalars just add.  A sum of products,
such as a geometric-inverse coefficient, goes through
`sum_of_products`, which picks the word carriers' one-pass kernel in the
same way and otherwise multiplies each pair and sums.  A scalar multiple
is one pass over the numerators.  `product` multiplies values left to
right starting from the first, and x ** m, for an int m >= 1, is m - 1
products from x, so no product has the unit as an operand.  A one-term,
one-part quasi-symmetric element c M_(h) takes its power in closed form
instead, by the multinomial theorem (Hoffman, "Quasi-shuffle products",
J. Algebraic Combin. 11 (2000)): no product and no quasi-shuffle, so a
vertex's run of leaves, whose value is M_(1), leaves nothing in the pair
table.  There is no floating point anywhere in the package.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm

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


def sum_of_products(pairs, one):
    """The sum of a * b over the (left, right) operand pairs, in the
    algebra whose unit is `one`; no pairs give its zero.  A carrier with
    its own one-pass kernel, `sum_of_products`, sums through it; scalars
    and other carriers multiply each pair and sum the products through
    `linear_combination`."""
    kernel = getattr(type(one), "sum_of_products", None)
    if kernel is not None:
        return kernel(pairs)
    return linear_combination([(1, a * b) for a, b in pairs], one)


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


def _cleared(coeffs: list):
    """Exact coefficients from `rat` as integer numerators over one
    denominator, the lcm of theirs: that leaves the numerators coprime to
    it, so the pair is already reduced."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def ratio_text(numerator: int, denominator: int) -> str:
    """numerator/denominator in lowest terms, the text `str(Fraction(...))`
    gives; the denominator is positive.  Reprs and renders write every
    coefficient with it, straight from the stored numerators."""
    if denominator == 1:
        return str(numerator)
    g = gcd(numerator, denominator)
    if g == denominator:
        return str(numerator // g)
    return f"{numerator // g}/{denominator // g}"


class _LinearSpace:
    """What every carrier's stored form, integer `numerators` over one
    positive reduced `denominator`, gives alike: + and - are each one call
    of the class's `linear_combination`, a scalar multiple and the
    negative are one pass of the class's `_rescaled` over the numerators,
    and equal elements have equal stored forms.  Another carrier is no
    scalar."""

    __slots__ = ()

    def is_zero(self) -> bool:
        return not self.numerators

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.linear_combination(((1, self), (1, other)))

    def __neg__(self):
        return self._scaled(-1)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.linear_combination(((1, self), (-1, other)))

    def __pow__(self, m):
        """self to an int power m >= 1: m - 1 products from the first
        factor, so the unit is never an operand.  Any other exponent is
        no power here, so `**` raises TypeError."""
        if type(m) is not int or m < 1:
            return NotImplemented
        out = self
        for _ in range(m - 1):
            out = out * self
        return out

    def _scaled(self, other):
        """other * self for an exact scalar p/q: the numerators times p
        over the denominator times q.  The factor p shares with the
        denominator cancels first, so only q can share one with the
        numerators, and an int scalar leaves nothing to reduce."""
        if isinstance(other, _LinearSpace):
            return NotImplemented
        p, q = _weight(other)
        if not p:
            return self.linear_combination(())
        g = gcd(p, self.denominator)
        return self._rescaled(p // g, self.denominator // g * q, q != 1)

    __rmul__ = _scaled

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.denominator == other.denominator
            and self.numerators == other.numerators
        )


class Polynomial(_LinearSpace):
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
        nums, den = _cleared([rat(c) for c in coeffs])
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

    def _rescaled(self, p: int, denominator: int, reduce: bool) -> "Polynomial":
        """The numerators times p over `denominator`, reduced only when
        `reduce` says the two may share a factor."""
        nums = self.numerators if p == 1 else tuple(p * n for n in self.numerators)
        if reduce:
            return Polynomial.from_numerators(nums, denominator)
        out = object.__new__(Polynomial)
        out.numerators = nums
        out.denominator = denominator
        return out

    @classmethod
    def from_values(cls, values, denominator: int = 1) -> "Polynomial":
        """The polynomial of degree below len(values) whose value at t = k
        is values[k] / denominator, for exact scalar values and a positive
        int denominator.

        The forward differences c_k of the values at 0 give the Newton
        form p = sum of c_k C(t, k), and Horner steps over the factors
        (t - k) expand d! p as integers, d the degree bound; the result is
        reduced once.  Int values, such as counts, are taken as they are."""
        nums, den = list(values), 1
        if not all(type(v) is int for v in nums):
            nums, den = _cleared([rat(v) for v in nums])
        d = len(nums) - 1
        if d < 0:
            return cls()
        # in place: after pass k, nums[k] is the k-th difference at 0
        for k in range(1, d + 1):
            for i in range(d, k - 1, -1):
                nums[i] -= nums[i - 1]
        # d! p = sum of c_k (d!/k!) t (t - 1) ... (t - k + 1), from the top
        acc, scale = [], 1
        for k in range(d, -1, -1):
            step = [0, *acc]
            for i, a in enumerate(acc):
                step[i] -= k * a
            step[0] += nums[k] * scale
            acc, scale = step, scale * k
        return cls.from_numerators(acc, den * denominator * factorial(d))

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

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.numerators):
            return Fraction(self.numerators[k], self.denominator)
        return Fraction(0)

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

    def __hash__(self):
        return hash((self.numerators, self.denominator))

    def __repr__(self):
        if self.is_zero():
            return "Polynomial(0)"
        den = self.denominator
        parts = []
        for k, n in enumerate(self.numerators):
            if not n:
                continue
            c = ratio_text(n, den)
            if k == 0:
                parts.append(c)
            elif k == 1:
                parts.append(f"{c}*t" if n != den else "t")
            else:
                parts.append(f"{c}*t^{k}" if n != den else f"t^{k}")
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


def _merged(x: str, y: str) -> str:
    """The code of one part that is the sum of two."""
    try:
        return chr(ord(x) + ord(y))
    except ValueError:
        raise DomainError(f"merged composition part is above {MAX_PART}") from None


@lru_cache(maxsize=None)
def quasi_shuffle(a: str, b: str):
    """Overlapping shuffles of two composition codes, with multiplicities.

    Each step either takes the head of one argument or merges both heads
    into their sum; this is the structure constant table of the monomial
    basis product.  The pairs come in no fixed order.  A one-part
    argument takes its closed form, with no recursion: the part goes in
    before each part of the other or after the last, or merges into one
    of them.  So only two arguments of two parts or more recurse, one
    level per head they take.
    """
    if not a:
        return ((b, 1),)
    if not b:
        return ((a, 1),)
    if len(a) == 1 or len(b) == 1:
        part, other = (a, b) if len(a) == 1 else (b, a)
        acc = {}
        get = acc.get
        for i in range(len(other) + 1):
            comp = other[:i] + part + other[i:]
            acc[comp] = get(comp, 0) + 1
        # each merge grows a different part, so no two of them meet
        for i, head in enumerate(other):
            acc[other[:i] + _merged(head, part) + other[i + 1 :]] = 1
        return tuple(acc.items())
    head_a, rest_a, head_b, rest_b = a[0], a[1:], b[0], b[1:]
    merged = _merged(head_a, head_b)
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


class TermCarrier(_LinearSpace):
    """A rational combination of basis keys: the constructor and stored
    form shared by `QSym` and the word algebras.

    The stored form is the one `Polynomial` keeps: `numerators` maps each
    key to a non-zero int and `denominator` is one positive int, kept
    reduced, so the gcd of the denominator and all numerators is 1 and
    equal elements have equal representations.  `terms` gives each
    key's coefficient, an int when integral and a Fraction otherwise,
    built anew on every read over a denominator other than 1: read it
    once per call.
    Each subclass supplies its key check `_checked_key` (the key it
    stores, or `DomainError`), the product and the repr.  Elements of
    different carriers never compare equal, add or multiply.  No carrier
    truncates: a tree's value is homogeneous of degree its vertex count,
    so a generating function cut at q^N is already bounded in every
    degree.

    Keys are checked once, where outside data comes in: the public
    constructor checks every key, coerces every coefficient and clears
    the denominators once.  Every other result is built from integer
    numerators through the trusted `_from_numerators`, which drops zero
    numerators and reduces once.
    """

    __slots__ = ("numerators", "denominator")

    # read by `series.is_noncommutative`; exp refuses noncommutative carriers
    noncommutative = False

    def __init__(self, terms):
        clean = {}
        for key, coeff in terms.items():
            key = self._checked_key(key)
            coeff = rat(coeff)
            if coeff != 0:
                clean[key] = coeff
        nums, self.denominator = _cleared(list(clean.values()))
        self.numerators = dict(zip(clean, nums))

    @classmethod
    def _from_numerators(cls, numerators: dict, denominator: int):
        """The element with coefficients numerators[key] / denominator,
        brought to reduced form: the keys are trusted to be valid, the
        numerators are ints, the denominator is positive, and the dict is
        the caller's to give away."""
        if 0 in numerators.values():
            numerators = {key: n for key, n in numerators.items() if n}
        if denominator != 1:
            # with no numerators left the gcd is the denominator itself
            g = gcd(denominator, *numerators.values())
            if g != 1:
                numerators = {key: n // g for key, n in numerators.items()}
                denominator //= g
        out = object.__new__(cls)
        out.numerators = numerators
        out.denominator = denominator
        return out

    @property
    def terms(self) -> dict:
        """Each key's coefficient: the numerators themselves over
        denominator 1, else each one over the denominator through `rat`."""
        den = self.denominator
        if den == 1:
            return self.numerators
        return {key: rat(Fraction(n, den)) for key, n in self.numerators.items()}

    @classmethod
    def linear_combination(cls, pairs):
        """The sum of c * x over (weight, element) pairs in one pass: every
        term lands in one dict of integer numerators over one common
        denominator, rescaled to the lcm when a new denominator comes, and
        the result is reduced once."""
        acc, den = {}, 1
        for c, x in pairs:
            if type(x) is not cls:
                raise TypeError(f"not a {cls.__name__}: {x!r}")
            num, c_den = _weight(c)
            if not num:
                continue
            term_den = c_den * x.denominator
            if den % term_den:
                grown = lcm(den, term_den)
                acc = {key: v * (grown // den) for key, v in acc.items()}
                den = grown
            scale = num * (den // term_den)
            get = acc.get
            for key, v in x.numerators.items():
                acc[key] = get(key, 0) + scale * v
        return cls._from_numerators(acc, den)

    def _rescaled(self, p: int, denominator: int, reduce: bool):
        """The numerators times p, in a new dict, over `denominator`,
        reduced only when `reduce` says the two may share a factor."""
        nums = self.numerators
        nums = dict(nums) if p == 1 else {key: p * n for key, n in nums.items()}
        if reduce:
            return self._from_numerators(nums, denominator)
        out = object.__new__(type(self))
        out.numerators = nums
        out.denominator = denominator
        return out

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def one(cls):
        """The unit, the empty key."""
        return cls({(): 1})

    def one_like(self):
        """The unit of this carrier, keyed by its own empty key."""
        return self._from_numerators({self._checked_key(()): 1}, 1)

    def __hash__(self):
        return hash((frozenset(self.numerators.items()), self.denominator))


class QSym(TermCarrier):
    """Quasi-symmetric element in the monomial composition basis, graded
    by total degree.

    A key is the code of a composition (a_1, ..., a_r) of positive
    integers, `code((a_1, ..., a_r))`; the empty code "" is the unit.
    Keys come in as tuples, through the constructor, `monomial` and
    `one`, and are encoded there; they go out as tuples through `parts`,
    in `homogeneous_degree`, the repr and the render.
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
        degrees = {sum(parts(key)) for key in self.numerators}
        return degrees.pop() if len(degrees) == 1 else None

    def __mul__(self, other):
        if isinstance(other, QSym):
            # the product commutes: the operand with more terms goes outside
            # and first into each quasi-shuffle, so the pair table holds one
            # orientation of every mixed-size pair
            a, b = self.numerators, other.numerators
            if len(a) < len(b):
                a, b = b, a
            out = {}
            for ca, va in a.items():
                for cb, vb in b.items():
                    v = va * vb
                    for comp, m in quasi_shuffle(ca, cb):
                        out[comp] = out.get(comp, 0) + m * v
            return QSym._from_numerators(out, self.denominator * other.denominator)
        return self._scaled(other)

    def __pow__(self, m):
        """A one-term, one-part element c M_(h) to an int power m >= 2 in
        closed form, by the multinomial theorem: c^m times the sum over
        the compositions a of m of (m! / a_1! ... a_r!) M_(h a_1, ..., h a_r),
        with no product and no quasi-shuffle.  Level r holds the
        compositions of r, from M_(h, h) twice and M_(2h) once at r = 2:
        appending a part h multiplies a coefficient by r, and growing the
        last part a_k h by h multiplies it by r / (a_k + 1).  Any other
        element or exponent takes the chain of `_LinearSpace`."""
        nums = self.numerators
        if len(nums) != 1 or type(m) is not int or m < 2:
            return super().__pow__(m)
        (key,) = nums
        if len(key) != 1:
            return super().__pow__(m)
        h = ord(key)
        if h * m > MAX_PART:
            raise DomainError(f"merged composition part is above {MAX_PART}")
        level = {key + key: 2, chr(2 * h): 1}
        for r in range(3, m + 1):
            grown = {}
            for comp, c in level.items():
                c *= r
                grown[comp + key] = c
                last = ord(comp[-1])
                grown[comp[:-1] + chr(last + h)] = c // (last // h + 1)
            level = grown
        n = nums[key]
        if n != 1:
            scale = n**m
            level = {comp: scale * c for comp, c in level.items()}
        # the one-part term M_(m h) has coefficient n^m, coprime to the
        # denominator's power, so the power is already reduced
        out = object.__new__(QSym)
        out.numerators = level
        out.denominator = self.denominator**m
        return out

    def __repr__(self):
        nums, den = self.numerators, self.denominator
        if not nums:
            return "QSym(0)"
        shown = []
        for key in sorted(nums):
            n = nums[key]
            label = "M(%s)" % ",".join(map(str, parts(key))) if key else "1"
            shown.append(label if n == den and key else f"{ratio_text(n, den)}*{label}")
        return "QSym(%s)" % " + ".join(shown)


def principal_specialization(element: QSym, m: int) -> Fraction:
    """Value after setting x_1 = ... = x_m = 1 and the rest to zero.

    A monomial term indexed by a length-r composition, whose code has r
    characters, contributes one for each of the C(m, r) increasing index
    choices.
    """
    if m < 0:
        raise DomainError("need m >= 0")
    total = sum(n * comb(m, len(comp)) for comp, n in element.numerators.items())
    return Fraction(total, element.denominator)

