"""Linear operators on the algebra carriers.

Each operator is a named callable with an algebra tag, so pipelines can
refuse to mix carriers.  The polynomial operators are the right
inverses of the forward and backward differences, pinned down by
vanishing at zero: each is one integer product with a cached table of
the power sums sum_{j<t} j^k, whose row k is read back by interpolation
from its prefix sums at t = 0 .. k + 1.  The quasi-symmetric operators
prepend a part to each composition, with the second one also merging
into the head part, and both work on the key codes of `algebra.code` as
they are: the part 1 is the character "\x01", and merging adds 1 to the
head's code point.  The four inverses and prepends raise the degree of
every non-zero input by exactly one and drop no term.  The differences
themselves and the index-shift realizations of the prepends in finitely
many variables, which check them, live in `oracles`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from math import lcm
from typing import Any, Callable

from .algebra import MAX_PART, Polynomial, QSym
from .errors import DomainError

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
    # row k has degree k + 1, so its prefix sums at t = 0 .. k + 1 fix it
    grown = [
        Polynomial.from_values(accumulate((j**k for j in range(k + 1)), initial=0))
        for k in range(len(rows), degree + 1)
    ]
    new_den = lcm(den, *(p.denominator for p in grown))
    scale = new_den // den
    rows = tuple(tuple(a * scale for a in row) for row in rows) if scale != 1 else rows
    rows += tuple(tuple(a * (new_den // p.denominator) for a in p.numerators) for p in grown)
    _POWER_SUMS = (rows, new_den)
    return _POWER_SUMS


def _summed_numerators(g: Polynomial) -> tuple:
    """The numerators of delta_inv(g) over den * g.denominator, unreduced,
    and den: one integer matrix-vector product with the cached power-sum
    table."""
    nums = g.numerators
    rows, den = _power_sums(len(nums) - 1)
    out = [0] * (len(nums) + 1)
    for n, row in zip(nums, rows):
        if n:
            for i, a in enumerate(row):
                out[i] += n * a
    return out, den


def delta_inv(g: Polynomial) -> Polynomial:
    """The unique f with f(t + 1) - f(t) = g(t) and f(0) = 0.

    f(t) = sum_{j<t} g(j), so each t^k goes to the power sum A_k(t) / L.
    """
    out, den = _summed_numerators(g)
    return Polynomial.from_numerators(out, den * g.denominator)


def nabla_inv(g: Polynomial) -> Polynomial:
    """The unique f with f(t) - f(t - 1) = g(t) and f(0) = 0.

    With h = delta_inv(g), the map t -> h(t + 1) - g(0) solves it, and
    h(t + 1) = h(t) + g(t), so f = h + g - g(0): g's non-constant
    numerators, scaled to h's denominator, go into h's integer
    accumulator, and the sum is reduced once.
    """
    out, den = _summed_numerators(g)
    nums = g.numerators
    for k in range(1, len(nums)):
        out[k] += den * nums[k]
    return Polynomial.from_numerators(out, den * g.denominator)


def lambda_bar(a: QSym) -> QSym:
    """Prepend a new part 1 to every composition.

    M_(a_1, ..., a_r) goes to M_(1, a_1, ..., a_r) and the unit goes to
    M_(1), so the degree of every term grows by exactly one.
    """
    prepended = {"\x01" + key: n for key, n in a.numerators.items()}
    return QSym._from_numerators(prepended, a.denominator)


def lambda_(a: QSym) -> QSym:
    """Prepend a part 1, plus absorb it into the head part.

    M_(a_1, ..., a_r) goes to M_(1, a_1, ..., a_r) + M_(1 + a_1, ..., a_r);
    the unit goes to M_(1) alone.  Like `lambda_bar`, it raises the
    degree of every term by exactly one.
    """
    # the prepended keys start with 1 and the absorbed ones with 2 or more,
    # and each family is injective, so no two terms meet
    nums = a.numerators
    out = {"\x01" + key: n for key, n in nums.items()}
    try:
        out.update({chr(1 + ord(key[0])) + key[1:]: n for key, n in nums.items() if key})
    except ValueError:
        raise DomainError(f"merged composition part is above {MAX_PART}") from None
    return QSym._from_numerators(out, a.denominator)


DELTA_INV = LinearOperator("delta-inv", POLYNOMIAL, delta_inv)
NABLA_INV = LinearOperator("nabla-inv", POLYNOMIAL, nabla_inv)
LAMBDA_BAR = LinearOperator("lambda-bar", QSYM, lambda_bar)
LAMBDA = LinearOperator("lambda", QSYM, lambda_)
