"""Independent reference computations for the test and verify suites.

Everything here deliberately avoids the canonical-form machinery in
`trees` (beyond constructing result objects), so these routines can act
as honest oracles for it.  The power-sum builds of exp and 1/(1 - f)
check the coefficient recurrences in `series` the same way, the
Newton-basis delta inverse (with its helpers `binomial_basis` and
`to_newton`) checks the power-sum table in `operators`, and the
Fraction-accumulating quasi-shuffle product checks the integer kernel
of `QSym.__mul__`.
Guards raise instead of approximating.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from .algebra import Polynomial, QSym, _merge_bounds, quasi_shuffle
from .errors import DomainError, ResourceLimitError
from .series import Series, is_noncommutative
from .trees import RootedTree


def level_sequences(n: int):
    """Yield the canonical level sequence of every rooted tree on n
    vertices, each isomorphism class exactly once.

    Successor rule: find the rightmost entry above 2, back up to the
    nearest earlier entry one level shallower, and tile the tail with the
    segment between the two.  Runs from the path down to the star.
    """
    if n < 1:
        raise DomainError("need n >= 1")
    seq = list(range(1, n + 1))
    while True:
        yield tuple(seq)
        cut = max((i for i in range(n) if seq[i] > 2), default=None)
        if cut is None:
            return
        anchor = next(i for i in range(cut - 1, -1, -1) if seq[i] == seq[cut] - 1)
        segment = seq[anchor:cut]
        seq = seq[:cut]
        while len(seq) < n:
            seq.extend(segment)
        del seq[n:]


def count_trees_by_level_sequence(n: int) -> int:
    return sum(1 for _ in level_sequences(n))


def tree_from_level_sequence(seq) -> RootedTree:
    """Rebuild a canonical tree from a preorder level sequence."""
    if not seq or seq[0] < 1:
        raise DomainError("level sequence must start at a positive level")
    for a, b in zip(seq, seq[1:]):
        if b < 1 or b > a + 1:
            raise DomainError("levels may rise by at most one step")

    def build(i, level):
        children = []
        j = i + 1
        while j < len(seq) and seq[j] == level + 1:
            child, j = build(j, level + 1)
            children.append(child)
        return RootedTree(children), j

    tree, end = build(0, seq[0])
    if end != len(seq):
        raise DomainError("sequence describes more than one tree")
    return tree


def count_root_automorphisms(tree: RootedTree) -> int:
    """Count root-preserving automorphisms by brute force over vertex
    permutations.  Exact but factorial; guarded, never approximated."""
    order = []
    parent = []

    def walk(node, parent_index):
        index = len(order)
        order.append(node)
        parent.append(parent_index)
        for child in node.children:
            walk(child, index)

    walk(tree, -1)
    v = len(order)
    if math.factorial(max(v - 1, 0)) > 1_000_000:
        raise ResourceLimitError(f"{v} vertices is too many for permutation brute force")
    count = 0
    for perm in itertools.permutations(range(1, v)):
        image = (0,) + perm
        if all(image[parent[i]] == parent[image[i]] for i in range(1, v)):
            count += 1
    return count


def euler_transform(counts) -> list[int]:
    """Forest census from a tree census: coefficients of the product of
    (1 - q^k)^(-a_k) given a_1, a_2, ... as `counts`."""
    n_max = len(counts)
    a = {i + 1: counts[i] for i in range(n_max)}
    c = {}
    for n in range(1, n_max + 1):
        c[n] = sum(d * a[d] for d in range(1, n + 1) if n % d == 0)
    b = {0: 1}
    for n in range(1, n_max + 1):
        total = c[n] + sum(c[k] * b[n - k] for k in range(1, n))
        if total % n:
            raise DomainError("input is not a plausible tree census")
        b[n] = total // n
    return [b[n] for n in range(1, n_max + 1)]


def count_dyck_words(pairs: int) -> int:
    """Count balanced parenthesis words with the given number of pairs by
    exhaustive generation (the Catalan number, computed the slow way)."""
    if pairs < 0:
        raise DomainError("need a non-negative pair count")
    if 2 ** (2 * pairs) > 5_000_000:
        raise ResourceLimitError("too many candidate words to scan")
    count = 0
    for steps in itertools.product((1, -1), repeat=2 * pairs):
        depth = 0
        for step in steps:
            depth += step
            if depth < 0:
                break
        else:
            if depth == 0:
                count += 1
    return count


def exp_by_power_sums(series: Series) -> Series:
    """exp of a series with zero constant term, over a commutative
    carrier: the sum of series^k / k! up to the truncation order.
    Costs O(N^3) carrier products at order N."""
    if is_noncommutative(series.one):
        raise DomainError("exp needs a commutative coefficient algebra")
    if series.coeffs[0] != series._zero():
        raise DomainError("exp needs a zero constant term")
    out = Series.unit(series.order, series.one)
    term = Series.unit(series.order, series.one)
    for k in range(1, series.order + 1):
        term = term * series * Fraction(1, k)
        out = out + term
    return out


def geometric_inverse_by_powers(series: Series) -> Series:
    """1/(1 - series) for a series with zero constant term: the sum of
    the ordered powers series^k up to the truncation order.  Works over
    noncommutative carriers.  Costs O(N^3) carrier products at order N."""
    if series.coeffs[0] != series._zero():
        raise DomainError("geometric inverse needs a zero constant term")
    out = Series.unit(series.order, series.one)
    term = Series.unit(series.order, series.one)
    for _ in range(series.order):
        term = term * series
        out = out + term
    return out


@lru_cache(maxsize=None)
def binomial_basis(k: int) -> Polynomial:
    """The falling binomial C(t, k) = t(t-1)...(t-k+1)/k! as an exact
    polynomial; the degree-k element of the Newton basis."""
    if k < 0:
        raise DomainError("binomial basis needs k >= 0")
    p = Polynomial.one()
    for i in range(k):
        p = p * Polynomial((-i, 1))
    return p * Fraction(1, math.factorial(k))


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


def delta_inv_by_newton(g: Polynomial) -> Polynomial:
    """Delta^-1 through the Newton basis: writing g in the basis C(t, k)
    sends C(t, k) to C(t, k + 1); every C(t, k + 1) vanishes at 0, which
    pins down the constant of summation."""
    out = Polynomial.zero()
    for k, c in enumerate(to_newton(g)):
        out = out + c * binomial_basis(k + 1)
    return out


def qsym_mul_by_fractions(a: QSym, b: QSym) -> QSym:
    """The quasi-shuffle product accumulated on the coefficients as they
    are, Fractions included, and passed through the public constructor."""
    bound = _merge_bounds(a.max_degree, b.max_degree)
    out = {}
    for ca, va in a.terms.items():
        deg_a = sum(ca)
        for cb, vb in b.terms.items():
            if bound is not None and deg_a + sum(cb) > bound:
                continue
            v = va * vb
            for comp, m in quasi_shuffle(ca, cb):
                out[comp] = out.get(comp, 0) + m * v
    return QSym(out, bound)
