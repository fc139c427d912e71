"""Independent references that the tests compare the package against.

None of them runs in a shipped command, so they live here, beside the
tests, while `forestinv.oracles` keeps the references the `verify`
suites run.  Each but the per-tree sums of U_n, which evaluate every
tree through `engine`, shares no code with the path it checks:

- the automorphism order by the recursive block rule, which checks the
  alpha every tree is built with;
- the lambda-bar term estimate as 2^(n-2) minus the short compositions,
  which checks the cost guard's sum over the long ones in `engine`;
- the power-sum builds of exp and 1/(1 - f), which check the coefficient
  recurrences in `series`;
- the per-term build of the tree generating function (one fresh exp per
  term) and its closed form from labeled-tree counting, which check the
  running build in `genfun`;
- the sums of U_n over every tree value, which check the enumeration
  build in `genfun`, whose largest class applies the operator once;
- the chain evaluation, each vertex's children multiplied one at a time,
  which checks the one power that `engine.evaluate` takes for a run of
  leaves;
- the Newton-basis delta inverse (with its helpers `binomial_basis` and
  `to_newton`), which checks the power-sum table in `operators`;
- the quasi-shuffle on tuples of ints and the Fraction-accumulating
  product built on it, which check the quasi-shuffle on key codes and
  the integer kernel of `QSym.__mul__`;
- the structure-building render of every carrier value, which checks the
  JSON text that `render.render_json` writes from the terms;
- the suffix evaluations mod p of a value, from its terms, which check
  the collision fingerprints that `engine` builds along each tree.

Quasi-symmetric keys are decoded with `algebra.parts` where they come
in, so every routine here works on compositions as tuples of ints.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from forestinv.algebra import Polynomial, QSym, linear_combination, parts
from forestinv.engine import evaluate
from forestinv.errors import _PAST_EVERY_LIMIT, DomainError
from forestinv.series import Series, is_noncommutative
from forestinv.trees import RootedTree, automorphism_order, enumerate_trees
from forestinv.words import FreeWord, TensorElement


def automorphism_order_by_blocks(tree: RootedTree) -> int:
    """Root-preserving automorphism order by the block rule, recursively:
    each block of k isomorphic children contributes k! times the k-th
    power of the child's own order, and distinct blocks multiply."""
    got = 1
    for _, group in itertools.groupby(tree.children, key=lambda c: c.key):
        block = list(group)
        got *= math.factorial(len(block)) * automorphism_order_by_blocks(block[0]) ** len(block)
    return got


def strict_terms_by_complement(vertices: int, height: int) -> int:
    """The lambda-bar term estimate of `engine._strict_terms` as 2^(n-2)
    minus the compositions with at most `height` parts, the sum of
    C(n-2, j) over j < height - 1, each binomial from the one before it.
    Keeps that estimate's cut to 2^64 when n - 2 > 64 and at least half
    the compositions have more parts."""
    m = vertices - 2
    if m < 0:
        return 1
    if m > 64 and 2 * (height - 1) <= m:
        return _PAST_EVERY_LIMIT
    below, binomial = 0, 1
    for j in range(height - 1):
        below += binomial
        binomial = binomial * (m - j) // (j + 1)
    return (1 << m) - below


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


def u_by_per_term_exp(spec, order: int) -> list:
    """U_1 .. U_order of an invariant spec from U_1 = X(1) and
    U_n = X(S_(n-1)(U_1, ..., U_(n-1))), reading each S_(n-1) off a fresh
    power-sum exp of U_1 q + ... + U_(n-1) q^(n-1).  Shares no code with
    the running build of `genfun.u_by_recurrence`.  Costs O(N^4) carrier
    products at order N."""
    if order < 1:
        raise DomainError("need order >= 1")
    zero = Fraction(0) * spec.one
    terms = [spec.operator(spec.one)]
    for n in range(2, order + 1):
        grown = exp_by_power_sums(Series((zero, *terms), spec.one))
        terms.append(spec.operator(grown.coeffs[n - 1]))
    return terms


def u_by_tree_sums(spec, order: int) -> list:
    """U_1 .. U_order of an invariant spec, each n! U_n the sum of every
    tree value on n vertices with the int weight n!/alpha(T), divided
    once.  Evaluates and caches every tree of every class, the largest
    included, where `genfun.u_by_enumeration` applies the operator once
    to that class's sum."""
    if order < 1:
        raise DomainError("need order >= 1")
    terms = []
    for n in range(1, order + 1):
        labelings = math.factorial(n)
        total = linear_combination(
            (
                (labelings // automorphism_order(tree), evaluate(tree, spec))
                for tree in enumerate_trees(n)
            ),
            spec.one,
        )
        terms.append(Fraction(1, labelings) * total)
    return terms


def evaluate_by_chain(tree: RootedTree, spec):
    """The value of a tree in its spec's carrier, with each vertex's
    children multiplied one at a time from the first, leaves included:
    the chain of products that `engine.evaluate` replaces by one power
    for a run of leaves.  Memoizes subtrees for this call only, and
    never reads or fills the spec's cache."""
    memo = {}

    def walk(t):
        got = memo.get(t.key)
        if got is None:
            values = [walk(child) for child in t.children]
            value = values[0] if values else spec.one
            for other in values[1:]:
                value = value * other
            got = memo[t.key] = spec.operator(value)
        return got

    return walk(tree)


# operator name -> (labels may repeat along an edge, value is a polynomial)
_CLOSED_FORM_KINDS = {
    "delta-inv": (False, True),
    "nabla-inv": (True, True),
    "lambda-bar": (False, False),
    "lambda": (True, False),
}


def _label_class_count(weak: bool, earlier: int, size: int) -> int:
    """Ways to hang `size` labeled vertices that share one label from the
    `earlier` labeled vertices with smaller labels.

    Strictly, each new vertex picks its parent among the earlier ones,
    and the smallest label holds the root alone.  Weakly, the new
    vertices form a forest hanging from the earlier ones, counted by the
    forest form of Cayley's formula k·n^(n−k−1) (Stanley, EC2, §5.3),
    and the smallest label holds a rooted tree, size^(size−1) of them.
    """
    if earlier == 0:
        if weak:
            return size ** (size - 1)
        return 1 if size == 1 else 0
    if weak:
        return earlier * (earlier + size) ** (size - 1)
    return earlier**size


def u_closed_form(name: str, order: int) -> list:
    """U_1 .. U_order of a built-in invariant from labeled-tree counting;
    shares no code with the recurrence or with enumeration.

    n!·U_n counts labeled rooted trees on n vertices together with an
    order-preserving labeling onto {1..r}.  Grouped by the sizes
    α = (α_1, ..., α_r) of its label classes, [M_α]U_n = ∏_k w_k/α_k!,
    where w_k counts the ways to hang the class of label k from the
    s_(k−1) = α_1 + ... + α_(k−1) vertices with smaller labels.  The
    polynomial invariants are the principal specializations,
    U_n(t) = Σ_α [M_α]U_n·C(t, ℓ(α)), so their build keeps only the
    length of each partial composition: a dynamic program over (s_k, k)
    rather than over all 2^(n−1) compositions of n.
    """
    kind = _CLOSED_FORM_KINDS.get(name)
    if kind is None:
        raise DomainError(f"no closed form for operator {name!r}")
    if order < 1:
        raise DomainError("need order >= 1")
    weak, polynomial = kind
    # by_size[s]: partial compositions of s (only their lengths, for the
    # polynomial invariants) -> the sum of their weights ∏ w_k/α_k!
    by_size = [{} for _ in range(order + 1)]
    by_size[0][0 if polynomial else ()] = Fraction(1)
    for earlier in range(order):
        for size in range(1, order - earlier + 1):
            count = _label_class_count(weak, earlier, size)
            if not count:
                continue
            factor = Fraction(count, math.factorial(size))
            bucket = by_size[earlier + size]
            for key, weight in by_size[earlier].items():
                grown = key + 1 if polynomial else key + (size,)
                bucket[grown] = bucket.get(grown, 0) + weight * factor
    sizes = by_size[1:]
    if polynomial:
        return [
            sum((c * binomial_basis(length) for length, c in by_length.items()), Polynomial.zero())
            for by_length in sizes
        ]
    return [QSym(by_composition) for by_composition in sizes]


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


@lru_cache(maxsize=None)
def quasi_shuffle_by_tuples(a: tuple, b: tuple):
    """Overlapping shuffles of two compositions given as tuples of ints,
    with multiplicities: what `algebra.quasi_shuffle` gives on their
    codes.  Each step takes the head of one argument or merges both
    heads into their sum."""
    if not a:
        return ((b, 1),)
    if not b:
        return ((a, 1),)
    acc = {}
    for comp, m in quasi_shuffle_by_tuples(a[1:], b):
        comp = (a[0],) + comp
        acc[comp] = acc.get(comp, 0) + m
    for comp, m in quasi_shuffle_by_tuples(a, b[1:]):
        comp = (b[0],) + comp
        acc[comp] = acc.get(comp, 0) + m
    for comp, m in quasi_shuffle_by_tuples(a[1:], b[1:]):
        comp = (a[0] + b[0],) + comp
        acc[comp] = acc.get(comp, 0) + m
    return tuple(acc.items())


def qsym_mul_by_fractions(a: QSym, b: QSym) -> QSym:
    """The quasi-shuffle product on tuples, accumulated on the
    coefficients as they are, Fractions included, and passed through the
    public constructor."""
    out = {}
    b_terms = b.terms
    for ka, va in a.terms.items():
        for kb, vb in b_terms.items():
            v = va * vb
            for comp, m in quasi_shuffle_by_tuples(parts(ka), parts(kb)):
                out[comp] = out.get(comp, 0) + m * v
    return QSym(out)


def render_by_structure(x):
    """The JSON-able form of a carrier value, built as dicts and lists:
    what `json.loads(render.render_json(x))` must equal."""
    if isinstance(x, (Fraction, int)):
        return str(Fraction(x))
    if isinstance(x, Polynomial):
        return [str(c) for c in x.coeffs]
    if isinstance(x, QSym):
        return [
            {"composition": list(comp), "coefficient": str(coeff)}
            for comp, coeff in sorted((parts(key), coeff) for key, coeff in x.terms.items())
        ]
    if isinstance(x, FreeWord):
        terms = x.terms
        return [
            {"word": list(word), "coefficient": str(terms[word])}
            for word in sorted(terms, key=lambda w: (len(w), w))
        ]
    if isinstance(x, TensorElement):
        terms = x.terms
        return [
            {"tensor": [list(word) for word in factors], "coefficient": str(terms[factors])}
            for factors in sorted(terms, key=lambda f: (len(f), f))
        ]
    if isinstance(x, Series):
        return [render_by_structure(c) for c in x.coeffs]
    raise DomainError(f"cannot render a {type(x).__name__}")


def _residue(x, p: int) -> int:
    """An exact scalar mod p, its denominator inverted."""
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, p) % p


def suffix_values(value, points, p: int) -> tuple:
    """The collision fingerprint of a value, built straight from it: with
    m = len(points), entry i (from 1 to m + 1) is a QSym value evaluated
    on the suffix x_i .. x_m of the points, mod p, and a Polynomial
    value's value at t = m - i + 1, mod p (its points are all ones).

    Each M_alpha is a small DP over increasing index choices: its parts
    are placed from the last, and the sum over choices at indices >= j
    takes index j for the part or skips it."""
    m = len(points)
    if isinstance(value, Polynomial):
        return tuple(_residue(value(m - i), p) for i in range(m + 1))
    out = [0] * (m + 1)
    for key, coeff in value.terms.items():
        # on_suffix[j]: the parts placed so far, summed over the suffix from j
        on_suffix = [1] * (m + 1)
        for part in reversed(parts(key)):
            placed = [0] * (m + 1)
            for j in range(m - 1, -1, -1):
                placed[j] = (placed[j + 1] + pow(points[j], part, p) * on_suffix[j + 1]) % p
            on_suffix = placed
        c = _residue(coeff, p)
        out = [(total + c * v) % p for total, v in zip(out, on_suffix)]
    return tuple(out)
