"""Independent reference computations for the test and verify suites.

Everything here deliberately avoids the canonical-form machinery in
`trees` (beyond constructing result objects), so these routines can act
as honest oracles for it.  Alongside the tree census and automorphism
counts live:

- brute-force labeling counts, which check the order polynomials, and
  their monomial sums, which check the quasi-symmetric invariants;
- the finite-variable polynomial model `FiniteVarPoly`, with the
  expansion of quasi-symmetric elements into it and the index-shift
  realizations of the prepend operators;
- the power-sum builds of exp and 1/(1 - f), which check the coefficient
  recurrences in `series`;
- the per-term build of the tree generating function (one fresh exp per
  term) and its closed form from labeled-tree counting, which check the
  running build in `genfun`;
- the Newton-basis delta inverse (with its helpers `binomial_basis` and
  `to_newton`), which checks the power-sum table in `operators`;
- the Fraction-accumulating quasi-shuffle product, which checks the
  integer kernel of `QSym.__mul__`.

Guards raise instead of approximating.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from .algebra import Polynomial, QSym, quasi_shuffle, rat
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


def _parent_array(tree: RootedTree) -> list[int]:
    """Parent index per vertex in depth-first order; the root gets -1.
    Walks an explicit stack, so trees of any depth are fine."""
    parents = []
    stack = [(tree, -1)]
    while stack:
        node, parent_index = stack.pop()
        index = len(parents)
        parents.append(parent_index)
        stack.extend((child, index) for child in reversed(node.children))
    return parents


def count_root_automorphisms(tree: RootedTree) -> int:
    """Count root-preserving automorphisms by brute force over vertex
    permutations.  Exact but factorial; guarded, never approximated."""
    parent = _parent_array(tree)
    v = len(parent)
    if math.factorial(max(v - 1, 0)) > 1_000_000:
        raise ResourceLimitError(f"{v} vertices is too many for permutation brute force")
    count = 0
    for perm in itertools.permutations(range(1, v)):
        image = (0,) + perm
        if all(image[parent[i]] == parent[image[i]] for i in range(1, v)):
            count += 1
    return count


_BRUTE_FORCE_LIMIT = 10_000_000


def _order_preserving_labelings(tree: RootedTree, labels: int, strict: bool):
    """Every labeling of the vertices (in depth-first order) by {1..labels}
    that increases (strict) or does not decrease (weak) away from the root,
    found by scanning all labels^v assignments; refused up front when
    there are more than `_BRUTE_FORCE_LIMIT` of them."""
    v = tree.vertex_count
    if labels**v > _BRUTE_FORCE_LIMIT:
        raise ResourceLimitError(f"{labels}^{v} assignments is over the brute-force limit")
    parents = _parent_array(tree)
    edges = [(parents[i], i) for i in range(1, v)]
    gap = 1 if strict else 0
    return (
        labeling
        for labeling in itertools.product(range(1, labels + 1), repeat=v)
        if all(labeling[p] + gap <= labeling[c] for p, c in edges)
    )


def brute_force_order_count(tree: RootedTree, n: int, strict: bool = True) -> int:
    """Count labelings of the vertices by {1..n} that increase (strict)
    or do not decrease (weak) away from the root, by full enumeration."""
    if n < 0:
        raise DomainError("need n >= 0")
    return sum(1 for _ in _order_preserving_labelings(tree, n, strict))


def brute_force_qsym(tree: RootedTree, m: int, strict: bool = True) -> FiniteVarPoly:
    """The same labeling sum with each labeling recorded as the monomial
    x_1^(uses of 1) ... x_m^(uses of m); the finite-variable shadow of
    the quasi-symmetric invariant."""
    if m < 1:
        raise DomainError("need m >= 1")
    terms: dict[tuple, int] = {}
    for labeling in _order_preserving_labelings(tree, m, strict):
        expo = [0] * m
        for label in labeling:
            expo[label - 1] += 1
        key = tuple(expo)
        terms[key] = terms.get(key, 0) + 1
    return FiniteVarPoly(terms, m, tree.vertex_count)


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


def qsym_mul_by_fractions(a: QSym, b: QSym) -> QSym:
    """The quasi-shuffle product accumulated on the coefficients as they
    are, Fractions included, and passed through the public constructor."""
    out = {}
    for ca, va in a.terms.items():
        for cb, vb in b.terms.items():
            v = va * vb
            for comp, m in quasi_shuffle(ca, cb):
                out[comp] = out.get(comp, 0) + m * v
    return QSym(out)


class FiniteVarPoly:
    """Polynomial in x_1 .. x_num_vars, total degree capped at degree_cap.

    Terms map full-length exponent tuples to rational coefficients.  This
    is the concrete model the quasi-symmetric layer is checked against;
    the index-shift substitution x_i -> x_{i+1} (monomials using the last
    variable are pushed out to zero) lives here as .shifted().
    """

    __slots__ = ("terms", "num_vars", "degree_cap")

    def __init__(self, terms, num_vars: int, degree_cap: int):
        if num_vars < 1:
            raise DomainError("need at least one variable")
        if degree_cap < 0:
            raise DomainError("degree cap must be non-negative")
        clean = {}
        for expo, coeff in terms.items():
            expo = tuple(expo)
            if len(expo) != num_vars or any(e < 0 for e in expo):
                raise DomainError(f"bad exponent tuple: {expo}")
            coeff = rat(coeff)
            if coeff != 0 and sum(expo) <= degree_cap:
                clean[expo] = coeff
        self.terms = clean
        self.num_vars = num_vars
        self.degree_cap = degree_cap

    @classmethod
    def zero(cls, num_vars: int, degree_cap: int):
        return cls({}, num_vars, degree_cap)

    @classmethod
    def one(cls, num_vars: int, degree_cap: int):
        return cls({(0,) * num_vars: 1}, num_vars, degree_cap)

    @classmethod
    def variable(cls, index: int, num_vars: int, degree_cap: int):
        """The generator x_index, 1-based."""
        if not 1 <= index <= num_vars:
            raise DomainError(f"variable index {index} outside 1..{num_vars}")
        expo = [0] * num_vars
        expo[index - 1] = 1
        return cls({tuple(expo): 1}, num_vars, degree_cap)

    def one_like(self):
        return FiniteVarPoly.one(self.num_vars, self.degree_cap)

    def zero_like(self):
        return FiniteVarPoly.zero(self.num_vars, self.degree_cap)

    def is_zero(self) -> bool:
        return not self.terms

    def _check_vars(self, other):
        if self.num_vars != other.num_vars:
            raise DomainError("mixed variable counts")

    def __add__(self, other):
        if not isinstance(other, FiniteVarPoly):
            return NotImplemented
        self._check_vars(other)
        bound = min(self.degree_cap, other.degree_cap)
        merged = dict(self.terms)
        for expo, coeff in other.terms.items():
            merged[expo] = merged.get(expo, 0) + coeff
        return FiniteVarPoly(merged, self.num_vars, bound)

    def __neg__(self):
        return FiniteVarPoly(
            {e: -v for e, v in self.terms.items()}, self.num_vars, self.degree_cap
        )

    def __sub__(self, other):
        if not isinstance(other, FiniteVarPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, FiniteVarPoly):
            self._check_vars(other)
            bound = min(self.degree_cap, other.degree_cap)
            out = {}
            for ea, va in self.terms.items():
                for eb, vb in other.terms.items():
                    expo = tuple(x + y for x, y in zip(ea, eb))
                    if sum(expo) > bound:
                        continue
                    out[expo] = out.get(expo, 0) + va * vb
            return FiniteVarPoly(out, self.num_vars, bound)
        scalar = rat(other)
        return FiniteVarPoly(
            {e: scalar * v for e, v in self.terms.items()}, self.num_vars, self.degree_cap
        )

    # the algebra is commutative, and a scalar on the left scales the same way
    __rmul__ = __mul__

    def shifted(self) -> "FiniteVarPoly":
        """Substitute x_i -> x_{i+1}; monomials using x_num_vars vanish."""
        out = {}
        for expo, coeff in self.terms.items():
            if expo[-1] != 0:
                continue
            out[(0,) + expo[:-1]] = coeff
        return FiniteVarPoly(out, self.num_vars, self.degree_cap)

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


def qsym_to_finite(element: QSym, num_vars: int, degree_cap=None) -> FiniteVarPoly:
    """Expand a quasi-symmetric element in num_vars concrete variables.

    Each composition (a_1, ..., a_r) becomes the sum of the monomials
    x_{i_1}^{a_1} ... x_{i_r}^{a_r} over strictly increasing index tuples.
    The degree cap defaults to the element's highest degree.
    """
    highest = max((sum(c) for c in element.terms), default=0)
    if degree_cap is None:
        degree_cap = highest
    if degree_cap < highest:
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
            out[key] = out.get(key, 0) + coeff
    return FiniteVarPoly(out, num_vars, degree_cap)


def shift_s(p: FiniteVarPoly) -> FiniteVarPoly:
    """Index shift x_i -> x_{i+1} in the finite-variable model; monomials
    using the last variable are pushed out to zero."""
    return p.shifted()


def finite_lambda(p: FiniteVarPoly) -> FiniteVarPoly:
    """Direct finite-model evaluation of the weak prepend operator:
    the sum over k of x_k times the (k-1)-fold index shift."""
    out = FiniteVarPoly.zero(p.num_vars, p.degree_cap)
    shifted = p
    for k in range(1, p.num_vars + 1):
        out = out + FiniteVarPoly.variable(k, p.num_vars, p.degree_cap) * shifted
        shifted = shift_s(shifted)
    return out


def finite_lambda_bar(p: FiniteVarPoly) -> FiniteVarPoly:
    """Direct finite-model evaluation of the strict prepend operator:
    the sum over k of x_k times the k-fold index shift, which is the weak
    one applied after a single shift."""
    return finite_lambda(shift_s(p))
