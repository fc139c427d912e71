"""Independent reference computations for the verify suites.

Everything here deliberately avoids the canonical-form machinery in
`trees` (beyond constructing result objects), so these routines can act
as honest oracles for it.  Alongside the tree census by level sequences,
with its Euler transform to forests, and the automorphism counts by
vertex permutations live:

- brute-force labeling counts, which check the order polynomials, and
  their monomial sums, which check the quasi-symmetric invariants;
- the balanced-word count, which checks the planar tree census;
- the finite-variable polynomial model `FiniteVarPoly`, with the
  expansion of quasi-symmetric elements into it and the index-shift
  realizations of the prepend operators;
- the forward and backward differences, with the translation
  p(t) -> p(t + c) they are made of, which check that the difference
  inverses in `operators` are right inverses.

This module holds what a shipped module reads: the `verify` suites and
the names the package re-exports.  The references that only the tests
compare against live beside them, in `tests/references.py`.

Quasi-symmetric keys are decoded with `algebra.parts` where they come
in, so every routine here works on compositions as tuples of ints.
Guards raise instead of approximating.
"""

from __future__ import annotations

import itertools
import math

from .algebra import Polynomial, QSym, parts, rat
from .errors import _PAST_EVERY_LIMIT, DomainError, ResourceLimitError, _count_text
from .trees import RootedTree, _rooted_tree_counts


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


def check_permutation_brute_force(vertices: int) -> None:
    """Refuse a permutation count on trees of this many vertices when it
    would scan more than a million permutations of the non-root ones."""
    # exact through 20!, past that a lower bound already over the limit,
    # so no huge factorial is built
    scanned, limit = math.factorial(min(max(vertices - 1, 0), 20)), 1_000_000
    if scanned > limit:
        raise ResourceLimitError(
            f"{vertices} vertices is too many for permutation brute force: "
            f"{vertices - 1}! = {_count_text(scanned)} permutations, over the limit of {limit}",
            scanned, limit,
        )


def count_root_automorphisms(tree: RootedTree) -> int:
    """Count root-preserving automorphisms by brute force over vertex
    permutations.  Exact but factorial; guarded, never approximated."""
    parent = _parent_array(tree)
    v = len(parent)
    check_permutation_brute_force(v)
    count = 0
    for perm in itertools.permutations(range(1, v)):
        image = (0,) + perm
        if all(image[parent[i]] == parent[image[i]] for i in range(1, v)):
            count += 1
    return count


_BRUTE_FORCE_LIMIT = 10_000_000


def check_labeling_brute_force(max_n: int, assignments) -> None:
    """Refuse a labeling scan over every class of trees on 1 .. max_n
    vertices when it would try more than `_BRUTE_FORCE_LIMIT` assignments
    in all: the sum over n of t_n assignments(n), for t_n trees on n
    vertices and assignments(n) tried on each of them.  Asked before the
    first class, so a refused scan starts none."""
    # through 64 vertices the sum is exact until it passes 2^64; past them,
    # one assignment per tree has already put it there and none adds
    # nothing, so no huge count is built
    total = 0
    for n, trees in zip(range(1, min(max_n, 64) + 1), _rooted_tree_counts()):
        total = min(total + trees * assignments(n), _PAST_EVERY_LIMIT)
    if total > _BRUTE_FORCE_LIMIT:
        raise ResourceLimitError(
            f"labeling brute force over the trees on 1 to {max_n} vertices would try "
            f"{_count_text(total)} assignments, over the limit of {_BRUTE_FORCE_LIMIT}",
            total, _BRUTE_FORCE_LIMIT,
        )


def _check_tree_labelings(vertices: int, labels: int) -> None:
    """Refuse a labeling scan of one tree of this many vertices by
    {1..labels} when it would try more than `_BRUTE_FORCE_LIMIT` of the
    labels^vertices assignments."""
    # exact through 64 vertices, past that a lower bound that two or more
    # labels put over the limit, so no huge power is built
    scanned = labels ** min(vertices, 64)
    if scanned > _BRUTE_FORCE_LIMIT:
        raise ResourceLimitError(
            f"{vertices} vertices is too many for labeling brute force: "
            f"{labels}^{vertices} = {_count_text(scanned)} assignments, "
            f"over the limit of {_BRUTE_FORCE_LIMIT}",
            scanned, _BRUTE_FORCE_LIMIT,
        )


def _order_preserving_labelings(tree: RootedTree, labels: int, strict: bool):
    """Every labeling of the vertices (in depth-first order) by {1..labels}
    that increases (strict) or does not decrease (weak) away from the root,
    found by scanning all labels^v assignments; refused up front by
    `_check_tree_labelings`."""
    v = tree.vertex_count
    _check_tree_labelings(v, labels)
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


def check_dyck_scan(pairs: int) -> None:
    """Refuse a balanced-word count that would scan more than five
    million of the 4^pairs candidate words."""
    # exact through 32 pairs, past that a lower bound over the limit
    scanned, limit = 4 ** min(pairs, 32), 5_000_000
    if scanned > limit:
        raise ResourceLimitError(
            f"{pairs} pairs is too many for a balanced-word scan: "
            f"4^{pairs} = {_count_text(scanned)} candidate words, over the limit of {limit}",
            scanned, limit,
        )


def count_dyck_words(pairs: int) -> int:
    """Count balanced parenthesis words with the given number of pairs by
    exhaustive generation (the Catalan number, computed the slow way)."""
    if pairs < 0:
        raise DomainError("need a non-negative pair count")
    check_dyck_scan(pairs)
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


def shift(p: Polynomial, c) -> Polynomial:
    """The polynomial p(t + c), computed exactly by Horner steps."""
    shifted_t = Polynomial((c, 1))
    out = Polynomial()
    for a in reversed(p.coeffs):
        out = out * shifted_t + Polynomial((a,))
    return out


def delta(p: Polynomial) -> Polynomial:
    """Forward difference: p(t + 1) - p(t)."""
    return shift(p, 1) - p


def nabla(p: Polynomial) -> Polynomial:
    """Backward difference: p(t) - p(t - 1)."""
    return p - shift(p, -1)


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
            if len(expo) != num_vars or min(expo) < 0:
                raise DomainError(f"bad exponent tuple: {expo}")
            coeff = rat(coeff)
            if coeff != 0 and sum(expo) <= degree_cap:
                clean[expo] = coeff
        self.terms = clean
        self.num_vars = num_vars
        self.degree_cap = degree_cap

    @classmethod
    def _unchecked(cls, terms: dict, num_vars: int, degree_cap: int):
        """The polynomial with these terms, taken as they are: the caller
        guarantees exponent tuples of length num_vars within the degree
        cap and non-zero exact coefficients, so nothing is checked."""
        out = cls.__new__(cls)
        out.terms = terms
        out.num_vars = num_vars
        out.degree_cap = degree_cap
        return out

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
    if num_vars < 1:
        raise DomainError("need at least one variable")
    terms = {parts(key): coeff for key, coeff in element.terms.items()}
    highest = max((sum(c) for c in terms), default=0)
    if degree_cap is None:
        degree_cap = highest
    if degree_cap < highest:
        raise DomainError("degree cap below the element's highest term")
    # a monomial's non-zero exponents read back both its composition and
    # its index tuple, so no two terms meet and each keeps its coefficient
    out = {}
    for comp, coeff in terms.items():
        for spots in itertools.combinations(range(num_vars), len(comp)):
            expo = [0] * num_vars
            for spot, part in zip(spots, comp):
                expo[spot] = part
            out[tuple(expo)] = coeff
    return FiniteVarPoly._unchecked(out, num_vars, degree_cap)


def shift_s(p: FiniteVarPoly) -> FiniteVarPoly:
    """Index shift x_i -> x_{i+1} in the finite-variable model; monomials
    using the last variable are pushed out to zero."""
    return p.shifted()


def finite_lambda(p: FiniteVarPoly) -> FiniteVarPoly:
    """Direct finite-model evaluation of the weak prepend operator:
    the sum over k of x_k times the (k-1)-fold index shift.  The product
    by x_k bumps the k-th exponent of each term that stays within the
    degree cap, and all of them sum into one dict."""
    cap = p.degree_cap
    out = {}
    shifted = p.terms
    for k in range(p.num_vars):
        for expo, coeff in shifted.items():
            if sum(expo) < cap:
                bumped = expo[:k] + (expo[k] + 1,) + expo[k + 1 :]
                out[bumped] = out.get(bumped, 0) + coeff
        # the index shift of `FiniteVarPoly.shifted`, on the valid terms
        shifted = {(0,) + expo[:-1]: coeff for expo, coeff in shifted.items() if not expo[-1]}
    # every bumped term stays within the cap; only cancelled ones go
    return FiniteVarPoly._unchecked(
        {expo: coeff for expo, coeff in out.items() if coeff}, p.num_vars, cap
    )


def finite_lambda_bar(p: FiniteVarPoly) -> FiniteVarPoly:
    """Direct finite-model evaluation of the strict prepend operator:
    the sum over k of x_k times the k-fold index shift, which is the weak
    one applied after a single shift."""
    return finite_lambda(shift_s(p))
