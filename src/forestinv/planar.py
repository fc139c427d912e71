"""Labeled planar rooted trees and their noncommutative invariants.

A planar tree carries a vertex label from a finite label set and an
ordered tuple of children; a planar forest is an ordered tuple of trees.
No sorting happens anywhere: reordering children or components is a
different object.  An invariant is fixed by a family of linear operators
on one shared, possibly noncommutative, algebra, one operator per label:
the value of a tree applies the root label's operator to the ordered
product of the children's values, and a forest takes the ordered product
of its components.  Trees and forests of a given size come from one
memoized level builder, and a size past `_PLANAR_GUARD` is refused.

The fixed-point equation replaces the exponential with the geometric sum
1/(1 - U), split per root label.  The tensor-algebra operators at the end
of the module extend a base family to tensor words by splitting off every
prefix; they make the tree value of a grafted forest computable from the
forest's tensor value alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import DomainError, ParseError, ResourceLimitError
from .operators import LinearOperator, FREE_WORD, TENSOR
from .series import Series, geometric_inverse, tail_sum
from .trees import RootedForest, RootedTree, check_depth
from .words import FreeWord, TensorElement


class PlanarTree:
    """A rooted tree with labeled vertices and ordered children."""

    __slots__ = ("label", "children", "vertex_count", "height")

    def __init__(self, label: str, children=()):
        if not isinstance(label, str) or not label:
            raise DomainError("labels must be non-empty strings")
        self.label = label
        self.children = tuple(children)
        self.vertex_count = 1 + sum(c.vertex_count for c in self.children)
        self.height = 1 + max((c.height for c in self.children), default=-1)

    def serialize(self) -> str:
        # a walk with its own stack (None closes a vertex), so depth costs
        # no interpreter frames
        parts, stack = [], [self]
        while stack:
            node = stack.pop()
            if node is None:
                parts.append(")")
            else:
                parts.append(f"({node.label}:")
                stack.append(None)
                stack.extend(reversed(node.children))
        return "".join(parts)

    def __eq__(self, other):
        return (
            isinstance(other, PlanarTree)
            and self.label == other.label
            and self.children == other.children
        )

    def __hash__(self):
        return hash((self.label, self.children))

    def __repr__(self):
        return f"PlanarTree({self.serialize()!r})"


class PlanarForest:
    """An ordered tuple of planar trees; order is significant."""

    __slots__ = ("trees", "vertex_count")

    def __init__(self, trees=()):
        self.trees = tuple(trees)
        self.vertex_count = sum(t.vertex_count for t in self.trees)

    def serialize(self) -> str:
        return "".join(t.serialize() for t in self.trees)

    def __iter__(self):
        return iter(self.trees)

    def __len__(self):
        return len(self.trees)

    def __eq__(self, other):
        return isinstance(other, PlanarForest) and self.trees == other.trees

    def __hash__(self):
        return hash(self.trees)

    def __repr__(self):
        return f"PlanarForest({self.serialize()!r})"


def concat(left: PlanarForest, right: PlanarForest) -> PlanarForest:
    return PlanarForest(left.trees + right.trees)


def parse_planar_tree(text: str) -> PlanarTree:
    """Parse "(label:child child ...)" with ordered children."""
    if not text:
        raise ParseError("empty input", 0)
    tree, end = _parse_planar_at(text, 0)
    if end != len(text):
        raise ParseError("unexpected text after the root tree", end)
    return tree


def parse_planar_forest(text: str) -> PlanarForest:
    trees = []
    pos = 0
    while pos < len(text):
        tree, pos = _parse_planar_at(text, pos)
        trees.append(tree)
    return PlanarForest(trees)


def _parse_planar_at(text, pos):
    # one (label, finished children) pair per open vertex, so depth costs
    # no stack; i is at the start of a vertex on entry to the outer loop
    open_vertices = []
    i = pos
    while True:
        if text[i] != "(":
            raise ParseError(f"expected '(' but found {text[i]!r}", i)
        colon = text.find(":", i + 1)
        if colon < 0:
            raise ParseError("missing ':' after the label", i + 1)
        label = text[i + 1 : colon]
        if not label or any(ch in "():" for ch in label):
            raise ParseError("labels must be non-empty and free of '(', ')', ':'", i + 1)
        open_vertices.append((label, []))
        i = colon + 1
        while True:
            if i >= len(text):
                raise ParseError("unbalanced input: missing ')'", i)
            if text[i] != ")":
                break
            label, children = open_vertices.pop()
            tree = PlanarTree(label, children)
            i += 1
            if not open_vertices:
                return tree, i
            open_vertices[-1][1].append(tree)


class OperatorFamily:
    """One linear operator per label, all on the same unital algebra."""

    def __init__(self, operators: dict, one):
        if not operators:
            raise DomainError("an operator family needs at least one label")
        tags = {op.algebra for op in operators.values()}
        if len(tags) > 1:
            raise DomainError(f"operators live on different algebras: {sorted(tags)}")
        self.operators = dict(operators)
        self.one = one
        self.algebra = tags.pop()

    @property
    def labels(self) -> tuple:
        return tuple(self.operators)

    def __getitem__(self, label: str) -> LinearOperator:
        op = self.operators.get(label)
        if op is None:
            raise DomainError(f"label {label!r} is not in the family")
        return op

    def total(self) -> LinearOperator:
        """The sum of the family, applied pointwise."""

        def run(x):
            parts = [op(x) for op in self.operators.values()]
            out = parts[0]
            for part in parts[1:]:
                out = out + part
            return out

        return LinearOperator("+".join(self.operators), self.algebra, run)


def free_word_family(labels) -> OperatorFamily:
    """The family sending w to g_label * w in the free word algebra; the
    test bed for everything planar, since values stay readable."""
    labels = tuple(labels)
    if len(set(labels)) != len(labels):
        raise DomainError("labels must be distinct")
    ops = {
        label: LinearOperator(
            f"prepend-{label}",
            FREE_WORD,
            (lambda generator: lambda w: generator * w)(FreeWord.generator(label)),
        )
        for label in labels
    }
    return OperatorFamily(ops, FreeWord.one())


def b_plus_alpha(label: str, forest, family: OperatorFamily | None = None) -> PlanarTree:
    """Graft an ordered forest under a new root carrying the label."""
    if family is not None and label not in family.operators:
        raise DomainError(f"label {label!r} is not in the family")
    return PlanarTree(label, tuple(forest))


def evaluate_planar(tree: PlanarTree, family: OperatorFamily):
    """Root label's operator applied to the ordered product of the
    children's values; a leaf gets that operator on the unit.  Refuses a
    tree deeper than `trees.DEPTH_LIMIT`."""
    check_depth(tree.height)
    value = family.one
    for child in tree.children:
        value = value * evaluate_planar(child, family)
    return family[tree.label](value)


def evaluate_planar_forest(forest: PlanarForest, family: OperatorFamily):
    """Ordered product of component values; empty forest gives the unit."""
    value = family.one
    for tree in forest:
        value = value * evaluate_planar(tree, family)
    return value


def underlying_tree(tree: PlanarTree) -> RootedTree:
    """Forget labels and child order."""
    return RootedTree(tuple(underlying_tree(c) for c in tree.children))


def underlying_forest(forest: PlanarForest) -> RootedForest:
    return RootedForest(tuple(underlying_tree(t) for t in forest))


_PLANAR_GUARD = 1_000_000


def _catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def planar_tree_count(n: int, label_count: int) -> int:
    """Closed-form census: Catalan(n - 1) plane trees times labelings."""
    if n < 1 or label_count < 1:
        raise DomainError("need n >= 1 and at least one label")
    return _catalan(n - 1) * label_count**n


def _check_labels(labels) -> tuple:
    labels = tuple(labels)
    if not labels or len(set(labels)) != len(labels):
        raise DomainError("labels must be distinct and non-empty")
    return labels


def _planar_levels(labels):
    """Memoized builders of the planar trees and the ordered forests
    (tuples of trees) on k vertices, shared by both enumerators; a forest
    is a first tree followed by a forest on the remaining vertices."""
    trees: dict[int, list] = {}
    forests: dict[int, list] = {0: [()]}

    def tree_level(k):
        if k not in trees:
            trees[k] = [
                PlanarTree(label, forest)
                for label in labels
                for forest in forest_level(k - 1)
            ]
        return trees[k]

    def forest_level(k):
        if k not in forests:
            forests[k] = [
                (first,) + rest
                for size in range(1, k + 1)
                for first in tree_level(size)
                for rest in forest_level(k - size)
            ]
        return forests[k]

    return tree_level, forest_level


def enumerate_planar(n: int, labels) -> list[PlanarTree]:
    """All labeled planar trees on n vertices, in a fixed deterministic
    order (root label first, then child block sizes left to right)."""
    labels = _check_labels(labels)
    if n < 1:
        raise DomainError("need n >= 1")
    if planar_tree_count(n, len(labels)) > _PLANAR_GUARD:
        raise ResourceLimitError(f"too many planar trees on {n} vertices")
    tree_level, _ = _planar_levels(labels)
    return tree_level(n)


def enumerate_planar_forests(n: int, labels) -> list[PlanarForest]:
    """All labeled planar forests with n total vertices, first tree's size
    ascending; refuses more than `_PLANAR_GUARD` of them."""
    labels = _check_labels(labels)
    if n < 0:
        raise DomainError("need n >= 0")
    count = _catalan(n) * len(labels) ** n
    if count > _PLANAR_GUARD:
        raise ResourceLimitError(
            f"{count} planar forests on {n} vertices exceed the limit {_PLANAR_GUARD}"
        )
    _, forest_level = _planar_levels(labels)
    return [PlanarForest(trees) for trees in forest_level(n)]


@dataclass
class PlanarUSequence:
    """Per-label leading terms of the planar generating function."""

    per_label: dict
    one: object

    @property
    def order(self) -> int:
        return len(next(iter(self.per_label.values())))

    def total_terms(self) -> tuple:
        """U_n summed over root labels, n = 1 .. order."""
        out = []
        for k in range(self.order):
            term = Fraction(0) * self.one
            for terms in self.per_label.values():
                term = term + terms[k]
            out.append(term)
        return tuple(out)

    def series(self) -> Series:
        return Series((Fraction(0) * self.one,) + self.total_terms(), self.one)


def u_planar_by_recurrence(family: OperatorFamily, order: int) -> PlanarUSequence:
    """Build the per-label terms from the geometric fixed point: the
    label-a term of weight n applies that label's operator to the
    q^(n-1) coefficient G_(n-1) of 1/(1 - U).

    One running recurrence: G_(n-1) = sum_{k=1..n-1} U_k G_(n-1-k) needs
    only U_1 .. U_(n-1), so each weight appends one coefficient of the
    inverse, about N^2/2 carrier products at order N."""
    if order < 1:
        raise DomainError("need order >= 1")
    per_label: dict = {label: [] for label in family.labels}
    zero = Fraction(0) * family.one
    totals = [zero]  # U_0 = 0, then the weight-n totals over all labels
    inverse = [family.one]  # G_0, G_1, ... of 1/(1 - U)
    for n in range(1, order + 1):
        if n > 1:
            inverse.append(tail_sum(totals, inverse))
        coeff_n = zero
        for label in family.labels:
            term = family[label](inverse[n - 1])
            per_label[label].append(term)
            coeff_n = coeff_n + term
        totals.append(coeff_n)
    return PlanarUSequence(per_label, family.one)


def u_planar_by_enumeration(family: OperatorFamily, order: int) -> PlanarUSequence:
    """Build the per-label terms as plain sums over all planar trees,
    grouped by root label.  No automorphism weights: planar trees are
    rigid."""
    if order < 1:
        raise DomainError("need order >= 1")
    per_label: dict = {label: [] for label in family.labels}
    zero = Fraction(0) * family.one
    for n in range(1, order + 1):
        sums = {label: zero for label in family.labels}
        for tree in enumerate_planar(n, family.labels):
            sums[tree.label] = sums[tree.label] + evaluate_planar(tree, family)
        for label in family.labels:
            per_label[label].append(sums[label])
    return PlanarUSequence(per_label, family.one)


def planar_equation_residual(
    family: OperatorFamily,
    order: int,
    sequence: PlanarUSequence | None = None,
    label: str | None = None,
) -> Series:
    """Residual of the geometric fixed-point equation through q^order.

    With no label: q * X(1/(1 - U)) - U where X is the family sum.  With
    a label: the same with that label's operator and per-label terms.
    The sequence defaults to the enumeration build, so a zero residual is
    evidence, not tautology.
    """
    seq = sequence if sequence is not None else u_planar_by_enumeration(family, order)
    if seq.order < order:
        raise DomainError("sequence is shorter than the requested order")
    total = seq.series().truncate(order)
    inverted = geometric_inverse(total)
    if label is None:
        target = total
        operator = family.total()
    else:
        operator = family[label]
        if label not in seq.per_label:
            raise DomainError(f"label {label!r} is not in the sequence")
        zero = Fraction(0) * family.one
        target = Series(
            (zero,) + tuple(seq.per_label[label][:order]), family.one
        )
    return inverted.map(operator).times_q() - target


def tensor_cocycle_apply(
    label: str, element: TensorElement, base: OperatorFamily
) -> TensorElement:
    """The tensor extension of a base operator: each word splits at every
    position, the prefix stays as tensor factors, and the base operator
    eats the remaining letters concatenated into one word, their product
    in the free word algebra.

    On a pure tensor v_1 @ ... @ v_n this is the sum over j of
    v_1 @ ... @ v_j @ X(v_{j+1} ... v_n); j = n contributes the scalar
    rule value X(1) appended as a final letter.
    """
    if base.algebra != FREE_WORD:
        raise DomainError("the base family must act on the free word algebra")
    operator = base[label]
    out: dict = {}
    for factors, coeff in element.terms.items():
        for j in range(len(factors) + 1):
            prefix = factors[:j]
            rest = FreeWord({sum(factors[j:], ()): 1})
            for word, wcoeff in operator(rest).terms.items():
                key = prefix + (word,)
                out[key] = out.get(key, 0) + coeff * wcoeff
    return TensorElement(out)


def tensor_family(base: OperatorFamily) -> OperatorFamily:
    """Extend a free-word family to the tensor algebra over its words."""
    if base.algebra != FREE_WORD:
        raise DomainError("the base family must act on the free word algebra")
    ops = {
        label: LinearOperator(
            f"split-{label}",
            TENSOR,
            (lambda lab: lambda x: tensor_cocycle_apply(lab, x, base))(label),
        )
        for label in base.labels
    }
    return OperatorFamily(ops, TensorElement.one())


@dataclass
class GraftCheckReport:
    """Outcome of the grafting and multiplicativity checks on samples."""

    graft_checks: list
    product_checks: list

    @property
    def ok(self) -> bool:
        return all(c["ok"] for c in self.graft_checks) and all(
            c["ok"] for c in self.product_checks
        )

    def to_jsonable(self) -> dict:
        return {
            "graft_checks": self.graft_checks,
            "product_checks": self.product_checks,
            "ok": self.ok,
        }


def check_tensor_grafting(
    samples, base: OperatorFamily, product_vertex_cap=None
) -> GraftCheckReport:
    """For each sample forest F and label a, compare the tensor value of
    the grafted tree b_plus_alpha(a, F) with the tensor operator applied
    to the value of F; also check multiplicativity over ordered
    concatenation on sample pairs.  product_vertex_cap limits the pairs
    to a combined vertex count (None checks every pair)."""
    samples = list(samples)
    family = tensor_family(base)
    graft_checks = []
    values = []
    for forest in samples:
        value = evaluate_planar_forest(forest, family)
        values.append(value)
        for label in base.labels:
            grafted = evaluate_planar(b_plus_alpha(label, forest), family)
            split = tensor_cocycle_apply(label, value, base)
            graft_checks.append(
                {
                    "forest": forest.serialize(),
                    "label": label,
                    "ok": grafted == split,
                }
            )
    product_checks = []
    for i, left in enumerate(samples):
        for j, right in enumerate(samples):
            if (
                product_vertex_cap is not None
                and left.vertex_count + right.vertex_count > product_vertex_cap
            ):
                continue
            combined = evaluate_planar_forest(concat(left, right), family)
            product_checks.append(
                {
                    "left": left.serialize(),
                    "right": right.serialize(),
                    "ok": combined == values[i] * values[j],
                }
            )
    return GraftCheckReport(graft_checks=graft_checks, product_checks=product_checks)
