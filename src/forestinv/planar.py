"""Labeled planar rooted trees and their noncommutative invariants.

A planar tree carries a vertex label from a finite label set and an
ordered tuple of children; a planar forest is an ordered tuple of trees.
No sorting happens anywhere: reordering children or components is a
different object.  An invariant is fixed by a family of linear operators
on one shared, possibly noncommutative, algebra, one operator per label:
the value of a tree applies the root label's operator to the ordered
product of the children's values, and a forest takes the ordered product
of its components; each product starts from its first factor, never the
unit.  Trees and forests of a given size come from one memoized level
builder, and a size past `_PLANAR_GUARD` is refused, by the enumeration
build before its first size.

The fixed-point equation replaces the exponential with the geometric sum
1/(1 - U), split per root label, and the recurrence build is one
`series.geometric_inverse` whose feedback applies each label's operator.
Every sum over labels or trees is one `algebra.linear_combination`.
The tensor-algebra operators at the end of the module extend a base
family to tensor words by splitting off every prefix; they make the tree
value of a grafted forest computable from the forest's tensor value
alone.

Word values stay in the word codes of `words` from end to end: the
free-word family's operators prepend the code of their one-label word
to every key, and the tensor split joins the codes of the factors it
eats.  A code depends on its labels alone, so these joins are the codes
of the joined words.  Nothing here decodes; labels come back only where
a value is read or written.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, lcm
from typing import NamedTuple

from .algebra import linear_combination, product
from .errors import _PAST_EVERY_LIMIT, DomainError, ParseError, ResourceLimitError, _count_text
from .operators import LinearOperator, FREE_WORD, TENSOR
from .series import Series, geometric_inverse
from .trees import RootedForest, RootedTree, check_depth, parse_forest, parse_tree
from .words import FreeWord, TensorElement, encode


class PlanarTree:
    """A rooted tree with labeled vertices and ordered children.  Labels
    are free of '(', ')' and ':', so `serialize` is one-to-one, and
    equality and hashing go through it, with no recursion."""

    __slots__ = ("label", "children", "vertex_count", "height")

    def __init__(self, label: str, children=()):
        if not isinstance(label, str) or not label or "(" in label or ")" in label or ":" in label:
            raise DomainError("labels must be non-empty strings free of '(', ')', ':'")
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
        return isinstance(other, PlanarTree) and self.serialize() == other.serialize()

    def __hash__(self):
        return hash(self.serialize())

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
            return linear_combination(((1, op(x)) for op in self.operators.values()), self.one)

        return LinearOperator("+".join(self.operators), self.algebra, run)


def _prepend(code: str):
    """The map sending w to g * w in the free word algebra, for the
    generator g whose word code is `code`: it prepends the code to every
    key, as `operators.lambda_bar` prepends a part."""

    def run(w: FreeWord) -> FreeWord:
        return FreeWord._from_numerators(
            {code + key: n for key, n in w.numerators.items()}, w.denominator
        )

    return run


def free_word_family(labels) -> OperatorFamily:
    """The family sending w to g_label * w in the free word algebra; the
    test bed for everything planar, since values stay readable."""
    labels = tuple(labels)
    if len(set(labels)) != len(labels):
        raise DomainError("labels must be distinct")
    ops = {
        label: LinearOperator(f"prepend-{label}", FREE_WORD, _prepend(encode((label,))))
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
    # the loop of `product`, written out so that a level costs one frame
    children = tree.children
    value = evaluate_planar(children[0], family) if children else family.one
    for child in children[1:]:
        value = value * evaluate_planar(child, family)
    return family[tree.label](value)


def evaluate_planar_forest(forest: PlanarForest, family: OperatorFamily):
    """Ordered product of component values; empty forest gives the unit."""
    return product((evaluate_planar(tree, family) for tree in forest), family.one)


def _brackets(text: str) -> str:
    """Serialized planar text with its labels and colons dropped."""
    return re.sub(r"[^()]+", "", text)


def underlying_tree(tree: PlanarTree) -> RootedTree:
    """Forget labels and child order, by parsing the bracket text, so
    depth costs no stack and the parse's key guard applies."""
    return parse_tree(_brackets(tree.serialize()))


def underlying_forest(forest: PlanarForest) -> RootedForest:
    return parse_forest(_brackets(forest.serialize()))


_PLANAR_GUARD = 1_000_000


def _catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def planar_tree_count(n: int, label_count: int) -> int:
    """Closed-form census: Catalan(n - 1) plane trees times labelings."""
    if n < 1 or label_count < 1:
        raise DomainError("need n >= 1 and at least one label")
    return _catalan(n - 1) * label_count**n


def check_planar_count(n: int, label_count: int, kind: str) -> None:
    """Refuse building more than `_PLANAR_GUARD` planar trees
    (Catalan(n - 1) label_count^n) or forests (Catalan(n) label_count^n)
    on n vertices; past 64 either is over 2^64 and is not built."""
    if n > 64:
        count = _PAST_EVERY_LIMIT
    else:
        count = _catalan(n - 1 if kind == "trees" else n) * label_count**n
    if count > _PLANAR_GUARD:
        raise ResourceLimitError(
            f"{_count_text(count)} planar {kind} on {n} vertices, "
            f"over the limit of {_PLANAR_GUARD}"
        )


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
    check_planar_count(n, len(labels), "trees")
    tree_level, _ = _planar_levels(labels)
    return tree_level(n)


def enumerate_planar_forests(n: int, labels) -> list[PlanarForest]:
    """All labeled planar forests with n total vertices, first tree's size
    ascending; refuses more than `_PLANAR_GUARD` of them."""
    labels = _check_labels(labels)
    if n < 0:
        raise DomainError("need n >= 0")
    check_planar_count(n, len(labels), "forests")
    _, forest_level = _planar_levels(labels)
    return [PlanarForest(trees) for trees in forest_level(n)]


class PlanarUSequence(NamedTuple):
    """Per-label leading terms of the planar generating function."""

    per_label: dict
    one: object

    @property
    def order(self) -> int:
        return len(next(iter(self.per_label.values())))

    def total_terms(self) -> tuple:
        """U_n summed over root labels, n = 1 .. order."""
        return tuple(
            linear_combination(((1, terms[k]) for terms in self.per_label.values()), self.one)
            for k in range(self.order)
        )

    def series(self) -> Series:
        return Series((Fraction(0) * self.one,) + self.total_terms(), self.one)


def u_planar_by_recurrence(family: OperatorFamily, order: int) -> PlanarUSequence:
    """Build the per-label terms from the geometric fixed point: the
    label-a term of weight n applies that label's operator to the
    q^(n-1) coefficient G_(n-1) of 1/(1 - U).

    One running geometric inverse solves G = 1/(1 - q X(G)) through
    q^(order-1), where X is the family sum: the values the labels'
    operators return inside it on G_(n-1) are the weight-n terms, and the
    last are theirs on G_(order-1).  Costs (N-1)(N-2)/2 carrier products
    at order N, plus one operator call per label and term."""
    if order < 1:
        raise DomainError("need order >= 1")
    per_label: dict = {label: [] for label in family.labels}

    def feedback(value):
        for label in family.labels:
            per_label[label].append(family[label](value))
        return linear_combination(((1, terms[-1]) for terms in per_label.values()), family.one)

    grown = geometric_inverse(Series.zero(order - 1, family.one), feedback)
    for label in family.labels:
        per_label[label].append(family[label](grown.coeffs[-1]))
    return PlanarUSequence(per_label, family.one)


def u_planar_by_enumeration(family: OperatorFamily, order: int) -> PlanarUSequence:
    """Build the per-label terms as plain sums over all planar trees,
    grouped by root label.  No automorphism weights: planar trees are
    rigid.  The count grows with the size, so the largest is checked
    against the guard before the first."""
    if order < 1:
        raise DomainError("need order >= 1")
    check_planar_count(order, len(family.labels), "trees")
    per_label: dict = {label: [] for label in family.labels}
    for n in range(1, order + 1):
        trees = enumerate_planar(n, family.labels)
        for label, terms in per_label.items():
            values = (evaluate_planar(tree, family) for tree in trees if tree.label == label)
            terms.append(linear_combination(((1, value) for value in values), family.one))
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
    if order < 1:
        raise DomainError("need order >= 1")
    seq = sequence if sequence is not None else u_planar_by_enumeration(family, order)
    if seq.order < order:
        raise DomainError("sequence is shorter than the requested order")
    total = seq.series().truncate(order)
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
    inverted = geometric_inverse(total.truncate(order - 1))
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
    rule value X(1) appended as a final letter.  The factors are word
    codes, so their product is their join.
    """
    if base.algebra != FREE_WORD:
        raise DomainError("the base family must act on the free word algebra")
    operator = base[label]
    # (numerator, prefix, image) per split, then one common denominator
    splits = [
        (n, factors[:j], operator(FreeWord._from_numerators({"".join(factors[j:]): 1}, 1)))
        for factors, n in element.numerators.items()
        for j in range(len(factors) + 1)
    ]
    den = lcm(*[image.denominator for _, _, image in splits])
    out: dict = {}
    for n, prefix, image in splits:
        scale = n * (den // image.denominator)
        for word, wn in image.numerators.items():
            key = prefix + (word,)
            out[key] = out.get(key, 0) + scale * wn
    return TensorElement._from_numerators(out, element.denominator * den)


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


class GraftCheckReport(NamedTuple):
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
