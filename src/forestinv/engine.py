"""Recursive evaluation of operator-defined invariants of rooted forests.

An invariant is fixed by a linear operator X on a commutative unital
algebra.  The value of a tree is X applied to the product of the values
of the root's subtrees (a leaf gets X(1)); the value of a forest is the
product over its components, with the empty forest mapping to 1.  Values
depend only on the isomorphism class, so each spec memoizes by canonical
key.  A fully evaluated value is published to the cache in one step, so
shared specs are safe to read concurrently.

The two polynomial instances count strict and weak order-preserving
labelings; the two quasi-symmetric instances refine them, and the brute
force routines here recount both ways directly from the definitions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .algebra import FiniteVarPoly, Polynomial, QSym
from .errors import DomainError, ResourceLimitError
from .operators import (
    DELTA_INV,
    LAMBDA,
    LAMBDA_BAR,
    NABLA_INV,
    LinearOperator,
)
from .render import canonical_render, render_value
from .trees import RootedForest, RootedTree, automorphism_order, enumerate_trees


class InvariantSpec:
    """An operator, the unit of its target algebra, and a value cache.

    degree_bound is the truncation bound of the unit's carrier, or None
    when the carrier is ungraded or unbounded; evaluation refuses trees
    that outgrow it rather than silently truncating.
    """

    def __init__(self, name: str, operator: LinearOperator, one):
        self.name = name
        self.operator = operator
        self.one = one
        self.degree_bound = getattr(one, "max_degree", None)
        self._cache: dict[str, object] = {}

    @property
    def algebra(self) -> str:
        return self.operator.algebra

    def __repr__(self):
        return f"InvariantSpec({self.name!r}, algebra={self.algebra!r})"


def evaluate(tree: RootedTree, spec: InvariantSpec):
    """Value of a rooted tree: the operator applied to the product of the
    values of the subtrees hanging off the root."""
    if spec.degree_bound is not None and tree.vertex_count > spec.degree_bound:
        raise DomainError(
            f"tree on {tree.vertex_count} vertices outgrows the "
            f"truncation bound {spec.degree_bound}"
        )
    got = spec._cache.get(tree.key)
    if got is None:
        product = spec.one
        for child in tree.children:
            product = product * evaluate(child, spec)
        got = spec.operator(product)
        spec._cache[tree.key] = got
    return got


def evaluate_forest(forest: RootedForest, spec: InvariantSpec):
    """Product of component values; the empty forest maps to the unit."""
    value = spec.one
    for tree in forest:
        value = value * evaluate(tree, spec)
    return value


def strict_order_spec() -> InvariantSpec:
    return InvariantSpec("delta-inv", DELTA_INV, Polynomial.one())


def weak_order_spec() -> InvariantSpec:
    return InvariantSpec("nabla-inv", NABLA_INV, Polynomial.one())


def qsym_strict_spec(max_degree: int | None) -> InvariantSpec:
    return InvariantSpec("lambda-bar", LAMBDA_BAR, QSym.one(max_degree))


def qsym_weak_spec(max_degree: int | None) -> InvariantSpec:
    return InvariantSpec("lambda", LAMBDA, QSym.one(max_degree))


# A tree's quasi-symmetric value is homogeneous of degree equal to its
# vertex count, so the shared quasi-symmetric specs need no bound and one
# cache per invariant serves trees of every size.
_SHARED = {
    spec.name: spec
    for spec in (
        strict_order_spec(),
        weak_order_spec(),
        qsym_strict_spec(None),
        qsym_weak_spec(None),
    )
}


def strict_order_poly(tree: RootedTree) -> Polynomial:
    """Polynomial counting strictly order-preserving labelings from
    {1..m}: labels must increase along every root-to-leaf edge."""
    return evaluate(tree, _SHARED["delta-inv"])


def order_poly(tree: RootedTree) -> Polynomial:
    """Polynomial counting weakly order-preserving labelings from
    {1..m}: labels must not decrease along any root-to-leaf edge."""
    return evaluate(tree, _SHARED["nabla-inv"])


def qsym_strict(tree: RootedTree) -> QSym:
    """Quasi-symmetric refinement of the strict count; homogeneous of
    degree equal to the vertex count."""
    return evaluate(tree, _SHARED["lambda-bar"])


def qsym_weak(tree: RootedTree) -> QSym:
    """Quasi-symmetric refinement of the weak count."""
    return evaluate(tree, _SHARED["lambda"])


def built_in_spec(name: str) -> InvariantSpec:
    """Look up one of the four shipped invariants by operator name."""
    spec = _SHARED.get(name)
    if spec is None:
        raise DomainError(f"unknown operator name: {name}")
    return spec


BUILT_IN_NAMES = tuple(_SHARED)


def _parent_array(tree: RootedTree) -> list[int]:
    """Parent index per vertex in depth-first order; the root gets -1."""
    parents = []

    def walk(node, parent_index):
        index = len(parents)
        parents.append(parent_index)
        for child in node.children:
            walk(child, index)

    walk(tree, -1)
    return parents


_BRUTE_FORCE_LIMIT = 10_000_000


def brute_force_order_count(tree: RootedTree, n: int, strict: bool = True) -> int:
    """Count labelings of the vertices by {1..n} that increase (strict)
    or do not decrease (weak) away from the root, by full enumeration."""
    if n < 0:
        raise DomainError("need n >= 0")
    v = tree.vertex_count
    if n**v > _BRUTE_FORCE_LIMIT:
        raise ResourceLimitError(f"{n}^{v} assignments is over the brute-force limit")
    parents = _parent_array(tree)
    edges = [(parents[i], i) for i in range(1, v)]
    count = 0
    for labels in itertools.product(range(1, n + 1), repeat=v):
        if strict:
            if all(labels[p] < labels[c] for p, c in edges):
                count += 1
        else:
            if all(labels[p] <= labels[c] for p, c in edges):
                count += 1
    return count


def brute_force_qsym(tree: RootedTree, m: int, strict: bool = True) -> FiniteVarPoly:
    """The same labeling sum with each labeling recorded as the monomial
    x_1^(uses of 1) ... x_m^(uses of m); the finite-variable shadow of
    the quasi-symmetric invariant."""
    if m < 1:
        raise DomainError("need m >= 1")
    v = tree.vertex_count
    if m**v > _BRUTE_FORCE_LIMIT:
        raise ResourceLimitError(f"{m}^{v} assignments is over the brute-force limit")
    parents = _parent_array(tree)
    edges = [(parents[i], i) for i in range(1, v)]
    terms: dict[tuple, Fraction] = {}
    for labels in itertools.product(range(1, m + 1), repeat=v):
        if strict:
            if not all(labels[p] < labels[c] for p, c in edges):
                continue
        elif not all(labels[p] <= labels[c] for p, c in edges):
            continue
        expo = [0] * m
        for label in labels:
            expo[label - 1] += 1
        key = tuple(expo)
        terms[key] = terms.get(key, Fraction(0)) + 1
    return FiniteVarPoly(terms, m, v)


@dataclass(frozen=True)
class CollisionPair:
    """Two non-isomorphic trees that share an invariant value."""

    n: int
    invariant: str
    tree_a: str
    tree_b: str
    alpha_a: int
    alpha_b: int
    alpha_collision: bool

    def to_jsonable(self) -> dict:
        return {
            "n": self.n,
            "invariant": self.invariant,
            "colliding_trees": [self.tree_a, self.tree_b],
            "alpha": [self.alpha_a, self.alpha_b],
            "alpha_collision": self.alpha_collision,
        }


def collision_report(n_max: int, spec: InvariantSpec) -> list[CollisionPair]:
    """All pairs of distinct trees on up to n_max vertices whose values
    under the given invariant agree exactly (by canonical serialization)."""
    if n_max < 1:
        raise DomainError("need n_max >= 1")
    if spec.degree_bound is not None and spec.degree_bound < n_max:
        raise DomainError("truncation bound below n_max would fake collisions")
    pairs = []
    for n in range(1, n_max + 1):
        groups: dict[str, list[RootedTree]] = {}
        for tree in enumerate_trees(n):
            groups.setdefault(canonical_render(evaluate(tree, spec)), []).append(tree)
        for bucket in groups.values():
            for a, b in itertools.combinations(bucket, 2):
                alpha_a, alpha_b = automorphism_order(a), automorphism_order(b)
                pairs.append(
                    CollisionPair(
                        n=n,
                        invariant=spec.name,
                        tree_a=a.key,
                        tree_b=b.key,
                        alpha_a=alpha_a,
                        alpha_b=alpha_b,
                        alpha_collision=alpha_a == alpha_b,
                    )
                )
    return pairs


@dataclass
class InvariantTable:
    """Values of one invariant over a batch of trees, keyed canonically."""

    invariant: str
    rows: dict

    def to_jsonable(self) -> dict:
        return {
            "invariant": self.invariant,
            "rows": {
                key: {
                    "value": render_value(row["value"]),
                    "alpha": row["alpha"],
                    "vertex_count": row["vertex_count"],
                }
                for key, row in self.rows.items()
            },
        }


def build_table(trees, spec: InvariantSpec) -> InvariantTable:
    rows = {}
    for tree in trees:
        rows[tree.key] = {
            "value": evaluate(tree, spec),
            "alpha": automorphism_order(tree),
            "vertex_count": tree.vertex_count,
        }
    return InvariantTable(invariant=spec.name, rows=rows)
