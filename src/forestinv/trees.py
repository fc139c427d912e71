"""Canonical rooted trees and forests.

An unlabeled rooted tree is stored as a tuple of child subtrees held in
canonical order, so two trees are isomorphic exactly when they compare
equal.  The canonical key of a tree is the balanced-parenthesis word
"(" + <child keys> + ")" with the children sorted shortlex (shorter keys
first, ties broken lexicographically); a forest's key is the shortlex
concatenation of its trees' keys.  The empty forest has the empty key.

Values are immutable and hash by key.
"""

from __future__ import annotations

import itertools
import math

from .errors import DomainError, ParseError, ResourceLimitError

# largest size whose full census fits comfortably in memory
_ENUMERATION_CAP = 16

# Most levels a tree may have for the recursive walkers (evaluation,
# automorphism counts, planar hashing and equality), which take one frame
# per level: well inside the interpreter's default limit of 1000 frames.
DEPTH_LIMIT = 500


def check_depth(height: int) -> None:
    """Refuse a tree of this height (edges on its longest root-to-leaf
    path) when its height + 1 levels are more than DEPTH_LIMIT."""
    if height >= DEPTH_LIMIT:
        raise ResourceLimitError(
            f"a tree of depth {height + 1} is deeper than the limit of "
            f"{DEPTH_LIMIT} levels"
        )


def shortlex(key: str) -> tuple[int, str]:
    """Canonical order on keys: by length, then lexicographically."""
    return (len(key), key)


class RootedTree:
    """An unlabeled rooted tree in canonical form."""

    __slots__ = ("children", "key", "vertex_count", "height")

    def __init__(self, children=()):
        kids = tuple(sorted(children, key=lambda c: shortlex(c.key)))
        self.children = kids
        self.key = "(%s)" % "".join(c.key for c in kids)
        self.vertex_count = 1 + sum(c.vertex_count for c in kids)
        self.height = 1 + max((c.height for c in kids), default=-1)

    def __eq__(self, other):
        return isinstance(other, RootedTree) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __lt__(self, other):
        return shortlex(self.key) < shortlex(other.key)

    def __repr__(self):
        return f"RootedTree({self.key!r})"


class RootedForest:
    """A multiset of rooted trees; the empty forest is a valid value."""

    __slots__ = ("trees", "key", "vertex_count")

    def __init__(self, trees=()):
        ts = tuple(sorted(trees, key=lambda t: shortlex(t.key)))
        self.trees = ts
        self.key = "".join(t.key for t in ts)
        self.vertex_count = sum(t.vertex_count for t in ts)

    def __iter__(self):
        return iter(self.trees)

    def __len__(self):
        return len(self.trees)

    def __eq__(self, other):
        return isinstance(other, RootedForest) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __lt__(self, other):
        return shortlex(self.key) < shortlex(other.key)

    def __repr__(self):
        return f"RootedForest({self.key!r})"


SINGLETON = RootedTree()
EMPTY_FOREST = RootedForest()


def parse_tree(text: str) -> RootedTree:
    """Parse one tree in parenthesis notation.

    Children are re-sorted into canonical order, so any reordering of the
    input parses to the same value.  Raises ParseError with the offending
    character offset on empty, unbalanced, or multi-root input.
    """
    if not text:
        raise ParseError("empty input", 0)
    tree, end = _parse_at(text, 0)
    if end != len(text):
        raise ParseError("unexpected text after the root tree", end)
    return tree


def parse_forest(text: str) -> RootedForest:
    """Parse a juxtaposition of zero or more trees as a forest."""
    trees = []
    pos = 0
    while pos < len(text):
        tree, pos = _parse_at(text, pos)
        trees.append(tree)
    return RootedForest(trees)


def _parse_at(text, pos):
    # one list of finished children per open vertex, so depth costs no stack
    if text[pos] != "(":
        raise ParseError(f"expected '(' but found {text[pos]!r}", pos)
    open_vertices = [[]]
    i = pos + 1
    while True:
        if i >= len(text):
            raise ParseError("unbalanced input: missing ')'", i)
        ch = text[i]
        i += 1
        if ch == "(":
            open_vertices.append([])
        elif ch == ")":
            tree = RootedTree(open_vertices.pop())
            if not open_vertices:
                return tree, i
            open_vertices[-1].append(tree)
        else:
            raise ParseError(f"expected '(' but found {ch!r}", i - 1)


def b_plus(forest) -> RootedTree:
    """Join all roots of a forest under one new root vertex."""
    return RootedTree(tuple(forest))


def remove_root(tree: RootedTree) -> RootedForest:
    """The forest of components left after deleting the root vertex."""
    return RootedForest(tree.children)


_AUT_CACHE: dict[str, int] = {}


def automorphism_order(tree: RootedTree) -> int:
    """Order of the root-preserving automorphism group, exactly.

    A block of k isomorphic children contributes k! times the k-th power
    of the child's own order; distinct blocks multiply independently.
    """
    got = _AUT_CACHE.get(tree.key)
    if got is None:
        got = 1
        for _, group in itertools.groupby(tree.children, key=lambda c: c.key):
            block = list(group)
            got *= math.factorial(len(block)) * automorphism_order(block[0]) ** len(block)
        _AUT_CACHE[tree.key] = got
    return got


_TREE_CACHE: dict[int, tuple] = {}
_FOREST_CACHE: dict[int, tuple] = {}


def enumerate_trees(n: int) -> list[RootedTree]:
    """All rooted trees on n vertices, one per isomorphism class, in
    canonical key order."""
    if n < 1:
        raise DomainError("tree enumeration needs n >= 1")
    if n > _ENUMERATION_CAP:
        raise ResourceLimitError(f"enumerating all trees on {n} vertices is over the limit")
    got = _TREE_CACHE.get(n)
    if got is None:
        grown = [b_plus(forest) for forest in enumerate_forests(n - 1)]
        got = tuple(sorted(grown, key=lambda t: shortlex(t.key)))
        _TREE_CACHE[n] = got
    return list(got)


def enumerate_forests(n: int) -> list[RootedForest]:
    """All rooted forests with n total vertices, one per isomorphism
    class, in canonical key order.  n = 0 yields only the empty forest."""
    if n < 0:
        raise DomainError("forest enumeration needs n >= 0")
    # forests on n vertices biject with trees on n + 1, so cap one lower
    if n >= _ENUMERATION_CAP:
        raise ResourceLimitError(f"enumerating all forests on {n} vertices is over the limit")
    got = _FOREST_CACHE.get(n)
    if got is None:
        got = tuple(_build_forests(n))
        _FOREST_CACHE[n] = got
    return list(got)


def _build_forests(n):
    # The pool holds every tree of size <= n, biggest sizes first.  A
    # multiset is a non-decreasing walk of pool indices, so each one is
    # produced exactly once; start_for_budget skips trees too big to fit.
    pool = []
    for size in range(n, 0, -1):
        pool.extend(enumerate_trees(size))
    start_for_budget = [0] * (n + 1)
    for budget in range(1, n + 1):
        start_for_budget[budget] = sum(
            len(_TREE_CACHE[s]) for s in range(budget + 1, n + 1)
        )
    out = []

    def grow(remaining, start, acc):
        if remaining == 0:
            out.append(RootedForest(acc))
            return
        for i in range(max(start, start_for_budget[remaining]), len(pool)):
            tree = pool[i]
            grow(remaining - tree.vertex_count, i, acc + (tree,))

    grow(n, 0, ())
    out.sort(key=lambda f: shortlex(f.key))
    return out
