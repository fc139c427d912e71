"""Canonical rooted trees and forests.

An unlabeled rooted tree is stored as a tuple of child subtrees held in
canonical order, so two trees are isomorphic exactly when they compare
equal.  The canonical key of a tree is the balanced-parenthesis word
"(" + <child keys> + ")" with the children sorted shortlex (shorter keys
first, ties broken lexicographically); a forest's key is the shortlex
concatenation of its trees' keys.  The empty forest has the empty key.

Values are immutable and hash by key.  Every tree carries its
root-preserving automorphism order α, written where the tree is built by
one rule: with the children in canonical order, the k-th consecutive copy
of a child t multiplies α by k·α(t), so a block of k copies gives k!·α(t)^k.

Enumeration builds each tree once: a non-decreasing walk over all smaller
trees in shortlex order meets each multiset of children once, in canonical
order, writing key, height and α as it goes, up to the one cap that
`check_enumeration` checks and every whole-class run asks first.
"""

from __future__ import annotations

import itertools
from operator import attrgetter

from .errors import DomainError, ParseError, ResourceLimitError

# largest size whose full census fits comfortably in memory
_ENUMERATION_CAP = 16

# Most levels a tree may have for the recursive walkers (rooted and planar
# evaluation), which take one frame per level, inside the interpreter's
# default limit of 1000 frames.  A product on the way up takes frames of
# its own: `algebra.quasi_shuffle` recurses only when both compositions
# have two parts or more, and past 256 levels the lambda-bar cost guard
# admits one vertex off the longest path at most, so no such product.
DEPTH_LIMIT = 500

# Most key characters a parse may write across its subtrees.  Each vertex's
# key is twice its subtree's size, so a path of n vertices writes n(n + 1).
KEY_CHAR_LIMIT = 2**26


def _rooted_tree_counts():
    """t_1, t_2, ...: the counts of rooted trees on n vertices, from the
    recurrence n t_(n+1) = sum_(k=1..n) (sum_(d|k) d t_d) t_(n-k+1)."""
    t, s = [0, 1], [0]
    for n in itertools.count(1):
        yield t[n]
        s.append(sum(d * t[d] for d in range(1, n + 1) if n % d == 0))
        t.append(sum(s[k] * t[n - k + 1] for k in range(1, n + 1)) // n)


# t_n, the number of trees on n vertices, at index n, through the cap
_TREE_COUNTS = (0, *itertools.islice(_rooted_tree_counts(), _ENUMERATION_CAP))


def check_depth(height: int) -> None:
    """Refuse a tree of this height (edges on its longest root-to-leaf
    path) when its height + 1 levels are more than DEPTH_LIMIT."""
    if height >= DEPTH_LIMIT:
        raise ResourceLimitError(
            f"a tree of depth {height + 1} is deeper than the limit of "
            f"{DEPTH_LIMIT} levels",
            height + 1, DEPTH_LIMIT,
        )


def check_enumeration(vertices: int) -> None:
    """Refuse a census of the trees on this many vertices past the cap."""
    if vertices > _ENUMERATION_CAP:
        raise ResourceLimitError(
            f"enumerating all trees on {vertices} vertices is over the limit of "
            f"{_ENUMERATION_CAP}",
            vertices, _ENUMERATION_CAP,
        )


# Canonical order on trees and forests: by key length, then by key.  A
# key has 2 * vertex_count characters, so vertex_count stands for its
# length and the sort key is read in C.
shortlex = attrgetter("vertex_count", "key")


class RootedTree:
    """An unlabeled rooted tree in canonical form."""

    __slots__ = ("children", "key", "vertex_count", "height", "alpha")

    def __init__(self, children=()):
        kids = tuple(children)
        if len(kids) > 1:
            kids = tuple(sorted(kids, key=shortlex))
        self.children = kids
        keys, vertex_count, height, alpha, run = [], 1, 0, 1, 0
        for c in kids:
            key = c.key
            run = run + 1 if keys and key == keys[-1] else 1
            keys.append(key)
            vertex_count += c.vertex_count
            if c.height >= height:
                height = c.height + 1
            alpha *= run * c.alpha
        self.key = "(%s)" % "".join(keys)
        self.vertex_count, self.height, self.alpha = vertex_count, height, alpha

    @classmethod
    def _canonical(cls, children, key, vertex_count, height, alpha):
        """The tree with these fields, trusted to be canonical: no sort."""
        tree = object.__new__(cls)
        tree.children, tree.key = children, key
        tree.vertex_count, tree.height, tree.alpha = vertex_count, height, alpha
        return tree

    def __eq__(self, other):
        return isinstance(other, RootedTree) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __lt__(self, other):
        return shortlex(self) < shortlex(other)

    def __repr__(self):
        return f"RootedTree({self.key!r})"


class RootedForest:
    """A multiset of rooted trees; the empty forest is a valid value."""

    __slots__ = ("trees", "key", "vertex_count")

    def __init__(self, trees=()):
        ts = tuple(trees)
        if len(ts) > 1:
            ts = tuple(sorted(ts, key=shortlex))
        self.trees = ts
        self.key = "".join([t.key for t in ts])
        self.vertex_count = sum([t.vertex_count for t in ts])

    @classmethod
    def _canonical(cls, trees, key, vertex_count):
        """The forest with these fields, trusted to be canonical: no sort."""
        forest = object.__new__(cls)
        forest.trees, forest.key, forest.vertex_count = trees, key, vertex_count
        return forest

    def __iter__(self):
        return iter(self.trees)

    def __len__(self):
        return len(self.trees)

    def __eq__(self, other):
        return isinstance(other, RootedForest) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __lt__(self, other):
        return shortlex(self) < shortlex(other)

    def __repr__(self):
        return f"RootedForest({self.key!r})"


SINGLETON = RootedTree()
EMPTY_FOREST = RootedForest()


def parse_tree(text: str) -> RootedTree:
    """Parse one tree in parenthesis notation.

    Children are re-sorted into canonical order, so any reordering of the
    input parses to the same value.  Raises ParseError with the offending
    character offset on empty, unbalanced, or multi-root input, and
    ResourceLimitError before building keys of more than KEY_CHAR_LIMIT
    characters in all.
    """
    if not text:
        raise ParseError("empty input", 0)
    tree, end, _ = _parse_at(text, 0)
    if end != len(text):
        raise ParseError("unexpected text after the root tree", end)
    return tree


def parse_forest(text: str) -> RootedForest:
    """Parse a juxtaposition of zero or more trees as a forest; its trees
    share one budget of KEY_CHAR_LIMIT key characters."""
    trees = []
    pos = key_chars = 0
    while pos < len(text):
        tree, pos, key_chars = _parse_at(text, pos, key_chars, "forest's")
        trees.append(tree)
    return RootedForest(trees)


def _parse_at(text, pos, key_chars=0, whose="tree's"):
    """The tree starting at pos, the offset past it, and key_chars plus
    the key characters it writes."""
    if text[pos] != "(":
        raise ParseError(f"expected '(' but found {text[pos]!r}", pos)
    # one list of finished children per open vertex, so depth costs no stack
    open_vertices = []
    i = pos
    while True:
        if i >= len(text):
            raise ParseError("unbalanced input: missing ')'", i)
        ch = text[i]
        i += 1
        if ch == "(":
            open_vertices.append([])
            # a vertex writes two characters into its own key and each ancestor's
            key_chars += 2 * len(open_vertices)
            if key_chars > KEY_CHAR_LIMIT:
                raise ResourceLimitError(
                    f"the {whose} keys would hold at least {key_chars} characters, "
                    f"over the limit of {KEY_CHAR_LIMIT}",
                    key_chars, KEY_CHAR_LIMIT,
                )
        elif ch == ")":
            kids = open_vertices.pop()
            tree = RootedTree(kids) if kids else SINGLETON
            if not open_vertices:
                return tree, i, key_chars
            open_vertices[-1].append(tree)
        else:
            raise ParseError(f"expected '(' but found {ch!r}", i - 1)


def b_plus(forest) -> RootedTree:
    """Join all roots of a forest under one new root vertex."""
    return RootedTree(tuple(forest))


def remove_root(tree: RootedTree) -> RootedForest:
    """The forest of components left after deleting the root vertex."""
    # the children are canonical, and the key is the tree's without its root
    return RootedForest._canonical(tree.children, tree.key[1:-1], tree.vertex_count - 1)


def automorphism_order(tree: RootedTree) -> int:
    """Order of the root-preserving automorphism group, exactly: the α
    the tree was built with."""
    return tree.alpha


_TREE_CACHE: dict[int, tuple] = {}


def enumerate_trees(n: int) -> list[RootedTree]:
    """All rooted trees on n vertices, one per isomorphism class, in
    canonical key order."""
    if n < 1:
        raise DomainError("tree enumeration needs n >= 1")
    check_enumeration(n)
    for size in range(1, n + 1):
        if size not in _TREE_CACHE:
            _TREE_CACHE[size] = _grow_trees(size)
    return list(_TREE_CACHE[n])


def enumerate_forests(n: int) -> list[RootedForest]:
    """All rooted forests with n total vertices, one per isomorphism
    class, in canonical key order.  n = 0 yields only the empty forest."""
    if n < 0:
        raise DomainError("forest enumeration needs n >= 0")
    # forests on n vertices biject with trees on n + 1, so cap one lower
    if n >= _ENUMERATION_CAP:
        raise ResourceLimitError(
            f"enumerating all forests on {n} vertices is over the limit of {_ENUMERATION_CAP - 1}",
            n, _ENUMERATION_CAP - 1,
        )
    # a tree's key is its forest's key in parentheses, so the order holds
    return [remove_root(tree) for tree in enumerate_trees(n + 1)]


def _grow_trees(n):
    # pool[:fits[r]] holds the trees of at most r vertices; a child uses up
    # the budget or leaves room for one as big, so no branch ends short.  The
    # k-th copy of a child t multiplies alpha by k * alpha(t): k! alpha(t)^k.
    pool = [tree for size in range(1, n) for tree in _TREE_CACHE[size]]
    fits = list(itertools.accumulate([len(_TREE_CACHE[s]) for s in range(1, n)], initial=0))
    out = []

    def walk(remaining, last, run, kids, key, height, alpha):
        if not remaining:
            out.append(RootedTree._canonical(kids, "(" + key + ")", n, height + 1, alpha))
            return
        ends_here = range(max(last, fits[remaining - 1]), fits[remaining])
        for i in itertools.chain(range(last, fits[remaining // 2]), ends_here):
            child, k = pool[i], run + 1 if i == last else 1
            walk(remaining - child.vertex_count, i, k, kids + (child,), key + child.key,
                 max(height, child.height), alpha * child.alpha * k)

    walk(n - 1, 0, 0, (), "", -1, 1)
    # keys of one size have one length, so string order is shortlex order
    out.sort(key=attrgetter("key"))
    return tuple(out)
