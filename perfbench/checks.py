"""Independent output checks for the benchmark's jobs.

Nothing here imports forestinv.  Every expected value comes from a
closed form (OEIS counts, n^(n-1)/n!, Catalan numbers, the hook length
formula, Stanley reciprocity) or from a small computation of this
module's own: a tree parser, canonical keys, automorphism counts and a
labeling-count dynamic program.  Checks read the rendered form of an
output (the JSON-able values of `forestinv.render.render_value` or the
CLI's stdout), so they keep working when a carrier changes its internal
basis.  Each check returns None when the output is right and a one-line
reason when it is not.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import lru_cache
from fractions import Fraction
from itertools import product
from math import comb, factorial, prod

# OEIS A000081: rooted trees on n unlabeled vertices, n = 1 .. 16.
A000081 = (1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766, 12486, 32973, 86810, 235381)


# --- trees, independently of the package -------------------------------------


def parse_tree(text):
    """Nested tuples of children from parenthesis notation (no sorting)."""
    stack = [[]]
    for ch in text:
        if ch == "(":
            stack.append([])
        elif ch == ")":
            node = tuple(stack.pop())
            stack[-1].append(node)
        else:
            raise ValueError(f"unexpected character {ch!r}")
    if len(stack) != 1 or len(stack[0]) != 1:
        raise ValueError("not exactly one balanced tree")
    return stack[0][0]


def canonical_key(tree):
    """Children keys sorted shortlex, the package's documented canonical form."""
    keys = sorted((canonical_key(c) for c in tree), key=lambda k: (len(k), k))
    return "(" + "".join(keys) + ")"


def vertex_count(tree):
    return 1 + sum(vertex_count(c) for c in tree)


def height(tree):
    return 1 + max((height(c) for c in tree), default=-1)


def subtree_sizes(tree):
    out = [vertex_count(tree)]
    for child in tree:
        out.extend(subtree_sizes(child))
    return out


def automorphisms(tree):
    """Product over vertices of m! for each block of m isomorphic children."""
    total = 1
    for m in Counter(canonical_key(c) for c in tree).values():
        total *= factorial(m)
    return total * prod(automorphisms(c) for c in tree)


def all_trees(n):
    """Canonical keys of every rooted tree on n vertices, by adding a leaf
    to every vertex of every tree on n - 1 vertices."""
    level = {"()"}
    for _ in range(n - 1):
        grown = set()
        for key in level:
            grown.update(_with_leaf_everywhere(parse_tree(key)))
        level = grown
    return level


def _with_leaf_everywhere(tree):
    yield canonical_key(tree + ((),))
    for i, child in enumerate(tree):
        for grown in _with_leaf_everywhere(child):
            yield canonical_key(tree[:i] + (parse_tree(grown),) + tree[i + 1 :])


def labeling_counts(tree, m_max, strict):
    """[count(m) for m = 0 .. m_max], where count(m) is the number of
    labelings by {1..m} that increase (strict) or do not decrease (weak)
    from each vertex to its children.

    The number of labelings of a subtree whose root gets label l out of
    {1..m} depends only on k = m - l, the labels left above it, so one
    table ways[k] serves every m: count(m) = ways[0] + ... + ways[m - 1].
    """

    def ways(node):
        out = [1] * m_max
        for child in node:
            below = ways(child)
            running = 0
            for k in range(m_max):
                if not strict:
                    running += below[k]
                out[k] *= running
                if strict:
                    running += below[k]
        return out

    table = ways(tree)
    counts = [0]
    for k in range(m_max):
        counts.append(counts[-1] + table[k])
    return counts


# --- rendered values -----------------------------------------------------------


def poly(rendered):
    return [Fraction(c) for c in rendered]


def poly_at(coeffs, x):
    value = Fraction(0)
    for c in reversed(coeffs):
        value = value * x + c
    return value


def qsym(rendered):
    return {tuple(t["composition"]): Fraction(t["coefficient"]) for t in rendered}


def words(rendered):
    return {tuple(t["word"]): Fraction(t["coefficient"]) for t in rendered}


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def cayley(n):
    return Fraction(n ** (n - 1), factorial(n))


def _first_bad(pairs):
    for ok, reason in pairs:
        if not ok:
            return reason
    return None


# --- generating functions ------------------------------------------------------


def check_u_terms(op, order, rendered_terms):
    """Closed forms for U_1 .. U_order of each shipped invariant."""
    if len(rendered_terms) != order:
        return f"expected {order} terms, got {len(rendered_terms)}"
    for n, rendered in enumerate(rendered_terms, start=1):
        if op in ("delta-inv", "nabla-inv"):
            c = poly(rendered)
            if len(c) != n + 1:
                return f"U_{n} has degree {len(c) - 1}, expected {n}"
            if op == "delta-inv":
                bad = _first_bad([
                    (c[n] == Fraction(1, n), f"[t^{n}]U_{n} = {c[n]}, expected 1/{n}"),
                    (poly_at(c, 0) == 0, f"U_{n}(0) is not 0"),
                    (poly_at(c, 1) == (1 if n == 1 else 0), f"U_{n}(1) = {poly_at(c, 1)}"),
                ])
            else:
                bad = _first_bad([(poly_at(c, 1) == cayley(n), f"U_{n}(1) = {poly_at(c, 1)}")])
        else:
            q = qsym(rendered)
            if any(sum(comp) != n for comp in q):
                return f"U_{n} is not homogeneous of degree {n}"
            if op == "lambda-bar":
                got = q.get((1,) * n, Fraction(0))
                bad = None if got == factorial(n - 1) else f"[M_(1^{n})]U_{n} = {got}"
            else:
                got = q.get((n,), Fraction(0))
                bad = None if got == cayley(n) else f"[M_({n})]U_{n} = {got}"
        if bad:
            return bad
    return None


def check_zero_series(order, rendered):
    """A residual through q^order whose coefficients all render as zero."""
    if len(rendered) != order + 1:
        return f"residual has {len(rendered)} coefficients, expected {order + 1}"
    for k, c in enumerate(rendered):
        if c not in ([], "0"):
            return f"residual coefficient of q^{k} is not zero"
    return None


def check_planar_terms(labels, order, per_label):
    """Every word of length n gets Catalan(n - 1); the label-a part holds
    exactly the words that start with a."""
    if list(per_label) != list(labels):
        return f"per-label keys {list(per_label)} != {list(labels)}"
    for label, terms in per_label.items():
        if len(terms) != order:
            return f"label {label}: expected {order} terms, got {len(terms)}"
        for n, rendered in enumerate(terms, start=1):
            got = words(rendered)
            expected = {(label,) + rest for rest in product(labels, repeat=n - 1)}
            if set(got) != expected:
                return f"label {label}, n={n}: wrong word set"
            if any(c != catalan(n - 1) for c in got.values()):
                return f"label {label}, n={n}: a coefficient is not Catalan({n - 1})"
    return None


# --- census ----------------------------------------------------------------------


def check_tree_list(n, keys):
    """A000081 many distinct canonical trees, each on n vertices."""
    if len(keys) != A000081[n - 1]:
        return f"{len(keys)} trees on {n} vertices, A000081 says {A000081[n - 1]}"
    if len(set(keys)) != len(keys):
        return "duplicate trees"
    for key in keys:
        tree = parse_tree(key)
        if canonical_key(tree) != key or vertex_count(tree) != n:
            return f"{key} is not a canonical tree on {n} vertices"
    return None


def check_cayley_report(n_max, report):
    rows = report["rows"]
    if [row["n"] for row in rows] != list(range(1, n_max + 1)):
        return "rows do not cover 1..n_max"
    for row in rows:
        closed = cayley(row["n"])
        if Fraction(row["tree_sum"]) != closed or Fraction(row["closed_form"]) != closed:
            return f"n={row['n']}: tree sum {row['tree_sum']} != {closed}"
        if row["equal"] is not True:
            return f"n={row['n']}: equal flag is not set"
    if report["residual_zero"] is not True or report["ok"] is not True:
        return "residual or ok flag is not set"
    return None


def strict_polynomial_signature(key):
    """Strict labeling counts at m = 0 .. n; they fix the degree-n order
    polynomial, so equal signatures mean equal delta-inv and (by
    reciprocity) equal nabla-inv values."""
    tree = parse_tree(key)
    return tuple(labeling_counts(tree, vertex_count(tree), True))


@lru_cache(maxsize=None)
def polynomial_collisions(n_max):
    """Unordered pairs of distinct trees with equal order polynomials."""
    pairs = set()
    for n in range(1, n_max + 1):
        groups = {}
        for key in all_trees(n):
            groups.setdefault(strict_polynomial_signature(key), []).append(key)
        for bucket in groups.values():
            pairs.update(frozenset((a, b)) for a in bucket for b in bucket if a < b)
    return pairs


def check_collisions(op, n_max, rendered_pairs):
    """Keys and alpha recomputed here; polynomial collisions must match an
    independent search exactly, and quasi-symmetric ones (a refinement)
    must be among them."""
    seen = set()
    for pair in rendered_pairs:
        a, b = pair["colliding_trees"]
        ta, tb = parse_tree(a), parse_tree(b)
        n = pair["n"]
        bad = _first_bad([
            (pair["invariant"] == op, f"invariant {pair['invariant']} != {op}"),
            (canonical_key(ta) == a and canonical_key(tb) == b, "non-canonical key"),
            (a != b and vertex_count(ta) == vertex_count(tb) == n, f"bad pair {a} {b}"),
            (pair["alpha"] == [automorphisms(ta), automorphisms(tb)], f"wrong alpha for {a} {b}"),
            (pair["alpha_collision"] == (pair["alpha"][0] == pair["alpha"][1]), "wrong alpha_collision"),
        ])
        if bad:
            return bad
        seen.add(frozenset((a, b)))
    if len(seen) != len(rendered_pairs):
        return "a pair is reported twice"
    expected = polynomial_collisions(n_max)
    if op in ("delta-inv", "nabla-inv"):
        if seen != expected:
            return f"{len(seen)} colliding pairs, independent search finds {len(expected)}"
    elif not seen <= expected:
        return "a quasi-symmetric collision is not an order-polynomial collision"
    return None


# --- requests ---------------------------------------------------------------------


def hooks(tree):
    return prod(subtree_sizes(tree))


def check_invariant_reply(op, tree_text, reply):
    """One `invariant` request: key, alpha and value of the tree."""
    tree = parse_tree(tree_text)
    n = vertex_count(tree)
    key = canonical_key(tree)
    bad = _first_bad([
        (reply["tree"] == key, f"tree {reply['tree']} != {key}"),
        (reply["operator"] == op, "wrong operator"),
        (reply["alpha"] == automorphisms(tree), f"alpha {reply['alpha']} != {automorphisms(tree)}"),
    ])
    if bad:
        return bad
    lead = Fraction(1, hooks(tree))
    if op in ("delta-inv", "nabla-inv"):
        strict_counts = labeling_counts(tree, n, True)
        c = poly(reply["value"])
        if len(c) != n + 1 or c[n] != lead:
            return f"degree/leading coefficient wrong: want {n} and {lead}"
        if op == "delta-inv":
            h = height(tree)
            return _first_bad(
                [(poly_at(c, m) == 0, f"strict({m}) != 0") for m in range(h + 1)]
                + [(poly_at(c, h + 1) > 0, f"strict({h + 1}) is not positive")]
                + [(poly_at(c, m) == strict_counts[m], f"strict({m}) != count")
                   for m in range(h + 1, n + 1)]
            )
        sign = -1 if n % 2 else 1
        return _first_bad(
            [(poly_at(c, 1) == 1, "weak(1) != 1")]
            + [(sign * poly_at(c, -m) == strict_counts[m], f"reciprocity fails at {m}")
               for m in range(1, n + 1)]
        )
    q = qsym(reply["value"])
    if any(sum(comp) != n for comp in q):
        return f"value is not homogeneous of degree {n}"
    strict = op == "lambda-bar"
    bad = _first_bad([
        (q.get((1,) * n) == factorial(n) * lead, f"[M_(1^{n})] != n!/hooks"),
        (strict or q.get((n,)) == 1, f"[M_({n})] != 1"),
    ])
    if bad:
        return bad
    # principal specialization x_1 = .. = x_m = 1 gives the labeling count
    counts = labeling_counts(tree, n, strict)
    by_length = Counter()
    for comp, c in q.items():
        by_length[len(comp)] += c
    for m in range(1, n + 1):
        special = sum(c * comb(m, length) for length, c in by_length.items())
        if special != counts[m]:
            return f"principal specialization at m={m} != labeling count"
    return None


def planar_preorder(text):
    """Labels of a planar tree "(a:(b:)...)" in preorder."""
    out = []
    i = 0
    while i < len(text):
        if text[i] == "(":
            colon = text.index(":", i)
            out.append(text[i + 1 : colon])
            i = colon + 1
        else:
            i += 1
    return out


def check_planar_reply(tree_text, reply):
    """A free-word planar value is its preorder label word, coefficient 1."""
    expected = [{"word": planar_preorder(tree_text), "coefficient": "1"}]
    return _first_bad([
        (reply["tree"] == tree_text, "tree text changed"),
        (reply["value"] == expected, "value is not the preorder word with coefficient 1"),
    ])


def check_cli(argv, code, stdout, stderr):
    if code != 0 or stderr:
        return f"exit {code}: {stderr.strip()[:200]}"
    try:
        reply = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    flags = dict(zip(argv[1::2], argv[2::2]))
    if argv[0] == "invariant":
        return check_invariant_reply(flags["--operator"], flags["--tree"], reply)
    return check_planar_reply(flags["--tree"], reply)
