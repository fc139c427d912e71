"""Invariant engine: recursive evaluation, the four shipped invariants,
brute-force oracles, and collision reporting, with its fingerprints
checked against the suffix evaluations built from each exact value."""

import functools
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestinv import engine
from forestinv.algebra import Polynomial, QSym, principal_specialization, quasi_shuffle
from forestinv.engine import (
    BUILT_IN_NAMES,
    CLASS_CACHE_TERM_LIMIT,
    POLY_DEGREE_LIMIT,
    QSYM_TERM_LIMIT,
    InvariantSpec,
    built_in_spec,
    check_class_cache,
    collision_report,
    evaluate,
    evaluate_forest,
    order_poly,
    qsym_strict,
    qsym_strict_spec,
    qsym_weak,
    qsym_weak_spec,
    strict_order_poly,
    strict_order_spec,
    weak_order_spec,
)
from forestinv.errors import DomainError, ResourceLimitError
from forestinv.operators import DELTA_INV, LinearOperator, POLYNOMIAL, lambda_, lambda_bar
from forestinv.oracles import (
    brute_force_order_count,
    brute_force_qsym,
    check_labeling_brute_force,
    count_trees_by_level_sequence,
    count_root_automorphisms,
    qsym_to_finite,
)
from forestinv.render import render_value
from forestinv.trees import (
    _ENUMERATION_CAP,
    _TREE_COUNTS,
    DEPTH_LIMIT,
    EMPTY_FOREST,
    SINGLETON,
    RootedForest,
    automorphism_order,
    b_plus,
    enumerate_forests,
    enumerate_trees,
    parse_forest,
    parse_tree,
    remove_root,
)
from references import evaluate_by_chain, strict_terms_by_complement, suffix_values

T = Polynomial.t()


def test_leaf_values():
    assert strict_order_poly(SINGLETON) == T
    assert order_poly(SINGLETON) == T
    assert qsym_strict(SINGLETON) == QSym.monomial((1,))
    assert qsym_weak(SINGLETON) == QSym.monomial((1,))


def test_two_vertex_chain():
    chain = parse_tree("(())")
    assert strict_order_poly(chain) == Fraction(1, 2) * (T * T - T)
    assert order_poly(chain) == Fraction(1, 2) * (T * T + T)
    assert qsym_strict(chain) == QSym.monomial((1, 1))
    assert qsym_weak(chain) == QSym({(1, 1): 1, (2,): 1})


def test_cherry_values():
    cherry = parse_tree("(()())")
    assert strict_order_poly(cherry) == Polynomial(
        (0, Fraction(1, 6), Fraction(-1, 2), Fraction(1, 3))
    )
    assert qsym_strict(cherry) == QSym({(1, 1, 1): 2, (1, 2): 1})


def test_forest_values():
    assert evaluate_forest(EMPTY_FOREST, strict_order_spec()) == Polynomial.one()
    two_leaves = parse_forest("()()")
    assert evaluate_forest(two_leaves, strict_order_spec()) == T * T
    spec = qsym_weak_spec(2)
    assert evaluate_forest(parse_forest("()"), spec) == QSym.monomial((1,))


def monomial_spec(name):
    """The built-in polynomial spec's operator function under a
    LinearOperator of another name, which has no grid model, so
    `evaluate` takes the carrier recursion that the grid replaced."""
    operator = LinearOperator(f"monomial-{name}", POLYNOMIAL, built_in_spec(name).operator.apply)
    return InvariantSpec(name, operator, Polynomial.one())


def monomial_strict_spec():
    return monomial_spec("delta-inv")


GRID_SPECS = {"delta-inv": strict_order_spec, "nabla-inv": weak_order_spec}
POLYNOMIAL_NAMES = tuple(GRID_SPECS)


@pytest.mark.parametrize(
    "carrier, new_spec",
    [(Polynomial, strict_order_spec), (Polynomial, monomial_strict_spec), (QSym, qsym_weak_spec)],
)
def test_evaluation_never_multiplies_by_the_unit(monkeypatch, carrier, new_spec):
    # a root with k children makes k - 1 products, a forest of k trees
    # k - 1 more, and a path none: the product starts from the first factor;
    # on the grid a tree's value is read back from its values, so the tree
    # makes no carrier product at all.  A QSym run of leaves is one
    # closed-form power, which makes no product either, so there each
    # child is a two-vertex path, not a leaf
    count = [0]
    carrier_mul = carrier.__mul__

    def counting_mul(self, other):
        if isinstance(other, carrier):  # scalar multiples are not counted
            count[0] += 1
        return carrier_mul(self, other)

    monkeypatch.setattr(carrier, "__mul__", counting_mul)
    child = "()" if carrier is Polynomial else "(())"
    for k in range(5):
        spec = new_spec()
        evaluate(parse_tree(child), spec)  # the child value, cached
        count[0] = 0
        star = parse_tree("(" + child * k + ")")
        evaluate(star, spec)
        assert count[0] == (0 if spec.on_grid else max(k - 1, 0))
        count[0] = 0
        evaluate_forest(parse_forest("()" * k), spec)
        assert count[0] == max(k - 1, 0)
    count[0] = 0
    evaluate(parse_tree("(" * 8 + ")" * 8), new_spec())
    assert count[0] == 0


def test_forest_multiplicativity():
    specs = [strict_order_spec(), weak_order_spec(), qsym_strict_spec(6), qsym_weak_spec(6)]
    for spec in specs:
        for n in range(0, 5):
            for left in enumerate_forests(n):
                for m in range(0, 6 - n):
                    for right in enumerate_forests(m):
                        union = RootedForest(tuple(left) + tuple(right))
                        assert evaluate_forest(union, spec) == evaluate_forest(
                            left, spec
                        ) * evaluate_forest(right, spec)


def test_grafting_recursion():
    # the tree value is the operator applied to the forest value
    specs = [strict_order_spec(), weak_order_spec(), qsym_strict_spec(7), qsym_weak_spec(7)]
    for spec in specs:
        for n in range(0, 6):
            for forest in enumerate_forests(n):
                grafted = b_plus(forest)
                assert evaluate(grafted, spec) == spec.operator(
                    evaluate_forest(forest, spec)
                )
                assert evaluate_forest(remove_root(grafted), spec) == evaluate_forest(
                    forest, spec
                )


def test_evaluation_is_isomorphism_invariant():
    rng = random.Random(47)
    spec = strict_order_spec()
    for n in range(1, 8):
        for tree in enumerate_trees(n):
            kids = list(tree.children)
            rng.shuffle(kids)
            scrambled = b_plus(RootedForest(kids))
            assert evaluate(scrambled, spec) == evaluate(tree, spec)


def test_memoization_returns_identical_values():
    spec = strict_order_spec()
    tree = parse_tree("(()(()))")
    assert evaluate(tree, spec) is evaluate(parse_tree("((())())"), spec)


def test_qsym_values_are_homogeneous():
    for n in range(1, 8):
        for tree in enumerate_trees(n):
            assert qsym_strict(tree).homogeneous_degree() == n
            assert qsym_weak(tree).homogeneous_degree() == n


def test_qsym_term_estimates_bound_the_values():
    (strict, _, _), (weak, _, _) = (built_in_spec(name).guard for name in ("lambda-bar", "lambda"))
    for n in range(1, 10):
        for tree in enumerate_trees(n):
            shape = (tree.vertex_count, tree.height)
            terms = len(qsym_strict(tree).terms)
            assert terms <= strict(*shape)
            if tree.height in (1, n - 1):  # stars and paths
                assert terms == strict(*shape)
            assert len(qsym_weak(tree).terms) == weak(*shape) == 2 ** (n - 1)
    # past 2^64 the estimates stop growing; a deep tree's stays exact
    assert weak(10**15, 1) == strict(10**15, 1) == 2**64
    assert strict(400, 398) == 1 + 398


def test_strict_term_estimate_matches_its_complement_oracle():
    # the guard sums the long compositions, the oracle subtracts the short
    # ones from 2^(n-2); past n - 2 = 64 both cut a shallow tree to 2^64
    strict, _, _ = built_in_spec("lambda-bar").guard
    for n in range(2, 300):
        for height in range(1, n):
            assert strict(n, height) == strict_terms_by_complement(n, height), (n, height)


def test_qsym_term_guard():
    # a 16-vertex path under lambda is at the limit, and is built
    at_limit = parse_tree("(" * 16 + ")" * 16)
    assert len(evaluate(at_limit, qsym_weak_spec(None)).terms) == QSYM_TERM_LIMIT
    big_star = b_plus(RootedForest([SINGLETON] * 20))
    path = parse_tree("(" * 40 + ")" * 40)
    for tree, spec in ((big_star, qsym_strict_spec(None)), (path, qsym_weak_spec(None))):
        with pytest.raises(ResourceLimitError, match=str(QSYM_TERM_LIMIT)):
            evaluate(tree, spec)
        assert spec._cache == {}


def test_poly_degree_guard():
    strict = built_in_spec("delta-inv")
    estimate, limit, _ = strict.guard
    assert limit == POLY_DEGREE_LIMIT
    assert estimate(30, 29) == evaluate(parse_tree("(" * 30 + ")" * 30), strict).degree == 30
    path = parse_tree("(" * 257 + ")" * 257)
    star = b_plus(RootedForest([SINGLETON] * 300))
    for tree in (path, star):
        for spec in (strict_order_spec(), weak_order_spec()):
            with pytest.raises(ResourceLimitError, match=f"{tree.vertex_count}.*{limit}"):
                evaluate(tree, spec)
            assert spec._cache == {}


def test_qsym_bound_too_small():
    cherry = parse_tree("(()())")
    with pytest.raises(DomainError) as err:
        evaluate(cherry, qsym_strict_spec(2))
    assert str(err.value) == "the lambda-bar value of a tree on 3 vertices outgrows the degree bound 2"
    # the depth check comes first, as on a spec with no bound
    deep = parse_tree("(" * (DEPTH_LIMIT + 1) + ")" * (DEPTH_LIMIT + 1))
    with pytest.raises(ResourceLimitError, match=f"limit of {DEPTH_LIMIT} levels"):
        evaluate(deep, qsym_strict_spec(2))


def test_shared_qsym_specs_serve_every_size():
    shared_values = (("lambda-bar", qsym_strict, qsym_strict_spec(7)),
                     ("lambda", qsym_weak, qsym_weak_spec(7)))
    for name, value_of, fresh in shared_values:
        shared = built_in_spec(name)
        for n in range(1, 8):
            for tree in enumerate_trees(n):
                assert evaluate(tree, shared) == evaluate(tree, fresh)
        # one cache serves every size: evaluating a 7-vertex tree fills in
        # its 3-vertex subtrees, which qsym_strict and qsym_weak then reuse
        shared._cache.clear()
        evaluate(parse_tree("(((()))(()()))"), shared)
        for key in ("((()))", "(()())"):
            assert value_of(parse_tree(key)) is shared._cache[key]


def test_order_polynomials_match_brute_force():
    for n in range(1, 7):
        for tree in enumerate_trees(n):
            strict = strict_order_poly(tree)
            weak = order_poly(tree)
            for m in range(0, 6):
                assert strict(m) == brute_force_order_count(tree, m, strict=True)
                assert weak(m) == brute_force_order_count(tree, m, strict=False)


def test_brute_force_examples():
    chain = parse_tree("(())")
    assert brute_force_order_count(chain, 2, strict=True) == 1
    assert brute_force_order_count(chain, 2, strict=False) == 3
    assert brute_force_order_count(SINGLETON, 5, strict=True) == 5


def test_brute_force_guard():
    big = parse_tree("(" + "()" * 9 + ")")
    with pytest.raises(ResourceLimitError):
        brute_force_order_count(big, 10, strict=True)
    with pytest.raises(ResourceLimitError):
        brute_force_qsym(big, 10, strict=True)


def test_labeling_guard_counts_every_class():
    # t_n times the assignments each suite tries on a tree of n vertices,
    # with the tree counts from the level sequences: the qsym oracle scans
    # (n + 2)^n strict and weak, the order oracle m^n for each m <= ORDER_ORACLE_M_MAX
    def estimate(max_n, assignments):
        return sum(count_trees_by_level_sequence(n) * assignments(n) for n in range(1, max_n + 1))

    def qsym_oracle(n):
        return 2 * (n + 2) ** n

    def order_oracle(n):
        return 2 * sum(m**n for m in range(6))

    for max_n, assignments, expected in ((6, qsym_oracle, 10799192), (7, order_oracle, 10204322)):
        assert estimate(max_n, assignments) == expected
        with pytest.raises(
            ResourceLimitError,
            match=f"would try {expected} assignments, over the limit of 10000000",
        ):
            check_labeling_brute_force(max_n, assignments)
    # the suites' default sizes stay admitted
    assert (estimate(5, qsym_oracle), estimate(6, order_oracle)) == (313432, 909122)
    check_labeling_brute_force(5, qsym_oracle)
    check_labeling_brute_force(6, order_oracle)
    # a huge size is refused from a bounded sum, and no assignment scans nothing
    with pytest.raises(ResourceLimitError, match=r"2\^64 or more assignments"):
        check_labeling_brute_force(10**9, lambda n: 1)
    check_labeling_brute_force(10**9, lambda n: 0)


# A000081: rooted trees on n = 1 .. 16 vertices
A000081 = (1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766, 12486, 32973, 87811, 235381)


def test_tree_count_table_is_a000081_through_the_enumeration_cap():
    assert _TREE_COUNTS == (0, *A000081[:_ENUMERATION_CAP])
    assert [len(enumerate_trees(n)) for n in range(1, 11)] == list(A000081[:10])


def test_class_cache_guard_sums_the_star_estimate_over_the_cached_classes():
    # lambda values on k vertices have 2^(k-1) terms, a lambda-bar star 2^(k-2)
    def weak(largest):
        return sum(A000081[k - 1] << (k - 1) for k in range(1, largest + 1))

    def strict(largest):
        return 1 + sum(A000081[k - 1] << (k - 2) for k in range(2, largest + 1))

    assert CLASS_CACHE_TERM_LIMIT == 2**23
    # the enumeration build of lambda through order 12 and lambda-bar 13
    assert (weak(11), strict(12)) == (2346171, 6053470)
    check_class_cache(built_in_spec("lambda"), 11)
    check_class_cache(built_in_spec("lambda-bar"), 12)
    for name, largest, size in (
        ("lambda", 12, weak(12)),
        ("lambda", 13, weak(13)),
        ("lambda-bar", 13, strict(13)),
    ):
        with pytest.raises(ResourceLimitError) as err:
            check_class_cache(built_in_spec(name), largest)
        assert str(err.value) == (
            f"caching the {name} values of every tree on 1 to {largest} vertices takes "
            f"an estimated {size} terms, over the limit of 8388608"
        )
    # a polynomial's degree stays far inside the limit, and a spec without
    # a guard is never refused
    for name in ("delta-inv", "nabla-inv"):
        check_class_cache(built_in_spec(name), _ENUMERATION_CAP)
    unguarded = LinearOperator("twice", POLYNOMIAL, lambda g: 2 * g)
    check_class_cache(InvariantSpec("twice", unguarded, Polynomial.one()), _ENUMERATION_CAP)


def test_brute_force_takes_deep_trees():
    # one label admits a single assignment however deep the tree is
    path = parse_tree("(" * 1200 + ")" * 1200)
    assert brute_force_order_count(path, 1, strict=False) == 1
    assert brute_force_order_count(path, 1, strict=True) == 0
    assert brute_force_order_count(path, 0) == 0
    with pytest.raises(ResourceLimitError):
        count_root_automorphisms(path)


def test_qsym_matches_brute_force_expansion():
    for n in range(1, 6):
        m = n + 2
        for tree in enumerate_trees(n):
            assert qsym_to_finite(qsym_strict(tree), m) == brute_force_qsym(
                tree, m, strict=True
            )
            assert qsym_to_finite(qsym_weak(tree), m) == brute_force_qsym(
                tree, m, strict=False
            )


def test_brute_force_qsym_examples():
    chain = parse_tree("(())")
    got = brute_force_qsym(chain, 2, strict=True)
    assert dict(got.terms) == {(1, 1): 1}
    got = brute_force_qsym(chain, 2, strict=False)
    assert dict(got.terms) == {(1, 1): 1, (2, 0): 1, (0, 2): 1}


def test_specialization_bridge():
    for n in range(1, 7):
        for tree in enumerate_trees(n):
            strict = strict_order_poly(tree)
            weak = order_poly(tree)
            ks = qsym_strict(tree)
            kw = qsym_weak(tree)
            for m in range(0, 7):
                assert principal_specialization(ks, m) == strict(m)
                assert principal_specialization(kw, m) == weak(m)


def test_collision_report_clean_cases():
    assert collision_report(5, qsym_strict_spec(5)) == []
    assert collision_report(3, strict_order_spec()) == []
    assert collision_report(1, weak_order_spec()) == []


def test_order_polynomial_collision_on_five_vertices():
    # the polynomial invariant genuinely collides at n = 5; the finer
    # quasi-symmetric invariant separates the same pair
    pairs = collision_report(5, strict_order_spec())
    assert [(p.n, p.tree_a, p.tree_b) for p in pairs] == [
        (5, "((()()()))", "((())(()))")
    ]
    pair = pairs[0]
    assert (pair.alpha_a, pair.alpha_b) == (6, 2)
    assert not pair.alpha_collision
    a, b = parse_tree(pair.tree_a), parse_tree(pair.tree_b)
    assert strict_order_poly(a) == strict_order_poly(b)
    assert order_poly(a) == order_poly(b)
    assert qsym_strict(a) != qsym_strict(b)
    weak_pairs = collision_report(5, weak_order_spec())
    assert [(p.tree_a, p.tree_b) for p in weak_pairs] == [(pair.tree_a, pair.tree_b)]


@pytest.mark.parametrize("spec", [strict_order_spec(), weak_order_spec()])
def test_each_polynomial_collision_has_a_witness_at_different_alpha(spec):
    # if T and T' share a value, so do B+(T, T'), B+(T, T) and B+(T', T'),
    # the operator of one product; their alpha are alpha(T) alpha(T'),
    # 2 alpha(T)^2 and 2 alpha(T')^2, and the doubled ones cannot both
    # equal the first, so Psi is not finer than alpha on 2n + 1 vertices;
    # 14 pairs through n = 7 for each operator
    pairs = collision_report(7, spec)
    assert len(pairs) == 14
    for pair in pairs:
        a, b = parse_tree(pair.tree_a), parse_tree(pair.tree_b)
        mixed, doubled_a, doubled_b = (b_plus([x, y]) for x, y in ((a, b), (a, a), (b, b)))
        assert mixed.vertex_count == 2 * pair.n + 1
        assert evaluate(mixed, spec) == evaluate(doubled_a, spec) == evaluate(doubled_b, spec)
        alphas = [automorphism_order(tree) for tree in (mixed, doubled_a, doubled_b)]
        assert alphas == [pair.alpha_a * pair.alpha_b, 2 * pair.alpha_a**2, 2 * pair.alpha_b**2]
        assert alphas[0] != alphas[1] or alphas[0] != alphas[2]


def test_collision_report_flags_alpha():
    # a constant invariant collides everywhere; alpha flags must be right
    constant = InvariantSpec(
        "constant",
        LinearOperator("constant-one", POLYNOMIAL, lambda p: Polynomial.one()),
        Polynomial.one(),
    )
    pairs = collision_report(3, constant)
    # n=2 contributes nothing (one tree); n=3 has exactly one pair
    assert [(p.n, p.tree_a, p.tree_b) for p in pairs] == [
        (3, "((()))", "(()())")
    ]
    pair = pairs[0]
    assert (pair.alpha_a, pair.alpha_b) == (1, 2)
    assert not pair.alpha_collision


def exact_pairs(n_max, spec):
    """The pairs of the grouping the fingerprints replaced: every tree of a
    class evaluated, and the values grouped by their compact JSON form."""
    expected = []
    for n in range(1, n_max + 1):
        groups = {}
        for tree in enumerate_trees(n):
            rendered = json.dumps(
                render_value(evaluate(tree, spec)), sort_keys=True, separators=(",", ":")
            )
            groups.setdefault(rendered, []).append(tree.key)
        for bucket in groups.values():
            expected.extend((n, a, b) for a, b in itertools.combinations(bucket, 2))
    return expected


def reported_pairs(n_max, spec):
    return [(p.n, p.tree_a, p.tree_b) for p in collision_report(n_max, spec)]


@pytest.mark.parametrize("name", BUILT_IN_NAMES)
def test_collision_report_groups_as_the_rendered_values_do(name):
    spec = built_in_spec(name)
    assert reported_pairs(10, spec) == exact_pairs(10, spec)


@pytest.mark.parametrize("name", ("lambda-bar", "lambda"))
def test_collision_report_splits_buckets_that_collide_by_chance(monkeypatch, name):
    # mod 3 most unequal quasi-symmetric values share a fingerprint, so
    # confirmation must split buckets, and the output is still the exact
    # grouping
    monkeypatch.setattr(engine, "_MODULUS", 3)
    spec = built_in_spec(name)
    grid = engine._Grid(spec.grid_model, 7)
    split = 0
    for n in range(1, 8):
        buckets = {}
        for tree in enumerate_trees(n):
            buckets.setdefault(grid.walk(tree), set()).add(evaluate(tree, spec))
        split += sum(len(values) > 1 for values in buckets.values())
    assert split > 0
    assert reported_pairs(7, spec) == exact_pairs(7, spec)


@pytest.mark.parametrize("name", BUILT_IN_NAMES)
def test_fingerprints_are_the_suffix_values_of_the_exact_values(name):
    # entry j on m points is the value on the first j points, x_j the
    # least variable: the suffix values on the points in reverse, read
    # backwards; the polynomial points are all ones
    spec = built_in_spec(name)
    m = 8
    grid = engine._Grid(spec.grid_model, m)
    points = engine._GRID_MODELS[spec.operator][2] or (1,) * m
    points = points[m - 1 :: -1]
    for n in range(1, m + 1):
        for tree in enumerate_trees(n):
            fingerprint = tuple(v % engine._MODULUS for v in grid.walk(tree))
            assert fingerprint == suffix_values(
                evaluate(tree, spec), points, engine._MODULUS
            )[::-1], tree.key


@pytest.mark.parametrize("name", POLYNOMIAL_NAMES)
def test_polynomial_fingerprints_are_the_exact_values_at_t_0_to_m(monkeypatch, name):
    # no modulus touches them, so mod 3 cannot make two of them collide,
    # and the buckets of `collision_report` are the groups themselves
    monkeypatch.setattr(engine, "_MODULUS", 3)
    m = 9
    grid = engine._Grid(built_in_spec(name).grid_model, m)
    monomial = monomial_spec(name)
    for n in range(1, m + 1):
        for tree in enumerate_trees(n):
            value = evaluate(tree, monomial)
            assert grid.walk(tree) == tuple(map(value, range(m + 1))), tree.key
    assert collision_report(m, built_in_spec(name)) == collision_report(m, monomial)


# the largest forest size N at which each operator's forests are checked
# against its trees on N + 1 vertices
THEOREM_SIZES = {"delta-inv": 9, "nabla-inv": 9, "lambda-bar": 11, "lambda": 11}


def colliding_pairs(values_by_key):
    """The pairs of keys of each group of equal values, as sets."""
    groups = {}
    for key, value in values_by_key:
        groups.setdefault(value, []).append(key)
    return {frozenset(pair) for keys in groups.values() for pair in itertools.combinations(keys, 2)}


@pytest.mark.parametrize("name", BUILT_IN_NAMES)
def test_forests_on_n_vertices_separate_iff_the_trees_on_n_plus_1_do(name):
    # the paper's theorem: the invariant separates the forests on at most N
    # vertices iff it separates the trees on at most N + 1.  A forest's
    # fingerprint is the pointwise product of its trees' fingerprints, a
    # shared bucket is confirmed by the exact values, and grafting carries
    # the colliding forests on n vertices onto the colliding trees on n + 1,
    # so either set is empty iff the other is
    spec, largest = built_in_spec(name), THEOREM_SIZES[name]
    grid = engine._Grid(spec.grid_model, largest + 1)
    grafted = set()
    for n in range(1, largest + 1):
        buckets = {}
        for forest in enumerate_forests(n):
            fingerprint = functools.reduce(engine._times, map(grid.walk, forest), grid.one)
            buckets.setdefault(fingerprint, []).append(forest)
        for forests in buckets.values():
            if len(forests) > 1:
                exact = colliding_pairs((f, evaluate_forest(f, spec)) for f in forests)
                grafted |= {frozenset(b_plus(f).key for f in pair) for pair in exact}
    trees = {frozenset((p.tree_a, p.tree_b)) for p in collision_report(largest + 1, spec)}
    assert grafted == trees
    if name in POLYNOMIAL_NAMES:
        assert trees


def test_fingerprint_points_are_distinct_residues_past_one():
    points = engine._POINTS
    assert len(points) >= _ENUMERATION_CAP
    assert len(set(points)) == len(points)
    assert all(1 < x < engine._MODULUS for x in points)


def test_collision_report_evaluates_every_tree_of_a_spec_with_another_unit():
    # with unit 0 every value is 0, so all trees of a class collide; the
    # built-in operator's fingerprints, made for unit 1, would split them
    zero = InvariantSpec("zero", DELTA_INV, Polynomial.zero())
    assert reported_pairs(5, zero) == [
        (n, a.key, b.key)
        for n in range(1, 6)
        for a, b in itertools.combinations(enumerate_trees(n), 2)
    ]


FINGERPRINT_VARIABLES = 5
SMALL_COMPOSITIONS = (
    st.lists(st.integers(1, 3), max_size=3)
    .filter(lambda parts: sum(parts) <= FINGERPRINT_VARIABLES)
    .map(tuple)
)
INTEGER_QSYMS = st.dictionaries(
    SMALL_COMPOSITIONS, st.integers(-5, 5), max_size=4
).map(QSym)


def suffix_sums(values, points, weak):
    """w_i = sum over k >= i of x_k v_k (weak) or x_k v_(k+1) (strict)."""
    m = len(points)
    return tuple(
        sum(points[k] * values[k if weak else k + 1] for k in range(i, m)) % engine._MODULUS
        for i in range(m + 1)
    )


@settings(max_examples=60, deadline=None)
@given(INTEGER_QSYMS, INTEGER_QSYMS)
def test_suffix_values_are_a_ring_map_that_commutes_with_the_prepends_property(a, b):
    points, p = engine._POINTS[:FINGERPRINT_VARIABLES], engine._MODULUS
    image_a, image_b = suffix_values(a, points, p), suffix_values(b, points, p)
    assert suffix_values(a * b, points, p) == tuple(x * y % p for x, y in zip(image_a, image_b))
    assert suffix_values(lambda_bar(a), points, p) == suffix_sums(image_a, points, weak=False)
    assert suffix_values(lambda_(a), points, p) == suffix_sums(image_a, points, weak=True)


def tree_of_parents(parents):
    """The tree of a parent array, parents[0] = -1 and parents[v] < v."""
    children = [[] for _ in parents]
    for v, p in enumerate(parents[1:], start=1):
        children[p].append(v)

    def build(v):
        return b_plus(RootedForest([build(c) for c in children[v]]))

    return build(0)


@pytest.mark.parametrize("name", POLYNOMIAL_NAMES)
def test_grid_values_equal_the_carrier_recursion_on_every_small_tree(name):
    grid, monomial = GRID_SPECS[name](), monomial_spec(name)
    assert grid.on_grid and not monomial.on_grid
    for n in range(1, 10):
        for tree in enumerate_trees(n):
            assert evaluate(tree, grid) == evaluate(tree, monomial), tree.key
    # only the roots evaluated are cached, not their subtrees
    assert len(grid._cache) == sum(_TREE_COUNTS[1:10])


PARENT_ARRAYS = st.integers(1, 40).flatmap(
    lambda n: st.tuples(*(st.integers(0, v - 1) for v in range(1, n))).map(lambda ps: (-1, *ps))
)


@settings(max_examples=40, deadline=None)
@given(PARENT_ARRAYS, st.sampled_from(POLYNOMIAL_NAMES))
def test_grid_values_equal_the_carrier_recursion_property(parents, name):
    tree = tree_of_parents(parents)
    assert evaluate(tree, GRID_SPECS[name]()) == evaluate(tree, monomial_spec(name))


@settings(max_examples=40, deadline=None)
@given(PARENT_ARRAYS, st.sampled_from(BUILT_IN_NAMES), st.integers(0, 8), st.integers(1, 30))
def test_grid_values_are_prefix_stable_property(parents, name, m, extra):
    # a class walk on order + 1 points and a single tree's on n + 1 must
    # agree: the values on m points are the first m + 1 on any larger grid
    tree, model = tree_of_parents(parents), built_in_spec(name).grid_model
    small = engine._Grid(model, m).walk(tree)
    assert len(small) == m + 1
    assert engine._Grid(model, m + extra).walk(tree)[: m + 1] == small


QSYM_SPECS = {"lambda-bar": qsym_strict_spec, "lambda": qsym_weak_spec}


def broom(vertices):
    """A handle of n/2 vertices whose end carries the rest as leaves."""
    handle = vertices // 2
    return parse_tree("(" * handle + "()" * (vertices - handle) + ")" * handle)


@pytest.mark.parametrize("name", sorted(QSYM_SPECS))
def test_leaf_runs_equal_the_chain_on_stars_and_brooms(name):
    # a run of leaves is one closed-form power; the chain multiplies them
    # one at a time; brooms up to 16 vertices, the most the lambda guard
    # admits
    stars = [parse_tree("(" + "()" * k + ")") for k in range(12)]
    for tree in stars + [broom(n) for n in range(1, 17)]:
        spec = QSYM_SPECS[name]()
        assert evaluate(tree, spec) == evaluate_by_chain(tree, spec), tree.key


# parent arrays where each vertex often hangs from one of the first
# three, so most trees have runs of leaves beside larger children
LEAFY_PARENT_ARRAYS = st.integers(1, 12).flatmap(
    lambda n: st.tuples(
        *(st.integers(0, min(v - 1, 2)) | st.integers(0, v - 1) for v in range(1, n))
    ).map(lambda ps: (-1, *ps))
)


@settings(max_examples=40, deadline=None)
@given(LEAFY_PARENT_ARRAYS, st.sampled_from(sorted(QSYM_SPECS)))
def test_leaf_runs_equal_the_chain_property(parents, name):
    tree, spec = tree_of_parents(parents), QSYM_SPECS[name]()
    assert evaluate(tree, spec) == evaluate_by_chain(tree, spec)


@pytest.mark.parametrize("name", sorted(QSYM_SPECS))
def test_a_star_fills_no_quasi_shuffle_entry(name):
    # the 11 leaves of the 12-vertex star are one power, with no product;
    # the table is emptied first, since other tests fill the pairs that
    # the chain would take
    star = parse_tree("(" + "()" * 11 + ")")
    quasi_shuffle.cache_clear()
    evaluate(star, QSYM_SPECS[name]())
    assert quasi_shuffle.cache_info().currsize == 0


def test_grid_values_of_paths_are_the_closed_forms():
    # a path of n vertices has C(t, n) strict and C(t + n - 1, n) weak
    # labelings from {1..t}, up to the degree limit
    for n in (1, 2, 3, 17, 100, 255, POLY_DEGREE_LIMIT):
        path = parse_tree("(" * n + ")" * n)
        strict, weak = strict_order_spec(), weak_order_spec()
        for t in (*range(0, n + 3), 2 * n, 1000):
            assert evaluate(path, strict)(t) == math.comb(t, n), (n, t)
            assert evaluate(path, weak)(t) == math.comb(t + n - 1, n), (n, t)


def test_collision_report_bound_guard(monkeypatch):
    evaluated = []
    monkeypatch.setattr(engine, "evaluate", lambda tree, spec: evaluated.append(tree))
    # delta-inv has colliding trees on 5 vertices, so a late refusal evaluates
    for spec in (qsym_strict_spec(4), InvariantSpec("delta-inv", DELTA_INV, Polynomial.one(), 5)):
        bound = spec.degree_bound
        with pytest.raises(DomainError) as err:
            collision_report(6, spec)
        assert str(err.value) == (
            f"the {spec.name} value of a tree on 6 vertices outgrows the degree bound {bound}"
        )
    assert evaluated == []


def test_built_in_spec_lookup():
    assert built_in_spec("delta-inv").name == "delta-inv"
    assert built_in_spec("lambda-bar") is built_in_spec("lambda-bar")
    assert built_in_spec("lambda-bar").degree_bound is None
    assert qsym_strict_spec(5).degree_bound == 5
    with pytest.raises(DomainError):
        built_in_spec("unknown")
