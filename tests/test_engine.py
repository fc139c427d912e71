"""Invariant engine: recursive evaluation, the four shipped invariants,
brute-force oracles, and collision reporting."""

import random
from fractions import Fraction

import pytest

from forestinv.algebra import Polynomial, QSym, principal_specialization
from forestinv.engine import (
    POLY_DEGREE_LIMIT,
    QSYM_TERM_LIMIT,
    InvariantSpec,
    built_in_spec,
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
from forestinv.operators import LinearOperator, POLYNOMIAL
from forestinv.oracles import (
    brute_force_order_count,
    brute_force_qsym,
    count_root_automorphisms,
    qsym_to_finite,
)
from forestinv.trees import (
    EMPTY_FOREST,
    SINGLETON,
    RootedForest,
    b_plus,
    enumerate_forests,
    enumerate_trees,
    parse_forest,
    parse_tree,
    remove_root,
)

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
    with pytest.raises(DomainError):
        evaluate(cherry, qsym_strict_spec(2))


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


def test_collision_report_bound_guard():
    with pytest.raises(DomainError):
        collision_report(6, qsym_strict_spec(4))


def test_built_in_spec_lookup():
    assert built_in_spec("delta-inv").name == "delta-inv"
    assert built_in_spec("lambda-bar") is built_in_spec("lambda-bar")
    assert built_in_spec("lambda-bar").degree_bound is None
    assert qsym_strict_spec(5).degree_bound == 5
    with pytest.raises(DomainError):
        built_in_spec("unknown")
