"""Labeled planar trees: parsing, ordered evaluation, censuses, the
geometric fixed point, and the tensor splitting operators."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestinv.algebra import Polynomial
from forestinv.engine import strict_order_poly
from forestinv.errors import DomainError, ParseError, ResourceLimitError
from forestinv.operators import DELTA_INV
from forestinv.oracles import count_dyck_words
from forestinv.planar import (
    GraftCheckReport,
    OperatorFamily,
    PlanarForest,
    PlanarTree,
    b_plus_alpha,
    check_tensor_grafting,
    concat,
    enumerate_planar,
    enumerate_planar_forests,
    evaluate_planar,
    evaluate_planar_forest,
    free_word_family,
    parse_planar_forest,
    parse_planar_tree,
    planar_equation_residual,
    planar_tree_count,
    tensor_cocycle_apply,
    tensor_family,
    u_planar_by_enumeration,
    u_planar_by_recurrence,
    underlying_forest,
    underlying_tree,
)
from forestinv.series import Series, geometric_inverse
from forestinv.trees import DEPTH_LIMIT
from forestinv.words import FreeWord, TensorElement


def word(*letters):
    return FreeWord({tuple(letters): Fraction(1)})


def test_serialize_round_trip():
    text = "(a:(b:)(a:(c:)))"
    tree = parse_planar_tree(text)
    assert tree.serialize() == text
    assert tree.vertex_count == 4
    assert tree.label == "a"
    forest = parse_planar_forest("(a:)(b:(a:))")
    assert forest.serialize() == "(a:)(b:(a:))"
    assert len(forest) == 2
    assert forest.vertex_count == 3


def test_child_order_is_significant():
    left = parse_planar_tree("(a:(b:)(c:))")
    right = parse_planar_tree("(a:(c:)(b:))")
    assert left != right
    assert underlying_tree(left) == underlying_tree(right)


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as err:
        parse_planar_tree("")
    assert err.value.offset == 0
    with pytest.raises(ParseError) as err:
        parse_planar_tree("(a:")
    assert err.value.offset == 3
    with pytest.raises(ParseError) as err:
        parse_planar_tree("(ab)")
    assert err.value.offset == 1
    with pytest.raises(ParseError) as err:
        parse_planar_tree("(:)")
    assert err.value.offset == 1
    with pytest.raises(ParseError) as err:
        parse_planar_tree("(a:)(b:)")
    assert err.value.offset == 4
    with pytest.raises(DomainError):
        PlanarTree("")


def test_grafting_builds_trees():
    forest = parse_planar_forest("(a:)(b:)")
    tree = b_plus_alpha("c", forest)
    assert tree.serialize() == "(c:(a:)(b:))"
    family = free_word_family(["a", "b"])
    with pytest.raises(DomainError):
        b_plus_alpha("c", forest, family)


def test_underlying_forgetting():
    tree = parse_planar_tree("(a:(b:)(c:(a:)))")
    assert underlying_tree(tree).key == "(()(()))"
    forest = parse_planar_forest("(b:(a:))(a:)")
    assert underlying_forest(forest).key == "()(())"


def test_free_word_evaluation():
    family = free_word_family(["a", "b"])
    assert evaluate_planar(parse_planar_tree("(a:)"), family) == word("a")
    assert evaluate_planar(parse_planar_tree("(a:(b:))"), family) == word("a", "b")
    chain = evaluate_planar(parse_planar_tree("(a:(b:)(a:))"), family)
    assert chain == word("a", "b", "a")
    swapped = evaluate_planar(parse_planar_tree("(a:(a:)(b:))"), family)
    assert swapped == word("a", "a", "b")
    assert chain != swapped


def preorder_word(tree):
    """The labels of a planar tree in preorder, read off its text with no
    carrier: each vertex opens as "(label:"."""
    return tuple(re.findall(r"\(([^():]+):", tree.serialize()))


def _seeded_deep_trees(labels, seed):
    """A path and a broom (a handle whose last vertex holds a row of
    leaves) with DEPTH_LIMIT levels each, labeled at random."""
    rng = random.Random(seed)
    path = PlanarTree(rng.choice(labels))
    for _ in range(DEPTH_LIMIT - 1):
        path = PlanarTree(rng.choice(labels), (path,))
    broom = PlanarTree(rng.choice(labels), [PlanarTree(rng.choice(labels)) for _ in range(40)])
    for _ in range(DEPTH_LIMIT - 2):
        broom = PlanarTree(rng.choice(labels), (broom,))
    return path, broom


def test_free_word_values_are_preorder_words():
    # labels out of sorted order, so the family meets "b" first; a word's
    # code depends on its labels alone, not on the order they are met in
    labels = ("b", "a")
    family = free_word_family(labels)
    trees = [tree for n in range(1, 7) for tree in enumerate_planar(n, labels)]
    for seed in range(3):
        trees += _seeded_deep_trees(labels, seed)
    assert max(tree.height for tree in trees) == DEPTH_LIMIT - 1
    for tree in trees:
        value = evaluate_planar(tree, family)
        assert value.terms == {preorder_word(tree): 1}
        assert value == FreeWord({preorder_word(tree): 1})


def test_forest_evaluation_is_ordered_product():
    family = free_word_family(["a", "b"])
    forest = parse_planar_forest("(a:)(b:(a:))")
    assert evaluate_planar_forest(forest, family) == word("a", "b", "a")
    assert evaluate_planar_forest(PlanarForest(), family) == FreeWord.one()
    flipped = concat(
        PlanarForest((forest.trees[1],)), PlanarForest((forest.trees[0],))
    )
    assert evaluate_planar_forest(flipped, family) == word("b", "a", "a")


def test_word_values_collapse_shape_but_tensors_do_not():
    # the flat word invariant only sees the depth-first label sequence:
    # the chain and the cherry share a value.  The tensor extension keeps
    # the shape and separates every planar tree at these sizes.
    base = free_word_family(["a", "b"])
    chain = parse_planar_tree("(a:(a:(a:)))")
    cherry = parse_planar_tree("(a:(a:)(a:))")
    assert evaluate_planar(chain, base) == evaluate_planar(cherry, base)
    tensors = tensor_family(base)
    assert evaluate_planar(chain, tensors) != evaluate_planar(cherry, tensors)
    for n in range(1, 5):
        trees = enumerate_planar(n, ["a", "b"])
        values = {evaluate_planar(t, tensors) for t in trees}
        assert len(values) == len(trees)


def test_family_validation():
    with pytest.raises(DomainError):
        free_word_family(["a", "a"])
    with pytest.raises(DomainError):
        OperatorFamily({}, FreeWord.one())
    family = free_word_family(["a"])
    with pytest.raises(DomainError):
        family["z"]
    mixed = dict(family.operators)
    mixed["t"] = DELTA_INV
    with pytest.raises(DomainError):
        OperatorFamily(mixed, FreeWord.one())


def test_census_matches_closed_form_and_dyck_oracle():
    for labels in (["a"], ["a", "b"], ["x", "y", "z"]):
        for n in range(1, 6):
            trees = enumerate_planar(n, labels)
            assert len(trees) == planar_tree_count(n, len(labels))
            assert len(set(t.serialize() for t in trees)) == len(trees)
    for n in range(1, 8):
        assert planar_tree_count(n, 1) == count_dyck_words(n - 1)


def test_forest_census():
    # forests on n vertices match trees on n+1 vertices with a fixed root
    for labels in (["a"], ["a", "b"]):
        d = len(labels)
        for n in range(0, 5):
            forests = enumerate_planar_forests(n, labels)
            assert len(forests) == planar_tree_count(n + 1, d) // d
            assert len(set(f.serialize() for f in forests)) == len(forests)


def recursive_planar_forests(n, labels):
    """The unmemoized recursion the shared level builder replaced: every
    first tree, then every forest on the remaining vertices."""
    if n == 0:
        return [PlanarForest()]
    out = []
    for size in range(1, n + 1):
        for first in enumerate_planar(size, labels):
            for rest in recursive_planar_forests(n - size, labels):
                out.append(PlanarForest((first,) + rest.trees))
    return out


@pytest.mark.parametrize("labels", ["a", "ab", "xyz"])
def test_forest_enumeration_matches_the_recursion(labels):
    for n in range(0, 6):
        assert enumerate_planar_forests(n, labels) == recursive_planar_forests(n, labels)


def test_forest_enumeration_guard():
    # Catalan(9) * 2^9 forests; refused before any is built
    with pytest.raises(ResourceLimitError, match="2489344.*1000000"):
        enumerate_planar_forests(9, "ab")
    assert len(enumerate_planar_forests(8, "a")) == 1430
    with pytest.raises(DomainError):
        enumerate_planar_forests(-1, "a")


def test_enumeration_guard():
    with pytest.raises(ResourceLimitError):
        enumerate_planar(12, ["a", "b"])
    with pytest.raises(DomainError):
        enumerate_planar(0, ["a"])
    with pytest.raises(DomainError):
        planar_tree_count(1, 0)


def test_recurrence_terms_single_label():
    family = free_word_family(["a"])
    seq = u_planar_by_recurrence(family, 3)
    terms = seq.total_terms()
    assert terms[0] == word("a")
    assert terms[1] == word("a", "a")
    # two planar trees on 3 vertices, both evaluating to the same word
    assert terms[2] == Fraction(2) * word("a", "a", "a")


def test_recurrence_terms_two_labels():
    family = free_word_family(["a", "b"])
    seq = u_planar_by_recurrence(family, 2)
    assert seq.per_label["a"][0] == word("a")
    assert seq.per_label["a"][1] == word("a", "a") + word("a", "b")
    assert seq.per_label["b"][1] == word("b", "a") + word("b", "b")
    assert seq.order == 2


def test_recurrence_matches_enumeration():
    for labels, order in ((["a"], 7), (["a", "b"], 5)):
        family = free_word_family(labels)
        rec = u_planar_by_recurrence(family, order)
        enum = u_planar_by_enumeration(family, order)
        assert rec.per_label == enum.per_label
        assert rec.total_terms() == enum.total_terms()


def test_fixed_point_residuals_vanish():
    family = free_word_family(["a", "b"])
    assert planar_equation_residual(family, 5).is_zero()
    for label in ("a", "b"):
        assert planar_equation_residual(family, 5, label=label).is_zero()


def test_residual_flags_corruption():
    from forestinv.planar import PlanarUSequence

    family = free_word_family(["a"])
    seq = u_planar_by_enumeration(family, 4)
    bad_terms = dict(seq.per_label)
    bad_terms["a"] = bad_terms["a"][:3] + [bad_terms["a"][3] + word("a")]
    bad = PlanarUSequence(bad_terms, seq.one)
    assert not planar_equation_residual(family, 4, sequence=bad).is_zero()


def test_residual_refuses_an_unknown_label():
    family = free_word_family(["a", "b"])
    seq = u_planar_by_enumeration(free_word_family(["a"]), 3)
    with pytest.raises(DomainError, match="'z' is not in the family"):
        planar_equation_residual(family, 3, label="z")
    # "b" is in the family but not in a sequence built without it
    with pytest.raises(DomainError, match="'b' is not in the sequence"):
        planar_equation_residual(family, 3, sequence=seq, label="b")


def test_commutative_family_recovers_order_polynomials():
    # with one label and the strict-order operator, planar evaluation
    # collapses to the unordered invariant of the underlying tree
    family = OperatorFamily({"a": DELTA_INV}, Polynomial.one())
    for n in range(1, 6):
        for tree in enumerate_planar(n, ["a"]):
            assert evaluate_planar(tree, family) == strict_order_poly(
                underlying_tree(tree)
            )


def test_tensor_split_examples():
    base = free_word_family(["a", "b"])
    # splitting the empty tensor appends the rule value
    out = tensor_cocycle_apply("a", TensorElement.one(), base)
    assert out == TensorElement.single(("a",))
    # a single letter splits two ways
    out = tensor_cocycle_apply("b", TensorElement.single(("a",)), base)
    expected = TensorElement(
        {(("b", "a"),): Fraction(1), (("a",), ("b",)): Fraction(1)}
    )
    assert out == expected


def test_tensor_split_linearity():
    base = free_word_family(["a", "b"])
    x = TensorElement.single(("a",))
    y = TensorElement.single(("b", "a"))
    combo = Fraction(2) * x + Fraction(-3) * y
    split = tensor_cocycle_apply("a", combo, base)
    expected = Fraction(2) * tensor_cocycle_apply("a", x, base) + Fraction(
        -3
    ) * tensor_cocycle_apply("a", y, base)
    assert split == expected


def test_tensor_evaluation_of_trees():
    base = free_word_family(["a", "b"])
    family = tensor_family(base)
    # a leaf is the single tensor on its generator
    assert evaluate_planar(parse_planar_tree("(a:)"), family) == TensorElement.single(
        ("a",)
    )
    got = evaluate_planar(parse_planar_tree("(b:(a:))"), family)
    expected = TensorElement(
        {(("b", "a"),): Fraction(1), (("a",), ("b",)): Fraction(1)}
    )
    assert got == expected


def test_tensor_grafting_identity():
    base = free_word_family(["a", "b"])
    samples = []
    for n in range(0, 3):
        samples.extend(enumerate_planar_forests(n, ["a", "b"]))
    report = check_tensor_grafting(samples, base)
    assert isinstance(report, GraftCheckReport)
    assert report.ok
    assert len(report.graft_checks) == 2 * len(samples)
    assert len(report.product_checks) == len(samples) ** 2
    payload = report.to_jsonable()
    assert payload["ok"] is True


def test_grafting_product_cap_filters_pairs():
    base = free_word_family(["a"])
    samples = enumerate_planar_forests(3, ["a"])
    report = check_tensor_grafting(samples, base, product_vertex_cap=4)
    assert report.ok
    assert report.product_checks == []


def test_sequence_guards():
    family = free_word_family(["a"])
    with pytest.raises(DomainError):
        u_planar_by_recurrence(family, 0)
    with pytest.raises(DomainError):
        u_planar_by_enumeration(family, 0)
    short = u_planar_by_enumeration(family, 3)
    with pytest.raises(DomainError):
        planar_equation_residual(family, 5, sequence=short)
    for sequence in (None, short):
        with pytest.raises(DomainError, match="need order >= 1"):
            planar_equation_residual(family, 0, sequence=sequence)


def per_weight_inverse_build(family, order):
    """The build the running recurrence replaced: 1/(1 - U) solved from
    scratch with `geometric_inverse` at every weight."""
    per_label = {label: [] for label in family.labels}
    zero = Fraction(0) * family.one
    totals = []
    for n in range(1, order + 1):
        inverted = geometric_inverse(Series((zero, *totals), family.one))
        source = inverted.coefficient(n - 1)
        coeff_n = zero
        for label in family.labels:
            term = family[label](source)
            per_label[label].append(term)
            coeff_n = coeff_n + term
        totals.append(coeff_n)
    return per_label


def exact_terms(element):
    return {key: (type(coeff), coeff) for key, coeff in element.terms.items()}


@pytest.mark.parametrize("labels", ["a", "ab", "abc"])
def test_running_recurrence_matches_per_weight_inverses(labels):
    family = free_word_family(labels)
    order = {1: 9, 2: 7, 3: 6}[len(labels)]
    running = u_planar_by_recurrence(family, order).per_label
    expected = per_weight_inverse_build(family, order)
    assert list(running) == list(expected)
    for label in labels:
        assert [exact_terms(t) for t in running[label]] == [
            exact_terms(t) for t in expected[label]
        ]


def test_running_recurrence_makes_quadratically_many_products(monkeypatch):
    count = [0]
    word_sum = FreeWord.sum_of_products

    def counting_word_sum(pairs):
        # the word products run inside the one-pass kernel: count its pairs
        pairs = list(pairs)
        count[0] += len(pairs)
        return word_sum(pairs)

    monkeypatch.setattr(FreeWord, "sum_of_products", staticmethod(counting_word_sum))
    labels, order = ("a", "b"), 10
    u_planar_by_recurrence(free_word_family(labels), order)
    # N(N-1)/2 operand pairs for the coefficients of 1/(1 - U) through
    # q^(N-1), N - 1 of them with the unit, and one prepend per label and
    # weight; solving the inverse afresh per weight is O(N^3)
    assert 0 < count[0] <= order * (order - 1) // 2 + len(labels) * order


def test_parse_takes_deep_trees():
    depth = 3000
    text = "(a:" * depth + ")" * depth
    tree = parse_planar_tree(text)
    assert tree.vertex_count == depth
    assert tree.height == depth - 1
    assert tree.serialize() == text
    assert parse_planar_forest(text + "(b:)").vertex_count == depth + 1
    for bad, offset in [("(a:" * depth, 3 * depth), ("(a:" * depth + "x", 3 * depth),
                        ("(a:(b))", 4), ("(a:(:))", 4)]:
        with pytest.raises(ParseError) as err:
            parse_planar_tree(bad)
        assert err.value.offset == offset


def test_deep_trees_compare_hash_and_forget_labels_without_recursion():
    depth = 3000
    text = "(a:" * depth + ")" * depth
    tree, twin = parse_planar_tree(text), parse_planar_tree(text)
    other = parse_planar_tree("(a:" * (depth - 1) + "(b:" + ")" * depth)
    assert tree == twin and hash(tree) == hash(twin)
    assert tree != other and len({tree, twin, other}) == 2
    assert PlanarForest([tree, other]) == PlanarForest([twin, other])
    shape = underlying_tree(tree)
    assert (shape.vertex_count, shape.height) == (depth, depth - 1)
    assert shape == underlying_tree(other)
    assert underlying_forest(PlanarForest([tree, other])).vertex_count == 2 * depth
    # evaluation walks one frame per level, so it keeps its depth refusal
    with pytest.raises(ResourceLimitError, match="deeper than the limit"):
        evaluate_planar(tree, free_word_family(["a", "b"]))


def test_labels_are_refused_where_they_would_make_serialize_ambiguous():
    # "(a:(b:)(c:))" would parse back to a root with two children
    for label in ("b:)(c", "(", ")", ":", "x:y"):
        with pytest.raises(DomainError, match="free of"):
            PlanarTree(label)
    tree = PlanarTree("a", (PlanarTree("b"), PlanarTree("c")))
    assert tree.serialize() == "(a:(b:)(c:))"
    assert parse_planar_tree(tree.serialize()) == tree


PLANAR_LABELS = st.sampled_from(["a", "b", "xy", "é"])
PLANAR_TREES = st.recursive(
    st.builds(PlanarTree, PLANAR_LABELS),
    lambda kids: st.builds(PlanarTree, PLANAR_LABELS, st.lists(kids, max_size=3)),
    max_leaves=12,
)


@settings(max_examples=80, deadline=None)
@given(st.lists(PLANAR_TREES, min_size=1, max_size=3))
def test_planar_parse_serialize_round_trip_property(trees):
    for tree in trees:
        text = tree.serialize()
        parsed = parse_planar_tree(text)
        assert parsed == tree
        assert (parsed.vertex_count, parsed.height) == (tree.vertex_count, tree.height)
        assert parsed.serialize() == text
    forest = PlanarForest(trees)
    assert parse_planar_forest(forest.serialize()) == forest
