"""Tree core: parsing, canonical form, grafting, automorphisms, census."""

import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestinv import oracles, trees
from forestinv.errors import DomainError, ParseError, ResourceLimitError
from forestinv.trees import (
    EMPTY_FOREST,
    SINGLETON,
    RootedForest,
    RootedTree,
    automorphism_order,
    b_plus,
    enumerate_forests,
    enumerate_trees,
    parse_forest,
    parse_tree,
    remove_root,
)
from references import automorphism_order_by_blocks

TREE_COUNTS = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719]


def test_singleton():
    assert SINGLETON.key == "()"
    assert SINGLETON.vertex_count == 1
    assert SINGLETON.height == 0


def test_parse_canonicalizes_child_order():
    assert parse_tree("(()(()))").key == "(()(()))"
    assert parse_tree("((())())").key == "(()(()))"
    assert parse_tree("()").key == "()"


def test_parse_rejects_bad_input():
    for text, offset in [("", 0), ("((", 2), ("(", 1), ("(())()", 4), (")", 0), ("x", 0)]:
        with pytest.raises(ParseError) as err:
            parse_tree(text)
        assert err.value.offset == offset


@pytest.mark.parametrize("text", ["", "((", "(()(x))", ")"])
def test_parse_errors_pickle_and_copy_with_their_offset(text):
    with pytest.raises(ParseError) as err:
        parse_tree(text)
    for copied in (pickle.loads(pickle.dumps(err.value)), copy.copy(err.value)):
        assert type(copied) is ParseError
        assert (str(copied), copied.offset) == (str(err.value), err.value.offset)


def test_parse_round_trip_all_small_trees():
    for n in range(1, 9):
        for tree in enumerate_trees(n):
            assert parse_tree(tree.key) == tree


def random_serialization(tree, rng):
    kids = list(tree.children)
    rng.shuffle(kids)
    return "(%s)" % "".join(random_serialization(c, rng) for c in kids)


def test_parse_is_order_insensitive():
    rng = random.Random(11)
    for n in range(1, 9):
        for tree in enumerate_trees(n):
            scrambled = random_serialization(tree, rng)
            assert parse_tree(scrambled) == tree


def test_b_plus_examples():
    assert b_plus(EMPTY_FOREST) == SINGLETON
    assert b_plus(parse_forest("()(())")).key == "(()(()))"
    assert b_plus([SINGLETON, SINGLETON]).key == "(()())"


def test_b_plus_remove_root_inverse():
    for n in range(0, 11):
        for forest in enumerate_forests(n):
            assert remove_root(b_plus(forest)) == forest
    for n in range(1, 11):
        for tree in enumerate_trees(n):
            assert b_plus(remove_root(tree)) == tree


def test_remove_root_examples():
    assert remove_root(SINGLETON) == EMPTY_FOREST
    assert remove_root(parse_tree("(()(()))")) == parse_forest("()(())")


def test_automorphism_examples():
    assert automorphism_order(SINGLETON) == 1
    assert automorphism_order(parse_tree("(()())")) == 2
    assert automorphism_order(parse_tree("(()()())")) == 6
    assert automorphism_order(parse_tree("((()())(()()))")) == 8
    assert automorphism_order(parse_tree("(()(()))")) == 1


@pytest.fixture
def fresh_caches(monkeypatch):
    """An empty tree cache for one test; the module's own comes back
    afterwards."""
    monkeypatch.setattr(trees, "_TREE_CACHE", {})


def test_automorphism_against_brute_force(fresh_caches):
    # the orders the enumeration walk writes, in a census built afresh
    for n in range(1, 9):
        for tree in enumerate_trees(n):
            assert tree.alpha == oracles.count_root_automorphisms(tree), tree
            assert automorphism_order(tree) == tree.alpha


def test_enumeration_writes_the_recursive_automorphism_orders(fresh_caches):
    for n in range(1, 13):
        for tree in enumerate_trees(n):
            assert tree.alpha == automorphism_order_by_blocks(tree), tree


def test_enumerated_trees_match_the_public_constructor(fresh_caches):
    # the walk's fields against the constructor's
    for n in range(1, 13):
        for tree in enumerate_trees(n):
            rebuilt = RootedTree(tree.children)
            assert (tree.key, tree.height, tree.vertex_count, tree.alpha) == (
                rebuilt.key, rebuilt.height, rebuilt.vertex_count, rebuilt.alpha
            )
            assert tree.children == rebuilt.children
            assert type(tree.children) is tuple


def test_tree_census():
    for n, expected in enumerate(TREE_COUNTS, start=1):
        assert len(enumerate_trees(n)) == expected


def test_tree_census_against_level_sequences():
    for n in range(1, 9):
        assert len(enumerate_trees(n)) == oracles.count_trees_by_level_sequence(n)


def test_same_isomorphism_classes_as_level_sequences():
    # not just the same count: the same canonical keys
    for n in range(1, 13):
        ours = sorted(t.key for t in enumerate_trees(n))
        theirs = sorted(
            oracles.tree_from_level_sequence(seq).key
            for seq in oracles.level_sequences(n)
        )
        assert ours == theirs


def test_enumeration_order_and_uniqueness():
    for n in range(1, 10):
        keys = [t.key for t in enumerate_trees(n)]
        assert keys == sorted(keys, key=lambda k: (len(k), k))
        assert len(set(keys)) == len(keys)


def test_enumerate_trees_examples():
    assert [t.key for t in enumerate_trees(1)] == ["()"]
    assert [t.key for t in enumerate_trees(3)] == ["((()))", "(()())"]
    assert [t.key for t in enumerate_trees(4)] == [
        "(((())))",
        "((()()))",
        "(()(()))",
        "(()()())",
    ]


def test_enumerate_forests_examples():
    assert enumerate_forests(0) == [EMPTY_FOREST]
    assert enumerate_forests(1) == [RootedForest([SINGLETON])]
    assert {f.key for f in enumerate_forests(2)} == {"()()", "(())"}
    assert len(enumerate_forests(4)) == 9


def test_forest_census_matches_euler_transform():
    tree_counts = [len(enumerate_trees(n)) for n in range(1, 10)]
    forest_counts = [len(enumerate_forests(n)) for n in range(1, 10)]
    assert forest_counts == oracles.euler_transform(tree_counts)


def test_forests_are_the_next_trees_without_their_roots(fresh_caches):
    for n in range(0, 13):
        forests = enumerate_forests(n)
        # the trusted forests of `remove_root` hold what the public constructor builds
        rebuilt = [RootedForest(t.children) for t in enumerate_trees(n + 1)]
        assert [(f.trees, f.key, f.vertex_count) for f in forests] == [
            (f.trees, f.key, f.vertex_count) for f in rebuilt
        ]
        keys = [f.key for f in forests]
        assert keys == sorted(keys, key=lambda k: (len(k), k)) and len(set(keys)) == len(keys)
        assert all(f.vertex_count == n for f in forests)


def test_forest_count_equals_next_tree_count():
    # grafting is a bijection between forests on n and trees on n + 1
    for n in range(0, 9):
        assert len(enumerate_forests(n)) == len(enumerate_trees(n + 1))


def test_enumeration_domain_errors():
    with pytest.raises(DomainError):
        enumerate_trees(0)
    with pytest.raises(DomainError):
        enumerate_forests(-1)


def test_forest_key_is_sorted_concatenation():
    rng = random.Random(23)
    for n in range(0, 8):
        for forest in enumerate_forests(n):
            scrambled = list(forest)
            rng.shuffle(scrambled)
            assert RootedForest(scrambled) == forest
            assert parse_forest(forest.key) == forest


def test_vertex_invariants():
    for n in range(1, 8):
        for tree in enumerate_trees(n):
            assert tree.vertex_count == n
            assert tree.vertex_count == 1 + sum(c.vertex_count for c in tree.children)
            assert tree.key.count("(") == n
            if tree.children:
                assert tree.height == 1 + max(c.height for c in tree.children)


def test_level_sequence_oracle_is_well_formed():
    # the oracle itself: sequences are distinct and describe n vertices
    for n in range(1, 9):
        seqs = list(oracles.level_sequences(n))
        assert len(set(seqs)) == len(seqs)
        assert all(len(seq) == n and seq[0] == 1 for seq in seqs)


def test_tree_hash_and_equality():
    a = parse_tree("(()(()))")
    b = parse_tree("((())())")
    assert a == b and hash(a) == hash(b)
    assert a != parse_tree("(()()())")
    assert len({a, b}) == 1


def test_enumeration_guards():
    with pytest.raises(DomainError):
        enumerate_trees(0)
    with pytest.raises(DomainError):
        enumerate_forests(-1)
    with pytest.raises(ResourceLimitError, match="trees on 17 vertices .* limit of 16$"):
        enumerate_trees(17)
    with pytest.raises(ResourceLimitError, match="forests on 16 vertices .* limit of 15$"):
        enumerate_forests(16)


def test_parse_takes_deep_trees():
    depth = 3000
    text = "(" * depth + ")" * depth
    tree = parse_tree(text)
    assert tree.key == text
    assert (tree.vertex_count, tree.height) == (depth, depth - 1)
    assert parse_forest(text + "()").vertex_count == depth + 1
    for bad, offset in [("(" * depth, depth), ("(" * depth + "x", depth), ("((x))", 2)]:
        with pytest.raises(ParseError) as err:
            parse_tree(bad)
        assert err.value.offset == offset


def path_text(vertices):
    return "(" * vertices + ")" * vertices


def test_parse_forest_shares_one_key_budget(monkeypatch):
    # the longest path under the limit writes 8191 * 8192 key characters
    assert trees.KEY_CHAR_LIMIT == 2**26
    forest = parse_forest(path_text(8191))
    assert (len(forest), forest.vertex_count) == (1, 8191)
    # three paths of 8000 write 3 * 8000 * 8001: refused while the second
    # opens, so no vertex of it is built
    built = []
    tree_class = trees.RootedTree
    monkeypatch.setattr(trees, "RootedTree", lambda kids: built.append(1) or tree_class(kids))
    with pytest.raises(ResourceLimitError) as err:
        parse_forest(path_text(8000) * 3)
    assert len(built) == 7999
    assert str(err.value).startswith("the forest's keys would hold at least ")
    assert str(err.value).endswith(f"over the limit of {trees.KEY_CHAR_LIMIT}")


@pytest.mark.parametrize(
    "text, message, offset",
    [
        ("()(", "unbalanced input: missing ')'", 3),
        ("())", "expected '(' but found ')'", 2),
        ("()x()", "expected '(' but found 'x'", 2),
        ("(()(x))", "expected '(' but found 'x'", 4),
        ("(())((", "unbalanced input: missing ')'", 6),
    ],
)
def test_parse_forest_errors(text, message, offset):
    with pytest.raises(ParseError) as err:
        parse_forest(text)
    assert (err.value.offset, str(err.value)) == (offset, f"{message} (offset {offset})")


NESTED = st.recursive(st.just([]), lambda kids: st.lists(kids, max_size=3), max_leaves=12)


def nested_text(nested):
    return "(%s)" % "".join(nested_text(kid) for kid in nested)


def nested_tree(nested):
    return RootedTree(nested_tree(kid) for kid in nested)


@settings(max_examples=80, deadline=None)
@given(st.lists(NESTED, min_size=1, max_size=3))
def test_parse_serialize_round_trip_property(forest):
    trees = []
    for nested in forest:
        # any child order parses to the canonical tree, whose key parses back
        tree = parse_tree(nested_text(nested))
        assert tree == nested_tree(nested)
        assert parse_tree(tree.key).key == tree.key
        trees.append(tree)
    parsed = parse_forest("".join(nested_text(nested) for nested in forest))
    assert parsed == RootedForest(trees)
    assert parse_forest(parsed.key) == parsed


@settings(max_examples=80, deadline=None)
@given(st.lists(NESTED, max_size=8))
def test_constructors_sort_children_in_shortlex_order_property(forest):
    # the constructors sort by (vertex_count, key), which must give the
    # order by key length, then by key
    kids = [nested_tree(nested) for nested in forest]
    order = sorted([t.key for t in kids], key=lambda key: (len(key), key))
    assert [t.key for t in RootedTree(kids).children] == order
    assert [t.key for t in RootedForest(kids).trees] == order


@settings(max_examples=80, deadline=None)
@given(NESTED)
def test_parsed_automorphism_order_property(nested):
    # any child order: the parser's constructor writes the block rule's order
    tree = parse_tree(nested_text(nested))
    assert tree.alpha == automorphism_order_by_blocks(tree)
    assert tree.alpha == nested_tree(nested).alpha
    if tree.vertex_count <= 7:
        assert tree.alpha == oracles.count_root_automorphisms(tree)
