"""Tree generating functions: the two independent builds of U_n and its
closed form, the fixed-point residual, elementary Schur polynomials, and
the Cayley check."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestinv import engine, genfun
from forestinv.algebra import Polynomial, QSym, principal_specialization
from forestinv.engine import (
    BUILT_IN_NAMES,
    QSYM_PAIR_LIMIT,
    _RECURRENCE_PAIRS,
    InvariantSpec,
    built_in_spec,
    check_cost,
    check_recurrence_cost,
    collision_report,
    evaluate,
    qsym_strict_spec,
    qsym_weak_spec,
    strict_order_spec,
    weak_order_spec,
)
from forestinv.errors import DomainError, ResourceLimitError
from forestinv.genfun import (
    cayley_check,
    elementary_schur,
    u_by_enumeration,
    u_by_recurrence,
    verify_functional_equation,
)
from forestinv.operators import LAMBDA, POLYNOMIAL, LinearOperator, delta_inv
from forestinv.oracles import FiniteVarPoly
from forestinv.planar import free_word_family
from forestinv.series import Series
from forestinv.trees import _ENUMERATION_CAP, automorphism_order, check_depth, enumerate_trees
from forestinv.words import FreeWord
from references import exp_by_power_sums, u_by_per_term_exp, u_by_tree_sums, u_closed_form

T = Polynomial.t()


def test_schur_base_cases():
    assert elementary_schur([], 0, one=Fraction(1)) == 1
    assert elementary_schur([Fraction(5)], 1) == 5
    # a scalar value is that multiple of the carrier unit it is given with
    one, m1 = QSym.one(), QSym.monomial((1,))
    assert elementary_schur([Fraction(2)], 1, one=one) == 2 * one
    assert elementary_schur([Fraction(1), m1], 2, one=one) == Fraction(1, 2) * one + m1
    # S_2 = v_2 + v_1^2/2, checked symbolically
    v1 = FiniteVarPoly.variable(1, 4, 8)
    v2 = FiniteVarPoly.variable(2, 4, 8)
    expected = v2 + Fraction(1, 2) * (v1 * v1)
    assert elementary_schur([v1, v2], 2) == expected


def test_schur_three():
    # S_3 = v_3 + v_1 v_2 + v_1^3/6
    v1 = FiniteVarPoly.variable(1, 4, 12)
    v2 = FiniteVarPoly.variable(2, 4, 12)
    v3 = FiniteVarPoly.variable(3, 4, 12)
    expected = v3 + v1 * v2 + Fraction(1, 6) * (v1 * v1 * v1)
    assert elementary_schur([v1, v2, v3], 3) == expected


def test_schur_scalar_values():
    # with all v_k = 1 the Schur values are 1/0!, coefficients of exp of
    # the geometric-like series; spot-check against direct expansion
    values = [Fraction(1)] * 5
    series = Series.from_terms({k: Fraction(1) for k in range(1, 6)}, 5, Fraction(1))
    from forestinv.series import exp

    expanded = exp(series)
    for n in range(0, 6):
        assert elementary_schur(values, n, one=Fraction(1)) == expanded.coefficient(n)


def test_schur_input_validation():
    with pytest.raises(DomainError):
        elementary_schur([Fraction(1)], 2)
    with pytest.raises(DomainError):
        elementary_schur([], 1)
    with pytest.raises(DomainError):
        elementary_schur([FreeWord.generator("a")], 1)


def test_tree_builds_refuse_noncommutative_carriers():
    family = free_word_family(["a"])
    spec = InvariantSpec("prepend-a", family["a"], family.one)
    for build in (u_by_recurrence, u_by_enumeration):
        with pytest.raises(DomainError, match="use the planar layer instead"):
            build(spec, 3)


def test_recurrence_small_terms():
    seq = u_by_recurrence(strict_order_spec(), 3)
    assert seq.terms[0] == T
    assert seq.terms[1] == Fraction(1, 2) * (T * T - T)
    # U_3 sums the chain and half the cherry
    chain = Polynomial((0, Fraction(1, 3), Fraction(-1, 2), Fraction(1, 6)))
    cherry = Polynomial((0, Fraction(1, 6), Fraction(-1, 2), Fraction(1, 3)))
    assert seq.terms[2] == chain + Fraction(1, 2) * cherry


def test_recurrence_qsym_terms():
    seq = u_by_recurrence(qsym_strict_spec(3), 2)
    assert seq.terms[0] == QSym.monomial((1,))
    assert seq.terms[1] == QSym.monomial((1, 1))
    seq = u_by_recurrence(qsym_weak_spec(2), 2)
    assert seq.terms[1] == QSym({(1, 1): 1, (2,): 1})


def test_enumeration_matches_recurrence():
    for spec in (
        strict_order_spec(),
        weak_order_spec(),
        qsym_strict_spec(8),
        qsym_weak_spec(8),
    ):
        rec = u_by_recurrence(spec, 8)
        enum = u_by_enumeration(spec, 8)
        assert rec.terms == enum.terms


def test_functional_equation_residual_is_zero():
    for spec in (
        strict_order_spec(),
        weak_order_spec(),
        qsym_strict_spec(7),
        qsym_weak_spec(7),
    ):
        residual = verify_functional_equation(spec, 7)
        assert residual.is_zero()


@pytest.mark.parametrize(
    "name, order",
    [("delta-inv", 10), ("nabla-inv", 10), ("lambda-bar", 7), ("lambda", 7)],
)
def test_recurrence_satisfies_power_sum_fixed_point(name, order):
    # exp by summed powers shares no code with the coefficient recurrence
    # inside u_by_recurrence, so a zero residual is independent evidence
    spec = built_in_spec(name)
    u = u_by_recurrence(spec, order).series()
    residual = exp_by_power_sums(u).map(spec.operator).times_q() - u
    assert residual.is_zero()


def exact_value(value):
    """A carrier value with the type of each stored coefficient."""
    if isinstance(value, Polynomial):
        return value.numerators, value.denominator
    return {key: (type(coeff), coeff) for key, coeff in value.terms.items()}


@pytest.mark.parametrize(
    "name, max_order",
    [("delta-inv", 10), ("nabla-inv", 10), ("lambda-bar", 8), ("lambda", 8)],
)
def test_running_recurrence_matches_per_term_exps(name, max_order):
    spec = built_in_spec(name)
    expected = [exact_value(t) for t in u_by_per_term_exp(spec, max_order)]
    for order in range(1, max_order + 1):
        seq = u_by_recurrence(spec, order)
        assert seq.order == order
        assert [exact_value(t) for t in seq.terms] == expected[:order]


@pytest.mark.parametrize(
    "name, order",
    [("delta-inv", 30), ("nabla-inv", 30), ("lambda-bar", 12), ("lambda", 12)],
)
def test_running_recurrence_matches_closed_form(name, order):
    # labeled-tree counting shares no code with the recurrence and reaches
    # orders past the enumeration cap
    expected = [exact_value(t) for t in u_closed_form(name, order)]
    got = u_by_recurrence(built_in_spec(name), order).terms
    assert [exact_value(t) for t in got] == expected


def fresh_spec(name):
    """A spec with an empty cache: a built-in operator by name, or the
    custom linear operator 2 delta_inv."""
    if name == "twice-delta-inv":
        twice = LinearOperator(name, POLYNOMIAL, lambda g: 2 * delta_inv(g))
        return InvariantSpec(name, twice, Polynomial.one())
    shared = built_in_spec(name)
    return InvariantSpec(name, shared.operator, shared.one)


@pytest.mark.parametrize(
    "name, max_order",
    [
        ("delta-inv", 10),
        ("nabla-inv", 10),
        ("lambda-bar", 9),
        ("lambda", 9),
        ("twice-delta-inv", 10),
    ],
)
def test_enumeration_matches_per_tree_sums(name, max_order):
    # the per-tree sum evaluates every tree of the largest class, where the
    # enumeration build applies the operator once to the class's sum
    expected = [exact_value(t) for t in u_by_tree_sums(fresh_spec(name), max_order)]
    for order in range(1, max_order + 1):
        got = u_by_enumeration(fresh_spec(name), order).terms
        assert [exact_value(t) for t in got] == expected[:order]


@pytest.mark.parametrize("name", ["delta-inv", "nabla-inv"])
def test_enumeration_on_samples_matches_the_closed_form(name):
    # the polynomial enumeration build runs on the values at t = 0 .. N;
    # labeled-tree counting shares no code with it, and the per-tree sums
    # above check it on the monomial carrier
    closed = [exact_value(t) for t in u_closed_form(name, 10)]
    for order in range(1, 11):
        got = u_by_enumeration(fresh_spec(name), order).terms
        assert [exact_value(t) for t in got] == closed[:order]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=1, max_size=2))
def test_enumeration_matches_per_tree_sums_for_random_linear_operators(coeffs):
    # X(p) = delta_inv(r p) for a random r of degree at most 1: linear, so
    # the factored sum of the largest class is X applied to the same sum
    r = Polynomial(coeffs)
    operator = LinearOperator("random", POLYNOMIAL, lambda g: delta_inv(r * g))
    spec = lambda: InvariantSpec(operator.name, operator, Polynomial.one())
    expected = [exact_value(t) for t in u_by_tree_sums(spec(), 6)]
    assert [exact_value(t) for t in u_by_enumeration(spec(), 6).terms] == expected


def test_largest_class_makes_one_product_per_extended_child_prefix(monkeypatch):
    # every smaller class is walked before the largest one is summed, so
    # the only pointwise products of the grid kernel from then on are those
    # of the largest class: one per proper prefix of some tree's child
    # list, 16 for the 115 trees on 8 vertices, 116 for the 4766 on 12
    products = []
    multiply = engine._times

    def counting(a, b):
        products.append(b)
        return multiply(a, b)

    top_starts = []
    extension_sum = genfun._extension_sum

    def marking(trees, depth, labelings, *ring):
        if depth == 0:
            top_starts.append(len(products))
        return extension_sum(trees, depth, labelings, *ring)

    # the walk's products in `engine` and the prefix products in `genfun`
    monkeypatch.setattr(engine, "_times", counting)
    monkeypatch.setattr(genfun, "_times", counting)
    monkeypatch.setattr(genfun, "_extension_sum", marking)
    for order, prefixes in ((8, 16), (12, 116)):
        assert prefixes == len({
            tree.children[:k] for tree in enumerate_trees(order) for k in range(1, len(tree.children))
        })
        products.clear()
        top_starts.clear()
        u_by_enumeration(fresh_spec("delta-inv"), order)
        assert len(top_starts) == 1
        assert all(type(b) is tuple for b in products)
        assert len(products) - top_starts[0] == prefixes


# A000081: rooted trees on n = 1, 2, ... vertices
ROOTED_TREES = (1, 1, 2, 4, 9, 20, 48, 115, 286)


def test_enumeration_applies_the_operator_once_to_the_largest_class():
    calls = [0]

    def counting_delta_inv(g):
        calls[0] += 1
        return delta_inv(g)

    operator = LinearOperator("counting-delta-inv", POLYNOMIAL, counting_delta_inv)
    for order in range(1, len(ROOTED_TREES) + 1):
        calls[0] = 0
        spec = InvariantSpec(operator.name, operator, Polynomial.one())
        u_by_enumeration(spec, order)
        # one call per tree of each smaller class, one for the largest:
        # 86 at order 8, against the 200 trees on at most 8 vertices
        assert calls[0] == sum(ROOTED_TREES[: order - 1]) + 1
        assert set(spec._cache) == {
            tree.key for n in range(1, order) for tree in enumerate_trees(n)
        }


@pytest.mark.parametrize("name", BUILT_IN_NAMES)
def test_cost_guards_pass_every_tree_up_to_the_enumeration_cap(name):
    # so the star check that the enumeration build and `collision_report`
    # make before their first class refuses nothing that runs
    spec = built_in_spec(name)
    for vertices in range(1, _ENUMERATION_CAP + 1):
        for height in range(vertices):
            check_depth(height)
            check_cost(spec, vertices, height)


def test_closed_form_guards():
    with pytest.raises(DomainError):
        u_closed_form("noop", 3)
    with pytest.raises(DomainError):
        u_closed_form("lambda", 0)


@pytest.mark.parametrize("name", BUILT_IN_NAMES)
def test_recurrence_order_one_is_the_operator_on_the_unit(name):
    spec = built_in_spec(name)
    assert u_by_recurrence(spec, 1).terms == (spec.operator(spec.one),)


@pytest.mark.parametrize(
    "carrier, spec", [(Polynomial, strict_order_spec()), (QSym, qsym_weak_spec(None))]
)
def test_running_recurrence_makes_quadratically_many_products(monkeypatch, carrier, spec):
    count = [0]
    carrier_mul = carrier.__mul__

    def counting_mul(self, other):
        count[0] += 1
        return carrier_mul(self, other)

    monkeypatch.setattr(carrier, "__mul__", counting_mul)
    for order in (1, 2, 5, 10):
        count[0] = 0
        u_by_recurrence(spec, order)
        # one running exp through q^(N-1), none of whose products has the
        # unit as an operand; a fresh exp per term would make C(N+1, 3)
        # products, 165 at N = 10
        assert count[0] == (order - 1) * (order - 2) // 2


@pytest.mark.parametrize("name", ["lambda-bar", "lambda"])
def test_recurrence_pair_estimate_counts_the_operand_pairs(monkeypatch, name):
    # the guard's estimate is the exact number of pairs of operand terms
    # the quasi-shuffle takes, products by the unit aside
    pairs = [0]
    qsym_mul = QSym.__mul__
    unit = QSym.one()

    def counting_mul(self, other):
        if isinstance(other, QSym) and unit not in (self, other):
            pairs[0] += len(self.terms) * len(other.terms)
        return qsym_mul(self, other)

    monkeypatch.setattr(QSym, "__mul__", counting_mul)
    spec = built_in_spec(name)
    estimate = _RECURRENCE_PAIRS[spec.operator]
    for order in range(1, 11):
        pairs[0] = 0
        u_by_recurrence(spec, order)
        assert pairs[0] == estimate(order)
    # the largest orders the guard admits
    check_recurrence_cost(spec, 14)
    assert estimate(14) <= QSYM_PAIR_LIMIT < estimate(16)


@pytest.mark.parametrize("name", ["lambda-bar", "lambda"])
def test_tree_generating_function_multiplies_integers_only(monkeypatch, name):
    # k! U_k counts labeled trees, so the labeled exp multiplies int-only
    # quasi-symmetric values, in the build and in the residual check alike
    operands = []
    qsym_mul = QSym.__mul__

    def checked_mul(self, other):
        if isinstance(other, QSym):
            operands.extend((self, other))
        return qsym_mul(self, other)

    monkeypatch.setattr(QSym, "__mul__", checked_mul)
    spec = built_in_spec(name)
    sequence = u_by_recurrence(spec, 10)
    assert verify_functional_equation(spec, 10, sequence).is_zero()
    # 36 products in the exp through q^9, in the build and in the
    # residual: none by the unit
    assert len(operands) == 2 * (36 + 36)
    for value in operands:
        assert all(type(c) is int for c in value.terms.values())


def test_residual_detects_a_wrong_sequence():
    spec = strict_order_spec()
    seq = u_by_enumeration(spec, 5)
    corrupted = seq.terms[:4] + (seq.terms[4] + Polynomial.one(),)
    from forestinv.genfun import USequence

    bad = USequence(seq.spec_name, corrupted, seq.one)
    residual = verify_functional_equation(spec, 5, sequence=bad)
    assert not residual.is_zero()


def test_sequence_series_shape():
    seq = u_by_recurrence(strict_order_spec(), 4)
    series = seq.series()
    assert series.order == 4
    assert series.coefficient(0) == Polynomial.zero()
    assert series.coefficient(1) == T
    assert seq.order == 4


def test_specialization_ladder():
    # evaluating the weak-order U_n at t=1 recovers the Cayley numbers
    seq = u_by_enumeration(weak_order_spec(), 9)
    for n, term in enumerate(seq.terms, start=1):
        assert term(1) == Fraction(n ** (n - 1), factorial(n))


def test_qsym_specialization_matches_polynomials():
    rec_poly = u_by_recurrence(strict_order_spec(), 6)
    rec_qsym = u_by_recurrence(qsym_strict_spec(6), 6)
    for poly_term, qsym_term in zip(rec_poly.terms, rec_qsym.terms):
        for m in range(0, 6):
            assert principal_specialization(qsym_term, m) == poly_term(m)


def test_cayley_report():
    report = cayley_check(12)
    assert report.ok
    assert report.residual_zero
    assert len(report.rows) == 12
    assert report.rows[0]["tree_sum"] == 1
    assert report.rows[2]["tree_sum"] == Fraction(3, 2)
    assert report.rows[11]["tree_sum"] == Fraction(2985984, 1925)
    payload = report.to_jsonable()
    assert payload["ok"] is True
    assert payload["rows"][11]["tree_sum"] == "2985984/1925"


def fraction_weighted_sum(spec, n):
    """The tree sum as defined: each value scaled by 1/alpha(T)."""
    total = Fraction(0) * spec.one
    for tree in enumerate_trees(n):
        total = total + Fraction(1, automorphism_order(tree)) * evaluate(tree, spec)
    return total


@pytest.mark.parametrize("name", BUILT_IN_NAMES)
def test_enumeration_matches_fraction_weighted_sums(name):
    spec = built_in_spec(name)
    for n, term in enumerate(u_by_enumeration(spec, 7).terms, start=1):
        expected = fraction_weighted_sum(spec, n)
        assert term == expected
        if isinstance(term, QSym):
            assert {c: type(v) for c, v in term.terms.items()} == {
                c: type(v) for c, v in expected.terms.items()
            }


def test_enumeration_weights_are_int_labeling_counts(monkeypatch):
    # every tree value is weighted by the int n!/alpha(T), the number of
    # labelings of T, and these add up to n^(n-1) labeled trees; the
    # largest class puts each tree's weight on the value of its last child
    # and weight 1 on each product over a shared child prefix.  The values
    # are the int tuples of the run's own grid walk, which leaves the
    # caller's cache empty
    calls = []
    kernel = genfun._weighted_sum

    def recording(pairs):
        pairs = list(pairs)
        calls.append(pairs)
        return kernel(pairs)

    cached = set()
    tree_value = genfun.evaluate

    def remembering(tree, spec):
        value = tree_value(tree, spec)
        cached.add(id(value))
        return value

    monkeypatch.setattr(genfun, "_weighted_sum", recording)
    monkeypatch.setattr(genfun, "evaluate", remembering)
    spec = fresh_spec("delta-inv")
    order = 7
    terms = u_by_enumeration(spec, order).terms
    monkeypatch.undo()
    assert spec._cache == {}
    assert terms == tuple(fraction_weighted_sum(spec, n) for n in range(1, order + 1))
    assert all(type(w) is int and type(x) is tuple for pairs in calls for w, x in pairs)
    for n, pairs in enumerate(calls[: order - 1], start=1):
        assert len(pairs) == len(enumerate_trees(n))
        assert sum(w for w, _ in pairs) == n ** (n - 1)
    top = [pair for pairs in calls[order - 1 :] for pair in pairs]
    labelings = [w for w, value in top if id(value) in cached]
    assert len(labelings) == len(enumerate_trees(order))
    assert sum(labelings) == order ** (order - 1)
    assert all(w == 1 for w, value in top if id(value) not in cached)


def test_cayley_report_matches_fraction_weighted_counts():
    sums = [
        sum((Fraction(1, automorphism_order(t)) for t in enumerate_trees(n)), Fraction(0))
        for n in range(1, 9)
    ]
    rows = [
        {"n": n, "tree_sum": str(s), "closed_form": str(s), "equal": True}
        for n, s in enumerate(sums, start=1)
    ]
    assert [row["tree_sum"] for row in rows][-3:] == ["54/5", "16807/720", "16384/315"]
    assert cayley_check(8).to_jsonable() == {"rows": rows, "residual_zero": True, "ok": True}


def test_guards():
    with pytest.raises(DomainError):
        u_by_recurrence(strict_order_spec(), 0)
    with pytest.raises(DomainError):
        u_by_enumeration(strict_order_spec(), 0)
    with pytest.raises(ResourceLimitError):
        u_by_enumeration(strict_order_spec(), 17)
    with pytest.raises(ResourceLimitError):
        cayley_check(17)
    with pytest.raises(DomainError):
        verify_functional_equation(strict_order_spec(), 6, u_by_enumeration(strict_order_spec(), 4))
    # a residual through q^0 would need exp U through q^-1
    for sequence in (None, u_by_recurrence(strict_order_spec(), 3)):
        with pytest.raises(DomainError, match="need order >= 1"):
            verify_functional_equation(strict_order_spec(), 0, sequence)


def small_guard_spec(degree_bound=None):
    """lambda with its 2^(n-1)-term estimate held to 16 terms, so that a
    tree on 6 vertices is refused."""
    spec = InvariantSpec("lambda", LAMBDA, QSym.one(), degree_bound)
    estimate, _, size_text = spec.guard
    spec.guard = (estimate, 16, size_text)
    return spec


def test_both_builds_refuse_past_the_degree_bound_with_one_message():
    for build in (u_by_recurrence, u_by_enumeration):
        with pytest.raises(DomainError) as err:
            build(qsym_strict_spec(3), 5)
        assert str(err.value) == "the lambda-bar term U_5 outgrows the degree bound 3"
        # the bound comes before the guard, and the enumeration cap before both
        with pytest.raises(DomainError, match="outgrows the degree bound 5"):
            build(small_guard_spec(5), 7)
    with pytest.raises(ResourceLimitError, match="over the limit of 16$"):
        u_by_enumeration(qsym_strict_spec(3), 17)


def test_whole_class_builds_check_the_guard_before_any_evaluation(monkeypatch):
    # the enumeration build never evaluates its largest class, so only the
    # star check before its first class can refuse this order
    evaluated = []
    for module in (genfun, engine):
        monkeypatch.setattr(module, "evaluate", lambda tree, spec: evaluated.append(tree))
    with pytest.raises(ResourceLimitError) as err:
        u_by_enumeration(small_guard_spec(), 6)
    assert str(err.value) == "the lambda term U_6 has an estimated 32 terms, over the limit of 16"
    with pytest.raises(ResourceLimitError) as err:
        collision_report(6, small_guard_spec())
    assert str(err.value) == (
        "the lambda value of a tree on 6 vertices has an estimated 32 terms, over the limit of 16"
    )
    assert evaluated == []
