"""Tree generating functions: the two independent builds of U_n and its
closed form, the fixed-point residual, elementary Schur polynomials, and
the Cayley check."""

from fractions import Fraction
from math import factorial

import pytest

from forestinv import genfun
from forestinv.algebra import Polynomial, QSym, principal_specialization
from forestinv.engine import (
    BUILT_IN_NAMES,
    InvariantSpec,
    built_in_spec,
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
from forestinv.oracles import FiniteVarPoly, exp_by_power_sums, u_by_per_term_exp, u_closed_form
from forestinv.planar import free_word_family
from forestinv.series import Series
from forestinv.trees import automorphism_order, enumerate_trees
from forestinv.words import FreeWord

T = Polynomial.t()


def test_schur_base_cases():
    assert elementary_schur([], 0, one=Fraction(1)) == 1
    assert elementary_schur([Fraction(5)], 1) == 5
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
        # one running exp through q^(N-1); a fresh exp per term would
        # make C(N+1, 3) products, 165 at N = 10
        assert count[0] == order * (order - 1) // 2


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
    # 45 products in the exp through q^9, 55 in the one through q^10
    assert len(operands) == 2 * (45 + 55)
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
    # every tree value is scaled by the int n!/alpha(T), the number of
    # labelings of T, and these add up to n^(n-1) labeled trees
    weights = {}

    class Recorded:
        def __init__(self, n, value):
            self.n, self.value = n, value

        def __rmul__(self, weight):
            weights.setdefault(self.n, []).append(weight)
            return weight * self.value

    real = genfun.evaluate
    monkeypatch.setattr(
        genfun, "evaluate", lambda tree, spec: Recorded(tree.vertex_count, real(tree, spec))
    )
    spec = strict_order_spec()
    terms = u_by_enumeration(spec, 7).terms
    monkeypatch.undo()
    assert terms == tuple(fraction_weighted_sum(spec, n) for n in range(1, 8))
    for n in range(1, 8):
        assert all(type(w) is int for w in weights[n])
        assert sum(weights[n]) == n ** (n - 1)


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
        u_by_recurrence(qsym_strict_spec(3), 5)
    with pytest.raises(DomainError):
        verify_functional_equation(strict_order_spec(), 6, u_by_enumeration(strict_order_spec(), 4))
