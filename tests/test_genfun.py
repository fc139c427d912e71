"""Tree generating functions: the two independent builds of U_n, the
fixed-point residual, elementary Schur polynomials, and the Cayley check."""

from fractions import Fraction
from math import factorial

import pytest

from forestinv import genfun
from forestinv.algebra import FiniteVarPoly, Polynomial, QSym, principal_specialization
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
from forestinv.oracles import exp_by_power_sums
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
    assert seq.terms[0] == QSym.monomial((1,), 3)
    assert seq.terms[1] == QSym.monomial((1, 1), 3)
    seq = u_by_recurrence(qsym_weak_spec(2), 2)
    assert seq.terms[1] == QSym({(1, 1): 1, (2,): 1}, 2)


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
