"""Difference operators and the power-sum table behind their inverses,
prepend operators, and the finite-variable model oracle."""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import forestinv
from forestinv import operators, oracles
from forestinv.algebra import Polynomial, QSym
from forestinv.engine import InvariantSpec, built_in_spec, evaluate
from forestinv.operators import (
    POLYNOMIAL,
    LinearOperator,
    delta,
    delta_inv,
    lambda_,
    lambda_bar,
    nabla,
    nabla_inv,
)
from forestinv.oracles import (
    FiniteVarPoly,
    binomial_basis,
    delta_inv_by_newton,
    finite_lambda,
    finite_lambda_bar,
    qsym_to_finite,
    shift_s,
)
from forestinv.trees import enumerate_trees

T = Polynomial.t()
ONE = Polynomial.one()


def random_polynomial(rng, max_degree=10):
    return Polynomial(
        [
            Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for _ in range(rng.randint(0, max_degree + 1))
        ]
    )


def test_difference_examples():
    assert delta(T * T) == 2 * T + ONE
    assert nabla(T * T) == 2 * T - ONE
    assert delta(ONE).is_zero()


def test_difference_inverse_examples():
    assert delta_inv(ONE) == T
    assert nabla_inv(ONE) == T
    assert delta_inv(T) == binomial_basis(2)
    assert nabla_inv(T) == Fraction(1, 2) * (T * T + T)
    assert delta_inv(Polynomial.zero()).is_zero()
    # the strict count of the two-leaf cherry: X(t^2)
    assert delta_inv(T * T) == Polynomial((0, Fraction(1, 6), Fraction(-1, 2), Fraction(1, 3)))


def test_difference_inverses_are_sections():
    rng = random.Random(31)
    for _ in range(50):
        g = random_polynomial(rng)
        f = delta_inv(g)
        assert delta(f) == g
        assert f(0) == 0
        h = nabla_inv(g)
        assert nabla(h) == g
        assert h(0) == 0


def test_difference_inverse_is_summation():
    # f(m) accumulates g over the expected range
    rng = random.Random(37)
    for _ in range(20):
        g = random_polynomial(rng, 5)
        f_strict = delta_inv(g)
        f_weak = nabla_inv(g)
        for m in range(0, 7):
            assert f_strict(m) == sum(g(i) for i in range(0, m))
            assert f_weak(m) == sum(g(i) for i in range(1, m + 1))


def nabla_inv_by_newton(g):
    return delta_inv_by_newton(g) + g - Polynomial((g.coefficient(0),))


def polynomial_of_degree(rng, degree):
    lead = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
    return Polynomial(
        [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(degree)] + [lead]
    )


def test_difference_inverses_match_newton_oracle():
    rng = random.Random(41)
    for degree in range(31):
        for _ in range(3):
            g = polynomial_of_degree(rng, degree)
            assert g.degree == degree
            assert delta_inv(g) == delta_inv_by_newton(g)
            assert nabla_inv(g) == nabla_inv_by_newton(g)
    assert delta_inv(Polynomial.zero()) == delta_inv_by_newton(Polynomial.zero())


@pytest.mark.parametrize(
    "name, oracle",
    [("delta-inv", delta_inv_by_newton), ("nabla-inv", nabla_inv_by_newton)],
    ids=["delta-inv", "nabla-inv"],
)
def test_tree_values_match_newton_oracle(name, oracle):
    spec = InvariantSpec(name, LinearOperator(name, POLYNOMIAL, oracle), Polynomial.one())
    shared = built_in_spec(name)
    for n in range(1, 10):
        for tree in enumerate_trees(n):
            assert evaluate(tree, spec) == evaluate(tree, shared)


def test_delta_inv_needs_no_newton_basis_or_evaluation(monkeypatch):
    calls = []

    def counting(name, func):
        def counted(*args, **kwargs):
            calls.append(name)
            return func(*args, **kwargs)

        return counted

    # rebind to_newton wherever a forestinv module holds it
    original = oracles.to_newton
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").split(".")[0] != "forestinv":
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, key, counting("to_newton", original))
    monkeypatch.setattr(Polynomial, "__call__", counting("__call__", Polynomial.__call__))
    rng = random.Random(43)
    for degree in range(13):
        g = polynomial_of_degree(rng, degree)
        delta_inv(g)
        nabla_inv(g)
    assert calls == []


def test_power_sum_table_grows_to_the_highest_degree(monkeypatch):
    monkeypatch.setattr(operators, "_POWER_SUMS", ((), 1))
    rng = random.Random(47)
    tables = []
    for degree in (12, 5, 20):
        g = polynomial_of_degree(rng, degree)
        assert delta_inv(g) == delta_inv_by_newton(g)
        assert nabla_inv(g) == nabla_inv_by_newton(g)
        tables.append(operators._POWER_SUMS)
    # degree 5 reads the degree-12 table without rebuilding it
    assert tables[1] is tables[0]
    rows, den = operators._POWER_SUMS
    assert len(rows) == 21
    assert [len(row) for row in rows] == [k + 2 for k in range(21)]
    assert type(den) is int and den > 0
    assert all(type(a) is int for row in rows for a in row)
    for k, row in enumerate(rows):
        power_sum = Polynomial.from_numerators(row, den)
        for t in range(6):
            assert power_sum(t) == sum(j**k for j in range(t))


def test_import_builds_no_power_sum_table():
    src = Path(forestinv.__file__).resolve().parents[1]
    code = "import forestinv, forestinv.operators as o; print(o._POWER_SUMS == ((), 1))"
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        check=True,
    )
    assert done.stdout.strip() == "True"


FRACTIONS = st.fractions(min_value=-30, max_value=30, max_denominator=12)


@settings(max_examples=50, deadline=None)
@given(st.lists(FRACTIONS, max_size=12))
def test_difference_inverses_are_sections_property(cs):
    g = Polynomial(cs)
    assert delta(delta_inv(g)) == g
    assert nabla(nabla_inv(g)) == g
    assert delta_inv(g)(0) == 0
    assert nabla_inv(g)(0) == 0


def test_prepend_examples():
    assert lambda_bar(QSym.one()) == QSym.monomial((1,))
    assert lambda_(QSym.one()) == QSym.monomial((1,))
    assert lambda_bar(QSym.monomial((1,))) == QSym.monomial((1, 1))
    assert lambda_(QSym.monomial((1,))) == QSym({(1, 1): 1, (2,): 1})
    assert lambda_bar(QSym.monomial((2, 1))) == QSym.monomial((1, 2, 1))
    assert lambda_(QSym.monomial((2, 1))) == QSym({(1, 2, 1): 1, (3, 1): 1})


def test_prepend_linearity():
    a = QSym({(1,): Fraction(2), (1, 1): Fraction(-1, 3)})
    assert lambda_bar(a) == QSym({(1, 1): Fraction(2), (1, 1, 1): Fraction(-1, 3)})


def all_compositions(total_max):
    out = [()]
    for total in range(1, total_max + 1):
        def build(remaining, acc):
            if remaining == 0:
                out.append(acc)
                return
            for part in range(1, remaining + 1):
                build(remaining - part, acc + (part,))
        build(total, ())
    return out


def test_prepend_operators_match_finite_model():
    # expand each monomial element in 10 variables and compare with the
    # direct shift-sum realization of the operators
    m = 10
    for comp in all_compositions(5):
        bound = sum(comp) + 1
        element = QSym.monomial(comp)
        expanded = qsym_to_finite(element, m, bound)
        assert qsym_to_finite(lambda_bar(element), m, bound) == finite_lambda_bar(expanded)
        assert qsym_to_finite(lambda_(element), m, bound) == finite_lambda(expanded)


def test_prepend_operators_match_finite_model_on_sums():
    rng = random.Random(41)
    m = 10
    comps = all_compositions(4)
    for _ in range(15):
        terms = {}
        for comp in rng.sample(comps, rng.randint(1, 5)):
            terms[comp] = Fraction(rng.randint(-5, 5))
        element = QSym(terms)
        expanded = qsym_to_finite(element, m, 6)
        got = qsym_to_finite(lambda_bar(element), m, 6)
        assert got == finite_lambda_bar(expanded)
        got = qsym_to_finite(lambda_(element), m, 6)
        assert got == finite_lambda(expanded)


def test_shift_examples():
    x1 = FiniteVarPoly.variable(1, 2, 3)
    x2 = FiniteVarPoly.variable(2, 2, 3)
    assert shift_s(x1) == x2
    assert shift_s(FiniteVarPoly.one(2, 3)) == FiniteVarPoly.one(2, 3)
    assert shift_s(x1 * x2).is_zero()


def exact_rank(rows):
    """Gaussian elimination over Fraction; rows is a list of lists."""
    matrix = [list(map(Fraction, row)) for row in rows]
    rank = 0
    cols = len(matrix[0]) if matrix else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][col] != 0), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        inv = Fraction(1) / matrix[rank][col]
        matrix[rank] = [inv * v for v in matrix[rank]]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col] != 0:
                factor = matrix[r][col]
                matrix[r] = [v - factor * p for v, p in zip(matrix[r], matrix[rank])]
        rank += 1
    return rank


def compositions_of(total):
    if total == 0:
        return [()]
    out = []
    for part in range(1, total + 1):
        for rest in compositions_of(total - part):
            out.append((part,) + rest)
    return out


@pytest.mark.parametrize("operator", [lambda_bar, lambda_])
def test_prepend_operators_injective_between_degrees(operator):
    # the matrix from degree n to degree n + 1 has full column rank
    for n in range(1, 6):
        domain = compositions_of(n)
        codomain = {c: i for i, c in enumerate(compositions_of(n + 1))}
        columns = []
        for comp in domain:
            image = operator(QSym.monomial(comp))
            column = [Fraction(0)] * len(codomain)
            for out_comp, coeff in image.terms.items():
                column[codomain[out_comp]] = coeff
            columns.append(column)
        rows = [[columns[j][i] for j in range(len(columns))] for i in range(len(codomain))]
        assert exact_rank(rows) == len(domain)


def test_delta_and_nabla_inv_do_not_commute():
    # delta undoes nabla_inv only up to a shift, so the orders differ on t^2
    p = T * T
    assert delta(nabla_inv(p)) == p + 2 * T + ONE
    assert nabla_inv(delta(p)) == p + 2 * T
