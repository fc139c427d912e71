"""Algebra carriers: polynomials, Newton basis, quasi-symmetric elements,
the finite-variable model, truncated series, and the word algebras."""

import itertools
import random
from fractions import Fraction

import pytest

from forestinv.algebra import (
    FiniteVarPoly,
    Polynomial,
    QSym,
    binomial_basis,
    from_newton,
    principal_specialization,
    qsym_to_finite,
    quasi_shuffle,
    rat,
    to_newton,
)
from forestinv.errors import DomainError
from forestinv.operators import lambda_bar
from forestinv.series import Series, exp, geometric_inverse
from forestinv.words import FreeWord, TensorElement


def random_polynomial(rng, max_degree=12):
    return Polynomial(
        [
            Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for _ in range(rng.randint(0, max_degree + 1))
        ]
    )


def random_qsym(rng, bound=6):
    terms = {}
    for _ in range(rng.randint(0, 5)):
        comp = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 3)))
        if sum(comp) <= bound:
            terms[comp] = Fraction(rng.randint(-4, 4))
    return QSym(terms, bound)


def test_rat_coercion():
    assert rat(3) == Fraction(3)
    assert rat("3/4") == Fraction(3, 4)
    with pytest.raises(DomainError):
        rat(0.5)


def test_polynomial_basics():
    t = Polynomial.t()
    assert (t * t).coeffs == (0, 0, 1)
    assert (t + (-t)).is_zero()
    assert Polynomial((1, 2)).degree == 1
    assert Polynomial.zero().degree == -1
    half = Fraction(1, 2) * (t * t - t)
    assert half(3) == 3
    assert half(Fraction(1, 2)) == Fraction(-1, 8)


def test_polynomial_shift():
    t = Polynomial.t()
    p = t * t
    assert p.shift(1) == t * t + 2 * t + Polynomial.one()
    assert p.shift(-1)(5) == 16
    rng = random.Random(3)
    for _ in range(30):
        p = random_polynomial(rng, 8)
        c = rng.randint(-3, 3)
        x = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        assert p.shift(c)(x) == p(x + c)


def test_polynomial_ring_axioms():
    rng = random.Random(5)
    for _ in range(40):
        a, b, c = (random_polynomial(rng, 6) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a * Polynomial.one() == a


def test_newton_basis_examples():
    assert to_newton(Polynomial.one()) == [1]
    assert to_newton(Polynomial.t()) == [0, 1]
    assert to_newton(Polynomial.t() * Polynomial.t()) == [0, 1, 2]
    assert binomial_basis(2) == Fraction(1, 2) * (
        Polynomial.t() * Polynomial.t() - Polynomial.t()
    )


def test_newton_round_trip():
    rng = random.Random(7)
    for _ in range(60):
        p = random_polynomial(rng)
        assert from_newton(to_newton(p)) == p
    assert to_newton(Polynomial.zero()) == []
    assert from_newton([]) == Polynomial.zero()


def test_quasi_shuffle_structure():
    # two singletons: both orders plus the merged part
    assert dict(quasi_shuffle((1,), (2,))) == {(1, 2): 1, (2, 1): 1, (3,): 1}
    assert dict(quasi_shuffle((), (1, 2))) == {(1, 2): 1}


def test_qsym_products():
    m1 = QSym.monomial((1,), 6)
    m2 = QSym.monomial((2,), 6)
    assert m1 * m1 == QSym({(1, 1): 2, (2,): 1}, 6)
    assert m1 * m2 == QSym({(1, 2): 1, (2, 1): 1, (3,): 1}, 6)
    assert QSym.one(6) * m2 == m2


def test_qsym_ring_axioms():
    rng = random.Random(9)
    for _ in range(30):
        a, b, c = (random_qsym(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a * QSym.one(6) == a


def test_qsym_truncation_discipline():
    a = QSym.monomial((3,), 4)
    b = QSym.monomial((2,), 4)
    # degree 5 > bound 4: the product truncates to zero
    assert (a * b).is_zero()
    # mixed bounds take the smaller bound
    wide = QSym.monomial((1,), 9)
    narrow = QSym.monomial((1,), 2)
    assert (wide * narrow).max_degree == 2
    # equality ignores the bound
    assert QSym.monomial((1,), 3) == QSym.monomial((1,), 8)
    # None is unbounded: products and sums keep every degree
    free = QSym({(3,): 1, (1,): 1}, None)
    assert free * free == QSym({(3, 3): 2, (6,): 1, (1, 3): 2, (3, 1): 2, (4,): 2,
                                (1, 1): 2, (2,): 1}, None)
    assert (free * free).max_degree is None
    assert (free + QSym.monomial((9,), 9)).terms == {(3,): 1, (1,): 1, (9,): 1}
    # an unbounded operand yields to a bounded one
    assert (free * a).max_degree == 4
    assert free * a == QSym({(1, 3): 1, (3, 1): 1, (4,): 1}, 4)
    assert (free + b).max_degree == 4
    assert (QSym({(5,): 1}, None) + b).terms == {(2,): 1}
    # the prepend operator keeps the top term of an unbounded element
    assert lambda_bar(free) == QSym({(1, 3): 1, (1, 1): 1}, None)


def test_qsym_rejects_bad_compositions():
    with pytest.raises(DomainError):
        QSym({(0, 1): 1}, 4)
    with pytest.raises(DomainError):
        QSym({(-2,): 1}, 4)


def test_principal_specialization_examples():
    m11 = QSym.monomial((1, 1), 4)
    assert principal_specialization(m11, 3) == 3
    assert principal_specialization(QSym.one(4), 5) == 1
    assert principal_specialization(QSym.monomial((2,), 4), 4) == 4


def test_qsym_to_finite_expansion():
    m12 = QSym.monomial((1, 2), 3)
    expanded = qsym_to_finite(m12, 2)
    x1 = FiniteVarPoly.variable(1, 2, 3)
    x2 = FiniteVarPoly.variable(2, 2, 3)
    assert expanded == x1 * x2 * x2
    # more variables than composition parts: all increasing index pairs
    wide = qsym_to_finite(m12, 3)
    assert len(wide.terms) == 3


def test_qsym_product_matches_finite_model():
    # the overlapping shuffle is forced by multiplication of expansions
    comps = [(1,), (2,), (1, 1), (1, 2), (2, 1), (3,)]
    m = 8
    for ca, cb in itertools.product(comps, repeat=2):
        bound = sum(ca) + sum(cb)
        lhs = qsym_to_finite(
            QSym.monomial(ca, bound) * QSym.monomial(cb, bound), m
        )
        rhs = qsym_to_finite(QSym.monomial(ca, bound), m, bound) * qsym_to_finite(
            QSym.monomial(cb, bound), m, bound
        )
        assert lhs == rhs, (ca, cb)


def test_finite_var_poly_shift():
    x1 = FiniteVarPoly.variable(1, 3, 4)
    x2 = FiniteVarPoly.variable(2, 3, 4)
    x3 = FiniteVarPoly.variable(3, 3, 4)
    assert x1.shifted() == x2
    assert x2.shifted() == x3
    assert x3.shifted().is_zero()
    assert FiniteVarPoly.one(3, 4).shifted() == FiniteVarPoly.one(3, 4)
    assert (x1 * x2).shifted() == x2 * x3


def test_finite_var_poly_helpers():
    x1 = FiniteVarPoly.variable(1, 4, 4)
    x3 = FiniteVarPoly.variable(3, 4, 4)
    p = x1 * x3 + x1
    assert p.max_index() == 3
    assert p.restrict_indices(2) == x1
    assert p.restrict_indices(3) == p
    with pytest.raises(DomainError):
        FiniteVarPoly.variable(5, 4, 4)


def test_series_arithmetic():
    one = Fraction(1)
    q = Series.from_terms({1: Fraction(1)}, 4, one)
    assert (q * q).coeffs == (0, 0, 1, 0, 0)
    assert exp(q).coeffs == (1, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24))
    assert geometric_inverse(q).coeffs == (1, 1, 1, 1, 1)
    assert q.times_q().coeffs == (0, 0, 1, 0, 0)


def test_series_mixed_orders_truncate():
    one = Fraction(1)
    a = Series.from_terms({1: Fraction(1)}, 5, one)
    b = Series.from_terms({1: Fraction(2)}, 3, one)
    assert (a + b).order == 3
    assert (a * b).order == 3


def test_series_exp_is_homomorphism():
    one = Fraction(1)
    rng = random.Random(13)
    for _ in range(20):
        a = Series.from_terms(
            {k: Fraction(rng.randint(-3, 3)) for k in range(1, 7)}, 6, one
        )
        b = Series.from_terms(
            {k: Fraction(rng.randint(-3, 3)) for k in range(1, 7)}, 6, one
        )
        assert exp(a + b) == exp(a) * exp(b)


def test_series_geometric_inverse_is_inverse():
    one = FreeWord.one(6)
    rng = random.Random(17)
    letters = ["a", "b"]
    for _ in range(10):
        coeffs = {}
        for k in range(1, 5):
            word = tuple(rng.choice(letters) for _ in range(k))
            coeffs[k] = FreeWord({word: Fraction(rng.randint(-2, 2))}, 6)
        u = Series.from_terms(coeffs, 4, one)
        identity = Series.unit(4, one)
        assert (identity - u) * geometric_inverse(u) == identity
        assert geometric_inverse(u) * (identity - u) == identity


def test_series_domain_errors():
    one = Fraction(1)
    const = Series.from_terms({0: Fraction(1)}, 3, one)
    with pytest.raises(DomainError):
        exp(const)
    with pytest.raises(DomainError):
        geometric_inverse(const)
    word_q = Series.from_terms({1: FreeWord.generator("a")}, 3, FreeWord.one())
    with pytest.raises(DomainError):
        exp(word_q)


def test_free_word_products():
    a = FreeWord.generator("a")
    b = FreeWord.generator("b")
    assert a * b == FreeWord({("a", "b"): 1})
    assert a * b != b * a
    assert (a + b) * a == FreeWord({("a", "a"): 1, ("b", "a"): 1})
    assert FreeWord.one() * a == a
    # length truncation drops long words silently
    bounded = FreeWord.generator("a", max_len=1)
    assert (bounded * bounded).is_zero()


def test_free_word_associativity():
    rng = random.Random(19)
    letters = ["a", "b", "c"]

    def rand_elt():
        return FreeWord(
            {
                tuple(rng.choice(letters) for _ in range(rng.randint(0, 3))): Fraction(
                    rng.randint(-3, 3)
                )
                for _ in range(rng.randint(1, 4))
            }
        )

    for _ in range(30):
        x, y, z = rand_elt(), rand_elt(), rand_elt()
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


def test_tensor_element_products():
    va = TensorElement.single(("a",))
    vb = TensorElement.single(("b", "b"))
    assert va * vb == TensorElement({(("a",), ("b", "b")): 1})
    assert TensorElement.one() * va == va
    with pytest.raises(DomainError):
        bounded = TensorElement.single(("a",), max_len=1)
        bounded * bounded
