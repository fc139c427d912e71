"""Algebra carriers: polynomials, Newton basis, quasi-symmetric elements,
the finite-variable model, truncated series, and the word algebras."""

import itertools
import json
import math
import random
from fractions import Fraction
from functools import partial
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestinv.algebra import (
    MAX_PART,
    Polynomial,
    QSym,
    code,
    parts,
    principal_specialization,
    quasi_shuffle,
    rat,
)
from forestinv.errors import DomainError
from forestinv.operators import delta_inv, lambda_, lambda_bar
from forestinv.oracles import FiniteVarPoly, qsym_to_finite, shift
from forestinv.render import pretty, render_value
from forestinv.series import Series, exp, geometric_inverse, is_noncommutative
from forestinv.words import FreeWord, TensorElement
from references import (
    binomial_basis,
    exp_by_power_sums,
    geometric_inverse_by_powers,
    render_by_structure,
    to_newton,
)


def random_polynomial(rng, max_degree=12):
    return Polynomial(
        [
            Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for _ in range(rng.randint(0, max_degree + 1))
        ]
    )


def random_qsym(rng, max_degree=6):
    terms = {}
    for _ in range(rng.randint(0, 5)):
        comp = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 3)))
        if sum(comp) <= max_degree:
            terms[comp] = Fraction(rng.randint(-4, 4))
    return QSym(terms)


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
    assert shift(p, 1) == t * t + 2 * t + Polynomial.one()
    assert shift(p, -1)(5) == 16
    rng = random.Random(3)
    for _ in range(30):
        p = random_polynomial(rng, 8)
        c = rng.randint(-3, 3)
        x = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        assert shift(p, c)(x) == p(x + c)


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
        rebuilt = Polynomial.zero()
        for k, c in enumerate(to_newton(p)):
            rebuilt = rebuilt + c * binomial_basis(k)
        assert rebuilt == p
    assert to_newton(Polynomial.zero()) == []


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=12), max_size=8),
    st.integers(1, 24),
)
def test_polynomial_from_values_round_trips_its_samples(values, denominator):
    samples = [Fraction(v) / denominator for v in values]
    p = Polynomial.from_values(values, denominator)
    assert p.degree < len(values)
    assert p == Polynomial(p.coeffs)
    assert [p(k) for k in range(len(values))] == samples
    # the Newton coefficients are the forward differences of the samples
    differences, row = [], samples
    while row:
        differences.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    newton = to_newton(p)
    assert newton == differences[: len(newton)]
    assert not any(differences[len(newton) :])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-10**30, 10**30), max_size=10), st.integers(1, 24))
def test_polynomial_from_int_values_matches_the_same_values_as_fractions(values, denominator):
    # int values skip the coefficient coercion; Fractions take it
    p = Polynomial.from_values(tuple(values), denominator)
    assert p == Polynomial.from_values([Fraction(v) for v in values], denominator)
    assert (p.numerators, p.denominator) == (
        Polynomial(p.coeffs).numerators, Polynomial(p.coeffs).denominator
    )


def test_quasi_shuffle_structure():
    # two singletons: both orders plus the merged part
    def shuffled(a, b):
        return {parts(key): m for key, m in quasi_shuffle(code(a), code(b))}

    assert shuffled((1,), (2,)) == {(1, 2): 1, (2, 1): 1, (3,): 1}
    assert shuffled((), (1, 2)) == {(1, 2): 1}


def test_key_codes_round_trip_and_mark_the_unit():
    for comp in [(), (1,), (3, 1, 2), (255, 256, 65535, 65536), (MAX_PART, 1)]:
        key = code(comp)
        assert type(key) is str and len(key) == len(comp)
        assert parts(key) == comp
    assert code(()) == "" and QSym.one().terms == {"": 1}
    assert QSym.monomial((1,)).one_like() == QSym.one()
    assert FreeWord.generator("a").one_like().terms == {(): 1}


def test_parts_past_one_byte_render_repr_and_specialize_like_the_oracle():
    big = QSym.monomial((300, 70000, 1))
    mixed = big + QSym({(2,): 1, (70000,): Fraction(-1, 2), (1, 300): 3, (0xD800, 1): 1})
    for x in (big, mixed, big * QSym.monomial((5,)), lambda_(big), lambda_bar(mixed)):
        assert render_value(x) == render_by_structure(x)
        finite = qsym_to_finite(x, 4)
        assert principal_specialization(x, 4) == sum(finite.terms.values())
    assert repr(big) == "QSym(M(300,70000,1))"
    assert big.homogeneous_degree() == 70301
    assert render_value(lambda_(big))[1] == {"composition": [301, 70000, 1], "coefficient": "1"}


def test_parts_past_the_largest_code_point_are_refused():
    for comp in [(MAX_PART + 1,), (1, 2**70), (0,), (2, -1), (1.5,), ("a",)]:
        with pytest.raises(DomainError):
            code(comp)
        with pytest.raises(DomainError):
            QSym({comp: 1})
    with pytest.raises(DomainError):
        QSym.monomial((MAX_PART + 1,))
    top = QSym.monomial((MAX_PART,))
    # a merged head past the largest code point is refused, not a chr error
    with pytest.raises(DomainError):
        top * QSym.monomial((1,))
    with pytest.raises(DomainError):
        lambda_(top)
    assert parts(next(iter(lambda_bar(top).terms))) == (1, MAX_PART)


def test_qsym_products():
    m1 = QSym.monomial((1,))
    m2 = QSym.monomial((2,))
    assert m1 * m1 == QSym({(1, 1): 2, (2,): 1})
    assert m1 * m2 == QSym({(1, 2): 1, (2, 1): 1, (3,): 1})
    assert QSym.one() * m2 == m2


def test_a_product_and_its_reverse_fill_one_orientation_of_the_pair_table():
    # the operand with more terms goes outside in either order, so the
    # reverse product finds every pair the first one filled; parts this
    # large meet no composition another test has cached
    x = QSym({(91, 2, 93): 3, (94, 95): Fraction(1, 2), (96,): -1})
    m1 = QSym.monomial((1,))
    before = quasi_shuffle.cache_info().misses
    forward = m1 * x
    filled = quasi_shuffle.cache_info().misses
    assert filled > before
    assert x * m1 == forward
    assert quasi_shuffle.cache_info().misses == filled
    assert forward == QSym({
        (1, 91, 2, 93): 3, (91, 1, 2, 93): 3, (91, 2, 1, 93): 3, (91, 2, 93, 1): 3,
        (92, 2, 93): 3, (91, 3, 93): 3, (91, 2, 94): 3,
        (1, 94, 95): Fraction(1, 2), (94, 1, 95): Fraction(1, 2),
        (94, 95, 1): Fraction(1, 2), (95, 95): Fraction(1, 2), (94, 96): Fraction(1, 2),
        (1, 96): -1, (96, 1): -1, (97,): -1,
    })


def test_trusted_constructor_drops_cancelled_int_terms():
    # int-only sums and products take the trusted path unchanged unless a
    # coefficient cancels to zero, which is still dropped
    a = QSym({(1,): 1, (2,): 2})
    assert (a + QSym({(1,): -1})).terms == {code((2,)): 2}
    assert (a - a).terms == {}
    # M_1 M_(1,1) = 3 M_(1,1,1) + M_(1,2) + M_(2,1); M_1 M_2 = M_(1,2) + M_(2,1) + M_3
    product = QSym.monomial((1,)) * QSym({(1, 1): 1, (2,): -1})
    assert product.terms == {code((1, 1, 1)): 3, code((3,)): -1}
    assert product == QSym({(1, 1, 1): 3, (3,): -1, (1, 2): 0})


def test_qsym_ring_axioms():
    rng = random.Random(9)
    for _ in range(30):
        a, b, c = (random_qsym(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a * QSym.one() == a


def test_qsym_products_keep_every_degree():
    free = QSym({(3,): 1, (1,): 1})
    assert free * free == QSym({(3, 3): 2, (6,): 1, (1, 3): 2, (3, 1): 2, (4,): 2,
                                (1, 1): 2, (2,): 1})
    assert lambda_bar(free) == QSym({(1, 3): 1, (1, 1): 1})
    m1 = QSym.monomial((1,))
    assert m1 * m1 == QSym({(2,): 1, (1, 1): 2})


def test_qsym_monomial_degree_cap_refuses():
    assert QSym.monomial((1, 2), 3) == QSym.monomial((1, 2), 4) == QSym.monomial((1, 2))
    with pytest.raises(DomainError, match="above 2"):
        QSym.monomial((1, 2), 2)
    with pytest.raises(DomainError):
        QSym.monomial((1,), 0)


def test_qsym_rejects_bad_compositions():
    with pytest.raises(DomainError):
        QSym({(0, 1): 1})
    with pytest.raises(DomainError):
        QSym({(-2,): 1})


def test_principal_specialization_examples():
    m11 = QSym.monomial((1, 1))
    assert principal_specialization(m11, 3) == 3
    assert principal_specialization(QSym.one(), 5) == 1
    assert principal_specialization(QSym.monomial((2,)), 4) == 4


def test_qsym_to_finite_expansion():
    m12 = QSym.monomial((1, 2))
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
        lhs = qsym_to_finite(QSym.monomial(ca) * QSym.monomial(cb), m)
        rhs = qsym_to_finite(QSym.monomial(ca), m, bound) * qsym_to_finite(
            QSym.monomial(cb), m, bound
        )
        assert lhs == rhs, (ca, cb)


def test_leaf_value_power_matches_finite_model():
    # M_(1) is p_1 = x_1 + ... + x_m, so its m-th power in closed form
    # must expand to p_1^m in m variables, multiplied out there
    for m in range(1, 10):
        p1 = FiniteVarPoly.zero(m, m)
        for i in range(1, m + 1):
            p1 = p1 + FiniteVarPoly.variable(i, m, m)
        expected = p1
        for _ in range(m - 1):
            expected = expected * p1
        assert qsym_to_finite(QSym.monomial((1,)) ** m, m) == expected, m


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
    with pytest.raises(DomainError):
        FiniteVarPoly.variable(5, 4, 4)


def test_series_arithmetic():
    one = Fraction(1)
    q = Series.from_terms({1: Fraction(1)}, 4, one)
    assert (q * q).coeffs == (0, 0, 1, 0, 0)
    assert exp(q).coeffs == (1, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24))
    assert geometric_inverse(q).coeffs == (1, 1, 1, 1, 1)
    assert q.times_q().coeffs == (0, 0, 1, 0, 0, 0)


def test_series_mixed_orders_truncate():
    one = Fraction(1)
    a = Series.from_terms({1: Fraction(1)}, 5, one)
    b = Series.from_terms({1: Fraction(2)}, 3, one)
    assert (a + b).order == 3
    assert (a * b).order == 3


# Property tests stay small so tier-1 time stays flat.
PROPERTY = settings(max_examples=50, deadline=None)
FRACTIONS = st.fractions(min_value=-5, max_value=5, max_denominator=6)
# (unit, coefficient strategy) for the commutative carriers
COMMUTATIVE = st.sampled_from(
    [
        (Fraction(1), FRACTIONS),
        (Polynomial.one(), st.lists(FRACTIONS, max_size=3).map(Polynomial)),
    ]
)
WORDS = st.lists(st.sampled_from("ab"), max_size=2).map(tuple)


def series_with(coefficients, one, max_order=6):
    """Strategy for a series with zero constant term, of order at most
    max_order."""
    return st.lists(coefficients, max_size=max_order).map(
        lambda cs: Series((Fraction(0) * one, *cs), one)
    )


@st.composite
def commutative_series(draw, count=1):
    one, coefficients = draw(COMMUTATIVE)
    return [draw(series_with(coefficients, one)) for _ in range(count)]


def word_series():
    element = st.dictionaries(WORDS, st.integers(-3, 3), max_size=3).map(FreeWord)
    return series_with(element, FreeWord.one(), 5)


@PROPERTY
@given(commutative_series(count=2))
def test_series_exp_is_homomorphism(pair):
    a, b = pair
    assert exp(a + b) == exp(a) * exp(b)


@PROPERTY
@given(word_series())
def test_series_geometric_inverse_is_inverse(u):
    identity = Series.unit(u.order, u.one)
    assert (identity - u) * geometric_inverse(u) == identity
    assert geometric_inverse(u) * (identity - u) == identity


@PROPERTY
@given(st.one_of(commutative_series(), word_series().map(lambda u: [u])))
def test_series_recurrences_match_power_sums_property(single):
    (f,) = single
    assert geometric_inverse(f) == geometric_inverse_by_powers(f)
    if not is_noncommutative(f.one):
        assert exp(f) == exp_by_power_sums(f)


def _random_composition(rng, degree):
    parts = []
    while degree:
        parts.append(rng.randint(1, degree))
        degree -= parts[-1]
    return tuple(parts)


def _random_words(rng, length):
    return {tuple(rng.choice("ab") for _ in range(length)): rng.randint(-3, 3)
            for _ in range(2)}


# carrier -> (unit at an order, random q^k coefficient at that order).  The
# graded carriers draw q^k in degree k so products stay small.
SERIES_CARRIERS = {
    "fraction": (
        lambda order: Fraction(1),
        lambda rng, k, order: Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
    ),
    "polynomial": (
        lambda order: Polynomial.one(),
        lambda rng, k, order: random_polynomial(rng, 3),
    ),
    "qsym-unbounded": (
        lambda order: QSym.one(),
        lambda rng, k, order: QSym(
            {_random_composition(rng, k): rng.randint(-3, 3) for _ in range(2)}
        ),
    ),
    "freeword-unbounded": (
        lambda order: FreeWord.one(),
        lambda rng, k, order: FreeWord(_random_words(rng, k)),
    ),
}


@pytest.mark.parametrize("carrier", sorted(SERIES_CARRIERS))
def test_series_recurrences_match_power_sums(carrier):
    unit_at, draw = SERIES_CARRIERS[carrier]
    rng = random.Random(23)
    for order in range(9):
        one = unit_at(order)
        zero = Series.zero(order, one)
        cases = [zero] + [
            Series((Fraction(0) * one, *(draw(rng, k, order) for k in range(1, order + 1))), one)
            for _ in range(2)
        ]
        for f in cases:
            inverse = geometric_inverse(f)
            assert inverse == geometric_inverse_by_powers(f)
            assert inverse.order == order
            if not is_noncommutative(one):
                assert exp(f) == exp_by_power_sums(f)
                assert exp(f).order == order
        assert geometric_inverse(zero) == Series.unit(order, one)
        if not is_noncommutative(one):
            assert exp(zero) == Series.unit(order, one)


def test_series_recurrences_make_quadratically_many_products(monkeypatch):
    counts = {"poly": 0, "word": 0}
    poly_mul, word_sum = Polynomial.__mul__, FreeWord.sum_of_products

    def counting_poly_mul(self, other):
        if isinstance(other, Polynomial):  # scalar multiples are not counted
            counts["poly"] += 1
        return poly_mul(self, other)

    def counting_word_sum(pairs):
        # the word products run inside the one-pass kernel: count its pairs
        pairs = list(pairs)
        counts["word"] += len(pairs)
        return word_sum(pairs)

    monkeypatch.setattr(Polynomial, "__mul__", counting_poly_mul)
    monkeypatch.setattr(FreeWord, "sum_of_products", staticmethod(counting_word_sum))
    order = 12
    rng = random.Random(29)
    poly = Series(
        (Polynomial(), *(Polynomial((rng.randint(1, 5), 1)) for _ in range(order))),
        Polynomial.one(),
    )
    words = Series(
        (FreeWord.zero(), *(FreeWord({(rng.choice("ab"),) * k: 1}) for k in range(1, order + 1))),
        FreeWord.one(),
    )
    exp(poly)
    geometric_inverse(words)
    # N(N+1)/2 products or operand pairs at order N, N of the pairs with the
    # unit; summing powers needs O(N^3)
    assert 0 < counts["poly"] <= order * (order + 1) // 2
    assert 0 < counts["word"] <= order * (order + 1) // 2


@pytest.mark.parametrize(
    "one",
    [Polynomial.one(), QSym.one(), FreeWord.one()],
    ids=["polynomial", "qsym", "freeword"],
)
def test_series_recurrences_take_scalar_coefficients_onto_a_carrier_unit(one):
    # a scalar coefficient of a carrier series is that multiple of the
    # unit; the constant term stays the carrier's zero
    scalars = (0, 1, Fraction(-1, 2), 3)
    lifted = tuple(c * one for c in scalars)
    expected = geometric_inverse(Series(scalars, 1)).map(lambda c: c * one)
    for coeffs in ((lifted[0], *scalars[1:]), (lifted[0], Fraction(1), lifted[2], 3)):
        assert geometric_inverse(Series(coeffs, one)) == expected
        assert geometric_inverse(Series(coeffs, one)) == geometric_inverse(Series(lifted, one))
        if not is_noncommutative(one):
            assert exp(Series(coeffs, one)) == exp(Series(scalars, 1)).map(lambda c: c * one)


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
    # the same refusals with a feedback map, before it is ever called
    calls = []

    def feedback(x):
        calls.append(x)
        return x

    with pytest.raises(DomainError, match="zero constant term"):
        exp(const, feedback)
    with pytest.raises(DomainError, match="commutative"):
        exp(word_q, feedback)
    with pytest.raises(DomainError, match="zero constant term"):
        geometric_inverse(const, feedback)
    assert calls == []


FEEDBACK_QSYM_ONE = QSym.one()


def feedback_qsyms(coefficients):
    """Strategy for small quasi-symmetric series coefficients."""
    compositions = st.lists(st.integers(1, 2), min_size=1, max_size=2).map(tuple)
    return st.dictionaries(compositions, coefficients, max_size=2).map(QSym)


# (series, linear feedback map X) over each commutative carrier
FEEDBACK_CASES = st.one_of(
    st.tuples(series_with(FRACTIONS, Fraction(1)), FRACTIONS.map(partial(partial, mul))),
    *(
        st.tuples(
            series_with(feedback_qsyms(coefficients), FEEDBACK_QSYM_ONE, max_order=4),
            st.sampled_from([lambda_bar, lambda_]),
        )
        for coefficients in (FRACTIONS, st.integers(-3, 3))
    ),
    st.tuples(
        series_with(st.lists(FRACTIONS, max_size=3).map(Polynomial), Polynomial.one()),
        st.just(delta_inv),
    ),
)


@PROPERTY
@given(FEEDBACK_CASES)
def test_series_exp_with_feedback_solves_its_equation(case):
    # E = exp(f + q X(E)): the series g = f + q X(E) it solved for gives E
    # back under both exp builds
    f, feedback = case
    e = exp(f, feedback)
    assert e.order == f.order
    g = f + e.map(feedback).times_q()
    assert e == exp(g) == exp_by_power_sums(g)


def test_series_exp_feedback_sees_each_coefficient_once():
    # with f = 0 and X(x) = x, T = qE solves T = q exp(T), the tree
    # function, so E_n = T_(n+1) = (n+1)^n/(n+1)!
    seen = []

    def feedback(x):
        seen.append(x)
        return x

    e = exp(Series.zero(6, Fraction(1)), feedback)
    assert e.coeffs == tuple(
        Fraction((n + 1) ** n, math.factorial(n + 1)) for n in range(7)
    )
    assert seen == list(e.coeffs[:-1])


# (word series, linear feedback map X): left and right multiplication
WORD_FEEDBACK_CASES = st.tuples(
    word_series(),
    st.sampled_from(
        [partial(mul, FreeWord.generator("a")), lambda x: x * FreeWord.generator("b")]
    ),
)


@PROPERTY
@given(st.one_of(FEEDBACK_CASES, WORD_FEEDBACK_CASES))
def test_series_geometric_inverse_with_feedback_solves_its_equation(case):
    # G = 1/(1 - f - q X(G)): the series h = f + q X(G) it solved for gives
    # G back under both inverse builds
    f, feedback = case
    g = geometric_inverse(f, feedback)
    assert g.order == f.order
    h = f + g.map(feedback).times_q()
    assert g == geometric_inverse(h) == geometric_inverse_by_powers(h)


# word series for the one-pass kernel of `geometric_inverse`: words of mixed
# lengths over two letters, so keys collide across the pairs of a sum, and
# Fraction coefficients with unequal denominators; each with a feedback map
# that multiplies by a generator from either side
WORD_CARRIERS = {
    FreeWord: (WORDS, FreeWord.generator("a"), FreeWord.generator("b")),
    TensorElement: (
        st.lists(WORDS, max_size=2).map(tuple),
        TensorElement.single(("a",)),
        TensorElement.single(("b", "a")),
    ),
}


@st.composite
def word_inverse_cases(draw):
    carrier = draw(st.sampled_from(list(WORD_CARRIERS)))
    keys, left, right = WORD_CARRIERS[carrier]
    coefficients = st.one_of(st.integers(-3, 3), FRACTIONS)
    element = st.dictionaries(keys, coefficients, max_size=3).map(carrier)
    f = draw(series_with(element, carrier.one(), 5))
    feedback = draw(st.sampled_from([None, partial(mul, left), lambda x: x * right]))
    return f, feedback


@PROPERTY
@given(word_inverse_cases())
def test_word_geometric_inverse_matches_power_sums_property(case):
    # the coefficients summed by `_Concatenation.sum_of_products` against the
    # ordered powers of the series solved for
    f, feedback = case
    g = geometric_inverse(f, feedback)
    h = f if feedback is None else f + g.map(feedback).times_q()
    assert g == geometric_inverse_by_powers(h)


def test_series_geometric_inverse_feedback_sees_each_coefficient_once():
    # with f = 0 and X(x) = x, G = 1/(1 - q G) counts plane trees, so G_n is
    # the Catalan number C(2n, n)/(n+1)
    seen = []

    def feedback(x):
        seen.append(x)
        return x

    g = geometric_inverse(Series.zero(6, Fraction(1)), feedback)
    assert g.coeffs == tuple(math.comb(2 * n, n) // (n + 1) for n in range(7))
    assert seen == list(g.coeffs[:-1])


def test_series_feedback_adds_only_the_non_zero_coefficients():
    # zero coefficients between non-zero ones: the values are pinned from the
    # recurrences that added every coefficient to the fed-back value
    double = partial(mul, 2)
    scalars = Series((0, 1, 0, Fraction(-1, 2), 0, 3), Fraction(1))
    assert exp(scalars, double).coeffs == (
        1, 3, Fraction(21, 2), 43, Fraction(1567, 8), Fraction(38041, 40)
    )
    assert geometric_inverse(scalars, double).coeffs == (
        1, 3, 15, Fraction(185, 2), 641, Fraction(9521, 2)
    )
    a, b = FreeWord.generator("a"), FreeWord.generator("b")
    zero = FreeWord.zero()
    words = Series((zero, a, zero, Fraction(1, 2) * b * a, zero), FreeWord.one())
    assert [pretty(c) for c in geometric_inverse(words, partial(mul, b)).coeffs] == [
        "1*1",
        "a + b",
        "a.a + a.b + 2*b.a + 2*b.b",
        "1/2*b.a + a.a.a + a.a.b + 2*a.b.a + 2*a.b.b + 3*b.a.a + 3*b.a.b + 5*b.b.a"
        " + 5*b.b.b",
        "1/2*a.b.a + 1/2*b.a.a + 1/2*b.a.b + b.b.a + a.a.a.a + a.a.a.b + 2*a.a.b.a"
        " + 2*a.a.b.b + 3*a.b.a.a + 3*a.b.a.b + 5*a.b.b.a + 5*a.b.b.b + 4*b.a.a.a"
        " + 4*b.a.a.b + 7*b.a.b.a + 7*b.a.b.b + 9*b.b.a.a + 9*b.b.a.b + 14*b.b.b.a"
        " + 14*b.b.b.b",
    ]
    qsyms = Series(
        (QSym.zero(), QSym.zero(), QSym({(2,): 1}), QSym.zero(), QSym({(1, 1): Fraction(1, 3)})),
        QSym.one(),
    )
    assert [pretty(c) for c in exp(qsyms, lambda_bar).coeffs] == [
        "1*1",
        "M(1)",
        "2*M(1,1) + 3/2*M(2)",
        "6*M(1,1,1) + 4*M(1,2) + 5/2*M(2,1) + 7/6*M(3)",
        "1/3*M(1,1) + 24*M(1,1,1,1) + 15*M(1,1,2) + 12*M(1,2,1) + 16/3*M(1,3)"
        " + 8*M(2,1,1) + 21/4*M(2,2) + 8/3*M(3,1) + 25/24*M(4)",
    ]


def test_free_word_products():
    a = FreeWord.generator("a")
    b = FreeWord.generator("b")
    assert a * b == FreeWord({("a", "b"): 1})
    assert a * b != b * a
    assert (a + b) * a == FreeWord({("a", "a"): 1, ("b", "a"): 1})
    assert FreeWord.one() * a == a


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


# --- integer kernels: Polynomial numerators, int coefficients in dict carriers


def trimmed(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def assert_reduced(p):
    nums, den = p.numerators, p.denominator
    assert type(den) is int and den > 0
    assert all(type(n) is int for n in nums)
    assert not nums or nums[-1] != 0
    assert math.gcd(den, *nums) == 1
    if not nums:
        assert den == 1
    assert all(type(c) is Fraction for c in p.coeffs)


COEFF_LISTS = st.lists(st.fractions(min_value=-30, max_value=30, max_denominator=12), max_size=8)
SCALARS = st.fractions(min_value=-9, max_value=9, max_denominator=8)


@PROPERTY
@given(COEFF_LISTS)
def test_polynomial_reduced_form_property(cs):
    p = Polynomial(cs)
    assert_reduced(p)
    assert p.coeffs == trimmed(cs)
    assert Polynomial(p.coeffs) == p
    assert Polynomial.from_numerators(p.numerators, p.denominator) == p


@PROPERTY
@given(COEFF_LISTS, st.integers(-6, 6).filter(bool))
def test_polynomial_equal_values_hash_equal(cs, k):
    den = math.lcm(*(c.denominator for c in cs))
    built = [
        Polynomial(cs),
        Polynomial([str(c) for c in cs]),
        Polynomial([c.numerator if c.denominator == 1 else c for c in cs] + [0, Fraction(0)]),
        Polynomial.from_numerators(
            [c.numerator * (den // c.denominator) * k for c in cs], den * k
        ),
    ]
    for p in built:
        assert_reduced(p)
        assert p == built[0]
        assert hash(p) == hash(built[0])


def test_polynomial_equal_values_hash_equal_examples():
    half = Polynomial((Fraction(2, 4),))
    assert half == Polynomial(("1/2",)) == Polynomial.from_numerators((-3,), -6)
    assert hash(half) == hash(Polynomial(("1/2",)))
    assert (half.numerators, half.denominator) == ((1,), 2)
    zero = Polynomial((0, Fraction(0), "0/5"))
    assert (zero.numerators, zero.denominator) == ((), 1)
    assert zero == Polynomial.zero() and hash(zero) == hash(Polynomial.zero())


@PROPERTY
@given(COEFF_LISTS, COEFF_LISTS, SCALARS)
def test_polynomial_arithmetic_matches_fraction_lists(a, b, c):
    p, q = Polynomial(a), Polynomial(b)
    x, y = list(p.coeffs), list(q.coeffs)
    width = max(len(x), len(y))
    x0, y0 = x + [Fraction(0)] * (width - len(x)), y + [Fraction(0)] * (width - len(y))
    product = [Fraction(0)] * max(len(x) + len(y) - 1, 0)
    for i, u in enumerate(x):
        for j, v in enumerate(y):
            product[i + j] += u * v
    expected = {
        "sum": trimmed(u + v for u, v in zip(x0, y0)),
        "difference": trimmed(u - v for u, v in zip(x0, y0)),
        "product": trimmed(product),
        "scalar": trimmed(c * u for u in x),
    }
    got = {"sum": p + q, "difference": p - q, "product": p * q, "scalar": c * p}
    for key, value in got.items():
        assert_reduced(value)
        assert value.coeffs == expected[key], key
    assert p * c == c * p
    assert -p == Fraction(-1) * p


@PROPERTY
@given(COEFF_LISTS, SCALARS)
def test_polynomial_evaluation_matches_fraction_horner(cs, x):
    value = Fraction(0)
    for c in reversed(cs):
        value = value * x + c
    p = Polynomial(cs)
    assert p(x) == value and type(p(x)) is Fraction
    assert p(str(x)) == value
    n = x.numerator
    assert p(n) == sum(c * n**k for k, c in enumerate(cs))


# carrier name -> element with one coefficient left free
CARRIER_BUILDERS = {
    "QSym": lambda c: QSym({(1, 2): c, (3,): Fraction(1, 2)}),
    "FreeWord": lambda c: FreeWord({("a", "b"): c, ("c",): Fraction(1, 2)}),
    "TensorElement": lambda c: TensorElement({(("a",), ("b", "c")): c, ((),): Fraction(1, 2)}),
    "FiniteVarPoly": lambda c: FiniteVarPoly({(1, 2): c, (0, 1): Fraction(1, 2)}, 2, 3),
}


@pytest.mark.parametrize("carrier", sorted(CARRIER_BUILDERS))
def test_dict_carriers_keep_integral_coefficients_as_int(carrier):
    build = CARRIER_BUILDERS[carrier]
    built = [build(Fraction(6, 2)), build(3), build("3"), build("6/2")]
    for element in built:
        assert element == built[0] and hash(element) == hash(built[0])
        values = sorted(element.terms.values())
        assert values == [Fraction(1, 2), 3]
        assert type(values[0]) is Fraction and type(values[1]) is int
    one = built[0].one_like()
    assert all(type(v) is int for v in one.terms.values())
    # arithmetic that lands on an integer stores an int again
    doubled = built[0] + built[0]
    assert sorted(doubled.terms.values()) == [1, 6]
    assert all(type(v) is int for v in doubled.terms.values())
    for scaled in (Fraction(2) * built[0], built[0] * "2", 2 * built[0]):
        assert scaled == doubled
        assert all(type(v) is int for v in scaled.terms.values())
    assert all(
        type(v) is int for v in (doubled * doubled).terms.values() if v.denominator == 1
    )


def test_dict_carrier_rendering_is_unchanged():
    # the strings the Fraction-only carriers rendered, as compact JSON
    cases = [
        (
            QSym({(1, 2): Fraction(6, 2), (3,): Fraction(1, 2), (): -2}),
            '[{"coefficient":"-2","composition":[]},{"coefficient":"3","composition":[1,2]},'
            '{"coefficient":"1/2","composition":[3]}]',
            "-2*1 + 3*M(1,2) + 1/2*M(3)",
        ),
        (
            FreeWord({("a", "b"): Fraction(6, 2), ("c",): Fraction(1, 2), (): -2}),
            '[{"coefficient":"-2","word":[]},{"coefficient":"1/2","word":["c"]},'
            '{"coefficient":"3","word":["a","b"]}]',
            "-2*1 + 1/2*c + 3*a.b",
        ),
        (
            TensorElement({(("a",), ("b", "c")): Fraction(6, 2), ((),): Fraction(1, 2), (): -2}),
            '[{"coefficient":"-2","tensor":[]},{"coefficient":"1/2","tensor":[[]]},'
            '{"coefficient":"3","tensor":[["a"],["b","c"]]}]',
            "-2*[1] + 1/2*[1] + 3*[a @ b.c]",
        ),
        (
            Polynomial((Fraction(6, 2), Fraction(1, 2), -2)),
            '["3","1/2","-2"]',
            "3 + 1/2*t + -2*t^2",
        ),
    ]
    for value, rendered, text in cases:
        assert json.dumps(render_value(value), sort_keys=True, separators=(",", ":")) == rendered
        assert pretty(value) == text


def test_qsym_series_exp_matches_power_sums_with_int_coefficients():
    rng = random.Random(53)
    coeffs = [
        QSym({(1,) * k: rng.randint(-3, 3), (k,): Fraction(rng.randint(-3, 3), 2)})
        for k in range(1, 7)
    ]
    f = Series((QSym.zero(), *coeffs), QSym.one())
    assert exp(f) == exp_by_power_sums(f)
    for c in exp(f).coeffs:
        assert all(type(v) is int for v in c.terms.values() if v.denominator == 1)
