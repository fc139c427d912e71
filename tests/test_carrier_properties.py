"""Properties of the dict carriers' arithmetic.

Keys are checked once, at the public constructors; sums, products, scalar
products and the prepend operators build their results on a trusted path.
Each result here is compared with the same raw terms passed through the
public constructor, checked for leftovers the trusted path must clean up
(zero coefficients, terms past the QSym degree bound, integral
Fractions), and run through the ring axioms.  The public constructors
must still refuse bad keys and negative QSym bounds, and elements of
different carriers, Polynomial included, must never compare equal or
combine.  The integer-numerator QSym product is checked against the
Fraction-accumulating oracle."""

import itertools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestinv.algebra import Polynomial, QSym, quasi_shuffle
from forestinv.errors import DomainError
from forestinv.operators import lambda_, lambda_bar
from forestinv.oracles import qsym_mul_by_fractions
from forestinv.words import FreeWord, TensorElement

PROPERTY = settings(max_examples=60, deadline=None)

# small ints plus Fractions whose sums and products are often integral
COEFFS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3), Fraction(3, 2),
                     Fraction(-4, 3), Fraction(3, 4)]),
)
BOUNDS = st.one_of(st.none(), st.integers(0, 6))
COMPOSITIONS = st.lists(st.integers(1, 3), max_size=3).map(tuple)
WORDS = st.lists(st.sampled_from("ab"), max_size=3).map(tuple)
TENSOR_KEYS = st.lists(st.lists(st.sampled_from("ab"), max_size=2).map(tuple), max_size=2).map(
    tuple
)


def qsyms():
    return st.builds(QSym, st.dictionaries(COMPOSITIONS, COEFFS, max_size=4), BOUNDS)


def free_words():
    return st.builds(FreeWord, st.dictionaries(WORDS, COEFFS, max_size=4))


def tensors():
    return st.builds(TensorElement, st.dictionaries(TENSOR_KEYS, COEFFS, max_size=3))


def polynomials():
    return st.builds(Polynomial, st.lists(COEFFS, max_size=4))


def exact(element):
    """Terms with the type of each coefficient, so an integral Fraction
    differs from the equal int."""
    return {key: (type(coeff), coeff) for key, coeff in element.terms.items()}


def assert_clean(element, size, bound):
    for key, coeff in element.terms.items():
        assert coeff != 0, key
        assert type(coeff) is int or (type(coeff) is Fraction and coeff.denominator != 1), key
        assert bound is None or size(key) <= bound, key


def raw_sum(a, b, sign=1):
    out = dict(a.terms)
    for key, coeff in b.terms.items():
        out[key] = out.get(key, 0) + sign * coeff
    return out


def raw_scaled(c, a):
    return {key: c * coeff for key, coeff in a.terms.items()}


def raw_concatenation(a, b):
    out = {}
    for ka, va in a.terms.items():
        for kb, vb in b.terms.items():
            out[ka + kb] = out.get(ka + kb, 0) + va * vb
    return out


def raw_quasi_shuffle(a, b):
    out = {}
    for ca, va in a.terms.items():
        for cb, vb in b.terms.items():
            for comp, m in quasi_shuffle(ca, cb):
                out[comp] = out.get(comp, 0) + m * va * vb
    return out


def merged_bound(x, y):
    return y if x is None else x if y is None else min(x, y)


def assert_matches(result, expected, size, bound):
    assert exact(result) == exact(expected)
    assert_clean(result, size, bound)


@PROPERTY
@given(qsyms(), qsyms(), COEFFS)
def test_qsym_arithmetic_matches_public_constructor(a, b, c):
    bound = merged_bound(a.max_degree, b.max_degree)
    cases = [
        (a + b, raw_sum(a, b), bound),
        (a - b, raw_sum(a, b, -1), bound),
        (-a, raw_scaled(-1, a), a.max_degree),
        (a * b, raw_quasi_shuffle(a, b), bound),
        (a * c, raw_scaled(c, a), a.max_degree),
        (c * a, raw_scaled(c, a), a.max_degree),
    ]
    for result, raw, expected_bound in cases:
        assert result.max_degree == expected_bound
        assert_matches(result, QSym(raw, expected_bound), sum, expected_bound)


@PROPERTY
@given(qsyms())
def test_prepend_operators_match_public_constructor(a):
    bound = a.max_degree
    prepended = {(1,) + comp: coeff for comp, coeff in a.terms.items()}
    absorbed = dict(prepended)
    for comp, coeff in a.terms.items():
        if comp:
            head = (1 + comp[0],) + comp[1:]
            absorbed[head] = absorbed.get(head, 0) + coeff
    for result, raw in ((lambda_bar(a), prepended), (lambda_(a), absorbed)):
        assert result.max_degree == bound
        assert_matches(result, QSym(raw, bound), sum, bound)


def assert_word_arithmetic_matches(carrier, a, b, c):
    cases = [
        (a + b, raw_sum(a, b)),
        (a - b, raw_sum(a, b, -1)),
        (-a, raw_scaled(-1, a)),
        (a * b, raw_concatenation(a, b)),
        (a * c, raw_scaled(c, a)),
        (c * a, raw_scaled(c, a)),
    ]
    for result, raw in cases:
        assert result.bound is None
        assert_matches(result, carrier(raw), len, None)


@PROPERTY
@given(free_words(), free_words(), COEFFS)
def test_free_word_arithmetic_matches_public_constructor(a, b, c):
    assert_word_arithmetic_matches(FreeWord, a, b, c)


@PROPERTY
@given(tensors(), tensors(), COEFFS)
def test_tensor_arithmetic_matches_public_constructor(a, b, c):
    assert_word_arithmetic_matches(TensorElement, a, b, c)


@PROPERTY
@given(qsyms(), qsyms(), qsyms())
def test_qsym_ring_axioms_property(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()


@PROPERTY
@given(free_words(), free_words(), free_words())
def test_free_word_ring_axioms_property(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert (a - a).is_zero()


@PROPERTY
@given(tensors(), tensors(), tensors())
def test_tensor_ring_axioms_property(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert (a - a).is_zero()


@PROPERTY
@given(qsyms(), free_words(), tensors(), polynomials())
def test_carriers_of_different_types_do_not_mix(q, w, t, p):
    # the units are four different elements, though the dict carriers
    # spell them with the same raw terms
    units = [QSym.one(None), FreeWord.one(), TensorElement.one(), Polynomial.one()]
    for elements in ((q, w, t, p), units):
        for a, b in itertools.permutations(elements, 2):
            assert a != b
            for combine in (operator.add, operator.sub, operator.mul):
                with pytest.raises(TypeError):
                    combine(a, b)
        # exact scalars still scale every carrier; a float is refused
        for a in elements:
            assert a * "2" == 2 * a == Fraction(2) * a == a + a
            with pytest.raises(DomainError):
                a * 1.5
            with pytest.raises(DomainError):
                1.5 * a


def test_trusted_paths_clean_up_their_results():
    half, third = Fraction(1, 2), Fraction(2, 3)
    q = QSym({(1,): half, (2,): third}, None)
    # cancellation leaves no zero coefficient behind
    assert (q - q).terms == {}
    assert (q + (-q)).terms == {}
    assert (q * 0).terms == {} and (0 * q).terms == {}
    # integral Fractions come back as int, from sums, products and scalars
    assert exact(q + q) == {(1,): (int, 1), (2,): (Fraction, Fraction(4, 3))}
    assert exact(QSym({(1,): third}, None) * QSym({(2,): Fraction(3, 2)}, None)) == {
        (1, 2): (int, 1), (2, 1): (int, 1), (3,): (int, 1)
    }
    assert exact(q * Fraction(3, 2)) == {(1,): (Fraction, Fraction(3, 4)), (2,): (int, 1)}
    assert exact(Fraction(6) * q) == {(1,): (int, 3), (2,): (int, 4)}
    w = FreeWord({("a",): half, ("b",): third})
    assert (w - w).terms == {}
    assert exact(w * FreeWord({("b",): Fraction(3, 2)})) == {
        ("a", "b"): (Fraction, Fraction(3, 4)), ("b", "b"): (int, 1)
    }
    t = TensorElement({(("a",),): half, ((), ("b",)): third})
    assert (t - t).terms == {}
    assert exact(t + t) == {(("a",),): (int, 1), ((), ("b",)): (Fraction, Fraction(4, 3))}


def test_operators_skip_terms_at_the_bound():
    top = QSym({(2,): 1, (1,): 3, (): 5}, 2)
    # the degree-2 term would grow past the bound; lower ones grow
    assert exact(lambda_bar(top)) == {(1, 1): (int, 3), (1,): (int, 5)}
    assert exact(lambda_(top)) == {(1, 1): (int, 3), (2,): (int, 3), (1,): (int, 5)}
    assert lambda_bar(QSym({(3,): 1}, 3)).is_zero()
    assert lambda_(QSym({(1, 2): 1}, 3)).is_zero()
    assert lambda_bar(top).max_degree == lambda_(top).max_degree == 2


def test_sums_with_different_bounds_respect_the_smaller():
    wide_q = QSym({(5,): 1, (1,): 1}, None)
    assert (wide_q + QSym({(2,): 1}, 3)).terms == {(1,): 1, (2,): 1}
    assert (QSym({(2,): 1}, 3) + wide_q).terms == {(1,): 1, (2,): 1}
    assert (QSym({(4,): 1}, 6) + QSym({(1,): 1}, 2)).terms == {(1,): 1}


def test_public_constructors_still_check_keys():
    with pytest.raises(DomainError):
        QSym({(1, 0): 1}, None)
    with pytest.raises(DomainError):
        QSym({(2, -1): 1}, 5)
    with pytest.raises(DomainError):
        QSym({}, -1)
    with pytest.raises(DomainError):
        QSym({(1,): 1.5}, None)
    with pytest.raises(DomainError):
        FreeWord({("a", ""): 1})
    with pytest.raises(DomainError):
        FreeWord({("a", 3): 1})
    with pytest.raises(DomainError):
        FreeWord({("a",): 0.5})
    with pytest.raises(DomainError):
        TensorElement({(("a", 3),): 1})
    with pytest.raises(DomainError):
        TensorElement({(("",),): 1})
    # the bound check drops, never refuses
    assert QSym({(3,): 1, (1,): 2}, 2).terms == {(1,): 2}


# The QSym product accumulates integer numerators over the product of the
# operands' denominators; oracles.qsym_mul_by_fractions accumulates the
# coefficients as they are.  The two must agree term by term, coefficient
# types included.
INT_COEFFS = st.integers(-5, 5)
FRACTION_COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=7).filter(
    lambda c: c.denominator != 1
)
COEFF_KINDS = {"int": INT_COEFFS, "fraction": FRACTION_COEFFS, "mixed": COEFFS}


def qsyms_with(coeffs):
    return st.builds(QSym, st.dictionaries(COMPOSITIONS, coeffs, max_size=5), BOUNDS)


ANY_QSYM = st.one_of(*(qsyms_with(kind) for kind in COEFF_KINDS.values()))


@PROPERTY
@given(ANY_QSYM, ANY_QSYM)
def test_qsym_product_matches_fraction_oracle_property(a, b):
    product = a * b
    expected = qsym_mul_by_fractions(a, b)
    assert product.max_degree == expected.max_degree
    assert_matches(product, expected, sum, expected.max_degree)


def random_qsym(rng, kind, bound, size=8):
    def coeff():
        numerator = rng.choice([n for n in range(-9, 10) if n])
        if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
            return numerator
        # factorial denominators, as in the elementary Schur polynomials
        return Fraction(numerator, rng.choice([2, 3, 6, 24, 120, 720]))

    terms = {}
    for _ in range(size):
        comp = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 4)))
        terms[comp] = coeff()
    return QSym(terms, bound)


@pytest.mark.parametrize("kind_b", sorted(COEFF_KINDS))
@pytest.mark.parametrize("kind_a", sorted(COEFF_KINDS))
@pytest.mark.parametrize("bounds", [(None, None), (6, 6), (None, 5), (7, None), (4, 8)])
def test_qsym_product_matches_fraction_oracle(kind_a, kind_b, bounds):
    rng = random.Random(f"{kind_a}-{kind_b}-{bounds}")
    for _ in range(10):
        a = random_qsym(rng, kind_a, bounds[0])
        b = random_qsym(rng, kind_b, bounds[1])
        expected = qsym_mul_by_fractions(a, b)
        assert (a * b).max_degree == expected.max_degree
        assert_matches(a * b, expected, sum, expected.max_degree)


def test_qsym_product_of_fractions_can_be_integral_or_zero():
    half = QSym({(1,): Fraction(1, 2), (2,): Fraction(3, 2)}, None)
    double = QSym({(1,): 2, (2,): 4}, None)
    product = half * double
    assert exact(product) == exact(qsym_mul_by_fractions(half, double))
    assert all(type(coeff) is int for coeff in product.terms.values())
    # M_1 * M_1 = 2 M_11 + M_2, so these cancel to zero term by term
    left = QSym({(1,): Fraction(1, 2)}, None)
    right = QSym({(1, 1): -1, (2,): Fraction(-1, 2)}, None)
    assert left * left + Fraction(1, 2) * right == QSym({}, None)
    assert (left * QSym({(1,): Fraction(2, 3)}, 1)).terms == {}
