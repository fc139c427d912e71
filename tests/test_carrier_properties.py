"""Properties of the dict carriers' arithmetic.

Keys are checked once, at the public constructors; sums, products, scalar
products and the prepend operators build their results on a trusted path.
Each result here is compared with the same raw terms passed through the
public constructor, checked for leftovers the trusted path must clean up
(zero coefficients, terms past the bound, integral Fractions), and run
through the ring axioms.  The public constructors must still refuse bad
keys, negative bounds and tensor overflow, and elements of different
carriers must never compare equal or combine.  The integer-numerator QSym
product is checked against the Fraction-accumulating oracle."""

import itertools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestinv.algebra import QSym, quasi_shuffle
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
    return st.builds(FreeWord, st.dictionaries(WORDS, COEFFS, max_size=4), BOUNDS)


def tensors():
    # unbounded, so any product fits; bounded tensors are checked separately
    return st.builds(TensorElement, st.dictionaries(TENSOR_KEYS, COEFFS, max_size=3))


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


@PROPERTY
@given(free_words(), free_words(), COEFFS)
def test_free_word_arithmetic_matches_public_constructor(a, b, c):
    bound = merged_bound(a.max_len, b.max_len)
    cases = [
        (a + b, raw_sum(a, b), bound),
        (a - b, raw_sum(a, b, -1), bound),
        (-a, raw_scaled(-1, a), a.max_len),
        (a * b, raw_concatenation(a, b), bound),
        (a * c, raw_scaled(c, a), a.max_len),
        (c * a, raw_scaled(c, a), a.max_len),
    ]
    for result, raw, expected_bound in cases:
        assert result.max_len == expected_bound
        assert_matches(result, FreeWord(raw, expected_bound), len, expected_bound)


@PROPERTY
@given(
    st.dictionaries(TENSOR_KEYS, COEFFS, max_size=3),
    st.dictionaries(TENSOR_KEYS, COEFFS, max_size=3),
    st.one_of(st.none(), st.integers(2, 4)),
    st.one_of(st.none(), st.integers(2, 4)),
    COEFFS,
)
def test_tensor_arithmetic_matches_public_constructor(ta, tb, bound_a, bound_b, c):
    a, b = TensorElement(ta, bound_a), TensorElement(tb, bound_b)
    bound = merged_bound(bound_a, bound_b)
    cases = [
        (lambda: a + b, raw_sum(a, b), bound),
        (lambda: a - b, raw_sum(a, b, -1), bound),
        (lambda: -a, raw_scaled(-1, a), bound_a),
        (lambda: a * c, raw_scaled(c, a), bound_a),
        (lambda: c * a, raw_scaled(c, a), bound_a),
    ]
    for run, raw, expected_bound in cases:
        try:
            expected = TensorElement(raw, expected_bound)
        except DomainError:
            # a sum past the smaller bound is refused, never truncated
            with pytest.raises(DomainError):
                run()
            continue
        result = run()
        assert result.max_len == expected_bound
        assert_matches(result, expected, len, expected_bound)
    # a product refuses any pair of terms that overflows, even if it cancels
    overflow = bound is not None and any(
        len(fa) + len(fb) > bound for fa in a.terms for fb in b.terms
    )
    if overflow:
        with pytest.raises(DomainError):
            a * b
    else:
        assert_matches(a * b, TensorElement(raw_concatenation(a, b), bound), len, bound)


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
@given(qsyms(), free_words(), tensors())
def test_carriers_of_different_types_do_not_mix(q, w, t):
    # the same raw terms in each carrier are still three different elements
    units = [carrier({(): 1}, None) for carrier in (QSym, FreeWord, TensorElement)]
    for elements in ((q, w, t), units):
        for a, b in itertools.permutations(elements, 2):
            assert a != b
            for combine in (operator.add, operator.sub, operator.mul):
                with pytest.raises(TypeError):
                    combine(a, b)


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
    wide_w = FreeWord({("a", "b", "a"): 1, ("b",): 2})
    assert (wide_w + FreeWord({("a",): 1}, 2)).terms == {("b",): 2, ("a",): 1}
    assert (FreeWord({("a",): 1}, 2) - wide_w).terms == {("b",): -2, ("a",): 1}
    wide_t = TensorElement({(("a",), ("b",)): 1})
    with pytest.raises(DomainError):
        wide_t + TensorElement.single(("a",), max_len=1)
    with pytest.raises(DomainError):
        TensorElement.single(("a",), max_len=1) - wide_t


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
        TensorElement({(("a",), ("b",)): 1}, max_len=1)
    with pytest.raises(DomainError):
        TensorElement.single(("a",), max_len=1) * TensorElement.single(("b",), max_len=1)
    # the bound check drops, never refuses, in the truncating carriers
    assert QSym({(3,): 1, (1,): 2}, 2).terms == {(1,): 2}
    assert FreeWord({("a", "b"): 1, ("a",): 2}, 1).terms == {("a",): 2}


def test_free_word_refuses_a_negative_bound():
    for terms in ({}, {("a",): 1}, {(): 1}):
        with pytest.raises(DomainError, match="truncation bound must be non-negative"):
            FreeWord(terms, -1)
    assert FreeWord({("a",): 1}, 0).terms == {}


def test_tensor_refuses_a_negative_bound():
    # refused as a bound before any term is measured against it
    for terms in ({}, {(("a",),): 1}, {(): 1}):
        with pytest.raises(DomainError, match="truncation bound must be non-negative"):
            TensorElement(terms, -1)
    assert TensorElement({(): 1}, 0).terms == {(): 1}


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
