"""Properties of the dict carriers' arithmetic.

Keys are checked once, at the public constructors; sums, products, scalar
products and the prepend operators build their results on a trusted path.
Each result here is compared with the same raw terms passed through the
public constructor, checked for leftovers the trusted path must clean up
(zero coefficients and integral Fractions), and run through the ring
axioms.  The public constructors must still refuse bad keys, and
elements of different carriers, Polynomial included, must never compare
equal or combine.  No carrier truncates; the QSym grading that makes
this safe is pinned as a property.  The integer-numerator QSym product
is checked against the Fraction-accumulating oracle."""

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
COMPOSITIONS = st.lists(st.integers(1, 3), max_size=3).map(tuple)
WORDS = st.lists(st.sampled_from("ab"), max_size=3).map(tuple)
TENSOR_KEYS = st.lists(st.lists(st.sampled_from("ab"), max_size=2).map(tuple), max_size=2).map(
    tuple
)


def qsyms():
    return st.builds(QSym, st.dictionaries(COMPOSITIONS, COEFFS, max_size=4))


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


def assert_clean(element):
    for key, coeff in element.terms.items():
        assert coeff != 0, key
        assert type(coeff) is int or (type(coeff) is Fraction and coeff.denominator != 1), key


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


def assert_matches(result, expected):
    assert exact(result) == exact(expected)
    assert_clean(result)


@PROPERTY
@given(qsyms(), qsyms(), COEFFS)
def test_qsym_arithmetic_matches_public_constructor(a, b, c):
    cases = [
        (a + b, raw_sum(a, b)),
        (a - b, raw_sum(a, b, -1)),
        (-a, raw_scaled(-1, a)),
        (a * b, raw_quasi_shuffle(a, b)),
        (a * c, raw_scaled(c, a)),
        (c * a, raw_scaled(c, a)),
    ]
    for result, raw in cases:
        assert_matches(result, QSym(raw))


@PROPERTY
@given(qsyms())
def test_prepend_operators_match_public_constructor(a):
    prepended = {(1,) + comp: coeff for comp, coeff in a.terms.items()}
    absorbed = dict(prepended)
    for comp, coeff in a.terms.items():
        if comp:
            head = (1 + comp[0],) + comp[1:]
            absorbed[head] = absorbed.get(head, 0) + coeff
    for result, raw in ((lambda_bar(a), prepended), (lambda_(a), absorbed)):
        assert_matches(result, QSym(raw))


def homogeneous_qsyms(degree):
    """Non-zero quasi-symmetric elements whose terms all have this degree."""
    compositions = [
        comp for size in range(degree + 1)
        for comp in itertools.product(range(1, degree + 1), repeat=size)
        if sum(comp) == degree
    ]
    nonzero = COEFFS.filter(bool)
    return st.dictionaries(st.sampled_from(compositions), nonzero, min_size=1, max_size=4).map(QSym)


HOMOGENEOUS = st.integers(0, 4).flatmap(
    lambda degree: st.tuples(st.just(degree), homogeneous_qsyms(degree))
)


@PROPERTY
@given(HOMOGENEOUS, HOMOGENEOUS)
def test_products_and_prepends_keep_the_grading_property(graded_a, graded_b):
    # nothing truncates because a product of degrees i and j has degree
    # i + j and each prepend operator raises the degree by exactly one
    (i, a), (j, b) = graded_a, graded_b
    assert a.homogeneous_degree() == i and b.homogeneous_degree() == j
    assert (a * b).homogeneous_degree() == i + j
    assert lambda_bar(a).homogeneous_degree() == i + 1
    assert lambda_(a).homogeneous_degree() == i + 1


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
        assert_matches(result, carrier(raw))


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
    units = [QSym.one(), FreeWord.one(), TensorElement.one(), Polynomial.one()]
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
    q = QSym({(1,): half, (2,): third})
    # cancellation leaves no zero coefficient behind
    assert (q - q).terms == {}
    assert (q + (-q)).terms == {}
    assert (q * 0).terms == {} and (0 * q).terms == {}
    # integral Fractions come back as int, from sums, products and scalars
    assert exact(q + q) == {(1,): (int, 1), (2,): (Fraction, Fraction(4, 3))}
    assert exact(QSym({(1,): third}) * QSym({(2,): Fraction(3, 2)})) == {
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


def test_public_constructors_still_check_keys():
    with pytest.raises(DomainError):
        QSym({(1, 0): 1})
    with pytest.raises(DomainError):
        QSym({(2, -1): 1})
    with pytest.raises(DomainError):
        QSym({(1,): 1.5})
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
    return st.builds(QSym, st.dictionaries(COMPOSITIONS, coeffs, max_size=5))


ANY_QSYM = st.one_of(*(qsyms_with(kind) for kind in COEFF_KINDS.values()))


@PROPERTY
@given(ANY_QSYM, ANY_QSYM)
def test_qsym_product_matches_fraction_oracle_property(a, b):
    assert_matches(a * b, qsym_mul_by_fractions(a, b))


def random_qsym(rng, kind, max_degree, size=8):
    def coeff():
        numerator = rng.choice([n for n in range(-9, 10) if n])
        if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
            return numerator
        # factorial denominators, as in the elementary Schur polynomials
        return Fraction(numerator, rng.choice([2, 3, 6, 24, 120, 720]))

    terms = {}
    for _ in range(size):
        comp = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 4)))
        coefficient = coeff()
        if max_degree is None or sum(comp) <= max_degree:
            terms[comp] = coefficient
    return QSym(terms)


# bounds: the highest degree of each operand's terms, None for no cap, so
# the operands range from equally to unequally graded
@pytest.mark.parametrize("kind_b", sorted(COEFF_KINDS))
@pytest.mark.parametrize("kind_a", sorted(COEFF_KINDS))
@pytest.mark.parametrize("bounds", [(None, None), (6, 6), (None, 5), (7, None), (4, 8)])
def test_qsym_product_matches_fraction_oracle(kind_a, kind_b, bounds):
    rng = random.Random(f"{kind_a}-{kind_b}-{bounds}")
    for _ in range(10):
        a = random_qsym(rng, kind_a, bounds[0])
        b = random_qsym(rng, kind_b, bounds[1])
        assert_matches(a * b, qsym_mul_by_fractions(a, b))


def test_qsym_product_of_fractions_can_be_integral_or_zero():
    half = QSym({(1,): Fraction(1, 2), (2,): Fraction(3, 2)})
    double = QSym({(1,): 2, (2,): 4})
    product = half * double
    assert exact(product) == exact(qsym_mul_by_fractions(half, double))
    assert all(type(coeff) is int for coeff in product.terms.values())
    # M_1 * M_1 = 2 M_11 + M_2, so these cancel to zero term by term
    left = QSym({(1,): Fraction(1, 2)})
    right = QSym({(1, 1): -1, (2,): Fraction(-1, 2)})
    assert left * left + Fraction(1, 2) * right == QSym({})
