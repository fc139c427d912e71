"""Properties of the dict carriers' arithmetic.

Keys are checked once, at the public constructors; sums, products, scalar
products and the prepend operators build their results on a trusted path.
Each result here is compared with the same raw terms passed through the
public constructor, checked for leftovers the trusted path must clean up
(zero coefficients and integral Fractions), and run through the ring
axioms; each keeps the public constructor's reduced stored form, integer
numerators over one positive denominator.  The public constructors must
still refuse bad keys, and elements of different carriers, Polynomial
included, must never compare equal or combine.  No carrier truncates;
the QSym grading that makes this safe is pinned as a property.  The
quasi-shuffle on key codes is checked against the one on tuples it
replaced, codes against the tuples they encode, word codes against the
label tuples they spell, the integer-numerator QSym product against the
Fraction-accumulating oracle, each carrier's one-pass
`linear_combination` against the running sum it replaces, and
`principal_specialization` and the tensor split, which read the
numerators, against their bodies over the Fraction `terms` view.  Word
codes hold no state: labels that are dropped leave no memory behind.
Every carrier's `**` is the chain of products it stands for, and the
closed-form power of a one-term, one-part QSym matches that chain on
the Fraction-accumulating oracle."""

import gc
import itertools
import math
import operator
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestinv.algebra import (
    MAX_PART,
    Polynomial,
    QSym,
    code,
    linear_combination,
    parts,
    principal_specialization,
    quasi_shuffle,
    sum_of_products,
)
from forestinv.errors import DomainError
from forestinv.operators import FREE_WORD, LinearOperator, lambda_, lambda_bar
from forestinv.planar import OperatorFamily, free_word_family, tensor_cocycle_apply
from forestinv.words import FreeWord, TensorElement, decode, encode
from references import qsym_mul_by_fractions, quasi_shuffle_by_tuples

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


def by_tuples(raw):
    """Raw quasi-symmetric terms keyed by key codes, rekeyed by the
    compositions the public constructor takes."""
    return {parts(key): coeff for key, coeff in raw.items()}


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
        assert_matches(result, QSym(by_tuples(raw)))


def raw_prepends(terms):
    """The raw terms of lambda_bar and of lambda_ on terms keyed by
    compositions."""
    prepended = {(1,) + comp: coeff for comp, coeff in terms.items()}
    absorbed = dict(prepended)
    for comp, coeff in terms.items():
        if comp:
            head = (1 + comp[0],) + comp[1:]
            absorbed[head] = absorbed.get(head, 0) + coeff
    return prepended, absorbed


@PROPERTY
@given(qsyms())
def test_prepend_operators_match_public_constructor(a):
    prepended, absorbed = raw_prepends(by_tuples(a.terms))
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
    assert by_tuples(exact(q + q)) == {(1,): (int, 1), (2,): (Fraction, Fraction(4, 3))}
    assert by_tuples(exact(QSym({(1,): third}) * QSym({(2,): Fraction(3, 2)}))) == {
        (1, 2): (int, 1), (2, 1): (int, 1), (3,): (int, 1)
    }
    assert by_tuples(exact(q * Fraction(3, 2))) == {
        (1,): (Fraction, Fraction(3, 4)), (2,): (int, 1)
    }
    assert by_tuples(exact(Fraction(6) * q)) == {(1,): (int, 3), (2,): (int, 4)}
    w = FreeWord({("a",): half, ("b",): third})
    assert (w - w).terms == {}
    assert exact(w * FreeWord({("b",): Fraction(3, 2)})) == {
        ("a", "b"): (Fraction, Fraction(3, 4)), ("b", "b"): (int, 1)
    }
    t = TensorElement({(("a",),): half, ((), ("b",)): third})
    assert (t - t).terms == {}
    assert exact(t + t) == {(("a",),): (int, 1), ((), ("b",)): (Fraction, Fraction(4, 3))}


# each dict carrier with raw terms for its public constructor, its product
# on raw terms, and the map from stored keys back to constructor keys
STORED_FORM_CARRIERS = {
    QSym: (st.dictionaries(COMPOSITIONS, COEFFS, max_size=4), raw_quasi_shuffle, by_tuples),
    FreeWord: (st.dictionaries(WORDS, COEFFS, max_size=4), raw_concatenation, dict),
    TensorElement: (st.dictionaries(TENSOR_KEYS, COEFFS, max_size=3), raw_concatenation, dict),
}


def raw_combination(pairs):
    out = {}
    for c, x in pairs:
        for key, coeff in x.terms.items():
            out[key] = out.get(key, 0) + c * coeff
    return out


def assert_stored_form(result, expected):
    """Reduced integer numerators over one positive denominator, the same
    pair the public constructor stores, and the same `terms` view."""
    nums, den = result.numerators, result.denominator
    assert type(den) is int and den > 0
    assert all(type(n) is int and n != 0 for n in nums.values())
    assert math.gcd(den, *nums.values()) == 1
    assert (nums, den) == (expected.numerators, expected.denominator)
    assert_matches(result, expected)


@PROPERTY
@given(
    st.data(),
    st.sampled_from(sorted(STORED_FORM_CARRIERS, key=lambda c: c.__name__)),
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)
def test_dict_carriers_keep_the_reduced_stored_form_property(data, carrier, k, f):
    raw_terms, raw_product, rekey = STORED_FORM_CARRIERS[carrier]
    raw_a, raw_b = data.draw(raw_terms), data.draw(raw_terms)
    a, b = carrier(raw_a), carrier(raw_b)
    # the constructor stores each checked key; the word carriers' terms
    # view decodes their word codes back to the label tuples it took
    stored = {carrier._checked_key(key): c for key, c in raw_a.items() if c}
    assert a.numerators.keys() == stored.keys()
    assert a.terms == (stored if carrier is QSym else {k: c for k, c in raw_a.items() if c})
    cases = [
        (a, raw_a),
        (a + b, rekey(raw_sum(a, b))),
        (a - b, rekey(raw_sum(a, b, -1))),
        (-a, rekey(raw_scaled(-1, a))),
        (k * a, rekey(raw_scaled(k, a))),
        (a * f, rekey(raw_scaled(f, a))),
        (a * b, rekey(raw_product(a, b))),
        (carrier.linear_combination([(k, a), (f, b)]), rekey(raw_combination([(k, a), (f, b)]))),
        (a.one_like(), {(): 1}),
    ]
    if carrier is QSym:
        prepended, absorbed = raw_prepends(raw_a)
        cases += [(lambda_bar(a), prepended), (lambda_(a), absorbed)]
    for result, raw in cases:
        assert_stored_form(result, carrier(raw))


def operand_pairs(elements, zero):
    """Lists of operand pairs with zero operands among them, and with each
    list's first pair repeated and swapped, so keys collide across pairs."""
    operands = st.one_of(elements, elements, st.just(zero))
    return st.lists(st.tuples(operands, operands), max_size=4).map(
        lambda pairs: pairs + pairs[:1] + [(b, a) for a, b in pairs[:1]]
    )


@PROPERTY
@given(st.data(), st.sampled_from([FreeWord, TensorElement]))
def test_sum_of_products_matches_the_products_it_fuses_property(data, carrier):
    # words of mixed lengths and Fraction coefficients with unequal
    # denominators, against each product built alone and then summed
    elements = free_words() if carrier is FreeWord else tensors()
    pairs = data.draw(operand_pairs(elements, carrier.zero()))
    expected = carrier.linear_combination([(1, a * b) for a, b in pairs])
    assert_stored_form(carrier.sum_of_products(pairs), expected)
    assert_stored_form(sum_of_products(iter(pairs), carrier.one()), expected)


def test_sum_of_products_rescales_to_the_lcm_of_the_pair_denominators():
    half, third = FreeWord({("a",): Fraction(1, 2)}), FreeWord({("a",): Fraction(1, 3), (): 1})
    pairs = [(half, third), (third, half), (third, FreeWord.zero()), (third, third)]
    # a.a: 1/6 + 1/6 + 1/9, a: 1/2 + 1/2 + 2/3, 1: 1
    assert FreeWord.sum_of_products(pairs).terms == {
        ("a", "a"): Fraction(4, 9), ("a",): Fraction(5, 3), (): 1
    }
    assert FreeWord.sum_of_products([]) == FreeWord.zero()
    with pytest.raises(TypeError):
        FreeWord.sum_of_products([(half, TensorElement.single(("a",)))])


# every carrier with a strategy for its elements; a scalar multiple is one
# pass over the numerators, checked against the one-pair linear combination
SCALED_CARRIERS = {
    "polynomial": polynomials(),
    "qsym": qsyms(),
    "freeword": free_words(),
    "tensor": tensors(),
}
SCALARS = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-4, max_value=4, max_denominator=8),
)


@PROPERTY
@given(st.data(), st.sampled_from(sorted(SCALED_CARRIERS)), SCALARS)
def test_scaling_matches_the_one_pair_linear_combination_property(data, name, c):
    x = data.draw(SCALED_CARRIERS[name])
    carrier = type(x)
    for result, weight in ((c * x, c), (x * c, c), (-x, -1)):
        expected = carrier.linear_combination(((weight, x),))
        assert type(result) is carrier
        assert (result.numerators, result.denominator) == (
            expected.numerators, expected.denominator
        )
        nums = result.numerators
        if carrier is not Polynomial:
            assert nums is not x.numerators
            nums = nums.values()
        assert result.denominator > 0 and math.gcd(result.denominator, *nums) == 1
        assert result == linear_combination(((weight, x),), x.one_like())


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
# operands' denominators; references.qsym_mul_by_fractions accumulates the
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


def compositions_of(total):
    if total == 0:
        return [()]
    return [
        (part,) + rest for part in range(1, total + 1) for rest in compositions_of(total - part)
    ]


def assert_coded_shuffle_matches_the_reference(a, b):
    coded = quasi_shuffle(code(a), code(b))
    decoded = {parts(key): m for key, m in coded}
    assert len(decoded) == len(coded)
    assert decoded == dict(quasi_shuffle_by_tuples(a, b)), (a, b)


def test_coded_quasi_shuffle_matches_the_tuple_reference_up_to_degree_8():
    by_degree = [compositions_of(total) for total in range(9)]
    for degree_a, comps_a in enumerate(by_degree):
        for comps_b in by_degree[: 9 - degree_a]:
            for a in comps_a:
                for b in comps_b:
                    assert_coded_shuffle_matches_the_reference(a, b)


# parts on both sides of the one- and two-byte code points, and up to half
# the largest one, so that no merged part passes it
WIDE_COMPOSITIONS = st.lists(
    st.one_of(st.integers(1, 3), st.integers(250, 260), st.integers(1, MAX_PART // 2)),
    max_size=4,
).map(tuple)


@PROPERTY
@given(WIDE_COMPOSITIONS, WIDE_COMPOSITIONS)
def test_coded_quasi_shuffle_matches_the_tuple_reference_property(a, b):
    assert_coded_shuffle_matches_the_reference(a, b)


@PROPERTY
@given(st.lists(st.lists(st.integers(1, MAX_PART), max_size=5).map(tuple), max_size=12))
def test_codes_round_trip_and_sort_like_their_compositions_property(comps):
    assert [parts(code(comp)) for comp in comps] == comps
    assert [parts(key) for key in sorted(map(code, comps))] == sorted(comps)


# labels of any non-empty text: the tree syntax's "(", ")" and ":", NUL,
# characters past the BMP, and labels long enough that their length's
# character is one of "(", ")" or ":" too
LABELS = st.one_of(
    st.text(
        alphabet=st.one_of(st.sampled_from(["\0", "(", ")", ":", "a", "😀"]), st.characters()),
        min_size=1,
        max_size=4,
    ),
    st.text(alphabet="(:)\0a", min_size=39, max_size=59),
)
LABEL_WORDS = st.lists(LABELS, max_size=4).map(tuple)


@PROPERTY
@given(LABEL_WORDS, LABEL_WORDS, st.lists(LABEL_WORDS, max_size=8))
def test_word_codes_round_trip_concatenate_and_are_injective_property(u, v, words):
    assert decode(encode(u)) == u
    # products, prepends and tensor splits join codes as strs
    assert encode(u) + encode(v) == encode(u + v)
    assert len({encode(word) for word in words}) == len(set(words))


def test_distinct_labels_leave_nothing_behind():
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        generators = [FreeWord.generator(f"distinct-{i}") for i in range(20000)]
        assert repr(generators[-1]) == "FreeWord(distinct-19999)"
        del generators
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 2**20


def test_labels_longer_than_the_largest_code_point_are_refused():
    longest = "a" * sys.maxunicode
    assert decode(encode((longest, "b"))) == (longest, "b")
    with pytest.raises(DomainError, match="at most"):
        FreeWord.generator(longest + "a")


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


INT_COEFFS = st.integers(-3, 3)

# each carrier with its element strategy and an int-only one
LINEAR_CARRIERS = {
    Polynomial: (polynomials(), st.builds(Polynomial, st.lists(INT_COEFFS, max_size=4))),
    QSym: (qsyms(), st.builds(QSym, st.dictionaries(COMPOSITIONS, INT_COEFFS, max_size=4))),
    FreeWord: (free_words(), st.builds(FreeWord, st.dictionaries(WORDS, INT_COEFFS, max_size=4))),
    TensorElement: (
        tensors(),
        st.builds(TensorElement, st.dictionaries(TENSOR_KEYS, INT_COEFFS, max_size=3)),
    ),
}


def exact_value(element):
    if isinstance(element, Polynomial):
        return element.numerators, element.denominator
    assert_clean(element)
    return exact(element)


def folded(carrier, pairs):
    """The path the kernel replaces: a running + of scaled copies."""
    total = carrier.zero()
    for c, x in pairs:
        total = total + c * x
    return total


@PROPERTY
@given(st.data(), st.sampled_from(sorted(LINEAR_CARRIERS, key=lambda c: c.__name__)))
def test_linear_combination_matches_the_fold_of_sums_property(data, carrier):
    elements, int_elements = LINEAR_CARRIERS[carrier]
    pairs = data.draw(st.lists(st.tuples(COEFFS, elements), max_size=5))
    expected = folded(carrier, pairs)
    assert exact_value(carrier.linear_combination(pairs)) == exact_value(expected)
    # the generic entry point takes the same kernel, and a generator
    got = linear_combination(iter(pairs), carrier.one())
    assert exact_value(got) == exact_value(expected)
    # one pair, cancellation to zero and the empty list
    for c, x in pairs[:1]:
        assert exact_value(carrier.linear_combination([(c, x)])) == exact_value(c * x)
    assert carrier.linear_combination(pairs + [(-c, x) for c, x in pairs]).is_zero()
    assert carrier.linear_combination([]) == carrier.zero()
    # int weights on int-only elements keep int-only terms
    int_pairs = data.draw(st.lists(st.tuples(INT_COEFFS, int_elements), max_size=5))
    got = carrier.linear_combination(int_pairs)
    assert exact_value(got) == exact_value(folded(carrier, int_pairs))
    if carrier is Polynomial:
        assert got.denominator == 1
    else:
        assert all(type(coeff) is int for coeff in got.terms.values())


def test_linear_combination_of_scalars_is_their_sum():
    pairs = [(2, Fraction(1, 3)), (0, Fraction(5)), (3, Fraction(-2, 9))]
    assert linear_combination(pairs, Fraction(1)) == 0
    assert linear_combination([], Fraction(1)) == 0
    assert linear_combination([(1, 2), (3, 4)], 1) == 14


def test_linear_combination_refuses_another_carrier():
    for carrier, other in ((QSym, FreeWord), (FreeWord, TensorElement), (Polynomial, QSym)):
        with pytest.raises(TypeError):
            carrier.linear_combination([(1, carrier.one()), (1, other.one())])


def specialization_by_terms(element, m):
    """`principal_specialization` as it read the Fraction `terms` view."""
    total = Fraction(0)
    for comp, coeff in element.terms.items():
        total += coeff * math.comb(m, len(comp))
    return total


def cocycle_by_terms(label, element, base):
    """`tensor_cocycle_apply` as it read the Fraction `terms` views."""
    op = base[label]
    out = {}
    for factors, coeff in element.terms.items():
        for j in range(len(factors) + 1):
            rest = FreeWord({sum(factors[j:], ()): 1})
            for word, wcoeff in op(rest).terms.items():
                key = factors[:j] + (word,)
                out[key] = out.get(key, 0) + coeff * wcoeff
    return TensorElement(out)


def weighted_prepend(x):
    # a word w goes to a.w / (len(w) + 1): the images' denominators differ
    return FreeWord({("a",) + w: c * Fraction(1, len(w) + 1) for w, c in x.terms.items()})


WEIGHTED_FAMILY = OperatorFamily(
    {"a": LinearOperator("weighted-a", FREE_WORD, weighted_prepend),
     "b": free_word_family(["b"])["b"]},
    FreeWord.one(),
)


@PROPERTY
@given(qsyms(), st.integers(0, 6))
def test_principal_specialization_matches_the_terms_view_property(x, m):
    got = principal_specialization(x, m)
    assert type(got) is Fraction
    assert got == specialization_by_terms(x, m)


@PROPERTY
@given(tensors(), st.sampled_from("ab"))
def test_tensor_cocycle_matches_the_terms_view_property(x, label):
    got = tensor_cocycle_apply(label, x, WEIGHTED_FAMILY)
    expected = cocycle_by_terms(label, x, WEIGHTED_FAMILY)
    assert exact(got) == exact(expected)
    assert (got.numerators, got.denominator) == (expected.numerators, expected.denominator)


# `**`: a one-term, one-part QSym takes the closed form of the multinomial
# theorem, every other element the chain of m - 1 products it replaces.


def chain_power(x, m, times=operator.mul):
    out = x
    for _ in range(m - 1):
        out = times(out, x)
    return out


@PROPERTY
@given(
    st.one_of(st.integers(-4, 4), FRACTION_COEFFS),
    st.sampled_from([1, 2, 3, None]),
    st.integers(1, 9),
)
def test_one_part_power_matches_the_fraction_oracle_chain_property(c, h, m):
    # None stands for the largest part whose m-th power stays a code
    x = c * QSym.monomial((MAX_PART // m if h is None else h,))
    got = x**m
    assert_matches(got, chain_power(x, m, qsym_mul_by_fractions))
    assert (got.numerators, got.denominator) == (chain_power(x, m).numerators, x.denominator**m)


@PROPERTY
@given(st.data(), st.sampled_from(sorted(LINEAR_CARRIERS, key=lambda c: c.__name__)))
def test_power_is_the_chain_of_products_property(data, carrier):
    x, m = data.draw(LINEAR_CARRIERS[carrier][0]), data.draw(st.integers(1, 4))
    assert exact_value(x**m) == exact_value(chain_power(x, m))


def test_one_part_power_refuses_a_part_above_the_largest_code_point():
    h = MAX_PART // 3
    assert (QSym.monomial((h,)) ** 3).numerators[code((3 * h,))] == 1
    x = QSym.monomial((h + 1,))
    for power in (lambda: x**3, lambda: chain_power(x, 3)):
        with pytest.raises(DomainError, match=f"merged composition part is above {MAX_PART}"):
            power()


@pytest.mark.parametrize(
    "x",
    [Polynomial.t(), QSym.monomial((1,)), QSym({(1, 2): 1, (3,): 2}), FreeWord.generator("a"),
     TensorElement.single(("a",))],
    ids=repr,
)
def test_power_takes_only_a_positive_int(x):
    for m in (0, -1, -3, 2.0, Fraction(1, 2), "2"):
        with pytest.raises(TypeError):
            x**m
