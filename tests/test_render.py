"""The JSON text written from the carriers' terms.

`render_json` must return exactly the bytes `json.dumps` writes for the
structure-building render in `references`, `render_value` must parse back
to that structure, and `render_payload` must match `json.dumps` of a CLI
payload whose values the oracle has rendered."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestinv import render
from forestinv.algebra import MAX_PART, Polynomial, QSym, TermCarrier, ratio_text
from forestinv.engine import qsym_weak
from forestinv.errors import DomainError
from forestinv.render import pretty, render_json, render_payload, render_value
from forestinv.series import Series
from forestinv.trees import parse_tree
from forestinv.words import FreeWord, TensorElement
from references import render_by_structure

PROPERTY = settings(max_examples=80, deadline=None)

SCALARS = st.one_of(
    st.integers(-10**30, 10**30),
    st.fractions(max_denominator=10**6),
)
COEFFS = st.one_of(
    st.integers(-50, 50),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)
# one-digit, multi-digit and any parts up to the largest a code holds
PARTS = st.one_of(st.integers(1, 12), st.integers(10, 10**4), st.integers(1, MAX_PART))
COMPOSITIONS = st.lists(PARTS, max_size=5).map(tuple)
# letters that JSON must escape or write as \\u escapes, among plain ones
LETTERS = st.text(
    alphabet=st.one_of(
        st.sampled_from(['"', "\\", " ", "é", "ß", "\n", "\t", "€", "😀", "a", "b"]),
        st.characters(blacklist_categories=("Cs",)),
    ),
    min_size=1,
    max_size=3,
)
WORDS = st.lists(LETTERS, max_size=3).map(tuple)
TENSOR_KEYS = st.lists(WORDS, max_size=3).map(tuple)


def polynomials():
    return st.builds(Polynomial, st.lists(COEFFS, max_size=8))


def qsyms():
    return st.one_of(
        st.just(QSym.one()),
        st.just(QSym.zero()),
        st.builds(QSym, st.dictionaries(COMPOSITIONS, COEFFS, max_size=8)),
    )


def free_words():
    return st.builds(FreeWord, st.dictionaries(WORDS, COEFFS, max_size=6))


def tensors():
    return st.builds(TensorElement, st.dictionaries(TENSOR_KEYS, COEFFS, max_size=5))


def series_of(values, one):
    return st.lists(values, min_size=1, max_size=4).map(lambda cs: Series(cs, one))


CARRIERS = st.one_of(SCALARS, polynomials(), qsyms(), free_words(), tensors())
VALUES = st.one_of(
    CARRIERS,
    series_of(SCALARS, Fraction(1)),
    series_of(polynomials(), Polynomial.one()),
    series_of(qsyms(), QSym.one()),
    series_of(free_words(), FreeWord.one()),
    series_of(tensors(), TensorElement.one()),
)


def assert_renders_as_the_oracle(x):
    expected = render_by_structure(x)
    assert render_json(x) == json.dumps(expected)
    assert render_value(x) == expected


@PROPERTY
@given(VALUES)
def test_render_json_matches_the_structure_render_property(x):
    assert_renders_as_the_oracle(x)


@PROPERTY
@given(st.integers(-10**30, 10**30), st.integers(1, 10**6))
def test_ratio_text_writes_what_fraction_writes_property(numerator, denominator):
    assert ratio_text(numerator, denominator) == str(Fraction(numerator, denominator))


def _no_terms_view(self):
    raise AssertionError("read the Fraction view of a carrier")


@PROPERTY
@given(st.one_of(qsyms(), free_words(), tensors()))
def test_reprs_and_renders_write_from_the_numerators_property(x):
    # the `terms` view is built anew on every read, so a repr or render
    # reading it per term would build one view per term
    expected = render_json(x), pretty(x)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TermCarrier, "terms", property(_no_terms_view))
        assert (render_json(x), pretty(x)) == expected


def test_render_json_edge_values():
    cases = [
        0, -7, 10**40, Fraction(-1, 6), Fraction(4, 2), True,
        Polynomial(), Polynomial((0, 0, -3)), Polynomial((Fraction(-1, 2), 0, Fraction(2, 3))),
        QSym.one(), QSym.zero(), QSym({(1, 2): Fraction(-3, 4), (3,): 2, (): Fraction(1, 3)}),
        QSym({(): Fraction(-1, 3), (10, 2): Fraction(5, 2), (MAX_PART,): 4}),
        FreeWord.one(), FreeWord.zero(),
        FreeWord({('a"b', "c\\d"): Fraction(-1, 2), ("s p", "é"): 3, ("😀",): -1}),
        TensorElement.one(),
        TensorElement({((), ('q"',)): 2, (("é", "\\"), ("x y",)): Fraction(5, 7)}),
        Series((Polynomial.one(), Polynomial()), Polynomial.one()),
        Series((Fraction(1, 2),), Fraction(1)),
    ]
    for x in cases:
        assert_renders_as_the_oracle(x)


def _path_lambda():
    """The 2048-term lambda value of the 12-vertex path."""
    return qsym_weak(parse_tree("(" * 12 + ")" * 12))


def test_a_many_term_value_renders_alike_from_an_empty_and_a_full_table():
    x = _path_lambda()
    render._COMPOSITIONS.clear()
    text = render_json(x)
    assert len(render._COMPOSITIONS) == 2048
    assert render_json(x) == text == json.dumps(render_by_structure(x))
    render._COMPOSITIONS.clear()
    assert render_json(x) == text


def _watched(table_class):
    """An empty table of this class that keeps the most entries it held."""

    class Watched(table_class):
        most = 0

        def __setitem__(self, key, text):
            super().__setitem__(key, text)
            self.most = max(self.most, len(self))

    return Watched()


def _render_with_bound(bound, values):
    """The most entries the part and composition tables held while
    rendering these values, each checked, under this bound."""
    parts, compositions = _watched(render._PartText), _watched(render._CompositionText)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(render, "QSYM_TERM_LIMIT", bound)
        patch.setattr(render, "_PARTS", parts)
        patch.setattr(render, "_COMPOSITIONS", compositions)
        for x in values:
            assert_renders_as_the_oracle(x)
    return parts.most, compositions.most


@PROPERTY
@given(st.integers(1, 4), st.lists(qsyms(), max_size=4))
def test_the_text_tables_never_outgrow_their_bound_property(bound, values):
    assert max(_render_with_bound(bound, values)) <= bound


def test_a_value_with_more_keys_than_the_bound_renders_through_clears():
    x = _path_lambda()
    assert _render_with_bound(5, [x, x]) == (5, 5)
    # under the bound, one value's 12 parts and 2048 codes all stay
    assert _render_with_bound(4096, [x, x]) == (12, 2048)


def test_words_render_in_label_order_not_in_letter_table_order():
    # labels met latest-sorting first: the render sorts by the decoded
    # label tuples, whatever order the labels are met in and whatever
    # order their length-prefixed codes sort in
    late, early = "render-order-z", "render-order-a"
    x = FreeWord({(late,): 1, (early,): 1, (late, early): 2, (early, late): 3})
    assert pretty(x) == f"{early} + {late} + 3*{early}.{late} + 2*{late}.{early}"
    assert [term["word"] for term in render_value(x)] == [
        [early], [late], [early, late], [late, early]
    ]
    t = TensorElement({((late,),): 1, ((early,), (late,)): 1, ((late,), (early,)): 1,
                       ((early,),): 1})
    assert pretty(t) == f"{early} + {late} + {early} @ {late} + {late} @ {early}"
    for value in (x, t):
        assert_renders_as_the_oracle(value)


def test_polynomial_json_edge_values():
    cases = {
        Polynomial(): "[]",
        Polynomial((0, -2, 0, 7)): '["0", "-2", "0", "7"]',
        Polynomial((5, 10**30)): f'["5", "{10**30}"]',
        Polynomial((Fraction(-1, 2), -1, Fraction(-3, 2))): '["-1/2", "-1", "-3/2"]',
        Polynomial((Fraction(1, 6), 0, Fraction(-2, 3), 2)): '["1/6", "0", "-2/3", "2"]',
    }
    for p, text in cases.items():
        assert render_json(p) == text
        assert_renders_as_the_oracle(p)


@pytest.mark.parametrize("x", [object(), "text", [1], {"a": 1}, None, 1.5])
def test_unrenderable_types_are_domain_errors(x):
    for render in (render_json, render_value, render_by_structure):
        with pytest.raises(DomainError, match="cannot render"):
            render(x)


@PROPERTY
@given(
    st.text(),
    st.text(),
    st.integers(-10**30, 10**30),
    st.booleans(),
    st.one_of(polynomials(), qsyms(), free_words(), tensors()),
    st.lists(qsyms(), max_size=4),
    series_of(polynomials(), Polynomial.one()),
)
def test_render_payload_matches_json_dumps_property(
    name, text, count, flag, value, terms, residual
):
    # the shapes of the CLI's invariant, genfun and planar payloads, with
    # one field name drawn as freely as the str fields
    payloads = [
        ({"tree": text, name: "lambda", "alpha": count, "value": value},
         {"tree": text, name: "lambda", "alpha": count,
          "value": render_by_structure(value)}),
        ({"operator": text, "mode": "recurrence", name: terms},
         {"operator": text, "mode": "recurrence",
          name: [render_by_structure(t) for t in terms]}),
        ({name: residual, "residual_zero": flag},
         {name: render_by_structure(residual), "residual_zero": flag}),
        ({"tree": text, name: count, "value": tuple(terms)},
         {"tree": text, name: count, "value": [render_by_structure(t) for t in terms]}),
    ]
    for payload, expected in payloads:
        assert render_payload(payload) == json.dumps(expected)
