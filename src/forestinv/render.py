"""Deterministic rendering of algebra values.

JSON payloads carry rationals as exact strings ("5", "-1/6"); nothing in
the package ever renders a float.  Rendering is for output only: values
compare and hash exactly by themselves.

The value format is defined once, by `render_json`, which writes the
JSON text of a value straight from its terms: one f-string per term, in
sorted order, with only the words, whose labels are user strings, going
through `json.dumps` for escaping.  Every coefficient is written from
its integer numerator by `algebra.ratio_text`, reduced against the
common denominator by one gcd, as the reprs write it.  A
quasi-symmetric key code (see `algebra.code`) is decoded here, where it
is written, and codes sort like the compositions they encode.  Each
code's text ("1, 2, 3") is written once, by one `str.translate` of its
characters, into a table keyed by the code, so a render reads it with
one dict lookup per term.  Values share their keys: every lambda value
on 12 vertices has all 2048 compositions of 12 as keys.  That table,
and the table of part texts `str.translate` reads, each hold at most
`engine.QSYM_TERM_LIMIT` entries, as many keys as the guard lets one
value have, and are emptied when full.  A word or tensor key is
decoded here too, from its word code to its tuple of labels, by the
carrier's `decoded_numerators` (see `words`), which sorts the terms by
length and then by those tuples: a word code spells each label's length
before the label, so codes do not sort like the labels.
`render_payload` writes the CLI's objects around such values, and
`render_value` is the parsed form of the same text.  Both match
`json.dumps` with its default separators byte for byte.  The payload's
field names and str fields are written by `encode_basestring_ascii`, and
its int fields (not bools) by `int.__repr__`: those are the calls
`json.dumps` makes for a str and an int, without its own dispatch.
Bools, and any other int subclass, still go through `json.dumps`.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from .algebra import Polynomial, QSym, ratio_text
from .engine import QSYM_TERM_LIMIT
from .errors import DomainError
from .series import Series
from .words import FreeWord, TensorElement


def _array(items) -> str:
    return "[" + ", ".join(items) + "]"


class _PartText(dict):
    """Code point -> the JSON text of that part and a separator, "k, ";
    made on first use, and emptied first when it holds QSYM_TERM_LIMIT
    parts."""

    def __missing__(self, point):
        if len(self) >= QSYM_TERM_LIMIT:
            self.clear()
        text = self[point] = f"{point}, "
        return text


_PARTS = _PartText()


class _CompositionText(dict):
    """Composition code -> the JSON text of its parts, "1, 2, 3"; made on
    first use, and emptied first when it holds QSYM_TERM_LIMIT codes."""

    def __missing__(self, key):
        if len(self) >= QSYM_TERM_LIMIT:
            self.clear()
        text = self[key] = key.translate(_PARTS)[:-2]
        return text


_COMPOSITIONS = _CompositionText()


def _coefficient_texts(nums: dict, den: int) -> dict:
    """Each key of a dict carrier's numerators mapped to its coefficient's
    text, or over denominator 1 to the numerator itself, which !s writes
    alike."""
    if den == 1:
        return nums
    return {key: ratio_text(n, den) for key, n in nums.items()}


def render_json(x) -> str:
    """The JSON text of any carrier value, with deterministic order.

    Each field is converted with !s: a bare f-string field formats a
    list or Fraction through `format`, which costs more than `str`."""
    if isinstance(x, (Fraction, int)):
        return f'"{Fraction(x)!s}"'
    if isinstance(x, Polynomial):
        den = x.denominator
        return _array([f'"{ratio_text(n, den)}"' for n in x.numerators])
    if isinstance(x, QSym):
        texts = _coefficient_texts(x.numerators, x.denominator)
        return _array([
            f'{{"composition": [{_COMPOSITIONS[key]}], "coefficient": "{texts[key]!s}"}}'
            for key in sorted(texts)
        ])
    if isinstance(x, (FreeWord, TensorElement)):
        field = "word" if isinstance(x, FreeWord) else "tensor"
        texts = _coefficient_texts(x.decoded_numerators(), x.denominator)
        return _array([
            f'{{"{field}": {json.dumps(key)}, "coefficient": "{texts[key]!s}"}}'
            for key in texts
        ])
    if isinstance(x, Series):
        return _array([render_json(c) for c in x.coeffs])
    raise DomainError(f"cannot render a {type(x).__name__}")


def render_value(x):
    """A JSON-able form of any carrier value: the parsed `render_json`."""
    return json.loads(render_json(x))


def render_payload(fields) -> str:
    """The JSON text of an object whose values are plain JSON (str, int,
    bool), carrier values, or lists of carrier values, in the order
    given.  An int here is plain JSON, a count, not a carrier value."""
    parts = []
    for key, value in fields.items():
        if isinstance(value, str):
            text = encode_basestring_ascii(value)
        elif type(value) is int:
            text = int.__repr__(value)
        elif isinstance(value, int):
            text = json.dumps(value)
        elif isinstance(value, (list, tuple)):
            text = _array([render_json(item) for item in value])
        else:
            text = render_json(value)
        parts.append(f"{encode_basestring_ascii(key)}: {text}")
    return "{" + ", ".join(parts) + "}"


def pretty(x) -> str:
    """Human-readable one-line form for text output."""
    if isinstance(x, (Fraction, int)):
        return str(Fraction(x))
    if isinstance(x, (Polynomial, QSym, FreeWord, TensorElement)):
        text = repr(x)
        head = type(x).__name__
        return text[len(head) + 1 : -1]
    if isinstance(x, Series):
        return " + ".join(f"({pretty(c)})*q^{k}" for k, c in enumerate(x.coeffs))
    raise DomainError(f"cannot render a {type(x).__name__}")
