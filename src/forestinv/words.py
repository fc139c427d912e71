"""Noncommutative carriers: the free word algebra and its tensor algebra.

FreeWord is a rational combination of words over string generators; the
product concatenates.  TensorElement is a rational combination of tuples
of words (tensor factors are FreeWord basis words); the product
concatenates factor tuples.  Both take that product from
`_Concatenation`, and share their constructor, their linear-space
arithmetic and the rule that keys are checked once with `QSym` through
`algebra.TermCarrier`; each supplies only its key check.  Neither is
truncated: a planar tree's word value is homogeneous of length its
vertex count, so the generating functions are cut by their order alone.

A word is stored as its code, one character per letter, so a product or
a prepend concatenates two strs and a key's hash is computed once.  The
codes come from one letter table for the whole process, which gives each
label the next code point the first time `letter` meets it; a tensor
key is the tuple of its factors' word codes.  Words come in as tuples of
labels, through the public constructors, `generator`, `single` and
`one`, and are encoded there once.  They go out as tuples of labels,
decoded by `decode`, in the `terms` view, the reprs and
`render.render_json`.  The table gives codes in first-seen order, which
is not the order of the labels, so each of those decodes first and then
sorts by (length, word) over the decoded tuples.  A code means nothing
outside the process that made it, so values leave a process only as
labels.
"""

from __future__ import annotations

import sys

from .algebra import TermCarrier, ratio_text
from .errors import DomainError

# the letter table: each label's code and each code's label, one entry
# per label ever encoded, in first-seen order
_CODES: dict = {}
_LABELS: dict = {}


def letter(label: str) -> str:
    """The one-character code of a label, entered into the letter table
    the first time it is asked for."""
    try:
        return _CODES[label]
    except (KeyError, TypeError):
        pass
    if not isinstance(label, str) or not label:
        raise DomainError(f"generators must be non-empty strings: {label!r}")
    if len(_CODES) > sys.maxunicode:
        raise DomainError(f"more than {sys.maxunicode + 1} distinct generators")
    code = _CODES[label] = chr(len(_CODES))
    _LABELS[code] = label
    return code


def encode(word) -> str:
    """The code of a word given as a sequence of non-empty string labels;
    the empty word gives "", the unit."""
    return "".join(map(letter, word))


def decode(code: str) -> tuple:
    """The word a code stands for, as a tuple of labels."""
    return tuple(map(_LABELS.__getitem__, code))


def _decode_factors(factors: tuple) -> tuple:
    return tuple(map(decode, factors))


class _Concatenation(TermCarrier):
    """A carrier whose product concatenates keys, and whose keys go out
    through `_decoded`."""

    __slots__ = ()

    noncommutative = True

    def __mul__(self, other):
        if type(other) is type(self):
            out = {}
            for ka, ca in self.numerators.items():
                for kb, cb in other.numerators.items():
                    key = ka + kb
                    out[key] = out.get(key, 0) + ca * cb
            return self._from_numerators(out, self.denominator * other.denominator)
        return self._scaled(other)

    def decoded_numerators(self) -> dict:
        """The numerators keyed by the words or tensors as label tuples, in
        the order of the reprs and renders: by length, then by the label
        tuples themselves, never by the codes."""
        decoded = self._decoded
        nums = {decoded(key): n for key, n in self.numerators.items()}
        return {key: nums[key] for key in sorted(nums, key=lambda key: (len(key), key))}

    @property
    def terms(self) -> dict:
        """Each key's coefficient, keyed as the public constructor takes
        it: by label tuples, not codes."""
        decoded = self._decoded
        return {decoded(key): coeff for key, coeff in super().terms.items()}

    def _repr_parts(self, text, scaled) -> list:
        """Each term as `text(key)`, or as `scaled` filled with its
        coefficient and that text when the coefficient is not 1, in the
        render's order."""
        den = self.denominator
        parts = []
        for key, n in self.decoded_numerators().items():
            body = text(key)
            parts.append(body if n == den and key else scaled % (ratio_text(n, den), body))
        return parts


def _word_text(word: tuple) -> str:
    return ".".join(word) if word else "1"


def _tensor_text(factors: tuple) -> str:
    return " @ ".join(map(_word_text, factors)) if factors else "1"


class FreeWord(_Concatenation):
    """Element of the free associative algebra on string generators,
    keyed by word codes."""

    __slots__ = ()

    _checked_key = staticmethod(encode)
    _decoded = staticmethod(decode)

    @classmethod
    def generator(cls, label: str):
        return cls({(label,): 1})

    def __repr__(self):
        if not self.numerators:
            return "FreeWord(0)"
        return "FreeWord(%s)" % " + ".join(self._repr_parts(_word_text, "%s*%s"))


class TensorElement(_Concatenation):
    """Element of the tensor algebra whose letters are free-algebra words,
    keyed by tuples of word codes."""

    __slots__ = ()

    _decoded = staticmethod(_decode_factors)

    @staticmethod
    def _checked_key(factors):
        return tuple(map(encode, factors))

    @classmethod
    def single(cls, word):
        """The length-one tensor holding one free-algebra basis word."""
        return cls({(tuple(word),): 1})

    def __repr__(self):
        if not self.numerators:
            return "TensorElement(0)"
        return "TensorElement(%s)" % " + ".join(self._repr_parts(_tensor_text, "%s*[%s]"))
