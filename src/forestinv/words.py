"""Noncommutative carriers: the free word algebra and its tensor algebra.

FreeWord is a rational combination of words over string generators; the
product concatenates.  TensorElement is a rational combination of tuples
of words (tensor factors are FreeWord basis words); the product
concatenates factor tuples.  Both take that product, and its one-pass
sum over many operand pairs, `sum_of_products`, from `_Concatenation`,
and share their constructor, their linear-space arithmetic and the rule
that keys are checked once with `QSym` through `algebra.TermCarrier`;
each supplies only its key check.  Neither is
truncated: a planar tree's word value is homogeneous of length its
vertex count, so the generating functions are cut by their order alone.

A word is stored as its code, a str that spells each label as the
character whose code point is the label's length followed by the label
itself, as `algebra.code` spells a part as the character of its code
point.  So a code is a pure function of its word, the codes of two words
concatenate to the code of their product, and a product or a prepend
concatenates two strs whose hash is computed once; a tensor key is the
tuple of its factors' word codes.  Words come in as tuples of labels,
through the public constructors, `generator`, `single` and `one`, and are
encoded there once.  They go out as tuples of labels, decoded by
`decode`, in the `terms` view, the reprs and `render.render_json`, each
of which decodes first and then sorts by (length, word) over the decoded
tuples: codes sort by label length before the labels.
"""

from __future__ import annotations

import sys
from math import lcm

from .algebra import TermCarrier, ratio_text
from .errors import DomainError


def _spelled(label) -> str:
    """A label's piece of a word code: the character whose code point is
    the label's length, then the label."""
    if not isinstance(label, str) or not label:
        raise DomainError(f"generators must be non-empty strings: {label!r}")
    if len(label) > sys.maxunicode:
        raise DomainError(f"generators must be at most {sys.maxunicode} characters long")
    return chr(len(label)) + label


def encode(word) -> str:
    """The code of a word given as a sequence of non-empty string labels;
    the empty word gives "", the unit."""
    return "".join(map(_spelled, word))


def decode(code: str) -> tuple:
    """The word a code stands for, as a tuple of labels."""
    labels, start = [], 0
    while start < len(code):
        end = start + 1 + ord(code[start])
        labels.append(code[start + 1 : end])
        start = end
    return tuple(labels)


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

    @classmethod
    def sum_of_products(cls, pairs):
        """The sum of a * b over (left, right) operand pairs in one pass:
        the keys of each pair concatenate straight into one dict of
        integer numerators over one common denominator, rescaled to the
        lcm when a new denominator comes, as in `linear_combination`, and
        the result is reduced once.  No product is built on its own."""
        acc, den = {}, 1
        get = acc.get
        for a, b in pairs:
            if type(a) is not cls or type(b) is not cls:
                raise TypeError(f"not a pair of {cls.__name__}: {a!r}, {b!r}")
            if not a.numerators or not b.numerators:
                continue
            term_den = a.denominator * b.denominator
            if den % term_den:
                grown = lcm(den, term_den)
                acc = {key: v * (grown // den) for key, v in acc.items()}
                get = acc.get
                den = grown
            scale = den // term_den
            right = b.numerators.items()
            for ka, ca in a.numerators.items():
                ca *= scale
                for kb, cb in right:
                    key = ka + kb
                    acc[key] = get(key, 0) + ca * cb
        return cls._from_numerators(acc, den)

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
