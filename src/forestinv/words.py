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
"""

from __future__ import annotations

from .algebra import TermCarrier, ratio_text
from .errors import DomainError

Word = tuple


def _checked_word(word) -> Word:
    """The word as a tuple, once each letter is a non-empty string."""
    word = tuple(word)
    if not all(isinstance(letter, str) and letter for letter in word):
        raise DomainError(f"generators must be non-empty strings: {word}")
    return word


class _Concatenation(TermCarrier):
    """A carrier whose product concatenates keys."""

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


class FreeWord(_Concatenation):
    """Element of the free associative algebra on string generators."""

    __slots__ = ()

    _checked_key = staticmethod(_checked_word)

    @classmethod
    def generator(cls, label: str):
        return cls({(label,): 1})

    def __repr__(self):
        nums, den = self.numerators, self.denominator
        if not nums:
            return "FreeWord(0)"
        parts = []
        for word in sorted(nums, key=lambda w: (len(w), w)):
            n = nums[word]
            body = ".".join(word) if word else "1"
            parts.append(body if n == den and word else f"{ratio_text(n, den)}*{body}")
        return "FreeWord(%s)" % " + ".join(parts)


class TensorElement(_Concatenation):
    """Element of the tensor algebra whose letters are free-algebra words."""

    __slots__ = ()

    @staticmethod
    def _checked_key(factors):
        return tuple(_checked_word(w) for w in factors)

    @classmethod
    def single(cls, word):
        """The length-one tensor holding one free-algebra basis word."""
        return cls({(tuple(word),): 1})

    def __repr__(self):
        nums, den = self.numerators, self.denominator
        if not nums:
            return "TensorElement(0)"
        parts = []
        for factors in sorted(nums, key=lambda f: (len(f), f)):
            n = nums[factors]
            body = (
                " @ ".join(".".join(w) if w else "1" for w in factors)
                if factors
                else "1"
            )
            parts.append(body if n == den and factors else f"{ratio_text(n, den)}*[{body}]")
        return "TensorElement(%s)" % " + ".join(parts)

