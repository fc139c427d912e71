"""Noncommutative carriers: the free word algebra and its tensor algebra.

FreeWord is a rational combination of words over string generators; the
product concatenates.  TensorElement is a rational combination of tuples
of words (tensor factors are FreeWord basis words); the product
concatenates factor tuples.  Both share their linear-space arithmetic,
and the rule that keys are checked once, with `QSym` through
`algebra.TermCarrier`.  Neither is truncated: a planar tree's word value
is homogeneous of length its vertex count, so the generating functions
are cut by their order alone.
"""

from __future__ import annotations

from .algebra import TermCarrier, rat
from .errors import DomainError

Word = tuple


def _checked_word(word) -> Word:
    """The word as a tuple, once each letter is a non-empty string."""
    word = tuple(word)
    if not all(isinstance(letter, str) and letter for letter in word):
        raise DomainError(f"generators must be non-empty strings: {word}")
    return word


class FreeWord(TermCarrier):
    """Element of the free associative algebra on string generators."""

    __slots__ = ()

    noncommutative = True

    def __init__(self, terms):
        clean = {}
        for word, coeff in terms.items():
            word = _checked_word(word)
            coeff = rat(coeff)
            if coeff != 0:
                clean[word] = coeff
        self.terms = clean

    @classmethod
    def generator(cls, label: str):
        return cls({(label,): 1})

    def __mul__(self, other):
        if isinstance(other, FreeWord):
            out = {}
            for wa, ca in self.terms.items():
                for wb, cb in other.terms.items():
                    word = wa + wb
                    out[word] = out.get(word, 0) + ca * cb
            return FreeWord._from_valid_terms(out)
        return self._scaled(other)

    def __repr__(self):
        if not self.terms:
            return "FreeWord(0)"
        parts = []
        for word in sorted(self.terms, key=lambda w: (len(w), w)):
            coeff = self.terms[word]
            body = ".".join(word) if word else "1"
            parts.append(body if coeff == 1 and word else f"{coeff}*{body}")
        return "FreeWord(%s)" % " + ".join(parts)


class TensorElement(TermCarrier):
    """Element of the tensor algebra whose letters are free-algebra words."""

    __slots__ = ()

    noncommutative = True

    def __init__(self, terms):
        clean = {}
        for factors, coeff in terms.items():
            factors = tuple(_checked_word(w) for w in factors)
            coeff = rat(coeff)
            if coeff != 0:
                clean[factors] = coeff
        self.terms = clean

    @classmethod
    def single(cls, word):
        """The length-one tensor holding one free-algebra basis word."""
        return cls({(tuple(word),): 1})

    def __mul__(self, other):
        if isinstance(other, TensorElement):
            out = {}
            for fa, ca in self.terms.items():
                for fb, cb in other.terms.items():
                    factors = fa + fb
                    out[factors] = out.get(factors, 0) + ca * cb
            return TensorElement._from_valid_terms(out)
        return self._scaled(other)

    def __repr__(self):
        if not self.terms:
            return "TensorElement(0)"
        parts = []
        for factors in sorted(self.terms, key=lambda f: (len(f), f)):
            coeff = self.terms[factors]
            body = (
                " @ ".join(".".join(w) if w else "1" for w in factors)
                if factors
                else "1"
            )
            parts.append(body if coeff == 1 and factors else f"{coeff}*[{body}]")
        return "TensorElement(%s)" % " + ".join(parts)

