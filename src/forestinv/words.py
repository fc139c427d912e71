"""Noncommutative carriers: the free word algebra and its tensor algebra.

FreeWord is a rational combination of words over string generators; the
product concatenates.  TensorElement is a rational combination of tuples
of words (tensor factors are FreeWord basis words); the product
concatenates factor tuples.  Word algebras truncate silently by word
length like the other graded carriers, but the tensor algebra raises on
overflow instead: the splitting operators built on it must never lose
terms quietly.  A bound of None means unbounded.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import _fits, _merge_bounds, rat
from .errors import DomainError
from .series import register_noncommutative

Word = tuple


class FreeWord:
    """Element of the free associative algebra on string generators."""

    __slots__ = ("terms", "max_len")

    def __init__(self, terms, max_len=None):
        clean = {}
        for word, coeff in terms.items():
            word = tuple(word)
            if not all(isinstance(letter, str) and letter for letter in word):
                raise DomainError(f"generators must be non-empty strings: {word}")
            coeff = rat(coeff)
            if coeff != 0 and _fits(len(word), max_len):
                clean[word] = coeff
        self.terms = clean
        self.max_len = max_len

    @classmethod
    def zero(cls, max_len=None):
        return cls({}, max_len)

    @classmethod
    def one(cls, max_len=None):
        return cls({(): Fraction(1)}, max_len)

    @classmethod
    def generator(cls, label: str, max_len=None):
        return cls({(label,): Fraction(1)}, max_len)

    def one_like(self):
        return FreeWord.one(self.max_len)

    def zero_like(self):
        return FreeWord.zero(self.max_len)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, FreeWord):
            return NotImplemented
        merged = dict(self.terms)
        for word, coeff in other.terms.items():
            merged[word] = merged.get(word, Fraction(0)) + coeff
        return FreeWord(merged, _merge_bounds(self.max_len, other.max_len))

    def __neg__(self):
        return FreeWord({w: -c for w, c in self.terms.items()}, self.max_len)

    def __sub__(self, other):
        if not isinstance(other, FreeWord):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, FreeWord):
            bound = _merge_bounds(self.max_len, other.max_len)
            out = {}
            for wa, ca in self.terms.items():
                for wb, cb in other.terms.items():
                    if not _fits(len(wa) + len(wb), bound):
                        continue
                    word = wa + wb
                    out[word] = out.get(word, Fraction(0)) + ca * cb
            return FreeWord(out, bound)
        scalar = rat(other)
        return FreeWord({w: scalar * c for w, c in self.terms.items()}, self.max_len)

    def __rmul__(self, other):
        scalar = rat(other)
        return FreeWord({w: scalar * c for w, c in self.terms.items()}, self.max_len)

    def __eq__(self, other):
        return isinstance(other, FreeWord) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "FreeWord(0)"
        parts = []
        for word in sorted(self.terms, key=lambda w: (len(w), w)):
            coeff = self.terms[word]
            body = ".".join(word) if word else "1"
            parts.append(body if coeff == 1 and word else f"{coeff}*{body}")
        return "FreeWord(%s)" % " + ".join(parts)


class TensorElement:
    """Element of the tensor algebra whose letters are free-algebra words."""

    __slots__ = ("terms", "max_len")

    def __init__(self, terms, max_len=None):
        clean = {}
        for factors, coeff in terms.items():
            factors = tuple(tuple(w) for w in factors)
            coeff = rat(coeff)
            if coeff == 0:
                continue
            if not _fits(len(factors), max_len):
                raise DomainError(
                    f"tensor of length {len(factors)} exceeds the bound {max_len}"
                )
            clean[factors] = coeff
        self.terms = clean
        self.max_len = max_len

    @classmethod
    def zero(cls, max_len=None):
        return cls({}, max_len)

    @classmethod
    def one(cls, max_len=None):
        return cls({(): Fraction(1)}, max_len)

    @classmethod
    def single(cls, word, max_len=None):
        """The length-one tensor holding one free-algebra basis word."""
        return cls({(tuple(word),): Fraction(1)}, max_len)

    def one_like(self):
        return TensorElement.one(self.max_len)

    def zero_like(self):
        return TensorElement.zero(self.max_len)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        merged = dict(self.terms)
        for factors, coeff in other.terms.items():
            merged[factors] = merged.get(factors, Fraction(0)) + coeff
        return TensorElement(merged, _merge_bounds(self.max_len, other.max_len))

    def __neg__(self):
        return TensorElement({f: -c for f, c in self.terms.items()}, self.max_len)

    def __sub__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, TensorElement):
            bound = _merge_bounds(self.max_len, other.max_len)
            out = {}
            for fa, ca in self.terms.items():
                for fb, cb in other.terms.items():
                    factors = fa + fb
                    if not _fits(len(factors), bound):
                        raise DomainError(
                            f"tensor product of length {len(factors)} exceeds "
                            f"the bound {bound}"
                        )
                    out[factors] = out.get(factors, Fraction(0)) + ca * cb
            return TensorElement(out, bound)
        scalar = rat(other)
        return TensorElement({f: scalar * c for f, c in self.terms.items()}, self.max_len)

    def __rmul__(self, other):
        scalar = rat(other)
        return TensorElement({f: scalar * c for f, c in self.terms.items()}, self.max_len)

    def __eq__(self, other):
        return isinstance(other, TensorElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

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


register_noncommutative(FreeWord)
register_noncommutative(TensorElement)
