"""Noncommutative carriers: the free word algebra and its tensor algebra.

FreeWord is a rational combination of words over string generators; the
product concatenates.  TensorElement is a rational combination of tuples
of words (tensor factors are FreeWord basis words); the product
concatenates factor tuples.  Both share their linear-space arithmetic,
and the rule that keys are checked once, with `QSym` through
`algebra.TermCarrier`.  Word algebras truncate silently by word length
like the other graded carriers, but the tensor algebra raises on
overflow instead: the splitting operators built on it must never lose
terms quietly.  A bound of None means unbounded; a negative bound is
refused, as in `QSym`.
"""

from __future__ import annotations

from .algebra import TermCarrier, _check_bound, _fits, _merge_bounds, rat
from .errors import DomainError

Word = tuple


class FreeWord(TermCarrier):
    """Element of the free associative algebra on string generators."""

    __slots__ = ()

    noncommutative = True
    max_len = TermCarrier.bound

    def __init__(self, terms, max_len=None):
        _check_bound(max_len)
        clean = {}
        for word, coeff in terms.items():
            word = tuple(word)
            if not all(isinstance(letter, str) and letter for letter in word):
                raise DomainError(f"generators must be non-empty strings: {word}")
            coeff = rat(coeff)
            if coeff != 0 and _fits(len(word), max_len):
                clean[word] = coeff
        self.terms = clean
        self.bound = max_len

    @classmethod
    def generator(cls, label: str, max_len=None):
        return cls({(label,): 1}, max_len)

    def __mul__(self, other):
        if isinstance(other, FreeWord):
            bound = _merge_bounds(self.max_len, other.max_len)
            out = {}
            for wa, ca in self.terms.items():
                for wb, cb in other.terms.items():
                    if not _fits(len(wa) + len(wb), bound):
                        continue
                    word = wa + wb
                    out[word] = out.get(word, 0) + ca * cb
            return FreeWord._from_valid_terms(out, bound)
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
    max_len = TermCarrier.bound

    def __init__(self, terms, max_len=None):
        _check_bound(max_len)
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
        self.bound = max_len

    @classmethod
    def single(cls, word, max_len=None):
        """The length-one tensor holding one free-algebra basis word."""
        return cls({(tuple(word),): 1}, max_len)

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
                    out[factors] = out.get(factors, 0) + ca * cb
            return TensorElement._from_valid_terms(out, bound)
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

