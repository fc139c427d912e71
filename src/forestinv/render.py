"""Deterministic rendering of algebra values.

JSON payloads carry rationals as exact strings ("5", "-1/6"); nothing in
the package ever renders a float.  Rendering is for output only: values
compare and hash exactly by themselves.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Polynomial, QSym
from .errors import DomainError
from .series import Series
from .words import FreeWord, TensorElement


def render_value(x):
    """A JSON-able form of any carrier value, with deterministic order."""
    if isinstance(x, (Fraction, int)):
        return str(Fraction(x))
    if isinstance(x, Polynomial):
        return [str(c) for c in x.coeffs]
    if isinstance(x, QSym):
        return [
            {"composition": list(comp), "coefficient": str(x.terms[comp])}
            for comp in sorted(x.terms)
        ]
    if isinstance(x, FreeWord):
        return [
            {"word": list(word), "coefficient": str(x.terms[word])}
            for word in sorted(x.terms, key=lambda w: (len(w), w))
        ]
    if isinstance(x, TensorElement):
        return [
            {"tensor": [list(word) for word in factors], "coefficient": str(x.terms[factors])}
            for factors in sorted(x.terms, key=lambda f: (len(f), f))
        ]
    if isinstance(x, Series):
        return [render_value(c) for c in x.coeffs]
    raise DomainError(f"cannot render a {type(x).__name__}")


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
