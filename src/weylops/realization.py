"""Differential realization  p = c * d/dx,  q = (multiply by x).

Acting on polynomials in x this satisfies pq - qp = c exactly, and it is
faithful: distinct normal-ordered elements act differently on enough
monomials.  That makes it an independent oracle for the symbolic engine --
the reordering rule used by WeylElement multiplication is validated against
composition of these actions (``validate_reordering``).

Monomial closed forms (l >= n, with C(n,k) = 0 for k > n):

    [p^n/n!, q^m/m!] x^l = (c^n/m!) (C(m+l,n) - C(l,n)) x^(l-n+m)
    {p^n/n!, q^m/m!} x^l = (c^n/m!) (C(m+l,n) + C(l,n)) x^(l-n+m)
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Union

from .scalars import CPoly, CPolyLike, GaussianRational
from .weyl import WeylElement

XPolyLike = Union[int, Fraction, CPoly, "XPoly"]


class PreconditionViolation(ValueError):
    """A closed form was requested outside its stated domain."""


class XPoly:
    """Polynomial in x with CPoly coefficients (the realization's carrier)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, CPolyLike] | None = None):
        clean: dict[int, CPoly] = {}
        if coeffs:
            for k, v in coeffs.items():
                if k < 0:
                    raise ValueError("negative degree")
                cp = CPoly.of(v)
                if cp:
                    clean[k] = cp
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("XPoly is immutable")

    @staticmethod
    def monomial(l: int, coeff: CPolyLike = 1) -> "XPoly":
        return XPoly({l: coeff})

    def __add__(self, other):
        if not isinstance(other, XPoly):
            other = XPoly({0: other})
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, CPoly()) + v
        return XPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, XPoly):
            other = XPoly({0: other})
        return self + XPoly({k: -v for k, v in other.coeffs.items()})

    def __neg__(self):
        return XPoly({k: -v for k, v in self.coeffs.items()})

    def scale(self, v: CPolyLike) -> "XPoly":
        v = CPoly.of(v)
        return XPoly({k: cp * v for k, cp in self.coeffs.items()})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational, CPoly)):
            other = XPoly({0: other})
        if not isinstance(other, XPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        if self.degree() <= 0:
            # a constant hashes like the CPoly it equals
            return hash(self.coeff(0))
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self):
        return bool(self.coeffs)

    def degree(self) -> int:
        return max(self.coeffs, default=-1)

    def coeff(self, k: int) -> CPoly:
        return self.coeffs.get(k, CPoly())

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs):
            mono = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
            coeff = f"({self.coeffs[k]})"
            parts.append(f"{coeff} * {mono}" if mono else coeff)
        return " + ".join(parts)

    def __repr__(self):
        return f"<XPoly {self}>"


def apply_element(w: WeylElement, f: XPoly) -> XPoly:
    """Act with a normal-ordered element:  q^a p^b x^l = c^b l!/(l-b)! x^(l-b+a)."""
    out: dict[int, CPoly] = {}
    for (a, b), wcoeff in w.terms.items():
        for l, fcoeff in f.coeffs.items():
            if l < b:
                continue  # derivative of order b kills x^l
            k = l - b + a
            falling = factorial(l) // factorial(l - b)
            contribution = wcoeff * fcoeff * CPoly.c_power(b, falling)
            out[k] = out.get(k, CPoly()) + contribution
    return XPoly(out)


def monomial_commutator_action(n: int, m: int, l: int) -> tuple[CPoly, int]:
    """Closed form of  [p^n/n!, q^m/m!]  on x^l: (coefficient, degree).

    Valid for l >= n (the closed form's stated domain); raises
    PreconditionViolation below it.
    """
    if l < n:
        raise PreconditionViolation(f"closed form needs l >= n, got l={l}, n={n}")
    coeff = CPoly.c_power(n, Fraction(comb(m + l, n) - comb(l, n), factorial(m)))
    return coeff, l - n + m


def monomial_anticommutator_action(n: int, m: int, l: int) -> tuple[CPoly, int]:
    """Closed form of  {p^n/n!, q^m/m!}  on x^l: (coefficient, degree)."""
    if l < n:
        raise PreconditionViolation(f"closed form needs l >= n, got l={l}, n={n}")
    coeff = CPoly.c_power(n, Fraction(comb(m + l, n) + comb(l, n), factorial(m)))
    return coeff, l - n + m


def validate_reordering(max_exp: int = 6, max_l: int = 8) -> None:
    """Check the engine's reordering rule against composed actions.

    For all monomials q^a1 p^b1 and q^a2 p^b2 with exponents <= max_exp,
    the normal-ordered product must act on x^l exactly as the composition
    of the two factors' actions.  Raises AssertionError on any mismatch.
    No ``verify`` selector runs it: call it directly, as the tests and the
    ``differential_oracle.py`` demo do, to vouch for the engine that every
    identity suite relies on.
    """
    for a1 in range(max_exp + 1):
        for b1 in range(max_exp + 1):
            w1 = WeylElement({(a1, b1): 1})
            for a2 in range(max_exp + 1):
                for b2 in range(max_exp + 1):
                    w2 = WeylElement({(a2, b2): 1})
                    prod = w1 * w2
                    for l in (0, 1, max_l):
                        f = XPoly.monomial(l)
                        direct = apply_element(prod, f)
                        composed = apply_element(w1, apply_element(w2, f))
                        if direct != composed:
                            raise AssertionError(
                                f"reordering mismatch at q^{a1}p^{b1} * q^{a2}p^{b2} on x^{l}"
                            )
