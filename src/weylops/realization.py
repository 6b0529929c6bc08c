"""Differential realization  p = c * d/dx,  q = (multiply by x).

Acting on polynomials in x this satisfies pq - qp = c exactly, and it is
faithful: distinct normal-ordered elements act differently on enough
monomials.  That makes it an independent oracle for the symbolic engine --
the reordering rule used by WeylElement multiplication is validated against
composition of these actions (``validate_reordering``).

XPoly is stored flat, as WeylElement is: integer numerators over one shared
denominator.  ``apply_element`` reads both operands' numerators and uses
integer falling factorials, so the action builds no Fraction and calls
nothing of the engine's product (``contraction_weights``, ``__mul__``).

Monomial closed forms (l >= n, with C(n,k) = 0 for k > n):

    [p^n/n!, q^m/m!] x^l = (c^n/m!) (C(m+l,n) - C(l,n)) x^(l-n+m)
    {p^n/n!, q^m/m!} x^l = (c^n/m!) (C(m+l,n) + C(l,n)) x^(l-n+m)
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, perm
from typing import Union

from .scalars import CPoly, CPolyLike, FlatTerms, GaussianRational
from .weyl import WeylElement

XPolyLike = Union[int, Fraction, CPoly, "XPoly"]


class PreconditionViolation(ValueError):
    """A closed form was requested outside its stated domain."""


class XPoly(FlatTerms):
    """Polynomial in x with CPoly coefficients (the realization's carrier).

    Stored flat (see FlatTerms) under keys (deg, k) for c^k x^deg; ``coeffs``
    is the {deg: CPoly} view, built on first use and cached.  Immutable.
    """

    __slots__ = ()

    def __init__(self, coeffs: dict[int, CPolyLike] | None = None):
        super().__init__({(k,): v for k, v in (coeffs or {}).items()})

    @property
    def coeffs(self) -> dict[int, CPoly]:
        """{deg: CPoly coefficient of x^deg}, without zero coefficients."""
        return self._cpolys()

    @staticmethod
    def monomial(l: int, coeff: CPolyLike = 1) -> "XPoly":
        return XPoly({l: coeff})

    @staticmethod
    def of(v: XPolyLike) -> "XPoly":
        return v if isinstance(v, XPoly) else XPoly({0: v})

    def __add__(self, other):
        return self._add(XPoly.of(other))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-XPoly.of(other))

    def scale(self, v: CPolyLike) -> "XPoly":
        v = CPoly.of(v)
        return XPoly({k: cp * v for k, cp in self.coeffs.items()})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational, CPoly)):
            other = XPoly.of(other)
        if not isinstance(other, XPoly):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        if self.degree() <= 0:
            # a constant hashes like the CPoly it equals
            return hash(self.coeff(0))
        return hash((self._den, frozenset(self._num.items())))

    def degree(self) -> int:
        return max((deg for deg, _ in self._num), default=-1)

    def coeff(self, k: int) -> CPoly:
        return self.coeffs.get(k, CPoly())

    def __str__(self):
        return self._render(lambda k: "" if k == 0 else ("x" if k == 1 else f"x^{k}"))

    def __repr__(self):
        return f"<XPoly {self}>"


def apply_element(w: WeylElement, f: XPoly) -> XPoly:
    """Act with a normal-ordered element:  q^a p^b x^l = c^b l!/(l-b)! x^(l-b+a)."""
    out: dict[tuple[int, int], tuple[int, int]] = {}
    right = list(f._num.items())
    for (a, b, k1), (r1, i1) in w._num.items():
        for (l, k2), (r2, i2) in right:
            if l < b:
                continue  # derivative of order b kills x^l
            falling = perm(l, b)  # l!/(l-b)!
            key = (l - b + a, k1 + k2 + b)
            r0, i0 = out.get(key, (0, 0))
            out[key] = (r0 + (r1 * r2 - i1 * i2) * falling, i0 + (r1 * i2 + i1 * r2) * falling)
    return XPoly._canonical(out, w._den * f._den)


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
    exps = [(a, b) for a in range(max_exp + 1) for b in range(max_exp + 1)]
    ops = {e: WeylElement({e: 1}) for e in exps}
    xs = {l: XPoly.monomial(l) for l in (0, 1, max_l)}
    for (a1, b1), w1 in ops.items():
        for (a2, b2), w2 in ops.items():
            prod = w1 * w2
            for l, f in xs.items():
                if apply_element(prod, f) != apply_element(w1, apply_element(w2, f)):
                    raise AssertionError(
                        f"reordering mismatch at q^{a1}p^{b1} * q^{a2}p^{b2} on x^{l}"
                    )
