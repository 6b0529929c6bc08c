"""Differential realization  p = c * d/dx,  q = (multiply by x).

Acting on polynomials in x this satisfies pq - qp = c exactly, and it is
faithful: distinct normal-ordered elements act differently on enough
monomials.  That makes it an independent oracle for the symbolic engine --
the reordering rule used by WeylElement multiplication is validated against
composition of these actions (``validate_reordering``).  The algebra is
graded, deg q = 1 and deg p = -1 (J. Dixmier, Bull. SMF 96, 1968), and the
action keeps the grading: q^a p^b sends x^l to x^(l-b+a).  So once a
product's terms are checked to be of its degree D, its action on one test
polynomial sum_l x^l puts each x^l at its own degree l + D, and one action
on the sum stands for one per x^l.

XPoly is stored flat, as WeylElement is: the integer numerator of
c^k i^i x^deg under the key (deg, k, i), over one shared denominator.
``apply_element`` reads both operands' numerators, applies i^2 = -1 and uses
integer falling factorials, so the action builds no Fraction and calls
nothing of the engine's product (``contraction_weights``, ``__mul__``).
"""

from __future__ import annotations

from math import perm

from .report import _orders
from .scalars import CPoly, CTerms
from .weyl import WeylElement


class XPoly(CTerms):
    """Polynomial in x with CPoly coefficients (the realization's carrier).

    Stored flat (see FlatTerms) under keys (deg, k, i) for c^k i^i x^deg;
    ``coeffs`` is the {deg: CPoly} view, a new dict on each read.
    Immutable.
    """

    __slots__ = ()
    _key = staticmethod(lambda deg, k, i: (deg, k, i))

    @property
    def coeffs(self) -> dict[int, CPoly]:
        """{deg: CPoly coefficient of x^deg}, without zero coefficients."""
        return self._grouped(lambda key: (key[0], key[1:]), CPoly)

    @staticmethod
    def monomial(l: int) -> "XPoly":
        return XPoly({l: 1})

    def __str__(self):
        return self._render(self.coeffs, lambda k: "" if k == 0 else ("x" if k == 1 else f"x^{k}"))


def apply_element(w: WeylElement, f: XPoly) -> XPoly:
    """Act with a normal-ordered element:  q^a p^b x^l = c^b l!/(l-b)! x^(l-b+a)."""
    out: dict[tuple[int, int, int], int] = {}
    right = list(f._num.items())
    for (a, b, k1, i1), n1 in w._num.items():
        for (l, k2, i2), n2 in right:
            if l < b:
                continue  # derivative of order b kills x^l
            n = n1 * n2 * perm(l, b)  # l!/(l-b)!
            key = (l - b + a, k1 + k2 + b, i1 ^ i2)
            out[key] = out.get(key, 0) + (-n if i1 & i2 else n)  # i^2 = -1
    return XPoly._canonical(out, w._den * f._den)


def validate_reordering(max_exp: int = 6, max_l: int = 8) -> None:
    """Check the engine's reordering rule against composed actions.

    For all monomials q^a1 p^b1 and q^a2 p^b2 with exponents <= max_exp,
    the normal-ordered product must be of degree D = a1 + a2 - b1 - b2 and
    act on f = x^0 + x^1 + x^max_l as the composition of the two factors'
    actions; by the grading that is the check on each x^l, and a term of
    the wrong degree fails even if it kills every x^l.  Raises
    AssertionError on any mismatch, ValueError on a negative bound.
    No ``verify`` selector runs it: call it directly, as the tests and the
    ``differential_oracle.py`` demo do, to vouch for the engine that every
    identity suite relies on.
    """
    _orders(max_exp=max_exp, max_l=max_l)
    ops = {(a, b): WeylElement({(a, b): 1}) for a in range(max_exp + 1) for b in range(max_exp + 1)}
    ls = sorted({0, 1, max_l})
    f = XPoly(dict.fromkeys(ls, 1))
    acted = {e: apply_element(w, f) for e, w in ops.items()}
    for (a1, b1), w1 in ops.items():
        for (a2, b2), w2 in ops.items():
            prod, deg = w1 * w2, a1 + a2 - b1 - b2
            graded = all(a - b == deg for a, b, _, _ in prod._num)
            if graded and apply_element(prod, f) == apply_element(w1, acted[a2, b2]):
                continue
            where = f"reordering mismatch at q^{a1}p^{b1} * q^{a2}p^{b2}"
            for l in ls:  # the witness: the first x^l on which the two sides differ
                x = XPoly.monomial(l)
                if apply_element(prod, x) != apply_element(w1, apply_element(w2, x)):
                    raise AssertionError(f"{where} on x^{l}")
            raise AssertionError(f"{where}: not of degree {deg}")
