"""Euler and Bernoulli sequences, exactly over Q.

Everything here is defined by finite recurrences on Fraction values, so the
results are exact and reproducible:

* ``euler_zero(n)``       E_n(0), from the midpoint relation
                          E_n(x) + E_n(x+1) = 2 x^n specialized at x = 0,
* ``euler_polynomial(n)`` E_n(x), via the Appell expansion
                          E_n(x) = sum_k C(n,k) E_k(0) x^(n-k),
* ``solve_midpoint(n)``   the same polynomial recovered *without* the Appell
                          expansion, by solving the triangular linear system
                          that the midpoint relation imposes on coefficients,
* ``euler_number(n)``     E_n = 2^n E_n(1/2),
* ``bernoulli_number(n)`` B_n, from sum_{k<=n} C(n+1,k) B_k = 0 (B_1 = -1/2),
* ``kappa(n)``/``lam(n)`` the commutator-expansion coefficient sequences
                          0, -E_n(0) (n > 0) and 2^n E_n(1/2).

The polynomials are returned as ``RatPoly``: immutable sparse polynomials
over Fraction in one commuting variable.  ``RatPoly.coeffs`` maps degree to
coefficient and never stores zeros.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Union

RatPolyLike = Union[int, Fraction, "RatPoly"]


class RatPoly:
    """Sparse polynomial over Q in one commuting variable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, int | Fraction] | None = None):
        clean: dict[int, Fraction] = {}
        if coeffs:
            for k, v in coeffs.items():
                if k < 0:
                    raise ValueError("negative degree")
                f = Fraction(v)
                if f:
                    clean[k] = f
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("RatPoly is immutable")

    @staticmethod
    def of(v: RatPolyLike) -> "RatPoly":
        if isinstance(v, RatPoly):
            return v
        return RatPoly({0: Fraction(v)})

    @staticmethod
    def x() -> "RatPoly":
        return RatPoly({1: 1})

    def __add__(self, other):
        other = RatPoly.of(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + v
        return RatPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-RatPoly.of(other))

    def __rsub__(self, other):
        return RatPoly.of(other) + (-self)

    def __neg__(self):
        return RatPoly({k: -v for k, v in self.coeffs.items()})

    def __mul__(self, other):
        other = RatPoly.of(other)
        out: dict[int, Fraction] = {}
        for k1, v1 in self.coeffs.items():
            for k2, v2 in other.coeffs.items():
                k = k1 + k2
                out[k] = out.get(k, Fraction(0)) + v1 * v2
        return RatPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = RatPoly.of(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatPoly.of(other)
        if not isinstance(other, RatPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        if self.degree() <= 0:
            # a constant hashes like the Fraction it equals
            return hash(self.coeff(0))
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self):
        return bool(self.coeffs)

    def degree(self) -> int:
        return max(self.coeffs, default=-1)

    def coeff(self, k: int) -> Fraction:
        return self.coeffs.get(k, Fraction(0))

    def __call__(self, v: Fraction | int) -> Fraction:
        v = Fraction(v)
        acc = Fraction(0)
        for k, coeff in self.coeffs.items():
            acc += coeff * v**k
        return acc

    def compose(self, inner: "RatPoly") -> "RatPoly":
        """Substitute ``inner`` for the variable."""
        acc = RatPoly()
        for k, coeff in self.coeffs.items():
            acc = acc + RatPoly.of(coeff) * inner**k
        return acc

    def derivative(self) -> "RatPoly":
        return RatPoly({k - 1: k * v for k, v in self.coeffs.items() if k})

    def antiderivative(self) -> "RatPoly":
        """The antiderivative with zero constant term."""
        return RatPoly({k + 1: v / (k + 1) for k, v in self.coeffs.items()})

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs, reverse=True):
            v = self.coeffs[k]
            if k == 0:
                parts.append(str(v))
                continue
            mono = "x" if k == 1 else f"x^{k}"
            if v == 1:
                parts.append(mono)
            elif v == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{v}*{mono}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return f"RatPoly({{{', '.join(f'{k}: {v}' for k, v in sorted(self.coeffs.items()))}}})"


@lru_cache(maxsize=None)
def euler_zero(n: int) -> Fraction:
    """E_n(0).

    Setting x = 0 in E_n(x) + E_n(x+1) = 2 x^n and expanding E_n(1) through
    the Appell relation gives, for n >= 1,

        E_n(0) = -1/2 * sum_{k=0}^{n-1} C(n,k) E_k(0).
    """
    if n < 0:
        raise ValueError("negative index")
    if n == 0:
        return Fraction(1)
    return Fraction(-1, 2) * sum(comb(n, k) * euler_zero(k) for k in range(n))


@lru_cache(maxsize=None)
def euler_polynomial(n: int) -> RatPoly:
    """E_n(x) = sum_{k=0}^{n} C(n,k) E_k(0) x^(n-k)."""
    return RatPoly({n - k: comb(n, k) * euler_zero(k) for k in range(n + 1)})


def euler_at_half(n: int) -> Fraction:
    """E_n(1/2)."""
    return euler_polynomial(n)(Fraction(1, 2))


def euler_number(n: int) -> Fraction:
    """Euler number E_n = 2^n E_n(1/2).  Integer-valued; zero for odd n."""
    return 2**n * euler_at_half(n)


@lru_cache(maxsize=None)
def bernoulli_number(n: int) -> Fraction:
    """B_n with B_1 = -1/2, from sum_{k=0}^{n} C(n+1,k) B_k = 0 (n >= 1)."""
    if n < 0:
        raise ValueError("negative index")
    if n == 0:
        return Fraction(1)
    return Fraction(-1, n + 1) * sum(
        comb(n + 1, k) * bernoulli_number(k) for k in range(n)
    )


def solve_midpoint(n: int) -> RatPoly:
    """The unique degree-n polynomial P with P(x) + P(x+1) = 2 x^n.

    Independent of the Appell route: matching the coefficient of x^i on both
    sides gives the triangular system

        2 p_n = 2,
        2 p_i = -sum_{j=i+1}^{n} C(j,i) p_j    (i < n),

    solved top-down.  Agrees with ``euler_polynomial(n)`` because the
    midpoint relation pins E_n down uniquely (the system's matrix is
    triangular with nonzero diagonal).
    """
    if n < 0:
        raise ValueError("negative index")
    p: dict[int, Fraction] = {n: Fraction(1)}
    for i in range(n - 1, -1, -1):
        p[i] = Fraction(-1, 2) * sum(comb(j, i) * p[j] for j in range(i + 1, n + 1))
    return RatPoly(p)


def shifted_euler(n: int) -> RatPoly:
    """E_n(x + 1/2) as a polynomial in x.

    Evaluated on a suitably normalized operator argument, this polynomial
    reproduces n-fold nested anticommutators (see the verification suites).
    """
    return euler_polynomial(n).compose(RatPoly({0: Fraction(1, 2), 1: 1}))


def kappa(n: int) -> Fraction:
    """Coefficient of the odd nested-commutator expansion: 0, then -E_n(0)."""
    if n == 0:
        return Fraction(0)
    return -euler_zero(n)


def lam(n: int) -> Fraction:
    """Coefficient of the symmetric nested-commutator expansion: 2^n E_n(1/2)."""
    return 2**n * euler_at_half(n)
