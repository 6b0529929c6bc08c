"""Euler and Bernoulli sequences, exactly over Q.

Everything here is defined by finite recurrences, so the results are exact
and reproducible.  The Euler family runs on the integers e_k = 2^k E_k(0):

* ``euler_zero(n)``       E_n(0) = e_n / 2^n, from the midpoint relation
                          E_n(x) + E_n(x+1) = 2 x^n specialized at x = 0,
                          e_0 = 1, e_n = -sum_{k<n} C(n,k) 2^(n-1-k) e_k,
* ``euler_polynomial(n)`` E_n(x), via the Appell expansion
                          E_n(x) = sum_k C(n,k) E_k(0) x^(n-k),
* ``solve_midpoint(n)``   the same polynomial recovered *without* the Appell
                          expansion, by solving the triangular linear system
                          that the midpoint relation imposes on coefficients,
* ``euler_number(n)``     E_n = 2^n E_n(1/2) = sum_k C(n,k) e_k,
* ``bernoulli_number(n)`` B_n, from sum_{k<=n} C(n+1,k) B_k = 0 (B_1 = -1/2),
* ``kappa(n)``/``lam(n)`` the commutator-expansion coefficient sequences
                          0, -E_n(0) (n > 0) and E_n (``lam`` is ``euler_number``).

The polynomials are returned as ``RatPoly``: immutable sparse polynomials
over Q in one commuting variable, stored flat as integer numerators over one
shared positive denominator.  ``RatPoly.coeffs`` is a {degree: Fraction}
view over those numerators, built on each read, and never holds zeros.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

from .scalars import FlatTerms, _lifting


class RatPoly(FlatTerms):
    """Sparse polynomial over Q in one commuting variable.

    Stored flat (see ``scalars.FlatTerms``) under keys deg for x^deg, with no
    c and no i.  ``coeffs`` is the {degree: Fraction} view, a new dict on
    each read.  Immutable.
    """

    __slots__ = ()
    _scalar_key = staticmethod(lambda deg: None if deg else (0, 0))
    # perfbench's tracer wraps these through the class's own __dict__
    __add__ = __radd__ = FlatTerms.__add__
    __sub__, __rsub__ = FlatTerms.__sub__, FlatTerms.__rsub__
    __neg__, __pow__ = FlatTerms.__neg__, FlatTerms.__pow__
    __eq__, __hash__ = FlatTerms.__eq__, FlatTerms.__hash__

    @staticmethod
    def _key(deg: int, k: int, i: int) -> int:
        if k or i:
            raise TypeError("a RatPoly coefficient must be rational")
        return deg

    @property
    def coeffs(self) -> dict[int, Fraction]:
        den = self._den
        return {k: Fraction(v, den) for k, v in self._num.items()}

    @staticmethod
    def x() -> "RatPoly":
        return RatPoly._flat({1: 1}, 1)

    @_lifting
    def __mul__(self, other):
        out: dict[int, int] = {}
        for k1, v1 in self._num.items():
            for k2, v2 in other._num.items():
                k = k1 + k2
                out[k] = out.get(k, 0) + v1 * v2
        return RatPoly._canonical(out, self._den * other._den)

    __rmul__ = __mul__

    def degree(self) -> int:
        return max(self._num, default=-1)

    def coeff(self, k: int) -> Fraction:
        return Fraction(self._num.get(k, 0), self._den)

    def __call__(self, v: Fraction | int) -> Fraction:
        # Horner on integers: at v = a/b, b^d P(v) = sum_k num_k a^k b^(d-k) / den
        if not isinstance(v, (int, Fraction)):
            raise TypeError(f"not an exact scalar: {v!r}")
        a, b = v.numerator, v.denominator
        d = max(self.degree(), 0)
        acc = 0
        for k in range(d, -1, -1):
            acc = acc * a + self._num.get(k, 0) * b ** (d - k)
        return Fraction(acc, self._den * b**d)

    def compose(self, inner: "RatPoly") -> "RatPoly":
        """Substitute ``inner`` for the variable: one product per degree."""
        inner, powers = RatPoly.of(inner), [RatPoly.of(1)]
        for _ in range(self.degree()):
            powers.append(powers[-1] * inner)
        return RatPoly.weighted_sum((a, powers[k]) for k, a in self.coeffs.items())

    def derivative(self) -> "RatPoly":
        return RatPoly._canonical({k - 1: k * v for k, v in self._num.items() if k}, self._den)

    def antiderivative(self) -> "RatPoly":
        """The antiderivative with zero constant term."""
        m = lcm(*[k + 1 for k in self._num])
        num = {k + 1: v * (m // (k + 1)) for k, v in self._num.items()}
        return RatPoly._canonical(num, self._den * m)

    def __str__(self):
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        parts = []
        for k in sorted(coeffs, reverse=True):
            v = coeffs[k]
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


def _scaled_euler_zeros(n: int) -> list[int]:
    """[e_0, ..., e_n], e_k = 2^k E_k(0), by the recurrence of the module docstring."""
    if n < 0:
        raise ValueError("negative index")
    e = [1]
    for m in range(1, n + 1):
        e.append(-sum(comb(m, k) * e[k] << (m - 1 - k) for k in range(m)))
    return e


def _appell(a: list[int]) -> RatPoly:
    """sum_k C(n,k) (a_k / 2^k) x^(n-k), n = len(a) - 1, over the denominator 2^n."""
    n = len(a) - 1
    return RatPoly._canonical({n - k: comb(n, k) * a[k] << (n - k) for k in range(n + 1)}, 1 << n)


@lru_cache(maxsize=None)
def euler_zero(n: int) -> Fraction:
    """E_n(0)."""
    return Fraction(_scaled_euler_zeros(n)[n], 1 << n)


@lru_cache(maxsize=None)
def euler_polynomial(n: int) -> RatPoly:
    """E_n(x) = sum_{k=0}^{n} C(n,k) E_k(0) x^(n-k)."""
    return _appell(_scaled_euler_zeros(n))


def euler_at_half(n: int) -> Fraction:
    """E_n(1/2) = E_n / 2^n."""
    return euler_number(n) / 2**n


def euler_number(n: int) -> Fraction:
    """Euler number E_n = 2^n E_n(1/2) = sum_k C(n,k) e_k.  Integer-valued; zero for odd n."""
    return Fraction(sum(comb(n, k) * v for k, v in enumerate(_scaled_euler_zeros(n))))


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
    """E_n(x + 1/2) = sum_k C(n,k) E_k(1/2) x^(n-k), as a polynomial in x.

    Evaluated on a suitably normalized operator argument, this polynomial
    reproduces n-fold nested anticommutators (see the verification suites).
    """
    e = _scaled_euler_zeros(n)
    return _appell([sum(comb(j, k) * e[k] for k in range(j + 1)) for j in range(n + 1)])


def kappa(n: int) -> Fraction:
    """Coefficient of the odd nested-commutator expansion: 0, then -E_n(0)."""
    if n == 0:
        return Fraction(0)
    return -euler_zero(n)


lam = euler_number  # 2^n E_n(1/2), the symmetric nested-commutator expansion's weights
