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
over Q in one commuting variable, stored flat as integer numerators over one
shared positive denominator.  ``RatPoly.coeffs`` is a cached {degree:
Fraction} view over those numerators and never holds zeros.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm
from typing import Iterable, Union

RatPolyLike = Union[int, Fraction, "RatPoly"]


class RatPoly:
    """Sparse polynomial over Q in one commuting variable.

    Stored flat, as FLINT's fmpq_poly stores one: ``_num`` maps degree to an
    integer numerator over one positive denominator ``_den``.  The form is
    canonical (no zero numerators, gcd of ``_den`` and all numerators 1), so
    equality is structural, and arithmetic runs on plain integers with one
    gcd at the end.  ``coeffs`` is the {degree: Fraction} view, built on
    first use and cached, so callers must not mutate it.  Immutable.
    """

    __slots__ = ("_num", "_den", "_view")

    def __init__(self, coeffs: dict[int, int | Fraction] | None = None):
        parts = []
        den = 1
        for k, v in (coeffs or {}).items():
            if k < 0:
                raise ValueError("negative degree")
            if not isinstance(v, (int, Fraction)):
                v = Fraction(v)
            if v:
                parts.append((k, v.numerator, v.denominator))
                den = lcm(den, v.denominator)
        # over the lcm of reduced denominators the form is already canonical
        self._init({k: n * (den // d) for k, n, d in parts}, den)

    def _init(self, num: dict[int, int], den: int) -> None:
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_view", None)

    @staticmethod
    def _flat(num: dict[int, int], den: int) -> "RatPoly":
        x = object.__new__(RatPoly)
        x._init(num, den)
        return x

    @staticmethod
    def _canonical(num: dict[int, int], den: int) -> "RatPoly":
        """num / den without zero numerators, in lowest terms."""
        num = {k: v for k, v in num.items() if v}
        g = gcd(den, *num.values())
        if g != 1:
            num = {k: v // g for k, v in num.items()}
            den //= g
        return RatPoly._flat(num, den)

    def _scaled(self, a: int, b: int) -> "RatPoly":
        """self * a/b for a/b in lowest terms, b > 0.

        Canonical without a final gcd: self is canonical and a/b reduced, so
        once gcd(a, _den) and gcd(b, numerators) are divided out no prime
        divides the new denominator and every new numerator.
        """
        if not a:
            return RatPoly._flat({}, 1)
        g1 = gcd(a, self._den)
        g2 = gcd(b, *self._num.values()) if b != 1 else 1
        s = a // g1
        return RatPoly._flat(
            {k: v // g2 * s for k, v in self._num.items()}, self._den // g1 * (b // g2)
        )

    def __setattr__(self, name, value):
        raise AttributeError("RatPoly is immutable")

    @property
    def coeffs(self) -> dict[int, Fraction]:
        if self._view is None:
            den = self._den
            object.__setattr__(self, "_view", {k: Fraction(v, den) for k, v in self._num.items()})
        return self._view

    @staticmethod
    def of(v: RatPolyLike) -> "RatPoly":
        if isinstance(v, RatPoly):
            return v
        return RatPoly({0: v})

    @staticmethod
    def x() -> "RatPoly":
        return RatPoly._flat({1: 1}, 1)

    @staticmethod
    def weighted_sum(pairs: Iterable[tuple[int, "RatPoly"]]) -> "RatPoly":
        """sum of w * P over (w, P) pairs with integer weights w, in one pass:
        one lcm of the denominators, one accumulation, one canonical step."""
        pairs = [(w, p) for w, p in pairs if w]
        # a list, not a generator: star-args built from a generator are
        # resized tuples that pile up in the tuple free list (0.4 MB of peak
        # RSS over the default binomial sweep)
        den = lcm(*[p._den for _, p in pairs])
        out: dict[int, int] = {}
        for w, p in pairs:
            s = w * (den // p._den)
            for k, v in p._num.items():
                out[k] = out.get(k, 0) + s * v
        return RatPoly._canonical(out, den)

    def __add__(self, other):
        other = RatPoly.of(other)
        d1, d2 = self._den, other._den
        den = lcm(d1, d2)
        s1, s2 = den // d1, den // d2
        out = {k: v * s1 for k, v in self._num.items()}
        for k, v in other._num.items():
            out[k] = out.get(k, 0) + v * s2
        return RatPoly._canonical(out, den)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-RatPoly.of(other))

    def __rsub__(self, other):
        return RatPoly.of(other) + (-self)

    def __neg__(self):
        return RatPoly._flat({k: -v for k, v in self._num.items()}, self._den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other.numerator, other.denominator)
        other = RatPoly.of(other)
        out: dict[int, int] = {}
        for k1, v1 in self._num.items():
            for k2, v2 in other._num.items():
                k = k1 + k2
                out[k] = out.get(k, 0) + v1 * v2
        return RatPoly._canonical(out, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = RatPoly._flat({0: 1}, 1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatPoly.of(other)
        if not isinstance(other, RatPoly):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        if self.degree() <= 0:
            # a constant hashes like the Fraction it equals
            return hash(self.coeff(0))
        return hash((self._den, frozenset(self._num.items())))

    def __bool__(self):
        return bool(self._num)

    def degree(self) -> int:
        return max(self._num, default=-1)

    def coeff(self, k: int) -> Fraction:
        return Fraction(self._num.get(k, 0), self._den)

    def __call__(self, v: Fraction | int) -> Fraction:
        # Horner on integers: at v = a/b, b^d P(v) = sum_k num_k a^k b^(d-k) / den
        v = Fraction(v)
        a, b = v.numerator, v.denominator
        d = max(self.degree(), 0)
        acc = 0
        for k in range(d, -1, -1):
            acc = acc * a + self._num.get(k, 0) * b ** (d - k)
        return Fraction(acc, self._den * b**d)

    def compose(self, inner: "RatPoly") -> "RatPoly":
        """Substitute ``inner`` for the variable."""
        inner = RatPoly.of(inner)
        powers = (inner**k for k in self._num)
        return RatPoly.weighted_sum(zip(self._num.values(), powers))._scaled(1, self._den)

    def derivative(self) -> "RatPoly":
        return RatPoly._canonical({k - 1: k * v for k, v in self._num.items() if k}, self._den)

    def antiderivative(self) -> "RatPoly":
        """The antiderivative with zero constant term."""
        m = lcm(*[k + 1 for k in self._num])
        num = {k + 1: v * (m // (k + 1)) for k, v in self._num.items()}
        return RatPoly._canonical(num, self._den * m)

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
