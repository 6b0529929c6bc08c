"""Exact scalar arithmetic: Gaussian rationals and polynomials in c.

The coefficient tower used everywhere in this package is

    Rational          -- fractions.Fraction (arbitrary precision, lowest terms)
    GaussianRational  -- a + b*i with rational a, b
    CPoly             -- sparse polynomial in the central symbol c over
                         GaussianRational

CPoly is the coefficient ring of the operator algebra: normal ordering of
products injects powers of c, and keeping c formal means an identity checked
once holds for every numeric specialization of c simultaneously.

All values are immutable and kept in canonical form (fractions in lowest
terms, no stored zero coefficients), so equality is plain structural
equality.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from typing import Union

Rational = Fraction

ScalarLike = Union[int, Fraction, "GaussianRational"]


class NonDivisible(ArithmeticError):
    """Exact division by a power of c failed: low-order terms are nonzero."""


def format_rational(x: Fraction) -> str:
    """Render as "num/den", omitting a denominator of 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


def parse_rational(text: str) -> Fraction:
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(int(m.group(1)), int(m.group(2)) if m.group(2) else 1)


class GaussianRational:
    """Exact complex number a + b*i with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def of(x: ScalarLike) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        return GaussianRational(x)

    def __add__(self, other):
        other = GaussianRational.of(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = GaussianRational.of(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return GaussianRational.of(other) - self

    def __mul__(self, other):
        other = GaussianRational.of(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm(self) -> Fraction:
        """Field norm a^2 + b^2 (multiplicative)."""
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussianRational":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of 0 in Q(i)")
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * GaussianRational.of(other).inverse()

    def __rtruediv__(self, other):
        return GaussianRational.of(other) * self.inverse()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # a real value hashes like the Fraction it equals
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def as_rational(self) -> Fraction:
        if self.im:
            raise ValueError(f"{self} has a nonzero imaginary part")
        return self.re

    def __str__(self):
        if not self.im:
            return format_rational(self.re)
        imag = f"{format_rational(abs(self.im))}*i"
        if not self.re:
            return imag if self.im > 0 else f"-{imag}"
        sign = "+" if self.im > 0 else "-"
        return f"{format_rational(self.re)}{sign}{imag}"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
MINUS_I = GaussianRational(0, -1)

_GAUSS_BOTH_RE = re.compile(r"^([+-]?\d+(?:/\d+)?)([+-]\d+(?:/\d+)?)\*i$")
_GAUSS_IMAG_RE = re.compile(r"^([+-]?\d+(?:/\d+)?)\*i$")


def parse_gaussian(text: str) -> GaussianRational:
    """Parse the rendering grammar: "a", "b*i" or "a+b*i" (also "a-b*i")."""
    s = text.strip().replace(" ", "")
    m = _GAUSS_BOTH_RE.match(s)
    if m:
        return GaussianRational(parse_rational(m.group(1)), parse_rational(m.group(2)))
    m = _GAUSS_IMAG_RE.match(s)
    if m:
        return GaussianRational(0, parse_rational(m.group(1)))
    return GaussianRational(parse_rational(s))


CPolyLike = Union[int, Fraction, GaussianRational, "CPoly"]


class CPoly:
    """Sparse polynomial in the commutation symbol c over GaussianRational.

    Canonical form: the coefficient map never stores zeros, so equality is
    map equality.  Instances are immutable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, ScalarLike] | None = None):
        clean: dict[int, GaussianRational] = {}
        if coeffs:
            for k, v in coeffs.items():
                if k < 0:
                    raise ValueError("negative power of c")
                g = GaussianRational.of(v)
                if g:
                    clean[k] = g
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("CPoly is immutable")

    @staticmethod
    def of(x: CPolyLike) -> "CPoly":
        if isinstance(x, CPoly):
            return x
        return CPoly({0: GaussianRational.of(x)})

    @staticmethod
    def c_power(k: int, coeff: ScalarLike = 1) -> "CPoly":
        """The monomial coeff * c^k."""
        return CPoly({k: coeff})

    def __add__(self, other):
        other = CPoly.of(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, ZERO) + v
        return CPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-CPoly.of(other))

    def __rsub__(self, other):
        return CPoly.of(other) + (-self)

    def __neg__(self):
        return CPoly({k: -v for k, v in self.coeffs.items()})

    def __mul__(self, other):
        other = CPoly.of(other)
        out: dict[int, GaussianRational] = {}
        for k1, v1 in self.coeffs.items():
            for k2, v2 in other.coeffs.items():
                k = k1 + k2
                out[k] = out.get(k, ZERO) + v1 * v2
        return CPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = CPoly.of(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = CPoly.of(other)
        if not isinstance(other, CPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        if self.degree() <= 0:
            # a constant hashes like the scalar it equals
            return hash(self.constant_term())
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self):
        return bool(self.coeffs)

    def degree(self) -> int:
        """Degree in c; -1 for the zero polynomial."""
        return max(self.coeffs, default=-1)

    def subst(self, v: ScalarLike) -> GaussianRational:
        """Evaluate at c = v.  A ring homomorphism CPoly -> Q(i)."""
        v = GaussianRational.of(v)
        acc = ZERO
        for k, coeff in self.coeffs.items():
            term = coeff
            for _ in range(k):
                term = term * v
            acc = acc + term
        return acc

    def div_c(self, k: int = 1) -> "CPoly":
        """Exact division by c^k; raises NonDivisible if low-order terms remain."""
        low = [d for d in self.coeffs if d < k]
        if low:
            raise NonDivisible(f"{self} is not divisible by c^{k}")
        return CPoly({d - k: v for d, v in self.coeffs.items()})

    def constant_term(self) -> GaussianRational:
        return self.coeffs.get(0, ZERO)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs):
            g = self.coeffs[k]
            if k == 0:
                parts.append(f"({g})" if g.im else str(g))
            else:
                mono = "c" if k == 1 else f"c^{k}"
                if g == ONE:
                    parts.append(mono)
                else:
                    tok = f"({g})" if g.im else str(g)
                    parts.append(f"{tok}*{mono}")
        return " + ".join(parts)

    def __repr__(self):
        return f"CPoly({{{', '.join(f'{k}: {v}' for k, v in sorted(self.coeffs.items()))}}})"


_CPOLY_TERM_RE = re.compile(
    r"^(?:(?P<coeff>\((?P<inner>[^)]*)\)|[+-]?\d+(?:/\d+)?)(?:\*(?P<mono1>c(?:\^\d+)?))?"
    r"|(?P<mono2>c(?:\^\d+)?))$"
)


def parse_cpoly(text: str) -> CPoly:
    """Parse the rendering grammar of CPoly (terms joined by " + ")."""
    s = text.strip()
    if s == "0":
        return CPoly()
    out: dict[int, GaussianRational] = {}
    for term in s.split(" + "):
        m = _CPOLY_TERM_RE.match(term.strip().replace(" ", ""))
        if m is None:
            raise ValueError(f"bad CPoly term: {term!r}")
        if m.group("mono2"):
            coeff = ONE
            mono = m.group("mono2")
        else:
            raw = m.group("inner") if m.group("inner") is not None else m.group("coeff")
            coeff = parse_gaussian(raw)
            mono = m.group("mono1")
        k = 0
        if mono:
            k = 1 if mono == "c" else int(mono.split("^")[1])
        out[k] = out.get(k, ZERO) + coeff
    return CPoly(out)


class FlatTerms:
    """A map {key: CPoly} stored flat, as FLINT's fmpq_poly stores a
    rational polynomial.

    ``_num`` maps (*key, k) to the integer pair (re, im) of the coefficient
    of c^k, all over one positive denominator ``_den``.  The form is
    canonical (no zero pairs, gcd of ``_den`` and all numerators 1), so
    equality is structural, and arithmetic runs on plain integers with one
    gcd at the end.  ``_cpolys()`` is the {head: CPoly} view, built on first
    use and cached, so callers must not mutate it.  Immutable; WeylElement
    and XPoly store their coefficients this way.
    """

    __slots__ = ("_num", "_den", "_view")
    _head = itemgetter(0)  # the view's key for a flat key

    def __init__(self, terms: dict[tuple, CPolyLike] | None = None):
        parts = []
        den = 1
        for key, v in (terms or {}).items():
            if min(key) < 0:
                raise ValueError(f"negative exponent in {key}")
            for k, g in CPoly.of(v).coeffs.items():
                parts.append(((*key, k), g.re, g.im))
                den = lcm(den, g.re.denominator, g.im.denominator)
        # over the lcm of reduced denominators the form is already canonical
        num = {
            key: (re_.numerator * (den // re_.denominator), im.numerator * (den // im.denominator))
            for key, re_, im in parts
        }
        self._init(num, den)

    def _init(self, num: dict[tuple, tuple[int, int]], den: int) -> None:
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_view", None)

    @classmethod
    def _flat(cls, num: dict[tuple, tuple[int, int]], den: int):
        x = object.__new__(cls)
        x._init(num, den)
        return x

    @classmethod
    def _canonical(cls, num: dict[tuple, tuple[int, int]], den: int):
        """num / den without zero pairs, in lowest terms."""
        num = {key: pair for key, pair in num.items() if pair[0] or pair[1]}
        g = den
        for re_, im in num.values():
            if g == 1:
                break
            g = gcd(g, re_, im)
        if g != 1:
            num = {key: (re_ // g, im // g) for key, (re_, im) in num.items()}
            den //= g
        return cls._flat(num, den)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _add(self, other):
        d1, d2 = self._den, other._den
        den = lcm(d1, d2)
        s1, s2 = den // d1, den // d2
        out = {key: (re_ * s1, im * s1) for key, (re_, im) in self._num.items()}
        for key, (re_, im) in other._num.items():
            r0, i0 = out.get(key, (0, 0))
            out[key] = (r0 + re_ * s2, i0 + im * s2)
        return self._canonical(out, den)

    def __neg__(self):
        return self._flat({key: (-re_, -im) for key, (re_, im) in self._num.items()}, self._den)

    def __bool__(self):
        return bool(self._num)

    def _cpolys(self) -> dict:
        if self._view is None:
            den, head = self._den, self._head
            grouped: dict = {}
            for key, (re_, im) in self._num.items():
                grouped.setdefault(head(key), {})[key[-1]] = GaussianRational(
                    Fraction(re_, den), Fraction(im, den)
                )
            object.__setattr__(self, "_view", {h: CPoly(c) for h, c in grouped.items()})
        return self._view

    def _render(self, mono) -> str:
        """The view's "(coeff) * mono" terms in key order, joined by " + "."""
        view = self._cpolys()
        parts = []
        for key in sorted(view):
            m = mono(key)
            parts.append(f"({view[key]}) * {m}" if m else f"({view[key]})")
        return " + ".join(parts) or "0"
