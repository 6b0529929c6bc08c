"""Test references that stay independent of the flat coefficient core.

``RefGaussian`` is the Fraction-pair complex number that
``weylops.GaussianRational`` used to be, and ``RefCPoly`` the Fraction-dict
polynomial in c over it that ``weylops.CPoly`` used to be.  The parity tests
compare the flat classes against them, and the engine's and the
realization's tower references compute their coefficients with them, so none
of them runs on the code under test.  Values cross over only at the
boundary: ``RefGaussian.of`` reads a GaussianRational's ``re`` and ``im``,
``RefCPoly.of_cpoly`` reads a CPoly's ``coeffs`` and ``to_cpoly`` builds
one.  ``rationals_within`` is the strategy of bounded rationals that the
property tests draw their scalars from.
"""

from fractions import Fraction
from functools import cache, partial
from math import gcd

from hypothesis import strategies as st

from weylops import CPoly, GaussianRational


class RefGaussian:
    """Reference: exact complex number a + b*i as a pair of Fractions."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("RefGaussian is immutable")

    @staticmethod
    def of(x):
        if isinstance(x, RefGaussian):
            return x
        if isinstance(x, GaussianRational):
            return RefGaussian(x.re, x.im)
        if isinstance(x, (int, Fraction)):
            return RefGaussian(x)
        raise TypeError(f"not an exact scalar: {x!r}")

    def to_gaussian(self) -> GaussianRational:
        return GaussianRational(self.re, self.im)

    def __add__(self, other):
        other = RefGaussian.of(other)
        return RefGaussian(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = RefGaussian.of(other)
        return RefGaussian(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return RefGaussian.of(other) - self

    def __mul__(self, other):
        other = RefGaussian.of(other)
        return RefGaussian(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return RefGaussian(-self.re, -self.im)

    def __eq__(self, other):
        try:
            other = RefGaussian.of(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # a real value hashes like the Fraction it equals
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    @property
    def is_real(self):
        return self.im == 0

    def as_rational(self):
        if self.im:
            raise ValueError(f"{self} has a nonzero imaginary part")
        return self.re

    def __str__(self):
        # str(Fraction) omits a denominator of 1, as the rendering grammar does
        if not self.im:
            return str(self.re)
        imag = f"{abs(self.im)}*i"
        if not self.re:
            return imag if self.im > 0 else f"-{imag}"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{imag}"


ZERO = RefGaussian(0)
ONE = RefGaussian(1)


class RefCPoly:
    """Reference: sparse polynomial in c over RefGaussian, as a dict."""

    def __init__(self, coeffs=None):
        clean = {}
        for k, v in (coeffs or {}).items():
            if k < 0:
                raise ValueError("negative power of c")
            g = RefGaussian.of(v)
            if g:
                clean[k] = g
        self.coeffs = clean

    @staticmethod
    def of(x):
        return x if isinstance(x, RefCPoly) else RefCPoly({0: RefGaussian.of(x)})

    @staticmethod
    def c_power(k, coeff=1):
        return RefCPoly({k: coeff})

    @staticmethod
    def of_cpoly(cp: CPoly) -> "RefCPoly":
        return RefCPoly(cp.coeffs)

    def to_cpoly(self) -> CPoly:
        return CPoly({k: g.to_gaussian() for k, g in self.coeffs.items()})

    def __add__(self, other):
        other = RefCPoly.of(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, ZERO) + v
        return RefCPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-RefCPoly.of(other))

    def __rsub__(self, other):
        return RefCPoly.of(other) + (-self)

    def __neg__(self):
        return RefCPoly({k: -v for k, v in self.coeffs.items()})

    def __mul__(self, other):
        other = RefCPoly.of(other)
        out = {}
        for k1, v1 in self.coeffs.items():
            for k2, v2 in other.coeffs.items():
                out[k1 + k2] = out.get(k1 + k2, ZERO) + v1 * v2
        return RefCPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        out = RefCPoly.of(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, RefCPoly):
            other = RefCPoly.of(other)
        return self.coeffs == other.coeffs

    def __hash__(self):
        if self.degree() <= 0:
            return hash(self.constant_term())
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self):
        return bool(self.coeffs)

    def degree(self):
        return max(self.coeffs, default=-1)

    def subst(self, v):
        v = RefGaussian.of(v)
        acc = ZERO
        for k, coeff in self.coeffs.items():
            term = coeff
            for _ in range(k):
                term = term * v
            acc = acc + term
        return acc

    def div_c(self, k=1):
        if any(d < k for d in self.coeffs):
            raise ArithmeticError(f"not divisible by c^{k}")
        return RefCPoly({d - k: v for d, v in self.coeffs.items()})

    def constant_term(self):
        return self.coeffs.get(0, ZERO)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs):
            g = self.coeffs[k]
            tok = f"({g})" if g.im else str(g)
            if k == 0:
                parts.append(tok)
            else:
                mono = "c" if k == 1 else f"c^{k}"
                parts.append(mono if g == ONE else f"{tok}*{mono}")
        return " + ".join(parts)


def is_canonical(value) -> bool:
    """The flat layout: int numerators, none zero, over a positive
    denominator that shares no factor with all of them; zero is ({}, 1);
    the last key component, where the keys are tuples, is an i bit."""
    nums = list(value._num.values())
    return (
        value._den > 0
        and all(type(n) is int and n for n in nums)
        and gcd(value._den, *nums) == 1
        and (bool(nums) or value._den == 1)
        and all(key[-1] in (0, 1) for key in value._num if isinstance(key, tuple))
    )


def rationals_within(bound: int, max_den: int):
    """The values of st.fractions(-bound, bound, max_denominator=max_den),
    drawn as Fraction(n, d) from integers, which is cheaper.  d is drawn
    first and n within bound * d, so no draw is filtered out."""
    return st.integers(1, max_den).flatmap(partial(_over, bound))


@cache
def _over(bound: int, d: int):
    """n/d for |n| <= bound * d; built once per d, since a strategy built
    afresh at every draw would cost more than the filter it saves."""
    return st.integers(-bound * d, bound * d).map(lambda n: Fraction(n, d))
