"""Test references that stay independent of the flat coefficient core.

``RefCPoly`` is the Fraction-dict polynomial in c over GaussianRational that
``weylops.CPoly`` used to be.  The parity tests compare the flat CPoly
against it, and the engine's and the realization's tower references compute
their coefficients with it, so none of them runs on the code under test.
"""

from math import gcd

from weylops import CPoly, GaussianRational

ZERO = GaussianRational(0)
ONE = GaussianRational(1)


class RefCPoly:
    """Reference: sparse polynomial in c over GaussianRational, as a dict."""

    def __init__(self, coeffs=None):
        clean = {}
        for k, v in (coeffs or {}).items():
            if k < 0:
                raise ValueError("negative power of c")
            g = GaussianRational.of(v)
            if g:
                clean[k] = g
        self.coeffs = clean

    @staticmethod
    def of(x):
        return x if isinstance(x, RefCPoly) else RefCPoly({0: GaussianRational.of(x)})

    @staticmethod
    def c_power(k, coeff=1):
        return RefCPoly({k: coeff})

    @staticmethod
    def of_cpoly(cp: CPoly) -> "RefCPoly":
        return RefCPoly(cp.coeffs)

    def to_cpoly(self) -> CPoly:
        return CPoly(self.coeffs)

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
        v = GaussianRational.of(v)
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
