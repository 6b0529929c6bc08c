"""Exact scalars, and the one flat store behind every exact value.

The identities live over Q(i)[c]: polynomials in the central symbol c with
Gaussian-rational coefficients.  Normal ordering of products injects powers
of c, and keeping c formal means an identity checked once holds for every
numeric specialization of c simultaneously.

Every exact value of the package is stored the way FLINT's fmpq_poly stores
a rational polynomial: one map ``key -> int`` of integer numerators over one
positive denominator, in lowest terms (``FlatTerms``).  For values over
Q(i)[c] a key ends in (k, i): the power of c and the power (0 or 1) of the
imaginary unit, and every product applies i^2 = -1.  The keys are

    GaussianRational        (0, i)        i^i
    CPoly                   (k, i)        c^k i^i
    weyl.WeylElement        (a, b, k, i)  c^k i^i q^a p^b
    realization.XPoly       (deg, k, i)   c^k i^i x^deg
    sequences.RatPoly       deg           x^deg (rational, no c)
    oscillator.Bands        (j, d, i)     i^i l^d in the band at shift j (no c)

so arithmetic runs on plain integers with one gcd at the end, and equality
is structural.  GaussianRational and CPoly share one product kernel.  CPoly
and the next two share ``CTerms``, what keys ending in (k, i) allow:
division by c (``div_c``), setting c to a number and the coefficient views.
``weighted_sum`` forms every linear combination in one pass: its weights are
ints or Fractions, and for CTerms and Bands also CPolys or GaussianRationals,
whose parts c^k i^i shift each key's k and i (a Bands refuses c).
Every operator, ``==`` included, lifts its operand by one rule, ``of``: a
number, or a CPoly or GaussianRational the class can hold, becomes a
constant (GaussianRational lifts numbers only), and an operand ``of`` cannot
lift gets NotImplemented.  Only int, Fraction and these classes enter the
exact algebra: a float or a string raises TypeError.  All values are immutable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import wraps
from math import gcd, lcm
from typing import Iterable, Union

ScalarLike = Union[int, Fraction, "GaussianRational"]


class NonDivisible(ArithmeticError):
    """Exact division by a power of c failed: low-order terms are nonzero."""


def format_rational(x: Fraction) -> str:
    """Render as "num/den", omitting a denominator of 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _lifting(op):
    """``op`` on its operand lifted by the class's ``of``, or NotImplemented if
    ``of`` cannot lift it, so that Python asks the operand's reflected method."""

    @wraps(op)
    def method(self, other):
        try:
            other = self.of(other)
        except TypeError:
            return NotImplemented
        return op(self, other)

    return method


CPolyLike = Union[int, Fraction, "GaussianRational", "CPoly"]


def _parts(v: CPolyLike) -> list[tuple[int, int, int, int]]:
    """(k, i, numerator, denominator) of each part c^k i^i n/d of v."""
    if isinstance(v, (CPoly, GaussianRational)):
        return [(k, i, n, v._den) for (k, i), n in v._num.items()]
    # the type only: _lifting swallows this error, and rendering a large
    # operand would cost more than the product it falls back to
    raise TypeError(f"not an exact scalar: {type(v).__name__}")


_set = object.__setattr__  # FlatTerms are immutable: only this sets their fields


class FlatTerms:
    """Integer numerators ``_num: {key: int}`` over one positive denominator
    ``_den``, as FLINT's fmpq_poly stores a rational polynomial.

    The form is canonical (no zero numerators, gcd of ``_den`` and all
    numerators 1, zero is ``({}, 1)``), so equality is structural.  The
    constructor takes ``{head: number or CPoly}`` and each subclass says how
    a head and a part c^k i^i make a key (``_key``), and which (k, i) a key
    of a constant stands for (``_scalar_key``, for ``__hash__``).  Immutable.
    """

    __slots__ = ("_num", "_den")
    _unit = 0  # the head of a constant, for ``of``

    def __init__(self, terms: dict | None = None):
        parts = []
        make_key = self._key
        for h, v in (terms or {}).items():
            if (min(h) if isinstance(h, tuple) else h) < 0:
                raise ValueError(f"negative exponent in {h}")
            if isinstance(v, (int, Fraction)):  # the common case, without a call
                if v:
                    parts.append((make_key(h, 0, 0), v.numerator, v.denominator))
            else:
                parts += [(make_key(h, k, i), n, d) for k, i, n, d in _parts(v)]
        den = lcm(*[d for _, _, d in parts])
        # canonical as it stands, since the parts of each value are in lowest
        # terms over its denominator, unless two parts share a key
        num = {key: n * (den // d) for key, n, d in parts}
        if len(num) < len(parts):
            num = {}
            for key, n, d in parts:
                num[key] = num.get(key, 0) + n * (den // d)
            canon = self._canonical(num, den)
            num, den = canon._num, canon._den
        _set(self, "_num", num)
        _set(self, "_den", den)

    @classmethod
    def of(cls, x):
        """x as a value of this class: a number, or a CPoly or GaussianRational
        the class can hold, becomes a constant; TypeError for anything else."""
        return x if isinstance(x, cls) else cls({cls._unit: x})

    @classmethod
    def _flat(cls, num: dict, den: int):
        x = object.__new__(cls)
        _set(x, "_num", num)
        _set(x, "_den", den)
        return x

    @classmethod
    def _canonical(cls, num: dict, den: int):
        """num / den without zero numerators, in lowest terms."""
        num = {key: n for key, n in num.items() if n}
        g = gcd(den, *num.values())
        if g != 1:
            num = {key: n // g for key, n in num.items()}
            den //= g
        return cls._flat(num, den)

    @classmethod
    def weighted_sum(cls, pairs: Iterable[tuple[CPolyLike, "FlatTerms"]]):
        """sum of w * x over (w, x) pairs in one pass: one lcm, one
        accumulation, one canonical step.  A weight is an int, a Fraction, a
        GaussianRational or a CPoly; each part c^k i^i n/d of it raises the
        power of c of every key of x by k and multiplies its i by i^i.  CTerms
        take c and i, Bands only i: the others refuse them with TypeError, as
        their constructors do."""
        terms = []  # (x's numerators, k, i, n, d * x's denominator) per part c^k i^i n/d
        for w, x in pairs:
            if type(w) is int:  # the common case, without a call
                if w:
                    terms.append((x._num, 0, 0, w, x._den))
            elif isinstance(w, (int, Fraction)):
                terms.append((x._num, 0, 0, w.numerator, w.denominator * x._den))
            else:
                for k, i, n, d in _parts(w):
                    cls._key(cls._unit, k, i)  # raises where a key cannot hold c^k i^i
                    terms.append((x._num, k, i, n, d * x._den))
        # a list, not a generator: star-args built from a generator are
        # resized tuples that pile up in the tuple free list (0.4 MB of peak
        # RSS over the default binomial sweep)
        den = lcm(*[e for _, _, _, _, e in terms])
        out: dict = {}
        for num, k, i, n, e in terms:
            s = n * (den // e)
            if k or i:
                for key, m in num.items():
                    j = key[-1]
                    key = (*key[:-2], key[-2] + k, j ^ i)
                    out[key] = out.get(key, 0) + (-s * m if j & i else s * m)
            else:
                for key, m in num.items():
                    out[key] = out.get(key, 0) + s * m
        return cls._canonical(out, den)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @_lifting
    def __add__(self, other):
        d1, d2 = self._den, other._den
        den = lcm(d1, d2)
        s1, s2 = den // d1, den // d2
        out = {key: n * s1 for key, n in self._num.items()}
        for key, n in other._num.items():
            out[key] = out.get(key, 0) + n * s2
        return self._canonical(out, den)

    __radd__ = __add__

    @_lifting
    def __sub__(self, other):
        return self.weighted_sum([(1, self), (-1, other)])

    @_lifting
    def __rsub__(self, other):
        return self.weighted_sum([(1, other), (-1, self)])

    def __neg__(self):
        return self._flat({key: -n for key, n in self._num.items()}, self._den)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = self.of(1)
        for _ in range(n):
            out = out * self
        return out

    @_lifting
    def __eq__(self, other):
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        # a value equal to a CPoly hashes like it, and a constant like the
        # number it equals, whatever the class
        scalar = {self._scalar_key(key): n for key, n in self._num.items()}
        if None in scalar:
            return hash((self._den, frozenset(self._num.items())))
        if any(k for k, _ in scalar):
            return hash((self._den, frozenset(scalar.items())))
        re, im = (Fraction(scalar.get((0, i), 0), self._den) for i in (0, 1))
        return hash((re, im)) if im else hash(re)

    def __bool__(self):
        return bool(self._num)


@_lifting
def _ki_mul(self, other):
    """The product of two (k, i) stores, CPoly's or GaussianRational's."""
    right = list(other._num.items())
    out: dict[tuple[int, int], int] = {}
    for (k1, i1), n1 in self._num.items():
        for (k2, i2), n2 in right:
            key = (k1 + k2, i1 ^ i2)
            out[key] = out.get(key, 0) + (-n1 * n2 if i1 & i2 else n1 * n2)
    return self._canonical(out, self._den * other._den)


class GaussianRational(FlatTerms):
    """Exact complex number a + b*i with rational real and imaginary parts:
    the degree-0 case of CPoly's store, under keys (0, i), with Fraction
    views ``re`` and ``im``.  Immutable.
    """

    __slots__ = ()
    _scalar_key = staticmethod(lambda key: key)
    # perfbench's tracer counts these through the class's own __dict__
    __add__ = __radd__ = FlatTerms.__add__
    __mul__ = __rmul__ = _ki_mul

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        super().__init__({0: re, 1: im})

    @staticmethod
    def _key(i: int, k: int, j: int) -> tuple[int, int]:
        if k or j:
            raise TypeError("the parts of a GaussianRational must be rational")
        return (0, i)

    @staticmethod
    def of(x: ScalarLike) -> "GaussianRational":
        if not isinstance(x, (GaussianRational, int, Fraction)):
            raise TypeError(f"cannot lift a {type(x).__name__} to a GaussianRational")
        return x if isinstance(x, GaussianRational) else GaussianRational(x)

    re = property(lambda self: Fraction(self._num.get((0, 0), 0), self._den))
    im = property(lambda self: Fraction(self._num.get((0, 1), 0), self._den))

    @property
    def is_real(self) -> bool:
        return (0, 1) not in self._num

    def as_rational(self) -> Fraction:
        if not self.is_real:
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

class CTerms(FlatTerms):
    """FlatTerms over Q(i)[c], whose keys end in (k, i): what CPoly,
    WeylElement and XPoly share beyond the core, and a RatPoly lacks."""

    __slots__ = ()
    _key = staticmethod(lambda head, k, i: (*head, k, i))

    @staticmethod
    def _scalar_key(key):
        """The (k, i) of a key without q, p or x; None for any other key."""
        return None if any(key[:-2]) else key[-2:]

    def div_c(self, k: int = 1):
        """Exact division by c^k; raises NonDivisible if lower powers remain."""
        if k < 0:
            raise ValueError("negative power")
        if any(key[-2] < k for key in self._num):
            raise NonDivisible(f"{self} is not divisible by c^{k}")
        num = {(*key[:-2], key[-2] - k, key[-1]): n for key, n in self._num.items()}
        return self._flat(num, self._den)

    def _at_c(self, v: ScalarLike):
        """self at c = v: the sum of v^k times the part of self in c^k, with
        every k set to 0, and one product per power of v."""
        at = CPoly.of(v)
        if at.degree() > 0:
            raise ValueError(f"c can only be set to a number, not {at}")
        by_k: dict = {}
        for key, n in self._num.items():
            by_k.setdefault(key[-2], {})[(*key[:-2], 0, key[-1])] = n
        powers = [CPoly.of(1)]
        for _ in range(max(by_k, default=0)):
            powers.append(powers[-1] * at)
        return self.weighted_sum((powers[k], self._flat(num, self._den)) for k, num in by_k.items())

    def _grouped(self, split, part) -> dict:
        """A new {head: coefficient} dict on each call, so no caller can
        change self through it; ``split(key)`` is the head and the key in the
        ``part`` coefficient."""
        grouped: dict = {}
        for key, n in self._num.items():
            head, rest = split(key)
            grouped.setdefault(head, {})[rest] = n
        return {head: part._canonical(num, self._den) for head, num in grouped.items()}

    def _render(self, view: dict, mono) -> str:
        """The view's "(coeff) * mono" terms in key order, joined by " + "."""
        parts = []
        for key in sorted(view):
            m = mono(key)
            parts.append(f"({view[key]}) * {m}" if m else f"({view[key]})")
        return " + ".join(parts) or "0"


class CPoly(CTerms):
    """Sparse polynomial in the commutation symbol c over the Gaussian
    rationals: the empty-head case of FlatTerms, under keys (k, i).

    ``CPoly({k: number})``; ``coeffs`` is the {k: GaussianRational} view,
    a new dict on each read.
    """

    __slots__ = ()
    _key = staticmethod(lambda k0, k, i: (k0 + k, i))
    # perfbench's tracer wraps these through the class's own __dict__
    __add__ = __radd__ = FlatTerms.__add__
    __mul__ = __rmul__ = _ki_mul

    @staticmethod
    def c_power(k: int, coeff: ScalarLike = 1) -> "CPoly":
        """The monomial coeff * c^k."""
        return CPoly({k: coeff})

    @property
    def coeffs(self) -> dict[int, GaussianRational]:
        """{k: coefficient of c^k}, without zero coefficients."""
        return self._grouped(lambda key: (key[0], (0, key[1])), GaussianRational)

    def degree(self) -> int:
        """Degree in c; -1 for the zero polynomial."""
        return max((k for k, _ in self._num), default=-1)

    def subst(self, v: ScalarLike) -> GaussianRational:
        """Evaluate at c = v.  A ring homomorphism CPoly -> Q(i)."""
        at_c = self._at_c(v)  # keys (0, i), as a GaussianRational's
        return GaussianRational._flat(at_c._num, at_c._den)

    def constant_term(self) -> GaussianRational:
        return self.coeffs.get(0, ZERO)

    def __str__(self):
        parts = []
        for k, g in sorted(self.coeffs.items()):
            tok = str(g) if g.is_real else f"({g})"
            if k == 0:
                parts.append(tok)
            else:
                mono = "c" if k == 1 else f"c^{k}"
                parts.append(mono if g == ONE else f"{tok}*{mono}")
        return " + ".join(parts) or "0"

    def __repr__(self):
        return f"CPoly({{{', '.join(f'{k}: {v}' for k, v in sorted(self.coeffs.items()))}}})"

