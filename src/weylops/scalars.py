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
The constructor and ``weighted_sum`` sum in one accumulation, whose weights
are ints or Fractions, and for CTerms and Bands also CPolys or Gaussian
rationals, whose parts c^k i^i shift each key's k and i (Bands refuse c).
Every operator, ``==`` included, lifts its operand by one rule, ``of``: a
number, or a CPoly or GaussianRational the class can hold, becomes a
constant (GaussianRational lifts numbers only; a number's constant is built
as it stands), and an operand ``of`` cannot lift gets NotImplemented.  CPoly
and GaussianRational scale by an int or a Fraction without a lift.  Only
int, Fraction and these classes enter the exact algebra: a float or a
string raises TypeError.  All values are immutable (``__reduce__`` copies).
"""

from __future__ import annotations

from fractions import Fraction
from functools import wraps
from math import gcd, lcm
from typing import Iterable, Union

ScalarLike = Union[int, Fraction, "GaussianRational"]


class NonDivisible(ArithmeticError):
    """Exact division by a power of c failed: low-order terms are nonzero."""


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


_set = object.__setattr__  # FlatTerms are immutable: only this sets their fields
# int and Fraction, tested by exact type first: a CPoly or GaussianRational
# tested against Fraction would run ABCMeta's instance check
_RATIONAL = (int, Fraction)


class FlatTerms:
    """Integer numerators ``_num: {key: int}`` over one positive denominator
    ``_den``, as FLINT's fmpq_poly stores a rational polynomial.

    The form is canonical (no zero numerators, gcd of ``_den`` and all
    numerators 1, zero is ``({}, 1)``), so equality is structural.  The
    constructor sums ``{head: number or CPoly}`` in ``_accumulate``, each
    head's key weighted by its value; a subclass says how a head and a part
    c^k i^i make a key (``_key``), and which (k, i) a key of a constant
    stands for (``_scalar_key``, for ``__hash__``).  Immutable.
    """

    __slots__ = ("_num", "_den")
    _unit = 0  # the head of a constant, for ``of``
    __reduce__ = lambda self: (type(self)._flat, (self._num, self._den))  # copy and pickle without setattr

    def __new__(cls, terms: dict | None = None):
        units = []  # (value, {unit key: 1}, 1) per head: the value weights its key
        for h, v in (terms or {}).items():
            if (min(h) if isinstance(h, tuple) else h) < 0:
                raise ValueError(f"negative exponent in {h}")
            units.append((v, {cls._key(h, 0, 0): 1}, 1))
        return cls._accumulate(units)

    @classmethod
    def of(cls, x):
        """x as a value of this class: a number, or a CPoly or GaussianRational
        the class can hold, becomes a constant; TypeError for anything else."""
        if type(x) is int or type(x) is Fraction:  # canonical as it stands
            return cls._flat({cls._key(cls._unit, 0, 0): x.numerator} if x else {}, x.denominator)
        return x if isinstance(x, cls) else cls._accumulate([(x, {cls._key(cls._unit, 0, 0): 1}, 1)])

    @classmethod
    def _flat(cls, num: dict, den: int):
        x = object.__new__(cls)
        _set(x, "_num", num)
        _set(x, "_den", den)
        return x

    @classmethod
    def _canonical(cls, num: dict, den: int):
        """num / den without zero numerators, in lowest terms (it may keep num)."""
        if 0 in num.values():
            num = {key: n for key, n in num.items() if n}
        g = gcd(den, *num.values())
        if g != 1:
            num = {key: n // g for key, n in num.items()}
            den //= g
        return cls._flat(num, den)

    @classmethod
    def weighted_sum(cls, pairs: Iterable[tuple[CPolyLike, "FlatTerms"]]):
        """sum of w * x over (w, x) pairs in one pass: see ``_accumulate``."""
        return cls._accumulate([(w, x._num, x._den) for w, x in pairs])

    @classmethod
    def _accumulate(cls, triples: Iterable[tuple[CPolyLike, dict, int]]):
        """sum of w * num / den over (w, num, den) triples, for the
        constructor and ``weighted_sum`` alike: one lcm, one accumulation, one
        canonical step.  A weight is an int, a Fraction, a GaussianRational or
        a CPoly; each part c^k i^i n/d of it raises the power of c of every
        key of num by k and multiplies its i by i^i.  CTerms take c and i,
        Bands only i: the others refuse them with TypeError."""
        terms = []  # (num, k, i, n, d * den) per part c^k i^i n/d of a weight
        for w, num, den in triples:
            if type(w) is int:  # the common case, without a call
                if w:
                    terms.append((num, 0, 0, w, den))
            elif type(w) is Fraction or not isinstance(w, FlatTerms) and isinstance(w, _RATIONAL):
                terms.append((num, 0, 0, w.numerator, w.denominator * den))
            elif isinstance(w, (CPoly, GaussianRational)):
                for (k, i), n in w._num.items():
                    if k or i:
                        cls._key(cls._unit, k, i)  # raises where a key cannot hold c^k i^i
                    terms.append((num, k, i, n, w._den * den))
            else:
                # the type only: _lifting swallows this error, and rendering a
                # large operand would cost more than the product it falls back to
                raise TypeError(f"not an exact scalar: {type(w).__name__}")
        # a list, not a generator: star-args built from a generator are
        # resized tuples that pile up in the tuple free list (0.4 MB of peak
        # RSS over the default binomial sweep)
        den = lcm(*[e for _, _, _, _, e in terms])
        out: dict = {}
        get = out.get
        for num, k, i, n, e in terms:
            s = n * (den // e)
            if k or i:
                sign = (s, -s) if i else (s, s)  # by the key's i: i^2 = -1
                for key, m in num.items():
                    j = key[-1]
                    key = key[:-2] + (key[-2] + k, j ^ i)
                    out[key] = get(key, 0) + sign[j] * m
            else:
                for key, m in num.items():
                    out[key] = get(key, 0) + s * m
        return cls._canonical(out, den)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @_lifting
    def __add__(self, other):
        return self.weighted_sum([(1, self), (1, other)])

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


def _ki_mul(self, other):
    """The product of two (k, i) stores, CPoly's or GaussianRational's; an int
    or a Fraction (exact types) scales the numerators and the denominator."""
    if type(other) is int or type(other) is Fraction:
        num = {key: m * other.numerator for key, m in self._num.items()}
        return self._canonical(num, self._den * other.denominator)
    try:
        other = self.of(other)
    except TypeError:
        return NotImplemented
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

    def __new__(cls, re: int | Fraction = 0, im: int | Fraction = 0):
        return super().__new__(cls, {0: re, 1: im})

    @staticmethod
    def _key(i: int, k: int, j: int) -> tuple[int, int]:
        if k or j:
            raise TypeError("the parts of a GaussianRational must be rational")
        return (0, i)

    @classmethod
    def of(cls, x: ScalarLike) -> "GaussianRational":
        if not isinstance(x, (GaussianRational, int, Fraction)):
            raise TypeError(f"cannot lift a {type(x).__name__} to a GaussianRational")
        return super().of(x)

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
            return str(self.re)
        imag = f"{abs(self.im)}*i"
        if not self.re:
            return imag if self.im > 0 else f"-{imag}"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{imag}"

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

