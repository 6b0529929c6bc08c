"""Exact normal-ordered calculus for two operators with  p q - q p = c.

Elements are finite sums  sum  coeff(a,b) * q^a p^b  with coefficients in
CPoly (polynomials in the central symbol c over the Gaussian rationals).
Normal order keeps every q to the left of every p; products are reduced
with the single rewrite rule

    p^b q^a = sum_k  k! C(b,k) C(a,k) c^k  q^(a-k) p^(b-k),

which follows from p q = q p + c by induction (``contraction_weights``
holds the weights).

An element is stored flat (``scalars.FlatTerms``), the way FLINT's fmpq_poly
stores a rational polynomial: integer numerators of the coefficients of
c^k q^a p^b over one positive denominator shared by the whole element.
Products, sums and ``subst_c`` run on plain integers and reduce by a single
gcd at the end, so no Fraction is built on the hot path; ``terms`` is the
{(a, b): CPoly} view that rendering and the realizations read.  Since c
stays formal, an identity established here holds for every numeric value of
c at once; ``subst_c`` specializes when a statement is only true at a
particular value (the harmonic-oscillator conventions use c = -i, where
q p - p q = i).

Bracket conventions:

    commutator        [x, y]   = x y - y x
    anticommutator    {x, y}   = x y + y x
    nested, right     [x, y]_n = [[x, y]_(n-1), y],   [x, y]_0 = x
                      {x, y}_n = {{x, y}_(n-1), y},   {x, y}_0 = x
    nested, left      ad_power(x, w, n) = [x, [x, ... [x, w]]]

``exp_conjugate(x, w)`` sums the Hadamard series  e^x w e^-x =
sum ad_power(x, w, n) / n!  and is exact whenever ad_x is nilpotent on w;
otherwise it raises NonTerminatingSeries.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from operator import itemgetter
from typing import Iterable, Union

from .scalars import CPoly, CPolyLike, FlatTerms, GaussianRational, NonDivisible, parse_cpoly
from .sequences import RatPoly

Key = tuple[int, int]  # (a, b) <-> q^a p^b
FlatKey = tuple[int, int, int]  # (a, b, k) <-> c^k q^a p^b

ElementLike = Union[int, Fraction, GaussianRational, CPoly, "WeylElement"]


class NonTerminatingSeries(ArithmeticError):
    """A conjugation series did not terminate within the term cap."""


@lru_cache(maxsize=None)
def contraction_weights(b: int, a: int) -> tuple[int, ...]:
    """The weights k! C(b,k) C(a,k), k = 0..min(b,a), of the rewrite rule
    p^b q^a = sum_k weight_k c^k q^(a-k) p^(b-k)."""
    return tuple(factorial(k) * comb(b, k) * comb(a, k) for k in range(min(b, a) + 1))


class WeylElement(FlatTerms):
    """Normal-ordered element of the algebra generated by q and p.

    Stored flat (see FlatTerms) under keys (a, b, k) for c^k q^a p^b;
    ``terms`` is the {(a, b): CPoly} view, built on first use and cached, so
    callers must not mutate it.  Immutable.
    """

    __slots__ = ()
    _head = itemgetter(0, 1)

    @property
    def terms(self) -> dict[Key, CPoly]:
        """{(a, b): CPoly coefficient of q^a p^b}, without zero coefficients."""
        return self._cpolys()

    @staticmethod
    def of(v: ElementLike) -> "WeylElement":
        if isinstance(v, WeylElement):
            return v
        return WeylElement({(0, 0): CPoly.of(v)})

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        return self._add(WeylElement.of(other))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-WeylElement.of(other))

    def __rsub__(self, other):
        return WeylElement.of(other) + (-self)

    def __mul__(self, other):
        other = WeylElement.of(other)
        weights = contraction_weights
        right = list(other._num.items())
        acc_re: dict[FlatKey, int] = {}
        acc_im: dict[FlatKey, int] = {}
        for (a1, b1, k1), (r1, i1) in self._num.items():
            for (a2, b2, k2), (r2, i2) in right:
                re_ = r1 * r2 - i1 * i2
                im = r1 * i2 + i1 * r2
                a, b, k = a1 + a2, b1 + b2, k1 + k2
                # p^b1 q^a2 -> sum over contractions
                for j, w in enumerate(weights(b1, a2)):
                    key = (a - j, b - j, k + j)
                    acc_re[key] = acc_re.get(key, 0) + re_ * w
                    if im:
                        acc_im[key] = acc_im.get(key, 0) + im * w
        out = {key: (re_, acc_im.get(key, 0)) for key, re_ in acc_re.items()}
        return WeylElement._canonical(out, self._den * other._den)

    def __rmul__(self, other):
        # scalars commute with everything, so reuse __mul__
        return WeylElement.of(other) * self

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = WeylElement.of(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational, CPoly)):
            other = WeylElement.of(other)
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        if all(key[:2] == (0, 0) for key in self._num):
            # a scalar hashes like the CPoly (and so the number) it equals
            return hash(self.coefficient(0, 0))
        return hash((self._den, frozenset(self._num.items())))

    # -- structure -------------------------------------------------------

    def coefficient(self, a: int, b: int) -> CPoly:
        return self.terms.get((a, b), CPoly())

    def support(self) -> list[Key]:
        return sorted(self.terms)

    def subst_c(self, v) -> "WeylElement":
        """Specialize the central symbol: c -> v (a ring homomorphism)."""
        v = GaussianRational.of(v)
        dv = lcm(v.re.denominator, v.im.denominator)
        vr, vi = v.re.numerator * (dv // v.re.denominator), v.im.numerator * (dv // v.im.denominator)
        kmax = max((k for (_, _, k) in self._num), default=0)
        # powers[k] = (vr + vi i)^k dv^(kmax-k): v^k over the shared dv^kmax
        powers = [(1, 0)]
        for _ in range(kmax):
            pr, pi = powers[-1]
            powers.append((pr * vr - pi * vi, pr * vi + pi * vr))
        powers = [(pr * dv ** (kmax - k), pi * dv ** (kmax - k)) for k, (pr, pi) in enumerate(powers)]
        out: dict[FlatKey, tuple[int, int]] = {}
        for (a, b, k), (re_, im) in self._num.items():
            pr, pi = powers[k]
            r0, i0 = out.get((a, b, 0), (0, 0))
            out[(a, b, 0)] = (r0 + re_ * pr - im * pi, i0 + re_ * pi + im * pr)
        return WeylElement._canonical(out, self._den * dv**kmax)

    def div_c(self, k: int = 1) -> "WeylElement":
        """Exact division of every coefficient by c^k (NonDivisible if not)."""
        return WeylElement({key: cp.div_c(k) for key, cp in self.terms.items()})

    def __str__(self):
        return self._render(
            lambda ab: " ".join(s if e == 1 else f"{s}^{e}" for s, e in zip("qp", ab) if e)
        )

    def __repr__(self):
        return f"<WeylElement {self}>"


# -- factories -------------------------------------------------------------


def q_op(a: int = 1) -> WeylElement:
    return WeylElement({(a, 0): 1})


def p_op(b: int = 1) -> WeylElement:
    return WeylElement({(0, b): 1})


def scalar(v: CPolyLike) -> WeylElement:
    return WeylElement.of(CPoly.of(v))


def monomial(a: int, b: int, coeff: CPolyLike = 1) -> WeylElement:
    return WeylElement({(a, b): coeff})


def hamiltonian() -> WeylElement:
    """H = (p^2 + q^2) / 2, with [q, H] = -c p and [p, H] = c q."""
    return WeylElement({(2, 0): Fraction(1, 2), (0, 2): Fraction(1, 2)})


# -- brackets ---------------------------------------------------------------


def commutator(x: ElementLike, y: ElementLike) -> WeylElement:
    x, y = WeylElement.of(x), WeylElement.of(y)
    return x * y - y * x


def anticommutator(x: ElementLike, y: ElementLike) -> WeylElement:
    x, y = WeylElement.of(x), WeylElement.of(y)
    return x * y + y * x


def nested_commutator(x: ElementLike, y: ElementLike, n: int) -> WeylElement:
    """[x, y]_n = [[x, y]_(n-1), y] with [x, y]_0 = x."""
    if n < 0:
        raise ValueError("negative nesting depth")
    out = WeylElement.of(x)
    y = WeylElement.of(y)
    for _ in range(n):
        out = commutator(out, y)
    return out


def nested_anticommutator(x: ElementLike, y: ElementLike, n: int) -> WeylElement:
    """{x, y}_n = {{x, y}_(n-1), y} with {x, y}_0 = x."""
    if n < 0:
        raise ValueError("negative nesting depth")
    out = WeylElement.of(x)
    y = WeylElement.of(y)
    for _ in range(n):
        out = anticommutator(out, y)
    return out


def shifted_nested_anticomm(a: CPolyLike, n: int) -> WeylElement:
    """The symbolic binomial  ({q,H} + a)_n = sum_k C(n,k) a^(n-k) {q,H}_k.

    Convention {q,H}_0 = q.  For a central a this equals {q, H + a/2}_n,
    which is what makes the symmetrized power identities tractable.
    """
    acc = WeylElement()
    a = CPoly.of(a)
    term = q_op()
    h = hamiltonian()
    for k in range(n + 1):
        acc = acc + scalar(a ** (n - k) * comb(n, k)) * term
        term = anticommutator(term, h)
    return acc


def left_nested_commutator(h: ElementLike, x: ElementLike, n: int) -> WeylElement:
    """Left-iterated bracket  [x, [x, ... [x, h]]]  (n brackets)."""
    if n < 0:
        raise ValueError("negative nesting depth")
    x = WeylElement.of(x)
    out = WeylElement.of(h)
    for _ in range(n):
        out = commutator(x, out)
    return out


def hadamard_conjugate(
    x: ElementLike, w: ElementLike, t: Fraction | int = 1, max_terms: int = 64
) -> WeylElement:
    """e^(t x) w e^(-t x) = sum_n t^n/n! [x,[x,...[x,w]]], exact when finite.

    Raises NonTerminatingSeries if ad_x is not nilpotent on w within
    ``max_terms`` brackets.
    """
    x = WeylElement.of(x)
    t = Fraction(t)
    term = WeylElement.of(w)
    acc = term
    for n in range(1, max_terms + 1):
        term = commutator(x, term)
        if not term:
            return acc
        acc = acc + scalar(t**n / factorial(n)) * term
    raise NonTerminatingSeries(
        f"conjugation series still has nonzero terms after {max_terms} brackets"
    )


def poly_of_element(poly: RatPoly, w: ElementLike) -> WeylElement:
    """Evaluate a rational polynomial at an algebra element."""
    w = WeylElement.of(w)
    acc = WeylElement()
    for k, coeff in poly.coeffs.items():
        acc = acc + scalar(coeff) * w**k
    return acc


# -- rendering / parsing ----------------------------------------------------

_TERM_RE = re.compile(
    r"^\((?P<coeff>.+)\)(?: \* (?:(?P<qm>q(?:\^\d+)?))?\s*(?:(?P<pm>p(?:\^\d+)?))?)?$"
)


def _split_top(s: str, sep: str = " + ") -> Iterable[str]:
    # split on sep at paren depth 0 only
    depth = 0
    start = 0
    i = 0
    while i < len(s):
        ch = s[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and s.startswith(sep, i):
            yield s[start:i]
            i += len(sep)
            start = i
            continue
        i += 1
    yield s[start:]


def _parse_exp(tok: str | None) -> int:
    if not tok:
        return 0
    return 1 if "^" not in tok else int(tok.split("^")[1])


def parse_element(text: str) -> WeylElement:
    """Inverse of str(): parse "(coeff) * q^a p^b" terms joined by " + "."""
    s = text.strip()
    if s == "0":
        return WeylElement()
    out: dict[Key, CPoly] = {}
    for piece in _split_top(s):
        m = _TERM_RE.match(piece.strip())
        if m is None:
            raise ValueError(f"bad element term: {piece!r}")
        key = (_parse_exp(m.group("qm")), _parse_exp(m.group("pm")))
        coeff = parse_cpoly(m.group("coeff"))
        out[key] = out.get(key, CPoly()) + coeff
    return WeylElement(out)
