"""Exact normal-ordered calculus for two operators with  p q - q p = c.

Elements are finite sums  sum  coeff(a,b) * q^a p^b  with coefficients in
CPoly (polynomials in the central symbol c over the Gaussian rationals).
Normal order keeps every q to the left of every p; products are reduced
with the single rewrite rule

    p^b q^a = sum_k  k! C(b,k) C(a,k) c^k  q^(a-k) p^(b-k),

which follows from p q = q p + c by induction (``contraction_weights``
holds the weights).

An element is stored flat (``scalars.FlatTerms``), the way FLINT's fmpq_poly
stores a rational polynomial: the integer numerator of c^k i^i q^a p^b
under the key (a, b, k, i), with i the power (0 or 1) of the imaginary unit,
over one positive denominator shared by the whole element.  Products, sums
and ``subst_c`` run on plain integers, apply i^2 = -1 and reduce by a single
gcd at the end, so no Fraction is built on the hot path.  A bracket is one
accumulation through the one product kernel (``_product``): [x, y] and
{x, y} sum x y and -y x (or +y x) in one pass, reduced once.  A linear
combination with number or CPoly weights is one ``weighted_sum``, with no
product by a scalar element.  ``terms`` is the {(a, b): CPoly} view that
rendering and the realizations read.  Since c stays formal, an identity
established here holds for every numeric value of c at once.  ``subst_c``
sets c to a number; its use is the oscillator realization
(``oscillator``), which works at c = -2i, where q p - p q = 2i.

Bracket conventions:

    commutator        [x, y]   = x y - y x
    anticommutator    {x, y}   = x y + y x
    nested, right     [x, y]_n = [[x, y]_(n-1), y],   [x, y]_0 = x
                      {x, y}_n = {{x, y}_(n-1), y},   {x, y}_0 = x
    nested, left      left_nested_commutator(w, x, n) = [x, [x, ... [x, w]]]

``bracket_tower(x, w)`` lists ad_x^n w = [x, [x, ... [x, w]]] for n = 0, 1, ...
until a bracket vanishes, and ``hadamard_conjugate(x, w, t)`` is its t^n/n!
weighted sum, the Hadamard series e^(tx) w e^(-tx), exact whenever ad_x is
nilpotent on w; otherwise both raise NonTerminatingSeries.  Each builder
grows its brackets as a ``scalars.Chain`` of its own call.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Union

from .scalars import Chain, CPoly, CPolyLike, CTerms, FlatTerms, _lifting
from .sequences import RatPoly

Key = tuple[int, int]  # (a, b) <-> q^a p^b
FlatKey = tuple[int, int, int, int]  # (a, b, k, i) <-> c^k i^i q^a p^b

ElementLike = Union[int, Fraction, CPoly, "WeylElement"]


class NonTerminatingSeries(ArithmeticError):
    """A conjugation series did not terminate within 64 brackets."""


@lru_cache(maxsize=None)
def contraction_weights(b: int, a: int) -> tuple[int, ...]:
    """The weights k! C(b,k) C(a,k), k = 0..min(b,a), of the rewrite rule
    p^b q^a = sum_k weight_k c^k q^(a-k) p^(b-k)."""
    return tuple(factorial(k) * comb(b, k) * comb(a, k) for k in range(min(b, a) + 1))


class WeylElement(CTerms):
    """Normal-ordered element of the algebra generated by q and p.

    Stored flat (see FlatTerms) under keys (a, b, k, i) for c^k i^i q^a p^b;
    ``terms`` is the {(a, b): CPoly} view, a new dict on each read.
    Immutable.
    """

    __slots__ = ()
    _unit = (0, 0)
    # perfbench's tracer wraps these through the class's own __dict__
    __add__ = __radd__ = FlatTerms.__add__
    __pow__ = FlatTerms.__pow__

    @property
    def terms(self) -> dict[Key, CPoly]:
        """{(a, b): CPoly coefficient of q^a p^b}, without zero coefficients."""
        return self._grouped(lambda key: (key[:2], key[2:]), CPoly)

    @_lifting
    def __mul__(self, other):
        return _product(self, other, 0)

    __rmul__ = __mul__  # ``of`` lifts only numbers and CPolys, which are central

    def coefficient(self, a: int, b: int) -> CPoly:
        return self.terms.get((a, b), CPoly())

    def support(self) -> list[Key]:
        return sorted(self.terms)

    def subst_c(self, v) -> "WeylElement":
        """Specialize the central symbol, c -> v for a number v (a ring
        homomorphism): the part of self in c^k, with c^k dropped, weighted v^k,
        one product per power of v.  TypeError if v is not an exact scalar (a
        float or a string), ValueError if it has a power of c."""
        at = CPoly.of(v)
        if at.degree() > 0:
            raise ValueError(f"c can only be set to a number, not {at}")
        by_k: dict = {}
        for (a, b, k, i), n in self._num.items():
            by_k.setdefault(k, {})[(a, b, 0, i)] = n
        powers = at._powers()
        return self.weighted_sum((powers[k], self._flat(num, self._den)) for k, num in by_k.items())

    def __str__(self):
        return self._render(
            self.terms,
            lambda ab: " ".join(s if e == 1 else f"{s}^{e}" for s, e in zip("qp", ab) if e)
        )


def _product(x: WeylElement, y: WeylElement, s: int) -> WeylElement:
    """x y + s (y x), s in {0, 1, -1}, the engine's only product loop (``__mul__``
    is s = 0, ``commutator`` s = -1, ``anticommutator`` s = +1): one pass over the
    term pairs into one dict over d_x d_y.  A pair's commutative term, the same in
    x y and y x, is added once, weighted 1 + s: ``contraction_weights(b, a)[0] = 1``
    is that term, not a contraction, so the contractions j >= 1 of each order
    follow.  The rule is looked up at call time, so a patch reaches every product."""
    weights = contraction_weights
    acc: dict[FlatKey, int] = {}
    get = acc.get
    t = 1 + s
    right = list(y._num.items())
    for (a1, b1, k1, i1), n1 in x._num.items():
        for (a2, b2, k2, i2), n2 in right:
            n = -n1 * n2 if i1 & i2 else n1 * n2  # i^2 = -1
            a, b, k, i = a1 + a2, b1 + b2, k1 + k2, i1 ^ i2
            if t:
                key = (a, b, k, i)
                acc[key] = get(key, 0) + t * n
            if b1 and a2:  # p^b1 q^a2 -> its contractions
                for w in weights(b1, a2)[1:]:
                    a, b, k = a - 1, b - 1, k + 1
                    key = (a, b, k, i)
                    acc[key] = get(key, 0) + n * w
            if s and b2 and a1:  # s p^b2 q^a1 -> its contractions
                n, a, b, k = s * n, a1 + a2, b1 + b2, k1 + k2
                for w in weights(b2, a1)[1:]:
                    a, b, k = a - 1, b - 1, k + 1
                    key = (a, b, k, i)
                    acc[key] = get(key, 0) + n * w
    return WeylElement._canonical(acc, x._den * y._den)


# -- factories -------------------------------------------------------------


def q_op(a: int = 1) -> WeylElement:
    return WeylElement({(a, 0): 1})


def p_op(b: int = 1) -> WeylElement:
    return WeylElement({(0, b): 1})


def scalar(v: CPolyLike) -> WeylElement:
    return WeylElement.of(v)


def monomial(a: int, b: int, coeff: CPolyLike = 1) -> WeylElement:
    return WeylElement({(a, b): coeff})


def hamiltonian() -> WeylElement:
    """H = (p^2 + q^2) / 2, with [q, H] = -c p and [p, H] = c q."""
    return WeylElement({(2, 0): Fraction(1, 2), (0, 2): Fraction(1, 2)})


# -- brackets ---------------------------------------------------------------


def commutator(x: ElementLike, y: ElementLike) -> WeylElement:
    return _product(WeylElement.of(x), WeylElement.of(y), -1)


def anticommutator(x: ElementLike, y: ElementLike) -> WeylElement:
    return _product(WeylElement.of(x), WeylElement.of(y), 1)


def nested_commutator(x: ElementLike, y: ElementLike, n: int) -> WeylElement:
    """[x, y]_n = [[x, y]_(n-1), y] with [x, y]_0 = x."""
    return Chain(WeylElement.of(x), lambda w: commutator(w, y))[n]


def nested_anticommutator(x: ElementLike, y: ElementLike, n: int) -> WeylElement:
    """{x, y}_n = {{x, y}_(n-1), y} with {x, y}_0 = x."""
    return Chain(WeylElement.of(x), lambda w: anticommutator(w, y))[n]


def shifted_nested_anticomm(a: CPolyLike, n: int) -> WeylElement:
    """The symbolic binomial  ({q,H} + a)_n = sum_k C(n,k) a^(n-k) {q,H}_k.

    Convention {q,H}_0 = q.  For a central a this equals {q, H + a/2}_n,
    which is what makes the symmetrized power identities tractable.  The
    brackets {q,H}_k and the powers a^(n-k) come from two chains of this
    call's own: n brackets and one product per power.
    """
    tower = Chain(q_op(), lambda w: anticommutator(w, hamiltonian()))
    a_pow = CPoly.of(a)._powers()
    return WeylElement.weighted_sum((a_pow[n - k] * comb(n, k), x) for k, x in enumerate(tower.upto(n)))


def left_nested_commutator(h: ElementLike, x: ElementLike, n: int) -> WeylElement:
    """Left-iterated bracket  [x, [x, ... [x, h]]]  (n brackets)."""
    return Chain(WeylElement.of(h), lambda w: commutator(x, w))[n]


def bracket_tower(x: WeylElement, w: WeylElement) -> list[WeylElement]:
    """[w, [x,w], [x,[x,w]], ...] until the bracket vanishes; raises
    NonTerminatingSeries if it is still nonzero after 64 brackets."""
    chain = Chain(w, lambda v: commutator(x, v))
    for n in range(1, 65):
        if not chain[n]:
            return chain.upto(n - 1)
    raise NonTerminatingSeries("iterated bracket still nonzero after 64 steps")


def hadamard_conjugate(x: ElementLike, w: ElementLike, t: Fraction | int = 1) -> WeylElement:
    """e^(t x) w e^(-t x) = sum_n t^n/n! [x,[x,...[x,w]]], exact when finite:
    the t^n/n! weighted sum of ``bracket_tower(x, w)``.

    Raises NonTerminatingSeries if ad_x is not nilpotent on w within 64
    brackets, and TypeError for a t that is not an int or a Fraction.
    """
    if not isinstance(t, (int, Fraction)):
        raise TypeError(f"not an exact scalar: {t!r}")
    tower = bracket_tower(WeylElement.of(x), WeylElement.of(w))
    return WeylElement.weighted_sum((Fraction(t**n, factorial(n)), term) for n, term in enumerate(tower))


def poly_of_element(poly: RatPoly, w: ElementLike) -> WeylElement:
    """Evaluate a rational polynomial at an algebra element: one product per degree."""
    powers = WeylElement.of(w)._powers()
    return WeylElement.weighted_sum((a, powers[k]) for k, a in poly.coeffs.items())

