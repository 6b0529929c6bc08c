"""Special-sequence machinery, checked against series-division oracles.

The oracle values come from dividing exponential generating functions
directly with Fraction coefficients, never from the recurrences under test.
"""

from fractions import Fraction
from math import comb, factorial, gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference import rationals_within
from weylops import (
    RatPoly,
    bernoulli_number,
    euler_at_half,
    euler_number,
    euler_polynomial,
    euler_zero,
    kappa,
    lam,
    shifted_euler,
    solve_midpoint,
)
from weylops import sequences

X = RatPoly.x()

# frozen reference values (integer sequence of alternating secant numbers)
EULER_NUMBERS = [1, 0, -1, 0, 5, 0, -61, 0, 1385, 0, -50521, 0, 2702765]

BERNOULLIS = [
    Fraction(1),
    Fraction(-1, 2),
    Fraction(1, 6),
    Fraction(0),
    Fraction(-1, 30),
    Fraction(0),
    Fraction(1, 42),
    Fraction(0),
    Fraction(-1, 30),
    Fraction(0),
    Fraction(5, 66),
    Fraction(0),
    Fraction(-691, 2730),
]


def _egf_quotient(num: list[Fraction], den: list[Fraction], count: int) -> list[Fraction]:
    """Power-series coefficients of num(t)/den(t); den[0] must be a unit."""
    num = list(num) + [Fraction(0)] * (count + 1 - len(num))
    out: list[Fraction] = []
    for n in range(count + 1):
        acc = num[n] - sum(out[j] * den[n - j] for j in range(n))
        out.append(acc / den[0])
    return out


def test_euler_zero_against_series_division():
    # 2 / (e^t + 1) = sum E_n(0) t^n/n!
    count = 20
    den = [Fraction(2)] + [Fraction(1, factorial(k)) for k in range(1, count + 1)]
    series = _egf_quotient([Fraction(2)], den, count)
    for n in range(count + 1):
        assert euler_zero(n) == series[n] * factorial(n)


def test_bernoulli_against_series_division():
    # t / (e^t - 1) = 1 / ((e^t - 1)/t)
    count = 20
    den = [Fraction(1, factorial(k + 1)) for k in range(count + 1)]
    series = _egf_quotient([Fraction(1)], den, count)
    for n in range(count + 1):
        assert bernoulli_number(n) == series[n] * factorial(n)


def test_bernoulli_known_values():
    assert [bernoulli_number(n) for n in range(13)] == BERNOULLIS


# -- the integer Euler route against the Fraction recurrence it replaced ------


def _ref_euler_zeros(n: int) -> list[Fraction]:
    """E_0(0), ..., E_n(0) by the Fraction recurrence the package used to run:
    E_m(0) = -1/2 sum_{k<m} C(m,k) E_k(0)."""
    zeros = [Fraction(1)]
    for m in range(1, n + 1):
        zeros.append(Fraction(-1, 2) * sum(comb(m, k) * zeros[k] for k in range(m)))
    return zeros


def test_integer_euler_route_matches_the_fraction_references():
    # E_n(x) by the Appell expansion over those Fractions, E_n(x + 1/2) by
    # composing it with x + 1/2, and E_n as 2^n times its value at 1/2
    zeros, half_shift = _ref_euler_zeros(40), RatPoly({0: Fraction(1, 2), 1: 1})
    for n in range(41):
        poly = RatPoly({n - k: comb(n, k) * zeros[k] for k in range(n + 1)})
        assert type(euler_zero(n)) is Fraction and euler_zero(n) == zeros[n]
        assert type(euler_polynomial(n)) is RatPoly and euler_polynomial(n) == poly
        assert type(shifted_euler(n)) is RatPoly and shifted_euler(n) == poly.compose(half_shift)
        assert type(euler_number(n)) is Fraction and euler_number(n) == 2**n * poly(Fraction(1, 2))
        assert euler_at_half(n) == poly(Fraction(1, 2))


def test_euler_numbers_build_no_polynomial(monkeypatch):
    # E_n and E_n(1/2) are read off the integers e_k alone: with every
    # polynomial builder refusing, both still match the Fraction references
    zeros = _ref_euler_zeros(40)

    def refuse(*args):
        raise AssertionError("a polynomial was built")

    for name in ("_appell", "shifted_euler", "euler_polynomial"):
        monkeypatch.setattr(sequences, name, refuse)
    for n in range(41):
        at_half = sum(comb(n, k) * zeros[k] / 2 ** (n - k) for k in range(n + 1))
        assert type(euler_number(n)) is Fraction and euler_number(n) == 2**n * at_half
        assert type(euler_at_half(n)) is Fraction and euler_at_half(n) == at_half


def test_euler_polynomial_fixtures():
    assert euler_polynomial(0) == RatPoly.of(1)
    assert euler_polynomial(1) == X - Fraction(1, 2)
    assert euler_polynomial(2) == X**2 - X
    assert euler_polynomial(3) == X**3 - Fraction(3, 2) * X**2 + Fraction(1, 4)


def test_euler_polynomial_is_monic():
    for n in range(16):
        e = euler_polynomial(n)
        assert e.degree() == n and e.coeffs[n] == 1


def test_appell_property():
    for n in range(1, 16):
        assert euler_polynomial(n).derivative() == n * euler_polynomial(n - 1)


def test_defining_relation():
    # E_n(x) + E_n(x+1) = 2 x^n
    shift = X + 1
    for n in range(21):
        e = euler_polynomial(n)
        assert e + e.compose(shift) == RatPoly({n: 2})


def test_reflection():
    # E_n(1 - x) = (-1)^n E_n(x)
    mirror = RatPoly({0: 1, 1: -1})
    for n in range(21):
        e = euler_polynomial(n)
        assert e.compose(mirror) == (e if n % 2 == 0 else -e)


def test_values_at_endpoints():
    for n in range(21):
        assert euler_polynomial(n)(0) == euler_zero(n)
        assert euler_polynomial(n)(1) == (-1) ** n * euler_zero(n)
        assert euler_polynomial(n)(Fraction(1, 2)) == euler_at_half(n)
    for n in range(1, 21):
        assert euler_polynomial(n)(1) == -euler_zero(n)


def test_bridge_to_bernoulli():
    # E_k(0) = -2 (2^(k+1) - 1) B_(k+1) / (k+1)
    for k in range(21):
        expected = Fraction(-2 * (2 ** (k + 1) - 1), k + 1) * bernoulli_number(k + 1)
        assert euler_zero(k) == expected


def test_euler_numbers():
    for n, v in enumerate(EULER_NUMBERS):
        assert euler_number(n) == v
        assert euler_at_half(n) == Fraction(v, 2**n)


def test_shifted_euler_fixtures():
    assert shifted_euler(2) == X**2 - Fraction(1, 4)
    assert shifted_euler(3) == X**3 - Fraction(3, 4) * X
    assert shifted_euler(6) == (
        X**6
        - Fraction(15, 4) * X**4
        + Fraction(75, 16) * X**2
        - Fraction(61, 64)
    )


def test_shifted_euler_expansion():
    # Appell shift: E_n(x + 1/2) = sum_k C(n,k) E_k(1/2) x^(n-k)
    for n in range(13):
        expected = RatPoly(
            {n - k: comb(n, k) * euler_at_half(k) for k in range(n + 1)}
        )
        assert shifted_euler(n) == expected


def test_solve_midpoint_agrees_with_appell_route():
    # triangular solve of the midpoint-averaging relation, no E_k(0) involved
    for n in range(13):
        assert solve_midpoint(n) == euler_polynomial(n)


def test_solve_midpoint_defining_property():
    for n in range(13):
        poly = solve_midpoint(n)
        assert poly + poly.compose(X + 1) == RatPoly({n: 2})


def test_kappa_table():
    assert [kappa(n) for n in range(10)] == [
        Fraction(0),
        Fraction(1, 2),
        Fraction(0),
        Fraction(-1, 4),
        Fraction(0),
        Fraction(1, 2),
        Fraction(0),
        Fraction(-17, 8),
        Fraction(0),
        Fraction(31, 2),
    ]
    for n in range(1, 21):
        assert kappa(n) == -euler_zero(n)


def test_lambda_equals_euler_numbers():
    for n in range(13):
        assert lam(n) == euler_number(n)


@pytest.mark.parametrize(
    "fn",
    [
        euler_zero,
        euler_polynomial,
        euler_at_half,
        euler_number,
        bernoulli_number,
        solve_midpoint,
        shifted_euler,
        kappa,
        pytest.param(lam, id="lam"),
    ],
    ids=lambda fn: fn.__name__,
)
def test_negative_index_raises(fn):
    # not the zero polynomial, nor a float 0.0 out of 2**-1 * 0
    with pytest.raises(ValueError, match="negative index"):
        fn(-1)


def test_ratpoly_basics():
    p = RatPoly({2: 1, 0: -3})
    assert p(2) == 1
    assert p.compose(X + 1) == X**2 + 2 * X - 2
    assert p.derivative() == 2 * X
    assert p.antiderivative() == Fraction(1, 3) * X**3 - 3 * X
    assert 0 not in p.antiderivative().coeffs
    # numbers on either side of * are lifted like every other operand
    assert X * Fraction(1, 2) == RatPoly({1: Fraction(1, 2)})
    assert 3 * X == X * 3 == RatPoly({1: 3})
    with pytest.raises(TypeError):
        X * 0.5
    assert str(RatPoly({1: -1, 0: Fraction(1, 2)})) == "-x + 1/2"
    with pytest.raises(ValueError):
        RatPoly({-1: 1})
    with pytest.raises(ValueError):
        p ** -1


def test_ratpoly_has_no_c():
    # division by c and c = v belong to the values over Q(i)[c], whose keys
    # end in (k, i); a RatPoly's keys are bare degrees
    for name in ("div_c", "subst_c"):
        assert not hasattr(RatPoly.x(), name)
    with pytest.raises(AttributeError):
        RatPoly.x().div_c()


# -- the flat RatPoly against the Fraction-dict one it replaced ----------------


class RefPoly:
    """Reference: the sparse polynomial over Fraction that RatPoly used to be."""

    def __init__(self, coeffs=None):
        self.coeffs = {k: Fraction(v) for k, v in (coeffs or {}).items() if v}

    @staticmethod
    def of(v):
        return v if isinstance(v, RefPoly) else RefPoly({0: v})

    def __add__(self, other):
        other = RefPoly.of(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + v
        return RefPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-RefPoly.of(other))

    def __rsub__(self, other):
        return RefPoly.of(other) + (-self)

    def __neg__(self):
        return RefPoly({k: -v for k, v in self.coeffs.items()})

    def __mul__(self, other):
        other = RefPoly.of(other)
        out = {}
        for k1, v1 in self.coeffs.items():
            for k2, v2 in other.coeffs.items():
                out[k1 + k2] = out.get(k1 + k2, Fraction(0)) + v1 * v2
        return RefPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        out = RefPoly.of(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RefPoly.of(other)
        return self.coeffs == other.coeffs

    def __call__(self, v):
        return sum((c * Fraction(v) ** k for k, c in self.coeffs.items()), Fraction(0))

    def compose(self, inner):
        acc = RefPoly()
        for k, c in self.coeffs.items():
            acc = acc + RefPoly.of(c) * inner**k
        return acc

    def derivative(self):
        return RefPoly({k - 1: k * v for k, v in self.coeffs.items() if k})

    def antiderivative(self):
        return RefPoly({k + 1: v / (k + 1) for k, v in self.coeffs.items()})

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs, reverse=True):
            v = self.coeffs[k]
            mono = "x" if k == 1 else f"x^{k}"
            if k == 0:
                parts.append(str(v))
            elif v in (1, -1):
                parts.append(mono if v == 1 else f"-{mono}")
            else:
                parts.append(f"{v}*{mono}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


rationals = rationals_within(30, 12)
scalars = st.one_of(st.integers(-30, 30), rationals)
coeff_maps = st.dictionaries(st.integers(0, 6), scalars, max_size=5)


def _agree(flat: RatPoly, ref: RefPoly) -> None:
    assert flat.coeffs == ref.coeffs
    assert str(flat) == str(ref)
    assert flat.degree() == max(ref.coeffs, default=-1)


def _canonical(poly: RatPoly) -> bool:
    return (
        poly._den > 0
        and gcd(poly._den, *poly._num.values()) == 1
        and all(poly._num.values())
        and (poly._num or poly._den == 1)
    )


@given(coeff_maps, coeff_maps, scalars)
def test_arithmetic_matches_the_fraction_dict_reference(a, b, s):
    x, y, rx, ry = RatPoly(a), RatPoly(b), RefPoly(a), RefPoly(b)
    _agree(x, rx)
    for flat, ref in (
        (x + y, rx + ry), (x - y, rx - ry), (x * y, rx * ry), (-x, -rx),
        (x + s, rx + s), (s + x, s + rx), (x - s, rx - s), (s - x, s - rx),
        (x * s, rx * s), (s * x, s * rx),
    ):
        _agree(flat, ref)
        assert _canonical(flat)


@given(coeff_maps, coeff_maps, st.integers(0, 4), rationals)
def test_calculus_matches_the_fraction_dict_reference(a, b, n, v):
    x, y, rx, ry = RatPoly(a), RatPoly(b), RefPoly(a), RefPoly(b)
    for flat, ref in (
        (x**n, rx**n),
        (x.compose(y), rx.compose(ry)),
        (x.derivative(), rx.derivative()),
        (x.antiderivative(), rx.antiderivative()),
    ):
        _agree(flat, ref)
        assert _canonical(flat)
    assert x(v) == rx(v)
    assert x(0) == rx(0)


@given(coeff_maps, coeff_maps, scalars)
def test_equality_and_hash_match_the_reference(a, b, s):
    x, y = RatPoly(a), RatPoly(b)
    assert (x == y) == (RefPoly(a) == RefPoly(b))
    assert (x == s) == (RefPoly(a) == s)
    if x == y:
        assert hash(x) == hash(y)
    z = x + y - y
    assert z == x and hash(z) == hash(x)
    assert RatPoly(x.coeffs) == x and hash(RatPoly(x.coeffs)) == hash(x)
    # a constant hashes like the Fraction it equals, however it was built
    for const in (RatPoly.of(s), x - x + s, RatPoly({0: s}) * 1):
        assert const == s and hash(const) == hash(Fraction(s))


@given(st.lists(st.tuples(st.one_of(st.integers(-40, 40), rationals), coeff_maps), max_size=6))
def test_weighted_sum_matches_pairwise_sums(pairs):
    flat = RatPoly.weighted_sum((w, RatPoly(c)) for w, c in pairs)
    pairwise = RatPoly()
    for w, c in pairs:
        pairwise = pairwise + w * RatPoly(c)
    assert flat == pairwise and _canonical(flat)
    _agree(flat, sum((w * RefPoly(c) for w, c in pairs), RefPoly()))


def test_canonical_form():
    p = RatPoly({3: Fraction(4, 6), 1: Fraction(-2, 4), 0: 0})
    assert (p._num, p._den) == ({3: 4, 1: -3}, 6)
    assert (RatPoly()._num, RatPoly()._den) == ({}, 1)
    for zero in (p - p, p * 0, 0 * p, p * RatPoly(), RatPoly.weighted_sum([]), RatPoly.of(0)):
        assert (zero._num, zero._den) == ({}, 1) and not zero and zero.degree() == -1
    assert ((-3 * p)._num, (-3 * p)._den) == ({3: -4, 1: 3}, 2)
    q = p * Fraction(-3, 4)
    assert (q._num, q._den) == ({3: -4, 1: 3}, 8) and _canonical(q)
    assert (p * Fraction(3, 2))._den == 4
    half = RatPoly({1: Fraction(1, 2)})
    assert ((half + half)._num, (half + half)._den) == ({1: 1}, 1)
    with pytest.raises(AttributeError):
        p._den = 1
