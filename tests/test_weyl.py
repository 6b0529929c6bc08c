"""Normal-ordering engine for the relation pq - qp = c."""

from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import RefCPoly, is_canonical, rationals_within

from weylops import weyl
from weylops import (
    CPoly,
    GaussianRational,
    I,
    MINUS_I,
    NonTerminatingSeries,
    RatPoly,
    WeylElement,
    XPoly,
    anticommutator,
    commutator,
    euler_polynomial,
    hadamard_conjugate,
    hamiltonian,
    left_nested_commutator,
    monomial,
    nested_anticommutator,
    nested_commutator,
    p_op,
    poly_of_element,
    q_op,
    scalar,
    shifted_nested_anticomm,
)

C = CPoly.c_power(1)


rationals = rationals_within(50, 8)
gaussians = st.builds(GaussianRational, rationals, rationals)
coeffs = st.builds(CPoly, st.dictionaries(st.integers(0, 3), gaussians, max_size=3))
term_maps = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), coeffs, max_size=3)
elements = st.builds(WeylElement, term_maps)


def _tower_product(x: WeylElement, y: WeylElement) -> WeylElement:
    # reference: the product computed over Fraction-dict coefficients
    # (RefCPoly), one pair of (a, b) terms at a time
    out: dict = {}
    for (a1, b1), v1 in x.terms.items():
        for (a2, b2), v2 in y.terms.items():
            coeff = RefCPoly.of_cpoly(v1) * RefCPoly.of_cpoly(v2)
            for k in range(min(b1, a2) + 1):
                w = coeff * RefCPoly.c_power(k, factorial(k) * comb(b1, k) * comb(a2, k))
                key = (a1 + a2 - k, b1 + b2 - k)
                out[key] = out.get(key, RefCPoly()) + w
    return WeylElement({key: v.to_cpoly() for key, v in out.items()})


def _p_fact(k):
    return monomial(0, k, Fraction(1, factorial(k)))


def _q_fact(k):
    return monomial(k, 0, Fraction(1, factorial(k)))


def test_base_relation():
    assert p_op() * q_op() == q_op() * p_op() + scalar(C)


def test_quartic_example():
    expected = q_op(2) * p_op(2) + monomial(1, 1, CPoly.c_power(1, 4)) + scalar(
        CPoly.c_power(2, 2)
    )
    assert p_op(2) * q_op(2) == expected


def _times_q(terms: dict) -> dict:
    # right-multiply a normal form by q using only  p^b q = q p^b + b c p^(b-1)
    out: dict = {}

    def bump(key, v):
        out[key] = out.get(key, CPoly()) + v

    for (a, b), v in terms.items():
        bump((a + 1, b), v)
        if b:
            bump((a, b - 1), v * CPoly.c_power(1, b))
    return out


def test_reordering_against_stepwise_multiplication():
    # the contraction kernel vs folding in one q at a time
    for b in range(8):
        for a in range(8):
            terms = {(0, b): CPoly.of(1)}
            for _ in range(a):
                terms = _times_q(terms)
            assert p_op(b) * q_op(a) == WeylElement(terms)


def test_nested_bracket_closed_forms():
    p, q = p_op(), q_op()
    for n in range(11):
        comm = WeylElement()
        anti = WeylElement()
        for k in range(n + 1):
            piece = q_op(k) * p * q_op(n - k)
            comm = comm + scalar(Fraction((-1) ** k * comb(n, k))) * piece
            anti = anti + scalar(Fraction(comb(n, k))) * piece
        assert nested_commutator(p, q, n) == comm
        assert nested_anticommutator(p, q, n) == anti


def test_campbell_product_form():
    # (p+q)^n/n! = sum over i+j+2a=n of (-c/2)^a/a! p^i/i! q^j/j!
    s = p_op() + q_op()
    for n in range(9):
        lhs = scalar(Fraction(1, factorial(n))) * s**n
        rhs = WeylElement()
        for a in range(n // 2 + 1):
            w = CPoly.c_power(a, Fraction((-1) ** a, 2**a * factorial(a)))
            for i in range(n - 2 * a + 1):
                j = n - 2 * a - i
                rhs = rhs + scalar(w) * (_p_fact(i) * _q_fact(j))
        assert lhs == rhs


def test_shifted_resummation_recentres_the_argument():
    # ({q,H} + a)_n = {q, H + a/2}_n for central a
    for a in (1, -1, 2):
        shifted = hamiltonian() + scalar(Fraction(a, 2))
        for n in range(9):
            assert shifted_nested_anticomm(a, n) == nested_anticommutator(
                q_op(), shifted, n
            )


def test_shifted_resummation_brackets_only_up_to_n(monkeypatch):
    # n brackets {q,H}_1 .. {q,H}_n
    true_anticommutator = weyl.anticommutator
    calls = []

    def counted(x, y):
        calls.append(1)
        return true_anticommutator(x, y)

    monkeypatch.setattr(weyl, "anticommutator", counted)
    for n in range(7):
        for a in (1, C):
            calls.clear()
            shifted_nested_anticomm(a, n)
            assert len(calls) == n


def test_quadratic_brackets_at_minus_i():
    h = hamiltonian()
    assert commutator(q_op(), h) == monomial(0, 1, CPoly.c_power(1, -1))
    assert commutator(q_op(), h).subst_c(MINUS_I) == scalar(I) * p_op()
    assert commutator(p_op(), h).subst_c(MINUS_I) == scalar(MINUS_I) * q_op()
    # period-2 recurrence of the nested commutator
    assert nested_commutator(q_op(), h, 2).subst_c(MINUS_I) == q_op()
    assert nested_commutator(q_op(), h, 8).subst_c(MINUS_I) == q_op()


def test_hadamard_conjugation():
    p, q = p_op(), q_op()
    assert hadamard_conjugate(q, p) == p - scalar(C)
    assert hadamard_conjugate(q, p, t=Fraction(1, 2)) == p - scalar(
        CPoly.c_power(1, Fraction(1, 2))
    )
    assert hadamard_conjugate(q, q) == q
    # ad_(qp) is not nilpotent on p: the series must refuse to pretend
    with pytest.raises(NonTerminatingSeries):
        hadamard_conjugate(monomial(1, 1), p)


def test_left_nested_commutator():
    assert left_nested_commutator(p_op(2), q_op(), 1) == monomial(
        0, 1, CPoly.c_power(1, -2)
    )
    assert left_nested_commutator(p_op(2), q_op(), 3) == WeylElement()


def test_poly_of_element():
    w = poly_of_element(RatPoly({2: 1, 0: 3}), q_op())
    assert w == q_op(2) + scalar(3)
    assert poly_of_element(RatPoly(), q_op()) == WeylElement()


def test_poly_of_element_makes_one_product_per_degree(monkeypatch):
    # the powers H^k are read off one chain, not each rebuilt as H**k
    poly, h = euler_polynomial(12), hamiltonian()
    expected = WeylElement.weighted_sum((a, h**k) for k, a in poly.coeffs.items())
    true_mul = WeylElement.__mul__
    calls = []

    def counted(self, other):
        calls.append(1)
        return true_mul(self, other)

    monkeypatch.setattr(WeylElement, "__mul__", counted)
    assert poly_of_element(poly, h) == expected
    assert len(calls) == 12


def test_structure_and_guards():
    h = hamiltonian()
    assert h**0 == scalar(1)
    assert h.support() == [(0, 2), (2, 0)]
    assert h.coefficient(2, 0) == CPoly.of(Fraction(1, 2))
    assert (q_op() * p_op()) ** 2 == q_op() * p_op() * q_op() * p_op()
    with pytest.raises(ValueError):
        monomial(-1, 0)
    with pytest.raises(ValueError):
        h**-1
    for nested in (nested_commutator, nested_anticommutator, left_nested_commutator):
        with pytest.raises(ValueError, match="negative nesting depth"):
            nested(p_op(), q_op(), -1)
    with pytest.raises(ValueError, match="negative nesting depth"):
        shifted_nested_anticomm(1, -1)
    with pytest.raises(TypeError):
        iter(weyl.Chain(q_op(), lambda w: anticommutator(w, hamiltonian())))
    with pytest.raises(AttributeError):
        h.terms = {}


@given(elements, elements, elements)
def test_multiplication_is_associative(x, y, z):
    assert (x * y) * z == x * (y * z)


@given(elements, elements, elements)
def test_distributive_laws(x, y, z):
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z


# bracket operands: elements, constant elements, and numbers and CPolys that
# the brackets lift themselves
operands = st.one_of(elements, coeffs.map(scalar), rationals, gaussians, coeffs)


@given(operands, operands)
def test_brackets_decompose_products(x, y):
    # each bracket is one accumulation of both products; it must equal the
    # two products formed apart and subtracted or added, in canonical form
    comm, anti = commutator(x, y), anticommutator(x, y)
    x, y = WeylElement.of(x), WeylElement.of(y)
    assert comm == x * y - y * x and anti == x * y + y * x
    assert comm + anti == scalar(2) * (x * y)
    assert is_canonical(comm) and is_canonical(anti)


@given(term_maps)
def test_str_matches_the_reference_rendering(terms):
    # every nonzero term, in (a, b) order, as "(coeff) * q^a p^b" with the
    # coefficient rendered by RefCPoly, joined by " + "
    parts = []
    for (a, b), v in sorted(terms.items()):
        mono = " ".join(s if e == 1 else f"{s}^{e}" for s, e in (("q", a), ("p", b)) if e)
        coeff = RefCPoly.of_cpoly(v)
        if coeff:
            parts.append(f"({coeff}) * {mono}" if mono else f"({coeff})")
    assert str(WeylElement(terms)) == (" + ".join(parts) or "0")


@given(elements, elements, rationals_within(20, 6))
def test_subst_evaluates_products_consistently(x, y, v):
    # subst_c only evaluates coefficients; reordering inside a product inserts
    # fresh powers of c, so the product of specialized factors needs one more
    # substitution to land in the same algebra
    for value in (v, MINUS_I):
        lhs = (x * y).subst_c(value)
        rhs = (x.subst_c(value) * y.subst_c(value)).subst_c(value)
        assert lhs == rhs


@given(elements, elements)
def test_product_matches_the_cpoly_tower(x, y):
    assert x * y == _tower_product(x, y)


@given(elements, elements, st.sampled_from((-1, 1)))
def test_one_pass_bracket_matches_the_two_products(x, y, s):
    # the kernel adds each term pair's commutative term once, weighted 1 + s,
    # and the contractions of x y and of s (y x) after it: the sum must be
    # the two products formed apart, with c powers and i parts in both
    bracket = weyl._product(x, y, s)
    assert bracket == WeylElement.weighted_sum([(1, x * y), (s, y * x)])
    assert is_canonical(bracket)


@given(elements)
def test_terms_view_round_trip(w):
    again = WeylElement(w.terms)
    assert again == w and hash(again) == hash(w)


def test_writing_into_a_view_leaves_its_value_alone():
    # every view is a new dict on each read: a write into one reaches neither
    # the value's rendering nor its later reads
    w = q_op()
    w.terms[(9, 9)] = CPoly.of(5)
    assert str(w) == "(1) * q" and w.coefficient(9, 9) == 0 and w.support() == [(1, 0)]
    r = RatPoly({0: 1})
    r.coeffs[3] = Fraction(7)
    assert str(r) == "1" and r.coeffs == {0: 1}
    c = CPoly({1: 2})
    c.coeffs[0] = GaussianRational(3)
    assert str(c) == "2*c" and c.constant_term() == 0
    x = XPoly.monomial(2)
    x.coeffs[5] = CPoly.of(1)
    assert str(x) == "(1) * x^2" and list(x.coeffs) == [2]


@given(elements, elements, coeffs, coeffs)
def test_flat_form_is_canonical(x, y, u, v):
    # int numerators, none zero, gcd 1 with the denominator, an i bit in
    # {0, 1}: for elements, their CPoly coefficient views, CPolys and
    # GaussianRationals
    for w in (x, x * y, x + y, x - y, -x, x.subst_c(MINUS_I), x.subst_c(I), (C * x).div_c()):
        assert is_canonical(w)
        assert all(is_canonical(cp) for cp in w.terms.values())
    for cp in (u, u * v, u + v, u - v, -u, u**2, (C * u).div_c(), CPoly.of(u.subst(I))):
        assert is_canonical(cp)
    # GaussianRational values: the coefficient view and values at c = number
    for g in (*u.coeffs.values(), u.constant_term(), u.subst(I), u.subst(MINUS_I)):
        assert is_canonical(g)


def test_i_squared_is_minus_one():
    i = scalar(I)
    assert i * i == scalar(-1)
    assert monomial(1, 0, I) * monomial(0, 1, I) == -(q_op() * p_op())
    # through a contraction: (i p)(i q) = -(q p + c)
    assert monomial(0, 1, I) * monomial(1, 0, I) == -(q_op() * p_op()) - scalar(C)
    assert scalar(C * I).subst_c(I) == scalar(-1)


weights = st.one_of(st.integers(-20, 20), rationals, gaussians, coeffs)
xpolys = st.builds(XPoly, st.dictionaries(st.integers(0, 4), coeffs, max_size=3))


@settings(max_examples=40)
@given(st.lists(st.tuples(weights, elements), max_size=4), st.lists(st.tuples(weights, xpolys), max_size=4))
def test_weighted_sum_matches_scalar_products(element_pairs, poly_pairs):
    # int, Fraction, GaussianRational and CPoly weights, with parts in i and c:
    # against engine products with scalar elements, and against XPolys whose
    # coefficients are multiplied as CPolys
    flat = WeylElement.weighted_sum(element_pairs)
    assert flat == sum((w * x for w, x in element_pairs), WeylElement()) and is_canonical(flat)
    flat = XPoly.weighted_sum(poly_pairs)
    scaled = (XPoly({deg: w * cp for deg, cp in f.coeffs.items()}) for w, f in poly_pairs)
    assert flat == sum(scaled, XPoly()) and is_canonical(flat)


@pytest.mark.parametrize("bad", [0.5, "1/2"])
@pytest.mark.parametrize("cls", [WeylElement, XPoly, RatPoly, CPoly, GaussianRational])
def test_weighted_sum_refuses_inexact_weights(cls, bad):
    with pytest.raises(TypeError):
        cls.weighted_sum([(bad, cls.of(1))])


def test_ratpoly_weighted_sum_refuses_c_and_i():
    for w in (CPoly.c_power(1), I, CPoly.c_power(0, I)):
        with pytest.raises(TypeError, match="must be rational"):
            RatPoly.weighted_sum([(w, RatPoly.x())])
    assert RatPoly.weighted_sum([(CPoly.of(Fraction(1, 2)), RatPoly.x())]) == RatPoly({1: Fraction(1, 2)})


@given(elements, st.one_of(rationals, gaussians))
def test_subst_c_evaluates_each_coefficient(w, v):
    expected = WeylElement({key: cp.subst(v) for key, cp in w.terms.items()})
    assert w.subst_c(v) == expected


@given(st.one_of(st.integers(-50, 50), rationals, gaussians, coeffs))
def test_equal_values_hash_alike(x):
    # the same value as int, Fraction, GaussianRational, CPoly, RatPoly,
    # WeylElement and XPoly, wherever that type can hold it
    cp = CPoly.of(x)
    forms = [x, cp, scalar(x), XPoly({0: x})]
    if cp.degree() <= 0:
        g = cp.constant_term()
        forms += [g, g.re, RatPoly.of(g.re)] if not g.im else [g]
    assert all(f == x for f in forms if not isinstance(f, RatPoly))
    for u in forms:
        for v in forms:
            if u == v:
                assert hash(u) == hash(v)


@settings(max_examples=40)
@given(
    st.dictionaries(st.integers(0, 5), rationals, max_size=4),
    st.dictionaries(st.integers(0, 2), rationals, max_size=3),
    coeffs,
    gaussians,
    st.integers(0, 4),
)
def test_running_powers_match_the_naive_powers(outer, inner, a, v, n):
    # compose, CPoly.subst and shifted_nested_anticomm take each power from
    # the one before; the forms that raise every power from scratch agree
    f, g = RatPoly(outer), RatPoly(inner)
    assert f.compose(g) == RatPoly.weighted_sum((w, g**k) for k, w in f.coeffs.items())
    assert a.subst(v) == sum((w * v**k for k, w in a.coeffs.items()), GaussianRational())
    tower = [q_op()]
    for _ in range(n):
        tower.append(anticommutator(tower[-1], hamiltonian()))
    naive = WeylElement.weighted_sum((a ** (n - k) * comb(n, k), t) for k, t in enumerate(tower))
    assert shifted_nested_anticomm(a, n) == naive
