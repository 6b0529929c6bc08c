"""Differential realization p = c d/dx, q = x, as an independent oracle."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st
from reference import RefCPoly, is_canonical, rationals_within

from weylops import (
    CPoly,
    GaussianRational,
    I,
    WeylElement,
    XPoly,
    apply_element,
    commutator,
    monomial,
    p_op,
    q_op,
    validate_reordering,
)
from weylops import realization
from weylops.sequences import euler_zero


def _p_fact(k):
    return monomial(0, k, Fraction(1, factorial(k)))


def _q_fact(k):
    return monomial(k, 0, Fraction(1, factorial(k)))


def test_generator_actions():
    x3 = XPoly.monomial(3)
    assert apply_element(q_op(), x3) == XPoly.monomial(4)
    assert apply_element(p_op(), x3) == XPoly({2: CPoly.c_power(1, 3)})
    # q^2 p on x^3: derivative then two multiplications
    assert apply_element(monomial(2, 1), x3) == XPoly({4: CPoly.c_power(1, 3)})
    # derivatives of order above the degree annihilate
    assert apply_element(p_op(2), XPoly.monomial(1)) == XPoly()


def test_defining_relation_holds_on_polynomials():
    w = commutator(p_op(), q_op())
    for l in range(6):
        f = XPoly.monomial(l)
        assert apply_element(w, f) == XPoly.weighted_sum([(CPoly.c_power(1), f)])


def test_validate_reordering_default_box():
    validate_reordering()


def test_validate_reordering_edge_boxes():
    # max_l of 0 or 1 leaves fewer than three test monomials
    for l in range(4):
        validate_reordering(3, l)


@pytest.mark.parametrize("args, name", [((-1, 8), "max_exp"), ((6, -1), "max_l")])
def test_validate_reordering_refuses_an_empty_box(args, name):
    with pytest.raises(ValueError, match=f"need {name} >= 0, got -1"):
        validate_reordering(*args)


def test_validate_reordering_acts_once_per_product(monkeypatch):
    # one action of each of the 2,401 products on x^0 + x^1 + x^8, one of its
    # left factor on the right factor's action, and one per right factor:
    # 2 * 2,401 + 49 actions, where one per x^l took 3 * (2 * 2,401 + 49)
    calls = {"mul": 0, "apply": 0}
    true_mul, true_apply = WeylElement.__mul__, realization.apply_element

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    monkeypatch.setattr(WeylElement, "__mul__", counting("mul", true_mul))
    monkeypatch.setattr(realization, "apply_element", counting("apply", true_apply))
    validate_reordering()
    assert calls["mul"] == 2401
    assert calls["apply"] <= 4851


def _bracket_action(n, m, sign, f):
    """[p^n/n!, q^m/m!] f (sign -1) or {p^n/n!, q^m/m!} f (sign +1), composed
    from the single-monomial actions of its two factors."""
    p_n, q_m = _p_fact(n), _q_fact(m)
    return XPoly.weighted_sum([(1, apply_element(p_n, apply_element(q_m, f))),
                               (sign, apply_element(q_m, apply_element(p_n, f)))])


def test_commutator_expansion_without_the_engine(monkeypatch):
    # the Euler-weighted expansion of [p^n/n!, q^m/m!], evaluated purely
    # through composed single-monomial actions -- no WeylElement
    # multiplication at all
    def refuse(*args):
        raise AssertionError("engine called")

    monkeypatch.setattr(WeylElement, "__mul__", refuse)
    for n in range(1, 6):
        for m in range(1, 6):
            for l in (n, n + 2, n + 5):
                f = XPoly.monomial(l)
                rhs = [(CPoly.c_power(k, -euler_zero(k) / factorial(k)), _bracket_action(n - k, m - k, 1, f))
                       for k in range(1, min(n, m) + 1)]
                assert _bracket_action(n, m, -1, f) == XPoly.weighted_sum(rhs)
    with pytest.raises(AssertionError, match="engine called"):
        p_op() * q_op()


coeffs = st.builds(CPoly.c_power, st.integers(0, 2), rationals_within(30, 6))
elements = st.builds(
    WeylElement,
    st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), coeffs, max_size=3),
)


@given(elements)
def test_realization_is_faithful(w):
    # a nonzero element must act nonzero on x^l for l up to its p-degree
    actions = [apply_element(w, XPoly.monomial(l)) for l in range(4)]
    assert any(actions) == bool(w)


@given(elements, elements, st.integers(0, 6))
def test_action_is_multiplicative(x, y, l):
    f = XPoly.monomial(l)
    assert apply_element(x * y, f) == apply_element(x, apply_element(y, f))


def _tower_apply(w: WeylElement, f: XPoly) -> XPoly:
    # reference: the action computed over Fraction-dict coefficients (RefCPoly)
    out: dict = {}
    for (a, b), wcoeff in w.terms.items():
        for l, fcoeff in f.coeffs.items():
            if l < b:
                continue
            contribution = RefCPoly.of_cpoly(wcoeff) * RefCPoly.of_cpoly(fcoeff)
            contribution = contribution * RefCPoly.c_power(b, factorial(l) // factorial(l - b))
            out[l - b + a] = out.get(l - b + a, RefCPoly()) + contribution
    return XPoly({deg: v.to_cpoly() for deg, v in out.items()})


xpolys = st.builds(XPoly, st.dictionaries(st.integers(0, 6), coeffs, max_size=3))


@given(elements, xpolys)
def test_action_matches_the_cpoly_tower(w, f):
    assert apply_element(w, f) == _tower_apply(w, f)


# Gaussian coefficients put the i bit on both sides of the action; rationals
# drawn as n/d from integers, which is cheaper than st.fractions
small_rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 6))
gaussian_coeffs = st.builds(
    CPoly.c_power, st.integers(0, 2), st.builds(GaussianRational, small_rationals, small_rationals)
)
gaussian_elements = st.builds(
    WeylElement,
    st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), gaussian_coeffs, max_size=3),
)
gaussian_xpolys = st.builds(XPoly, st.dictionaries(st.integers(0, 6), gaussian_coeffs, max_size=3))


@given(gaussian_elements, gaussian_elements, gaussian_xpolys)
def test_gaussian_action_matches_the_tower(x, y, f):
    assert apply_element(x, f) == _tower_apply(x, f)
    assert apply_element(x * y, f) == apply_element(x, apply_element(y, f))


@given(xpolys, xpolys)
def test_xpoly_flat_form_is_canonical(f, g):
    # int numerators, none zero, gcd 1 with the denominator, an i bit in
    # {0, 1}: for polynomials and their CPoly coefficient views
    i_op = monomial(1, 1, I)
    for h in (f, f + g, f - g, -f, apply_element(q_op(), f), apply_element(i_op, apply_element(i_op, f))):
        assert is_canonical(h)
        assert all(is_canonical(cp) for cp in h.coeffs.values())
        assert XPoly(h.coeffs) == h and hash(XPoly(h.coeffs)) == hash(h)


def test_i_squared_is_minus_one():
    assert apply_element(monomial(1, 0, I), XPoly({1: I})) == -XPoly.monomial(2)
    assert XPoly.weighted_sum([(I, XPoly({3: I}))]) == -XPoly.monomial(3)
