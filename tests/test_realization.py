"""Differential realization p = c d/dx, q = x, as an independent oracle."""

from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from weylops import (
    CPoly,
    PreconditionViolation,
    WeylElement,
    XPoly,
    anticommutator,
    apply_element,
    commutator,
    monomial,
    monomial_anticommutator_action,
    monomial_commutator_action,
    p_op,
    q_op,
    validate_reordering,
)
from weylops.sequences import euler_zero


def _p_fact(k):
    return monomial(0, k, Fraction(1, factorial(k)))


def _q_fact(k):
    return monomial(k, 0, Fraction(1, factorial(k)))


def test_generator_actions():
    x3 = XPoly.monomial(3)
    assert apply_element(q_op(), x3) == XPoly.monomial(4)
    assert apply_element(p_op(), x3) == XPoly.monomial(2, CPoly.c_power(1, 3))
    # q^2 p on x^3: derivative then two multiplications
    assert apply_element(monomial(2, 1), x3) == XPoly.monomial(4, CPoly.c_power(1, 3))
    # derivatives of order above the degree annihilate
    assert apply_element(p_op(2), XPoly.monomial(1)) == XPoly()


def test_defining_relation_holds_on_polynomials():
    w = commutator(p_op(), q_op())
    for l in range(6):
        f = XPoly.monomial(l)
        assert apply_element(w, f) == f.scale(CPoly.c_power(1))


def test_closed_forms_match_composed_actions():
    for n in range(5):
        for m in range(5):
            com = commutator(_p_fact(n), _q_fact(m))
            anti = anticommutator(_p_fact(n), _q_fact(m))
            for l in range(n, 9):
                f = XPoly.monomial(l)
                coeff, deg = monomial_commutator_action(n, m, l)
                assert apply_element(com, f) == XPoly({deg: coeff})
                coeff, deg = monomial_anticommutator_action(n, m, l)
                assert apply_element(anti, f) == XPoly({deg: coeff})


def test_closed_form_precondition():
    with pytest.raises(PreconditionViolation):
        monomial_commutator_action(3, 2, 2)
    with pytest.raises(PreconditionViolation):
        monomial_anticommutator_action(3, 2, 2)


def test_validate_reordering_default_box():
    validate_reordering()


def test_commutator_expansion_without_the_engine():
    # the Euler-weighted expansion of [p^n/n!, q^m/m!], evaluated purely
    # through the closed-form actions -- no WeylElement multiplication at all
    for n in range(1, 6):
        for m in range(1, 6):
            for l in (n, n + 2, n + 5):
                lhs_coeff, lhs_deg = monomial_commutator_action(n, m, l)
                rhs = CPoly()
                for k in range(1, min(n, m) + 1):
                    anti_coeff, anti_deg = monomial_anticommutator_action(n - k, m - k, l)
                    assert anti_deg == lhs_deg
                    rhs = rhs + CPoly.c_power(k, -euler_zero(k) / factorial(k)) * anti_coeff
                assert lhs_coeff == rhs


coeffs = st.builds(
    CPoly.c_power, st.integers(0, 2), st.fractions(min_value=-30, max_value=30, max_denominator=6)
)
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
    # reference: the action computed over CPoly coefficients
    out: dict = {}
    for (a, b), wcoeff in w.terms.items():
        for l, fcoeff in f.coeffs.items():
            if l < b:
                continue
            contribution = wcoeff * fcoeff * CPoly.c_power(b, factorial(l) // factorial(l - b))
            out[l - b + a] = out.get(l - b + a, CPoly()) + contribution
    return XPoly(out)


xpolys = st.builds(XPoly, st.dictionaries(st.integers(0, 6), coeffs, max_size=3))


@given(elements, xpolys)
def test_action_matches_the_cpoly_tower(w, f):
    assert apply_element(w, f) == _tower_apply(w, f)


@given(xpolys, xpolys)
def test_xpoly_flat_form_is_canonical(f, g):
    for h in (f, f + g, f - g, -f, apply_element(q_op(), f)):
        pairs = list(h._num.values())
        assert all(re_ or im for re_, im in pairs)
        assert h._den > 0
        assert gcd(h._den, *(n for pair in pairs for n in pair)) == 1
        assert XPoly(h.coeffs) == h and hash(XPoly(h.coeffs)) == hash(h)
