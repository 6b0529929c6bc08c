"""Exact scalars: Gaussian rationals, the constants of CPoly, and the flat
CPoly against their Fraction-pair and Fraction-dict references."""

import copy
import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from reference import RefCPoly, RefGaussian, is_canonical, rationals_within

from weylops import (
    CPoly,
    I,
    NonDivisible,
    ONE,
    RatPoly,
    WeylElement,
    XPoly,
)
from weylops.oscillator import Bands
from weylops.scalars import FlatTerms
from weylops.weyl import hadamard_conjugate, hamiltonian, monomial, p_op, q_op, scalar

rationals = rationals_within(10**6, 10**4)
gaussians = st.builds(lambda re, im: re + im * I, rationals, rationals)
cpolys = st.builds(
    CPoly,
    st.dictionaries(st.integers(0, 5), gaussians, max_size=4),
)


def test_rational_examples():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert Fraction(-17, 8) * -1 == Fraction(17, 8)
    assert str(CPoly.of(Fraction(-17, 8))) == "-17/8"
    assert str(CPoly.of(Fraction(6, 2))) == "3"


def test_gaussian_examples():
    assert I * I == -1
    assert (1 + 2 * I) * (3 - I) == 5 + 5 * I
    assert -I == 0 - I == I * -1
    assert ONE - 1 == CPoly()


def test_gaussian_real_accessors():
    assert CPoly.of(Fraction(7, 2)).is_real
    assert CPoly.of(Fraction(7, 2)).as_rational() == Fraction(7, 2)
    assert not I.is_real
    with pytest.raises(ValueError):
        I.as_rational()


@pytest.mark.parametrize("value", [CPoly.c_power(1), 1 + CPoly.c_power(1)], ids=["c", "1+c"])
def test_a_power_of_c_is_no_number(value):
    # re, im and as_rational read a constant; a power of c is refused, not dropped
    for read in (lambda v: v.re, lambda v: v.im, lambda v: v.as_rational()):
        with pytest.raises(ValueError, match="power of c"):
            read(value)
    assert value.is_real


def test_a_complex_constant_prints_as_its_number():
    # the number without parentheses, alone or as an element's coefficient;
    # beside a power of c it keeps them
    assert str(I) == str(CPoly.of(I)) == "1*i"
    assert str(q_op() * I) == "(1*i) * q"
    assert str(Fraction(-1, 2) - 3 * I) == "-1/2-3*i" and str(-I) == "-1*i"
    assert str(CPoly({0: I, 1: 1})) == "(1*i) + c" and str(CPoly()) == "0"


def test_one_repr_for_the_flat_core():
    # the class name around the rendering; Bands has no rendering
    assert repr(Fraction(1, 2) + I) == "CPoly(1/2+1*i)"
    assert repr(q_op() * I) == "WeylElement((1*i) * q)"
    assert repr(XPoly.monomial(2)) == "XPoly((1) * x^2)"
    assert repr(RatPoly({0: Fraction(1, 2), 3: -4})) == f"RatPoly({RatPoly({0: Fraction(1, 2), 3: -4})})"
    assert repr(Bands.of(1)).startswith("<weylops.oscillator.Bands object")


def test_gaussian_is_immutable():
    with pytest.raises(AttributeError):
        I.re = Fraction(1)


@given(gaussians, gaussians, gaussians)
def test_gaussian_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z


def test_subst_c_examples():
    # on constants, and on an element: each coefficient at c = v
    c = CPoly.c_power(1)
    assert scalar(c * c).subst_c(-I) == -1
    assert scalar(CPoly.c_power(1, 4)).subst_c(-I) == -4 * I
    assert scalar(CPoly({0: 1, 1: 4, 2: 2})).subst_c(0) == 1
    assert scalar(CPoly({0: 1, 1: 4, 2: 2})).subst_c(1) == 7
    assert monomial(1, 2, CPoly({0: 1, 1: 4, 2: 2})).subst_c(1) == monomial(1, 2, 7)


def test_cpoly_structure():
    assert CPoly().degree() == -1
    assert CPoly.c_power(3).degree() == 3
    assert CPoly({2: 0}).degree() == -1  # zero coefficients are dropped
    assert 0 not in CPoly.c_power(2, Fraction(1, 2)).coeffs
    assert CPoly({0: 5}).coeffs == {0: 5}
    assert not CPoly()
    with pytest.raises(ValueError):
        CPoly({-1: 1})
    # two parts under one key are merged, and the merged form is canonical
    for merged, value in ((CPoly({0: CPoly.c_power(1), 1: 2}), CPoly.c_power(1, 3)),
                          (CPoly({0: CPoly.c_power(1), 1: -1}), 0)):
        assert merged == value and is_canonical(merged)


def test_cpoly_div_c():
    assert CPoly.c_power(3, 5).div_c(2) == CPoly.c_power(1, 5)
    assert CPoly().div_c(4) == CPoly()
    with pytest.raises(NonDivisible):
        CPoly({0: 1, 1: 1}).div_c()


@pytest.mark.parametrize(
    "value",
    [CPoly.c_power(1), q_op() * CPoly.c_power(1), XPoly.monomial(2), CPoly()],
    ids=["CPoly", "WeylElement", "XPoly", "zero"],
)
def test_div_c_rejects_a_negative_power(value):
    # division by c^-k would multiply by c^k
    with pytest.raises(ValueError, match="negative power"):
        value.div_c(-1)
    with pytest.raises(ValueError, match="negative power"):
        value.div_c(-2)


@given(cpolys, cpolys, gaussians)
def test_subst_c_is_ring_homomorphism(u, v, w):
    # on constants, Q(i)[c] -> Q(i); on elements, each coefficient is mapped
    x, y = scalar(u), scalar(v)
    assert (x + y).subst_c(w) == x.subst_c(w) + y.subst_c(w)
    assert (x * y).subst_c(w) == x.subst_c(w) * y.subst_c(w)
    x, y = monomial(2, 1, u), monomial(1, 0, v)
    assert (x + y).subst_c(w) == x.subst_c(w) + y.subst_c(w)


@given(cpolys, cpolys)
def test_cpoly_ring(u, v):
    assert u + v == v + u
    assert u * v == v * u
    assert u - u == CPoly()


def test_an_operand_a_class_cannot_lift_goes_to_the_other_side():
    # each operator answers NotImplemented, so Python asks the reflected one;
    # i and c are both CPolys, so I + c and I - c need no fallback
    c = CPoly.c_power(1)
    assert 3 * q_op() == q_op() * 3 == monomial(1, 0, 3)
    assert Fraction(1, 2) * q_op() == q_op() * Fraction(1, 2) == monomial(1, 0, Fraction(1, 2))
    assert I * q_op() == q_op() * I == monomial(1, 0, I)
    assert I + c == c + I == CPoly({0: I, 1: 1})
    assert I - c == -(c - I)
    assert c * q_op() == q_op() * c == monomial(1, 0, c)
    assert c + q_op() == q_op() + c
    assert c - q_op() == -(q_op() - c)
    for left, right in ((object(), I), (I, object()), (object(), c), (c, object())):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(TypeError, match="unsupported operand"):
                op(left, right)


@pytest.mark.parametrize("left", [CPoly.c_power(1, I), I], ids=["CPoly", "GaussianRational"])
def test_a_scalar_on_the_left_falls_back_without_rendering_the_element(monkeypatch, left):
    # the TypeError that sends the product to WeylElement.__rmul__ names the
    # operand's type only: rendering H^12 would cost more than the product
    h12 = hamiltonian() ** 12

    def refuse(self):
        raise AssertionError("WeylElement rendered")

    monkeypatch.setattr(WeylElement, "__str__", refuse)
    assert left * h12 == scalar(left) * h12


# one value of each class that holds exact scalars, and how to build one
# from a coefficient; a Gaussian rational is a CPoly constant, built by the lift
_VALUE_CLASSES = {
    "GaussianRational": (CPoly.of, I),
    "CPoly": (lambda v: CPoly({0: v}), CPoly.c_power(1)),
    "WeylElement": (lambda v: WeylElement({(0, 0): v}), q_op()),
    "XPoly": (lambda v: XPoly({0: v}), XPoly.monomial(1)),
    "RatPoly": (lambda v: RatPoly({0: v}), RatPoly.x()),
}


_NOT_EXACT = [0.1, "1/2", "abc"]


@pytest.mark.parametrize("bad", _NOT_EXACT)
@pytest.mark.parametrize("cls", sorted(_VALUE_CLASSES))
def test_only_exact_scalars_enter_the_algebra(cls, bad):
    # a float or a string is no exact scalar: constructors raise TypeError,
    # operators answer NotImplemented and Python raises its own TypeError
    make, value = _VALUE_CLASSES[cls]
    with pytest.raises(TypeError):
        make(bad)
    with pytest.raises(TypeError):
        type(value).of(bad)
    unsupported = "unsupported operand" if isinstance(bad, float) else None
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError, match=unsupported):
            op(value, bad)
        with pytest.raises(TypeError, match=unsupported):
            op(bad, value)
    assert value != bad


@pytest.mark.parametrize("bad", _NOT_EXACT)
def test_only_exact_scalars_are_evaluation_points(bad):
    # a polynomial's argument and a conjugation's t are exact scalars too
    with pytest.raises(TypeError):
        RatPoly.x()(bad)
    with pytest.raises(TypeError):
        hadamard_conjugate(p_op(), q_op(), t=bad)
    assert RatPoly.x()(Fraction(1, 3)) == Fraction(1, 3)
    assert hadamard_conjugate(p_op(), q_op(), t=2) == q_op() + CPoly.c_power(1, 2)


def _constants() -> list:
    # 0, 1, -1/2, i and 1/2 + i as int or Fraction and as a constant of each
    # class that can hold it (a RatPoly holds no i)
    numbers = [0, 1, Fraction(-1, 2), I, Fraction(1, 2) + I]
    out = [v for v in numbers if not isinstance(v, CPoly)]
    for v in numbers:
        for cls in dict.fromkeys(type(value) for _, value in _VALUE_CLASSES.values()):
            try:
                out.append(cls.of(v))
            except TypeError:
                pass
    return out


def test_equality_agrees_with_subtraction():
    # == lifts what - lifts: two values are equal exactly when their
    # difference is defined and zero, and equal values hash alike
    values = _constants()
    assert len(values) == 21
    for a in values:
        for b in values:
            try:
                diff = a - b
            except TypeError:
                assert a != b and not a == b, (a, b)
            else:
                assert (a == b) == (not diff) == (not a != b), (a, b)
            if a == b:
                assert hash(a) == hash(b), (a, b)


def test_i_squared_is_minus_one():
    i = CPoly.of(I)
    assert i * i == -1
    assert scalar(CPoly.c_power(1, I)).subst_c(I) == -1
    assert scalar(CPoly.c_power(3, I)).subst_c(I) == 1  # i * i^3
    assert scalar(CPoly.c_power(1, I) * CPoly.c_power(1, I)).subst_c(1) == -1
    assert monomial(1, 1, CPoly.c_power(1, I)).subst_c(I) == -monomial(1, 1)


# -- the flat CPoly against the Fraction-dict one it replaced -----------------

# rationals drawn as n/d from integers, which is cheaper than st.fractions
flat_rationals = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))
flat_numbers = st.one_of(
    st.integers(-60, 60), flat_rationals, st.builds(lambda re, im: re + im * I, flat_rationals, flat_rationals)
)
cmaps = st.dictionaries(st.integers(0, 4), flat_numbers, max_size=4)


def _agree(flat: CPoly, ref: RefCPoly) -> None:
    assert is_canonical(flat)
    assert all(is_canonical(g) for g in flat.coeffs.values())
    assert flat.coeffs == ref.coeffs
    assert str(flat) == str(ref)
    assert flat.degree() == ref.degree()
    assert flat.coeffs.get(0, CPoly()) == ref.constant_term()


@given(cmaps, cmaps, flat_numbers, st.integers(0, 3))
def test_cpoly_arithmetic_matches_the_reference(a, b, s, n):
    x, y, rx, ry = CPoly(a), CPoly(b), RefCPoly(a), RefCPoly(b)
    _agree(x, rx)
    cases = [
        (x + y, rx + ry), (x - y, rx - ry), (x * y, rx * ry), (-x, -rx), (x**n, rx**n),
        (x + s, rx + s), (x - s, rx - s), (x * s, rx * s),
    ]
    cases += [(s + x, s + rx), (s - x, s - rx), (s * x, s * rx)]
    for flat, ref in cases:
        _agree(flat, ref)


@given(cmaps, flat_numbers, st.integers(0, 3))
def test_subst_c_and_div_c_match_the_reference(a, v, k):
    x, rx = CPoly(a), RefCPoly(a)
    for at in (v, I):
        expected = rx.subst(at).to_gaussian()
        assert scalar(x).subst_c(at) == expected
        assert monomial(0, 3, x).subst_c(at) == monomial(0, 3, expected)
    try:
        expected = rx.div_c(k)
    except ArithmeticError:
        with pytest.raises(NonDivisible):
            x.div_c(k)
    else:
        _agree(x.div_c(k), expected)


@given(cmaps, cmaps, flat_numbers)
def test_cpoly_equality_hash_and_parsing_match_the_reference(a, b, s):
    x, y = CPoly(a), CPoly(b)
    assert (x == y) == (RefCPoly(a) == RefCPoly(b))
    assert (x == s) == (RefCPoly(a) == s)
    if x == y:
        assert hash(x) == hash(y)
    z = x + y - y
    assert z == x and hash(z) == hash(x)
    assert CPoly(x.coeffs) == x and hash(CPoly(x.coeffs)) == hash(x)
    # a constant hashes like the number it equals, as the reference does
    if x.degree() <= 0:
        assert hash(x) == hash(RefCPoly(a)) == hash(x.coeffs.get(0, CPoly()))
    for const in (CPoly.of(s), x - x + s):
        assert const == s and hash(const) == hash(RefGaussian.of(s))
    assert str(x) == str(RefCPoly(a))


# -- Gaussian-rational constants against the Fraction pair --------------------

flat_pairs = st.tuples(flat_rationals, flat_rationals)
plain_numbers = st.one_of(st.integers(-60, 60), flat_rationals)


def _agree_gaussian(flat: CPoly, ref: RefGaussian) -> None:
    assert type(flat) is CPoly and flat.degree() <= 0 and is_canonical(flat)
    assert (flat.re, flat.im) == (ref.re, ref.im)
    assert flat == ref.to_gaussian() and hash(flat) == hash(ref)
    assert str(flat) == str(ref)
    assert flat.is_real == ref.is_real
    if ref.is_real:
        assert flat.as_rational() == ref.as_rational()
    else:
        with pytest.raises(ValueError):
            flat.as_rational()


@given(flat_pairs, flat_pairs, plain_numbers)
def test_gaussian_matches_the_reference(a, b, s):
    x, y, rx, ry = a[0] + a[1] * I, b[0] + b[1] * I, RefGaussian(*a), RefGaussian(*b)
    cases = [
        (x, rx), (x + y, rx + ry), (x - y, rx - ry), (x * y, rx * ry), (-x, -rx),
        (x + s, rx + s), (x - s, rx - s), (x * s, rx * s),
        (s + x, s + rx), (s - x, s - rx), (s * x, s * rx),
    ]
    for flat, ref in cases:
        _agree_gaussian(flat, ref)
    assert (x == y) == (rx == ry)
    assert (x == s) == (rx == s) == (s == x)
    if x == y:
        assert hash(x) == hash(y)
    if x == s:
        assert hash(x) == hash(s)


# -- numbers scale a CPoly without a lift -------------------------------------


def test_numbers_scale_scalars_without_a_lift(monkeypatch):
    # neither ``of`` nor the accumulation runs for an int or Fraction factor
    # on either side (test_cpoly_arithmetic_matches_the_reference and
    # test_gaussian_matches_the_reference draw such factors against the
    # references); a float still raises, a bool is still lifted, and an
    # element still gets the product
    x, g = CPoly({0: Fraction(1, 3), 2: I}), Fraction(1, 2) + 3 * I
    expected = [CPoly({0: 1, 2: 3 * I}), CPoly({0: Fraction(1, 6), 2: Fraction(1, 2) * I}), CPoly()]
    monkeypatch.setattr(FlatTerms, "_accumulate", classmethod(lambda cls, triples: 1 / 0))
    monkeypatch.setattr(CPoly, "of", staticmethod(lambda v: 1 / 0))
    products = [x * 3, Fraction(1, 2) * x, x * 0, g * 2, Fraction(-2, 3) * g]
    monkeypatch.undo()
    assert products[:3] == expected
    assert products[3:] == [1 + 6 * I, Fraction(-1, 3) - 2 * I]
    for value in (x, g):
        with pytest.raises(TypeError, match="unsupported operand"):
            value * 0.5
        with pytest.raises(TypeError, match="unsupported operand"):
            0.5 * value
        assert value * True == value and False * value == 0  # a bool is lifted, as before
        assert value * q_op() == q_op() * value == WeylElement({(1, 0): value})


@pytest.mark.parametrize("cls", sorted(_VALUE_CLASSES))
@pytest.mark.parametrize("number", [0, 7, Fraction(-5, 6)])
def test_a_number_becomes_a_constant_without_the_accumulation(monkeypatch, cls, number):
    # a number's one-key constant is canonical as it stands
    make, value = _VALUE_CLASSES[cls]
    expected = make(number)
    monkeypatch.setattr(FlatTerms, "_accumulate", classmethod(lambda cls, triples: 1 / 0))
    constant = type(value).of(number)
    monkeypatch.undo()
    assert type(constant) is type(value) and constant == expected and is_canonical(constant)


# -- copying and pickling ---------------------------------------------------------


def _copies(value) -> list:
    return [copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))]


@pytest.mark.parametrize(
    "value",
    [
        CPoly({0: Fraction(1, 3), 2: I}),
        Fraction(-1, 2) + 3 * I,
        hamiltonian() * q_op() + CPoly.c_power(2, I),
        RatPoly({0: Fraction(1, 2), 3: -4}),
        XPoly({0: CPoly.c_power(1, I), 2: Fraction(2, 5)}),
        Bands({(-1, 1): Fraction(3, 7) * I, (1, 0): Fraction(-2, 7)}),
    ],
    ids=["CPoly", "GaussianRational", "WeylElement", "RatPoly", "XPoly", "Bands"],
)
def test_copies_keep_class_value_and_immutability(value):
    for twin in _copies(value):
        assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)
        assert is_canonical(twin)
        with pytest.raises(AttributeError, match="immutable"):
            twin._den = 1
