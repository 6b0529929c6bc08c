"""Truncated ladder-operator matrices as the floating-point oracle."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from weylops import (
    CPoly,
    GaussianRational,
    MINUS_I,
    WeylElement,
    build_operators,
    element_to_matrix,
    hamiltonian,
    monomial,
    nested_anticommutator,
    p_op,
    q_op,
    safe_margin,
    scalar,
)
from weylops.oscillator import (
    _tower_sums,
    check_main_identity_matrix,
    check_nested_anticomm_closed_form,
    check_shifted_expansions,
    check_symbolic_bridge,
)

DIM = 32


def test_operator_structure():
    mats = build_operators(DIM)
    assert np.allclose(mats.h_mat, np.diag(np.arange(DIM) + 0.5))
    root_half = np.sqrt(0.5)
    assert mats.q_mat[0, 1] == pytest.approx(1j * root_half)
    assert mats.q_mat[1, 0] == pytest.approx(-1j * root_half)
    assert mats.p_mat[0, 1] == pytest.approx(root_half)
    assert mats.p_mat[1, 0] == pytest.approx(root_half)
    assert np.allclose(mats.p_mat, mats.p_mat.conj().T)
    assert np.allclose(mats.q_mat, mats.q_mat.conj().T)


def test_rejects_tiny_dimension():
    with pytest.raises(ValueError):
        build_operators(3)


def test_commutation_relation_in_the_interior():
    # pq - qp = c at c = -i, away from the truncation corner
    mats = build_operators(DIM)
    comm = mats.p_mat @ mats.q_mat - mats.q_mat @ mats.p_mat
    interior = comm[: DIM - 1, : DIM - 1]
    assert np.allclose(interior, -1j * np.eye(DIM - 1), atol=1e-12)


def test_element_to_matrix_basics():
    mats = build_operators(DIM)
    assert np.allclose(element_to_matrix(scalar(5), mats), 5 * np.eye(DIM))
    # the central symbol becomes -i times the identity
    assert np.allclose(
        element_to_matrix(scalar(CPoly.c_power(1)), mats), -1j * np.eye(DIM)
    )
    assert np.allclose(element_to_matrix(q_op(), mats), mats.q_mat)
    assert np.allclose(element_to_matrix(p_op(2), mats), mats.p_mat @ mats.p_mat)


def test_element_to_matrix_respects_ordering():
    # q p realized as Q @ P (normal order: q to the left)
    mats = build_operators(DIM)
    assert np.allclose(element_to_matrix(monomial(1, 1), mats), mats.q_mat @ mats.p_mat)


def test_hamiltonian_realizes_diagonally():
    # (p^2 + q^2)/2 equals diag(l + 1/2) on columns untouched by truncation
    mats = build_operators(DIM)
    realized = element_to_matrix(hamiltonian(), mats)
    cols = slice(0, DIM - 2)
    assert np.allclose(realized[:, cols], mats.h_mat[:, cols], atol=1e-12)


def test_safe_margin():
    assert safe_margin(q_op()) == 1
    assert safe_margin(hamiltonian()) == 2
    assert safe_margin(nested_anticommutator(q_op(), hamiltonian(), 3)) == 7


def test_check_functions_pass():
    for n in (0, 1, 4, 8):
        assert check_nested_anticomm_closed_form(n).ok
        assert check_shifted_expansions(n).ok
        assert check_main_identity_matrix(n).ok
        assert check_symbolic_bridge(n).ok


def test_check_functions_report_errors_for_small_dim():
    report = check_nested_anticomm_closed_form(8, dim=8)
    assert report.status == "error"
    assert "dim" in report.witness


def test_checks_are_sensitive_to_loose_tolerance_only():
    # near-zero tolerance must flag the inevitable rounding noise at high n,
    # proving the checks actually measure something
    report = check_main_identity_matrix(8, tol=0.0)
    assert report.status == "fail"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy reports the overflow too
@pytest.mark.parametrize("check", [check_nested_anticomm_closed_form, check_main_identity_matrix])
def test_overflowed_matrix_fails(check):
    # (2l)^120 overflows at dim 256; every comparison with NaN is false, so
    # only an explicit finiteness test keeps such a record from passing
    report = check(120, 256)
    assert report.status == "fail"
    assert "non-finite" in report.witness


# -- parity with the dense realization these paths replaced ------------------

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=6)
gaussians = st.builds(GaussianRational, rationals, rationals)
coeffs = st.builds(CPoly, st.dictionaries(st.integers(0, 3), gaussians, max_size=3))
elements = st.builds(
    WeylElement,
    st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), coeffs, max_size=3),
)


def _dense_element_to_matrix(w, mats):
    # reference: one dense Q^a @ P^b product per term
    out = np.zeros((mats.dim, mats.dim), dtype=complex)
    for (a, b), coeff in w.terms.items():
        g = coeff.subst(MINUS_I)
        qa = np.linalg.matrix_power(mats.q_mat, a)
        pb = np.linalg.matrix_power(mats.p_mat, b)
        out += complex(float(g.re), float(g.im)) * (qa @ pb)
    return out


def _dense_tower(mats, n):
    # reference: {x, H} = x @ H + H @ x with dense products
    x = mats.q_mat
    tower = [x]
    for _ in range(n):
        x = x @ mats.h_mat + mats.h_mat @ x
        tower.append(x)
    return tower


def _close(new, old):
    return np.max(np.abs(new - old)) <= 1e-12 * np.max(np.abs(old))


@given(elements)
def test_banded_realization_matches_dense_products(w):
    mats = build_operators(DIM)
    assert _close(element_to_matrix(w, mats), _dense_element_to_matrix(w, mats))


@given(st.lists(st.integers(-20, 20), min_size=1, max_size=9))
def test_elementwise_tower_matches_dense_brackets(weights):
    mats = build_operators(DIM)
    tower = _dense_tower(mats, len(weights) - 1)
    (got,) = _tower_sums(mats, weights)
    expected = sum(wk * x for wk, x in zip(weights, tower))
    if any(weights):
        assert _close(got, expected)
    else:
        assert not got.any()
