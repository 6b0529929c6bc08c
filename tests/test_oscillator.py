"""Truncated ladder-operator matrices as the floating-point oracle."""

import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference import rationals_within
from weylops import (
    CPoly,
    GaussianRational,
    MINUS_I,
    WeylElement,
    hamiltonian,
    monomial,
    nested_anticommutator,
    p_op,
    q_op,
    scalar,
)
from weylops.oscillator import (
    _tower_sums,
    build_operators,
    check_main_identity_matrix,
    check_nested_anticomm_closed_form,
    check_shifted_expansions,
    check_symbolic_bridge,
    element_to_matrix,
    safe_margin,
)
from weylops.report import reports_to_json
from weylops.suites import run_suite

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


def test_matrices_are_built_once_per_dim_and_read_only():
    mats = build_operators(64)
    assert build_operators(64) is mats
    views = [mats.q_cols, mats.h_diag, *mats.tridiagonal[0], *mats.tridiagonal[1]]
    for m in [mats.q_mat, mats.p_mat, mats.h_mat, *views]:
        with pytest.raises(ValueError, match="read-only"):
            m[0] = 1


def test_replaced_matrices_have_their_own_views():
    mats = build_operators(DIM)
    assert mats.h_diag[1] == 1.5
    h = mats.h_mat.copy()
    h[1, 1] = 2
    assert dataclasses.replace(mats, h_mat=h).h_diag[1] == 2
    assert mats.h_diag[1] == 1.5


def test_element_to_matrix_refuses_an_off_band_ladder():
    # reading only three bands would drop p[0, 5] and p[7, 0], and return a
    # matrix that is not the realization of the p it was given
    mats = build_operators(DIM)
    p = mats.p_mat.copy()
    p[0, 5], p[7, 0] = 0.01, 0.3
    with pytest.raises(ValueError, match="p has a nonzero entry beyond its three bands"):
        element_to_matrix(p_op(), dataclasses.replace(mats, p_mat=p))


def _peak_bytes(check, n, dim):
    tracemalloc.start()
    try:
        assert check(n, dim).ok
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "check", [check_nested_anticomm_closed_form, check_shifted_expansions, check_main_identity_matrix]
)
def test_ladder_checks_allocate_nothing_of_size_dim_squared(check):
    # one D x D complex matrix at dim 256 is 1 MiB
    check(8, 256)  # builds the matrices and their views once
    for n in range(9):
        assert _peak_bytes(check, n, 256) < 128 * 1024


def test_bridge_allocates_only_its_dense_realization():
    # element_to_matrix returns the dense 1 MiB matrix, and _verdict takes one
    # complex difference and its modulus over the safe columns; the dense
    # native {q,H}_n embedding it replaced took 6.5 MiB in all
    check_symbolic_bridge(3, 256)
    for n in range(4):
        assert _peak_bytes(check_symbolic_bridge, n, 256) < 3 * 1024 * 1024


def test_hermite_stream_at_dim_256():
    # the golden stream runs hermite at dim 64 only; hashed the same way
    records = json.loads(reports_to_json(run_suite("hermite", dim=256)))
    for r in records:
        r["elapsed_ms"] = None
    blob = json.dumps(records, sort_keys=True).encode()
    assert len(records) == 36
    assert hashlib.sha256(blob).hexdigest()[:16] == "bc327917b7d568d3"


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


ALL_CHECKS = [
    check_nested_anticomm_closed_form,
    check_shifted_expansions,
    check_main_identity_matrix,
    check_symbolic_bridge,
]


@pytest.mark.parametrize("check", ALL_CHECKS)
def test_every_check_needs_min_dim(check):
    # min_dim(3) = 10: dim 9 would do for the ladder checks alone, but every
    # check of the sweep takes the bridge's bound
    report = check(3, dim=9)
    assert report.status == "error"
    assert "need dim >= 10" in report.witness
    assert check(3, dim=10).ok


@pytest.mark.parametrize("check", ALL_CHECKS)
def test_negative_order_is_an_error(check):
    # the ladder checks would compare l^(n+1/2) at n = -1 and report a false FAIL
    report = check(-1)
    assert report.status == "error"
    assert "need n >= 0, got -1" in report.witness


@pytest.mark.parametrize("check", ALL_CHECKS)
def test_nan_tolerance_fails_every_check(check):
    # every comparison with NaN is false, so "err > tol" would pass blindly
    report = check(3, 16, float("nan"))
    assert report.status == "fail"
    assert "(tol nan)" in report.witness


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

rationals = rationals_within(30, 6)
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
    # reference: the tower on D x D matrices, {x, H} = x * (h_i + h_j)
    # elementwise, each step checked against the products x @ H + H @ x
    h = np.diagonal(mats.h_mat)
    x = mats.q_mat
    tower = [x]
    for _ in range(n):
        y = x * (h[:, None] + h[None, :])
        assert _close(y, x @ mats.h_mat + mats.h_mat @ x)
        x = y
        tower.append(x)
    return tower


def _column_view(m):
    # m[l-1, l] over m[l+1, l], 0 outside the matrix
    return np.stack([np.append(0, np.diagonal(m, 1)), np.append(np.diagonal(m, -1), 0)])


def _close(new, old):
    return np.max(np.abs(new - old)) <= 1e-12 * np.max(np.abs(old))


@given(elements)
def test_banded_realization_matches_dense_products(w):
    mats = build_operators(DIM)
    assert _close(element_to_matrix(w, mats), _dense_element_to_matrix(w, mats))


@given(st.lists(st.integers(-20, 20), min_size=1, max_size=9))
def test_elementwise_tower_matches_dense_brackets(weights):
    # the column form does the dense tower's arithmetic entry for entry, so
    # it must agree bitwise, and the dense sums hold nothing it drops
    mats = build_operators(DIM)
    tower = _dense_tower(mats, len(weights) - 1)
    (got,) = _tower_sums(mats, weights)
    expected = sum(wk * x for wk, x in zip(weights, tower))
    assert (got == _column_view(expected)).all()
    assert np.count_nonzero(expected) == np.count_nonzero(_column_view(expected))
