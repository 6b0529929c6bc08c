"""The exact oscillator realization in the unnormalized Hermite basis.

numpy enters only as a float reference: dense truncated matrices built from
the ladder formulas below, independent of the code under test.
"""

import gc
import hashlib
import json
import tracemalloc
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference import RefCPoly, rationals_within
from weylops import (
    CPoly,
    I,
    WeylElement,
    hamiltonian,
    monomial,
    nested_anticommutator,
    p_op,
    q_op,
    scalar,
)
from weylops import oscillator, weyl
from weylops.oscillator import (
    Bands,
    OscillatorMatrices,
    _verdict,
    build_operators,
    check_main_identity_matrix,
    check_nested_anticomm_closed_form,
    check_shifted_expansions,
    check_symbolic_bridge,
    element_to_matrix,
)
from weylops.report import reports_to_json
from weylops.suites import run_suite

DIM = 32
MINUS_2I = -2 * I


def _dense(bands, dim=DIM):
    """The dim x dim truncation of an operator given by its bands."""
    m = np.zeros((dim, dim), dtype=complex)
    for l in range(dim):
        for row, z in bands.column(l).items():
            if row < dim:
                m[row, l] = complex(z.re, z.im)
    return m


def _reference_ladders(dim=DIM):
    # q f_l = i (l f_(l-1) - f_(l+1)), p f_l = l f_(l-1) + f_(l+1), H f_l = (2l+1) f_l
    l = np.arange(1, dim)
    q = np.diag(1j * l, 1) - np.diag(1j * np.ones(dim - 1), -1)
    p = np.diag(l + 0j, 1) + np.diag(np.ones(dim - 1) + 0j, -1)
    return q, p, np.diag(2 * np.arange(dim) + 1 + 0j)


def test_operator_structure():
    ops = build_operators(DIM)
    for got, ref in zip((ops.q_mat, ops.p_mat, ops.h_mat), _reference_ladders()):
        assert (_dense(got) == ref).all()
    # in the normalized basis e_l = f_l / sqrt(l!), q / sqrt(2) and p / sqrt(2)
    # are the Hermitian position and momentum matrices at c = -i
    s = np.sqrt([float(factorial(l)) for l in range(DIM)])
    q, p = (np.diag(s) @ _dense(m) @ np.diag(1 / s) / np.sqrt(2) for m in (ops.q_mat, ops.p_mat))
    root_half = np.sqrt(0.5)
    assert q[0, 1] == pytest.approx(1j * root_half)
    assert q[1, 0] == pytest.approx(-1j * root_half)
    assert p[0, 1] == pytest.approx(root_half)
    assert p[1, 0] == pytest.approx(root_half)
    assert np.allclose(p, p.conj().T)
    assert np.allclose(q, q.conj().T)


def test_rejects_tiny_dimension():
    with pytest.raises(ValueError):
        build_operators(3)


def test_matrices_and_their_chains_are_read_only():
    ops = build_operators(64)
    for m in [ops.q_mat, ops.p_mat, ops.h_mat, *ops.tower.upto(2), ops.h_powers[2], ops.p_powers[2]]:
        with pytest.raises(TypeError, match="does not support item assignment"):
            m[0, 0, 0] = 1


def test_replaced_matrices_have_their_own_views():
    ops = build_operators(DIM)
    assert ops.tower[1] == Bands({(-1, 2): 4 * I, (1, 0): -4 * I, (1, 1): -4 * I})  # i (4l^2, -4l - 4)
    h = ops.h_mat + Bands({(0, 2): 1})  # H f_l = (l^2 + 2l + 1) f_l
    replaced = OscillatorMatrices(ops.dim, ops.q_mat, ops.p_mat, h)
    assert replaced.tower[1] != ops.tower[1]
    assert replaced.h_powers[1] == h
    assert ops.h_powers[1] == Bands({(0, 1): 2, (0, 0): 1})


def test_element_to_matrix_refuses_an_off_band_ladder():
    # a p with entries off its three bands would realize an operator that is
    # not the p the checks were given
    ops = build_operators(DIM)
    p = ops.p_mat + Bands({(5, 0): 1, (-7, 1): 3})
    with pytest.raises(ValueError, match="p has a nonzero entry beyond its three bands"):
        element_to_matrix(p_op(), OscillatorMatrices(ops.dim, ops.q_mat, p, ops.h_mat))


def _peak_bytes(check, n, dim):
    tracemalloc.start()
    try:
        assert check(n, dim).ok
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _peaks_at_dims_4_and_256(check, n):
    # what a call allocates also depends on what the interpreter's free lists
    # hold when it starts, and earlier tests leave them as they may.  So each
    # dim starts alike: a full collection empties them (cheaply, with the
    # heap frozen), a first call fills them, and none runs until it is read.
    peaks = []
    gc.freeze()
    gc.disable()
    try:
        for dim in (4, 256):
            gc.collect()
            check(n, dim)
            peaks.append(_peak_bytes(check, n, dim))
    finally:
        gc.enable()
        gc.unfreeze()
    return peaks


@pytest.mark.parametrize(
    "check", [check_nested_anticomm_closed_form, check_shifted_expansions, check_main_identity_matrix]
)
def test_ladder_checks_allocate_nothing_of_size_dim_squared(check):
    # a direct record builds its own operators, grows their tower and powers
    # of H to n and forms a few polynomials of degree n + 1 in l: under 16 KiB
    # at n <= 8, and the same bytes at dim 4 as at dim 256
    for n in range(9):
        at_4, at_256 = _peaks_at_dims_4_and_256(check, n)
        assert at_4 == at_256 < 16 * 1024


def test_bridge_allocates_only_its_dense_realization():
    # the realization holds the powers p^b and the Horner sum by their bands,
    # whose size depends on n and not on dim: 134 KB at n = 8 at any dim,
    # where the dense realization this replaced took 4 MiB at dim 256
    for n in range(9):
        at_4, at_256 = _peaks_at_dims_4_and_256(check_symbolic_bridge, n)
        assert at_4 == at_256 < 256 * 1024


def test_hermite_stream_at_dim_256():
    # the golden stream runs hermite at dim 64 only; hashed the same way
    records = json.loads(reports_to_json(run_suite("hermite", dim=256)))
    for r in records:
        r["elapsed_ms"] = None
    blob = json.dumps(records, sort_keys=True).encode()
    assert len(records) == 36
    assert hashlib.sha256(blob).hexdigest()[:16] == "bc327917b7d568d3"


def test_commutation_relation_in_the_interior():
    # pq - qp = c at c = -2i on every column; the truncated dense matrices
    # agree away from their corner
    ops = build_operators(DIM)
    assert ops.p_mat * ops.q_mat - ops.q_mat * ops.p_mat == Bands.of(MINUS_2I)
    q, p, _ = _reference_ladders()
    interior = (p @ q - q @ p)[: DIM - 1, : DIM - 1]
    assert np.allclose(interior, -2j * np.eye(DIM - 1), atol=1e-12)


def test_a_constant_is_the_number_it_equals():
    three = Bands.of(3)
    assert three == 3 and 3 == three
    assert hash(three) == hash(3)
    assert hash(Bands.of(MINUS_2I)) == hash(MINUS_2I)
    assert Bands.of(Fraction(1, 2)) + Bands.of(Fraction(1, 2)) == 1
    # a constant times an operator scales every band
    q = build_operators(DIM).q_mat
    assert three * q == Bands.weighted_sum([(3, q)]) == q + q + q


def test_bands_have_no_c():
    with pytest.raises(TypeError, match="no c"):
        Bands({(0, 0): CPoly.c_power(1)})
    with pytest.raises(TypeError, match="no c"):
        Bands.weighted_sum([(CPoly.c_power(2), build_operators(DIM).q_mat)])


def test_a_lowering_band_comes_from_the_constructor():
    # a shift j may be negative, a power d of l may not: the ladders are
    # written as the module docstring writes them, and products and sums
    # reach every shift
    with pytest.raises(ValueError, match="negative exponent"):
        Bands({(0, -1): 1})
    assert Bands({(-1, 1): I, (1, 0): -I}) == build_operators(4).q_mat  # q = i (a - a+)
    lower = Bands({(-1, 1): 1})  # a f_l = l f_(l-1)
    assert lower == Bands._canonical({(-1, 1, 0): 1}, 1)
    raise_ = Bands({(1, 0): 1})  # a+ f_l = f_(l+1)
    ops = build_operators(DIM)
    assert lower + raise_ == ops.p_mat
    assert lower * raise_ == Bands({(0, 1): 1, (0, 0): 1})  # a a+ f_l = (l + 1) f_l
    assert lower * lower == Bands({(-2, 2): 1, (-2, 1): -1})  # l (l - 1) f_(l-2)


def test_realization_never_calls_the_engine(monkeypatch):
    # the bands keep their own product and share only the linear algebra:
    # growing the realization's chains and realizing a built element reads
    # no reordering weight and forms no engine product
    w = nested_anticommutator(q_op(), hamiltonian(), 4)
    expected = build_operators(DIM).tower[4]

    def refuse(*args):
        raise AssertionError("engine called")

    monkeypatch.setattr(weyl, "contraction_weights", refuse)
    monkeypatch.setattr(WeylElement, "__mul__", refuse)
    ops = build_operators(DIM)
    assert ops.tower[4] == expected
    assert ops.h_powers[4] == ops.h_mat * ops.h_mat * ops.h_mat * ops.h_mat
    assert ops.p_powers[9] == ops.p_mat * ops.p_powers[8]
    assert element_to_matrix(w, ops) == expected
    with pytest.raises(AssertionError, match="engine called"):
        q_op() * q_op()


def test_hermite_sweep_makes_at_most_150_realization_products(monkeypatch):
    # 148 at default bounds, counted at the one product kernel with a bracket
    # as two products: two per {x, H} of the tower and per {q, H^n}, one per
    # level of H^k and p^k, and one per Horner step of the bridge
    count = [0]
    true_product = oscillator._product

    def counted(x, y, s):
        count[0] += 1 + s
        return true_product(x, y, s)

    monkeypatch.setattr(oscillator, "_product", counted)
    assert all(r.ok for r in run_suite("hermite"))
    assert 0 < count[0] <= 150


def test_the_witness_names_the_first_differing_entry_exactly():
    # q f_0 = -i f_1, so 1/2 q and q first differ at column 0, row 1
    q = build_operators(DIM).q_mat
    assert _verdict(Bands.of(Fraction(1, 2)) * q, q) == "differs at l=0, row 1: -1/2*i != -1*i"
    assert _verdict(q, q) == ""
    # a band that vanishes on the first columns, or lies below f_0 there,
    # sends the scan on to the first column where it does not
    vanishing = Bands({(0, 2): 1}) - Bands({(0, 1): 1})  # l (l - 1) f_l
    assert _verdict(q + vanishing, q) == "differs at l=2, row 2: 2 != 0"
    lowering = Bands({(-3, 0): 5})  # 5 f_(l-3)
    assert _verdict(q, q + lowering) == "differs at l=3, row 0: 0 != 5"


def test_a_failing_witness_does_not_depend_on_the_scale():
    # each side is read over its own denominator, so a common factor, however
    # small, moves neither the column nor the row the witness names
    q, half = build_operators(DIM).q_mat, Bands.of(Fraction(1, 2))
    for scale in (1, Fraction(1, 2), Fraction(-3, 10**12), 10**40):
        s = Bands.of(scale)
        assert _verdict(s * half * q, s * q).startswith("differs at l=0, row 1: ")
    assert _verdict(half * half * q, half * q) == "differs at l=0, row 1: -1/4*i != -1/2*i"


def test_a_column_reads_each_entry_exactly():
    # the rows of column l are l + j for each band j, without those below f_0
    ops = build_operators(DIM)
    assert ops.q_mat.column(0) == {1: -I}
    assert ops.q_mat.column(3) == {2: 3 * I, 4: -I}
    assert ops.h_mat.column(5) == {5: 11}
    assert Bands.of(Fraction(1, 3)).column(7) == {7: Fraction(1, 3)}
    assert Bands().column(0) == {}
    with pytest.raises(ValueError, match="no column -1"):  # there is no f_(-1)
        ops.q_mat.column(-1)


def test_element_to_matrix_basics():
    ops = build_operators(DIM)
    assert element_to_matrix(scalar(5), ops) == 5
    assert element_to_matrix(scalar(Fraction(1, 3)), ops) == Bands.of(Fraction(1, 3))
    # the central symbol becomes -2i times the identity
    assert element_to_matrix(scalar(CPoly.c_power(1)), ops) == Bands.of(MINUS_2I)
    assert element_to_matrix(q_op(), ops) == ops.q_mat
    assert element_to_matrix(p_op(2), ops) == ops.p_mat * ops.p_mat
    assert element_to_matrix(WeylElement(), ops) == Bands()


def test_element_to_matrix_respects_ordering():
    # q p realized as Q P (normal order: q to the left)
    ops = build_operators(DIM)
    assert element_to_matrix(monomial(1, 1), ops) == ops.q_mat * ops.p_mat
    assert ops.q_mat * ops.p_mat != ops.p_mat * ops.q_mat


def test_hamiltonian_realizes_diagonally():
    # (p^2 + q^2)/2 is diag(2l + 1) on every column: the element's
    # denominator 2 cancels in the realization's canonical form
    ops = build_operators(DIM)
    assert element_to_matrix(hamiltonian(), ops) == ops.h_mat


def test_check_functions_pass():
    for n in (0, 1, 4, 8):
        assert check_nested_anticomm_closed_form(n).ok
        assert check_shifted_expansions(n).ok
        assert check_main_identity_matrix(n).ok
        assert check_symbolic_bridge(n).ok


def test_check_functions_report_errors_for_small_dim():
    # order 8 needs no dim beyond the realization's floor; below it, an error
    assert check_nested_anticomm_closed_form(8, dim=8).ok
    report = check_nested_anticomm_closed_form(8, dim=3)
    assert report.status == "error"
    assert "dim" in report.witness


ALL_CHECKS = [
    check_nested_anticomm_closed_form,
    check_shifted_expansions,
    check_main_identity_matrix,
    check_symbolic_bridge,
]


def _without_dim(report) -> dict:
    (record,) = json.loads(reports_to_json([report]))
    del record["elapsed_ms"], record["params"]["dim"]
    return record


@pytest.mark.parametrize("check", ALL_CHECKS)
def test_dim_is_a_label(check):
    # at every order a record reads the same at dim 4 as at dim 256, but for
    # the dim it carries
    assert check(3, dim=9).ok and check(8, dim=8).ok
    for n in range(9):
        at_4, at_256 = check(n, 4), check(n, 256)
        assert at_4.ok and at_256.ok
        assert (at_4.params["dim"], at_256.params["dim"]) == (4, 256)
        assert _without_dim(at_4) == _without_dim(at_256)


@pytest.mark.parametrize("check", ALL_CHECKS)
def test_a_record_carries_the_dim_of_its_operators(check):
    # given operators built at one dim, a record carries theirs, whatever
    # dim it is passed; without them it carries the dim it builds at
    ops = build_operators(64)
    for n in (0, 3):
        given_ops = check(n, 256, ops)
        assert given_ops.ok and given_ops.params["dim"] == 64
        assert _without_dim(given_ops) == _without_dim(check(n, 256))
        assert check(n, 256).params["dim"] == 256


@pytest.mark.parametrize("check", ALL_CHECKS)
def test_every_check_needs_min_dim(check):
    # the one floor on dim is build_operators' 4, at every order
    for n in (3, 8):
        report = check(n, dim=3)
        assert report.status == "error" and report.witness == "ValueError: need dim >= 4"
        assert check(n, dim=4).ok


@pytest.mark.parametrize("check", ALL_CHECKS)
def test_negative_order_is_an_error(check):
    # the closed forms at n = -1 would hold 4^-1 and l^0, and report a false FAIL
    report = check(-1)
    assert report.status == "error"
    assert "need n >= 0, got -1" in report.witness


@pytest.mark.parametrize("check", [check_nested_anticomm_closed_form, check_main_identity_matrix])
def test_order_120_at_dim_256_passes_exactly(check):
    # the entries reach (4l)^120 at l = 254, far beyond a float; in exact
    # integers the identities still hold on every column
    assert check(120, 256).ok


# -- parity with dense truncated products, numpy as the float reference ------

rationals = rationals_within(30, 6)
gaussians = st.builds(lambda re, im: re + im * I, rationals, rationals)
coeffs = st.builds(CPoly, st.dictionaries(st.integers(0, 3), gaussians, max_size=3))
elements = st.builds(
    WeylElement,
    st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), coeffs, max_size=3),
)


def _dense_element_to_matrix(w):
    # reference: one dense Q^a @ P^b product per term, at c = -2i
    q, p, _ = _reference_ladders()
    out = np.zeros((DIM, DIM), dtype=complex)
    for (a, b), coeff in w.terms.items():
        g = RefCPoly.of_cpoly(coeff).subst(MINUS_2I)
        qa = np.linalg.matrix_power(q, a)
        pb = np.linalg.matrix_power(p, b)
        out += complex(float(g.re), float(g.im)) * (qa @ pb)
    return out


def _dense_tower(n):
    # reference: the tower on D x D matrices, {x, H} = x @ H + H @ x
    q, _, h = _reference_ladders()
    tower = [q]
    for _ in range(n):
        tower.append(tower[-1] @ h + h @ tower[-1])
    return tower


def _close(new, old):
    return np.max(np.abs(new - old)) <= 1e-12 * max(np.max(np.abs(old)), 1)


@given(elements)
def test_banded_realization_matches_dense_products(w):
    # the dense products are exact on the columns l <= DIM-1-s that a
    # truncation leaves alone, s the largest a + b of a term q^a p^b of w
    bands = element_to_matrix(w, build_operators(DIM))
    cols = DIM - max((a + b for a, b in w.terms), default=0)
    assert _close(_dense(bands)[:, :cols], _dense_element_to_matrix(w)[:, :cols])


@given(st.lists(st.integers(-20, 20), min_size=1, max_size=9))
def test_elementwise_tower_matches_dense_brackets(weights):
    # H is diagonal, so the dense brackets are exact on every column, and the
    # dense sums hold nothing the bands drop
    tower = build_operators(DIM).tower.upto(len(weights) - 1)
    got = _dense(Bands.weighted_sum(zip(weights, tower)))
    expected = sum(wk * x for wk, x in zip(weights, _dense_tower(len(weights) - 1)))
    assert _close(got, expected)
    assert np.count_nonzero(expected) == np.count_nonzero(got)


_coeffs = st.builds(lambda re, im: re + im * I, st.fractions(-4, 4, max_denominator=3), st.integers(-3, 3))
_bands = st.builds(
    lambda terms, d, z: Bands({**terms, (0, d): z}),  # a shift-0 term in every factor
    st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(0, 6)), _coeffs, max_size=5),
    st.integers(0, 6),
    _coeffs,
)


def _composed(x, y, l):
    # column l of x y, entry by entry: x applied to each row of y's column l;
    # no Taylor expansion, only the columns' exact entries
    col: dict = {}
    for row, z in y.column(l).items():
        for out, w in x.column(row).items():
            col[out] = col.get(out, 0) + z * w
    return {row: z for row, z in col.items() if z}


@given(_bands, _bands)
def test_band_products_compose_column_by_column(x, y):
    # columns l >= 3 only: every shift is >= -3, so y f_l lands on rows >= 0,
    # where x's columns are read as the basis reads them
    for l in range(3, 13):
        assert (x * y).column(l) == _composed(x, y, l)
        bracket = _composed(x, y, l)
        for row, z in _composed(y, x, l).items():
            bracket[row] = bracket.get(row, 0) + z
        assert oscillator._product(x, y, 1).column(l) == {row: z for row, z in bracket.items() if z}
