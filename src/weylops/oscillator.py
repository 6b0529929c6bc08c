"""Truncated oscillator-matrix realization on the Hermite-function basis.

The basis vector e_l stands for the Hermite function with H-eigenvalue
l + 1/2.  On it the operators act as ladder matrices (c = -i conventions):

    q e_l = i ( sqrt(l/2) e_(l-1) - sqrt((l+1)/2) e_(l+1) )
    p e_l =     sqrt(l/2) e_(l-1) + sqrt((l+1)/2) e_(l+1)
    H e_l = (l + 1/2) e_l

Truncating to dimension D corrupts only what touches the missing e_D, so
H-brackets of q are exact on columns l <= D-2 (H is diagonal and never
propagates the corruption).  A product q^a p^b is exact on columns
l <= D-1-(a+b); comparisons stay inside those safe regions.

No dense matrix product is formed, so every step costs O(D^2): H is
diagonal, so {x, H} = x H + H x = x * (h_i + h_j) elementwise, and an
element sum z_ab q^a p^b is Horner in q over the powers p^b, each step one
tridiagonal multiply.  The bands are read from the matrices
``build_operators`` returns, so a perturbed ladder reaches every check.

Comparisons are relative and column by column: max |actual - expected|
over a column, normalized by that column's largest |expected| entry.
Values grow like (2l)^n, so absolute thresholds are meaningless, and a
single scale for the whole matrix would hide errors in the low columns.
Only the symbolic bridge keeps one scale; ``check_symbolic_bridge`` says why.
A non-finite error (an overflowed matrix) fails the record.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .report import VerificationReport, run_check
from .scalars import MINUS_I
from .weyl import WeylElement, hamiltonian, nested_anticommutator, q_op

DEFAULT_DIM = 64
DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class OscillatorMatrices:
    dim: int
    q_mat: np.ndarray
    p_mat: np.ndarray
    h_mat: np.ndarray


def build_operators(dim: int) -> OscillatorMatrices:
    if dim < 4:
        raise ValueError("need dim >= 4")
    w = np.sqrt(np.arange(1, dim) / 2.0) + 0j
    q = np.diag(1j * w, 1) - np.diag(1j * w, -1)
    p = np.diag(w, 1) + np.diag(w, -1)
    h = np.diag(np.arange(dim) + (0.5 + 0j))
    return OscillatorMatrices(dim, q, p, h)


def _operators(n: int, dim: int) -> OscillatorMatrices:
    if dim < n + 4:
        raise ValueError("need dim >= n + 4")
    return build_operators(dim)


def _tri_mul(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """t @ x for a tridiagonal t, read off its three bands."""
    out = np.diagonal(t)[:, None] * x
    out[:-1] += np.diagonal(t, 1)[:, None] * x[1:]
    out[1:] += np.diagonal(t, -1)[:, None] * x[:-1]
    return out


def element_to_matrix(w: WeylElement, mats: OscillatorMatrices) -> np.ndarray:
    """Realize a symbolic element at c = -i.  Exact only on columns
    l <= dim-1-max(a+b) over the element's support."""
    rows: dict[int, dict[int, complex]] = {}  # a -> {b: z_ab}
    for (a, b), coeff in w.terms.items():
        g = coeff.subst(MINUS_I)
        rows.setdefault(a, {})[b] = complex(float(g.re), float(g.im))
    powers = [np.eye(mats.dim, dtype=complex)]  # p^b
    for _ in range(max((b for row in rows.values() for b in row), default=0)):
        powers.append(_tri_mul(mats.p_mat, powers[-1]))
    out = np.zeros((mats.dim, mats.dim), dtype=complex)
    for a in range(max(rows, default=0), -1, -1):
        out = _tri_mul(mats.q_mat, out)  # Horner: out = q out + sum_b z_ab p^b
        for b, z in rows.get(a, {}).items():
            out += z * powers[b]
    return out


def safe_margin(w: WeylElement) -> int:
    return max((a + b for (a, b) in w.terms), default=0)


def _tower_sums(mats: OscillatorMatrices, *rows: list) -> list[np.ndarray]:
    """sum_k row[k] {q,H}_k for each row of weights, building the tower once."""
    h = np.diagonal(mats.h_mat)
    s = h[:, None] + h[None, :]  # {x, H} = x * s
    x = mats.q_mat
    sums = [np.zeros_like(x) for _ in rows]
    for k in range(len(rows[0])):
        if k:
            x = x * s
        for acc, row in zip(sums, rows):
            if row[k]:
                acc += row[k] * x
    return sums


def _ladder(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The matrix whose column l is  lo[l] e_(l-1) + hi[l] e_(l+1)."""
    return np.diag(lo[1:], 1) + np.diag(hi[:-1], -1)


def _verdict(actual: np.ndarray, expected: np.ndarray, tol: float, scale=None) -> str:
    """Worst column error: max |actual - expected| over the column, relative
    to that column's largest |expected| entry, or to ``scale`` if given."""
    if scale is None:
        scale = np.max(np.abs(expected), axis=0)
    errs = np.max(np.abs(actual - expected), axis=0) / np.where(scale == 0, 1.0, scale)
    l = int(np.argmax(errs))  # the first NaN, if there is one
    if not np.isfinite(errs[l]):
        return f"non-finite relative error {errs[l]} at l={l}"
    if errs[l] > tol:
        return f"worst relative error {errs[l]:.3e} at l={l} (tol {tol:.1e})"
    return ""


def _record(check: str):
    """Make a witness function of (n, dim, tol) a hermite record: an
    exception it raises becomes an ERROR record, a non-empty witness a FAIL."""

    def wrap(witness):
        def record(n: int, dim: int = DEFAULT_DIM, tol: float = DEFAULT_TOL) -> VerificationReport:
            params = {"check": check, "n": n, "dim": dim, "tol": tol}
            return run_check("hermite", params, lambda: witness(n, dim, tol))

        record.__name__ = record.__qualname__ = witness.__name__
        record.__doc__ = witness.__doc__
        return record

    return wrap


@_record("closed_form")
def check_nested_anticomm_closed_form(n: int, dim: int, tol: float) -> str:
    """{q,H}_n e_l  ==  i 2^(n-1/2) (l^(n+1/2) e_(l-1) - (l+1)^(n+1/2) e_(l+1))."""
    mats = _operators(n, dim)
    (x,) = _tower_sums(mats, [0] * n + [1])
    l = np.arange(dim, dtype=float)
    expected = _ladder(
        1j * 2 ** (n - 0.5) * l ** (n + 0.5), -1j * 2 ** (n - 0.5) * (l + 1) ** (n + 0.5)
    )
    return _verdict(x[:, :-1], expected[:, :-1], tol)


@_record("shifted_expansions")
def check_shifted_expansions(n: int, dim: int, tol: float) -> str:
    """({q,H}+1)_n and ({q,H}-1)_n columns against their (2l+-1)^n forms."""
    mats = _operators(n, dim)
    signs = (1, -1)
    rows = ([comb(n, k) * sign ** (n - k) for k in range(n + 1)] for sign in signs)
    l = np.arange(dim, dtype=float)
    for sign, s in zip(signs, _tower_sums(mats, *rows)):
        expected = _ladder(
            1j * np.sqrt(l / 2.0) * (2 * l + sign) ** n,
            -1j * np.sqrt((l + 1) / 2.0) * (2 * l + 2 + sign) ** n,
        )
        witness = _verdict(s[:, :-1], expected[:, :-1], tol)
        if witness:
            return f"sign {sign:+d}: {witness}"
    return ""


@_record("main_identity")
def check_main_identity_matrix(n: int, dim: int, tol: float) -> str:
    """(1/2^n)[({q,H}-1)_n + ({q,H}+1)_n]  ==  q H^n + H^n q  on safe columns."""
    mats = _operators(n, dim)
    (lhs,) = _tower_sums(mats, [comb(n, k) * (1 + (-1) ** (n - k)) for k in range(n + 1)])
    lhs /= 2.0**n
    hn = np.diagonal(mats.h_mat) ** n
    rhs = mats.q_mat * (hn[:, None] + hn[None, :])  # q H^n + H^n q, H diagonal
    return _verdict(lhs[:, :-1], rhs[:, :-1], tol)


@_record("symbolic_bridge")
def check_symbolic_bridge(n: int, dim: int, tol: float) -> str:
    """The symbolic {q,H}_n, realized at c = -i, against the matrix-native one.

    This couples the exact engine to the floating realization, so neither
    oracle is trusted alone.
    """
    symbolic = nested_anticommutator(q_op(), hamiltonian(), n)
    margin = safe_margin(symbolic)
    if dim < margin + 3:
        raise ValueError("need dim >= margin + 3")
    mats = build_operators(dim)
    realized = element_to_matrix(symbolic, mats)
    (native,) = _tower_sums(mats, [0] * n + [1])
    cols = slice(0, dim - margin)  # exact for both computations
    # One scale for all columns, unlike the other checks: the realized sum
    # cancels large terms of opposite sign, and at column 0 its rounding
    # error relative to the column reaches 4.4e-11 at n = 8 and 8.8e-9 at
    # n = 9, so per-column comparison would fail a correct engine from n = 9
    # on at the default tolerance.
    scale = np.max(np.abs(native[:, cols]))
    return _verdict(realized[:, cols], native[:, cols], tol, scale)
