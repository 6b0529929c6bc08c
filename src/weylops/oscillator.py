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

Comparisons are relative and column by column: max |actual - expected|
over a column, normalized by that column's largest |expected| entry.
Values grow like (2l)^n, so absolute thresholds are meaningless, and a
single scale for the whole matrix would hide errors in the low columns.
Only the symbolic bridge keeps one scale; ``check_symbolic_bridge`` says why.
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
    w = np.sqrt(np.arange(1, dim) / 2.0)
    q = 1j * np.diag(w, 1) - 1j * np.diag(w, -1)
    p = np.diag(w, 1) + np.diag(w, -1)
    h = np.diag(np.arange(dim) + 0.5)
    return OscillatorMatrices(dim, q.astype(complex), p.astype(complex), h.astype(complex))


def element_to_matrix(w: WeylElement, mats: OscillatorMatrices) -> np.ndarray:
    """Realize a symbolic element at c = -i.  Exact only on columns
    l <= dim-1-max(a+b) over the element's support."""
    dim = mats.dim
    out = np.zeros((dim, dim), dtype=complex)
    powers_q: dict[int, np.ndarray] = {0: np.eye(dim, dtype=complex)}
    powers_p: dict[int, np.ndarray] = {0: np.eye(dim, dtype=complex)}

    def power(cache: dict[int, np.ndarray], base: np.ndarray, k: int) -> np.ndarray:
        while k not in cache:
            j = max(cache)
            cache[j + 1] = cache[j] @ base
        return cache[k]

    for (a, b), coeff in w.terms.items():
        g = coeff.subst(MINUS_I)
        z = complex(float(g.re), float(g.im))
        out += z * (power(powers_q, mats.q_mat, a) @ power(powers_p, mats.p_mat, b))
    return out


def safe_margin(w: WeylElement) -> int:
    return max((a + b for (a, b) in w.terms), default=0)


def _nested_anticomm_matrix(mats: OscillatorMatrices, n: int) -> np.ndarray:
    x = mats.q_mat
    for _ in range(n):
        x = x @ mats.h_mat + mats.h_mat @ x
    return x


def _rel_err(actual: np.ndarray, expected: np.ndarray) -> float:
    scale = float(np.max(np.abs(expected)))
    if scale == 0.0:
        scale = 1.0
    return float(np.max(np.abs(actual - expected))) / scale


def _ladder_column(dim: int, l: int, lo: complex, hi: complex) -> np.ndarray:
    """Column vector  lo * e_(l-1) + hi * e_(l+1)."""
    col = np.zeros(dim, dtype=complex)
    if l - 1 >= 0:
        col[l - 1] = lo
    if l + 1 < dim:
        col[l + 1] = hi
    return col


def check_nested_anticomm_closed_form(
    n: int, dim: int = DEFAULT_DIM, tol: float = DEFAULT_TOL
) -> "VerificationReport":
    """{q,H}_n e_l  ==  i 2^(n-1/2) (l^(n+1/2) e_(l-1) - (l+1)^(n+1/2) e_(l+1))."""

    def check() -> str:
        if dim < n + 4:
            raise ValueError("need dim >= n + 4")
        mats = build_operators(dim)
        x = _nested_anticomm_matrix(mats, n)
        worst = 0.0
        worst_l = -1
        for l in range(dim - 1):
            expected = _ladder_column(
                dim,
                l,
                1j * 2 ** (n - 0.5) * l ** (n + 0.5),
                -1j * 2 ** (n - 0.5) * (l + 1) ** (n + 0.5),
            )
            err = _rel_err(x[:, l], expected)
            if err > worst:
                worst, worst_l = err, l
        if worst > tol:
            return f"worst relative error {worst:.3e} at l={worst_l} (tol {tol:.1e})"
        return ""

    return run_check("hermite", {"check": "closed_form", "n": n, "dim": dim, "tol": tol}, check)


def check_shifted_expansions(
    n: int, dim: int = DEFAULT_DIM, tol: float = DEFAULT_TOL
) -> "VerificationReport":
    """({q,H}+1)_n and ({q,H}-1)_n columns against their (2l+-1)^n forms."""

    def check() -> str:
        if dim < n + 4:
            raise ValueError("need dim >= n + 4")
        mats = build_operators(dim)
        nested = [_nested_anticomm_matrix(mats, k) for k in range(n + 1)]
        for sign in (1, -1):
            s = sum(comb(n, k) * sign ** (n - k) * nested[k] for k in range(n + 1))
            for l in range(dim - 1):
                expected = _ladder_column(
                    dim,
                    l,
                    1j * np.sqrt(l / 2.0) * (2 * l + sign) ** n,
                    -1j * np.sqrt((l + 1) / 2.0) * (2 * l + 2 + sign) ** n,
                )
                err = _rel_err(s[:, l], expected)
                if err > tol:
                    return f"sign {sign:+d}: relative error {err:.3e} at l={l}"
        return ""

    return run_check(
        "hermite", {"check": "shifted_expansions", "n": n, "dim": dim, "tol": tol}, check
    )


def check_main_identity_matrix(
    n: int, dim: int = DEFAULT_DIM, tol: float = DEFAULT_TOL
) -> "VerificationReport":
    """(1/2^n)[({q,H}-1)_n + ({q,H}+1)_n]  ==  q H^n + H^n q  on safe columns."""

    def check() -> str:
        if dim < n + 4:
            raise ValueError("need dim >= n + 4")
        mats = build_operators(dim)
        nested = [_nested_anticomm_matrix(mats, k) for k in range(n + 1)]
        lhs = sum(
            comb(n, k) * (1 ** (n - k) + (-1) ** (n - k)) * nested[k] for k in range(n + 1)
        ) / 2.0**n
        hn = np.diag(np.diag(mats.h_mat) ** n)
        rhs = mats.q_mat @ hn + hn @ mats.q_mat
        errs = [_rel_err(lhs[:, l], rhs[:, l]) for l in range(dim - 1)]
        worst = max(errs)
        if worst > tol:
            return f"worst relative error {worst:.3e} at l={errs.index(worst)} (tol {tol:.1e})"
        return ""

    return run_check(
        "hermite", {"check": "main_identity", "n": n, "dim": dim, "tol": tol}, check
    )


def check_symbolic_bridge(
    n: int, dim: int = DEFAULT_DIM, tol: float = DEFAULT_TOL
) -> "VerificationReport":
    """The symbolic {q,H}_n, realized at c = -i, against the matrix-native one.

    This couples the exact engine to the floating realization, so neither
    oracle is trusted alone.
    """

    def check() -> str:
        symbolic = nested_anticommutator(q_op(), hamiltonian(), n)
        margin = safe_margin(symbolic)
        if dim < margin + 3:
            raise ValueError("need dim >= margin + 3")
        mats = build_operators(dim)
        realized = element_to_matrix(symbolic, mats)
        native = _nested_anticomm_matrix(mats, n)
        cols = slice(0, dim - margin)  # exact for both computations
        # One scale for all columns, unlike the other checks: the realized
        # sum cancels large terms of opposite sign, and at column 0 its
        # rounding error relative to the column reaches 5.6e-10 at n = 8
        # and 1.4e-8 at n = 9, so per-column comparison would fail a
        # correct engine from n = 9 on at the default tolerance.
        err = _rel_err(realized[:, cols], native[:, cols])
        if err > tol:
            return f"relative error {err:.3e} on columns l < {dim - margin}"
        return ""

    return run_check(
        "hermite", {"check": "symbolic_bridge", "n": n, "dim": dim, "tol": tol}, check
    )
