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

No dense matrix product is formed.  Each {q,H}_k, ladder and side of the
main identity lies on q's two off-diagonals and is held by column, as the
(2, D) array of m[l-1, l] over m[l+1, l] (0 outside the matrix).  H is
diagonal, so {x, H} = x H + H x multiplies it by the pair sums
h_(l-1) + h_l over h_(l+1) + h_l: the tower to order n costs O(nD).  An
element sum z_ab q^a p^b, with s = max(a+b), is Horner in q over the powers
p^b, all held as their 2s + 1 diagonals: each step is one tridiagonal
multiply in O(sD), and the dense result is written once.
``build_operators`` builds each dim's matrices once, read-only, and the
checks read only band views cached per instance: a ladder record allocates
nothing of size D^2, a perturbed ladder still reaches every check, and a
q, p or H with an entry off the bands read is an ERROR record.

Comparisons are relative and column by column: max |actual - expected|
over a column, normalized by that column's largest |expected| entry.
Values grow like (2l)^n, so absolute thresholds are meaningless, and a
single scale for the whole matrix would hide errors in the low columns.
Only the symbolic bridge keeps one scale; ``check_symbolic_bridge`` says why.
A non-finite error (an overflowed matrix) fails the record, and so does any
error against a NaN tol.  Every check needs dim >= ``bounds.min_dim(n)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb

import numpy as np

from .bounds import DEFAULT_DIM, DEFAULT_TOL, min_dim
from .report import VerificationReport, run_check
from .scalars import MINUS_I
from .weyl import WeylElement, hamiltonian, nested_anticommutator, q_op


def _bands(m: np.ndarray, name: str, offsets: tuple, where: str) -> list[np.ndarray]:
    """m's diagonals at offsets, as read-only views; ValueError if m is nonzero elsewhere."""
    bands = [np.diagonal(m, k) for k in offsets]
    if np.count_nonzero(m) > sum(map(np.count_nonzero, bands)):
        raise ValueError(f"{name} has a nonzero entry {where}")
    return bands


@dataclass(frozen=True)
class OscillatorMatrices:
    """q, p and H at dim; a ``dataclasses.replace`` copy caches its own band views."""

    dim: int
    q_mat: np.ndarray
    p_mat: np.ndarray
    h_mat: np.ndarray

    @cached_property
    def q_cols(self) -> np.ndarray:  # q in column form
        up, down = _bands(self.q_mat, "q", (1, -1), "off its two off-diagonals")
        x = np.stack([np.append(0, up), np.append(down, 0)])
        x.flags.writeable = False
        return x

    @cached_property
    def h_diag(self) -> np.ndarray:
        return _bands(self.h_mat, "H", (0,), "off its diagonal")[0]

    @cached_property
    def tridiagonal(self) -> tuple[list[np.ndarray], ...]:  # q's and p's diagonals 0, 1, -1
        ladders = (("q", self.q_mat), ("p", self.p_mat))
        return tuple(_bands(m, name, (0, 1, -1), "beyond its three bands") for name, m in ladders)


@lru_cache(maxsize=4)
def build_operators(dim: int) -> OscillatorMatrices:
    """The matrices at dim, built once per dim and shared, so read-only."""
    if dim < 4:
        raise ValueError("need dim >= 4")
    w = np.sqrt(np.arange(1, dim) / 2.0) + 0j
    q = np.diag(1j * w, 1) - np.diag(1j * w, -1)
    p = np.diag(w, 1) + np.diag(w, -1)
    h = np.diag(np.arange(dim) + (0.5 + 0j))
    q.flags.writeable = p.flags.writeable = h.flags.writeable = False
    return OscillatorMatrices(dim, q, p, h)


def _operators(n: int, dim: int) -> OscillatorMatrices:
    """The matrices at dim, if dim is enough for every hermite check of order n."""
    if n < 0 or dim < min_dim(n):
        raise ValueError(f"need n >= 0, got {n}" if n < 0 else f"need dim >= {min_dim(n)}")
    return build_operators(dim)


def _band_mul(t: list[np.ndarray], x: np.ndarray) -> np.ndarray:
    """t @ x for a tridiagonal t as its diagonals 0, 1, -1, and x held as its
    stacked diagonals -s..s: row s + d holds x[r, r + d] at position r, and
    0 where r + d falls outside the matrix.  Diagonals beyond s are dropped."""
    out = t[0] * x
    out[1:, :-1] += t[1] * x[:-1, 1:]  # t[r, r+1] x[r+1, r+d]: diagonal d-1
    out[:-1, 1:] += t[2] * x[1:, :-1]  # t[r, r-1] x[r-1, r+d]: diagonal d+1
    return out


def element_to_matrix(w: WeylElement, mats: OscillatorMatrices) -> np.ndarray:
    """Realize a symbolic element at c = -i.  Exact only on columns
    l <= dim-1-max(a+b) over the element's support.  A q or p with a
    nonzero entry beyond its three bands raises ValueError."""
    q, p = mats.tridiagonal
    at = w.subst_c(MINUS_I)
    # every p^b and every Horner step q^(a'-a) p^b below has at most s
    # diagonals on either side, and is multiplied only while it has fewer
    s = safe_margin(at)
    z = np.zeros((s + 1, s + 1), dtype=complex)  # z[a, b]: the coefficient of q^a p^b
    for (a, b, _, i), n in at._num.items():
        z[a, b] += n / at._den * (1j if i else 1)
    powers = np.zeros((s + 1, 2 * s + 1, mats.dim), dtype=complex)  # p^b
    powers[0, s] = 1
    for b in range(s):
        powers[b + 1] = _band_mul(p, powers[b])
    acc = np.zeros_like(powers[0])
    for row in z[::-1]:  # Horner in q: acc = q acc + sum_b z_ab p^b
        acc = _band_mul(q, acc)
        for b in np.flatnonzero(row):
            acc += row[b] * powers[b]
    r = np.broadcast_to(np.arange(mats.dim), acc.shape)
    c = r + np.arange(-s, s + 1)[:, None]  # the column of each stored entry
    inside = (c >= 0) & (c < mats.dim)
    out = np.zeros((mats.dim, mats.dim), dtype=complex)
    out[r[inside], c[inside]] = acc[inside]
    return out


def safe_margin(w: WeylElement) -> int:
    return max((a + b for (a, b, _, _) in w._num), default=0)


def _ladder(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The column form of the matrix whose column l is  lo[l] e_(l-1) + hi[l] e_(l+1)."""
    return np.stack([np.append(0, lo[1:]), np.append(hi[:-1], 0)])


def _pair_sums(h: np.ndarray) -> np.ndarray:
    """{x, H} / x in column form, for H = diag(h)."""
    return _ladder(np.roll(h, 1) + h, np.roll(h, -1) + h)  # h_(l-1) + h_l, h_(l+1) + h_l


def _tower_sums(mats: OscillatorMatrices, *rows: list) -> list[np.ndarray]:
    """sum_k row[k] {q,H}_k in column form for each row of weights, one tower."""
    s, x = _pair_sums(mats.h_diag), mats.q_cols
    sums = [np.zeros_like(x) for _ in rows]
    for k in range(len(rows[0])):
        if k:
            x = x * s
        for acc, row in zip(sums, rows):
            if row[k]:
                acc += row[k] * x
    return sums


def _verdict(actual: np.ndarray, expected: np.ndarray | float, tol: float, scale=None) -> str:
    """Worst column error: max |actual - expected| over the column, relative
    to that column's largest |expected| entry, or to ``scale`` if given."""
    if scale is None:
        scale = np.max(np.abs(expected), axis=0)
    errs = np.max(np.abs(actual - expected), axis=0) / np.where(scale == 0, 1.0, scale)
    l = int(np.argmax(errs))  # the first NaN, if there is one
    if not np.isfinite(errs[l]):
        return f"non-finite relative error {errs[l]} at l={l}"
    if not errs[l] <= tol:  # not "errs[l] > tol", which is False for a NaN tol
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
    a = 1j * 2 ** (n - 0.5)
    expected = _ladder(a * l ** (n + 0.5), -a * (l + 1) ** (n + 0.5))
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
    rhs = mats.q_cols * _pair_sums(mats.h_diag**n)  # q H^n + H^n q
    return _verdict(lhs[:, :-1], rhs[:, :-1], tol)


@_record("symbolic_bridge")
def check_symbolic_bridge(n: int, dim: int, tol: float) -> str:
    """The symbolic {q,H}_n, realized at c = -i, against the matrix-native one.

    This couples the exact engine to the floating realization, so neither
    oracle is trusted alone.
    """
    mats = _operators(n, dim)
    symbolic = nested_anticommutator(q_op(), hamiltonian(), n)
    margin = safe_margin(symbolic)
    realized = element_to_matrix(symbolic, mats)
    (band,) = _tower_sums(mats, [0] * n + [1])
    l = np.arange(1, dim)  # realized - native, in place on q's two off-diagonals
    realized[l - 1, l] -= band[0, 1:]
    realized[l, l - 1] -= band[1, :-1]
    cols = slice(0, dim - margin)  # exact for both computations
    # One scale for all columns, unlike the other checks: the realized sum
    # cancels large terms of opposite sign, and at column 0 its rounding
    # error relative to the column reaches 4.4e-11 at n = 8 and 8.8e-9 at
    # n = 9, so per-column comparison would fail a correct engine from n = 9
    # on at the default tolerance.
    scale = np.max(np.abs(band[:, cols]))
    return _verdict(realized[:, cols], 0, tol, scale)
