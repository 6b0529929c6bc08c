"""Exact oscillator realization in the unnormalized Hermite basis.

The basis vector f_l = sqrt(l!) e_l stands for the Hermite function e_l of
H-eigenvalue l + 1/2, scaled as in Bargmann's Fock space (V. Bargmann, Comm.
Pure Appl. Math. 14, 1961), where the ladders a = d/dz and a+ = z act on z^l
as integer matrices: a f_l = l f_(l-1) and a+ f_l = f_(l+1).  Rescaling
q, p -> sqrt(2) q, sqrt(2) p sends c to 2c, so the engine's q, p and
H = (p^2 + q^2)/2 are realized at c = -2i, with Gaussian-integer entries:

    q f_l = i (l f_(l-1) - f_(l+1))       q = i (a - a+)
    p f_l =    l f_(l-1) + f_(l+1)        p = a + a+
    H f_l = (2l + 1) f_l                  H = 2 a+ a + 1

An operator is a ``Bands``: it maps f_l to sum_j P_j(l) f_(l+j), each P_j a
polynomial in l, stored flat (see ``scalars.FlatTerms``) under keys
(j, d, i) for the term i^i l^d of P_j.  One such value describes every
column at once, so nothing is truncated and no float or dense matrix is
formed.  A product, and a bracket {x, y} as one accumulation of x y + y x
(``_product``), reads the left factor's entries at l + j (a maps P_j(l) at
shift j to (l+j) P_j(l) at shift j-1).  A left term is expanded in Taylor
terms once for all the right factor's terms off shift 0, and not at all for
those at shift 0, where (l + 0)^e is l^e: a diagonal factor such as H costs
no Taylor terms.  The product calls nothing of the engine's, the H-brackets
{q,H}_k stay on q's two off-diagonals, and the symbolic bridge realizes the
engine's {q,H}_n by Horner in q over the powers of p.  ``build_operators`` makes the
ladders, with four chains (``scalars.Chain``) grown from them on demand: the
realization's {q,H}_k, the powers H^k and p^k, and the engine's {q,H}_k.  Only the caller keeps them:
a hermite sweep builds one set for all its records and drops it when it
ends, a direct check builds its own.  A q with an entry off its two
off-diagonals, an H off its diagonal, or a q or p beyond its three bands is
an ERROR record.

A record passes exactly when its two sides are equal ``Bands``, that is,
equal on every column at once.  Otherwise its witness scans l = 0, 1, ...
and names the first column and row where they differ, with both exact
entries: a nonzero band P_j of degree d vanishes at no more than d columns
l >= max(0, -j), so the scan is short.  So ``dim`` is a label: every
record carries it, and no verdict reads it.
"""

from __future__ import annotations

from itertools import count
from math import comb

from .report import VerificationReport, _orders, run_check
from .scalars import I, Chain, CPoly, FlatTerms, _lifting
from .weyl import WeylElement, hamiltonian, nested_anticommutator, q_op

C = -2 * I  # the value of c at which the ladders satisfy pq - qp = c
DEFAULT_DIM = 64  # the dim a hermite record carries unless it is given one


class Bands(FlatTerms):
    """The operator f_l -> sum_j P_j(l) f_(l+j), under keys (j, d, i) for the
    term i^i l^d of P_j; a constant is a multiple of the identity.  No c.
    The constructor takes {(j, d): number or Q(i) constant}, with a shift j
    of either sign and a power d >= 0.  Immutable."""

    __slots__ = ()
    _unit = (0, 0)
    _signed = 1
    _scalar_key = staticmethod(lambda key: None if key[0] or key[1] else (0, key[2]))
    __repr__ = object.__repr__  # no __str__: FlatTerms.__repr__ would recurse through it

    @staticmethod
    def _key(head: tuple[int, int], k: int, i: int) -> tuple[int, int, int]:
        if k:
            raise TypeError("a band operator has no c")
        return (*head, i)

    @_lifting
    def __mul__(self, other):
        return _product(self, other, 0)

    def column(self, l: int) -> dict:
        """Column l >= 0, the image of f_l, as {row: CPoly constant}: its
        nonzero entries, without the rows below f_0."""
        if l < 0:
            raise ValueError(f"no column {l}: the basis starts at f_0")
        rows: dict = {}
        for (j, d, i), n in self._num.items():
            if l + j >= 0:
                part = rows.setdefault(l + j, {})
                part[0, i] = part.get((0, i), 0) + n * l**d
        col = {row: CPoly._canonical(part, self._den) for row, part in rows.items()}
        return {row: z for row, z in col.items() if z}


def _product(x: Bands, y: Bands, s: int) -> Bands:
    """x y + s (y x), s in {0, 1}, in one accumulation: ``Bands.__mul__`` is
    s = 0 and the bracket {x, y} s = 1; x's entries are read at l + j.  A
    left term m l^e meets the right terms at shift 0 as it is, (l + 0)^e
    being l^e, and the others through its Taylor terms, each formed once for
    all of them: a diagonal factor such as H costs no Taylor terms."""
    out: dict = {}
    for left, right in ((x._num, y._num), (y._num, x._num))[: 1 + s]:
        still, moving = [], []  # the right terms at shift 0, and the others
        for term in right.items():
            (moving if term[0][0] else still).append(term)
        for (j0, e, k), m in left.items():
            for (_, d, i), n in still:
                v = m * n
                key = (j0, d + e, i ^ k)
                out[key] = out.get(key, 0) + (-v if i & k else v)  # i^2 = -1
            for r in range(e + 1) if moving else ():  # (l + j)^e = sum_r C(e,r) j^(e-r) l^r
                w, p = m * comb(e, r), e - r
                for (j, d, i), n in moving:
                    v = w * n * j**p if p else w * n
                    key = (j + j0, d + r, i ^ k)
                    out[key] = out.get(key, 0) + (-v if i & k else v)
    return Bands._canonical(out, x._den * y._den)


def _bands(m: Bands, name: str, shifts: tuple, where: str) -> Bands:
    """m, if its nonzero entries lie on the given bands; ValueError otherwise."""
    if any(j not in shifts for j, _, _ in m._num):
        raise ValueError(f"{name} has a nonzero entry {where}")
    return m


class OscillatorMatrices:
    """q, p and H as ``Bands``, and the chains grown from them: ``tower``
    {q,H}_k, ``h_powers`` H^k, ``p_powers`` p^k and ``symbolic``, the
    engine's {q,H}_k.  A new ``OscillatorMatrices(...)`` grows its own chains,
    so a perturbed ladder reaches every check."""

    # dim only labels the records; perfbench's tracer reads it
    __slots__ = ("dim", "q_mat", "p_mat", "h_mat", "tower", "h_powers", "p_powers", "symbolic")

    def __init__(self, dim: int, q_mat: Bands, p_mat: Bands, h_mat: Bands):
        self.dim, self.q_mat, self.p_mat, self.h_mat = dim, q_mat, p_mat, h_mat
        # the steps hold the ladders, not self, so no cycle keeps self alive
        self.tower = Chain(q_mat, lambda x: _product(x, h_mat, 1))
        self.h_powers, self.p_powers = h_mat._powers(), p_mat._powers()
        q, h = q_op(), hamiltonian()  # one H for every step
        self.symbolic = Chain(q, lambda w: nested_anticommutator(w, h, 1))


def build_operators(dim: int) -> OscillatorMatrices:
    """The ladders, and the dim the records carry.  No operator is truncated,
    so dim bounds nothing; it stays an argument, floored at 4, because the
    benchmark's oracles workload passes --dim 256 and perfbench/gate.json
    pins the records that carry it."""
    if dim < 4:
        raise ValueError("need dim >= 4")
    q = Bands({(-1, 1): I, (1, 0): -I})  # i l f_(l-1) - i f_(l+1)
    p = Bands({(-1, 1): 1, (1, 0): 1})  # l f_(l-1) + f_(l+1)
    h = Bands({(0, 1): 2, (0, 0): 1})  # (2l + 1) f_l
    return OscillatorMatrices(dim, q, p, h)


def _operators(n: int, dim: int, ops: OscillatorMatrices | None) -> OscillatorMatrices:
    """ops, or the operators at dim built anew, if n >= 0 and q and H lie on
    the bands the tower reads."""
    _orders(n=n)
    ops = build_operators(dim) if ops is None else ops
    _bands(ops.q_mat, "q", (-1, 1), "off its two off-diagonals")
    _bands(ops.h_mat, "H", (0,), "off its diagonal")
    return ops


def element_to_matrix(w: WeylElement, ops: OscillatorMatrices) -> Bands:
    """Realize a symbolic element at c = -2i, exactly on every column.  A q
    or p with a nonzero entry beyond its three bands raises ValueError."""
    q = _bands(ops.q_mat, "q", (-1, 0, 1), "beyond its three bands")
    _bands(ops.p_mat, "p", (-1, 0, 1), "beyond its three bands")
    terms, acc = w.subst_c(C).terms, Bands()  # {(a, b): z in Q(i)} for z q^a p^b
    for a in range(max((a for a, _ in terms), default=-1), -1, -1):  # Horner in q: acc = q acc + sum_b z_ab p^b
        acc = Bands.weighted_sum([(1, q * acc), *((z, ops.p_powers[b]) for (r, b), z in terms.items() if r == a)])
    return acc


def _column(lo: dict, hi: dict) -> Bands:
    """The operator f_l -> i (lo(l) f_(l-1) + hi(l) f_(l+1)), lo and hi as {degree: n}."""
    return Bands._canonical({**{(-1, d, 1): n for d, n in lo.items()}, **{(1, d, 1): n for d, n in hi.items()}}, 1)


def _power(a: int, b: int, n: int, w: int = 1, up: int = 0) -> dict:
    """w l^up (a l + b)^n as {degree: coefficient}, by the binomial theorem."""
    return {k + up: w * comb(n, k) * a**k * b ** (n - k) for k in range(n + 1)}


def _verdict(actual: Bands, expected: Bands) -> str:
    """"" if actual == expected, else the first column l, and in it the first
    row, where they differ, with both exact entries."""
    if actual == expected:
        return ""
    for l in count():  # ends: some band of actual - expected is nonzero at all but finitely many l
        a, e = actual.column(l), expected.column(l)
        if a != e:
            row = min(r for r in a.keys() | e.keys() if a.get(r, 0) != e.get(r, 0))
            return f"differs at l={l}, row {row}: {a.get(row, 0)} != {e.get(row, 0)}"


def _record(check: str):
    """Make a witness function of (n, ops) a hermite record: an exception it
    raises becomes an ERROR record, a non-empty witness a FAIL.  The record
    takes the sweep's ``ops`` and their dim, or builds its own at dim without them."""

    def wrap(witness):
        def record(n: int, dim: int = DEFAULT_DIM, ops: OscillatorMatrices | None = None) -> VerificationReport:
            # no verdict reads a tolerance or dim: both fields stay because
            # perfbench/gate.json and the golden stream pin the params
            params = {"check": check, "n": n, "dim": dim if ops is None else ops.dim, "tol": 1e-9}
            return run_check("hermite", params, lambda: witness(n, _operators(n, dim, ops)))

        record.__name__ = record.__qualname__ = witness.__name__
        record.__doc__ = witness.__doc__
        return record

    return wrap


@_record("closed_form")
def check_nested_anticomm_closed_form(n: int, ops: OscillatorMatrices) -> str:
    """{q,H}_n f_l  ==  i 4^n (l^(n+1) f_(l-1) - (l+1)^n f_(l+1))."""
    return _verdict(ops.tower[n], _column(_power(4, 0, n, up=1), _power(4, 4, n, -1)))


@_record("shifted_expansions")
def check_shifted_expansions(n: int, ops: OscillatorMatrices) -> str:
    """({q,H}+2)_n and ({q,H}-2)_n columns against their (4l + 2 +- 2)^n forms."""
    for u in (2, -2):
        actual = Bands.weighted_sum((comb(n, k) * u ** (n - k), x) for k, x in enumerate(ops.tower.upto(n)))
        witness = _verdict(actual, _column(_power(4, u, n, up=1), _power(4, 4 + u, n, -1)))
        if witness:
            return f"sign {u:+d}: {witness}"
    return ""


@_record("main_identity")
def check_main_identity_matrix(n: int, ops: OscillatorMatrices) -> str:
    """({q,H}-2)_n + ({q,H}+2)_n  ==  2^n (q H^n + H^n q)."""
    rhs = Bands.weighted_sum([(2**n, _product(ops.tower[0], ops.h_powers[n], 1))])  # first, so the peak holds no tower
    weights = (comb(n, k) * (1 + (-1) ** (n - k)) * 2 ** (n - k) for k in range(n + 1))
    return _verdict(Bands.weighted_sum(zip(weights, ops.tower.upto(n))), rhs)


@_record("symbolic_bridge")
def check_symbolic_bridge(n: int, ops: OscillatorMatrices) -> str:
    """The symbolic {q,H}_n, realized at c = -2i, against the realization's own.

    This couples the exact engine to the oscillator realization, so neither
    oracle is trusted alone.
    """
    return _verdict(element_to_matrix(ops.symbolic[n], ops), ops.tower[n])
