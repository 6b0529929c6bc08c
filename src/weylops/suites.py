"""Verification suites for the operator identity families.

Each ``verify_*`` function checks one identity family on a concrete instance
and returns a :class:`VerificationReport`; failures never raise, the report
carries a witness string describing the first mismatch instead.  ``run_suite``
sweeps a named family over its default (or given) parameter ranges and
is what the command line drives; it is also where the bounds of a sweep are
checked, so a sweep called from Python refuses what the command line refuses.

Every symbolic record is compared with c formal.  The ``bender`` identities
are stated in the source for [q, p] = i; the algebra is graded (q and p of
weight 1, c of weight 2), so they hold with c formal once each constant
carries a power of u = ic, which is 1 at c = -i:

  2^-n {q, H}_n                    = 1/2 {q, sum_m e_(n,m) u^(n-m) H^m}
  2^-n {q, H - u/2}_n              = 1/2 {q, sum_m f_(n,m) u^(n-m) H^m}
  2^-n [({q,H}-u)_n + ({q,H}+u)_n] = {q, H^n}

with H = (p^2 + q^2)/2, E_n(x + 1/2) = sum_m e_(n,m) x^m and
E_n(x) = sum_m f_(n,m) x^m, and the superoperators' even-order cross sum
holds with c formal as it stands.  Only the matrix realization sets c to a
number, so a fault in that substitution cannot hide a fault in a symbolic
record.

Both suites build their brackets and powers of H as chains (``scalars.Chain``),
each level once per sweep: a sweep makes its chains when it starts and they
die when it returns, as a direct verify_* call's die with the call, so
nothing one sweep built reaches the next.  The hermite sweep does the same
with its oscillator ladders (``oscillator.build_operators``).  Every
right-hand side is one weighted sum, so nothing is multiplied by a constant
and bender compares {q, H}_n with 2^n times the right-hand sides above; its
levels carry {q, H^m} = q H^m + H^m q, summed once.  Every symbolic side is
compared with != (``_diff``), and a difference is formed only for a witness.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache, lru_cache, partial
from itertools import product
from math import comb, factorial, lcm
from typing import Callable, Iterable

from .report import VerificationReport, _orders, run_check
from .scalars import Chain, CPoly, I
from .sequences import (
    RatPoly,
    bernoulli_number,
    euler_at_half,
    euler_polynomial,
    euler_zero,
    kappa,
    lam,
    shifted_euler,
)
from .weyl import (
    WeylElement,
    anticommutator,
    bracket_tower,
    commutator,
    hadamard_conjugate,
    hamiltonian,
    monomial,
    nested_anticommutator,
    p_op,
    poly_of_element,
    q_op,
)


def _diff(forms: Iterable[tuple[str, WeylElement, WeylElement]]) -> str:
    """The first differing (label, lhs, rhs) form's witness, or "": its count of differing
    (a, b) terms and the first, with both sides' coefficients.  No later form is read."""
    for label, lhs, rhs in forms:
        if lhs != rhs:
            d = lhs - rhs
            a, b = min(d.terms)
            return (f"{label}: lhs - rhs has {len(d.terms)} term(s), first at q^{a}p^{b}: lhs "
                    f"({lhs.coefficient(a, b)}) vs rhs ({rhs.coefficient(a, b)}); lhs - rhs = {d}")
    return ""


# -- symmetrized powers of H -------------------------------------------------


def _bender_chains() -> tuple[Chain, ...]:
    """{q,H}_k, {q,H-u/2}_k, (q H^k, H^k q, {q,H^k}) and u^k: one bender sweep's chains."""
    q, h, u = q_op(), hamiltonian(), CPoly.c_power(1, I)
    centered_h = h - u * Fraction(1, 2)
    level = lambda qh, hq: (qh, hq, qh + hq)  # (q H^m, H^m q, {q, H^m}), summed once
    return (
        Chain(q, lambda w: nested_anticommutator(w, h, 1)),
        Chain(q, lambda w: nested_anticommutator(w, centered_h, 1)),
        Chain(level(q, q), lambda lv: level(lv[0] * h, h * lv[1])),
        u._powers(),
    )


def _bender(n: int, chains: tuple[Chain, ...]) -> VerificationReport:
    """verify_bender(n), reading its brackets from ``chains``, which the
    record grows to level n: its time pays for the levels it adds, and a
    failure while adding them is its error.  Each right-hand side is 2^n
    times that of the module docstring."""

    def check() -> str:
        _orders(n=n)
        shifted, centered, h_pow, u_pow = chains

        def euler_rhs(poly: RatPoly) -> WeylElement:  # 2^n/2 {q, sum_m a_m u^(n-m) H^m}
            return WeylElement.weighted_sum(
                (u_pow[n - m] * Fraction(v << n, poly._den << 1), h_pow[m][2]) for m, v in poly._num.items()
            )

        # ({q,H}-u)_n + ({q,H}+u)_n: the levels k = n mod 2, each weighted 2 C(n,k) u^(n-k)
        plus_minus = WeylElement.weighted_sum(
            (u_pow[n - k] * (2 * comb(n, k)), shifted[k]) for k in range(n % 2, n + 1, 2)
        )
        return _diff((
            ("shifted-argument form", shifted[n], euler_rhs(shifted_euler(n))),
            ("centered form", centered[n], euler_rhs(euler_polynomial(n))),
            ("plus/minus average", plus_minus, WeylElement.weighted_sum([(2**n, h_pow[n][2])])),
        ))

    return run_check("bender", {"n": n}, check)


def verify_bender(n: int) -> VerificationReport:
    """Nested anticommutators of q with H against Euler polynomials of H: the
    three forms of the module docstring, with c formal, where ({q,H}+a)_n is
    the binomial resummation of the nested brackets.  At c = -i, where u = 1,
    the first is the source's  2^-n {q, H}_n = 1/2 {q, E_n(H + 1/2)}.
    """
    return _bender(n, _bender_chains())


def verify_superoperators(max_k: int) -> VerificationReport:
    """The one-sided maps A: w -> [w,H] and B: w -> {w,H} acting on q.

    For every k <= max_k the sum and difference collapse to

        (A + B)^k q = 2^k q H^k        (A - B)^k q = (-2)^k H^k q,

    both exact in c, and A^k q has the closed form that [q,H] = -c p and
    [p,H] = c q give: (-1)^ceil(k/2) c^k times q for even k, p for odd k.
    A and B commute.  Finally the even-order binomial cross sums, also exact
    in c:

        sum_k C(2n,2k) B^(2k) A^(2n-2k) q = 2^(2n-1) {q, H^(2n)}.

    A^k q, (A+B)^k q, (A-B)^k q, H^k and each B^m A^i q are chains, grown
    once.  No bracket is compared with itself rebuilt: A^k q meets its closed
    form, and B^k q = {q,H}_k is what the bender records decide.
    """

    def forms():
        _orders(max_k=max_k)
        q, h = q_op(), hamiltonian()
        a_map, b_map = partial(commutator, y=h), partial(anticommutator, y=h)
        a_pow, h_pow = Chain(q, a_map), Chain(h, lambda w: w * h)  # h_pow[k] = H^(k+1)
        plus, minus = Chain(q, lambda w: a_map(w) + b_map(w)), Chain(q, lambda w: a_map(w) - b_map(w))
        # q H^k and H^k q, with H^k built on its own: (A+B)^k q and (A-B)^k q
        # grow (q H) H ... and H (... (H q)), so comparing them also checks
        # that the engine's products associate
        q_h = [q] + [q * h_pow[k] for k in range(max_k)]
        h_q = [q] + [h_pow[k] * q for k in range(max_k)]
        for k in range(max_k + 1):
            yield f"(A+B)^{k} q vs 2^{k} q H^{k}", plus[k], WeylElement.weighted_sum([(2**k, q_h[k])])
            yield f"(A-B)^{k} q vs (-2)^{k} H^{k} q", minus[k], WeylElement.weighted_sum([((-2) ** k, h_q[k])])
        for k in range(max_k + 1):
            closed = monomial(1 - k % 2, k % 2, CPoly.c_power(k, (-1) ** ((k + 1) // 2)))
            yield f"A^{k} q vs its closed form", a_pow[k], closed
        yield "A B q vs B A q", a_map(b_map(q)), b_map(a_map(q))
        top = max_k - max_k % 2  # the highest even order
        ba = {i: Chain(a_pow[i], b_map) for i in range(0, top + 1, 2)}  # ba[i][m] = B^m A^i q
        for order in range(0, top + 1, 2):
            total = WeylElement.weighted_sum(
                (comb(order, m), ba[order - m][m]) for m in range(0, order + 1, 2)
            )
            sides = WeylElement.weighted_sum([(Fraction(2) ** (order - 1), side[order]) for side in (q_h, h_q)])
            yield f"binomial cross sum at order {order}", total, sides

    return run_check("superoperators", {"max_k": max_k}, lambda: _diff(forms()))


# -- pure binomial sums ------------------------------------------------------


def b_sum(n: int, s: int) -> int:
    """sum over k, l of C(2n,2k) C(2k,l) C(2n-2k,s-l) (-1)^(s-l)."""
    return sum(
        comb(2 * n, 2 * k) * comb(2 * k, l) * comb(2 * n - 2 * k, s - l) * (-1) ** (s - l)
        for k in range(n + 1)
        for l in range(s + 1)
    )


def trinomial_sum(n: int, i: int, j: int) -> int:
    """sum over k of C(2n,2k) C(2k,i) C(2n-2k,j)."""
    return sum(comb(2 * n, 2 * k) * comb(2 * k, i) * comb(2 * n - 2 * k, j) for k in range(n + 1))


def _closed_forms(n: int) -> VerificationReport:
    def check() -> str:
        # the closed forms need n >= 1 (the alternating sum degenerates)
        for s in range(2 * n + 1):
            expected = 2 ** (2 * n - 1) if s in (0, 2 * n) else 0
            got = b_sum(n, s)
            if got != expected:
                return f"alternating sum at s={s}: {got} != {expected}"
        for i, j in product(range(n + 1), repeat=2):
            if i == j == n:
                expected = comb(2 * n, n) * (1 + (-1) ** n) // 2
            else:
                expected = comb(2 * n, i) * comb(2 * n - i, j) * 2 ** (2 * n - i - j - 1)
            got = trinomial_sum(n, i, j)
            if got != expected:
                return f"trinomial sum at (i,j)=({i},{j}): {got} != {expected}"
        return ""

    return run_check("combinatorics", {"n": n}, check)


# -- weighted bracket expansions ----------------------------------------------
#
# Every expansion checked here is one row of a single identity in a pair of
# polynomials f(p), g(q):
#
#     lhs(f, g) = lead/c [F, G] + sum_{k >= first} c^k w_k/k! op(f^(k), g^(k))
#
# with F, G the antiderivatives (zero constant term) and k up to
# min(deg f, deg g); a suite checks the rows labelled for it.  The monomial
# suites are the rows at f = p^n/n!, g = q^m/m!, whose derivatives are again
# scaled monomials, so the records on one diagonal n - m read the same
# brackets: a grid sweep builds each once, in one table for all its records.
# Beside it is one weight table, (row, k) -> c^k w_k/k!.  Both die with
# their owner (a sweep, a function record or a direct verify_* call), and an
# entry looks its bracket or weight source up by name when it is first built,
# so a module global patched before a sweep reaches every row.

_OPS = {
    "[]": lambda x, y: commutator(x, y),
    "{}": lambda x, y: anticommutator(x, y),
    "*": lambda x, y: x * y,
}


def _b(k: int) -> Fraction:
    """B_(k+1)/(k+1), the Bernoulli factor shared by three rows."""
    return bernoulli_number(k + 1) / (k + 1)


# name: (lhs, op, first k, w_k, lead, witness label per suite)
_IDENTITIES = {
    "euler": ("[]", "{}", 1, lambda k: -euler_zero(k), 0,
              {"pain": "commutator expansion", "functions": "commutator via Euler weights"}),
    "bernoulli": ("{}", "[]", 1, lambda k: 2 * _b(k), 2,
                  {"reciprocal": "antiderivative form",
                   "functions": "anticommutator via Bernoulli weights"}),
    # E_k(0) = -2 (2^(k+1) - 1) B_(k+1)/(k+1) turns the "euler" row into this one
    "scaled-bernoulli": ("[]", "{}", 1, lambda k: 2 * (2 ** (k + 1) - 1) * _b(k), 0,
                         {"reciprocal": "scaled-Bernoulli rewriting"}),
    "series": ("[]", "*", 1, lambda k: (-1) ** (k + 1), 0,
               {"exp-series": "commutator series", "mccoy": "derivative expansion"}),
    "direct": ("{}", "*", 0, lambda k: 2 if k == 0 else (-1) ** k, 0,
               {"exp-series": "anticommutator series", "functions": "direct anticommutator expansion"}),
    "product-bernoulli": ("*", "[]", 0, lambda k: (-1) ** (k + 1) * _b(k), 1,
                          {"functions": "product via Bernoulli weights"}),
    "product-euler": ("*", "{}", 0, lambda k: (-1) ** k * euler_zero(k) / 2, 0,
                      {"functions": "product via Euler weights"}),
}


@lru_cache(maxsize=None)
def _c_weight(k: int, w: Fraction | int) -> CPoly:
    """c^k w/k!.  Cached by value, so a patched weight still counts."""
    return CPoly.c_power(k, Fraction(w) / factorial(k))


def _weights() -> Callable[[str, int], CPoly]:
    """(row, k) -> c^k w_k/k!, the weight of _IDENTITIES row ``row`` at k,
    with its own sign: one table per owner, each entry evaluated on first use."""
    return cache(lambda row, k: _c_weight(k, _IDENTITIES[row][3](k)))


def _brackets(f_at: Callable[[int], WeylElement], g_at: Callable[[int], WeylElement]):
    """The table (op, i, j) -> op(f_at(i), g_at(j)), keyed by integers; each entry
    is built on first use and kept by the table's owner: a call, a record or a sweep."""
    f_at, g_at = cache(f_at), cache(g_at)
    return cache(lambda op, i, j: _OPS[op](f_at(i), g_at(j)))


def _monomial_brackets() -> Callable:
    """(op, a, b) -> op(p^a/a!, q^b/b!), the table of one monomial grid."""
    return _brackets(lambda a: monomial(0, a, Fraction(1, factorial(a))),
                     lambda b: monomial(b, 0, Fraction(1, factorial(b))))


def _expand(suite: str, term: Callable, weights: Callable, kmax: int, /, **params) -> VerificationReport:
    """One record, with parameters ``params``, checking the rows of
    _IDENTITIES labelled for ``suite`` in order.

    ``term(op, k)`` reads op(f^(k), g^(k)) from a bracket table, [F, G] at
    k = -1, ``weights(row, k)`` reads c^k w_k/k! from a weight table
    (``_weights``), and kmax is min(deg f, deg g).  Each row is one form for
    ``_diff``: term(lhs, 0) against its right-hand side as one weighted sum,
    built only once the rows before it have passed.  The tables grow inside
    the record, as far as the rows reach: a bad argument becomes an error
    record and the record's time pays for the entries it adds.  Each entry is
    built once per sweep for the monomial grids, once per record otherwise.
    """

    def forms():
        for row, (lhs, op, first, _, lead, labels) in _IDENTITIES.items():
            if suite not in labels:
                continue
            pairs = [(weights(row, k), term(op, k)) for k in range(first, kmax + 1)]
            if lead:
                pairs.append((lead, term("[]", -1).div_c(1)))
            yield labels[suite], term(lhs, 0), WeylElement.weighted_sum(pairs)

    return run_check(suite, params, lambda: _diff(forms()))


def _monomial_grid(suite: str) -> Callable[[int, int], VerificationReport]:
    """The records (n, m) of ``suite`` at f = p^n/n!, g = q^m/m!, all reading
    op(f^(k), g^(k)) = op(p^(n-k)/(n-k)!, q^(m-k)/(m-k)!) and w_k from two new tables."""
    table, weights = _monomial_brackets(), _weights()
    return lambda n, m: _expand(suite, lambda op, k: table(op, n - k, m - k), weights, min(n, m), n=n, m=m)


def _functions(suite: str, f: RatPoly, g: RatPoly, tag: dict | None) -> VerificationReport:
    """The record of ``suite`` at f(p) and g(q), over tables of its own."""

    def at(h: RatPoly, x: WeylElement) -> Callable[[int], WeylElement]:  # k -> h^(k)(x), the antiderivative at k = -1
        derivatives = Chain(h, lambda d: d.derivative())
        return lambda k: poly_of_element(h.antiderivative() if k < 0 else derivatives[k], x)

    table = _brackets(at(f, p_op()), at(g, q_op()))
    kmax, params = min(f.degree(), g.degree()), dict(f=str(f), g=str(g), **(tag or {}))
    return _expand(suite, lambda op, k: table(op, k, k), _weights(), kmax, **params)


def verify_pain(n: int, m: int) -> VerificationReport:
    """[p^n/n!, q^m/m!] as an Euler-weighted sum of lower anticommutators:

    [p^n/n!, q^m/m!] = -sum_{k>=1} c^k E_k(0)/k! {p^(n-k)/(n-k)!, q^(m-k)/(m-k)!}
    """
    return _monomial_grid("pain")(n, m)


def verify_reciprocal(n: int, m: int) -> VerificationReport:
    """The reciprocal expansion: anticommutators out of commutators.

    {p^n/n!, q^m/m!} = 2/c [p^(n+1)/(n+1)!, q^(m+1)/(m+1)!]
                       + 2 sum_{k>=1} c^k/k! B_(k+1)/(k+1) [p^(n-k)/(n-k)!, q^(m-k)/(m-k)!]

    and separately the rewriting of the commutator expansion through
    E_k(0) = -2 (2^(k+1) - 1) B_(k+1)/(k+1).
    """
    return _monomial_grid("reciprocal")(n, m)


def verify_exp_series(n: int, m: int) -> VerificationReport:
    """Coefficientwise bracket expansions from the two-variable exponential
    generating function:

    [p^n/n!, q^m/m!] = sum_{k>=1} (-1)^(k+1) c^k/k! p^(n-k)/(n-k)! q^(m-k)/(m-k)!
    {p^n/n!, q^m/m!} = 2 p^n/n! q^m/m! + sum_{k>=1} (-1)^k c^k/k! (same products)
    """
    return _monomial_grid("exp-series")(n, m)


# -- polynomial-function expansions ------------------------------------------


def verify_mccoy(
    f: RatPoly, g: RatPoly, tag: dict | None = None
) -> VerificationReport:
    """[f(p), g(q)] = -sum_{k>=1} (-c)^k/k! f^(k)(p) g^(k)(q)."""
    return _functions("mccoy", f, g, tag)


def verify_function_identities(
    f: RatPoly, g: RatPoly, tag: dict | None = None
) -> VerificationReport:
    """The five bracket/product expansions for polynomial f(p) and g(q).

    With F, G the antiderivatives (zero constant term) and sums over k up to
    min(deg f, deg g):

      [f,g]  = -sum_{k>=1} E_k(0) c^k/k! {f^(k), g^(k)}
      {f,g}  = 2/c [F,G] + 2 sum_{k>=1} B_(k+1)/(k+1) c^k/k! [f^(k), g^(k)]
      {f,g}  = 2 f g + sum_{k>=1} (-c)^k/k! f^(k) g^(k)
      f g    = 1/c [F,G] - sum_{k>=0} B_(k+1)/(k+1) (-c)^k/k! [f^(k), g^(k)]
      f g    = 1/2 sum_{k>=0} E_k(0) (-c)^k/k! {f^(k), g^(k)}
    """
    return _functions("functions", f, g, tag)


def random_poly_pair(rng: random.Random) -> tuple[RatPoly, RatPoly]:
    """Small integer polynomials of degree at most 4; the function suites accept any pair."""

    def one() -> RatPoly:
        deg = rng.randint(0, 4)
        return RatPoly({k: rng.randint(-5, 5) for k in range(deg + 1)})

    return one(), one()


# -- two-row binomial identities in a free variable ---------------------------

_Z_PLUS_1 = RatPoly({0: 1, 1: 1})


def _euler_of_shifted(k: int) -> RatPoly:
    return euler_polynomial(k).compose(_Z_PLUS_1)


def _vandermonde() -> Callable[[int, int, int], int]:
    """(a, b, l) -> sum_k C(a,k) C(l, b-k), the table of one binomial sweep.  Record
    (m, n, l) reads column j at (m-j, n-j, l), the entry of every record on its
    diagonal: a default sweep forms 2,197 sums for 10,647 reads."""
    return cache(lambda a, b, l: sum(comb(a, k) * comb(l, b - k) for k in range(min(a, b) + 1)))


def _pack(p: RatPoly, scale: int, base: int) -> int:
    """scale * p at z = 2^base, for scale a multiple of p's denominator."""
    return scale // p._den * sum(v << base * j for j, v in p._num.items())


def _columns(K: int, bits: int) -> tuple:
    """(base, D, z^k, (z+1)^k, E_k(z), E_k(z+1)): the columns for k <= K times D, their common
    denominator, at z = 2^base, base the bound bits + |N| + 1, |N| the bit length of their summed
    D/den ||num||_1.  Over weights below 2^bits each form's D (lhs - rhs) then has coefficients below
    2^base, so its lowest nonzero one is no multiple of it: it packs to 0 only if it is 0.  A sweep
    or call fuses one set (_fused), sized from its bounds (_column_set), and its (z+1)^k come off one chain."""
    rows = [(RatPoly({k: 1}), z1, euler_polynomial(k), _euler_of_shifted(k)) for k, z1 in enumerate(_Z_PLUS_1._powers().upto(K))]
    D = lcm(*(p._den for row in rows for p in row))
    base = bits + sum(D // p._den * sum(map(abs, p._num.values())) for row in rows for p in row).bit_length() + 1
    return (base, D, *([_pack(p, D, base) for p in col] for col in zip(*rows)))


def _digit(s: int, base: int) -> tuple[int, int]:
    """s's lowest signed base-2^base digit d, in [-2^(base-1), 2^(base-1)), and the rest (s - d) / 2^base."""
    half = 1 << base - 1
    digit = (s + half) % (2 * half) - half
    return digit, (s - digit) >> base


def _unpacked(s: int, base: int, D: int) -> RatPoly:
    """The polynomial that a packed sum s of _columns' (base, D) stands for: its signed base-2^base digits over D."""
    num, j = {}, 0
    while s:
        num[j], s = _digit(s, base)
        j += 1
    return RatPoly._canonical(num, D)


def _fused(K: int, bits: int) -> tuple:
    """(base, D, S, left, right): _columns(K, bits) fused, column k on the left z^k + E_k(z) 2^S and on the right
    (z+1)^k + E_k(z+1) 2^S.  Over weights below 2^bits every weighted plain side stays below 2^(S-1) in absolute
    value, so a weighted sum of fused columns is 0 only if both its halves are, and _digit at S splits it into
    its plain and Euler sums."""
    base, D, zs, z1s, es, e1s = _columns(K, bits)
    S = bits + sum(map(abs, [*zs, *z1s])).bit_length() + 1
    return base, D, S, [p + (e << S) for p, e in zip(zs, es)], [p + (e << S) for p, e in zip(z1s, e1s)]


def _column_set(m: int, n: int, l: int) -> Callable[[], tuple]:
    """The one fused column set (_fused) of a sweep or call with bounds (m, n, l), built on first read; 2^(2m+l)
    bounds every weight, so one test of two fused sums decides a record's plain and Euler forms at once."""
    return cache(lambda: _fused(min(m, n), 2 * m + l + 1))


def _binomial(table: Callable, columns: Callable, m: int, n: int, l: int) -> VerificationReport:
    """verify_binomial over a Vandermonde table and the one column set of its sweep or call, sized from its bounds."""

    def check() -> str:
        _orders(m=m, n=n, l=l)
        base, D, S, left, right = columns()
        lhs = rhs = 0
        c, vandermonde = 1, ""  # c = C(m, k)
        for k in range(min(m, n) + 1):
            t = comb(m - k + l, n - k)  # the left weight's second factor and column k's Vandermonde target
            lhs += c * t * left[k]
            rhs += c * comb(l, n - k) * right[k]
            if not vandermonde and table(m - k, n - k, l) != t:
                vandermonde = f"Vandermonde convolution at j={k}: {table(m - k, n - k, l)} != {t}"
            c = c * (m - k) // (k + 1)
        if lhs == rhs:
            return vandermonde
        # split only sides that differ; a witness unpacks the halves it compared
        (plain, euler), (plain1, euler1) = _digit(lhs, S), _digit(rhs, S)
        if plain != plain1:
            return f"plain version: ({_unpacked(plain, base, D)}) != ({_unpacked(plain1, base, D)})"
        return vandermonde or f"Euler version: ({_unpacked(euler, base, D)}) != ({_unpacked(euler1, base, D)})"

    # both forms always run: "euler_version" stays because gate.json and the golden stream pin it
    return run_check("binomial", {"m": m, "n": n, "l": l, "euler_version": True}, check)


def verify_binomial(m: int, n: int, l: int) -> VerificationReport:
    """Two-row binomial convolutions, as polynomial identities in z:

        sum_k C(m,k) C(m-k+l, n-k) z^k  =  sum_k C(m,k) C(l, n-k) (z+1)^k

    the Euler variant with z^k -> E_k(z), (z+1)^k -> E_k(z+1), and the column-wise Vandermonde
    convolution that links the two sides.  One loop over k decides all three: the convolution against
    a Vandermonde table, both forms by one integer test at z = 2^B (Kronecker substitution: L. Kronecker,
    1882; D. Harvey, J. Symbolic Comput. 44(10), 2009; see _columns), each column carrying its Euler
    polynomial 2^S above its power (_fused), one column set per call or sweep, sized from its bounds.
    Only sides that differ are split, so the witness names the first failing check of plain version,
    Vandermonde convolution and Euler version, and unpacks the sums it compared (_unpacked).
    """
    return _binomial(_vandermonde(), _column_set(m, n, l), m, n, l)


# -- similarity-transform closure ---------------------------------------------


def verify_figueira(h0: WeylElement, x: WeylElement) -> VerificationReport:
    """Closure identities for the pair (h0, x) with ad_x nilpotent on h0.

    The correction term built from the odd weight sequence,

        h1 = i sum_{n>=1} kappa_n/n! ad_x^n h0,

    must coincide with i (h0 - sum_n E_n(0)/n! ad_x^n h0), satisfy

        h0 - e^x h0 e^-x = i (h1 + e^x h1 e^-x),

    and the half-step conjugate e^(x/2) (h0 + i h1) e^(-x/2) must equal the
    umbral sum  sum_n E_n(1/2)/n! ad_x^n h0.  All of it exact in c.  Every
    series in ad_x^n h0, e^x h0 e^-x too, reads one tower of h0's brackets.
    """

    def check() -> str:
        tower = bracket_tower(x, h0)

        def series(weight):  # the (weight(n)/n!, ad_x^n h0) pairs
            return [(weight(n) / factorial(n), t) for n, t in enumerate(tower)]
        h1 = WeylElement.weighted_sum((I * w, t) for w, t in series(kappa))
        i_alt = WeylElement.weighted_sum([(I, h0)] + [(-I * w, t) for w, t in series(euler_zero)])
        lhs = h0 - WeylElement.weighted_sum(series(lambda n: Fraction(1)))  # e^x h0 e^-x
        rhs = WeylElement.weighted_sum([(I, h1), (I, hadamard_conjugate(x, h1))])
        direct = hadamard_conjugate(x, WeylElement.weighted_sum([(1, h0), (I, h1)]), t=Fraction(1, 2))
        umbral = WeylElement.weighted_sum(series(euler_at_half))
        return _diff((
            ("two correction-term constructions", h1, i_alt),
            ("pseudo-symmetry relation", lhs, rhs),
            ("half-step conjugate vs umbral sum", direct, umbral),
        ))

    return run_check("figueira", {"h0": str(h0), "x": str(x)}, check)


def standard_conjugation_fixtures() -> list[tuple[WeylElement, WeylElement]]:
    """(h0, x) pairs with nilpotent ad_x, spanning the interesting shapes."""
    return [
        (p_op(2), q_op()),
        (hamiltonian(), q_op()),
        (p_op(2), q_op(2)),
        (WeylElement.weighted_sum([(Fraction(1, 2), anticommutator(q_op(), p_op()))]), q_op()),
    ]


# -- weight-sequence tables ----------------------------------------------------


def sequence_tables(max_n: int) -> VerificationReport:
    """Tabulate the kappa and lambda weight sequences up to max_n.

    Checks the binomial bridge  lambda_n = 1 - sum_m 2^m C(n,m) kappa_m,
    vanishing of the even kappas and odd lambdas, and the known low-order
    values.  The tables, built inside the record, ride along in its parameters.
    """
    params = {"N": max_n}

    def check() -> str:
        kappas = [kappa(n) for n in range(max_n + 1)]
        lambdas = [
            Fraction(1) - sum(2**m * comb(n, m) * kappas[m] for m in range(n + 1))
            for n in range(max_n + 1)
        ]
        params["kappa"], params["lambda"] = kappas, lambdas
        _orders(max_n=max_n)
        # name: (values, {n: expected}), the known low orders first, then the zeros
        expected = {
            "kappa": (kappas, {1: Fraction(1, 2), 3: Fraction(-1, 4), 5: Fraction(1, 2), 7: Fraction(-17, 8),
                               9: Fraction(31, 2), **dict.fromkeys(range(0, max_n + 1, 2), 0)}),
            "lambda": (lambdas, {0: 1, 2: -1, 4: 5, 6: -61, **dict.fromkeys(range(1, max_n + 1, 2), 0)}),
        }
        for name, (values, table) in expected.items():
            for n, v in table.items():
                if n <= max_n and values[n] != v:
                    return f"{name}_{n} = {values[n]}, expected {v}"
        for n in range(max_n + 1):
            if lambdas[n] != lam(n):
                return f"lambda_{n}: binomial bridge gives {lambdas[n]}, direct form {lam(n)}"
        return ""

    return run_check("sequences", params, check)


def extract_convolution_coefficients(kmax: int) -> list[Fraction]:
    """Recover the weights v_k in

        [p^k/k!, q^k/k!] = sum_{j=1}^{k} c^j v_j/j! {p^(k-j)/(k-j)!, q^(k-j)/(k-j)!}

    by peeling the scalar term at each order: after subtracting the j < k
    contributions the residual must be the scalar 2 c^k v_k/k!.  Returns
    [v_0 .. v_kmax] with v_0 = 1 by convention.
    """
    vs, table = [Fraction(1)], _monomial_brackets()
    for k in range(1, kmax + 1):
        residual = table("[]", k, k) - WeylElement.weighted_sum(
            (_c_weight(j, vs[j]), table("{}", k - j, k - j)) for j in range(1, k)
        )
        if residual.support() not in ([], [(0, 0)]):
            raise ArithmeticError(f"residual at order {k} is not scalar: {residual}")
        vs.append(residual.coefficient(0, 0).div_c(k).as_rational() * factorial(k) / 2)
    return vs


# -- sweep runner ---------------------------------------------------------------

_RANDOM_CASES = 12


def _grid(verify: Callable, *bounds: int) -> list[VerificationReport]:
    """verify(i, j, ...) for every 0 <= i <= bounds[0], 0 <= j <= bounds[1], ..."""
    return [verify(*args) for args in product(*(range(b + 1) for b in bounds))]


def _random_cases(verify: Callable, seed: int) -> list[VerificationReport]:
    rng = random.Random(seed)
    return [verify(*random_poly_pair(rng), tag={"case": idx, "seed": seed}) for idx in range(_RANDOM_CASES)]


def _hermite(max_n: int, dim: int | None = None, **_) -> list[VerificationReport]:
    from . import oscillator  # standard library only; imported only when a hermite check runs

    checks = (
        oscillator.check_nested_anticomm_closed_form,
        oscillator.check_shifted_expansions,
        oscillator.check_main_identity_matrix,
        oscillator.check_symbolic_bridge,
    )
    # the ladders and chains of this sweep's records, and the dim they carry
    ops = oscillator.build_operators(oscillator.DEFAULT_DIM if dim is None else dim)
    return [check(n, ops.dim, ops) for n in range(max_n + 1) for check in checks]


# selector -> its sweep.  A sweep is called with the bounds run_suite was given
# (unset ones left out, so its own defaults apply) and ignores the others.
_SWEEPS: dict[str, Callable[..., list[VerificationReport]]] = {
    "bender": lambda max_n=12, **_: _grid(partial(_bender, chains=_bender_chains()), max_n),
    "superoperators": lambda max_n=8, **_: [verify_superoperators(max_n)],
    "combinatorics": lambda max_n=8, **_: [_closed_forms(n) for n in range(1, max_n + 1)],
    "pain": lambda max_n=10, max_m=10, **_: _grid(_monomial_grid("pain"), max_n, max_m),
    "reciprocal": lambda max_n=10, max_m=10, **_: _grid(_monomial_grid("reciprocal"), max_n, max_m),
    "mccoy": lambda max_n=10, max_m=10, seed=0, **_: (
        _grid(_monomial_grid("exp-series"), max_n, max_m) + _random_cases(verify_mccoy, seed)
    ),
    "functions": lambda seed=0, **_: [
        verify_function_identities(RatPoly.of(1), RatPoly.x(), tag={"case": "fixed-0"}),
        verify_function_identities(RatPoly.x(), RatPoly.x(), tag={"case": "fixed-1"}),
        *_random_cases(verify_function_identities, seed),
    ],
    "binomial": lambda max_n=12, max_m=12, max_l=12, **_: (
        _grid(partial(_binomial, _vandermonde(), _column_set(max_m, max_n, max_l)), max_m, max_n, max_l)
    ),
    "figueira": lambda **_: [verify_figueira(h0, x) for h0, x in standard_conjugation_fixtures()],
    "sequences": lambda max_n=16, **_: [sequence_tables(max_n)],
    "hermite": lambda max_n=8, **bounds: _hermite(max_n, **bounds),
}

SELECTORS = tuple(_SWEEPS)


def run_suite(
    name: str,
    *,
    max_n: int | None = None,
    max_m: int | None = None,
    max_l: int | None = None,
    dim: int | None = None,
    seed: int = 0,
) -> list[VerificationReport]:
    """Run one named suite (or "all") over its parameter sweep.

    Every unset bound falls back to the suite's default; ``seed`` only
    affects the suites that draw random polynomial instances, 12 each.
    Bounds out of range raise ValueError before any check runs: a max_n,
    max_m, max_l, dim or seed that is a bool or not an int, a negative
    max_n, max_m or max_l, and a dim below build_operators' floor of 4.
    dim is only a label of the hermite records.  A sweep that runs no
    checks raises it too.
    """
    if name != "all" and name not in _SWEEPS:
        raise ValueError(f"unknown suite: {name!r}")
    bounds = dict(max_n=max_n, max_m=max_m, max_l=max_l, dim=dim, seed=seed)
    for key in bounds:
        if bounds[key] is not None and (isinstance(bounds[key], bool) or not isinstance(bounds[key], int)):
            raise ValueError(f"{key} must be an integer, got {bounds[key]!r}")
    for key, least in (("max_n", 0), ("max_m", 0), ("max_l", 0), ("dim", 4)):
        if bounds[key] is not None and bounds[key] < least:
            raise ValueError(f"{key} must be at least {least}, got {bounds[key]}")
    given = {k: v for k, v in bounds.items() if v is not None}
    reports = [r for s in (SELECTORS if name == "all" else (name,)) for r in _SWEEPS[s](**given)]
    if not reports:
        raise ValueError(f"{name} ran no checks at these bounds")
    return reports
