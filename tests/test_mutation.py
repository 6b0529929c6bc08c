"""Mutation gate: a deliberately wrong reordering rule must turn records FAIL.

Each variant replaces ``weyl.contraction_weights``, the one source of the
weights k! C(b,k) C(a,k) in  p^b q^a = sum_k w_k c^k q^(a-k) p^(b-k),  and
reruns bender, pain and reciprocal on small bounds.  monkeypatch puts the
true helper back afterwards.

The sign flip (-1)^k amounts to replacing c by -c in every product.  bender
stays PASS under it although its right-hand sides carry explicit powers of
u = ic: c -> -c maps each of its three forms to the same form with u -> -u,
which holds as well.  The shifted form has only even powers of u, the
centered form follows from E_n(1+x) = (-1)^n E_n(-x), and the plus/minus
form is symmetric in +-u.  Of the suites run here only pain and reciprocal
catch it: their right-hand sides carry explicit powers of c, weighted by
Euler and Bernoulli numbers, which do not flip.

Both independent oracles must catch every variant too: the differential
realization through ``validate_reordering``, the oscillator realization
through the symbolic bridge, which realizes the engine's {q,H}_n at c = -2i;
realizing it at c = -i instead must fail the bridge as well.  A product that
gains a term p^9, which kills every test monomial x^0, x^1 and x^8, must
fail ``validate_reordering`` through its degree check.  A product kernel
that ignores the sign of a bracket's second product, so that every [x, y] is
x y + y x, must fail pain, superoperators and figueira records, while
``validate_reordering``, which forms no bracket, still passes.

The oscillator oracle gets the same treatment: an integer ladder with one
term added must turn records FAIL (the main identity and the closed forms
for H or q, the bridge for p or q), and a term of weight 10^-12 must fail
as many records as one of weight 10^-6.  A q with an entry off its two
off-diagonals, a p with one beyond its three bands or an H with one off its
diagonal must keep every hermite check that reads that ladder from passing.

Every identity is a weighted sum, formed by ``weighted_sum``: a kernel that
drops its weights' powers of c must turn bender and pain records FAIL, not
ERROR.  The
one accumulation behind every sum must apply i^2 = -1 as well: one in which
a weight's i times a key's i adds must fail every figueira record, while
bender, pain and reciprocal, whose sums it does not change, still pass.

The realization's product kernel forms a bracket {x, y} as one accumulation
of x y + y x: a kernel that drops the second order must fail every hermite
record from n = 1 on but the main identity at n = 1, where both sides are
2 q H, and the main identity at n = 0, whose right side {q, 1} = 2q it halves.

The binomial sweep decides each form by one packed-integer test over one
column set per sweep or call, sized from its bounds and built from its two
sides' bases independently, so a wrong shifted basis ((z+1)^k or E_k(z+1))
or packed Euler columns that drop their common denominator D must turn its
records FAIL as well; z^k packed for (z+1)^k fails every record with
min(m, n) >= 1 whose weights are not all 0.  So must a column set whose
packed (z+1)^k are all zero: the plain form's left side packs its own
weights.  A failing record's witness prints the sides its packed sums
stand for, so under z^k for (z+1)^k the two sides differ.  A Vandermonde
table with its (1, 1, 1) entry off by one must
fail exactly the records that read it, in a sweep run after a clean one as
in a direct verify_binomial call.  One fused test decides both forms, but a
record's witness still names the first failing check of plain version,
Vandermonde convolution and Euler version, in that order.

So must the closure and weight-table sweeps: a bracket tower ad_x^n h0 that
stops one bracket early in the suite's umbral sums turns every figueira
record FAIL (hadamard_conjugate still sums weyl's true tower), and a wrong
kappa_2, kappa_5 or kappa_11, or a lam(8) off by one, fails the sequences
record with a witness of its own.

A CPoly scales by an int or a Fraction without lifting it:
a CPoly product that scales by a Fraction's numerator only must fail the
bender shifted-argument and centered forms.  bender's plus/minus average is
one sum over the levels k = n mod 2, weighted 2 C(n,k) u^(n-k): a C(n,k) off
by one for 0 < k < n must fail it from n = 3 on.

bender and superoperators are decided with c formal, so they must not lean
on ``subst_c``: with it raising they still PASS (only the symbolic bridge,
which realizes the engine at c = -2i, errs), and with it returning zero a
perturbed Euler coefficient still FAILs.

Every symbolic record (bender, figueira, superoperators and the bracket
expansions of pain, reciprocal, mccoy and functions) is decided by one
comparison of two sides, and a failing one names its form, how many terms
differ and the first one, with both sides' coefficients.  The dropped-k1 and
k-plus-1-factorial rules fail superoperators at (A-B)^2 q, and sign-of-c
fails it at A^1 q, whose closed form -c p is odd in c (its other identities
are even).

A bender sweep grows one set of bracket chains for all its records, so a second
sweep under a patched Euler polynomial or bracket must decide every record
as a fresh verify_bender(n) does: nothing the first sweep built survives it.
The same holds for the hermite sweep's ladders and chains under a broken
oscillator bracket step, and for the bracket tables of the pain, reciprocal
and mccoy grids under a broken anticommutator ({x, y} -> 2xy): after clean
sweeps, every grid record must be decided as a fresh verify_pain,
verify_reciprocal or verify_exp_series call decides it, some passing and
some failing.  So must their weight tables under a wrong E_k(0) or B_k: a
pain or reciprocal sweep after clean ones decides every record as a fresh
call does, and a sweep after the patch passes again.
"""

import re
from fractions import Fraction

import pytest

from weylops import oscillator, realization, sequences, suites, weyl
from weylops.scalars import CPoly, FlatTerms, I
from weylops.sequences import euler_polynomial
from weylops.suites import run_suite, verify_binomial

TRUE_WEIGHTS = weyl.contraction_weights

VARIANTS = {
    "sign-of-c": lambda b, a: tuple((-1) ** k * w for k, w in enumerate(TRUE_WEIGHTS(b, a))),
    "dropped-k1": lambda b, a: tuple(0 if k == 1 else w for k, w in enumerate(TRUE_WEIGHTS(b, a))),
    # (k+1)! in place of k!
    "k-plus-1-factorial": lambda b, a: tuple((k + 1) * w for k, w in enumerate(TRUE_WEIGHTS(b, a))),
}


def _failing_reports() -> list:
    reports = run_suite("bender", max_n=4)
    for name in ("pain", "reciprocal"):
        reports += run_suite(name, max_n=3, max_m=3)
    return [r for r in reports if not r.ok]


def _failing_suites() -> set[str]:
    return {r.suite for r in _failing_reports()}


def test_true_rule_passes():
    assert _failing_suites() == set()


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_wrong_rule_fails_some_record(monkeypatch, variant):
    monkeypatch.setattr(weyl, "contraction_weights", VARIANTS[variant])
    failing = _failing_suites()
    assert failing
    if variant == "sign-of-c":
        assert failing == {"pain", "reciprocal"}
    else:
        assert "bender" in failing


TRUE_ELEMENT_SUM = weyl.WeylElement.weighted_sum


def test_weights_without_their_power_of_c_fail_records(monkeypatch):
    # each CPoly weight of WeylElement.weighted_sum taken at c = 1, the sum of
    # its coefficients: bender's u^(n-m) and u^(n-k), and pain's c^k E_k(0)/k!,
    # lose their c^k
    def c_dropped(pairs):
        return TRUE_ELEMENT_SUM(
            (sum(w.coeffs.values(), CPoly()) if isinstance(w, CPoly) else w, x) for w, x in pairs
        )

    monkeypatch.setattr(weyl.WeylElement, "weighted_sum", staticmethod(c_dropped))
    failing = _failing_reports()
    assert {"bender", "pain"} <= {r.suite for r in failing}
    assert {r.status for r in failing} == {"fail"}


TRUE_ACCUMULATE = FlatTerms._accumulate.__func__


def _i_squared_is_plus_one(cls, triples):
    """The accumulation with w x = w_r x + w_i x_r - w_i x_i: a weight's part
    in i times a key's i adds where it should subtract."""
    split = []
    for w, num, den in triples:
        parts = w._num if isinstance(w, CPoly) else {}
        if any(i for _, i in parts):
            cls._key(cls._unit, 0, 1)  # the true refusal, where a key cannot hold i
            w_r = type(w)._canonical({key: n for key, n in parts.items() if not key[1]}, w._den)
            w_i = type(w)._canonical({key: n for key, n in parts.items() if key[1]}, w._den)
            x_r = {key: m for key, m in num.items() if not key[-1]}
            x_i = {key: m for key, m in num.items() if key[-1]}
            split += [(w_r, num, den), (w_i, x_r, den), (-w_i, x_i, den)]
        else:
            split.append((w, num, den))
    return TRUE_ACCUMULATE(cls, split)


def test_sums_with_i_squared_plus_one_fail_figueira(monkeypatch):
    # CPoly's product keeps its own i^2 = -1, so only sums see the patch: figueira's
    # umbral sums weight elements that carry i by weights that carry i
    assert {r.status for r in run_suite("figueira")} == {"pass"}
    monkeypatch.setattr(FlatTerms, "_accumulate", classmethod(_i_squared_is_plus_one))
    assert {r.status for r in run_suite("figueira")} == {"fail"}
    assert _failing_suites() == set()


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_wrong_rule_fails_both_oracles(monkeypatch, variant):
    monkeypatch.setattr(weyl, "contraction_weights", VARIANTS[variant])
    with pytest.raises(AssertionError, match="reordering mismatch") as info:
        realization.validate_reordering()
    if variant == "sign-of-c":  # p q = q p - c differs from q p + c first on x^0
        assert str(info.value) == "reordering mismatch at q^0p^1 * q^1p^0 on x^0"
    for n in range(1, 5):
        assert oscillator.check_symbolic_bridge(n, 64).status == "fail"


TRUE_MUL = weyl.WeylElement.__mul__


def test_a_product_term_that_kills_every_test_monomial_fails_the_differential_oracle(monkeypatch):
    # p^9 annihilates x^0, x^1 and x^8, so every action agrees; only the
    # degree check sees that q^0 p^0 * q^0 p^0 gained a term of degree -9
    monkeypatch.setattr(weyl.WeylElement, "__mul__", lambda x, y: TRUE_MUL(x, y) + weyl.monomial(0, 9))
    with pytest.raises(AssertionError, match="reordering mismatch") as info:
        realization.validate_reordering()
    assert str(info.value) == "reordering mismatch at q^0p^0 * q^0p^0: not of degree 0"


TRUE_PRODUCT = weyl._product


def test_a_bracket_that_ignores_its_sign_fails_records(monkeypatch):
    # every bracket becomes x y + y x: [x, y] is {x, y}.  validate_reordering
    # forms no bracket, so it still passes; pain's commutator expansions and
    # superoperators' A = [., H] fail, and figueira's towers ad_x^n h0 no
    # longer vanish, so every figueira record errs
    monkeypatch.setattr(weyl, "_product", lambda x, y, s: TRUE_PRODUCT(x, y, abs(s)))
    realization.validate_reordering()
    assert {r.status for r in run_suite("pain", max_n=3, max_m=3)} == {"fail"}
    assert [(r.status, r.witness) for r in run_suite("superoperators")] == [(
        "fail",
        "(A+B)^1 q vs 2^1 q H^1: lhs - rhs has 3 term(s), first at q^0p^1: lhs (2*c) vs rhs (0); "
        "lhs - rhs = (2*c) * p + (1) * q p^2 + (1) * q^3",
    )]
    assert {r.status for r in run_suite("figueira")} == {"error"}


def test_bridge_at_c_minus_i_fails(monkeypatch):
    # the integer ladders satisfy pq - qp = -2i; an element realized at the
    # c = -i of the normalized basis is another operator from n = 1 on, and
    # at n = 0 ({q,H}_0 = q) there is no c to set
    monkeypatch.setattr(oscillator, "C", -I)
    assert oscillator.check_symbolic_bridge(0, 64).ok
    for n in range(1, 5):
        assert oscillator.check_symbolic_bridge(n, 64).status == "fail"


def _perturbed_build(monkeypatch, name, *entries, weight=1):
    """Patch build_operators so that the named ladder gains weight at each
    entry (j, d, i): the term i^i l^d of its band j."""
    true_build = oscillator.build_operators
    weight = Fraction(weight)

    def perturbed(dim):
        ops = true_build(dim)
        added = oscillator.Bands({(j, d): weight * I**i for j, d, i in entries})
        ladders = {n: getattr(ops, n) for n in ("q_mat", "p_mat", "h_mat")}
        ladders[name] += added
        return oscillator.OscillatorMatrices(ops.dim, **ladders)

    monkeypatch.setattr(oscillator, "build_operators", perturbed)


def test_perturbed_p_ladder_fails_the_bridge(monkeypatch):
    # p f_l = (l + 1) f_(l-1) + f_(l+1) instead of l f_(l-1) + f_(l+1)
    assert all(oscillator.check_symbolic_bridge(n, 64).ok for n in range(1, 5))
    _perturbed_build(monkeypatch, "p_mat", (-1, 0, 0))
    for n in range(1, 5):
        assert oscillator.check_symbolic_bridge(n, 64).status == "fail"


def test_perturbed_q_ladder_fails_the_bridge(monkeypatch):
    # The realization's Horner step multiplies by the bands of the q it is
    # given.  At n = 0 both sides are that q, so the bridge still passes;
    # from n = 1 on the perturbed q no longer satisfies pq - qp = -2i.
    assert all(oscillator.check_symbolic_bridge(n, 64).ok for n in range(5))
    _perturbed_build(monkeypatch, "q_mat", (1, 1, 1))
    assert oscillator.check_symbolic_bridge(0, 64).ok
    for n in range(1, 5):
        assert oscillator.check_symbolic_bridge(n, 64).status == "fail"


def test_perturbed_ladder_fails_the_matrix_oracle(monkeypatch):
    # H f_l = (l^2 + 2l + 1) f_l: adding a constant to H would keep the main
    # identity, which needs only h(l+1) - h(l) = 2, but l^2 breaks it on every
    # column.  The witness names the first column and row, f_0 -> f_1, with
    # both exact entries.
    assert oscillator.check_main_identity_matrix(8, 64).ok
    _perturbed_build(monkeypatch, "h_mat", (0, 2, 0))
    report = oscillator.check_main_identity_matrix(8, 64)
    assert report.status == "fail"
    assert report.witness == "differs at l=0, row 1: -5771362*i != -16777472*i"


HERMITE_CHECKS = [
    oscillator.check_nested_anticomm_closed_form,
    oscillator.check_shifted_expansions,
    oscillator.check_main_identity_matrix,
    oscillator.check_symbolic_bridge,
]


def test_a_perturbed_ladder_fails_alike_at_dims_4_and_256(monkeypatch):
    # dim is a label: a failing record names the same column, row and entries
    # whatever dim it was built with
    _perturbed_build(monkeypatch, "h_mat", (0, 2, 0))
    verdicts = {}
    for check in HERMITE_CHECKS:
        for n in range(9):
            at_4, at_256 = check(n, 4), check(n, 256)
            assert (at_4.status, at_4.witness) == (at_256.status, at_256.witness)
            verdicts[at_4.status] = verdicts.get(at_4.status, 0) + 1
    assert verdicts == {"pass": 5, "fail": 31}  # each check passes at n = 0, main_identity at n = 1


CLOSED_FORMS = [oscillator.check_nested_anticomm_closed_form, oscillator.check_shifted_expansions]


@pytest.mark.parametrize("check", CLOSED_FORMS)
@pytest.mark.parametrize(
    "name, entries, first",
    # H enters the tower only from {q,H}_1 on
    [("q_mat", [(1, 1, 1)], 0), ("h_mat", [(0, 2, 0)], 1)],
)
def test_perturbed_ladder_fails_the_closed_forms(monkeypatch, check, name, entries, first):
    assert all(check(n, 64).ok for n in range(5))
    _perturbed_build(monkeypatch, name, *entries)
    assert all(check(n, 64).ok for n in range(first))
    for n in range(first, 5):
        assert check(n, 64).status == "fail"


ALL_HERMITE = CLOSED_FORMS + [
    oscillator.check_main_identity_matrix,
    oscillator.check_symbolic_bridge,
]


@pytest.mark.parametrize("weight", [Fraction(1, 10**12), Fraction(1, 10**6)])
@pytest.mark.parametrize(
    "name, entry, failing",
    # q f_l gains a multiple of i f_(l+1), which every check reads but the
    # main identity, whose two sides are both linear in q; p f_l gains a
    # multiple of f_(l-1), which only the bridge reads
    [("q_mat", (1, 0, 1), 12), ("p_mat", (-1, 0, 0), 4)],
)
def test_a_ladder_off_by_a_tiny_weight_fails_as_one_off_by_a_large_one(monkeypatch, weight, name, entry, failing):
    # the verdicts are exact: no weight is small enough to pass as rounding
    assert all(check(n, 64).ok for n in range(1, 5) for check in ALL_HERMITE)
    _perturbed_build(monkeypatch, name, entry, weight=weight)
    statuses = [check(n, 64).status for n in range(1, 5) for check in ALL_HERMITE]
    assert statuses.count("fail") == failing and statuses.count("error") == 0


@pytest.mark.parametrize("check", ALL_HERMITE)
def test_q_off_its_ladder_never_passes(monkeypatch, check):
    # the checks hold q by its two off-diagonals, so they must refuse a q
    # they cannot carry instead of passing it blindly
    _perturbed_build(monkeypatch, "q_mat", (0, 0, 0))
    for n in range(5):
        report = check(n, 64)
        assert report.status == "error"
        assert "off its two off-diagonals" in report.witness


@pytest.mark.parametrize("check", ALL_HERMITE)
def test_h_off_its_diagonal_never_passes(monkeypatch, check):
    # every check reads H by its diagonal alone, so it must refuse an H
    # with more, instead of dropping the rest
    _perturbed_build(monkeypatch, "h_mat", (1, 0, 0), (-6, 1, 1))
    for n in range(5):
        report = check(n, 64)
        assert report.status == "error"
        assert "H has a nonzero entry off its diagonal" in report.witness


def test_p_off_its_bands_never_passes(monkeypatch):
    # only the bridge reads p, by its three bands
    _perturbed_build(monkeypatch, "p_mat", (5, 0, 0), (-7, 1, 0))
    for n in range(5):
        report = oscillator.check_symbolic_bridge(n, 64)
        assert report.status == "error"
        assert "p has a nonzero entry beyond its three bands" in report.witness


TRUE_BANDS_PRODUCT = oscillator._product


def test_a_bracket_without_its_second_order_fails_hermite(monkeypatch):
    # {x, y} -> x y: the tower, the shifted expansions and the bridge differ
    # from {q,H}_1 on; the main identity reads {q, H^n} on its right side
    # only, so it fails at n = 0 (q against 2q) and holds at n = 1 (2 q H)
    monkeypatch.setattr(oscillator, "_product", lambda x, y, s: TRUE_BANDS_PRODUCT(x, y, 0))
    swept = run_suite("hermite", max_n=4)
    passing = {(r.params["check"], r.params["n"]) for r in swept if r.ok}
    assert len(swept) == 20 and {r.status for r in swept} == {"pass", "fail"}
    zero = {(c, 0) for c in ("closed_form", "shifted_expansions", "symbolic_bridge")}
    assert passing == zero | {("main_identity", 1)}


TRUE_PACK = suites._pack
TRUE_COLUMNS = suites._columns


def _zero_shifted_powers(*args):
    # the column set with every packed (z+1)^k read as 0
    base, d, zs, z1s, *euler = TRUE_COLUMNS(*args)
    return (base, d, zs, [0] * len(z1s), *euler)


def _unshifted_powers(*args):
    # the column set with z^k packed in place of (z+1)^k, the Euler columns untouched
    base, d, zs, _, *euler = TRUE_COLUMNS(*args)
    return (base, d, zs, zs, *euler)


BINOMIAL_VARIANTS = {
    # z^k in place of (z+1)^k in the plain columns
    "unshifted-power": (suites, "_columns", _unshifted_powers, "plain version"),
    # E_k(z) in place of E_k(z+1)
    "unshifted-euler": (suites, "_euler_of_shifted", euler_polynomial, "Euler version"),
    # every column packed as its numerators, without D/den: the plain
    # columns have den 1, so only the Euler columns lose their D
    "scalar-drops-denominator": (suites, "_pack", lambda p, scale, base: TRUE_PACK(p, p._den, base), "Euler version"),
    # a packed plain right-hand side of 0: only the plain form's left side,
    # which packs its own weights, is left to fail
    "zero-sum": (suites, "_columns", _zero_shifted_powers, "plain version"),
}


@pytest.fixture
def fresh_caches():
    """Cached polynomials built under a patch must not outlive it.  A column set
    lives only as long as its sweep or call, so only the Euler polynomials'
    process-wide cache is cleared."""
    sequences.euler_polynomial.cache_clear()
    yield
    sequences.euler_polynomial.cache_clear()


def _binomial_failures() -> list:
    reports = run_suite("binomial", max_n=3, max_m=3, max_l=3)
    assert len(reports) == 64
    return [r for r in reports if r.status == "fail"]


def test_true_binomial_helpers_pass(fresh_caches):
    assert _binomial_failures() == []


@pytest.mark.parametrize("variant", sorted(BINOMIAL_VARIANTS))
def test_binomial_mutant_fails_records(monkeypatch, fresh_caches, variant):
    owner, name, wrong, label = BINOMIAL_VARIANTS[variant]
    monkeypatch.setattr(owner, name, wrong)
    failing = _binomial_failures()
    assert failing
    assert all(r.witness.startswith(f"{label}: (") for r in failing)


def test_unshifted_powers_fail_every_record_with_a_power(monkeypatch, fresh_caches):
    # with z^k for (z+1)^k the plain sides differ at z^0 once m, n >= 1 and
    # n <= m + l: C(m+l, n) against C(l, n).  At min(m, n) = 0 each side is
    # one equal weight, and at n > m + l every weight is 0
    monkeypatch.setattr(suites, "_columns", _unshifted_powers)
    failing = {(r.params["m"], r.params["n"], r.params["l"]) for r in _binomial_failures()}
    assert failing == {(m, n, l) for m in range(1, 4) for n in range(1, 4) for l in range(4) if n <= m + l}


def test_a_binomial_witness_shows_the_packed_sides(monkeypatch, fresh_caches):
    # a witness unpacks the sums the check compared: with z^k packed for
    # (z+1)^k its right side is 2z + z^2, not the true (z+1)-sum, which is
    # the left side 3 + 4z + z^2 again
    monkeypatch.setattr(suites, "_columns", _unshifted_powers)
    assert verify_binomial(2, 2, 1).witness == "plain version: (x^2 + 4*x + 3) != (x^2 + 2*x)"


TRUE_VANDERMONDE = suites._vandermonde


def test_a_binomial_sweep_leaves_no_table_behind(monkeypatch, fresh_caches):
    # C(1,0) C(1,1) + C(1,1) C(1,0) read as 3: record (j+1, j+1, 1) reads that
    # entry at column j, and no other record reads it
    assert _binomial_failures() == []

    def off_by_one():
        table = TRUE_VANDERMONDE()
        return lambda a, b, l: table(a, b, l) + ((a, b, l) == (1, 1, 1))

    monkeypatch.setattr(suites, "_vandermonde", off_by_one)
    failing = _binomial_failures()
    assert [(r.params["m"], r.params["n"], r.params["l"]) for r in failing] == [(1, 1, 1), (2, 2, 1), (3, 3, 1)]
    assert [r.witness for r in failing] == [f"Vandermonde convolution at j={j}: 3 != 2" for j in range(3)]
    direct = suites.verify_binomial(2, 2, 1)
    assert (direct.status, direct.witness) == ("fail", failing[1].witness)


def test_a_vandermonde_fault_outranks_an_euler_fault(monkeypatch, fresh_caches):
    # one fused test decides both forms, yet a record's witness names the
    # first failing check of plain version, Vandermonde convolution, Euler
    # version: with the (1, 1, 1) entry off by one and E_k(z) packed for
    # E_k(z+1), the three records that read that entry report the table, and
    # with z^k packed for (z+1)^k as well they report the plain form
    def off_by_one():
        table = TRUE_VANDERMONDE()
        return lambda a, b, l: table(a, b, l) + ((a, b, l) == (1, 1, 1))

    monkeypatch.setattr(suites, "_vandermonde", off_by_one)
    monkeypatch.setattr(suites, "_euler_of_shifted", euler_polynomial)
    failing = {(r.params["m"], r.params["n"], r.params["l"]): r.witness for r in _binomial_failures()}
    diagonal = [(1, 1, 1), (2, 2, 1), (3, 3, 1)]
    assert [failing.pop(key) for key in diagonal] == [f"Vandermonde convolution at j={j}: 3 != 2" for j in range(3)]
    assert failing and all(w.startswith("Euler version: (") for w in failing.values())
    monkeypatch.setattr(suites, "_columns", _unshifted_powers)
    failing = {(r.params["m"], r.params["n"], r.params["l"]): r.witness for r in _binomial_failures()}
    assert all(failing[key].startswith("plain version: (") for key in diagonal)


TRUE_TOWER = weyl.bracket_tower
TRUE_KAPPA = sequences.kappa
TRUE_LAM = sequences.lam

CLOSURE_VARIANTS = {
    # ad_x^n h0 without its last nonzero bracket, in the suite's umbral sums
    "short-tower": (
        "bracket_tower", lambda x, w: TRUE_TOWER(x, w)[:-1], "figueira",
        ("half-step conjugate vs umbral sum: ", "pseudo-symmetry relation: "),
    ),
    "doubled-kappa-5": (
        "kappa", lambda n: TRUE_KAPPA(n) * (2 if n == 5 else 1), "sequences",
        ("kappa_5 = 1, expected 1/2",),
    ),
    # the sequences record's other checks: an even kappa, an odd lambda and the bridge
    "one-kappa-2": (
        "kappa", lambda n: 1 if n == 2 else TRUE_KAPPA(n), "sequences",
        ("kappa_2 = 1, expected 0",),
    ),
    "doubled-kappa-11": (
        "kappa", lambda n: TRUE_KAPPA(n) * (2 if n == 11 else 1), "sequences",
        ("lambda_11 = 353792, expected 0",),
    ),
    "lam-8-plus-1": (
        "lam", lambda n: TRUE_LAM(n) + (n == 8), "sequences",
        ("lambda_8: binomial bridge gives 1385, direct form 1386",),
    ),
}


def test_true_closure_helpers_pass():
    reports = run_suite("figueira") + run_suite("sequences")
    assert len(reports) == 5 and all(r.ok for r in reports)


@pytest.mark.parametrize("variant", sorted(CLOSURE_VARIANTS))
def test_closure_mutant_fails_every_record(monkeypatch, variant):
    name, wrong, suite, witnesses = CLOSURE_VARIANTS[variant]
    monkeypatch.setattr(suites, name, wrong)
    reports = run_suite(suite)
    assert reports and all(r.status == "fail" for r in reports)
    assert all(r.witness.startswith(witnesses) for r in reports)


def test_formal_suites_do_not_need_subst_c(monkeypatch):
    def refuse(self, v):
        raise AssertionError("subst_c called")

    monkeypatch.setattr(weyl.WeylElement, "subst_c", refuse)
    assert [r.status for r in run_suite("bender", max_n=6)] == ["pass"] * 7
    assert suites.verify_superoperators(8).ok
    for n in range(1, 5):
        report = oscillator.check_symbolic_bridge(n, 64)
        assert report.status == "error"
        assert "subst_c called" in report.witness


EULER_WEIGHTS = {"shifted_euler": "shifted-argument form", "euler_polynomial": "centered form"}


@pytest.mark.parametrize("blind_subst_c", [False, True], ids=["true-subst_c", "zero-subst_c"])
@pytest.mark.parametrize("name", sorted(EULER_WEIGHTS))
def test_perturbed_euler_coefficient_fails_bender(monkeypatch, name, blind_subst_c):
    # e_(n,0) or f_(n,0) off by 1/3, for every n >= 1 (at n = 0 there is no m < n);
    # a subst_c that returns zero must not hide it
    true_poly = getattr(suites, name)
    perturbed = lambda n: true_poly(n) + Fraction(1, 3) if n else true_poly(n)
    monkeypatch.setattr(suites, name, perturbed)
    if blind_subst_c:
        monkeypatch.setattr(weyl.WeylElement, "subst_c", lambda self, v: weyl.WeylElement())
    reports = run_suite("bender", max_n=6)
    assert [r.status for r in reports] == ["pass"] + ["fail"] * 6
    assert all(r.witness.startswith(f"{EULER_WEIGHTS[name]}: ") for r in reports[1:])


def test_a_failing_bender_witness_names_the_first_differing_term(monkeypatch):
    # f_(1,0) off by 1/3: the right side gains 2/2 * 1/3 u {q, 1} = 2/3 i c q,
    # so one (a, b) term differs, at q^1 p^0
    true_poly = suites.euler_polynomial
    monkeypatch.setattr(suites, "euler_polynomial", lambda n: true_poly(n) + Fraction(1, 3) if n else true_poly(n))
    assert suites.verify_bender(1).witness == (
        "centered form: lhs - rhs has 1 term(s), first at q^1p^0: lhs ((-1*i)*c) vs rhs ((-1/3*i)*c); "
        "lhs - rhs = ((-2/3*i)*c) * q"
    )


TRUE_CPOLY_MUL = CPoly.__mul__


def _numerator_only(x, y):
    """CPoly's product with a Fraction operand scaled by its numerator only."""
    return TRUE_CPOLY_MUL(x, y.numerator if type(y) is Fraction else y)


def test_number_scaling_by_the_numerator_only_fails_bender(monkeypatch):
    # the centered chain's H - u/2 becomes H - u, and each Euler weight with
    # a denominator loses it: the m = 0 weight E_n/2 of the shifted form at
    # even n.  n = 1 still holds, where both sides of the centered form
    # gain the same -u q
    assert all(r.ok for r in run_suite("bender", max_n=6))
    monkeypatch.setattr(CPoly, "__mul__", _numerator_only)
    monkeypatch.setattr(CPoly, "__rmul__", _numerator_only)
    reports = run_suite("bender", max_n=6)
    assert [r.status for r in reports] == ["fail", "pass"] + ["fail"] * 5
    labels = [r.witness.split(":")[0] for r in reports]
    assert labels == ["shifted-argument form", "", *["shifted-argument form", "centered form"] * 2, "shifted-argument form"]


def test_a_plus_minus_weight_off_by_one_fails_bender(monkeypatch):
    # C(n,k) + 1 for 0 < k < n in the plus/minus average's one sum: it reads
    # the levels k = n mod 2, so n <= 2 reads no such k and holds, and every
    # n >= 3 reads k = 1 or k = 2 and fails
    true_comb = suites.comb
    monkeypatch.setattr(suites, "comb", lambda n, k: true_comb(n, k) + (0 < k < n))
    reports = run_suite("bender", max_n=6)
    assert [r.status for r in reports] == ["pass"] * 3 + ["fail"] * 4
    assert all(r.witness.startswith("plus/minus average: ") for r in reports[3:])


SUPEROPERATOR_WITNESSES = {
    "dropped-k1": (
        "(A-B)^2 q vs (-2)^2 H^2 q: lhs - rhs has 1 term(s), first at q^1p^0: lhs (6*c^2) vs rhs (2*c^2); "
        "lhs - rhs = (4*c^2) * q"
    ),
    "k-plus-1-factorial": (
        "(A-B)^2 q vs (-2)^2 H^2 q: lhs - rhs has 1 term(s), first at q^1p^0: lhs (18*c^2) vs rhs (22*c^2); "
        "lhs - rhs = (-4*c^2) * q"
    ),
    # the (A+-B)^k q identities are even in c, the closed form A^1 q = -c p is not
    "sign-of-c": (
        "A^1 q vs its closed form: lhs - rhs has 1 term(s), first at q^0p^1: lhs (c) vs rhs (-1*c); "
        "lhs - rhs = (2*c) * p"
    ),
}


@pytest.mark.parametrize("variant", sorted(SUPEROPERATOR_WITNESSES))
def test_wrong_rule_fails_superoperators(monkeypatch, variant):
    monkeypatch.setattr(weyl, "contraction_weights", VARIANTS[variant])
    report = suites.verify_superoperators(6)
    assert report.status == "fail"
    assert report.witness == SUPEROPERATOR_WITNESSES[variant]


WITNESS_CASES = {  # selector -> (bounds, the patch (owner, name, wrong), the labels its records may fail with)
    "bender": ({"max_n": 4}, (weyl, "contraction_weights", VARIANTS["dropped-k1"]),
               {"shifted-argument form", "centered form", "plus/minus average"}),
    "figueira": ({}, (suites, "bracket_tower", CLOSURE_VARIANTS["short-tower"][1]),
                 {"pseudo-symmetry relation", "half-step conjugate vs umbral sum"}),
    "superoperators": ({"max_n": 6}, (weyl, "contraction_weights", VARIANTS["dropped-k1"]),
                       {"(A-B)^2 q vs (-2)^2 H^2 q"}),
    "pain": ({"max_n": 3, "max_m": 3}, (suites, "euler_zero", lambda k: Fraction(1, 7)), {"commutator expansion"}),
    "reciprocal": ({"max_n": 3, "max_m": 3}, (suites, "bernoulli_number", lambda k: Fraction(1, 7)),
                   {"antiderivative form", "scaled-Bernoulli rewriting"}),
    "mccoy": ({"max_n": 3, "max_m": 3}, (weyl, "contraction_weights", VARIANTS["dropped-k1"]),
              {"commutator series", "anticommutator series", "derivative expansion"}),
    "functions": ({}, (suites, "euler_zero", lambda k: Fraction(1, 7)),
                  {"commutator via Euler weights", "product via Euler weights"}),
}
WITNESS_SHAPE = re.compile(
    r"(?P<label>[^:]+): lhs - rhs has (?P<count>\d+) term\(s\), first at q\^\d+p\^\d+: "
    r"lhs \(.+\) vs rhs \(.+\); lhs - rhs = .+"
)


@pytest.mark.parametrize("selector", sorted(WITNESS_CASES))
def test_every_symbolic_witness_names_its_first_differing_term(monkeypatch, selector):
    # one verdict for every symbolic record: the form's label, how many
    # (a, b) terms differ, the first one with both sides' coefficients, and
    # the difference itself
    bounds, (owner, name, wrong), labels = WITNESS_CASES[selector]
    monkeypatch.setattr(owner, name, wrong)
    failing = [r for r in run_suite(selector, **bounds) if r.status == "fail"]
    assert failing
    for r in failing:
        shape = WITNESS_SHAPE.fullmatch(r.witness)
        assert shape, r.witness
        assert shape["label"] in labels and int(shape["count"]) >= 1


TRUE_SHIFTED_EULER = suites.shifted_euler
TRUE_NESTED_ANTICOMMUTATOR = suites.nested_anticommutator

STALE_STATE_PATCHES = {
    # e_(n,0) off by 1/3: the right-hand side must be read anew
    "shifted_euler": lambda n: TRUE_SHIFTED_EULER(n) + Fraction(1, 3) if n else TRUE_SHIFTED_EULER(n),
    # a bracket that nests once too often: the towers must be built anew
    "nested_anticommutator": lambda x, y, n: TRUE_NESTED_ANTICOMMUTATOR(x, y, n + 1),
}


@pytest.mark.parametrize("name", sorted(STALE_STATE_PATCHES))
def test_a_bender_sweep_leaves_no_state_behind(monkeypatch, name):
    # what a clean sweep built must not reach the next one: after a patch,
    # the sweep decides every record as a fresh verify_bender(n) does
    assert all(r.ok for r in run_suite("bender", max_n=6))
    monkeypatch.setattr(suites, name, STALE_STATE_PATCHES[name])
    swept = run_suite("bender", max_n=6)
    assert [r.status for r in swept] == ["pass"] + ["fail"] * 6
    direct = [suites.verify_bender(n) for n in range(7)]
    assert [(r.status, r.witness) for r in swept] == [(r.status, r.witness) for r in direct]


GRID_SWEEPS = {  # selector -> (the direct check of its grid records, least failing min(n, m))
    "pain": (suites.verify_pain, 2),
    "reciprocal": (suites.verify_reciprocal, 1),
    "mccoy": (suites.verify_exp_series, 1),
}


def test_a_grid_sweep_leaves_no_state_behind(monkeypatch):
    # {x, y} -> 2xy: the anticommutators in the bracket tables change, so
    # pain fails from min(n, m) = 2 on and reciprocal and exp-series from 1
    # on.  A second sweep must see that, as fresh direct calls do, and not
    # read the first sweep's tables.
    bounds = dict(max_n=3, max_m=3)
    assert all(r.ok for name in GRID_SWEEPS for r in run_suite(name, **bounds))
    monkeypatch.setattr(suites, "anticommutator", lambda x, y: 2 * x * y)
    for name, (verify, least) in GRID_SWEEPS.items():
        swept = run_suite(name, **bounds)[:16]  # mccoy's random records follow its grid
        direct = [verify(n, m) for n in range(4) for m in range(4)]
        assert [(r.status, r.witness) for r in swept] == [(r.status, r.witness) for r in direct]
        assert [r.status for r in swept] == [
            "fail" if min(n, m) >= least else "pass" for n in range(4) for m in range(4)
        ]


WEIGHT_SOURCES = {  # weight source -> (the grid whose rows read it, the direct check of its records)
    "euler_zero": ("pain", suites.verify_pain),
    "bernoulli_number": ("reciprocal", suites.verify_reciprocal),
}


def test_a_grid_sweep_leaves_no_weight_behind(monkeypatch):
    # E_k(0) or B_k read as 1/7: every weight from k = 1 on changes, so the
    # records with min(n, m) >= 1 fail.  A sweep after clean ones must see
    # that, as fresh direct calls do, and not read the weights a clean sweep
    # evaluated; once the patch is gone, a sweep passes again.
    bounds, cells = dict(max_n=3, max_m=3), [(n, m) for n in range(4) for m in range(4)]
    assert all(r.ok for suite, _ in WEIGHT_SOURCES.values() for r in run_suite(suite, **bounds))
    for name, (suite, verify) in WEIGHT_SOURCES.items():
        with monkeypatch.context() as patch:
            patch.setattr(suites, name, lambda k: Fraction(1, 7))
            swept = run_suite(suite, **bounds)
            direct = [verify(n, m) for n, m in cells]
        assert [(r.status, r.witness) for r in swept] == [(r.status, r.witness) for r in direct]
        assert [r.status for r in swept] == ["fail" if min(n, m) >= 1 else "pass" for n, m in cells]
        assert all(r.ok for r in run_suite(suite, **bounds))


def test_a_hermite_sweep_leaves_no_state_behind(monkeypatch):
    # {x,H} -> 2xH in the realization: every bracket of the tower changes
    # from {q,H}_1 on, so the closed forms, the shifted expansions and the
    # bridge fail from n = 1 on; the main identity still holds at n = 1,
    # where both sides are 4 q H.  A second sweep must see that, as fresh
    # checks do, and not read the first sweep's towers.
    assert all(r.ok for r in run_suite("hermite"))
    broken = lambda x, y, s: oscillator.Bands.weighted_sum([(1 + s, TRUE_BANDS_PRODUCT(x, y, 0))])  # {x, y} -> 2xy
    monkeypatch.setattr(oscillator, "_product", broken)
    swept = run_suite("hermite")
    failing = {(r.params["check"], r.params["n"]) for r in swept if r.status == "fail"}
    checks = ("closed_form", "shifted_expansions", "main_identity", "symbolic_bridge")
    assert failing == {(c, n) for c in checks for n in range(1, 9)} - {("main_identity", 1)}
    direct = [check(n, 64) for n in range(9) for check in ALL_HERMITE]
    assert [(r.status, r.witness) for r in swept] == [(r.status, r.witness) for r in direct]
