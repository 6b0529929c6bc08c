"""Identity suites: spot instances, failure paths, and the sweep runner.

Beside the spot checks, this module pins what a default sweep gives and
what it costs:

* ``test_golden_report_stream`` pins the ``verify all`` record stream, with
  ``elapsed_ms`` blanked: each selector's record count and digest
  (``_GOLDEN_SLICES``) and the digest of the whole.
* ``test_sweep_work_stays_under_its_ceiling`` counts, at the engine's one
  product kernel, the products (a bracket as two) and term pairs of the
  bender, superoperators, pain, reciprocal, mccoy, functions and hermite
  sweeps.  A sweep that went back to rebuilding its brackets per record, to
  forming each power in ``poly_of_element`` from scratch, or to scaling
  brackets by scalar elements instead of weighting them in ``weighted_sum``
  exceeds its ceiling.
* ``test_binomial_sweep_sums_twice_per_record``: a passing binomial sweep
  makes no more than the 13 ``RatPoly.weighted_sum`` calls behind E_k(z+1),
  since a passing record sums nothing, and builds one column set, sized
  from the sweep's bounds.
* ``test_each_binomial_base_bounds_the_true_sides``,
  ``test_a_binomial_base_comes_from_the_bound`` and
  ``test_packed_verdicts_match_ratpoly_verdicts``: the base of a sweep's one
  column set bounds every coefficient of each record's true sides, and its
  fused columns carry the Euler half at 2^S, above every packed plain side;
  a smaller base can pack a nonzero polynomial as zero; packed, fused and
  ``RatPoly`` verdicts agree on true and perturbed weights, each packed sum
  unpacking to its ``RatPoly`` sum and each fused sum splitting into its
  plain and Euler ones.
* ``test_a_grid_sweep_evaluates_each_weight_once``: pain, reciprocal and
  mccoy evaluate each weight once per weight table, not per record.
* ``test_a_bender_sweep_takes_each_power_once``: bender raises no power of
  u from scratch and makes no ``RatPoly`` product.

Each ceiling's comment gives a default sweep's count today, and the counts of
the designs that the ceiling rules out.
"""

import hashlib
import json
import random
from fractions import Fraction
from math import comb, factorial
from operator import mul

import pytest
from hypothesis import given
from hypothesis import strategies as st

from weylops import (
    CPoly,
    I,
    RatPoly,
    XPoly,
    anticommutator,
    b_sum,
    commutator,
    extract_convolution_coefficients,
    hadamard_conjugate,
    hamiltonian,
    kappa,
    monomial,
    p_op,
    q_op,
    random_poly_pair,
    reports_to_json,
    run_suite,
    scalar,
    sequence_tables,
    standard_conjugation_fixtures,
    trinomial_sum,
    verify_bender,
    verify_binomial,
    verify_exp_series,
    verify_figueira,
    verify_function_identities,
    verify_mccoy,
    verify_pain,
    verify_reciprocal,
    verify_superoperators,
)
from weylops import sequences, suites, weyl
from weylops.report import run_check
from weylops.sequences import euler_polynomial
from weylops.suites import SELECTORS


def test_bender_instances():
    for n in (0, 1, 5, 9):
        report = verify_bender(n)
        assert report.ok, report.witness
        assert report.suite == "bender" and report.params == {"n": n}


def test_superoperators():
    assert verify_superoperators(8).ok


def test_difference_superoperator_sign():
    # (A - B)^3 q collapses to (-2)^3 H^3 q; the +2^3 variant is wrong
    q, h = q_op(), hamiltonian()
    d = q
    for _ in range(3):
        d = commutator(d, h) - anticommutator(d, h)
    assert d == scalar(Fraction(-8)) * h**3 * q
    assert d != scalar(Fraction(8)) * h**3 * q


def test_combinatorial_sums():
    assert b_sum(3, 0) == 2**5 == b_sum(3, 6)
    assert all(b_sum(3, s) == 0 for s in range(1, 6))
    assert trinomial_sum(2, 1, 1) == 24


def test_pain_and_reciprocal_instances():
    assert verify_pain(0, 0).ok  # empty sum against a zero commutator
    assert verify_pain(7, 4).ok
    assert verify_reciprocal(0, 0).ok
    assert verify_reciprocal(6, 9).ok
    assert verify_exp_series(5, 5).ok
    assert verify_exp_series(0, 3).ok


def test_exp_series_suite_name():
    assert verify_exp_series(2, 2).suite == "exp-series"


def test_mccoy_and_functions_on_fixed_pairs():
    pairs = [
        (RatPoly.of(1), RatPoly.x()),
        (RatPoly.x(), RatPoly.x()),
        (RatPoly({3: 2, 1: -1}), RatPoly({4: 1, 0: 5})),
        (RatPoly(), RatPoly.x()),  # zero polynomial degenerates gracefully
    ]
    for f, g in pairs:
        assert verify_mccoy(f, g).ok
        assert verify_function_identities(f, g).ok


def test_mccoy_and_functions_on_seeded_pairs():
    rng = random.Random(7)
    for _ in range(6):
        f, g = random_poly_pair(rng)
        assert verify_mccoy(f, g).ok
        assert verify_function_identities(f, g).ok


def test_tag_rides_into_params():
    report = verify_mccoy(RatPoly.x(), RatPoly.x(), tag={"case": 3, "seed": 0})
    assert report.params["case"] == 3 and report.params["seed"] == 0


def test_binomial_instances():
    assert verify_binomial(0, 0, 0).ok
    assert verify_binomial(5, 4, 3).ok
    assert verify_binomial(12, 12, 12).ok
    assert verify_binomial(7, 9, 2).ok
    # the bound's edges: K = 0 with every weight 0 (n > l), l = 0 at m = 12, and K = 0 with l = 12
    assert verify_binomial(0, 7, 5).ok
    assert verify_binomial(12, 3, 0).ok
    assert verify_binomial(0, 0, 12).ok


def test_figueira_fixture_values():
    # h0 = p^2, x = q: the correction term is -i c p and the closure is p^2 - c^2/4
    h0, x = p_op(2), q_op()
    tower = [h0]
    while tower[-1]:
        tower.append(commutator(x, tower[-1]))
    h1 = scalar(I) * sum(
        (scalar(kappa(n) / factorial(n)) * tower[n] for n in range(1, len(tower) - 1)),
        scalar(0),
    )
    assert h1 == monomial(0, 1, CPoly.c_power(1, -I))
    closure = hadamard_conjugate(x, h0 + scalar(I) * h1, t=Fraction(1, 2))
    assert closure == p_op(2) - scalar(CPoly.c_power(2, Fraction(1, 4)))


def test_figueira_quadratic_fixture():
    # h0 = (p^2+q^2)/2, x = q: correction -i c p / 2, closure h0 - c^2/8
    h0, x = hamiltonian(), q_op()
    tower = [h0, commutator(x, h0), commutator(x, commutator(x, h0))]
    h1 = scalar(I) * scalar(kappa(1)) * tower[1]
    assert h1 == monomial(0, 1, CPoly.c_power(1, -I * Fraction(1, 2)))
    closure = hadamard_conjugate(x, h0 + scalar(I) * h1, t=Fraction(1, 2))
    assert closure == h0 - scalar(CPoly.c_power(2, Fraction(1, 8)))


def test_figueira_suite_and_fixtures():
    fixtures = standard_conjugation_fixtures()
    assert len(fixtures) == 4
    for h0, x in fixtures:
        report = verify_figueira(h0, x)
        assert report.ok, report.witness


def test_sequence_tables():
    report = sequence_tables(16)
    assert report.ok, report.witness
    assert report.params["kappa"][9] == Fraction(31, 2)
    assert report.params["lambda"][6] == -61
    assert report.params["lambda"][16] == 19391512145


def test_convolution_coefficient_extraction():
    vs = extract_convolution_coefficients(12)
    assert vs[0] == 1
    assert vs[1:] == [kappa(k) for k in range(1, 13)]


def test_run_suite_counts_and_ordering():
    reports = run_suite("bender", max_n=6)
    assert len(reports) == 7
    assert [r.params["n"] for r in reports] == list(range(7))
    assert all(r.ok for r in reports)

    assert len(run_suite("pain", max_n=0, max_m=0)) == 1
    assert run_suite("pain", max_n=0, max_m=0)[0].ok

    assert len(run_suite("figueira")) == 4
    assert len(run_suite("sequences", max_n=8)) == 1
    assert len(run_suite("hermite", max_n=2)) == 12


@pytest.fixture
def check_calls(monkeypatch):
    """The suites of the records run from now on, counted at both run_checks."""
    import weylops.oscillator as oscillator
    import weylops.suites as suites_mod

    calls = []
    for module in (suites_mod, oscillator):
        real = module.run_check
        monkeypatch.setattr(
            module, "run_check", lambda suite, *args, real=real: calls.append(suite) or real(suite, *args)
        )
    return calls


# the bad bounds of tests/test_cli.py::test_bad_bounds_exit_2, two on "all",
# and bounds that are a bool or not an int, which only a Python caller can pass
_BAD_BOUNDS = [
    ("bender", {"max_n": -1}),
    ("pain", {"max_m": -1}),
    ("binomial", {"max_l": -1}),
    ("all", {"max_l": -3}),
    ("hermite", {"dim": 0}),
    ("hermite", {"dim": 3, "max_n": 1}),
    ("all", {"dim": 3}),
    ("hermite", {"dim": 64.0}),
    ("bender", {"max_n": True}),
    ("pain", {"max_m": 2.0}),
    ("binomial", {"max_l": False}),
    ("mccoy", {"seed": "1"}),
]


@pytest.mark.parametrize(
    "name, bounds",
    _BAD_BOUNDS,
    ids=[f"{name}-" + ",".join(f"{k}={v}" for k, v in b.items()) for name, b in _BAD_BOUNDS],
)
def test_run_suite_refuses_bad_bounds_before_any_check(check_calls, name, bounds):
    with pytest.raises(ValueError, match="must be"):
        run_suite(name, **bounds)
    assert check_calls == []


@pytest.mark.parametrize(
    "name, bounds",
    [("hermite", {"dim": 6, "max_n": 2}), ("all", {"dim": 7, "max_n": 2}), ("hermite", {"dim": 4, "max_n": 9})],
    ids=["hermite-dim=6,max_n=2", "all-dim=7,max_n=2", "hermite-dim=4,max_n=9"],
)
def test_run_suite_runs_a_dim_below_2_max_n_plus_4(check_calls, name, bounds):
    # dim bounds no order: it labels the hermite records
    reports = run_suite(name, **bounds)
    hermite = [r for r in reports if r.suite == "hermite"]
    assert all(r.ok for r in reports) and len(check_calls) == len(reports)
    assert len(hermite) == 4 * (bounds["max_n"] + 1)
    assert {r.params["dim"] for r in hermite} == {bounds["dim"]}


def test_run_suite_refuses_a_sweep_without_checks(check_calls):
    with pytest.raises(ValueError, match="no checks"):
        run_suite("combinatorics", max_n=0)
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("no-such-suite")
    assert check_calls == []


def test_run_suite_all_at_zero_bounds_still_runs(check_calls):
    # combinatorics has no check at max_n 0, but the sweep as a whole has
    reports = run_suite("all", max_n=0, max_m=0, max_l=0)
    assert reports and all(r.ok for r in reports)
    assert len(check_calls) == len(reports)
    assert "combinatorics" not in check_calls and "hermite" in check_calls


def test_run_suite_all_with_tight_bounds():
    reports = run_suite("all", max_n=2, max_m=2, max_l=2)
    assert len(reports) == 103
    assert all(r.ok for r in reports), [r.render() for r in reports if not r.ok]
    suites = {r.suite for r in reports}
    assert {
        "bender",
        "superoperators",
        "combinatorics",
        "pain",
        "reciprocal",
        "exp-series",
        "mccoy",
        "functions",
        "binomial",
        "figueira",
        "sequences",
        "hermite",
    } <= suites


@pytest.mark.parametrize(
    "call",
    [
        lambda: run_suite("functions", cases=2),
        lambda: verify_binomial(1, 1, 1, euler_version=False),
        lambda: random_poly_pair(random.Random(0), 3),
        lambda: weyl.bracket_tower(q_op(), p_op(2), 8),
        lambda: XPoly.monomial(1, 2),
    ],
    ids=["run_suite-cases", "verify_binomial-euler_version", "random_poly_pair-max_degree",
         "bracket_tower-cap", "XPoly.monomial-coeff"],
)
def test_fixed_sweep_constants_are_not_options(check_calls, call):
    # 12 random cases, both binomial forms, degree 4, 64 brackets, coefficient 1
    with pytest.raises(TypeError):
        call()
    assert check_calls == []


def test_run_suite_rejects_unknown_names():
    with pytest.raises(ValueError):
        run_suite("nope")


def test_random_sweeps_are_reproducible():
    a = run_suite("mccoy", max_n=1, max_m=1, seed=5)
    b = run_suite("mccoy", max_n=1, max_m=1, seed=5)
    assert [r.params for r in a] == [r.params for r in b]


@pytest.mark.parametrize(
    "weight, selectors",
    [("euler_zero", ("pain", "functions")), ("bernoulli_number", ("reciprocal", "functions"))],
    ids=["euler_zero", "bernoulli_number"],
)
def test_failing_check_is_reported_not_raised(monkeypatch, weight, selectors):
    # a wrong weight source must fail the rows that read it, which holds only
    # while the identity rows look their weights up when a record runs
    import weylops.suites as suites_mod

    monkeypatch.setattr(suites_mod, weight, lambda k: Fraction(1, 7))
    for name in selectors:
        failed = [r for r in run_suite(name, max_n=2, max_m=2) if not r.ok]
        assert failed, name
        assert all(r.status == "fail" and "lhs - rhs" in r.witness for r in failed)


def test_elapsed_ms_has_steps_of_a_tenth_of_a_microsecond(monkeypatch):
    # a binomial record takes 4-6 us, so 1 us steps would be a fifth of it
    from types import SimpleNamespace

    from weylops import report

    clock = iter([1.0, 1.0 + 6.54321e-6])
    monkeypatch.setattr(report, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    assert run_check("demo", {}, lambda: "").elapsed_ms == 0.0065


def test_error_check_is_reported_not_raised():
    report = run_check("demo", {"x": 1}, lambda: 1 // 0)
    assert report.status == "error"
    assert report.witness.startswith("ZeroDivisionError")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: verify_bender(-1), "need n >= 0, got -1"),
        (lambda: verify_superoperators(-1), "need max_k >= 0, got -1"),
        (lambda: sequence_tables(-1), "need max_n >= 0, got -1"),
        (lambda: verify_binomial(-1, 0, 0), "need m >= 0, got -1"),
        (lambda: verify_binomial(2, -1, 0), "need n >= 0, got -1"),
        (lambda: verify_binomial(0, 0, -1), "need l >= 0, got -1"),
    ],
    ids=["bender", "superoperators", "sequences", "binomial-m", "binomial-n", "binomial-l"],
)
def test_negative_order_is_an_error(call, message):
    # with no order to check, these would report a PASS having checked nothing
    report = call()
    assert report.status == "error"
    assert report.witness == f"ValueError: {message}"


def test_reports_serialize_deterministically():
    def strip(blob: str):
        records = json.loads(blob)
        for r in records:
            r["elapsed_ms"] = None
        return records

    a = reports_to_json(run_suite("figueira"))
    b = reports_to_json(run_suite("figueira"))
    assert strip(a) == strip(b)
    assert strip(a)[0]["status"] == "pass"


# selector -> (records, digest) of its contiguous slice of the `verify all`
# stream, hashed as the whole stream is: a re-pin shows which selectors moved
_GOLDEN_SLICES = {
    "bender": (13, "95d18fa340db2b01"),
    "superoperators": (1, "588b1cf67fadae7c"),
    "combinatorics": (8, "3639cdc77d0a6d99"),
    "pain": (121, "2d3a617c849918a3"),
    "reciprocal": (121, "ced64e107907ebcb"),
    "mccoy": (133, "078f4205fc143ba1"),
    "functions": (14, "e3dd02c9821b76ca"),
    "binomial": (2197, "753359695f066db1"),
    "figueira": (4, "1e7c49b351724da1"),
    "sequences": (1, "d6f88ec4aa187e05"),
    "hermite": (36, "e26c63c9a1e61936"),
}


def _digest(records) -> str:
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()[:16]


def test_golden_report_stream():
    # the behavioural contract for refactors: every record of `verify all` at
    # default bounds, elapsed_ms blanked, sorted keys, sha256
    records = json.loads(reports_to_json(run_suite("all")))
    for r in records:
        r["elapsed_ms"] = None
    assert len(records) == 2649
    assert _digest(records) == "a8c5eecd178f78aa"
    assert list(_GOLDEN_SLICES) == list(SELECTORS)
    start, slices = 0, {}
    for name, (count, _) in _GOLDEN_SLICES.items():
        slices[name] = (count, _digest(records[start : start + count]))
        start += count
    assert slices == _GOLDEN_SLICES


# (engine products, term pairs) at default bounds, counted at the product
# kernel with a bracket as two products, with a little room: a
# sweep that rebuilt its brackets per record (1,599 / 57,139 for bender,
# 494 / 8,056 for superoperators) would exceed them several times over, and
# one that scaled its brackets by scalar elements instead of weighting them
# in weighted_sum (463 / 16,545 for bender, 234 / 4,252 for superoperators,
# 1,397 / 1,727 for pain, 3,157 / 3,982 for reciprocal, 2,040 / 4,266 for
# mccoy) would exceed them too, as would bender and superoperators
# multiplying by constants or comparing brackets with themselves again
# (177 / 10,875 and 219 / 4,077), and a hermite sweep whose bridge records
# each bracketed {q,H}_n from q instead of reading one chain (72 / 1,320).
# A monomial grid whose records each built their own brackets instead of
# reading one table per sweep (1,012 / 1,012 for pain, 2,266 / 2,266 for
# reciprocal, 1,137 / 1,302 for mccoy) exceeds them, and so do functions
# records that form each power of p or q from scratch in poly_of_element
# instead of reading one chain (432 / 1,047), and figueira records that
# built e^x h0 e^-x from a second tower of h0's brackets (82 / 118)
WORK_CEILINGS = {
    "bender": (75, 6_900),
    "superoperators": (155, 3_250),
    "pain": (450, 450),
    "reciprocal": (540, 540),
    "mccoy": (720, 890),
    "functions": (320, 940),
    "hermite": (20, 520),
    "figueira": (62, 95),
}


@pytest.mark.parametrize("suite", sorted(WORK_CEILINGS))
def test_sweep_work_stays_under_its_ceiling(monkeypatch, suite):
    # counts the work, times nothing, at the engine's one product kernel: a
    # bracket there is two products, and term pairs are the (a, b) terms of
    # one factor times those of the other, as perfbench's tracer counts them
    true_product = weyl._product
    work = [0, 0]

    def counted(x, y, s):
        products = 2 if s else 1
        work[0] += products
        work[1] += products * len(x.terms) * len(y.terms)
        return true_product(x, y, s)

    monkeypatch.setattr(weyl, "_product", counted)
    reports = run_suite(suite)
    assert all(r.ok for r in reports)
    products, pairs = WORK_CEILINGS[suite]
    assert work[0] <= products and work[1] <= pairs, work


def test_a_functions_record_takes_each_derivative_once(monkeypatch):
    # f^(k) and g^(k) are read off one chain per polynomial, so each takes
    # kmax = 4 derivatives, one per order; deriving every order from f anew
    # would take kmax (kmax + 1) / 2 each
    f, g = RatPoly({k: k + 1 for k in range(6)}), RatPoly({k: 1 - k for k in range(5)})
    true_derivative = RatPoly.derivative
    degrees = []

    def counted(self):
        degrees.append(self.degree())
        return true_derivative(self)

    monkeypatch.setattr(RatPoly, "derivative", counted)
    assert verify_function_identities(f, g).ok
    assert sorted(degrees) == [1, 2, 2, 3, 3, 4, 4, 5]


def test_binomial_sweep_sums_twice_per_record(monkeypatch):
    # each record decides both forms by packed-integer tests, so a passing
    # sweep sums only to compose: the 13 sums behind E_k(z+1) (the ceiling
    # was 4,410 while each record summed two RatPoly sides).  It builds one
    # column set, sized from its bounds, on its first record's first read
    sequences.euler_polynomial.cache_clear()
    true_sum, true_columns = RatPoly.weighted_sum.__func__, suites._columns
    calls = [0, 0]

    def counted(cls, pairs):
        calls[0] += 1
        return true_sum(cls, pairs)

    def built(*args):
        calls[1] += 1
        return true_columns(*args)

    monkeypatch.setattr(RatPoly, "weighted_sum", classmethod(counted))
    monkeypatch.setattr(suites, "_columns", built)
    reports = run_suite("binomial")
    assert len(reports) == 2197 and all(r.ok for r in reports)
    assert calls[0] <= 13 and calls[1] == 1, calls


def _two_rows(m: int, n: int, l: int) -> tuple[range, list[int], list[int]]:
    ks = range(min(m, n) + 1)
    return ks, [comb(m, k) * comb(m - k + l, n - k) for k in ks], [comb(m, k) * comb(l, n - k) for k in ks]


def _bases() -> list[tuple[RatPoly, ...]]:
    """z^k, (z+1)^k, E_k(z) and E_k(z+1) for k <= 12, built here without the suite's helpers."""
    z1 = RatPoly({0: 1, 1: 1})
    return [(RatPoly({k: 1}), z1**k, euler_polynomial(k), euler_polynomial(k).compose(z1)) for k in range(13)]


def _true_sides(bases: list, ks: range, lw: list[int], rw: list[int]) -> tuple[RatPoly, ...]:
    """The plain and the Euler (lhs, rhs), summed as RatPoly."""
    return tuple(RatPoly.weighted_sum((w, bases[k][j]) for k, w in zip(ks, row)) for j, row in enumerate((lw, rw, lw, rw)))


def test_each_binomial_base_bounds_the_true_sides(monkeypatch):
    # every default record packs both forms at the sweep's one base B, with
    # 2^B above every coefficient of D lhs and D rhs, D the denominator its
    # column set scales by.  Its fused columns carry the Euler half at 2^S,
    # with every packed plain lhs and rhs below 2^(S-1) in absolute value, so
    # a fused sum splits into its two halves
    true_columns, used = suites._columns, []

    def recording(*args):
        columns = true_columns(*args)
        used.append(columns)
        return columns

    monkeypatch.setattr(suites, "_columns", recording)
    reports = run_suite("binomial")
    assert len(reports) == 2197 and all(r.ok for r in reports)
    ((base, d, zs, z1s, es, e1s),), largest, bases = used, 0, _bases()
    fused_base, fused_d, S, left, right = suites._column_set(12, 12, 12)()
    assert (fused_base, fused_d) == (base, d)
    assert left == [p + (e << S) for p, e in zip(zs, es)] and right == [p + (e << S) for p, e in zip(z1s, e1s)]
    widest = 0
    for r in reports:
        ks, lw, rw = _two_rows(r.params["m"], r.params["n"], r.params["l"])
        for side in _true_sides(bases, ks, lw, rw):
            scaled = [d * v for v in side.coeffs.values()]
            assert all(v.denominator == 1 for v in scaled), (r.params, side)
            top = max((abs(int(v)) for v in scaled), default=0)
            assert top.bit_length() < base, (r.params, base)
            largest = max(largest, top)
        for plain in (sum(map(mul, lw, zs)), sum(map(mul, rw, z1s))):
            assert abs(plain) < 2 ** (S - 1), (r.params, S)
            widest = max(widest, abs(plain).bit_length())
    assert largest == 517_316_800 < 2**29
    # the widest packed plain side, 676 bits, against S - 1 = 37 + 677 bits:
    # the weight bound plus the columns' summed magnitude
    assert widest == 676 < S - 1 == 714


def test_a_binomial_base_comes_from_the_bound():
    # 2^B - z is nonzero, yet packs at base B as the zero polynomial does: a
    # base is exact only when 2^B exceeds every coefficient
    for base in (1, 20, 45):
        assert suites._pack(RatPoly({0: 2**base, 1: -1}), 1, base) == suites._pack(RatPoly(), 1, base) == 0
        assert suites._pack(RatPoly({0: 2**base - 1, 1: -1}), 1, base) != 0
    # at k <= 12 the columns' summed D/den ||num||_1 is 233,670, 18 bits: with
    # weights below 2^26 the bound is 26 + 18 + 1 = 45
    base, d, *columns = suites._columns(12, 26)
    assert (base, d) == (45, 8) and all(len(c) == 13 for c in columns)


@st.composite
def _rows(draw):
    """(m, n, l) <= 12 and their two weight rows, one entry of them moved by
    +-1 unless the rows are drawn as they are."""
    m, n, l = (draw(st.integers(0, 12)) for _ in range(3))
    ks, lw, rw = _two_rows(m, n, l)
    if draw(st.booleans()):
        row = draw(st.sampled_from([lw, rw]))
        row[draw(st.integers(0, len(row) - 1))] += draw(st.sampled_from([-1, 1]))
    return (m, n, l), ks, lw, rw


@given(_rows())
def test_packed_verdicts_match_ratpoly_verdicts(rows):
    # the record's decision, sum(map(mul, weights, columns)) on either side,
    # says what the RatPoly sums say, in both forms, over the column set of
    # (m, n, l)'s own bounds; a weight moved by +1 can reach 2^(2m+l) + 1, so
    # bits are at least what the moved weights need.  Each packed sum unpacks
    # to its RatPoly sum, the side that a witness prints
    (m, n, l), ks, lw, rw = rows
    bits = max(2 * m + l + 1, max(map(abs, lw + rw)).bit_length())
    base, d, zs, z1s, es, e1s = suites._columns(min(m, n), bits)
    sums = [sum(map(mul, w, column)) for w, column in ((lw, zs), (rw, z1s), (lw, es), (rw, e1s))]
    lhs, rhs, lhs_e, rhs_e = sides = _true_sides(_bases(), ks, lw, rw)
    assert (sums[0] == sums[1], sums[2] == sums[3]) == (lhs == rhs, lhs_e == rhs_e)
    assert tuple(suites._unpacked(s, base, d) for s in sums) == sides
    # the record's one test: two fused sums, equal only if both forms hold,
    # each splitting at 2^S into its plain and Euler halves
    fused_base, fused_d, S, left, right = suites._fused(min(m, n), bits)
    assert (fused_base, fused_d) == (base, d)
    fused = [sum(map(mul, lw, left)), sum(map(mul, rw, right))]
    assert (fused[0] == fused[1]) == (lhs == rhs and lhs_e == rhs_e)
    halves = [suites._unpacked(half, base, d) for s in fused for half in suites._digit(s, S)]
    assert halves == [lhs, lhs_e, rhs, rhs_e]


# weights c^k w_k/k! evaluated by a default sweep: one per row and k, 10
# for pain's one row, 20 for reciprocal's two and 33 for mccoy (21 over its
# exp-series grid's two rows, 12 over its function records, each with a
# table of its own).  Evaluating them in every record takes 385, 770 and 903.
WEIGHT_CEILINGS = {"pain": 10, "reciprocal": 20, "mccoy": 33}


@pytest.mark.parametrize("suite", sorted(WEIGHT_CEILINGS))
def test_a_grid_sweep_evaluates_each_weight_once(monkeypatch, suite):
    import weylops.suites as suites_mod

    true_weight = suites_mod._c_weight
    calls = [0]

    def counted(k, w):
        calls[0] += 1
        return true_weight(k, w)

    monkeypatch.setattr(suites_mod, "_c_weight", counted)
    assert all(r.ok for r in run_suite(suite))
    assert calls[0] <= WEIGHT_CEILINGS[suite], calls[0]


def test_a_bender_sweep_takes_each_power_once(monkeypatch):
    # u^(n-m) read off one chain per sweep and scaled once per weight, and
    # E_n(x) and E_n(x + 1/2) built on integers: 166 CPoly and no RatPoly
    # products.  Two plus/minus sums over all n + 1 levels, each raising its
    # shift's powers on a chain of its own, made 455; raising each power from
    # scratch makes 1,379, and composing E_n(x + 1/2) 78 RatPoly products.
    products = {CPoly: 0, RatPoly: 0}
    for cls in products:
        true_mul = cls.__mul__

        def counted(self, other, cls=cls, true_mul=true_mul):
            products[cls] += 1
            return true_mul(self, other)

        monkeypatch.setattr(cls, "__mul__", counted)
        monkeypatch.setattr(cls, "__rmul__", counted)
    assert all(r.ok for r in run_suite("bender"))
    assert products[CPoly] <= 166 and products[RatPoly] == 0, products


def test_a_raising_weight_source_is_a_sequences_error(monkeypatch, capsys):
    # the kappa and lambda tables are built inside the record, so a raising
    # kappa is that record's error, and `verify` reports it and exits 1
    import weylops.suites as suites_mod
    from weylops.cli import main

    def refuse(n):
        raise ArithmeticError(f"no kappa_{n}")

    monkeypatch.setattr(suites_mod, "kappa", refuse)
    reports = run_suite("sequences")
    assert [(r.status, r.witness) for r in reports] == [("error", "ArithmeticError: no kappa_0")]
    assert main(["verify", "sequences"]) == 1
    out, err = capsys.readouterr()
    assert "[ERROR] sequences(" in out and "Traceback" not in out + err
