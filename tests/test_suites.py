"""Identity suites: spot instances, failure paths, and the sweep runner."""

import hashlib
import json
import random
from fractions import Fraction
from math import factorial

import pytest

from weylops import (
    CPoly,
    I,
    MINUS_I,
    RatPoly,
    WeylElement,
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
from weylops.report import run_check


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
    assert verify_binomial(7, 9, 2, euler_version=False).ok


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
    assert h1 == monomial(0, 1, CPoly.c_power(1, MINUS_I))
    closure = hadamard_conjugate(x, h0 + scalar(I) * h1, t=Fraction(1, 2))
    assert closure == p_op(2) - scalar(CPoly.c_power(2, Fraction(1, 4)))


def test_figueira_quadratic_fixture():
    # h0 = (p^2+q^2)/2, x = q: correction -i c p / 2, closure h0 - c^2/8
    h0, x = hamiltonian(), q_op()
    tower = [h0, commutator(x, h0), commutator(x, commutator(x, h0))]
    h1 = scalar(I) * scalar(kappa(1)) * tower[1]
    assert h1 == monomial(0, 1, CPoly.c_power(1, MINUS_I * Fraction(1, 2)))
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
# a negative cases, which the CLI has no option for, and bounds that are a
# bool or not an int, which the CLI's config loader refuses
_BAD_BOUNDS = [
    ("bender", {"max_n": -1}),
    ("pain", {"max_m": -1}),
    ("binomial", {"max_l": -1}),
    ("all", {"max_l": -3}),
    ("hermite", {"dim": 0}),
    ("hermite", {"dim": 3, "max_n": 1}),
    ("hermite", {"dim": 6, "max_n": 2}),
    ("all", {"dim": 7, "max_n": 2}),
    ("hermite", {"max_n": 31}),  # default dim 64
    ("functions", {"cases": -3}),
    ("hermite", {"dim": 64.0}),
    ("bender", {"max_n": True}),
    ("pain", {"max_m": 2.0}),
    ("binomial", {"max_l": False}),
    ("mccoy", {"seed": "1"}),
    ("functions", {"cases": 1.5}),
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


def test_run_suite_refuses_a_sweep_without_checks(check_calls):
    with pytest.raises(ValueError, match="no checks"):
        run_suite("combinatorics", max_n=0)
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("no-such-suite")
    assert check_calls == []


def test_run_suite_all_at_zero_bounds_still_runs(check_calls):
    # combinatorics has no check at max_n 0, but the sweep as a whole has
    reports = run_suite("all", max_n=0, max_m=0, max_l=0, cases=0)
    assert reports and all(r.ok for r in reports)
    assert len(check_calls) == len(reports)
    assert "combinatorics" not in check_calls and "hermite" in check_calls


def test_run_suite_all_with_tight_bounds():
    reports = run_suite("all", max_n=2, max_m=2, max_l=2, cases=2)
    assert len(reports) == 83
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


def test_run_suite_rejects_unknown_names():
    with pytest.raises(ValueError):
        run_suite("nope")


def test_random_sweeps_are_reproducible():
    a = run_suite("mccoy", max_n=1, max_m=1, cases=3, seed=5)
    b = run_suite("mccoy", max_n=1, max_m=1, cases=3, seed=5)
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
        failed = [r for r in run_suite(name, max_n=2, max_m=2, cases=2) if not r.ok]
        assert failed, name
        assert all(r.status == "fail" and "lhs - rhs" in r.witness for r in failed)


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


def test_golden_report_stream():
    # the behavioural contract for refactors: every record of `verify all` at
    # default bounds, elapsed_ms blanked, sorted keys, sha256
    records = json.loads(reports_to_json(run_suite("all")))
    for r in records:
        r["elapsed_ms"] = None
    blob = json.dumps(records, sort_keys=True).encode()
    assert len(records) == 2649
    assert hashlib.sha256(blob).hexdigest()[:16] == "a8c5eecd178f78aa"


# (engine products, term pairs) at default bounds, with a little room: a
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
# instead of reading one chain (432 / 1,047)
WORK_CEILINGS = {
    "bender": (75, 6_900),
    "superoperators": (155, 3_250),
    "pain": (450, 450),
    "reciprocal": (540, 540),
    "mccoy": (720, 890),
    "functions": (320, 940),
    "hermite": (20, 520),
}


@pytest.mark.parametrize("suite", sorted(WORK_CEILINGS))
def test_sweep_work_stays_under_its_ceiling(monkeypatch, suite):
    # counts the work, times nothing: term pairs are the (a, b) terms of the
    # left factor times those of the right, as perfbench's tracer counts them
    true_mul = WeylElement.__mul__
    work = [0, 0]

    def counted(self, other):
        try:
            right = WeylElement.of(other)
        except TypeError:
            return NotImplemented
        work[0] += 1
        work[1] += len(self.terms) * len(right.terms)
        return true_mul(self, right)

    monkeypatch.setattr(WeylElement, "__mul__", counted)
    reports = run_suite(suite)
    assert all(r.ok for r in reports)
    products, pairs = WORK_CEILINGS[suite]
    assert work[0] <= products and work[1] <= pairs, work


def test_binomial_sweep_sums_twice_per_record(monkeypatch):
    # the plain right-hand side and the Euler lhs - rhs, 2 x 2,197 sums, plus
    # the 13 compose sums behind E_k(z+1) when its cache is cold: 4,407.
    # Summing each Euler side on its own makes about 6,604.
    true_sum = RatPoly.weighted_sum.__func__
    calls = [0]

    def counted(cls, pairs):
        calls[0] += 1
        return true_sum(cls, pairs)

    monkeypatch.setattr(RatPoly, "weighted_sum", classmethod(counted))
    reports = run_suite("binomial")
    assert len(reports) == 2197 and all(r.ok for r in reports)
    assert calls[0] <= 4_410, calls[0]


# weights c^k (-w_k)/k! evaluated by a default sweep: one per row and k, 10
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
    # u^(n-m) read off one chain per sweep, each shift's a^(n-k) off one
    # chain per call and E_n(x + 1/2) composed with one product per degree:
    # 455 CPoly and 78 RatPoly products.  Raising each power from scratch
    # makes 1,379 and 239.
    products = {CPoly: 0, RatPoly: 0}
    for cls in products:
        true_mul = cls.__mul__

        def counted(self, other, cls=cls, true_mul=true_mul):
            products[cls] += 1
            return true_mul(self, other)

        monkeypatch.setattr(cls, "__mul__", counted)
        monkeypatch.setattr(cls, "__rmul__", counted)
    assert all(r.ok for r in run_suite("bender"))
    assert products[CPoly] <= 460 and products[RatPoly] <= 80, products


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
