"""Acceptance gate: end-to-end checks of every advertised capability.

Each test prints a single [PASS]/[FAIL] line (visible under ``pytest -s``)
and then asserts, so the suite doubles as a human-readable checklist.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction

from weylops import (
    RatPoly,
    euler_polynomial,
    extract_convolution_coefficients,
    kappa,
    random_poly_pair,
    run_suite,
    sequence_tables,
    shifted_euler,
    solve_midpoint,
    verify_function_identities,
    verify_mccoy,
)


def _criterion(num: int, desc: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {num}: {desc}")
    assert not failures, "; ".join(failures[:5])


def _sweep(name: str, expected: int, failures: list[str], **kwargs) -> None:
    reports = run_suite(name, **kwargs)
    if len(reports) != expected:
        failures.append(f"{name}: expected {expected} records, got {len(reports)}")
    failures.extend(r.render() for r in reports if not r.ok)


def test_criterion_1_cli_entry_point(child_env):
    failures: list[str] = []
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "weylops", "verify", "bender", "--max-n", "6"],
        env=child_env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        failures.append(f"exit code {proc.returncode}: {proc.stderr.strip()[:200]}")
    if len(lines) != 7 or not all(l.startswith("[PASS ]") for l in lines):
        failures.append(f"unexpected output: {lines}")
    if elapsed >= 5.0:
        failures.append(f"took {elapsed:.1f}s (budget 5s)")
    _criterion(1, "CLI verify bender --max-n 6 prints 7 passes in under 5s", failures)


def test_criterion_2_symmetrized_power_identities():
    failures: list[str] = []
    t0 = time.perf_counter()
    _sweep("bender", 13, failures)
    if time.perf_counter() - t0 >= 60.0:
        failures.append("bender sweep exceeded 60s")
    _criterion(2, "symmetrized-power identities hold exactly for n <= 12", failures)


def test_criterion_3_weighted_bracket_expansions():
    failures: list[str] = []
    _sweep("pain", 121, failures)
    _sweep("reciprocal", 121, failures)
    _criterion(3, "Euler- and Bernoulli-weighted expansions hold for n, m <= 10", failures)


def test_criterion_4_sequence_tables():
    failures: list[str] = []
    report = sequence_tables(16)
    if not report.ok:
        failures.append(report.render())
    else:
        k, l = report.params["kappa"], report.params["lambda"]
        for idx, want in ((1, Fraction(1, 2)), (3, Fraction(-1, 4)), (9, Fraction(31, 2))):
            if k[idx] != want:
                failures.append(f"kappa[{idx}] = {k[idx]} != {want}")
        for idx, want in ((2, -1), (6, -61), (10, -50521)):
            if l[idx] != want:
                failures.append(f"lambda[{idx}] = {l[idx]} != {want}")
    _criterion(4, "weight-sequence tables to n = 16 match their generating functions", failures)


def test_criterion_5_conjugation_closures():
    failures: list[str] = []
    _sweep("figueira", 4, failures)
    _criterion(5, "series conjugation closes exactly on the standard fixtures", failures)


def test_criterion_6_combinatorial_sums():
    failures: list[str] = []
    _sweep("combinatorics", 8, failures)
    _criterion(6, "binomial/trinomial sum closed forms hold for n <= 8", failures)


def test_criterion_7_binomial_expansions():
    failures: list[str] = []
    _sweep("binomial", 13 * 13 * 13, failures)
    _criterion(7, "operator binomial expansions hold for m, n, l <= 12", failures)


def test_criterion_8_random_functions_and_matrix_realization():
    failures: list[str] = []
    rng = random.Random(0)
    for case in range(100):
        f, g = random_poly_pair(rng)
        for report in (verify_mccoy(f, g), verify_function_identities(f, g)):
            if not report.ok:
                failures.append(f"case {case}: {report.render()}")
    _sweep("hermite", 36, failures)
    _criterion(
        8,
        "100 random polynomial pairs verify symbolically and the matrix "
        "realization agrees to 1e-9",
        failures,
    )


def test_criterion_9_polynomial_family_properties():
    failures: list[str] = []
    x_plus_1 = RatPoly({0: 1, 1: 1})
    for n in range(21):
        e = euler_polynomial(n)
        if e + e.compose(x_plus_1) != RatPoly({n: 2}):
            failures.append(f"defining relation fails at n={n}")
        reflected = e.compose(RatPoly({0: 1, 1: -1}))
        if reflected != (-1) ** n * euler_polynomial(n):
            failures.append(f"reflection fails at n={n}")
    half = RatPoly({0: Fraction(1, 2), 1: 1})
    for n in range(13):
        if solve_midpoint(n) != euler_polynomial(n):
            failures.append(f"midpoint solve disagrees with Appell construction at n={n}")
        s = shifted_euler(n)
        if s + s.compose(RatPoly({0: 1, 1: 1})) != 2 * half**n:
            failures.append(f"shifted family misses its functional equation at n={n}")
    vs = extract_convolution_coefficients(12)
    if vs != [Fraction(1)] + [kappa(k) for k in range(1, 13)]:
        failures.append(f"operator-extracted weights {vs} != kappa sequence")
    _criterion(9, "polynomial family properties and operator-extracted weights", failures)
