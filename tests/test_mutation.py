"""Mutation gate: a deliberately wrong reordering rule must turn records FAIL.

Each variant replaces ``weyl.contraction_weights``, the one source of the
weights k! C(b,k) C(a,k) in  p^b q^a = sum_k w_k c^k q^(a-k) p^(b-k),  and
reruns bender, pain and reciprocal on small bounds.  monkeypatch puts the
true helper back afterwards.

The sign flip (-1)^k amounts to replacing c by -c in every product.  bender
and superoperators stay PASS under it, because both sides of each of their
identities are built by the engine alone and flip together.  Of the suites
run here only pain and reciprocal catch it: their right-hand sides carry
explicit powers of c, weighted by Euler and Bernoulli numbers, which do not
flip.

The matrix oracle gets the same treatment: a ladder whose H is 1% off in a
single low entry must turn the main identity FAIL.
"""

import pytest

from weylops import oscillator, weyl
from weylops.suites import run_suite

TRUE_WEIGHTS = weyl.contraction_weights

VARIANTS = {
    "sign-of-c": lambda b, a: tuple((-1) ** k * w for k, w in enumerate(TRUE_WEIGHTS(b, a))),
    "dropped-k1": lambda b, a: tuple(0 if k == 1 else w for k, w in enumerate(TRUE_WEIGHTS(b, a))),
    # (k+1)! in place of k!
    "k-plus-1-factorial": lambda b, a: tuple((k + 1) * w for k, w in enumerate(TRUE_WEIGHTS(b, a))),
}


def _failing_suites() -> set[str]:
    reports = run_suite("bender", max_n=4)
    for name in ("pain", "reciprocal"):
        reports += run_suite(name, max_n=3, max_m=3)
    return {r.suite for r in reports if not r.ok}


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


def test_perturbed_ladder_fails_the_matrix_oracle(monkeypatch):
    true_build = oscillator.build_operators

    def perturbed(dim):
        mats = true_build(dim)
        h = mats.h_mat.copy()
        h[1, 1] *= 1.01
        return oscillator.OscillatorMatrices(dim, mats.q_mat, mats.p_mat, h)

    assert oscillator.check_main_identity_matrix(8, 64).ok
    monkeypatch.setattr(oscillator, "build_operators", perturbed)
    report = oscillator.check_main_identity_matrix(8, 64)
    assert report.status == "fail"
    assert "at l=0" in report.witness
