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

Both independent oracles must catch every variant too: the differential
realization through ``validate_reordering``, the matrix realization through
the symbolic bridge, which realizes the engine's {q,H}_n at c = -i.

The matrix oracle gets the same treatment: a ladder whose H (or p) is 1% off
in a single low entry must turn the main identity (or the bridge) FAIL.
"""

import dataclasses

import pytest

from weylops import oscillator, realization, weyl
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


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_wrong_rule_fails_both_oracles(monkeypatch, variant):
    monkeypatch.setattr(weyl, "contraction_weights", VARIANTS[variant])
    with pytest.raises(AssertionError, match="reordering mismatch"):
        realization.validate_reordering()
    for n in range(1, 5):
        assert oscillator.check_symbolic_bridge(n, 64).status == "fail"


def _perturbed_build(monkeypatch, name, *entries):
    """Patch build_operators so that the named matrix is 1% off at entries."""
    true_build = oscillator.build_operators

    def perturbed(dim):
        mats = true_build(dim)
        m = getattr(mats, name).copy()
        for ij in entries:
            m[ij] *= 1.01
        return dataclasses.replace(mats, **{name: m})

    monkeypatch.setattr(oscillator, "build_operators", perturbed)


def test_perturbed_p_ladder_fails_the_bridge(monkeypatch):
    assert all(oscillator.check_symbolic_bridge(n, 64).ok for n in range(1, 5))
    _perturbed_build(monkeypatch, "p_mat", (1, 2), (2, 1))
    for n in range(1, 5):
        assert oscillator.check_symbolic_bridge(n, 64).status == "fail"


def test_perturbed_ladder_fails_the_matrix_oracle(monkeypatch):
    assert oscillator.check_main_identity_matrix(8, 64).ok
    _perturbed_build(monkeypatch, "h_mat", (1, 1))
    report = oscillator.check_main_identity_matrix(8, 64)
    assert report.status == "fail"
    assert "at l=0" in report.witness
