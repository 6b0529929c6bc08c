"""Building a closed conjugate from the odd weight sequence.

Start from a pair (h0, x) where repeated commutation with x kills h0 after
finitely many steps.  The correction term

    h1 = i * sum_{n>=1} kappa_n / n!  ad_x^n h0        (ad_x w = [x, w])

is exactly what makes h = e^(x/2) (h0 + i h1) e^(-x/2) close: every
x-dependent piece cancels and a constant shift is all that survives.  The
weights kappa_n are the same sequence tabulated in weight_tables.py.
"""

import sys
from fractions import Fraction
from math import factorial

from weylops import (
    I,
    WeylElement,
    hadamard_conjugate,
    hamiltonian,
    kappa,
    p_op,
    q_op,
    standard_conjugation_fixtures,
    verify_figueira,
)
from weylops.weyl import bracket_tower

for h0, x, label in [
    (p_op(2), q_op(), "h0 = p^2, x = q"),
    (hamiltonian(), q_op(), "h0 = (p^2+q^2)/2, x = q"),
]:
    print(label)
    tower = bracket_tower(x, h0)
    for depth, w in enumerate(tower):
        print(f"  ad_x^{depth} h0 = {w}")

    h1 = WeylElement.weighted_sum(
        (I * (kappa(depth) / factorial(depth)), tower[depth]) for depth in range(1, len(tower))
    )
    print(f"  correction h1 = {h1}")

    closed = hadamard_conjugate(x, WeylElement.weighted_sum([(1, h0), (I, h1)]), t=Fraction(1, 2))
    print(f"  e^(x/2) (h0 + i h1) e^(-x/2) = {closed}")
    shift = closed - h0
    assert shift.support() in ([], [(0, 0)])
    print(f"  closed - h0 = {shift}, a constant\n")

print("every packaged fixture, with the pseudo-symmetry and umbral checks on top:")
reports = [verify_figueira(h0, x) for h0, x in standard_conjugation_fixtures()]
print(*(f"  {r.render()}" for r in reports), sep="\n")
if not all(r.ok for r in reports):
    sys.exit(1)
