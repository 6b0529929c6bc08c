"""The weight sequences behind every identity in this package.

Four sequences keep showing up when operator brackets are expanded:
E_n(0), the Euler polynomial values at zero; the Bernoulli numbers B_n;
the odd-weight sequence kappa_n used by conjugation closures; and the
integer sequence lambda_n = 2^n E_n(1/2).  This script prints them side
by side, as ``weylops tables`` does, and demonstrates the relations that
tie them together.
"""

import sys
from fractions import Fraction

from weylops import (
    euler_polynomial,
    extract_convolution_coefficients,
    kappa,
    sequence_tables,
    shifted_euler,
    solve_midpoint,
    verify_binomial,
)
from weylops.cli import main

print("weight sequences up to n = 12, as `weylops tables --max-n 12` prints them:\n")
if main(["tables", "--max-n", "12"]):
    sys.exit(1)

print("\nEuler polynomials and their midpoint shift:")
for n in range(5):
    print(f"  E_{n}(x)       = {euler_polynomial(n)}")
    print(f"  E_{n}(x + 1/2) = {shifted_euler(n)}")

# the defining relation E_n(x) + E_n(x+1) = 2 x^n, checked at a sample point
x = Fraction(7, 3)
for n in range(9):
    e = euler_polynomial(n)
    assert e(x) + e(x + 1) == 2 * x**n
print(f"\ndefining relation E_n(x) + E_n(x+1) = 2 x^n holds at x = {x} for n <= 8")

# the same polynomials fall out of a triangular solve that never sees E_k(0)
assert all(solve_midpoint(n) == euler_polynomial(n) for n in range(13))
print("triangular midpoint solve reproduces the Appell construction for n <= 12")

# kappa also falls out of the operators: peeling the weights v_k off
# [p^k/k!, q^k/k!] = sum_j c^j v_j/j! {p^(k-j)/(k-j)!, q^(k-j)/(k-j)!} gives kappa_k
vs = extract_convolution_coefficients(12)
assert vs == [1] + [kappa(k) for k in range(1, 13)]
print("weights extracted from [p^k/k!, q^k/k!] are kappa_k for k <= 12")

# the binomial bridge lambda_n = 1 - sum_m 2^m C(n,m) kappa_m, plus parity
# and low-order value checks, all live in one report; the Euler polynomials'
# binomial convolutions in another
tables, binomial = sequence_tables(16), verify_binomial(12, 12, 12)
print(f"\nsequence_tables(16): {tables.render()}")
print(f"kappa_9  = {tables.params['kappa'][9]}")
print(f"lambda_16 = {tables.params['lambda'][16]}")
print(f"verify_binomial(12, 12, 12): {binomial.render()}")
if not (tables.ok and binomial.ok):
    sys.exit(1)
