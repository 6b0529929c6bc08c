"""Commutators of operator powers expand into weighted anticommutator sums.

The cleanest statement uses scaled powers P_n = p^n/n!, Q_m = q^m/m!.  Then

    [P_n, Q_m] = -sum_{k>=1} c^k E_k(0)/k! {P_(n-k), Q_(m-k)}

with Euler-value weights, and dually the anticommutator unfolds into
commutators with Bernoulli-flavored weights.  Both are exact identities in
the algebra pq - qp = c with c kept symbolic.
"""

import sys
from fractions import Fraction
from math import factorial

from weylops import (
    CPoly,
    RatPoly,
    WeylElement,
    anticommutator,
    commutator,
    euler_zero,
    monomial,
    scalar,
    verify_exp_series,
    verify_function_identities,
    verify_mccoy,
    verify_pain,
    verify_reciprocal,
)


def scaled(a: int, b: int) -> WeylElement:
    return monomial(a, b, Fraction(1, factorial(a) * factorial(b)))


n, m = 3, 4
print(f"[p^{n}/{n}!, q^{m}/{m}!] = {commutator(scaled(0, n), scaled(m, 0))}")
for k in range(1, min(n, m) + 1):
    weight = CPoly.c_power(k, -euler_zero(k) / factorial(k))
    term = scalar(weight) * anticommutator(scaled(0, n - k), scaled(m - k, 0))
    print(f"  k={k}: weight -c^{k} E_{k}(0)/{k}! = {weight}, term {term}")

# verify_pain(n, m) decides that these terms sum to the commutator; then
# the packaged sweeps: Euler-weighted, Bernoulli-weighted, and the
# generating-function product form
print()
monomials = [verify_pain(n, m), verify_pain(6, 5), verify_reciprocal(6, 5), verify_exp_series(6, 5)]
print(*(r.render() for r in monomials), sep="\n")

# beyond monomials: for polynomials f, g the same machinery gives normal
# ordering of f(p) g(q), commutators, and anticommutators in one stroke
f = RatPoly({2: 1, 0: -3})       # f(p) = p^2 - 3
g = RatPoly({3: 1, 1: Fraction(1, 2)})  # g(q) = q^3 + q/2
functions = [verify_mccoy(f, g), verify_function_identities(f, g)]
print(f"\nf = {f},  g = {g}", *(r.render() for r in functions), sep="\n")
if not all(r.ok for r in monomials + functions):
    sys.exit(1)
