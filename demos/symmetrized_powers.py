"""Nested anticommutators of q with H = (p^2 + q^2)/2 are Euler polynomials
in disguise.

Write {x, y} = xy + yx and iterate: {q, H}_0 = q, {q, H}_(n+1) = {{q, H}_n, H}.
In the algebra with pq - qp = -i the n-fold bracket collapses to a single
anticommutator with a polynomial of H:

    2^(-n) {q, H}_n = 1/2 {q, E_n(H + 1/2)}

and the two half-shifted variants

    2^(-n) {q, H - 1/2}_n = 1/2 {q, E_n(H)}
    2^(-n) [ ({q,H} - 1)_n + ({q,H} + 1)_n ] = {q, H^n}.

The algebra is graded (q and p of weight 1, c of weight 2), so with c formal
the same statements hold once each constant carries a power of u = ic, which
is 1 at c = -i.  With E_n(x + 1/2) = sum_m e_(n,m) x^m and
E_n(x) = sum_m f_(n,m) x^m:

    2^(-n) {q, H}_n = 1/2 {q, sum_m e_(n,m) u^(n-m) H^m}
    2^(-n) {q, H - u/2}_n = 1/2 {q, sum_m f_(n,m) u^(n-m) H^m}
    2^(-n) [ ({q,H} - u)_n + ({q,H} + u)_n ] = {q, H^n}.

Everything below is exact rational/Gaussian-rational arithmetic in c; no floats.
"""

import sys
from fractions import Fraction

from weylops import (
    CPoly,
    I,
    WeylElement,
    anticommutator,
    hamiltonian,
    nested_anticommutator,
    poly_of_element,
    q_op,
    shifted_euler,
    shifted_nested_anticomm,
    verify_bender,
)

q, h = q_op(), hamiltonian()
u = CPoly.c_power(1, I)  # u = ic, so u = 1 at c = -i


def scaled(w, x):
    """w x for a number w, as one weighted sum."""
    return WeylElement.weighted_sum([(w, x)])


print("{q, H}_n in normal order (symbolic c):")
for n in range(4):
    print(f"  n={n}:  {nested_anticommutator(q, h, n)}")

# verify_bender(n) decides all three forms with c formal, one record per n
print("\nthe three forms with c formal:")
reports = [verify_bender(n) for n in range(13)]
print(*(f"  {r.render()}" for r in reports), sep="\n")

# the two-shift average once more, through shifted_nested_anticomm
print("\ntwo-shift average with c formal:")
for n in range(9):
    average = shifted_nested_anticomm(-u, n) + shifted_nested_anticomm(u, n)
    assert scaled(Fraction(1, 2**n), average) == anticommutator(q, h**n)
print("  2^-n [({q,H}-u)_n + ({q,H}+u)_n] == {q, H^n}  for n <= 8")

# the u = 1 form is a statement about c = -i only: with c formal it fails
n = 2
lhs = scaled(Fraction(1, 2**n), nested_anticommutator(q, h, n))
rhs = scaled(Fraction(1, 2), anticommutator(q, poly_of_element(shifted_euler(n), h)))
assert lhs != rhs
print("\nthe u = 1 form with c formal, which holds only where c^2 = -1:")
print(f"  2^-2 {{q,H}}_2 - 1/2 {{q, E_2(H+1/2)}} = {lhs - rhs}")
if not all(r.ok for r in reports):
    sys.exit(1)
