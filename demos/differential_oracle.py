"""Second opinion #1: realize p as c * d/dx and q as multiplication by x.

On polynomials in x this satisfies pq - qp = c on the nose, so any
normal-ordered expression the symbolic engine produces can be replayed as a
concrete action on monomials.  The engine's reordering rule never enters:
``apply_element`` only reads off  q^a p^b x^l = c^b l!/(l-b)! x^(l-b+a).
"""

from fractions import Fraction

from weylops import XPoly, apply_element, monomial, p_op, q_op, validate_reordering

p, q = p_op(), q_op()

# the defining relation, acted out on x^3
f = XPoly.monomial(3)
pq = apply_element(p, apply_element(q, f))
qp = apply_element(q, apply_element(p, f))
print(f"p(q x^3) = {pq}")
print(f"q(p x^3) = {qp}")
print(f"difference = {pq - qp}   (c times x^3, as required)\n")

# scaled-power brackets on x^5, each product composed from the factors'
# single-monomial actions: no engine product is formed
p2, q3 = monomial(0, 2, Fraction(1, 2)), monomial(3, 0, Fraction(1, 6))
f = XPoly.monomial(5)
pq, qp = apply_element(p2, apply_element(q3, f)), apply_element(q3, apply_element(p2, f))
for name, sign in (("[p^2/2!, q^3/3!]", -1), ("{p^2/2!, q^3/3!}", 1)):
    ((degree, coeff),) = XPoly.weighted_sum([(1, pq), (sign, qp)]).coeffs.items()
    print(f"{name} x^5 -> coefficient {coeff}, degree {degree}")
print()

# the box check: every product q^a1 p^b1 * q^a2 p^b2 with exponents <= 6
# must act as the composition of its factors' actions
validate_reordering(max_exp=6, max_l=8)
print("validate_reordering(6, 8): engine multiplication matches composed actions")
