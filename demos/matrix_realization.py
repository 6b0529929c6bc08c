"""Second opinion #2: the oscillator ladders in Bargmann's integer basis.

On f_l = sqrt(l!) e_l, the Hermite functions without their normalization,
the rescaled generators act with Gaussian-integer entries:

    q f_l = i (l f_(l-1) - f_(l+1)),   p f_l = l f_(l-1) + f_(l+1),
    H f_l = (2l + 1) f_l,

so pq - qp = -2i holds on every column, with no truncation corner.  An
operator is held by its bands, a ``Bands``: f_l -> sum_j P_j(l) f_(l+j),
each P_j a polynomial in l.  Mapping a symbolic element at c = -2i to its
bands and comparing it with brackets formed in the realization itself is
an exact cross-check, independent of the differential realization.

Two ``Bands`` are equal exactly when they are equal on every column at
once; a failing record names the first column and row where they differ.
``Bands.column(l)`` reads one column's exact entries.
"""

import sys

from weylops import I, hamiltonian, nested_anticommutator, q_op, run_suite
from weylops.oscillator import build_operators, element_to_matrix

DIM = 64
ops = build_operators(DIM)
p, q = ops.p_mat, ops.q_mat

assert p * q - q * p == -2 * I
print("(PQ - QP) f_l = -2i f_l exactly, on every column")

# symbolic {q,H}_3, realized by its bands, vs three brackets in the realization
direct = ops.tower[3]
assert element_to_matrix(nested_anticommutator(q_op(), hamiltonian(), 3), ops) == direct
print("{q,H}_3 realized at c = -2i equals the realization's own, exactly")
for l in range(DIM):
    column = direct.column(l)
    assert column == {k: v for k, v in {l - 1: 64 * I * l**4, l + 1: -64 * I * (l + 1) ** 3}.items() if v}
    if l < 4:
        print(f"  {{q,H}}_3 f_{l} = " + " + ".join(f"({v}) f_{k}" for k, v in sorted(column.items())))
print(f"  closed form: i 4^3 (l^4 f_(l-1) - (l+1)^3 f_(l+1)), for every l < {DIM}")

# the packaged checks: closed-form ladder amplitudes, the shifted
# expansions, the main identity and the bridge back to the symbolic engine
reports = run_suite("hermite", max_n=4, dim=DIM)
print("", *(r.render() for r in reports), sep="\n")
if not all(r.ok for r in reports):
    sys.exit(1)
