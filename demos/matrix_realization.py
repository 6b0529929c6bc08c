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

A record passes exactly when its two sides are the same bands, which is
equality on every column at once; a failing one names the first column and
row where they differ.  ``Bands.column(l)`` reads one column's exact entries.
"""

from weylops import I, ONE, hamiltonian, nested_anticommutator, q_op, run_suite
from weylops.oscillator import build_operators, element_to_matrix

DIM = 64
ops = build_operators(DIM)


def act(bands, vec):
    """The operator given by its bands, applied to {l: coefficient of f_l}."""
    out = {}
    for l, v in vec.items():
        for row, z in bands.column(l).items():
            out[row] = out.get(row, 0) + v * z
    return {k: v for k, v in out.items() if v}


# the commutation relation pq - qp = c at c = -2i, column by column
for l in range(DIM):
    f_l = {l: ONE}
    pq, qp = act(ops.p_mat, act(ops.q_mat, f_l)), act(ops.q_mat, act(ops.p_mat, f_l))
    assert {k: v for k in pq.keys() | qp.keys() if (v := pq.get(k, 0) - qp.get(k, 0))} == {l: -2 * I}
print(f"(PQ - QP) f_l = -2i f_l exactly, for every l < {DIM}")

# symbolic {q,H}_3, realized by its bands, vs three brackets in the realization
w = nested_anticommutator(q_op(), hamiltonian(), 3)
realized = element_to_matrix(w, ops)
direct = ops.tower[3]
assert realized == direct
print(f"{{q,H}}_3 realized at c = -2i equals the realization's own, exactly (den {realized._den})")
for l in range(4):
    column = act(direct, {l: ONE})
    print(f"  {{q,H}}_3 f_{l} = " + " + ".join(f"({v}) f_{k}" for k, v in sorted(column.items())))
print("  closed form: i 4^3 (l^4 f_(l-1) - (l+1)^3 f_(l+1))")

# the packaged checks: closed-form ladder amplitudes, the shifted
# expansions, the main identity and the bridge back to the symbolic engine
print()
for report in run_suite("hermite", max_n=4, dim=DIM):
    print(report.render())
