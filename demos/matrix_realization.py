"""Second opinion #2: truncated oscillator matrices.

With Q and P the usual position/momentum matrices on the first ``dim``
number states, QP - PQ = -i holds exactly on the interior of the
truncation, and H = diag(l + 1/2) is the oscillator Hamiltonian.  Mapping
a symbolic element at c = -i to a matrix and comparing against direct
matrix algebra gives a floating-point cross-check that is completely
independent of both the symbolic engine and the differential realization.

Truncation discipline: an element whose support has max(a+b) = s is only
trustworthy on columns l <= dim-1-s (``safe_margin``).
"""

import numpy as np

from weylops import hamiltonian, nested_anticommutator, q_op, run_suite
from weylops.oscillator import build_operators, element_to_matrix, safe_margin

DIM = 64
mats = build_operators(DIM)

# the commutation relation pq - qp = c at c = -i, on the interior block
comm = mats.p_mat @ mats.q_mat - mats.q_mat @ mats.p_mat
interior = comm[: DIM - 1, : DIM - 1]
err = np.max(np.abs(interior - (-1j) * np.eye(DIM - 1)))
print(f"max |PQ - QP + i| on the interior block: {err:.3e}")

# symbolic {q,H}_3, mapped to a matrix, vs three rounds of matrix brackets
w = nested_anticommutator(q_op(), hamiltonian(), 3)
margin = safe_margin(w)
symbolic = element_to_matrix(w, mats)
direct = mats.q_mat
for _ in range(3):
    direct = direct @ mats.h_mat + mats.h_mat @ direct
cols = DIM - 1 - margin
dev = np.max(np.abs(symbolic[:, :cols] - direct[:, :cols]))
print(f"{{q,H}}_3: safe_margin = {margin}, max deviation on safe columns = {dev:.3e}")

# the packaged checks: closed-form ladder amplitudes, the shifted
# expansions, and the bridge back to the symbolic engine
print()
for report in run_suite("hermite", max_n=4, dim=DIM, tol=1e-9):
    print(report.render())
