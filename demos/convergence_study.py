"""Cauchy convergence study, narrated.

No exact solution exists for the coupled system, so temporal accuracy is
measured with Cauchy errors: each run at step dt is compared with a companion
at dt/2 on the same grid, level by level; the ladder of halvings shares its
runs, so each dt is integrated once.  Max-in-time L2 norms are tracked
for the phase field, its gradient, the velocity and the two auxiliary
scalars; l2-in-time norms for the velocity-gradient energy and the zero-mean
pressure.  Rates between successive halvings should approach 1 for the
backward-Euler stepper and 2 for the BDF2 stepper, with the pressure rate of
the rotational variant saturating at its characteristic 3/2.

Runs the fast 64x64 profile; pass --full for the 160x160 reference grid
(same rates, a few times slower).
"""

import sys

from chns.diagnostics import attach_rates, cauchy_ladder
from chns.grid import GridSpec
from chns.model import PhysParams, initial_state

n = 160 if "--full" in sys.argv[1:] else 64
grid = GridSpec(n, n)
params = PhysParams()
state0 = initial_state(grid, params)
horizon = params.horizon

QUANTITIES = ("e_phi_linf", "e_grad_phi_linf", "e_r", "e_u_linf", "e_grad_u_l2", "e_p_l2", "e_q")

for scheme in ("msav1", "msav2"):
    print(f"--- {scheme} on {n}x{n}, horizon {horizon}")
    records = cauchy_ladder(scheme, state0, params, horizon * 2.0**-3, 2**3, 4)
    header = f"{'dt':>10} " + " ".join(f"{q:>16}" for q in QUANTITIES)
    print(header)
    for row in attach_rates(records):
        cells = []
        for q in QUANTITIES:
            rate = row["rate_" + q]
            rate_str = f"({rate:4.2f})" if rate == rate else "(  - )"
            cells.append(f"{row[q]:9.3e} {rate_str}")
        print(f"{row['dt']:10.6f} " + " ".join(cells))
    print()
