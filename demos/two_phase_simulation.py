"""Run a short two-phase simulation and keep the bookkeeping.

The benchmark initial data is a pair of counter-rotating vortices stirring a
single-period cosine phase layout on the unit square.  The script advances
the BDF2 stepper across the horizon, prints the conserved/monitored
quantities as it goes, and writes the final fields as snapshot files (CSV
and binary) next to a per-step audit log, ready to plot with any tool that
reads CSV.
"""

import os

from chns.diagnostics import simulate_run, total_energy, write_audit_csv
from chns.grid import GridSpec, write_field_bin, write_field_csv
from chns.model import PhysParams, initial_state

outdir = os.path.join(os.path.dirname(__file__), "out_simulation")
os.makedirs(outdir, exist_ok=True)

grid = GridSpec(64, 64)
params = PhysParams()
state0 = initial_state(grid, params)
dt = 0.002
n_steps = round(params.horizon / dt)

print(f"initial total energy {total_energy(state0, params):.6f}, r0 = {state0.r:.6f}")
audits, final = simulate_run("msav2", state0, params, dt, n_steps)

for audit in audits[:: max(1, len(audits) // 10)]:
    print(
        f"t={audit.t:6.4f}  E={audit.E_total:10.6f}  Etilde={audit.Etilde:10.6f}"
        f"  r={audit.r:8.5f}  q={audit.q:7.5f}  |div u|={audit.div_norm:.1e}"
    )

write_audit_csv(os.path.join(outdir, "audit.csv"), audits)
write_field_csv(os.path.join(outdir, "phi_final.csv"), grid, "cell", final.phi.data)
write_field_csv(os.path.join(outdir, "p_final.csv"), grid, "cell", final.p.data)
write_field_bin(os.path.join(outdir, "u_final.bin"), grid, "face_u", final.u.u)
write_field_bin(os.path.join(outdir, "v_final.bin"), grid, "face_v", final.u.v)
print(f"wrote audit log and final snapshots to {outdir}/")
