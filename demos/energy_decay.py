"""Energy decay audit, narrated.

Both steppers promise an exact discrete energy estimate: the modified energy
Etilde decreases at every step, for every step size, with the decrease at
least as large as the viscous/diffusive/relaxation dissipation.  This script
runs the benchmark initial data at three step sizes per scheme, prints the
worst decay defect (the amount by which a step failed to dissipate; negative
means it dissipated more than required), and shows the Etilde trace of the
coarsest run, where a single step covers the whole horizon.
"""

from chns.diagnostics import audit_slack, simulate_run
from chns.grid import GridSpec
from chns.model import PhysParams, initial_state

grid = GridSpec(64, 64)
params = PhysParams()
state0 = initial_state(grid, params)

for scheme in ("msav1", "msav2"):
    print(f"--- {scheme}")
    for dt in (0.1, 0.01, 0.001):
        n_steps = max(3, round(params.horizon / dt))
        audits, _ = simulate_run(scheme, state0, params, dt, n_steps)
        worst = max(a.decay_defect for a in audits)
        margin = max(a.decay_defect / audit_slack(a.Etilde_prev) for a in audits)
        print(
            f"dt={dt:<6g} steps={n_steps:<4d} worst defect {worst:+.3e} "
            f"({margin:+.2e} x slack)   Etilde {audits[0].Etilde_prev:.4f}"
            f" -> {audits[-1].Etilde:.4f}"
        )

print("\nEtilde trace, msav2 at dt = 0.01:")
audits, _ = simulate_run("msav2", state0, params, 0.01, 10)
for audit in audits:
    print(
        f"  t={audit.t:6.4f}  Etilde={audit.Etilde:12.8f}  E_total={audit.E_total:12.8f}"
        f"  mass={audit.mass:+.2e}  |div u|={audit.div_norm:.2e}"
    )
