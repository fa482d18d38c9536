"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each.  Runs on the 64x64 CI profile (Cauchy rates are
dt-dominated; the 160x160 profile reproduces them and is exercised via the
command line, see README).

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines on success as well.
"""

import numpy as np
import pytest

from chns.diagnostics import (
    attach_rates,
    cauchy_ladder,
    mass,
    simulate_run,
)
from chns.elliptic import (
    ChOperatorSpec,
    HelmholtzSpec,
    apply_ch_operator,
    apply_helmholtz_operator,
    solve_neumann_poisson,
)
from chns.first_order import step_first_order
from chns.grid import (
    CellField,
    GridSpec,
    MacVector,
    div_face_to_cell,
    dot_cell,
    dot_face,
    grad_cell_to_face,
    lap_cell,
    lap_velocity,
    norm_l2_cell,
    norm_l2_face,
)
from chns.model import PhysParams, energy_e1, initial_state
from chns.second_order import bootstrap, step_second_order
from oracle_tools import (
    cg_ch_system,
    cg_neumann_poisson,
    cg_velocity_helmholtz,
    dense_neumann_solve,
    mat_face_to_face,
    mat_from_cell_op,
    monolithic_first_order,
    monolithic_second_order,
    pack_face,
    solve_ch_system,
    solve_velocity_helmholtz,
    unpack_face,
)
from test_first_order import messy_state, rest_state

GRID = GridSpec(64, 64)
PARAMS = PhysParams()
HORIZON = PARAMS.horizon  # 0.1; the study ladder is horizon * 2^-k, whole steps


def _report(num, name, ok, detail=""):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {name}  {detail}")
    assert ok, f"criterion {num} failed: {name} {detail}"


@pytest.fixture(scope="module")
def state0():
    return initial_state(GRID, PARAMS)


@pytest.fixture(scope="module")
def ladder_rows_first(state0):
    return attach_rates(cauchy_ladder("msav1", state0, PARAMS, HORIZON * 2.0**-3, 2**3, 4))


@pytest.fixture(scope="module")
def ladder_rows_second(state0):
    return attach_rates(cauchy_ladder("msav2", state0, PARAMS, HORIZON * 2.0**-3, 2**3, 4))


def test_criterion_1_energy_stability_first_order(state0):
    worst = float("-inf")
    for dt in (1e-1, 1e-2, 1e-3):
        audits, _ = simulate_run("msav1", state0, PARAMS, dt, max(1, round(0.1 / dt)))
        for audit in audits:
            worst = max(worst, audit.decay_defect - audit.slack)
    _report(1, "first-order energy decay at dt in {1e-1,1e-2,1e-3}", worst <= 0.0,
            f"worst defect-slack = {worst:.3e}")


def test_criterion_2_energy_stability_second_order(state0):
    worst = float("-inf")
    for dt in (1e-1, 1e-2, 1e-3):
        # at dt = 0.1 one interval reaches t_final; run three so genuine BDF2
        # transitions are audited at every dt in the list
        n = max(3, round(0.1 / dt))
        audits, _ = simulate_run("msav2", state0, PARAMS, dt, n)
        for audit in audits:
            worst = max(worst, audit.decay_defect - audit.slack)
    _report(2, "second-order energy decay (defect-adjusted dissipation)", worst <= 0.0,
            f"worst defect-slack = {worst:.3e}")


_WINDOWS_FIRST = {
    "rate_e_phi_linf": (0.75, 1.05),
    "rate_e_grad_phi_linf": (0.75, 1.05),
    "rate_e_r": (0.9, 1.2),
    "rate_e_u_linf": (0.85, 1.1),
    "rate_e_grad_u_l2": (0.8, 1.1),
    "rate_e_p_l2": (0.85, 1.2),
    "rate_e_q": (0.9, 1.1),
}

_WINDOWS_SECOND = {
    "rate_e_phi_linf": (1.8, 2.4),
    "rate_e_r": (1.8, 2.4),
    "rate_e_u_linf": (1.8, 2.4),
    "rate_e_q": (1.8, 2.4),
    "rate_e_grad_u_l2": (1.7, 2.1),
    "rate_e_p_l2": (1.3, 1.7),
}


def _check_windows(rows, windows):
    finest = rows[-1]
    failures = []
    for name, (lo, hi) in windows.items():
        rate = finest[name]
        if not (lo <= rate <= hi):
            failures.append(f"{name[5:]}={rate:.3f} not in [{lo},{hi}]")
    detail = "; ".join(f"{n[5:]}={finest[n]:.2f}" for n in windows)
    return failures, detail


def test_criterion_3_first_order_convergence(ladder_rows_first):
    failures, detail = _check_windows(ladder_rows_first, _WINDOWS_FIRST)
    _report(3, "first-order finest-pair Cauchy rates", not failures,
            detail + ("; " + "; ".join(failures) if failures else ""))


def test_criterion_4_second_order_convergence(ladder_rows_second):
    failures, detail = _check_windows(ladder_rows_second, _WINDOWS_SECOND)
    _report(4, "second-order finest-pair Cauchy rates", not failures,
            detail + ("; " + "; ".join(failures) if failures else ""))


def test_criterion_5_decoupled_equals_monolithic():
    g = GridSpec(6, 6)
    p = PARAMS
    dt = 0.02
    worst = 0.0

    state = messy_state(g, p)
    got, rec = step_first_order(state, p, dt)
    ref = monolithic_first_order(state, p, dt)
    sq = np.sqrt(energy_e1(state.phi, p) + p.delta)
    xi1 = got.r / sq
    xi2 = got.q * np.exp((state.t + dt) / p.horizon)
    checks = [
        norm_l2_cell(got.phi - ref["phi"]) / max(1.0, norm_l2_cell(ref["phi"])),
        norm_l2_cell(got.mu - ref["mu"]) / max(1.0, norm_l2_cell(ref["mu"])),
        norm_l2_face(rec.u_tilde - ref["u_tilde"]) / max(1.0, norm_l2_face(ref["u_tilde"])),
        norm_l2_face(got.u - ref["u"]) / max(1.0, norm_l2_face(ref["u"])),
        norm_l2_cell(got.p - ref["p"]) / max(1.0, norm_l2_cell(ref["p"])),
        abs(got.r - ref["r"]) / max(1.0, abs(ref["r"])),
        abs(got.q - ref["q"]) / max(1.0, abs(ref["q"])),
        abs(xi1 - ref["xi1"]) / max(1.0, abs(ref["xi1"])),
        abs(xi2 - ref["xi2"]) / max(1.0, abs(ref["xi2"])),
    ]
    worst = max(worst, max(checks))

    st2 = bootstrap(messy_state(g, p), p, dt)
    got2, rec2 = step_second_order(st2, p, dt)
    ref2 = monolithic_second_order(st2, p, dt)
    bar_phi = 2.0 * st2.phi - st2.phi_prev
    sq2 = np.sqrt(energy_e1(bar_phi, p) + p.delta)
    xi1_2 = got2.r / sq2
    xi2_2 = got2.q * np.exp((st2.t + dt) / p.horizon)
    checks2 = [
        norm_l2_cell(got2.phi - ref2["phi"]) / max(1.0, norm_l2_cell(ref2["phi"])),
        norm_l2_cell(got2.mu - ref2["mu"]) / max(1.0, norm_l2_cell(ref2["mu"])),
        norm_l2_face(rec2.u_tilde - ref2["u_tilde"]) / max(1.0, norm_l2_face(ref2["u_tilde"])),
        norm_l2_face(got2.u - ref2["u"]) / max(1.0, norm_l2_face(ref2["u"])),
        norm_l2_cell(got2.p - ref2["p"]) / max(1.0, norm_l2_cell(ref2["p"])),
        abs(got2.r - ref2["r"]) / max(1.0, abs(ref2["r"])),
        abs(got2.q - ref2["q"]) / max(1.0, abs(ref2["q"])),
        abs(xi1_2 - ref2["xi1"]) / max(1.0, abs(ref2["xi1"])),
        abs(xi2_2 - ref2["xi2"]) / max(1.0, abs(ref2["xi2"])),
    ]
    worst = max(worst, max(checks2))
    _report(5, "decoupled one-step equals monolithic dense solve (6x6, both schemes)",
            worst <= 1e-9, f"worst relative deviation = {worst:.3e}")


def test_criterion_6_elliptic_oracles():
    g = GridSpec(8, 8)
    rng = np.random.default_rng(11)
    worst_dense = 0.0

    d = rng.standard_normal((8, 8))
    rhs = CellField(g, d - d.mean())
    psi, _ = solve_neumann_poisson(rhs)
    worst_dense = max(worst_dense, norm_l2_cell(psi - dense_neumann_solve(g, rhs)))

    spec = ChOperatorSpec(mobility_dt=1e-5, gamma_eff=PARAMS.gamma_eff)
    mat = mat_from_cell_op(g, lambda f: apply_ch_operator(spec, f))
    ref = np.linalg.solve(mat, rhs.data.ravel()).reshape(8, 8)
    phi, _ = solve_ch_system(spec, rhs)
    worst_dense = max(worst_dense, norm_l2_cell(phi - CellField(g, ref)))

    hspec = HelmholtzSpec(visc_dt=2e-4)
    w = MacVector(g, rng.standard_normal((9, 8)), rng.standard_normal((8, 9)))
    interior = w.copy()
    interior.u[0, :] = interior.u[-1, :] = 0.0
    interior.v[:, 0] = interior.v[:, -1] = 0.0
    hmat = mat_face_to_face(g, lambda x: apply_helmholtz_operator(hspec, x))
    href = unpack_face(g, np.linalg.solve(hmat, pack_face(interior)))
    hgot, _ = solve_velocity_helmholtz(hspec, w)
    worst_dense = max(worst_dense, norm_l2_face(hgot - href))

    # transform vs conjugate-gradient agreement
    g2 = GridSpec(16, 16)
    d2 = rng.standard_normal((16, 16))
    rhs2 = CellField(g2, d2 - d2.mean())
    worst_paths = 0.0
    a, _ = solve_neumann_poisson(rhs2)
    b, _, _ = cg_neumann_poisson(rhs2, tol=1e-12)
    worst_paths = max(worst_paths, norm_l2_cell(a - b))
    spec2 = ChOperatorSpec(mobility_dt=1e-5, gamma_eff=PARAMS.gamma_eff)
    a, _ = solve_ch_system(spec2, rhs2)
    b, _, _ = cg_ch_system(spec2, rhs2, tol=1e-12)
    worst_paths = max(worst_paths, norm_l2_cell(a - b))
    w2 = MacVector(g2, rng.standard_normal((17, 16)), rng.standard_normal((16, 17)))
    a, _ = solve_velocity_helmholtz(HelmholtzSpec(2e-4), w2)
    b, _, _ = cg_velocity_helmholtz(HelmholtzSpec(2e-4), w2, tol=1e-12)
    worst_paths = max(worst_paths, norm_l2_face(a - b))

    ok = worst_dense <= 1e-9 and worst_paths <= 1e-10
    _report(6, "elliptic solvers vs dense LU (1e-9) and transform vs CG (1e-10)", ok,
            f"dense {worst_dense:.3e}, paths {worst_paths:.3e}")


def test_criterion_7_structural_invariants(state0):
    ok_msgs, failures = [], []

    # mass drift and divergence over 100 steps, both schemes
    for scheme in ("msav1", "msav2"):
        audits, _ = simulate_run(scheme, state0, PARAMS, 1e-3, 100)
        m0 = mass(state0.phi)
        scale = max(1.0, GRID.cell_area * float(np.sum(np.abs(state0.phi.data))))
        drift = max(abs(a.mass - m0) for a in audits) / scale
        div_worst = max(a.div_norm for a in audits)
        if drift > 1e-11:
            failures.append(f"{scheme} mass drift {drift:.2e}")
        if div_worst > 1e-9:
            failures.append(f"{scheme} divergence {div_worst:.2e}")
        ok_msgs.append(f"{scheme}: drift {drift:.1e}, div {div_worst:.1e}")

    # q recurrences at zero velocity
    dt = 0.01
    state = rest_state(GRID, PARAMS, 0.0)
    q_expected = 1.0
    worst_q1 = 0.0
    s = state
    for _ in range(10):
        s = step_first_order(s, PARAMS, dt)[0]
        q_expected /= 1.0 + dt / PARAMS.horizon
        worst_q1 = max(worst_q1, abs(s.q - q_expected))
    if worst_q1 > 1e-12:
        failures.append(f"first-order q recurrence defect {worst_q1:.2e}")

    st2 = bootstrap(rest_state(GRID, PARAMS, 0.0), PARAMS, dt)
    qs = [1.0, st2.q]
    worst_q2 = 0.0
    for _ in range(10):
        st2 = step_second_order(st2, PARAMS, dt)[0]
        expected = (4.0 * qs[-1] - qs[-2]) / (3.0 + 2.0 * dt / PARAMS.horizon)
        worst_q2 = max(worst_q2, abs(st2.q - expected))
        qs.append(st2.q)
    if worst_q2 > 1e-12:
        failures.append(f"second-order q recurrence defect {worst_q2:.2e}")

    # stationary state at the potential root (needs delta > 0)
    p_fp = PhysParams(delta=1.0)
    root = np.sqrt(1.0 + p_fp.beta)
    fp = rest_state(GRID, p_fp, root)
    s = fp
    for _ in range(5):
        s = step_first_order(s, p_fp, 0.02)[0]
    fp_drift = norm_l2_cell(s.phi - fp.phi) + norm_l2_face(s.u) + abs(s.r - fp.r)
    if fp_drift > 1e-10:
        failures.append(f"fixed point drift {fp_drift:.2e}")

    _report(7, "mass/divergence/q-recurrence/fixed-point invariants", not failures,
            "; ".join(ok_msgs + [f"q1 {worst_q1:.1e}", f"q2 {worst_q2:.1e}", f"fp {fp_drift:.1e}"]
                      + failures))


def test_criterion_8_operator_property_suite():
    rng = np.random.default_rng(2024)
    g = GridSpec(24, 20)
    failures = []

    def rand_cell():
        return CellField(g, rng.standard_normal((g.nx, g.ny)))

    def rand_noslip():
        w = MacVector(g, rng.standard_normal((g.nx + 1, g.ny)), rng.standard_normal((g.nx, g.ny + 1)))
        w.u[0, :] = w.u[-1, :] = 0.0
        w.v[:, 0] = w.v[:, -1] = 0.0
        return w

    # adjointness to 1e-13 relative
    for _ in range(3):
        p, w = rand_cell(), rand_noslip()
        lhs = dot_face(grad_cell_to_face(p), w)
        rhs = -dot_cell(p, div_face_to_cell(w))
        if abs(lhs - rhs) > 1e-13 * norm_l2_cell(p) * norm_l2_face(w):
            failures.append("adjointness")

    # symmetry / negative semidefiniteness to 1e-12
    for _ in range(3):
        f, h = rand_cell(), rand_cell()
        if abs(dot_cell(lap_cell(f), h) - dot_cell(f, lap_cell(h))) > 1e-12 * (
            norm_l2_cell(f) * norm_l2_cell(h) / g.hx**2
        ):
            failures.append("lap_cell symmetry")
        if dot_cell(lap_cell(f), f) > 1e-12:
            failures.append("lap_cell sign")
        w = rand_noslip()
        if dot_face(lap_velocity(w), w) > 1e-12:
            failures.append("lap_velocity sign")

    # linearity to 1e-13 relative
    f1, f2 = rand_cell(), rand_cell()
    combo = lap_cell(0.3 * f1 + 0.6 * f2)
    parts = 0.3 * lap_cell(f1) + 0.6 * lap_cell(f2)
    if norm_l2_cell(combo - parts) > 1e-13 * (norm_l2_cell(parts) + 1.0):
        failures.append("linearity")

    # eigen-symbols: cell Laplacian and the solver classes on one mode
    gs = GridSpec(16, 16)
    k = 3
    mode = CellField.from_function(gs, lambda x, y: np.cos(k * np.pi * x))
    lam = -(2.0 / gs.hx**2) * (1.0 - np.cos(k * np.pi * gs.hx))
    if norm_l2_cell(lap_cell(mode) - lam * mode) > 1e-9 * abs(lam):
        failures.append("lap_cell symbol")
    psi, _ = solve_neumann_poisson(mode)
    if norm_l2_cell(psi - (1.0 / lam) * mode) > 1e-12:
        failures.append("poisson symbol")
    spec = ChOperatorSpec(mobility_dt=1e-4, gamma_eff=2.0)
    sig = 1.0 + spec.mobility_dt * (lam * lam - spec.gamma_eff * lam)
    phi, _ = solve_ch_system(spec, mode)
    if norm_l2_cell(phi - (1.0 / sig) * mode) > 1e-12:
        failures.append("phase-operator symbol")

    _report(8, "operator property suite (adjointness/symmetry/linearity/symbols)",
            not failures, "; ".join(failures) if failures else "all identities hold")
