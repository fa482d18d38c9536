"""BDF2 stepper: bootstrap, recurrences, amplification factors, the monolithic
dense oracle, and the third-order local error."""

import numpy as np

from chns.elliptic import ChOperatorSpec, HelmholtzSpec
from chns.diagnostics import modified_energy
from chns.first_order import step_first_order
from chns.grid import (
    CellField,
    GridSpec,
    MacVector,
    div_face_to_cell,
    dot_cell,
    dot_face,
    grad_sq_cell,
    norm_l2_cell,
    norm_l2_face,
)
from chns.model import PhysParams, SchemeState2, state_from_fields
from chns.second_order import BOOTSTRAP_SUBSTEPS, bootstrap, step_second_order
from oracle_tools import (
    full_cell,
    monolithic_second_order,
    solve_ch_system,
    solve_velocity_helmholtz,
    three_projection_second_order,
)
from test_first_order import messy_state, rest_state


def test_bootstrap_matches_first_order_step_exactly():
    # the bootstrap IS BOOTSTRAP_SUBSTEPS chained first-order steps of dt/BOOTSTRAP_SUBSTEPS, bit for bit
    g = GridSpec(16, 16)
    p = PhysParams()
    from chns.model import initial_state

    s0 = s1 = initial_state(g, p)
    for _ in range(BOOTSTRAP_SUBSTEPS):
        s1, rec1 = step_first_order(s1, p, 0.01 / BOOTSTRAP_SUBSTEPS)
    st2 = bootstrap(s0, p, 0.01)
    assert np.array_equal(st2.phi.data, s1.phi.data)
    assert np.array_equal(st2.u.u, s1.u.u) and np.array_equal(st2.u.v, s1.u.v)
    assert np.array_equal(st2.p.data, s1.p.data)
    assert st2.r == s1.r and st2.q == s1.q
    # g starts from zero: g1 = nu * div(u~1)
    expected_g = p.viscosity * div_face_to_cell(rec1.u_tilde)
    assert np.array_equal(st2.g.data, expected_g.data)


def test_fixed_point_and_bdf2_q_recurrence():
    g = GridSpec(8, 8)
    p = PhysParams(delta=1.0)
    root = np.sqrt(1.0 + p.beta)
    dt = 0.02
    substeps = BOOTSTRAP_SUBSTEPS
    st2 = bootstrap(rest_state(g, p, root), p, dt)
    qs = [1.0, st2.q]
    # bootstrap applies the first-order q recurrence once per substep
    assert abs(qs[1] - (1.0 + dt / substeps / p.horizon) ** -substeps) <= 1e-13
    for _ in range(4):
        st2 = step_second_order(st2, p, dt)[0]
        q_expected = (4.0 * qs[-1] - qs[-2]) / (3.0 + 2.0 * dt / p.horizon)
        assert abs(st2.q - q_expected) <= 1e-12
        qs.append(st2.q)
        assert norm_l2_cell(st2.phi - full_cell(g, root)) <= 1e-10
        assert norm_l2_face(st2.u) <= 1e-10
        assert abs(st2.r - 1.0) <= 1e-10


def test_q_recurrence_zero_velocity_nonconstant_energy():
    g = GridSpec(8, 8)
    p = PhysParams()
    dt = 0.01
    st2 = bootstrap(rest_state(g, p, 0.0), p, dt)
    qs = [1.0, st2.q]
    for _ in range(5):
        st2 = step_second_order(st2, p, dt)[0]
        q_expected = (4.0 * qs[-1] - qs[-2]) / (3.0 + 2.0 * dt / p.horizon)
        assert abs(st2.q - q_expected) <= 1e-12
        qs.append(st2.q)
        assert norm_l2_face(st2.u) <= 1e-12


def test_g_recursion_is_definitional():
    g = GridSpec(16, 16)
    p = PhysParams()
    from chns.model import initial_state

    st2 = bootstrap(initial_state(g, p), p, 0.01)
    for _ in range(3):
        new, rec = step_second_order(st2, p, 0.01)
        increment = new.g - st2.g
        expected = p.viscosity * div_face_to_cell(rec.u_tilde)
        assert np.max(np.abs(increment.data - expected.data)) <= 1e-13
        st2 = new


def test_bdf2_amplification_factor_cell_modes():
    g = GridSpec(16, 16)
    p = PhysParams()
    dt = 0.004
    mob, ge = p.mobility, p.gamma_eff
    spec = ChOperatorSpec(mobility_dt=mob * 2.0 * dt / 3.0, gamma_eff=ge)
    a, b = 0.9, 1.1  # amplitudes of the two history levels
    for kx, ky in ((1, 0), (2, 3), (5, 1)):
        mode = CellField.from_function(
            g, lambda x, y, kx=kx, ky=ky: np.cos(kx * np.pi * x) * np.cos(ky * np.pi * y)
        )
        lam = -(2.0 / g.hx**2) * (1.0 - np.cos(kx * np.pi * g.hx)) - (
            2.0 / g.hy**2
        ) * (1.0 - np.cos(ky * np.pi * g.hy))
        s = -mob * (lam * lam - ge * lam)
        out, _ = solve_ch_system(spec, (1.0 / 3.0) * (4.0 * a - b) * mode)
        amp = (4.0 * a - b) / (3.0 - 2.0 * dt * s)
        assert np.allclose(out.data, amp * mode.data, rtol=1e-12, atol=1e-14)


def test_bdf2_amplification_factor_velocity_modes():
    g = GridSpec(16, 16)
    p = PhysParams()
    dt = 0.004
    spec = HelmholtzSpec(visc_dt=p.viscosity * 2.0 * dt / 3.0)
    a, b = 1.3, 0.7
    for kx, ky in ((1, 1), (3, 2)):
        mode = MacVector.zeros(g)
        xs = np.arange(g.nx + 1) * g.hx
        ys = (np.arange(g.ny) + 0.5) * g.hy
        mode.u[:, :] = np.sin(kx * np.pi * xs)[:, None] * np.sin(ky * np.pi * ys)[None, :]
        lam = -(2.0 / g.hx**2) * (1.0 - np.cos(kx * np.pi * g.hx)) - (
            2.0 / g.hy**2
        ) * (1.0 - np.cos(ky * np.pi * g.hy))
        s = p.viscosity * lam
        out, _ = solve_velocity_helmholtz(spec, (1.0 / 3.0) * (4.0 * a - b) * mode)
        amp = (4.0 * a - b) / (3.0 - 2.0 * dt * s)
        assert np.allclose(out.u, amp * mode.u, rtol=1e-12, atol=1e-14)


def test_step_matches_monolithic_dense_solve():
    g = GridSpec(6, 6)
    p = PhysParams()
    dt = 0.02
    st2 = bootstrap(messy_state(g, p), p, dt)
    got, rec = step_second_order(st2, p, dt)
    ref = monolithic_second_order(st2, p, dt)

    def rel(a, b, norm):
        return norm(a - b) / max(1.0, norm(b))

    assert rel(got.phi, ref["phi"], norm_l2_cell) <= 1e-9
    assert rel(got.mu, ref["mu"], norm_l2_cell) <= 1e-9
    assert rel(rec.u_tilde, ref["u_tilde"], norm_l2_face) <= 1e-9
    assert rel(got.u, ref["u"], norm_l2_face) <= 1e-9
    assert rel(got.p, ref["p"], norm_l2_cell) <= 1e-9
    assert abs(got.r - ref["r"]) <= 1e-9 * max(1.0, abs(ref["r"]))
    assert abs(got.q - ref["q"]) <= 1e-9 * max(1.0, abs(ref["q"]))


def test_one_projection_matches_per_family_projections():
    """20 BDF2 steps projecting the recombined u~ once, with the rotational
    update p = p^n + psi - nu div u~, agree with 20 steps that project each
    substep family with its own correction and recombine."""
    g = GridSpec(16, 16)
    p = PhysParams()
    dt = 0.01
    got = ref = bootstrap(messy_state(g, p, rng=np.random.default_rng(11)), p, dt)
    for _ in range(20):
        got = step_second_order(got, p, dt)[0]
        ref = three_projection_second_order(ref, p, dt)[0]
    assert norm_l2_face(got.u - ref.u) <= 1e-12 * norm_l2_face(ref.u)
    assert norm_l2_cell(got.p - ref.p) <= 1e-12 * norm_l2_cell(ref.p)


def test_reports_collected():
    g = GridSpec(8, 8)
    p = PhysParams()
    from chns.model import initial_state

    st2 = bootstrap(initial_state(g, p), p, 0.01)
    reports = step_second_order(st2, p, 0.01)[1].reports
    assert len(reports) == 3  # 1 phase + 1 helmholtz + 1 poisson
    assert all(r.residual <= 1e-11 for r in reports)


def test_energy_report_rest_state_reduces_to_scalar_terms():
    g = GridSpec(8, 8)
    p = PhysParams()
    dt = 0.01
    st2 = bootstrap(rest_state(g, p, 0.0), p, dt)
    u_bar = 2.0 * st2.u - st2.u_prev
    assert dot_face(st2.u, st2.u) == 0.0 and dot_face(u_bar, u_bar) == 0.0
    assert (2.0 / 3.0) * dt * dt * grad_sq_cell(st2.p + st2.g) <= 1e-28  # the grad H term, H = p + g
    assert dt / p.viscosity * dot_cell(st2.g, st2.g) <= 1e-28
    assert grad_sq_cell(st2.phi) == 0.0 and dot_cell(st2.phi, st2.phi) == 0.0
    r_bar, q_bar = 2.0 * st2.r - st2.r_prev, 2.0 * st2.q - st2.q_prev
    expected = st2.r**2 + r_bar**2 + 0.5 * st2.q**2 + 0.5 * q_bar**2
    assert abs(modified_energy(st2, p, dt) - expected) <= 1e-12 * expected


def test_one_step_local_error_is_third_order():
    """One-step errors against a fine self-consistent reference trajectory.

    Histories are read off a dt/8 reference run of the same stepper, one step
    of size dt is taken, and the result is compared with the reference at the
    target time.  A small-amplitude phase perturbation at rest is used so the
    two channels that reduce the *measured* local order at benchmark amplitude
    stay quadratically small: the lagged pressure a reference trajectory
    cannot supply consistently, and the stiff crossover modes of the
    fourth-order operator.  (Global order two at benchmark amplitude is
    checked separately below.)"""
    g = GridSpec(32, 32)
    p = PhysParams()
    from chns.diagnostics import _iterate

    amp = 1e-3
    phi0 = CellField.from_function(g, lambda x, y: amp * np.cos(np.pi * x) * np.cos(np.pi * y))
    s0 = state_from_fields(p, phi0, MacVector.zeros(g))
    errs = []
    dts = (0.016, 0.008, 0.004, 0.002)
    for dt in dts:
        dt_fine = dt / 8.0
        n_fine = 40  # reaches t = 5 dt
        states = [None] * (n_fine + 1)
        for k, new in _iterate("msav2", s0, p, dt_fine, n_fine):
            states[k] = new
        a, m = 32, 8  # t_star = 4 dt, history at t_star - dt
        cur, prev = states[a], states[a - m]
        hist = SchemeState2(
            t=cur.t,
            phi=cur.phi,
            mu=cur.mu,
            u=cur.u,
            p=cur.p,
            r=cur.r,
            q=cur.q,
            phi_hat=cur.phi_hat,
            phi_prev=prev.phi,
            phi_hat_prev=prev.phi_hat,
            mu_prev=prev.mu,
            u_prev=prev.u,
            r_prev=prev.r,
            q_prev=prev.q,
            g=CellField.zeros(g),
        )
        new = step_second_order(hist, p, dt)[0]
        errs.append(norm_l2_cell(new.phi - states[a + m].phi))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(rates >= 2.9), f"local phi rates {rates}"


def test_overall_cauchy_order_two():
    g = GridSpec(32, 32)
    p = PhysParams()
    from chns.diagnostics import attach_rates, cauchy_ladder
    from chns.model import initial_state

    s0 = initial_state(g, p)
    rows = attach_rates(cauchy_ladder("msav2", s0, p, 0.1 * 2.0**-3, 2**3, 3))
    assert rows[-1]["rate_e_phi_linf"] >= 1.9
    assert rows[-1]["rate_e_u_linf"] >= 1.85


def test_order_two_in_grad_phi_from_evolved_data():
    """From data that a run has evolved, msav2 reaches order 2 in grad phi as
    well: the finest pair of a 64^2 ladder meets criterion 4's six windows and
    grad phi's (1.8, 2.4).  The data are the fields of a 50-step msav1 run
    from the reference initial state, taken as a fresh level 0, which leaves
    behind the initial layer of data without the compatibility conditions at
    t = 0.  From the reference data themselves the same ladder reads grad phi
    outside the window (see bootstrap)."""
    from chns.diagnostics import attach_rates, cauchy_ladder
    from chns.model import initial_state
    from test_acceptance import _WINDOWS_SECOND

    g = GridSpec(64, 64)
    p = PhysParams()
    windows = dict(_WINDOWS_SECOND, rate_e_grad_phi_linf=(1.8, 2.4))
    reference = evolved = initial_state(g, p)
    for _ in range(50):  # to t = 0.02
        evolved = step_first_order(evolved, p, 4e-4)[0]
    evolved = state_from_fields(p, evolved.phi, evolved.u)

    def finest(s0):
        return attach_rates(cauchy_ladder("msav2", s0, p, p.horizon / 8, 8, 4))[-1]

    rates = finest(evolved)
    assert all(lo <= rates[name] <= hi for name, (lo, hi) in windows.items()), {n: rates[n] for n in windows}
    lo, hi = windows["rate_e_grad_phi_linf"]
    assert not lo <= finest(reference)["rate_e_grad_phi_linf"] <= hi
