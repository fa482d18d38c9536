"""First-order stepper: substep algebra, the 2x2 recombination system, the
monolithic dense oracle, and structural invariants."""

from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from chns import elliptic, first_order
from chns.cli import _load_initial_state, build_config
from chns.diagnostics import _iterate
from chns.elliptic import (
    ChOperatorSpec,
    HelmholtzSpec,
    cell_inverse,
    cell_laplacian_symbol,
    cell_transform,
    ch_mu_residual,
    face_inverse,
    helmholtz_inv_symbol,
    project,
)
from chns.errors import SingularSystemError, SolverConvergenceError, StateError
from chns.first_order import (
    ExplicitTerms,
    XiSystem,
    assemble_xi_system,
    explicit_terms,
    phase_families,
    solve_xi,
    step_first_order,
    velocity_families,
)
from chns.grid import (
    CellField,
    GridSpec,
    MacVector,
    chemical_force,
    div_face_to_cell,
    dot_cell,
    dot_face,
    grad_cell_to_face,
    lap_cell,
    norm_l2_cell,
    norm_l2_face,
    write_field_bin,
)
from chns.model import (
    PhysParams,
    energy_e1,
    initial_state,
    potential_f_prime,
    state_from_fields,
)
from chns.second_order import bootstrap, extrapolants, step_second_order
from oracle_tools import (
    _bdf1_substeps,
    field_bytes,
    loop_dot_cell,
    loop_dot_face,
    monolithic_first_order,
    solve_ch_system,
    solve_velocity_helmholtz,
    three_projection_first_order,
    three_projection_second_order,
    with_signed_zeros,
)

RNG = np.random.default_rng(99)


def reference_params(**overrides):
    return PhysParams(**overrides)


def rest_state(grid, params, phi_value):
    phi = CellField.full(grid, phi_value)
    return state_from_fields(params, phi, MacVector.zeros(grid))


def messy_state(grid, params, rng=RNG, scale=0.3):
    """A generic non-symmetric state for oracle comparisons."""
    phi = CellField.from_function(
        grid, lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y) + 0.1 * np.sin(2 * np.pi * x)
    )
    vel = MacVector.from_functions(
        grid,
        lambda x, y: scale * np.sin(np.pi * x) ** 2 * np.sin(2 * np.pi * y),
        lambda x, y: -scale * np.sin(np.pi * y) ** 2 * np.sin(2 * np.pi * x),
    )
    state = state_from_fields(params, phi, vel)
    # perturb the pressure so substep 0 exercises the lagged gradient
    pdat = rng.standard_normal((grid.nx, grid.ny))
    state.p.data[:] = 0.05 * (pdat - pdat.mean())
    return state


# ---------------------------------------------------------------------------
# potential and auxiliary energy
# ---------------------------------------------------------------------------


def test_potential_values():
    g = GridSpec(8, 8)
    p = reference_params()
    assert norm_l2_cell(potential_f_prime(CellField.zeros(g), p)) == 0.0
    root = np.sqrt(1.0 + p.beta)
    out = potential_f_prime(CellField.full(g, root), p)
    assert np.max(np.abs(out.data)) <= 1e-12
    out1 = potential_f_prime(CellField.full(g, 1.0), p)
    assert np.allclose(out1.data, (1.0 - 1.0 - p.beta) / p.epsilon**2, atol=1e-12)
    assert abs(out1.data[0, 0] + 55.555555555555557) <= 1e-9


def test_potential_is_its_closed_form_bytewise():
    """The in-place F'(phi) is phi (phi^2 - 1 - beta) / eps^2 to the byte."""
    g = GridSpec(9, 8)
    p = reference_params(epsilon=0.07, beta=2.0)
    phi = CellField(g, with_signed_zeros(np.random.default_rng(4), (9, 8)))
    expected = phi.data * (phi.data**2 - (1.0 + p.beta)) / p.epsilon**2
    assert potential_f_prime(phi, p).data.tobytes() == expected.tobytes()


def test_energy_e1_closed_forms():
    g = GridSpec(16, 16)
    p = reference_params()
    root = np.sqrt(1.0 + p.beta)
    assert energy_e1(CellField.full(g, root), p) <= 1e-25  # root^2 - 6 is one ulp off zero
    # phi = 0 on the unit square: (1+beta)^2 / (4 eps^2) = 100
    assert abs(energy_e1(CellField.zeros(g), p) - 100.0) <= 1e-10
    # cosine initial data: midpoint quadrature is exact for this trig polynomial
    phi = CellField.from_function(g, lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y))
    assert abs(energy_e1(phi, p) - 33.140625 / 0.36) <= 1e-10


def test_degenerate_aux_energy_raises():
    g = GridSpec(8, 8)
    p = reference_params(delta=0.0)
    state = rest_state(g, p, 0.0)
    state.phi.data[:] = np.sqrt(1.0 + p.beta)  # E1 = 0 and delta = 0
    with pytest.raises(StateError):
        step_first_order(state, p, 0.01)


# ---------------------------------------------------------------------------
# substeps
# ---------------------------------------------------------------------------


def phase_substeps(state, p, dt):
    """(phi0, mu0), (phi1, mu1) in physical space, from the step's DCT coefficients."""
    terms = explicit_terms(state, p)
    g = state.phi.grid
    phi0_hat, phi1_hat, _ = phase_families(state.phi_hat, terms, ChOperatorSpec(p.mobility * dt, p.gamma_eff), dt)
    mu = p.gamma_eff - cell_laplacian_symbol(g)  # the symbol of -lap + gamma_eff
    return ((CellField(g, cell_inverse(phi0_hat)), CellField(g, cell_inverse(mu * phi0_hat))),
            (CellField(g, cell_inverse(phi1_hat)),
             CellField(g, cell_inverse(mu * phi1_hat + cell_transform(terms.f_prime.data)))))


def spectral_xi_system(state, p, dt):
    """The 2x2 system the step forms from its transform-space pairings."""
    terms = explicit_terms(state, p)
    _, _, ch_pairs = phase_families(state.phi_hat, terms, ChOperatorSpec(p.mobility * dt, p.gamma_eff), dt)
    rhs0 = state.u - dt * grad_cell_to_face(state.p)
    _, vel_pairs = velocity_families(rhs0, terms, HelmholtzSpec(p.viscosity * dt), dt)
    return assemble_xi_system(state, ch_pairs, vel_pairs, terms.sq, p, dt, state.t + dt)


def test_ch_substeps_constant_phi():
    g = GridSpec(8, 8)
    p = reference_params()
    state = rest_state(g, p, 0.4)
    (phi0, _), (phi1, mu1) = phase_substeps(state, p, 0.01)
    fp = potential_f_prime(state.phi, p)
    assert norm_l2_cell(phi1) <= 1e-12
    assert np.allclose(mu1.data, fp.data, atol=1e-11)
    assert np.allclose(phi0.data, state.phi.data, atol=1e-12)


def test_ch_substeps_dt_to_zero():
    g = GridSpec(16, 16)
    p = reference_params()
    state = initial_state(g, p)
    (phi0, _), (phi1, _) = phase_substeps(state, p, 1e-10)
    assert norm_l2_cell(phi0 - state.phi) <= 1e-6 * norm_l2_cell(state.phi)
    assert norm_l2_cell(phi1) <= 1e-6


def test_velocity_substeps_trivial_cases():
    g = GridSpec(8, 8)
    p = reference_params()
    state = rest_state(g, p, 0.4)  # constant phi, zero velocity, zero pressure
    spec = HelmholtzSpec(p.viscosity * 0.01)
    hats, (ut_chem, conv_ut) = velocity_families(state.u, explicit_terms(state, p), spec, 0.01)
    sym = helmholtz_inv_symbol(g, spec)
    ut0, ut1, ut2 = (face_inverse(g, [s * c for s, c in zip(sym, hat)]) for hat in zip(*hats))
    assert norm_l2_face(ut0) <= 1e-13
    assert norm_l2_face(ut1) <= 1e-13  # mu grad phi = 0 for constant phi
    assert norm_l2_face(ut2) <= 1e-13
    assert ut_chem == conv_ut == (0.0, 0.0, 0.0)


def test_project_divergence_free_input_unchanged():
    g = GridSpec(16, 16)
    vel = MacVector.from_functions(
        g,
        lambda x, y: np.sin(np.pi * x) ** 2 * np.sin(2 * np.pi * y),
        lambda x, y: -np.sin(np.pi * y) ** 2 * np.sin(2 * np.pi * x),
    )
    solenoidal, _, _ = project(vel, 1.0)
    for dt_coef in (0.01, 2.0 * 0.01 / 3.0):  # backward Euler and BDF2 coefficients
        u, psi, _ = project(solenoidal, dt_coef)
        assert norm_l2_face(u - solenoidal) <= 1e-9
        assert norm_l2_cell(psi) <= 1e-9
        assert norm_l2_cell(div_face_to_cell(u)) <= 1e-10


def test_project_linearity():
    """project(a + x1 b + x2 c) = project(a) + x1 project(b) + x2 project(c):
    the steppers project the recombined u~ once instead of each family."""
    g = GridSpec(12, 12)
    rng = np.random.default_rng(5)

    def noslip():
        w = MacVector(g, rng.standard_normal((g.nx + 1, g.ny)), rng.standard_normal((g.nx, g.ny + 1)))
        w.u[0, :] = w.u[-1, :] = 0.0
        w.v[:, 0] = w.v[:, -1] = 0.0
        return w

    a, b, c = noslip(), noslip(), noslip()
    x1, x2 = 0.93, -1.7
    for dt_coef in (0.02, 2.0 * 0.02 / 3.0):
        (ua, pa, _), (ub, pb, _), (uc, pc, _) = (project(w, dt_coef) for w in (a, b, c))
        u, p, _ = project(a + x1 * b + x2 * c, dt_coef)
        scale_u = norm_l2_face(a) + norm_l2_face(b) + norm_l2_face(c)
        scale_p = norm_l2_cell(pa) + norm_l2_cell(pb) + norm_l2_cell(pc) + 1.0
        assert norm_l2_face(u - (ua + x1 * ub + x2 * uc)) <= 1e-10 * scale_u
        assert norm_l2_cell(p - (pa + x1 * pb + x2 * pc)) <= 1e-10 * scale_p


# ---------------------------------------------------------------------------
# the 2x2 recombination system
# ---------------------------------------------------------------------------


def test_xi_system_diagonal_at_rest():
    g = GridSpec(8, 8)
    p = reference_params()
    dt = 0.01
    state = rest_state(g, p, 0.4)
    sys = spectral_xi_system(state, p, dt)
    assert sys.a2 == 0.0 and sys.b1 == 0.0
    t1 = state.t + dt
    expected_b2 = np.exp(-t1 / p.horizon) * (1.0 / dt + 1.0 / p.horizon)
    assert abs(sys.b2 - expected_b2) <= 1e-12 * abs(expected_b2)
    xi1, xi2 = solve_xi(sys)
    assert abs(xi1 - sys.a0 / sys.a1) <= 1e-14
    assert abs(xi2 - sys.b0 / sys.b2) <= 1e-14


def test_xi_system_matches_loop_assembly():
    """The transform-space system equals loop quadratures of the physical-space substeps."""
    g = GridSpec(6, 6)
    p = reference_params()
    dt = 0.02
    state = messy_state(g, p)
    sys = spectral_xi_system(state, p, dt)
    sub = _bdf1_substeps(state, p, dt, explicit_terms(state, p))
    phi0, mu0, phi1, mu1, ut0, ut1, ut2 = sub.phi0, sub.mu0, sub.phi1, sub.mu1, sub.ut0, sub.ut1, sub.ut2

    from chns.grid import advect_scalar, advect_velocity

    sq = np.sqrt(energy_e1(state.phi, p) + p.delta)
    fp = potential_f_prime(state.phi, p)
    adv = advect_scalar(state.u, state.phi)
    chem = chemical_force(state.mu, state.phi)
    conv = advect_velocity(state.u)
    t1 = state.t + dt
    e_pos, e_neg = np.exp(t1 / p.horizon), np.exp(-t1 / p.horizon)

    a0 = state.r / dt + (0.5 / sq) * (
        loop_dot_cell(fp, phi0 - state.phi) / dt + loop_dot_cell(mu0, adv) - loop_dot_face(ut0, chem)
    )
    a1 = sq / dt - (0.5 / sq) * (
        loop_dot_cell(fp, phi1) / dt + loop_dot_cell(mu1, adv) - loop_dot_face(ut1, chem)
    )
    a2 = (0.5 / sq) * loop_dot_face(ut2, chem)
    b0 = state.q / dt + e_pos * loop_dot_face(conv, ut0)
    b1 = -e_pos * loop_dot_face(conv, ut1)
    b2 = e_neg / dt + e_neg / p.horizon - e_pos * loop_dot_face(conv, ut2)

    for got, want in ((sys.a0, a0), (sys.a1, a1), (sys.a2, a2), (sys.b0, b0), (sys.b1, b1), (sys.b2, b2)):
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@settings(max_examples=40, deadline=None)
@given(nx=st.integers(4, 20), ny=st.integers(4, 20), k=st.floats(1e-4, 0.1), mobility=st.floats(1e-4, 1.0),
       viscosity=st.floats(1e-4, 1.0), seed=st.integers(0, 2**32 - 1))
def test_spectral_pairings_equal_physical_quadratures(nx, ny, k, mobility, viscosity, seed):
    """Parseval: each pairing the step takes on transform coefficients equals
    dot_cell/dot_face of the physical-space solves, to 1e-13 of the rounding
    scale of the quadrature (the norms of its factors, or of their terms)."""
    assume(nx != ny)
    g = GridSpec(nx, ny)
    rng = np.random.default_rng(seed)
    p = reference_params(mobility=mobility, viscosity=viscosity)

    def cell():
        return CellField(g, rng.standard_normal((nx, ny)))

    def face():  # zero wall entries, as every velocity right-hand side has
        w = MacVector(g, rng.standard_normal((nx + 1, ny)), rng.standard_normal((nx, ny + 1)))
        w.u[[0, -1], :] = 0.0
        w.v[:, [0, -1]] = 0.0
        return w

    lag = SimpleNamespace(phi=cell())
    lag.phi_hat = cell_transform(lag.phi.data)
    terms = ExplicitTerms(sq=1.0, f_prime=cell(), adv=cell(), chem=face(), conv=face())
    rhs0 = face()
    ch_spec, h_spec = ChOperatorSpec(mobility * k, p.gamma_eff), HelmholtzSpec(viscosity * k)
    _, _, (f_dphi0, f_phi1, mu0_adv, mu1_adv) = phase_families(lag.phi_hat, terms, ch_spec, k)
    _, (ut_chem, conv_ut) = velocity_families(rhs0, terms, h_spec, k)

    fp, adv = terms.f_prime, terms.adv
    phi0, _ = solve_ch_system(ch_spec, lag.phi)
    phi1, _ = solve_ch_system(ch_spec, (mobility * k) * lap_cell(fp) - k * adv)
    mu0 = -1.0 * lap_cell(phi0) + p.gamma_eff * phi0
    mu1_lin = -1.0 * lap_cell(phi1) + p.gamma_eff * phi1
    uts = [solve_velocity_helmholtz(h_spec, rhs)[0] for rhs in (rhs0, k * terms.chem, (-k) * terms.conv)]

    cn, fn = norm_l2_cell, norm_l2_face
    checks = [
        (f_dphi0, dot_cell(fp, phi0 - lag.phi), cn(fp) * (cn(phi0) + cn(lag.phi))),
        (f_phi1, dot_cell(fp, phi1), cn(fp) * cn(phi1)),
        (mu0_adv, dot_cell(mu0, adv), cn(mu0) * cn(adv)),
        (mu1_adv, dot_cell(mu1_lin + fp, adv), (cn(mu1_lin) + cn(fp)) * cn(adv)),
    ]
    for i, ut in enumerate(uts):
        checks.append((ut_chem[i], dot_face(ut, terms.chem), fn(ut) * fn(terms.chem)))
        checks.append((conv_ut[i], dot_face(terms.conv, ut), fn(ut) * fn(terms.conv)))
    for got, want, scale in checks:
        assert abs(got - want) <= 1e-13 * scale


def test_a_step_makes_twelve_transform_calls(monkeypatch):
    """Each msav1 step, msav2 BDF2 step and bootstrap substep transforms its
    new fields once, through chns.elliptic's module-level scipy names: the
    three velocity right-hand sides as one stack (4 dst), the recombined u~
    (4 idst), F' and adv as one stack (1 dctn), the recombined phi (1 idctn),
    and the Poisson solve (1 dctn, 1 idctn).  phi* is never transformed."""
    calls = []
    for name in ("dctn", "idctn", "dst", "idst"):
        monkeypatch.setattr(elliptic, name, lambda *a, _f=getattr(elliptic, name), _n=name, **kw:
                            calls.append(_n) or _f(*a, **kw))
    g, p, dt = GridSpec(12, 10), reference_params(), 0.01
    state = messy_state(g, p)

    def counted(step, *args):
        calls.clear()
        out = step(*args)
        return out, dict(Counter(calls))

    per_step = {"dst": 4, "idst": 4, "dctn": 2, "idctn": 2}
    assert counted(step_first_order, state, p, dt)[1] == per_step
    state2, got = counted(bootstrap, state, p, dt)
    assert got == {name: 4 * n for name, n in per_step.items()}
    assert counted(step_second_order, state2, p, dt)[1] == per_step


def _files_state(tmp_path, p):
    """A level-0 state loaded as init=files loads it, from .bin snapshots of messy fields."""
    g = GridSpec(12, 10)
    fields = messy_state(g, p)
    for name, kind, values in (("phi", "cell", fields.phi.data), ("u", "face_u", fields.u.u),
                               ("v", "face_v", fields.u.v)):
        write_field_bin(tmp_path / f"{name}.bin", g, kind, values)
    cfg = build_config({"nx": "12", "ny": "10", "init": "files", "outdir": str(tmp_path / "out"),
                        **{f"init_{name}": str(tmp_path / f"{name}.bin") for name in ("phi", "u", "v")}})
    return _load_initial_state(cfg)


@pytest.mark.parametrize("scheme", ["msav1", "msav2"])
@pytest.mark.parametrize("init", ["paper5", "files"])
def test_every_level_carries_the_coefficients_of_its_phi(tmp_path, scheme, init):
    """phi_hat (and msav2's phi_hat_prev) is within 1e-14, relative, of
    cell_transform(phi) (phi_prev) on the initial level and on every level a
    step or bootstrap substep produces, and no step writes the phi_hat of
    the level it reads."""
    p = reference_params()
    state0 = initial_state(GridSpec(12, 10), p) if init == "paper5" else _files_state(tmp_path, p)
    levels = []

    def record(level):
        pairs = [(level.phi_hat, level.phi)]
        if hasattr(level, "phi_hat_prev"):
            pairs.append((level.phi_hat_prev, level.phi_prev))
        for hat, phi in pairs:
            assert np.linalg.norm(hat - cell_transform(phi.data)) <= 1e-14 * np.linalg.norm(hat)
        levels.append((level, level.phi_hat.tobytes()))

    record(state0)
    for _, state in _iterate(scheme, state0, p, 0.01, 4, on_step=lambda prev, new, dt: record(new)):
        if state is not levels[-1][0]:
            record(state)  # msav2's level 1, built from the last bootstrap substep
    assert len(levels) == (5 if scheme == "msav1" else 9)
    assert all(level.phi_hat.tobytes() == carried for level, carried in levels)


@pytest.mark.parametrize("scheme", ["msav1", "msav2"])
def test_the_mu_form_phase_check_rejects_a_perturbed_phi_or_mu(scheme):
    """The stored phi and mu of a step satisfy phi - k M lap mu = phi* - k xi1 adv
    far inside the phase check's bound; the same check rejects phi or mu
    with one entry moved by 1e-6 of the field's largest entry."""
    g, p, dt = GridSpec(12, 10), reference_params(), 0.01
    state = messy_state(g, p)
    if scheme == "msav1":
        k, lag_phi, bar, new = dt, state.phi, state, step_first_order(state, p, dt)
    else:
        state = bootstrap(state, p, dt)
        k, bar, new = 2.0 * dt / 3.0, extrapolants(state), step_second_order(state, p, dt)
        lag_phi = (4.0 * state.phi - state.phi_prev) * (1.0 / 3.0)
    terms = explicit_terms(bar, p)
    xi1 = new.r / terms.sq
    spec = ChOperatorSpec(mobility_dt=p.mobility * k, gamma_eff=p.gamma_eff)
    rhs = lag_phi - (k * xi1) * terms.adv
    assert ch_mu_residual(spec, new.phi, new.mu, rhs).residual <= 1e-13
    for name in ("phi", "mu"):
        bad = getattr(new, name).copy()
        bad.data[3, 4] += 1e-6 * np.abs(bad.data).max()
        fields = {"phi": new.phi, "mu": new.mu, name: bad}
        with pytest.raises(SolverConvergenceError):
            ch_mu_residual(spec, fields["phi"], fields["mu"], rhs)


def test_a_step_whose_phi_is_off_fails_its_phase_check(monkeypatch):
    """The step checks the phi it inverts: one entry moved by 1e-8 of the
    field's largest entry raises."""
    def off(coeffs):
        phi = cell_inverse(coeffs)
        phi[3, 4] += 1e-8 * np.abs(phi).max()
        return phi

    g, p = GridSpec(12, 10), reference_params()
    state = messy_state(g, p)
    monkeypatch.setattr(first_order, "cell_inverse", off)
    with pytest.raises(SolverConvergenceError) as exc:
        step_first_order(state, p, 0.01)
    assert exc.value.report.residual > elliptic.TOL_HELMHOLTZ


@pytest.mark.parametrize("scheme", ["msav1", "msav2"])
def test_step_matches_physical_space_composition(scheme):
    """One step of either order, recombined in transform space, equals the
    oracle's physical-space solves and quadratures on a non-square grid."""
    g = GridSpec(16, 12)
    p = reference_params()
    dt = 0.01
    state = messy_state(g, p, rng=np.random.default_rng(7))
    if scheme == "msav1":
        got, ref = step_first_order(state, p, dt), three_projection_first_order(state, p, dt)
    else:
        state = bootstrap(state, p, dt)
        got, ref = step_second_order(state, p, dt), three_projection_second_order(state, p, dt)
    for name, norm in (("phi", norm_l2_cell), ("mu", norm_l2_cell), ("u_tilde", norm_l2_face),
                       ("u", norm_l2_face), ("p", norm_l2_cell)):
        assert norm(getattr(got, name) - getattr(ref, name)) <= 1e-12 * norm(getattr(ref, name)), name
    assert abs(got.r - ref.r) <= 1e-12 * abs(ref.r)
    assert abs(got.q - ref.q) <= 1e-12 * abs(ref.q)


def test_solve_xi_closed_forms():
    assert solve_xi(XiSystem(a0=0.3, a1=1.0, a2=0.0, b0=0.7, b1=0.0, b2=1.0)) == (0.3, 0.7)
    xi1, xi2 = solve_xi(XiSystem(a0=2.0, a1=4.0, a2=0.0, b0=9.0, b1=0.0, b2=3.0))
    assert (xi1, xi2) == (0.5, 3.0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
        rhs = rng.standard_normal(2)
        sys = XiSystem(a0=rhs[0], a1=m[0, 0], a2=m[0, 1], b0=rhs[1], b1=m[1, 0], b2=m[1, 1])
        got = np.array(solve_xi(sys))
        want = np.linalg.solve(m, rhs)
        assert np.allclose(got, want, rtol=1e-13, atol=1e-14)


def test_solve_xi_singular_guard():
    with pytest.raises(SingularSystemError):
        solve_xi(XiSystem(a0=1.0, a1=1.0, a2=2.0, b0=1.0, b1=2.0, b2=4.0))


# ---------------------------------------------------------------------------
# full steps
# ---------------------------------------------------------------------------


def test_fixed_point_state():
    g = GridSpec(8, 8)
    p = reference_params(delta=1.0)  # delta > 0: E1 vanishes at the potential root
    root = np.sqrt(1.0 + p.beta)
    state = rest_state(g, p, root)
    assert state.r == 1.0  # sqrt(E1 + delta) = sqrt(delta) = 1
    dt = 0.02
    new = step_first_order(state, p, dt)
    assert norm_l2_cell(new.phi - state.phi) <= 1e-11
    assert norm_l2_face(new.u) <= 1e-11
    assert abs(new.r - state.r) <= 1e-11
    assert abs(new.q - state.q / (1.0 + dt / p.horizon)) <= 1e-13


def test_q_recurrence_at_zero_velocity():
    g = GridSpec(8, 8)
    p = reference_params()
    state = rest_state(g, p, 0.0)  # phi = 0: potential slope vanishes, u stays 0
    dt = 0.01
    q_expected = 1.0
    for _ in range(5):
        state = step_first_order(state, p, dt)
        q_expected /= 1.0 + dt / p.horizon
        assert abs(state.q - q_expected) <= 1e-12
        assert norm_l2_face(state.u) <= 1e-12
    assert abs(state.q - 1.0 / 1.1**5) <= 1e-12


def test_step_matches_monolithic_dense_solve():
    g = GridSpec(6, 6)
    p = reference_params()
    dt = 0.02
    state = messy_state(g, p)
    got = step_first_order(state, p, dt)
    ref = monolithic_first_order(state, p, dt)

    def rel(a, b, norm):
        return norm(a - b) / max(1.0, norm(b))

    assert rel(got.phi, ref["phi"], norm_l2_cell) <= 1e-9
    assert rel(got.mu, ref["mu"], norm_l2_cell) <= 1e-9
    assert rel(got.u_tilde, ref["u_tilde"], norm_l2_face) <= 1e-9
    assert rel(got.u, ref["u"], norm_l2_face) <= 1e-9
    assert rel(got.p, ref["p"], norm_l2_cell) <= 1e-9
    assert abs(got.r - ref["r"]) <= 1e-9 * max(1.0, abs(ref["r"]))
    assert abs(got.q - ref["q"]) <= 1e-9 * max(1.0, abs(ref["q"]))
    sq = np.sqrt(energy_e1(state.phi, p) + p.delta)
    assert abs(got.r / sq - ref["xi1"]) <= 1e-9 * max(1.0, abs(ref["xi1"]))
    t1 = state.t + dt
    assert abs(got.q * np.exp(t1 / p.horizon) - ref["xi2"]) <= 1e-9 * max(1.0, abs(ref["xi2"]))


def test_one_projection_matches_per_family_projections():
    """20 steps projecting the recombined u~ once agree with 20 steps that
    project each substep family and recombine u_i, p_i."""
    g = GridSpec(16, 16)
    p = reference_params()
    dt = 0.01
    got = ref = messy_state(g, p, rng=np.random.default_rng(11))
    for _ in range(20):
        got = step_first_order(got, p, dt)
        ref = three_projection_first_order(ref, p, dt)
    assert norm_l2_face(got.u - ref.u) <= 1e-12 * norm_l2_face(ref.u)
    assert norm_l2_cell(got.p - ref.p) <= 1e-12 * norm_l2_cell(ref.p)


def test_step_invariants_divergence_and_mass():
    g = GridSpec(32, 32)
    p = reference_params()
    state = initial_state(g, p)
    m0 = g.cell_area * float(np.sum(state.phi.data))
    for _ in range(3):
        state = step_first_order(state, p, 0.01)
        assert norm_l2_cell(div_face_to_cell(state.u)) <= 1e-9
        assert abs(state.p.data.mean()) <= 1e-13
        m = g.cell_area * float(np.sum(state.phi.data))
        assert abs(m - m0) <= 1e-12


def test_one_step_local_error_is_second_order():
    """Richardson check: one dt step vs two dt/2 steps from the same state.

    The state is warmed up first so the lagged pressure is consistent (the
    cold-start p=0 jump is a known projection-scheme artifact), and the phi
    window sits below the knee where the fourth-order operator's crossover
    modes (mobility*dt*lam^2 ~ 1) leave the resolved band."""
    g = GridSpec(32, 32)
    p = reference_params()
    state = initial_state(g, p)
    for _ in range(10):
        state = step_first_order(state, p, 1e-4)
    ep, eu = [], []
    for dt in (0.001, 0.0005, 0.00025, 0.000125):
        one = step_first_order(state, p, dt)
        half = step_first_order(step_first_order(state, p, dt / 2), p, dt / 2)
        ep.append(norm_l2_cell(one.phi - half.phi))
        eu.append(norm_l2_face(one.u - half.u))
    phi_rates = np.log2(np.array(ep[:-1]) / np.array(ep[1:]))
    u_rates = np.log2(np.array(eu[:-1]) / np.array(eu[1:]))
    assert np.all(u_rates >= 1.9)
    assert phi_rates[-1] >= 1.9
    assert np.all(np.diff(phi_rates) > 0)  # approaching the quadratic regime


def test_reports_collected():
    g = GridSpec(8, 8)
    p = reference_params()
    state = initial_state(g, p)
    reports = step_first_order(state, p, 0.01).reports
    assert len(reports) == 3  # 1 phase + 1 helmholtz + 1 poisson
    assert all(r.residual <= 1e-11 for r in reports)


def _arrays_by_name(state):
    return {name: field_bytes(x) for name, x in vars(state).items() if isinstance(x, (CellField, MacVector))}


@pytest.mark.parametrize("scheme", ["msav1", "msav2"])
def test_a_step_leaves_its_input_state_unchanged(scheme):
    """The step works in place only on arrays it made: every array of the state
    it advances, the msav2 bootstrap's initial state included, keeps its bytes."""
    g = GridSpec(10, 8, x1=1.3)
    p = reference_params()
    state = messy_state(g, p, rng=np.random.default_rng(5))
    before = _arrays_by_name(state)
    assert set(before) >= {"phi", "mu", "u", "u_tilde", "p"}
    if scheme == "msav1":
        step_first_order(state, p, 0.01)
    else:
        level = bootstrap(state, p, 0.01)
        assert _arrays_by_name(state) == before
        state, before = level, _arrays_by_name(level)
        assert set(before) >= {"phi_prev", "mu_prev", "u_prev", "g"}
        step_second_order(state, p, 0.01)
    assert _arrays_by_name(state) == before
