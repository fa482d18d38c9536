"""Dense oracles for the test suite.

Everything here deliberately re-derives results by brute force: operator
matrices are built column-by-column from unit vectors, inner products by
explicit Python loops, and the coupled one-step systems are assembled as one
dense matrix over every unknown and solved by LU.  The production code never
sees these paths.
"""

from math import exp
from types import SimpleNamespace

import numpy as np

from chns.diagnostics import ErrorRecord, _iterate
from chns.elliptic import (
    ChOperatorSpec,
    HelmholtzSpec,
    project,
    solve_ch_system,
    solve_velocity_helmholtz,
)
from chns.first_order import XiSystem, explicit_terms, solve_xi
from chns.grid import (
    CellField,
    MacVector,
    advect_scalar,
    advect_velocity,
    chemical_force,
    div_face_to_cell,
    dot_cell,
    dot_face,
    grad_cell_to_face,
    lap_cell,
    lap_velocity,
)
from chns.model import SavState, SchemeState, SchemeState2, potential_f_prime, sqrt_aux_energy
from chns.second_order import extrapolants


def cell_count(grid):
    return grid.nx * grid.ny


def face_count(grid):
    return (grid.nx + 1) * grid.ny + grid.nx * (grid.ny + 1)


def pack_face(w):
    return np.concatenate([w.u.ravel(), w.v.ravel()])


def unpack_face(grid, vec):
    nu = (grid.nx + 1) * grid.ny
    u = vec[:nu].reshape(grid.nx + 1, grid.ny)
    v = vec[nu:].reshape(grid.nx, grid.ny + 1)
    return MacVector(grid, u.copy(), v.copy())


def mat_from_cell_op(grid, op):
    """Dense matrix of a CellField -> CellField linear operator."""
    n = cell_count(grid)
    mat = np.zeros((n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        mat[:, k] = op(CellField(grid, e.reshape(grid.nx, grid.ny))).data.ravel()
    return mat


def mat_cell_to_face(grid, op):
    n = cell_count(grid)
    mat = np.zeros((face_count(grid), n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        mat[:, k] = pack_face(op(CellField(grid, e.reshape(grid.nx, grid.ny))))
    return mat


def mat_face_to_cell(grid, op):
    m = face_count(grid)
    mat = np.zeros((cell_count(grid), m))
    for k in range(m):
        e = np.zeros(m)
        e[k] = 1.0
        mat[:, k] = op(unpack_face(grid, e)).data.ravel()
    return mat


def mat_face_to_face(grid, op):
    m = face_count(grid)
    mat = np.zeros((m, m))
    for k in range(m):
        e = np.zeros(m)
        e[k] = 1.0
        mat[:, k] = pack_face(op(unpack_face(grid, e)))
    return mat


def dense_neumann_solve(grid, rhs):
    """Zero-mean solution of lap(psi) = rhs via a dense saddle system with a
    Lagrange multiplier for the mean."""
    n = cell_count(grid)
    lap_mat = mat_from_cell_op(grid, lap_cell)
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n] = lap_mat
    aug[:n, n] = 1.0
    aug[n, :n] = 1.0
    b = np.zeros(n + 1)
    b[:n] = rhs.data.ravel()
    sol = np.linalg.solve(aug, b)
    return CellField(grid, sol[:n].reshape(grid.nx, grid.ny))


# ---------------------------------------------------------------------------
# explicit-loop inner products (independent of the production quadratures)
# ---------------------------------------------------------------------------


def loop_dot_cell(a, b):
    total = 0.0
    for i in range(a.grid.nx):
        for j in range(a.grid.ny):
            total += a.data[i, j] * b.data[i, j]
    return a.grid.hx * a.grid.hy * total


def loop_dot_face(a, b):
    total = 0.0
    for i in range(a.grid.nx + 1):
        for j in range(a.grid.ny):
            total += a.u[i, j] * b.u[i, j]
    for i in range(a.grid.nx):
        for j in range(a.grid.ny + 1):
            total += a.v[i, j] * b.v[i, j]
    return a.grid.hx * a.grid.hy * total


# ---------------------------------------------------------------------------
# monolithic one-step solves
# ---------------------------------------------------------------------------


def _blocks(grid):
    nc, nf = cell_count(grid), face_count(grid)
    lap_c = mat_from_cell_op(grid, lap_cell)
    grad = mat_cell_to_face(grid, grad_cell_to_face)
    div = mat_face_to_cell(grid, div_face_to_cell)
    lap_v = mat_face_to_face(grid, lap_velocity)
    return nc, nf, lap_c, grad, div, lap_v


def _solve_monolithic(grid, mat, rhs, sq, t_new, horizon):
    nc, nf = cell_count(grid), face_count(grid)
    sol = np.linalg.solve(mat, rhs)
    ofs_mu, ofs_ut, ofs_un, ofs_p = nc, 2 * nc, 2 * nc + nf, 2 * nc + 2 * nf
    phi = CellField(grid, sol[:nc].reshape(grid.nx, grid.ny))
    mu = CellField(grid, sol[ofs_mu:ofs_ut].reshape(grid.nx, grid.ny))
    ut = unpack_face(grid, sol[ofs_ut:ofs_un])
    un = unpack_face(grid, sol[ofs_un:ofs_p])
    p = CellField(grid, sol[ofs_p:ofs_p + nc].reshape(grid.nx, grid.ny))
    r = float(sol[-2])
    q = float(sol[-1])
    return {
        "phi": phi, "mu": mu, "u_tilde": ut, "u": un, "p": p, "r": r, "q": q,
        "xi1": r / sq, "xi2": float(np.exp(t_new / horizon)) * q,
    }


def monolithic_first_order(state, params, dt):
    """One backward-Euler step with every unknown (including r, q) assembled
    into a single dense linear system."""
    grid = state.grid
    nc, nf, lap_c, grad, div, lap_v = _blocks(grid)
    n = 3 * nc + 2 * nf + 2
    area = grid.cell_area
    sq = sqrt_aux_energy(state.phi, params)
    ge = params.gamma_eff
    t_new = state.t + dt
    e_pos = np.exp(t_new / params.horizon)

    fp = potential_f_prime(state.phi, params).data.ravel()
    adv = advect_scalar(state.u, state.phi).data.ravel()
    chem = pack_face(chemical_force(state.mu, state.phi))
    conv = pack_face(advect_velocity(state.u))

    ofs_mu, ofs_ut, ofs_un, ofs_p = nc, 2 * nc, 2 * nc + nf, 2 * nc + 2 * nf
    ix_r, ix_q = n - 2, n - 1
    mat = np.zeros((n, n))
    rhs = np.zeros(n)

    # phase update rows
    mat[:nc, :nc] = np.eye(nc) / dt
    mat[:nc, ofs_mu:ofs_ut] = -params.mobility * lap_c
    mat[:nc, ix_r] = adv / sq
    rhs[:nc] = state.phi.data.ravel() / dt

    # chemical-potential definition rows
    rows = slice(ofs_mu, ofs_ut)
    mat[rows, ofs_mu:ofs_ut] = np.eye(nc)
    mat[rows, :nc] = lap_c - ge * np.eye(nc)
    mat[rows, ix_r] = -fp / sq

    # auxiliary r row
    mat[ix_r, ix_r] = 1.0 / dt
    mat[ix_r, :nc] = -(0.5 / sq) * area * fp / dt
    mat[ix_r, ofs_mu:ofs_ut] = -(0.5 / sq) * area * adv
    mat[ix_r, ofs_ut:ofs_un] = (0.5 / sq) * area * chem
    rhs[ix_r] = state.r / dt - (0.5 / sq) * area * float(fp @ state.phi.data.ravel()) / dt

    # momentum rows (boundary faces collapse to ut/dt = 0 automatically)
    rows = slice(ofs_ut, ofs_un)
    mat[rows, ofs_ut:ofs_un] = np.eye(nf) / dt - params.viscosity * lap_v
    mat[rows, ix_q] = e_pos * conv
    mat[rows, ix_r] = -chem / sq
    rhs[ofs_ut:ofs_un] = pack_face(state.u) / dt - grad @ state.p.data.ravel()

    # projection rows
    rows = slice(ofs_un, ofs_p)
    mat[rows, ofs_un:ofs_p] = np.eye(nf)
    mat[rows, ofs_ut:ofs_un] = -np.eye(nf)
    mat[rows, ofs_p:ofs_p + nc] = dt * grad
    rhs[ofs_un:ofs_p] = dt * (grad @ state.p.data.ravel())

    # divergence rows, with one row traded for the zero-mean pressure pin
    rows = slice(ofs_p, ofs_p + nc)
    mat[rows, ofs_un:ofs_p] = div
    mat[ofs_p, :] = 0.0
    mat[ofs_p, ofs_p:ofs_p + nc] = area
    rhs[ofs_p] = 0.0

    # auxiliary q row
    mat[ix_q, ix_q] = 1.0 / dt + 1.0 / params.horizon
    mat[ix_q, ofs_ut:ofs_un] = -e_pos * area * conv
    rhs[ix_q] = state.q / dt

    return _solve_monolithic(grid, mat, rhs, sq, t_new, params.horizon)


def monolithic_second_order(state2, params, dt):
    """One BDF2 / rotational step assembled as a single dense system."""
    grid = state2.grid
    nc, nf, lap_c, grad, div, lap_v = _blocks(grid)
    n = 3 * nc + 2 * nf + 2
    area = grid.cell_area
    ge = params.gamma_eff
    nu = params.viscosity
    t_new = state2.t + dt
    e_pos = np.exp(t_new / params.horizon)
    two_dt = 2.0 * dt

    bar_phi = 2.0 * state2.phi - state2.phi_prev
    bar_mu = 2.0 * state2.mu - state2.mu_prev
    bar_u = 2.0 * state2.u - state2.u_prev
    sq = sqrt_aux_energy(bar_phi, params)

    fp = potential_f_prime(bar_phi, params).data.ravel()
    adv = advect_scalar(bar_u, bar_phi).data.ravel()
    chem = pack_face(chemical_force(bar_mu, bar_phi))
    conv = pack_face(advect_velocity(bar_u))

    phi_hist = (4.0 * state2.phi.data - state2.phi_prev.data).ravel() / two_dt
    u_hist = (4.0 * pack_face(state2.u) - pack_face(state2.u_prev)) / two_dt

    ofs_mu, ofs_ut, ofs_un, ofs_p = nc, 2 * nc, 2 * nc + nf, 2 * nc + 2 * nf
    ix_r, ix_q = n - 2, n - 1
    mat = np.zeros((n, n))
    rhs = np.zeros(n)

    mat[:nc, :nc] = 3.0 / two_dt * np.eye(nc)
    mat[:nc, ofs_mu:ofs_ut] = -params.mobility * lap_c
    mat[:nc, ix_r] = adv / sq
    rhs[:nc] = phi_hist

    rows = slice(ofs_mu, ofs_ut)
    mat[rows, ofs_mu:ofs_ut] = np.eye(nc)
    mat[rows, :nc] = lap_c - ge * np.eye(nc)
    mat[rows, ix_r] = -fp / sq

    mat[ix_r, ix_r] = 3.0 / two_dt
    mat[ix_r, :nc] = -(0.5 / sq) * area * fp * 3.0 / two_dt
    mat[ix_r, ofs_mu:ofs_ut] = -(0.5 / sq) * area * adv
    mat[ix_r, ofs_ut:ofs_un] = (0.5 / sq) * area * chem
    hist = (4.0 * state2.sav.r - state2.sav_prev.r) / two_dt
    hist += (0.5 / sq) * area * float(
        fp @ (-4.0 * state2.phi.data + state2.phi_prev.data).ravel()
    ) / two_dt
    rhs[ix_r] = hist

    rows = slice(ofs_ut, ofs_un)
    mat[rows, ofs_ut:ofs_un] = 3.0 / two_dt * np.eye(nf) - nu * lap_v
    mat[rows, ix_q] = e_pos * conv
    mat[rows, ix_r] = -chem / sq
    rhs[ofs_ut:ofs_un] = u_hist - grad @ state2.p.data.ravel()

    rows = slice(ofs_un, ofs_p)
    mat[rows, ofs_un:ofs_p] = np.eye(nf)
    mat[rows, ofs_ut:ofs_un] = -np.eye(nf) + (two_dt / 3.0) * nu * (grad @ div)
    mat[rows, ofs_p:ofs_p + nc] = (two_dt / 3.0) * grad
    rhs[ofs_un:ofs_p] = (two_dt / 3.0) * (grad @ state2.p.data.ravel())

    rows = slice(ofs_p, ofs_p + nc)
    mat[rows, ofs_un:ofs_p] = div
    mat[ofs_p, :] = 0.0
    mat[ofs_p, ofs_p:ofs_p + nc] = area
    rhs[ofs_p] = 0.0

    mat[ix_q, ix_q] = 3.0 / two_dt + 1.0 / params.horizon
    mat[ix_q, ofs_ut:ofs_un] = -e_pos * area * conv
    rhs[ix_q] = (4.0 * state2.sav.q - state2.sav_prev.q) / two_dt

    return _solve_monolithic(grid, mat, rhs, sq, t_new, params.horizon)


# ---------------------------------------------------------------------------
# per-family projection steps
# ---------------------------------------------------------------------------


def _project_each_family(p_n, uts, xi1, xi2, dt_coef, nu):
    """Project every intermediate velocity u~_i on its own, give each its
    pressure p_i = [p^n] + psi_i - nu div u~_i, and recombine u_i and p_i
    with (1, xi1, xi2)."""
    projected = []
    for i, ut in enumerate(uts):
        u_i, psi_i = project(ut, dt_coef)
        p_i = p_n + psi_i if i == 0 else psi_i
        projected.append((u_i, p_i - nu * div_face_to_cell(ut)))
    (u0, p0), (u1, p1), (u2, p2) = projected
    u = u0 + xi1 * u1 + xi2 * u2
    p = p0 + xi1 * p1 + xi2 * p2
    return u, CellField(p.grid, p.data - p.data.mean())


# The substeps and 2x2 systems below are the separate backward-Euler and BDF2
# formulas the steppers used before both orders shared one step, kept here as
# written then so the shared step is checked against an independent copy.


def _bdf1_substeps(state, params, dt, terms):
    spec = ChOperatorSpec(mobility_dt=params.mobility * dt, gamma_eff=params.gamma_eff)
    ge = params.gamma_eff
    phi0, _ = solve_ch_system(spec, state.phi)
    mu0 = -1.0 * lap_cell(phi0) + ge * phi0
    rhs1 = (params.mobility * dt) * lap_cell(terms.f_prime) - dt * terms.adv
    phi1, _ = solve_ch_system(spec, rhs1)
    mu1 = -1.0 * lap_cell(phi1) + ge * phi1 + terms.f_prime
    h_spec = HelmholtzSpec(visc_dt=params.viscosity * dt)
    ut0, _ = solve_velocity_helmholtz(h_spec, state.u - dt * grad_cell_to_face(state.p))
    ut1, _ = solve_velocity_helmholtz(h_spec, dt * terms.chem)
    ut2, _ = solve_velocity_helmholtz(h_spec, (-dt) * terms.conv)
    return SimpleNamespace(phi0=phi0, mu0=mu0, phi1=phi1, mu1=mu1, ut0=ut0, ut1=ut1, ut2=ut2)


def _bdf1_xi_system(state, sub, params, dt, terms):
    sq, f_prime, adv, chem, conv = terms.sq, terms.f_prime, terms.adv, terms.chem, terms.conv

    t_new = state.t + dt
    e_pos = exp(t_new / params.horizon)
    e_neg = exp(-t_new / params.horizon)
    half = 0.5 / sq

    a0 = state.r / dt + half * (
        dot_cell(f_prime, sub.phi0 - state.phi) / dt
        + dot_cell(sub.mu0, adv)
        - dot_face(sub.ut0, chem)
    )
    a1 = sq / dt - half * (
        dot_cell(f_prime, sub.phi1) / dt
        + dot_cell(sub.mu1, adv)
        - dot_face(sub.ut1, chem)
    )
    a2 = half * dot_face(sub.ut2, chem)
    b0 = state.q / dt + e_pos * dot_face(conv, sub.ut0)
    b1 = -e_pos * dot_face(conv, sub.ut1)
    b2 = e_neg / dt + e_neg / params.horizon - e_pos * dot_face(conv, sub.ut2)
    return XiSystem(a0=a0, a1=a1, a2=a2, b0=b0, b1=b1, b2=b2)


def _bdf2_substeps(state2, params, dt, terms):
    ge, nu = params.gamma_eff, params.viscosity
    c = 2.0 * dt / 3.0
    ch_spec = ChOperatorSpec(mobility_dt=params.mobility * c, gamma_eff=ge)
    phi0, _ = solve_ch_system(ch_spec, (1.0 / 3.0) * (4.0 * state2.phi - state2.phi_prev))
    phi1, _ = solve_ch_system(ch_spec, (params.mobility * c) * lap_cell(terms.f_prime) - c * terms.adv)
    mu0 = -1.0 * lap_cell(phi0) + ge * phi0
    mu1 = -1.0 * lap_cell(phi1) + ge * phi1 + terms.f_prime
    h_spec = HelmholtzSpec(visc_dt=nu * c)
    rhs0 = (1.0 / 3.0) * (4.0 * state2.u - state2.u_prev) - c * grad_cell_to_face(state2.p)
    ut0, _ = solve_velocity_helmholtz(h_spec, rhs0)
    ut1, _ = solve_velocity_helmholtz(h_spec, c * terms.chem)
    ut2, _ = solve_velocity_helmholtz(h_spec, (-c) * terms.conv)
    return SimpleNamespace(phi0=phi0, mu0=mu0, phi1=phi1, mu1=mu1, ut0=ut0, ut1=ut1, ut2=ut2)


def _bdf2_xi_system(state, sub, terms, params, dt):
    sq, f_prime, adv, chem, conv = terms.sq, terms.f_prime, terms.adv, terms.chem, terms.conv
    two_dt = 2.0 * dt
    t_new = state.t + dt
    e_pos = exp(t_new / params.horizon)
    e_neg = exp(-t_new / params.horizon)
    half = 0.5 / sq
    r_n, r_nm1 = state.sav.r, state.sav_prev.r
    q_n, q_nm1 = state.sav.q, state.sav_prev.q

    bdf_phi0 = 3.0 * sub.phi0 - 4.0 * state.phi + state.phi_prev
    a0 = (4.0 * r_n - r_nm1) / two_dt + half * (
        dot_cell(f_prime, bdf_phi0) / two_dt
        + dot_cell(sub.mu0, adv)
        - dot_face(sub.ut0, chem)
    )
    a1 = 3.0 * sq / two_dt - half * (
        3.0 * dot_cell(f_prime, sub.phi1) / two_dt
        + dot_cell(sub.mu1, adv)
        - dot_face(sub.ut1, chem)
    )
    a2 = half * dot_face(sub.ut2, chem)
    b0 = (4.0 * q_n - q_nm1) / two_dt + e_pos * dot_face(conv, sub.ut0)
    b1 = -e_pos * dot_face(conv, sub.ut1)
    b2 = 3.0 * e_neg / two_dt + e_neg / params.horizon - e_pos * dot_face(conv, sub.ut2)
    return XiSystem(a0=a0, a1=a1, a2=a2, b0=b0, b1=b1, b2=b2)


def three_projection_first_order(state, params, dt):
    """One backward-Euler step that projects each substep family separately
    (three Poisson solves) and recombines the projected fields."""
    terms = explicit_terms(state, params)
    sub = _bdf1_substeps(state, params, dt, terms)
    xi1, xi2 = solve_xi(_bdf1_xi_system(state, sub, params, dt, terms))
    u, p = _project_each_family(state.p, (sub.ut0, sub.ut1, sub.ut2), xi1, xi2, dt, 0.0)
    t_new = state.t + dt
    sav = SavState(r=xi1 * sqrt_aux_energy(state.phi, params), q=xi2 * exp(-t_new / params.horizon))
    return SchemeState(
        t=t_new, phi=sub.phi0 + xi1 * sub.phi1, mu=sub.mu0 + xi1 * sub.mu1, u=u,
        u_tilde=sub.ut0 + xi1 * sub.ut1 + xi2 * sub.ut2, p=p, sav=sav,
    )


def three_projection_second_order(state2, params, dt):
    """One BDF2 step that projects each substep family separately with its own
    rotational correction and recombines the projected fields."""
    terms = explicit_terms(extrapolants(state2), params)
    nu = params.viscosity
    sub = _bdf2_substeps(state2, params, dt, terms)
    xi1, xi2 = solve_xi(_bdf2_xi_system(state2, sub, terms, params, dt))
    u, p = _project_each_family(state2.p, (sub.ut0, sub.ut1, sub.ut2), xi1, xi2, 2.0 * dt / 3.0, nu)
    t_new = state2.t + dt
    ut = sub.ut0 + xi1 * sub.ut1 + xi2 * sub.ut2
    g = state2.g + nu * div_face_to_cell(ut)
    return SchemeState2(
        t=t_new, phi=sub.phi0 + xi1 * sub.phi1, mu=sub.mu0 + xi1 * sub.mu1, u=u, u_tilde=ut, p=p,
        sav=SavState(r=xi1 * terms.sq, q=xi2 * exp(-t_new / params.horizon)),
        phi_prev=state2.phi, mu_prev=state2.mu, u_prev=state2.u,
        sav_prev=SavState(state2.sav.r, state2.sav.q), g=g,
    )


def cauchy_pair(scheme, state0, params, dt, n_steps, tol_poisson=1e-12, tol_helmholtz=1e-11):
    """One rung on its own: the dt run and its dt/2 companion advance in
    lockstep and feed one record.  A ladder of these integrates every
    interior dt twice; cauchy_ladder must return the same records."""
    coarse = _iterate(scheme, state0, params, dt, n_steps, tol_poisson, tol_helmholtz)
    fine = _iterate(scheme, state0, params, 0.5 * dt, 2 * n_steps, tol_poisson, tol_helmholtz)
    record = ErrorRecord(dt)
    for _, coarse_state in coarse:
        next(fine)
        _, fine_state = next(fine)
        record.add(coarse_state, fine_state)
    return record
