"""Dense and iterative oracles for the test suite.

Everything here deliberately re-derives results by brute force: operator
matrices are built column-by-column from unit vectors, inner products by
explicit Python loops, and the coupled one-step systems are assembled as one
dense matrix over every unknown and solved by LU.  The conjugate-gradient
reference solves each elliptic operator a second way, matrix-free and Jacobi
preconditioned.  The energy audit is restated with the zero-padded face
gradients, field-container products and explicit node weights that the
library's fused reductions replace.  The production code never sees these
paths.

The standalone phase and velocity solvers are the library's transform pieces
(forward transform, inverse symbol, inverse transform, residual check) put
together as the step puts them, so a test of them tests the step's code.
"""

import os
import subprocess
import sys
from functools import lru_cache
from math import exp
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from scipy.fft import dctn, dst
from scipy.integrate import solve_ivp

from chns.diagnostics import EnergyAudit, ErrorRecord, _iterate, grad_energy_velocity, mass
from chns.elliptic import (
    TOL_HELMHOLTZ,
    ChOperatorSpec,
    HelmholtzSpec,
    _checked,
    _lap_norm_bound,
    apply_ch_operator,
    apply_helmholtz_operator,
    cell_inverse,
    cell_transform,
    ch_inv_symbol,
    ch_mu_residual,
    face_inverse,
    face_transform,
    helmholtz_inv_symbol,
    helmholtz_residual,
    project,
)
from chns.errors import SolverConvergenceError
from chns.first_order import XiSystem, explicit_terms, solve_xi
from chns.grid import (
    CellField,
    MacVector,
    advect_scalar,
    advect_velocity,
    chemical_force,
    curl_at_nodes,
    div_face_to_cell,
    dot_cell,
    dot_face,
    grad_cell_to_face,
    lap_cell,
    lap_velocity,
    norm_l2_cell,
    norm_l2_face,
)
from chns.model import (SchemeState, SchemeState2, chemical_potential, energy_e1, initial_state, potential_f_prime,
                        sqrt_aux_energy)
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


def full_cell(grid, value):
    """The cell field of one value."""
    out = CellField.zeros(grid)
    out.data.fill(float(value))
    return out


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
# reference stencils: the compositions the grid's kernels are bitwise equal to
# ---------------------------------------------------------------------------


def ref_grad(p):
    """grad_cell_to_face as an expression over a zero-padded face field."""
    g, d = p.grid, p.data
    u, v = np.zeros((g.nx + 1, g.ny)), np.zeros((g.nx, g.ny + 1))
    u[1:-1, :] = (d[1:, :] - d[:-1, :]) / g.hx
    v[:, 1:-1] = (d[:, 1:] - d[:, :-1]) / g.hy
    return MacVector(g, u, v)


def ref_div(w):
    g = w.grid
    return CellField(g, (w.u[1:, :] - w.u[:-1, :]) / g.hx + (w.v[:, 1:] - w.v[:, :-1]) / g.hy)


def ref_lap_cell(f):
    """The cell Laplacian as div o grad through the zero-padded face gradient."""
    return ref_div(ref_grad(f))


def _pad_odd_y(a):
    # ghost columns below/above a wall: odd reflection of the tangential value
    return np.concatenate([-a[:, :1], a, -a[:, -1:]], axis=1)


def _pad_odd_x(a):
    return np.concatenate([-a[:1, :], a, -a[-1:, :]], axis=0)


def ref_lap_velocity(w):
    g = w.grid
    hx2, hy2 = g.hx * g.hx, g.hy * g.hy
    out_u = np.zeros_like(w.u)
    uy = _pad_odd_y(w.u)
    out_u[1:-1, :] = (w.u[2:, :] - 2.0 * w.u[1:-1, :] + w.u[:-2, :]) / hx2 + (
        uy[1:-1, 2:] - 2.0 * uy[1:-1, 1:-1] + uy[1:-1, :-2]) / hy2
    out_v = np.zeros_like(w.v)
    vx = _pad_odd_x(w.v)
    out_v[:, 1:-1] = (vx[2:, 1:-1] - 2.0 * vx[1:-1, 1:-1] + vx[:-2, 1:-1]) / hx2 + (
        w.v[:, 2:] - 2.0 * w.v[:, 1:-1] + w.v[:, :-2]) / hy2
    return MacVector(g, out_u, out_v)


def ref_advect_velocity(w):
    g = w.grid
    hx, hy = g.hx, g.hy
    u, v = w.u, w.v
    out_u = np.zeros_like(u)
    du_dx = (u[2:, :] - u[:-2, :]) / (2.0 * hx)
    uy = _pad_odd_y(u)
    du_dy = (uy[1:-1, 2:] - uy[1:-1, :-2]) / (2.0 * hy)
    v_at_u = 0.25 * (v[:-1, :-1] + v[1:, :-1] + v[:-1, 1:] + v[1:, 1:])
    out_u[1:-1, :] = u[1:-1, :] * du_dx + v_at_u * du_dy
    out_v = np.zeros_like(v)
    dv_dy = (v[:, 2:] - v[:, :-2]) / (2.0 * hy)
    vx = _pad_odd_x(v)
    dv_dx = (vx[2:, 1:-1] - vx[:-2, 1:-1]) / (2.0 * hx)
    u_at_v = 0.25 * (u[:-1, :-1] + u[1:, :-1] + u[:-1, 1:] + u[1:, 1:])
    out_v[:, 1:-1] = u_at_v * dv_dx + v[:, 1:-1] * dv_dy
    return MacVector(g, out_u, out_v)


def ref_grad_sq_cell(f):
    """grad_sq_cell as its contiguous face differences, each summed by np.vdot
    and divided by h**2."""
    g, d = f.grid, f.data
    dx, dy = d[1:, :] - d[:-1, :], d[:, 1:] - d[:, :-1]
    return g.cell_area * (float(np.vdot(dx, dx)) / g.hx**2 + float(np.vdot(dy, dy)) / g.hy**2)


def ref_curl_at_nodes(w):
    g = w.grid
    uy = _pad_odd_y(w.u)
    vx = _pad_odd_x(w.v)
    return (vx[1:, :] - vx[:-1, :]) / g.hx - (uy[:, 1:] - uy[:, :-1]) / g.hy


def ref_minus_scaled_grad(w, k, p):
    """w - k grad p through the container arithmetic."""
    return w - k * ref_grad(p)


def ref_advect_scalar(w, f):
    g, d = f.grid, f.data
    fu = np.concatenate([d[:1, :], 0.5 * (d[1:, :] + d[:-1, :]), d[-1:, :]], axis=0)
    fv = np.concatenate([d[:, :1], 0.5 * (d[:, 1:] + d[:, :-1]), d[:, -1:]], axis=1)
    return ref_div(MacVector(g, w.u * fu, w.v * fv))


def ref_chemical_force(mu, phi):
    """chemical_force with its x and y stencils written out separately."""
    g = mu.grid
    m, p = mu.data, phi.data
    fu, fv = np.zeros((g.nx + 1, g.ny)), np.zeros((g.nx, g.ny + 1))
    fu[1:-1, :] = 0.5 * (m[1:, :] + m[:-1, :]) * (p[1:, :] - p[:-1, :]) / g.hx
    fv[:, 1:-1] = 0.5 * (m[:, 1:] + m[:, :-1]) * (p[:, 1:] - p[:, :-1]) / g.hy
    return MacVector(g, fu, fv)


def ref_apply_ch_operator(spec, phi):
    lp = ref_lap_cell(phi)
    return phi + spec.mobility_dt * ref_lap_cell(lp) - (spec.mobility_dt * spec.gamma_eff) * lp


def ref_chemical_potential(phi, gamma_eff, f):
    """chemical_potential through the container arithmetic."""
    return -1.0 * lap_cell(phi) + gamma_eff * phi + f


def ref_apply_helmholtz_operator(spec, w):
    out = w - spec.visc_dt * ref_lap_velocity(w)
    out.u[[0, -1], :] = w.u[[0, -1], :]
    out.v[:, [0, -1]] = w.v[:, [0, -1]]
    return out


def ref_helmholtz_residual(spec, w, rhs):
    """helmholtz_residual as it subtracted rhs over the interior views of
    A w, with the same norms and the same _checked arguments."""
    g = w.grid
    defect = ref_apply_helmholtz_operator(spec, w)
    interior = rhs.u[1:-1, :], rhs.v[:, 1:-1]
    defect.u[1:-1, :] -= interior[0]
    defect.v[:, 1:-1] -= interior[1]
    ru, rv = (r.ravel() for r in interior)
    rhs_norm = np.sqrt(g.cell_area * float(np.vdot(ru, ru) + np.vdot(rv, rv)))
    op_norm = 1.0 + spec.visc_dt * (_lap_norm_bound(g) + 2.0 / min(g.hx, g.hy) ** 2)
    return _checked(norm_l2_face(defect), op_norm, norm_l2_face(w), float(rhs_norm), TOL_HELMHOLTZ)


def ref_face_transform(w):
    """The per-vector face transform the stacked one replaced: an out-of-place
    DST pass over the interior view of each component, then an in-place one."""
    out = []
    for a, (tx, ty) in zip((w.u[1:-1, :], w.v[:, 1:-1]), ((1, 2), (2, 1))):
        a = dst(a, type=tx, axis=0, norm="ortho")
        out.append(dst(a, type=ty, axis=1, norm="ortho", overwrite_x=True))
    return out


def ref_cell_transform(a):
    """The per-field cell transform the stacked one replaced."""
    return dctn(a, type=2, norm="ortho")


def with_signed_zeros(rng, shape):
    """Standard normal entries, about a fifth of them +0.0 and a fifth -0.0:
    a kernel that reorders an operation or drops a subtraction from zero
    changes the sign of some zero in its output."""
    a = rng.standard_normal(shape)
    pick = rng.random(shape)
    a[pick < 0.2] = 0.0
    a[(pick >= 0.2) & (pick < 0.4)] = -0.0
    return a


def run_fresh_python(code):
    """Stdout of code run in a fresh interpreter that imports chns from this
    checkout's src; fails the calling test with its stderr if it exits nonzero."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout


def field_bytes(x):
    """The shapes and bytes of a field's arrays, for bitwise comparisons."""
    return [(a.shape, a.tobytes()) for a in ((x,) if isinstance(x, np.ndarray) else x.arrays)]


def normal_boundary_max(w):
    """Largest |normal component| of the face vector w stored on the domain walls."""
    return max(np.abs(w.u[0, :]).max(), np.abs(w.u[-1, :]).max(), np.abs(w.v[:, 0]).max(), np.abs(w.v[:, -1]).max())


# ---------------------------------------------------------------------------
# standalone transform solves and the conjugate-gradient reference
# ---------------------------------------------------------------------------


def _phase_check(spec, phi, rhs_phi):
    """The step's phase check of A phi = rhs: its mu form, with mu the step's
    chemical_potential of phi at f = 0."""
    mu = chemical_potential(phi, spec.gamma_eff, CellField.zeros(phi.grid))
    return ch_mu_residual(spec, phi, mu, rhs_phi)


def solve_ch_system(spec, rhs_phi):
    """Solve (I + mobility_dt*lap^2 - mobility_dt*gamma_eff*lap) phi = rhs by
    the DCT, with the step's phase check; returns (phi, SolveReport)."""
    g = rhs_phi.grid
    phi = CellField(g, cell_inverse(cell_transform(rhs_phi.data) * ch_inv_symbol(g, spec)))
    return phi, _phase_check(spec, phi, rhs_phi)


def solve_velocity_helmholtz(spec, rhs):
    """Solve (I - visc_dt*lap) w = rhs with no-slip walls by the DST pair, with
    the step's residual check; the on-wall entries of rhs are ignored and those
    of w are zero.  Returns (w, SolveReport)."""
    g = rhs.grid
    out = face_inverse(g, [c[0] * s for c, s in zip(face_transform(rhs), helmholtz_inv_symbol(g, spec))])
    return out, helmholtz_residual(spec, out, rhs, lap_velocity(out))


def _within(report, tol):
    """A reference solve's report, held to the reference's own tol on top of
    the library's bound, which may be looser."""
    if not report.residual <= tol:
        raise SolverConvergenceError(report)
    return report


def _pcg(apply_a, b, inv_diag, tol, maxiter, deflate_mean=False):
    """Standard PCG on flattened arrays; returns (x, iterations, rel_residual)."""
    bnorm = float(np.sqrt(np.sum(b * b)))
    if bnorm == 0.0:
        return np.zeros_like(b), 0, 0.0

    def deflated(a):
        return a - a.mean() if deflate_mean else a

    x = np.zeros_like(b)
    r = deflated(b.copy())
    z = inv_diag * r if inv_diag is not None else r
    z = deflated(z)
    p = z.copy()
    rz = float(np.sum(r * z))
    res = float(np.sqrt(np.sum(r * r))) / bnorm
    it = 0
    while res > tol and it < maxiter:
        ap = deflated(apply_a(p))
        alpha = rz / float(np.sum(p * ap))
        x += alpha * p
        r -= alpha * ap
        res = float(np.sqrt(np.sum(r * r))) / bnorm
        z = inv_diag * r if inv_diag is not None else r
        z = deflated(z)
        rz_new = float(np.sum(r * z))
        p = z + (rz_new / rz) * p
        rz = rz_new
        it += 1
    return (deflated(x) if deflate_mean else x), it, res


@lru_cache(maxsize=None)
def _neg_lap_diag(grid):
    dx = np.full(grid.nx, 2.0 / grid.hx**2)
    dx[0] = dx[-1] = 1.0 / grid.hx**2
    dy = np.full(grid.ny, 2.0 / grid.hy**2)
    dy[0] = dy[-1] = 1.0 / grid.hy**2
    return dx[:, None] + dy[None, :]


def cg_neumann_poisson(rhs, tol=1e-12):
    """The zero-mean solution of lap(psi) = rhs by PCG on the mean-free
    right-hand side, with the library's residual check; returns (psi,
    SolveReport, PCG iterations)."""
    g = rhs.grid
    mean = float(rhs.data.mean())
    b = rhs.data - mean

    def apply_a(x):
        return -lap_cell(CellField(g, x)).data

    psi_data, iters, _ = _pcg(apply_a, -b, 1.0 / _neg_lap_diag(g), tol=0.01 * tol, maxiter=20 * g.nx * g.ny,
                              deflate_mean=True)
    psi = CellField(g, psi_data - psi_data.mean())
    report = _checked(norm_l2_cell(lap_cell(psi) - CellField(g, b)), _lap_norm_bound(g), norm_l2_cell(psi),
                      norm_l2_cell(rhs), tol, mean_defect=mean * g.cell_area * g.nx * g.ny)
    return psi, report, iters


def cg_ch_system(spec, rhs_phi, tol=1e-11):
    """The phase operator solved by PCG, with the step's phase check held to
    tol; returns (phi, SolveReport, PCG iterations)."""
    g = rhs_phi.grid
    dl = _neg_lap_diag(g)
    inv_diag = 1.0 / (1.0 + spec.mobility_dt * (dl * dl + spec.gamma_eff * dl))

    def apply_a(x):
        return apply_ch_operator(spec, CellField(g, x)).data

    phi_data, iters, _ = _pcg(apply_a, rhs_phi.data, inv_diag, tol=0.01 * tol, maxiter=50 * g.nx * g.ny)
    phi = CellField(g, phi_data)
    return phi, _within(_phase_check(spec, phi, rhs_phi), tol), iters


def cg_velocity_helmholtz(spec, rhs, tol=1e-11):
    """The velocity operator solved by PCG, one component at a time, with the
    library's residual check; returns (w, SolveReport, PCG iterations of both
    components)."""
    g = rhs.grid
    b = spec.visc_dt
    dy_u = np.full(g.ny, 2.0 / g.hy**2)
    dy_u[0] = dy_u[-1] = 3.0 / g.hy**2  # odd-reflection ghosts stiffen wall rows
    diag_u = 1.0 + b * (2.0 / g.hx**2 + dy_u)[None, :] * np.ones((g.nx - 1, 1))
    dx_v = np.full(g.nx, 2.0 / g.hx**2)
    dx_v[0] = dx_v[-1] = 3.0 / g.hx**2
    diag_v = 1.0 + b * (dx_v + 2.0 / g.hy**2)[:, None] * np.ones((1, g.ny - 1))

    def apply_u(x):
        w = MacVector.zeros(g)
        w.u[1:-1, :] = x
        return apply_helmholtz_operator(spec, w, lap_velocity(w)).u[1:-1, :]

    def apply_v(x):
        w = MacVector.zeros(g)
        w.v[:, 1:-1] = x
        return apply_helmholtz_operator(spec, w, lap_velocity(w)).v[:, 1:-1]

    cap = 20 * max(g.nx, g.ny) ** 2
    out = MacVector.zeros(g)
    out.u[1:-1, :], iu, _ = _pcg(apply_u, rhs.u[1:-1, :], 1.0 / diag_u, tol=0.01 * tol, maxiter=cap)
    out.v[:, 1:-1], iv, _ = _pcg(apply_v, rhs.v[:, 1:-1], 1.0 / diag_v, tol=0.01 * tol, maxiter=cap)
    return out, _within(helmholtz_residual(spec, out, rhs, lap_velocity(out)), tol), iu + iv


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
    hist = (4.0 * state2.r - state2.r_prev) / two_dt
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
    rhs[ix_q] = (4.0 * state2.q - state2.q_prev) / two_dt

    return _solve_monolithic(grid, mat, rhs, sq, t_new, params.horizon)


# ---------------------------------------------------------------------------
# the semi-discrete limit the schemes converge to
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def semi_discrete_solution(grid, params, t_final):
    """(phi, u, p) at t_final of the method-of-lines system that both schemes
    discretize in time, from initial_state:

        phi' = M lap(mu) - div(u phi),   mu = -lap(phi) + gamma_eff phi + F'(phi),
        u'   = P f,   f = nu lap(u) - (u . grad) u + mu grad(phi),

    with the grid's own operators and the dense discrete Leray projector
    P = I - G L^+ D, G and D the gradient and divergence matrices and L = D G
    the cell Laplacian.  In the exact solution r = sqrt(E1 + delta) and
    q = exp(-t/T), so both recombination factors are 1 and drop out.  DOP853
    at rtol 1e-13 integrates it; the pressure is the zero-mean L^+ D f at t_final."""
    nc = cell_count(grid)
    grad = mat_cell_to_face(grid, grad_cell_to_face)
    div = mat_face_to_cell(grid, div_face_to_cell)
    lap_pinv = np.linalg.pinv(div @ grad)
    leray = np.eye(face_count(grid)) - grad @ lap_pinv @ div

    def forcing(y):
        phi, u = CellField(grid, y[:nc].reshape(grid.nx, grid.ny)), unpack_face(grid, y[nc:])
        mu = chemical_potential(phi, params.gamma_eff, potential_f_prime(phi, params))
        dphi = params.mobility * lap_cell(mu) - advect_scalar(u, phi)
        f = params.viscosity * lap_velocity(u) - advect_velocity(u) + chemical_force(mu, phi)
        return dphi.data.ravel(), pack_face(f)

    def rhs(_, y):
        dphi, f = forcing(y)
        return np.concatenate([dphi, leray @ f])

    state0 = initial_state(grid, params)
    sol = solve_ivp(rhs, (0.0, t_final), np.concatenate([state0.phi.data.ravel(), pack_face(state0.u)]),
                    method="DOP853", rtol=1e-13, atol=1e-14)
    y = sol.y[:, -1]
    p = lap_pinv @ (div @ forcing(y)[1])
    return (CellField(grid, y[:nc].reshape(grid.nx, grid.ny).copy()), unpack_face(grid, y[nc:]),
            CellField(grid, p.reshape(grid.nx, grid.ny)))


# ---------------------------------------------------------------------------
# per-family projection steps
# ---------------------------------------------------------------------------


def _project_each_family(p_n, uts, xi1, xi2, dt_coef, nu):
    """Project every intermediate velocity u~_i on its own, give each its
    pressure p_i = [p^n] + psi_i - nu div u~_i, and recombine u_i and p_i
    with (1, xi1, xi2)."""
    projected = []
    for i, ut in enumerate(uts):
        div_ut = div_face_to_cell(ut)
        u_i, psi_i, _ = project(ut, dt_coef, div_ut)
        p_i = p_n + psi_i if i == 0 else psi_i
        projected.append((u_i, p_i - nu * div_ut))
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
    r_n, r_nm1 = state.r, state.r_prev
    q_n, q_nm1 = state.q, state.q_prev

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
    (three Poisson solves) and recombines the projected fields; returns the
    level and its recombined u~."""
    terms = explicit_terms(state, params)
    sub = _bdf1_substeps(state, params, dt, terms)
    xi1, xi2 = solve_xi(_bdf1_xi_system(state, sub, params, dt, terms))
    u, p = _project_each_family(state.p, (sub.ut0, sub.ut1, sub.ut2), xi1, xi2, dt, 0.0)
    t_new = state.t + dt
    phi = sub.phi0 + xi1 * sub.phi1
    level = SchemeState(
        t=t_new, phi=phi, mu=sub.mu0 + xi1 * sub.mu1, u=u, p=p,
        r=xi1 * sqrt_aux_energy(state.phi, params), q=xi2 * exp(-t_new / params.horizon),
        phi_hat=cell_transform(phi.data),
    )
    return level, sub.ut0 + xi1 * sub.ut1 + xi2 * sub.ut2


def three_projection_second_order(state2, params, dt):
    """One BDF2 step that projects each substep family separately with its own
    rotational correction and recombines the projected fields; returns the
    level and its recombined u~."""
    terms = explicit_terms(extrapolants(state2), params)
    nu = params.viscosity
    sub = _bdf2_substeps(state2, params, dt, terms)
    xi1, xi2 = solve_xi(_bdf2_xi_system(state2, sub, terms, params, dt))
    u, p = _project_each_family(state2.p, (sub.ut0, sub.ut1, sub.ut2), xi1, xi2, 2.0 * dt / 3.0, nu)
    t_new = state2.t + dt
    ut = sub.ut0 + xi1 * sub.ut1 + xi2 * sub.ut2
    g = state2.g + nu * div_face_to_cell(ut)
    phi = sub.phi0 + xi1 * sub.phi1
    level = SchemeState2(
        t=t_new, phi=phi, mu=sub.mu0 + xi1 * sub.mu1, u=u, p=p,
        r=xi1 * terms.sq, q=xi2 * exp(-t_new / params.horizon), phi_hat=cell_transform(phi.data),
        phi_prev=state2.phi, phi_hat_prev=state2.phi_hat, mu_prev=state2.mu, u_prev=state2.u,
        r_prev=state2.r, q_prev=state2.q, g=g,
    )
    return level, ut


def cauchy_pair(scheme, state0, params, dt, n_steps):
    """One rung on its own: the dt run and its dt/2 companion advance in
    lockstep and feed one record.  A ladder of these integrates every
    interior dt twice; cauchy_ladder must return the same records."""
    coarse = _iterate(scheme, state0, params, dt, n_steps)
    fine = _iterate(scheme, state0, params, 0.5 * dt, 2 * n_steps)
    record = ErrorRecord(dt)
    for _, coarse_state in coarse:
        next(fine)
        _, fine_state = next(fine)
        record.add(coarse_state, fine_state)
    return record


# ---------------------------------------------------------------------------
# reference energy audit: materialized gradients, u~ recomputed
# ---------------------------------------------------------------------------


def _grad_energy(f):
    gf = grad_cell_to_face(f)
    return dot_face(gf, gf)


def _node_energy(grid, v):
    """Trapezoid-weighted sum of squares of a node field, from an explicit weight array."""
    wts = np.ones(v.shape)
    wts[[0, -1], :] *= 0.5
    wts[:, [0, -1]] *= 0.5
    return grid.cell_area * float(np.sum(wts * v**2))


def reference_etilde(state, params, dt):
    """Etilde of the law the state obeys, from zero-padded face gradients and
    field-container products (the forms of dot_cell, dot_face and
    grad_cell_to_face).  The BDF2 law is written out term by term, twelve
    terms for the current and the extrapolated level, not through a level
    energy L(x), so it checks diagnostics.modified_energy's grouping."""
    ge = params.gamma_eff
    if not isinstance(state, SchemeState2):
        return (_grad_energy(state.phi) + ge * dot_cell(state.phi, state.phi) + 2.0 * state.r**2
                + dot_face(state.u, state.u) + dt * dt * _grad_energy(state.p) + state.q**2)
    u_x = 2.0 * state.u - state.u_prev
    phi_x = 2.0 * state.phi - state.phi_prev
    r_x = 2.0 * state.r - state.r_prev
    q_x = 2.0 * state.q - state.q_prev
    return float(sum([
        0.5 * dot_face(state.u, state.u),
        0.5 * dot_face(u_x, u_x),
        (2.0 / 3.0) * dt * dt * _grad_energy(state.p + state.g),
        dt / params.viscosity * dot_cell(state.g, state.g),
        0.5 * _grad_energy(state.phi),
        0.5 * _grad_energy(phi_x),
        0.5 * ge * dot_cell(state.phi, state.phi),
        0.5 * ge * dot_cell(phi_x, phi_x),
        state.r**2,
        r_x**2,
        0.5 * state.q**2,
        0.5 * q_x**2,
    ]))


def reference_total_energy(state, params):
    """The physical total energy written out term by term: kinetic, gradient,
    the quadratic part gamma/2 + beta/(2 eps^2) of the potential, E1, and the
    constant the working potential drops."""
    g = state.grid
    shift = (params.beta**2 + 2.0 * params.beta) / (4.0 * params.epsilon**2)
    return (0.5 * dot_face(state.u, state.u) + 0.5 * _grad_energy(state.phi)
            + (0.5 * params.gamma + 0.5 * params.beta / params.epsilon**2) * dot_cell(state.phi, state.phi)
            + energy_e1(state.phi, params) - shift * (g.x1 - g.x0) * (g.y1 - g.y0))


def reference_audit_row(prev, new, record, params, dt):
    """diagnostics.audit_step's row recomputed from the stored fields alone:
    both Etildes by reference_etilde, |grad u~|^2 as <-lap u~, u~> and
    |div u~|^2 from div_face_to_cell of record.u_tilde, not from the values
    the record carries, and the node curl energy with explicit trapezoid weights."""
    nu_dt = params.viscosity * dt
    et_new, et_prev = reference_etilde(new, params, dt), reference_etilde(prev, params, dt)
    diss_mu = 2.0 * params.mobility * dt * _grad_energy(new.mu)
    diss_q = 2.0 * dt / params.horizon * new.q**2
    visc = nu_dt * grad_energy_velocity(record.u_tilde)
    bdf2 = isinstance(new, SchemeState2)
    div = nu_dt * norm_l2_cell(div_face_to_cell(record.u_tilde)) ** 2 if bdf2 else 0.0
    curl = nu_dt * _node_energy(new.grid, curl_at_nodes(new.u)) if bdf2 else 0.0
    diss_visc = 2.0 * visc - div
    defect = et_new - et_prev + diss_mu + diss_visc + diss_q
    return EnergyAudit(
        t=new.t, E_total=reference_total_energy(new, params), Etilde=et_new, Etilde_prev=et_prev, mass=mass(new.phi),
        div_norm=norm_l2_cell(div_face_to_cell(new.u)), r=new.r, q=new.q, decay_defect=defect,
        decay_defect_raw=et_new - et_prev + diss_mu + visc + curl + diss_q if bdf2 else defect,
        diss_mu=diss_mu, diss_visc=diss_visc, diss_q=diss_q, diss_curl=curl,
        identity_defect=visc - div - curl if bdf2 else 0.0,
        solver_residual_max=max((r.residual for r in record.reports), default=0.0),
    )
