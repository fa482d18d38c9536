"""Constant-coefficient elliptic solvers and the transform pieces of the time step.

Three problem classes appear, all with constant coefficients:

  * the pressure Poisson problem  lap(psi) = rhs  with homogeneous Neumann
    walls and the zero-mean normalization;
  * the fourth-order phase operator  (I + a*lap^2 - a*g*lap) phi = rhs
    (Neumann walls for phi and lap phi);
  * the velocity Helmholtz operator  (I - b*lap) w = rhs  with no-slip walls.

The mirror-ghost cell Laplacian is exactly diagonalized by the type-II
discrete cosine transform, and the no-slip face Laplacian by a DST-I x DST-II
tensor transform, so every solve is a direct transform solve at O(N log N)
cost, whose residual is checked against a fixed machine-scale bound.

Both transforms are orthonormal, so by Parseval dot_cell/dot_face (of face
fields with zero wall entries) is cell_area times the plain sum over
coefficients.  The time step therefore uses the pieces of each transform
solve directly: forward transform, inverse symbol, inverse transform and
residual check, and of the solvers only the pressure projection.  The
forward transforms take a stack of right-hand sides of one operator in one
call per axis (face_transform of several vectors, cell_transform of a
stacked array), each slice bitwise the single call, and the phase check
has a mu form (ch_mu_residual) that costs one cell Laplacian.  The test
suite holds those pieces to dense LU solves and to a conjugate-gradient
reference (tests/oracle_tools.py).  Every transform goes through the
module-level names dctn, idctn, dst and idst.

The module keeps no state beyond its symbol caches: solvers are pure functions
of their right-hand side, safe to call concurrently, and transform with
scipy.fft's worker count (1 outside a scipy.fft.set_workers context, which
chns --threads opens).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.fft import dctn, dst, idctn, idst

from .errors import CompatibilityError, InputDataError, SolverConvergenceError
from .grid import (
    CellField,
    GridSpec,
    MacVector,
    div_face_to_cell,
    lap_cell,
    lap_velocity,
    minus_scaled_grad,
    norm_l2_cell,
    norm_l2_face,
)


@dataclass(frozen=True)
class ChOperatorSpec:
    """Coefficients of the phase operator I + mobility_dt*lap^2 - mobility_dt*gamma_eff*lap."""

    mobility_dt: float
    gamma_eff: float

    def __post_init__(self):
        if self.mobility_dt < 0:
            raise ValueError("mobility_dt must be >= 0")
        if self.gamma_eff <= 0:
            raise ValueError("gamma_eff must be > 0")


@dataclass(frozen=True)
class HelmholtzSpec:
    """Coefficient of the velocity operator I - visc_dt*lap."""

    visc_dt: float

    def __post_init__(self):
        if self.visc_dt <= 0:
            raise ValueError("visc_dt must be > 0")


@dataclass
class SolveReport:
    """residual is the normwise backward error ||A x - b|| / (||A|| ||x|| + ||b||),
    which stays at rounding level for the transform paths regardless of conditioning."""

    residual: float
    mean_defect: float = 0.0


# ---------------------------------------------------------------------------
# transform symbols
# ---------------------------------------------------------------------------


def _symbol(grid: GridSpec, modes_x, modes_y):
    """Eigenvalues of the five-point Laplacian for the given 1-D mode numbers:
    -(2/h^2)(1 - cos(pi m/n)) summed over the two directions."""
    lx = -(2.0 / grid.hx**2) * (1.0 - np.cos(np.pi * modes_x / grid.nx))
    ly = -(2.0 / grid.hy**2) * (1.0 - np.cos(np.pi * modes_y / grid.ny))
    return lx[:, None] + ly[None, :]


@lru_cache(maxsize=None)
def cell_laplacian_symbol(grid: GridSpec):
    """Eigenvalues lam <= 0 of lap_cell in the cell_transform basis."""
    return _symbol(grid, np.arange(grid.nx), np.arange(grid.ny))


@lru_cache(maxsize=None)
def _poisson_inv_symbol(grid: GridSpec):
    lam = cell_laplacian_symbol(grid).copy()
    lam[0, 0] = 1.0
    inv = 1.0 / lam
    inv[0, 0] = 0.0  # zero mode annihilated: zero-mean solution
    return inv


@lru_cache(maxsize=None)
def ch_inv_symbol(grid: GridSpec, spec: ChOperatorSpec):
    """Inverse of the phase operator in the cell_transform basis."""
    lam = cell_laplacian_symbol(grid)
    return 1.0 / (1.0 + spec.mobility_dt * lam * (lam - spec.gamma_eff))


# a component's walls are zeros of its DST-I direction and odd ghosts of its DST-II one
_FACE_TYPES = ((1, 2), (2, 1))


@lru_cache(maxsize=None)
def helmholtz_inv_symbol(grid: GridSpec, spec: HelmholtzSpec):
    """Inverse of the velocity operator in the face_transform basis, as a
    (u, v) pair; a DST-I direction of n cells has the modes 1..n-1, a DST-II one 1..n."""
    return tuple(1.0 / (1.0 - spec.visc_dt * _symbol(grid, np.arange(1, grid.nx + tx - 1),
                                                     np.arange(1, grid.ny + ty - 1)))
                 for tx, ty in _FACE_TYPES)


def cell_transform(a: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-II coefficients of cell data over the last two axes of a:
    one field, or a stack of fields along its first axis, in one call."""
    return dctn(a, type=2, norm="ortho", axes=(-2, -1))


def cell_inverse(coeffs: np.ndarray, overwrite_x: bool = False) -> np.ndarray:
    """Cell data of DCT-II coefficients; overwrite_x=True may consume coeffs."""
    return idctn(coeffs, type=2, norm="ortho", overwrite_x=overwrite_x)


def _interior(w: MacVector):
    """Views of the off-wall entries of w's components, as a (u, v) pair."""
    return w.u[1:-1, :], w.v[:, 1:-1]


def face_transform(*ws: MacVector):
    """Orthonormal coefficients of the interior entries of face vectors, as a
    (u, v) pair; on-wall entries are boundary data and are dropped.  Of one
    vector each component is its coefficient array; of several, the stack of
    theirs along the first axis, in the order of ws, at one dst call per
    component and axis."""
    out = []
    for parts, (tx, ty) in zip(zip(*map(_interior, ws)), _FACE_TYPES):
        a = dst(np.stack(parts), type=tx, axis=-2, norm="ortho", overwrite_x=True)  # in place on the stack
        a = dst(a, type=ty, axis=-1, norm="ortho", overwrite_x=True)
        out.append(a if len(ws) > 1 else a[0])
    return out


def face_inverse(grid: GridSpec, coeffs) -> MacVector:
    """The face vector with these interior coefficients and zero wall entries."""
    out = MacVector.zeros(grid)
    for dest, a, (tx, ty) in zip(_interior(out), coeffs, _FACE_TYPES):
        a = idst(a, type=ty, axis=1, norm="ortho")
        dest[...] = idst(a, type=tx, axis=0, norm="ortho", overwrite_x=True)
    return out


# ---------------------------------------------------------------------------
# forward operators (shared by the residual checks and the test oracles)
# ---------------------------------------------------------------------------


def apply_ch_operator(spec: ChOperatorSpec, phi: CellField) -> CellField:
    lp = lap_cell(phi)
    out = lap_cell(lp)  # phi + a lap^2 phi - a g lap phi, in place on lap^2 phi
    out.data *= spec.mobility_dt
    out.data += phi.data
    out.data -= (spec.mobility_dt * spec.gamma_eff) * lp.data
    return out


def apply_helmholtz_operator(spec: HelmholtzSpec, w: MacVector, lap_w: MacVector | None = None) -> MacVector:
    out = spec.visc_dt * (lap_velocity(w) if lap_w is None else lap_w)
    np.subtract(w.u, out.u, out=out.u)  # w - visc_dt lap w
    np.subtract(w.v, out.v, out=out.v)
    out.u[[0, -1], :] = w.u[[0, -1], :]  # on-wall entries are boundary data, not equations
    out.v[:, [0, -1]] = w.v[:, [0, -1]]
    return out


def _lap_norm_bound(grid: GridSpec) -> float:
    """Upper bound on the spectral radius of the cell/face Laplacians."""
    return 4.0 / grid.hx**2 + 4.0 / grid.hy**2


# ---------------------------------------------------------------------------
# residual checks: normwise backward error ||A x - b|| / (||A|| ||x|| + ||b||)
# ---------------------------------------------------------------------------


TOL_POISSON = 1e-12  # residual bound of the pressure Poisson solve
TOL_HELMHOLTZ = 1e-11  # residual bound of the phase and velocity operators


def _checked(defect_norm, op_norm, x_norm, rhs_norm, tol, mean_defect=0.0):
    resid = defect_norm / max(op_norm * x_norm + rhs_norm, 1e-300)
    report = SolveReport(residual=resid, mean_defect=mean_defect)
    if not resid <= tol:  # a NaN residual fails too
        raise SolverConvergenceError(report)
    return report


def _ch_op_norm(spec: ChOperatorSpec, grid: GridSpec) -> float:
    lb = _lap_norm_bound(grid)
    return 1.0 + spec.mobility_dt * lb * (lb + spec.gamma_eff)


def ch_residual(spec: ChOperatorSpec, phi: CellField, rhs: CellField):
    """Check phi as a solve of the phase operator against rhs; returns the
    SolveReport, or raises SolverConvergenceError above TOL_HELMHOLTZ."""
    defect = apply_ch_operator(spec, phi)
    defect.data -= rhs.data
    return _checked(norm_l2_cell(defect), _ch_op_norm(spec, phi.grid), norm_l2_cell(phi), norm_l2_cell(rhs),
                    TOL_HELMHOLTZ)


def ch_mu_residual(spec: ChOperatorSpec, phi: CellField, mu: CellField, rhs: CellField):
    """Check a phase solve in its mu form  phi - mobility_dt*lap(mu) = rhs, where
    mu = -lap(phi) + gamma_eff*phi + f for the f that rhs leaves out: with
    rhs = phi* - k*xi1*adv and f = xi1*F', the same equation as the phase
    operator's  A phi = phi* + xi1*(mobility_dt*lap(F') - k*adv), at one cell
    Laplacian.  The backward error is taken over ||A|| ||phi|| alone, never a
    larger denominator than ch_residual's.  Returns the SolveReport, or raises
    SolverConvergenceError above TOL_HELMHOLTZ."""
    defect = lap_cell(mu)
    defect.data *= -spec.mobility_dt
    defect.data += phi.data
    defect.data -= rhs.data
    return _checked(norm_l2_cell(defect), _ch_op_norm(spec, phi.grid), norm_l2_cell(phi), 0.0, TOL_HELMHOLTZ)


def helmholtz_residual(spec: HelmholtzSpec, w: MacVector, rhs: MacVector, lap_w: MacVector | None = None):
    """Check w as a solve of the velocity operator against rhs, whose on-wall
    entries are boundary data, not equations, and are ignored, reusing
    lap_w = lap_velocity(w) if given; returns the SolveReport, or raises
    SolverConvergenceError above TOL_HELMHOLTZ."""
    g = w.grid
    defect = apply_helmholtz_operator(spec, w, lap_w)  # A w - b, its wall rows those of A w
    ru, rv = _interior(rhs)
    for d, r in zip(_interior(defect), (ru, rv)):
        d -= r
    rhs_norm = np.sqrt(g.cell_area * float(np.vdot(ru, ru) + np.vdot(rv, rv)))
    op_norm = 1.0 + spec.visc_dt * (_lap_norm_bound(g) + 2.0 / min(g.hx, g.hy) ** 2)
    return _checked(norm_l2_face(defect), op_norm, norm_l2_face(w), float(rhs_norm), TOL_HELMHOLTZ)


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------


def solve_neumann_poisson(rhs: CellField):
    """Solve lap(psi) = rhs with Neumann walls; returns the zero-mean psi and
    its SolveReport, or raises SolverConvergenceError above TOL_POISSON.

    The right-hand side must satisfy the solvability condition that its
    integral vanishes, up to 1e-10 * ||rhs||; a violation beyond that raises
    CompatibilityError, a smaller one is projected out and reported in the
    SolveReport.mean_defect field.
    """
    if not np.all(np.isfinite(rhs.data)):
        raise InputDataError("non-finite values in Poisson right-hand side")
    g = rhs.grid
    rhs_norm = norm_l2_cell(rhs)
    mean = float(rhs.data.mean())
    defect = abs(mean) * np.sqrt(g.cell_area * g.nx * g.ny)  # L2 size of the constant part
    if defect > 1e-10 * max(rhs_norm, 1e-300):
        raise CompatibilityError(mean * g.cell_area * g.nx * g.ny)
    b = rhs.data - mean
    coeffs = cell_transform(b)
    coeffs *= _poisson_inv_symbol(g)
    psi = CellField(g, cell_inverse(coeffs, overwrite_x=True))
    del coeffs
    psi.data -= psi.data.mean()
    defect = lap_cell(psi)
    defect.data -= b
    report = _checked(norm_l2_cell(defect), _lap_norm_bound(g), norm_l2_cell(psi),
                      rhs_norm, TOL_POISSON, mean_defect=mean * g.cell_area * g.nx * g.ny)
    return psi, report


def project(w: MacVector, dt_coef: float, div_w: CellField | None = None):
    """Remove the gradient part of w, reusing div_w = div_face_to_cell(w) if
    given: returns (u, psi, report), report the Poisson solve's SolveReport, with

        lap(psi) = div(w) / dt_coef   (Neumann, zero mean),
        u = w - dt_coef * grad(psi),

    so that div(u) vanishes to the Poisson residual and u keeps the normal
    boundary values of w (zero for no-penetration inputs).  dt_coef is the
    time-step coefficient multiplying the pressure gradient: dt for the
    backward-Euler stepper, 2*dt/3 for the BDF2 stepper.
    """
    d = div_face_to_cell(w) if div_w is None else div_w
    # the mean of div(w) is the boundary flux: exactly zero for no-penetration
    # fields up to summation rounding, which is removed here so that repeated
    # projections of roundoff-scale divergences stay well posed
    rhs = d.data - d.data.mean()
    rhs /= dt_coef
    psi, report = solve_neumann_poisson(CellField(d.grid, rhs))
    return minus_scaled_grad(w, dt_coef, psi), psi, report
