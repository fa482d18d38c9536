"""Constant-coefficient elliptic solvers and the transform pieces of the time step.

Three problem classes appear, all with constant coefficients:

  * the pressure Poisson problem  lap(psi) = rhs  with homogeneous Neumann
    walls and the zero-mean normalization;
  * the fourth-order phase operator  (I + a*lap^2 - a*g*lap) phi = rhs
    (Neumann walls for phi and lap phi);
  * the velocity Helmholtz operator  (I - b*lap) w = rhs  with no-slip walls.

The mirror-ghost cell Laplacian is exactly diagonalized by the type-II
discrete cosine transform, and the no-slip face Laplacian by a DST-I x DST-II
tensor transform, so every solve is a direct transform solve (machine
precision residuals at O(N log N) cost).

Both transforms are orthonormal, so by Parseval dot_cell/dot_face (of face
fields with zero wall entries) is cell_area times the plain sum over
coefficients.  The time step therefore uses the pieces of each transform
solve directly: forward transform, inverse symbol, inverse transform and
residual check, and of the solvers only the pressure projection.  The test
suite holds those pieces to dense LU solves and to a conjugate-gradient
reference (tests/oracle_tools.py).

Transform symbols are cached per grid; solvers are pure functions of
(rhs, tol) and safe to call concurrently.
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
    grad_cell_to_face,
    lap_cell,
    lap_velocity,
    norm_l2_cell,
    norm_l2_face,
)

__all__ = [
    "ChOperatorSpec",
    "HelmholtzSpec",
    "SolveReport",
    "solve_neumann_poisson",
    "project",
    "apply_ch_operator",
    "apply_helmholtz_operator",
    "cell_transform",
    "cell_inverse",
    "face_transform",
    "face_inverse",
    "cell_laplacian_symbol",
    "ch_inv_symbol",
    "helmholtz_inv_symbol",
    "ch_residual",
    "helmholtz_residual",
    "set_fft_workers",
]

_fft_workers = 1


def set_fft_workers(n: int):
    """Worker count handed to scipy.fft; keep at 1 for bitwise reproducibility."""
    global _fft_workers
    _fft_workers = max(1, int(n))


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
    """iterations is 0 for a direct transform solve, the only kind the
    library runs; the audit column solver_iterations sums it.  residual is the
    normwise backward error ||A x - b|| / (||A|| ||x|| + ||b||), which stays
    at rounding level for the transform paths regardless of conditioning."""

    iterations: int
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


@lru_cache(maxsize=None)
def helmholtz_inv_symbol(grid: GridSpec, spec: HelmholtzSpec):
    """Inverse of the velocity operator in the face_transform basis, as a
    (u, v) pair."""
    nx, ny = grid.nx, grid.ny
    return tuple(1.0 / (1.0 - spec.visc_dt * _symbol(grid, mx, my)) for mx, my in
                 ((np.arange(1, nx), np.arange(1, ny + 1)), (np.arange(1, nx + 1), np.arange(1, ny))))


def cell_transform(a: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-II coefficients of cell data."""
    return dctn(a, type=2, norm="ortho", workers=_fft_workers)


def cell_inverse(coeffs: np.ndarray) -> np.ndarray:
    return idctn(coeffs, type=2, norm="ortho", workers=_fft_workers)


# a component's walls are zeros of its DST-I direction and odd ghosts of its DST-II one
_FACE_TYPES = ((1, 2), (2, 1))


def face_transform(w: MacVector):
    """Orthonormal coefficients of the interior entries of a face vector, as
    a (u, v) pair; on-wall entries are boundary data and are dropped."""
    out = []
    for a, (tx, ty) in zip((w.u[1:-1, :], w.v[:, 1:-1]), _FACE_TYPES):
        a = dst(a, type=tx, axis=0, norm="ortho", workers=_fft_workers)
        out.append(dst(a, type=ty, axis=1, norm="ortho", workers=_fft_workers))
    return out


def face_inverse(grid: GridSpec, coeffs) -> MacVector:
    """The face vector with these interior coefficients and zero wall entries."""
    out = MacVector.zeros(grid)
    for dest, a, (tx, ty) in zip((out.u[1:-1, :], out.v[:, 1:-1]), coeffs, _FACE_TYPES):
        a = idst(a, type=ty, axis=1, norm="ortho", workers=_fft_workers)
        dest[...] = idst(a, type=tx, axis=0, norm="ortho", workers=_fft_workers)
    return out


# ---------------------------------------------------------------------------
# forward operators (shared by the residual checks and the test oracles)
# ---------------------------------------------------------------------------


def apply_ch_operator(spec: ChOperatorSpec, phi: CellField, lap_phi: CellField | None = None) -> CellField:
    lp = lap_cell(phi) if lap_phi is None else lap_phi
    return phi + spec.mobility_dt * lap_cell(lp) - (spec.mobility_dt * spec.gamma_eff) * lp


def apply_helmholtz_operator(spec: HelmholtzSpec, w: MacVector, lap_w: MacVector | None = None) -> MacVector:
    out = w - spec.visc_dt * (lap_velocity(w) if lap_w is None else lap_w)
    # on-wall entries are boundary data, not equations
    out.u[0, :] = w.u[0, :]
    out.u[-1, :] = w.u[-1, :]
    out.v[:, 0] = w.v[:, 0]
    out.v[:, -1] = w.v[:, -1]
    return out


def _lap_norm_bound(grid: GridSpec) -> float:
    """Upper bound on the spectral radius of the cell/face Laplacians."""
    return 4.0 / grid.hx**2 + 4.0 / grid.hy**2


# ---------------------------------------------------------------------------
# residual checks: normwise backward error ||A x - b|| / (||A|| ||x|| + ||b||)
# ---------------------------------------------------------------------------


TOL_POISSON = 1e-12  # default residual tolerance of the pressure Poisson solve
TOL_HELMHOLTZ = 1e-11  # default residual tolerance of the phase and velocity operators


def _checked(defect_norm, op_norm, x_norm, rhs_norm, tol, mean_defect=0.0):
    resid = defect_norm / max(op_norm * x_norm + rhs_norm, 1e-300)
    report = SolveReport(iterations=0, residual=resid, mean_defect=mean_defect)
    if not resid <= max(tol, 1e-13):  # a NaN residual fails too
        raise SolverConvergenceError(report)
    return report


def ch_residual(spec: ChOperatorSpec, phi: CellField, rhs: CellField, tol: float,
                lap_phi: CellField | None = None):
    """Check phi as a solve of the phase operator against rhs, reusing lap_phi = lap_cell(phi)
    if given; returns the SolveReport, or raises SolverConvergenceError above max(tol, 1e-13)."""
    lb = _lap_norm_bound(phi.grid)
    op_norm = 1.0 + spec.mobility_dt * lb * (lb + spec.gamma_eff)
    defect = norm_l2_cell(apply_ch_operator(spec, phi, lap_phi) - rhs)
    return _checked(defect, op_norm, norm_l2_cell(phi), norm_l2_cell(rhs), tol)


def helmholtz_residual(spec: HelmholtzSpec, w: MacVector, rhs: MacVector, tol: float,
                       lap_w: MacVector | None = None):
    """Check w as a solve of the velocity operator against rhs, whose on-wall
    entries are boundary data, not equations, and are ignored, reusing
    lap_w = lap_velocity(w) if given; returns the SolveReport, or raises
    SolverConvergenceError above max(tol, 1e-13)."""
    g = w.grid
    defect = apply_helmholtz_operator(spec, w, lap_w) - rhs
    defect.u[[0, -1], :] = w.u[[0, -1], :]  # the wall rows of A w - b, with those of b ignored
    defect.v[:, [0, -1]] = w.v[:, [0, -1]]
    ru, rv = rhs.u[1:-1, :], rhs.v[:, 1:-1]
    rhs_norm = np.sqrt(g.cell_area * float(np.vdot(ru, ru) + np.vdot(rv, rv)))
    op_norm = 1.0 + spec.visc_dt * (_lap_norm_bound(g) + 2.0 / min(g.hx, g.hy) ** 2)
    return _checked(norm_l2_face(defect), op_norm, norm_l2_face(w), float(rhs_norm), tol)


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------


def solve_neumann_poisson(rhs: CellField, tol: float = TOL_POISSON):
    """Solve lap(psi) = rhs with Neumann walls; returns the zero-mean psi.

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
    psi_data = cell_inverse(cell_transform(b) * _poisson_inv_symbol(g))
    psi = CellField(g, psi_data - psi_data.mean())
    report = _checked(norm_l2_cell(lap_cell(psi) - CellField(g, b)), _lap_norm_bound(g), norm_l2_cell(psi),
                      rhs_norm, tol, mean_defect=mean * g.cell_area * g.nx * g.ny)
    return psi, report


def project(w: MacVector, dt_coef: float, tol: float = TOL_POISSON, reports=None, div_w: CellField | None = None):
    """Remove the gradient part of w, reusing div_w = div_face_to_cell(w) if
    given: returns (u, psi) with

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
    rhs = CellField(d.grid, (d.data - d.data.mean()) / dt_coef)
    psi, report = solve_neumann_poisson(rhs, tol=tol)
    if reports is not None:
        reports.append(report)
    u = w - dt_coef * grad_cell_to_face(psi)
    return u, psi
