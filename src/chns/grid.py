"""Uniform MAC staggered grid, field containers, and discrete operators.

Layout, for a grid of nx-by-ny cells on [x0,x1] x [y0,y1]:

    scalars  s[i, j]  at cell centers     (x0+(i+1/2)hx, y0+(j+1/2)hy)   shape (nx,   ny)
    u[i, j]           on vertical faces   (x0+i*hx,      y0+(j+1/2)hy)   shape (nx+1, ny)
    v[i, j]           on horizontal faces (x0+(i+1/2)hx, y0+j*hy)        shape (nx,   ny+1)

Boundary conventions:

  * cell-centered scalars: homogeneous Neumann, mirror ghosts
    (ghost value = first interior value, i.e. zero flux through the wall);
  * velocity normal components sit exactly on the wall and are zero for
    any no-penetration field;
  * velocity tangential components use odd-reflection ghosts
    (ghost = -interior), placing the zero of a no-slip profile on the wall.

With these conventions the face gradient and the cell divergence are exact
negative adjoints of one another in the h-weighted inner products, the cell
Laplacian is div o grad (symmetric negative semidefinite), and conservative
advection telescopes to zero total mass flux.  Those identities, exact to
rounding, are what make the projection steps produce discretely
divergence-free velocities and the time steppers satisfy a discrete energy
law with machine-precision slack.

All operators are pure functions; field containers are treated as
immutable values after construction.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InputDataError

__all__ = [
    "GridSpec",
    "CellField",
    "MacVector",
    "grad_cell_to_face",
    "div_face_to_cell",
    "lap_cell",
    "lap_velocity",
    "advect_scalar",
    "advect_velocity",
    "chemical_force",
    "dot_cell",
    "dot_face",
    "norm_l2_cell",
    "norm_l2_face",
    "curl_at_nodes",
    "norm_l2_nodes",
    "write_field_csv",
    "read_field_csv",
    "write_field_bin",
    "read_field_bin",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform rectangular grid with nx*ny cells; unit square by default."""

    nx: int
    ny: int
    x0: float = 0.0
    x1: float = 1.0
    y0: float = 0.0
    y1: float = 1.0

    def __post_init__(self):
        if self.nx < 4 or self.ny < 4:
            raise ValueError(f"need at least 4 cells per direction, got {self.nx}x{self.ny}")
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise ValueError("domain extents must be strictly increasing")

    @property
    def hx(self) -> float:
        return (self.x1 - self.x0) / self.nx

    @property
    def hy(self) -> float:
        return (self.y1 - self.y0) / self.ny

    @property
    def cell_area(self) -> float:
        return self.hx * self.hy

    def cell_x(self):
        return self.x0 + (np.arange(self.nx) + 0.5) * self.hx

    def cell_y(self):
        return self.y0 + (np.arange(self.ny) + 0.5) * self.hy

    def face_x(self):
        return self.x0 + np.arange(self.nx + 1) * self.hx

    def face_y(self):
        return self.y0 + np.arange(self.ny + 1) * self.hy


def _require_same_grid(a, b):
    if a.grid != b.grid:
        raise DimensionMismatchError(f"fields live on different grids: {a.grid} vs {b.grid}")


@dataclass
class CellField:
    """Scalar samples at cell centers, shape (nx, ny)."""

    grid: GridSpec
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.shape != (self.grid.nx, self.grid.ny):
            raise DimensionMismatchError(
                f"cell data shape {self.data.shape} != {(self.grid.nx, self.grid.ny)}"
            )

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros((grid.nx, grid.ny)))

    @classmethod
    def full(cls, grid, value):
        return cls(grid, np.full((grid.nx, grid.ny), float(value)))

    @classmethod
    def from_function(cls, grid, fn):
        x = grid.cell_x()[:, None]
        y = grid.cell_y()[None, :]
        return cls(grid, np.broadcast_to(fn(x, y), (grid.nx, grid.ny)).astype(float).copy())

    def copy(self):
        return CellField(self.grid, self.data.copy())

    def __add__(self, other):
        _require_same_grid(self, other)
        return CellField(self.grid, self.data + other.data)

    def __sub__(self, other):
        _require_same_grid(self, other)
        return CellField(self.grid, self.data - other.data)

    def __mul__(self, scalar):
        return CellField(self.grid, self.data * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return CellField(self.grid, -self.data)


@dataclass
class MacVector:
    """Staggered vector field: u on vertical faces, v on horizontal faces."""

    grid: GridSpec
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        g = self.grid
        if self.u.shape != (g.nx + 1, g.ny) or self.v.shape != (g.nx, g.ny + 1):
            raise DimensionMismatchError(
                f"face data shapes {self.u.shape}/{self.v.shape} != "
                f"{(g.nx + 1, g.ny)}/{(g.nx, g.ny + 1)}"
            )

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros((grid.nx + 1, grid.ny)), np.zeros((grid.nx, grid.ny + 1)))

    @classmethod
    def from_functions(cls, grid, fu, fv):
        xu = grid.face_x()[:, None]
        yu = grid.cell_y()[None, :]
        xv = grid.cell_x()[:, None]
        yv = grid.face_y()[None, :]
        u = np.broadcast_to(fu(xu, yu), (grid.nx + 1, grid.ny)).astype(float).copy()
        v = np.broadcast_to(fv(xv, yv), (grid.nx, grid.ny + 1)).astype(float).copy()
        return cls(grid, u, v)

    def copy(self):
        return MacVector(self.grid, self.u.copy(), self.v.copy())

    def normal_boundary_max(self):
        """Largest |normal component| stored on the domain walls."""
        return max(
            np.abs(self.u[0, :]).max(),
            np.abs(self.u[-1, :]).max(),
            np.abs(self.v[:, 0]).max(),
            np.abs(self.v[:, -1]).max(),
        )

    def __add__(self, other):
        _require_same_grid(self, other)
        return MacVector(self.grid, self.u + other.u, self.v + other.v)

    def __sub__(self, other):
        _require_same_grid(self, other)
        return MacVector(self.grid, self.u - other.u, self.v - other.v)

    def __mul__(self, scalar):
        s = float(scalar)
        return MacVector(self.grid, self.u * s, self.v * s)

    __rmul__ = __mul__

    def __neg__(self):
        return MacVector(self.grid, -self.u, -self.v)


# ---------------------------------------------------------------------------
# differential operators
# ---------------------------------------------------------------------------


def grad_cell_to_face(p: CellField) -> MacVector:
    """Centered gradient of a cell scalar, evaluated on faces.

    Boundary faces carry zero normal derivative (homogeneous Neumann), so the
    result always has vanishing normal boundary components.
    """
    g = p.grid
    d = p.data
    u = np.zeros((g.nx + 1, g.ny))
    v = np.zeros((g.nx, g.ny + 1))
    u[1:-1, :] = (d[1:, :] - d[:-1, :]) / g.hx
    v[:, 1:-1] = (d[:, 1:] - d[:, :-1]) / g.hy
    return MacVector(g, u, v)


def div_face_to_cell(w: MacVector) -> CellField:
    """Divergence of a face vector, evaluated at cell centers."""
    g = w.grid
    out = (w.u[1:, :] - w.u[:-1, :]) / g.hx + (w.v[:, 1:] - w.v[:, :-1]) / g.hy
    return CellField(g, out)


def lap_cell(f: CellField) -> CellField:
    """Five-point Laplacian of a cell scalar with mirror (zero-flux) ghosts.

    Implemented literally as div(grad(f)) so it is symmetric negative
    semidefinite and shares its eigenbasis with the fast transform solvers.
    """
    return div_face_to_cell(grad_cell_to_face(f))


def _pad_odd_y(a):
    # ghost columns below/above a wall: odd reflection of the tangential value
    return np.concatenate([-a[:, :1], a, -a[:, -1:]], axis=1)


def _pad_odd_x(a):
    return np.concatenate([-a[:1, :], a, -a[-1:, :]], axis=0)


def lap_velocity(w: MacVector) -> MacVector:
    """Component-wise five-point Laplacian with no-slip ghosting.

    Normal components use the stored on-wall values (zero for velocities);
    tangential components use odd-reflection ghosts.  Output rows on the
    walls are zero: those entries are boundary data, not unknowns.
    """
    g = w.grid
    hx2, hy2 = g.hx * g.hx, g.hy * g.hy

    out_u = np.zeros_like(w.u)
    uy = _pad_odd_y(w.u)
    out_u[1:-1, :] = (w.u[2:, :] - 2.0 * w.u[1:-1, :] + w.u[:-2, :]) / hx2 + (
        uy[1:-1, 2:] - 2.0 * uy[1:-1, 1:-1] + uy[1:-1, :-2]
    ) / hy2

    out_v = np.zeros_like(w.v)
    vx = _pad_odd_x(w.v)
    out_v[:, 1:-1] = (vx[2:, 1:-1] - 2.0 * vx[1:-1, 1:-1] + vx[:-2, 1:-1]) / hx2 + (
        w.v[:, 2:] - 2.0 * w.v[:, 1:-1] + w.v[:, :-2]
    ) / hy2
    return MacVector(g, out_u, out_v)


def advect_scalar(w: MacVector, f: CellField) -> CellField:
    """Conservative advection div(w f) with centered face interpolation of f.

    For discretely divergence-free w this equals (w . grad) f; for any w with
    zero normal boundary values the result integrates to zero over the domain
    (exact mass conservation by telescoping).
    """
    _require_same_grid(w, f)
    g = f.grid
    d = f.data
    fu = np.empty((g.nx + 1, g.ny))
    fu[1:-1, :] = 0.5 * (d[1:, :] + d[:-1, :])
    fu[0, :] = d[0, :]
    fu[-1, :] = d[-1, :]
    fv = np.empty((g.nx, g.ny + 1))
    fv[:, 1:-1] = 0.5 * (d[:, 1:] + d[:, :-1])
    fv[:, 0] = d[:, 0]
    fv[:, -1] = d[:, -1]
    return div_face_to_cell(MacVector(g, w.u * fu, w.v * fv))


def advect_velocity(w: MacVector) -> MacVector:
    """Centered convection (w . grad) w evaluated at the face locations.

    Cross components are brought to the evaluation point by 4-point
    averages; tangential derivatives near walls use odd-reflection ghosts.
    Boundary (normal) faces return zero.
    """
    g = w.grid
    hx, hy = g.hx, g.hy
    u, v = w.u, w.v

    out_u = np.zeros_like(u)
    du_dx = (u[2:, :] - u[:-2, :]) / (2.0 * hx)
    uy = _pad_odd_y(u)
    du_dy = (uy[1:-1, 2:] - uy[1:-1, :-2]) / (2.0 * hy)
    v_at_u = 0.25 * (v[:-1, :-1] + v[1:, :-1] + v[:-1, 1:] + v[1:, 1:])  # at interior u-faces
    out_u[1:-1, :] = u[1:-1, :] * du_dx + v_at_u * du_dy

    out_v = np.zeros_like(v)
    dv_dy = (v[:, 2:] - v[:, :-2]) / (2.0 * hy)
    vx = _pad_odd_x(v)
    dv_dx = (vx[2:, 1:-1] - vx[:-2, 1:-1]) / (2.0 * hx)
    u_at_v = 0.25 * (u[:-1, :-1] + u[1:, :-1] + u[:-1, 1:] + u[1:, 1:])  # at interior v-faces
    out_v[:, 1:-1] = u_at_v * dv_dx + v[:, 1:-1] * dv_dy
    return MacVector(g, out_u, out_v)


def chemical_force(mu: CellField, phi: CellField) -> MacVector:
    """Face-centered mu * grad(phi): 2-point average of mu times the face
    difference of phi.  Zero on boundary faces."""
    _require_same_grid(mu, phi)
    g = mu.grid
    m, p = mu.data, phi.data
    fu = np.zeros((g.nx + 1, g.ny))
    fv = np.zeros((g.nx, g.ny + 1))
    fu[1:-1, :] = 0.5 * (m[1:, :] + m[:-1, :]) * (p[1:, :] - p[:-1, :]) / g.hx
    fv[:, 1:-1] = 0.5 * (m[:, 1:] + m[:, :-1]) * (p[:, 1:] - p[:, :-1]) / g.hy
    return MacVector(g, fu, fv)


# ---------------------------------------------------------------------------
# inner products, norms, curl
# ---------------------------------------------------------------------------


def dot_cell(a: CellField, b: CellField) -> float:
    _require_same_grid(a, b)
    return a.grid.cell_area * float(np.sum(a.data * b.data))


def dot_face(a: MacVector, b: MacVector) -> float:
    _require_same_grid(a, b)
    return a.grid.cell_area * float(np.sum(a.u * b.u) + np.sum(a.v * b.v))


def norm_l2_cell(f: CellField) -> float:
    return float(np.sqrt(max(dot_cell(f, f), 0.0)))


def norm_l2_face(w: MacVector) -> float:
    return float(np.sqrt(max(dot_face(w, w), 0.0)))


def curl_at_nodes(w: MacVector) -> np.ndarray:
    """Scalar curl dv/dx - du/dy at grid nodes, shape (nx+1, ny+1).

    Wall closures use the same odd-reflection ghosts as the viscous operator,
    so the curl of a discrete gradient vanishes identically at interior nodes.
    """
    g = w.grid
    uy = _pad_odd_y(w.u)  # (nx+1, ny+2): index j of the node sees uy[:, j:j+2]
    vx = _pad_odd_x(w.v)  # (nx+2, ny+1)
    du_dy = (uy[:, 1:] - uy[:, :-1]) / g.hy
    dv_dx = (vx[1:, :] - vx[:-1, :]) / g.hx
    return dv_dx - du_dy


def norm_l2_nodes(grid: GridSpec, node_values: np.ndarray) -> float:
    """Trapezoid-weighted L2 norm of a node field (half weights on edges)."""
    if node_values.shape != (grid.nx + 1, grid.ny + 1):
        raise DimensionMismatchError(
            f"node data shape {node_values.shape} != {(grid.nx + 1, grid.ny + 1)}"
        )
    wts = np.ones((grid.nx + 1, grid.ny + 1))
    wts[0, :] *= 0.5
    wts[-1, :] *= 0.5
    wts[:, 0] *= 0.5
    wts[:, -1] *= 0.5
    return float(np.sqrt(grid.cell_area * np.sum(wts * node_values**2)))


# ---------------------------------------------------------------------------
# snapshot files
# ---------------------------------------------------------------------------

_KINDS = ("cell", "face_u", "face_v")
_KIND_SHAPES = {
    "cell": lambda nx, ny: (nx, ny),
    "face_u": lambda nx, ny: (nx + 1, ny),
    "face_v": lambda nx, ny: (nx, ny + 1),
}


def _check_kind(kind, shape, nx, ny):
    if kind not in _KINDS:
        raise InputDataError(f"unknown field kind {kind!r}")
    expected = _KIND_SHAPES[kind](nx, ny)
    if tuple(shape) != expected:
        raise DimensionMismatchError(f"{kind} data shape {shape} != {expected}")


_HEADER = ("nx", "ny", "hx", "hy", "kind code")


def _parse_header(path, entries):
    """Snapshot header numbers in _HEADER order: all finite, and nx, ny and
    the kind code also whole and >= 0."""
    out = []
    for name, text in zip(_HEADER, entries):
        try:
            x = float(text)
        except ValueError:
            x = math.nan
        whole = name not in ("hx", "hy")
        if not math.isfinite(x) or whole and not (x >= 0 and x == int(x)):
            raise InputDataError(f"{path}: bad header {name} {str(text)!r}")
        out.append(int(x) if whole else x)
    return out


def _finite(path, values):
    if not np.all(np.isfinite(values)):
        raise InputDataError(f"{path}: non-finite field value")
    return values


def write_field_csv(path, grid: GridSpec, kind: str, values: np.ndarray):
    """Snapshot format: header '# nx,ny,hx,hy,kind' then row-major values."""
    values = np.asarray(values, dtype=float)
    _check_kind(kind, values.shape, grid.nx, grid.ny)
    header = f"# {grid.nx},{grid.ny},{grid.hx:.17g},{grid.hy:.17g},{kind}"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        np.savetxt(fh, values, fmt="%.17g", delimiter=",")


def read_field_csv(path):
    """Returns (nx, ny, hx, hy, kind, values)."""
    try:
        with open(path) as fh:
            header = fh.readline().strip()
            rows = (line for line in fh if line.split("#", 1)[0].strip())  # what loadtxt would parse
            first = next(rows, None)
            if first is None:
                raise InputDataError(f"{path}: no data rows after the header")
            values = np.loadtxt(itertools.chain([first], rows), delimiter=",", ndmin=2)
    except ValueError as exc:  # undecodable bytes or an unparsable row
        raise InputDataError(f"{path}: unreadable snapshot: {exc}") from exc
    parts = header.lstrip("#").strip().split(",")
    if not header.startswith("#") or len(parts) != 5:
        raise InputDataError(f"{path}: malformed snapshot header {header!r}")
    nx, ny, hx, hy = _parse_header(path, parts[:4])
    kind = parts[4].strip()
    _check_kind(kind, values.shape, nx, ny)
    return nx, ny, hx, hy, kind, _finite(path, values)


def write_field_bin(path, grid: GridSpec, kind: str, values: np.ndarray):
    """Raw little-endian float64 snapshot with an 8-value header:
    [nx, ny, hx, hy, kind_code, x0, y0, 0]."""
    values = np.asarray(values, dtype=float)
    _check_kind(kind, values.shape, grid.nx, grid.ny)
    header = np.array(
        [grid.nx, grid.ny, grid.hx, grid.hy, float(_KINDS.index(kind)), grid.x0, grid.y0, 0.0],
        dtype="<f8",
    )
    with open(path, "wb") as fh:
        header.tofile(fh)
        values.astype("<f8").tofile(fh)


def read_field_bin(path):
    """Returns (nx, ny, hx, hy, x0, y0, kind, values)."""
    raw = np.fromfile(path, dtype="<f8")
    extra = os.path.getsize(path) - raw.nbytes  # fromfile drops a partial trailing value
    if extra:
        raise InputDataError(f"{path}: {extra} trailing bytes after the last whole value")
    if raw.size < 8:
        raise InputDataError(f"{path}: truncated binary snapshot")
    nx, ny, hx, hy, code = _parse_header(path, raw[:5])
    if code not in range(len(_KINDS)):
        raise InputDataError(f"{path}: unknown kind code {code}")
    kind = _KINDS[code]
    shape = _KIND_SHAPES[kind](nx, ny)
    body = raw[8:]
    if body.size != shape[0] * shape[1]:
        raise DimensionMismatchError(f"{path}: payload size {body.size} != {shape[0] * shape[1]}")
    return nx, ny, hx, hy, float(raw[5]), float(raw[6]), kind, _finite(path, body.reshape(shape))
