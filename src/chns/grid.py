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

Operators never modify their arguments; each returns new arrays.  Field
containers are mutable: a caller may update a container it owns in place,
as the steppers do (first_order.zero_mean, and the scaled or accumulated
terms of a step).
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatchError, InputDataError


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


class _Field:
    """The value algebra the field containers share: copy, +, - and scalar *
    act on each array of a subclass's arrays tuple.  The subclass's _KIND maps
    each array's field name to its snapshot kind, whose _KIND_SHAPES entry
    the array's shape is checked against."""

    def __post_init__(self):
        g = self.grid
        for name, kind in self._KIND.items():
            a = np.asarray(getattr(self, name), dtype=float)
            _check_kind(kind, a.shape, g.nx, g.ny)
            setattr(self, name, a)

    @classmethod
    def zeros(cls, grid):
        return cls(grid, *[np.zeros(_KIND_SHAPES[kind](grid.nx, grid.ny)) for kind in cls._KIND.values()])

    @classmethod
    def empty(cls, grid):
        """Uninitialized C-order arrays, for a kernel that writes every entry."""
        return cls(grid, *[np.empty(_KIND_SHAPES[kind](grid.nx, grid.ny)) for kind in cls._KIND.values()])

    def copy(self):
        return type(self)(self.grid, *[a.copy() for a in self.arrays])

    def __add__(self, other):
        _require_same_grid(self, other)
        return type(self)(self.grid, *[a + b for a, b in zip(self.arrays, other.arrays)])

    def __sub__(self, other):
        _require_same_grid(self, other)
        return type(self)(self.grid, *[a - b for a, b in zip(self.arrays, other.arrays)])

    def __mul__(self, scalar):
        s = float(scalar)
        return type(self)(self.grid, *[a * s for a in self.arrays])

    __rmul__ = __mul__


@dataclass
class CellField(_Field):
    """Scalar samples at cell centers, shape (nx, ny)."""

    grid: GridSpec
    data: np.ndarray

    _KIND = {"data": "cell"}
    arrays = property(lambda self: (self.data,))

    @classmethod
    def from_function(cls, grid, fn):
        out = cls.zeros(grid)
        out.data[...] = fn(grid.cell_x()[:, None], grid.cell_y()[None, :])
        return out


@dataclass
class MacVector(_Field):
    """Staggered vector field: u on vertical faces, v on horizontal faces."""

    grid: GridSpec
    u: np.ndarray
    v: np.ndarray

    _KIND = {"u": "face_u", "v": "face_v"}
    arrays = property(lambda self: (self.u, self.v))

    @classmethod
    def from_functions(cls, grid, fu, fv):
        out = cls.zeros(grid)
        out.u[...] = fu(grid.face_x()[:, None], grid.cell_y()[None, :])
        out.v[...] = fv(grid.cell_x()[:, None], grid.face_y()[None, :])
        return out


# ---------------------------------------------------------------------------
# differential operators
#
# Every stencil runs over the flat C-order view of its arrays, where a shift
# by s is a shift by one row (x) when s is the row length and by one column
# (y) when s is 1: either is one contiguous loop.  At s = 1 one pair per row
# straddles the row end, the last entry of row i against the first of row
# i+1; its junk result falls on a wall lane along y, which each stencil sets
# from its wall rule before any product or division reaches it.  Wall lanes
# are set through 2-D views, rows for x and columns for y (_lanes).  Inputs
# are read through reshape(-1), which copies an array that is not C-order;
# outputs are written only into arrays the kernel allocates.  Cell and face
# rows along y differ in length by one, so a stencil between them forms its
# result in a buffer of the source's shape and places it with one copy or
# one strided operand.
# ---------------------------------------------------------------------------

_FIRST, _SECOND, _LAST, _BEFORE_LAST = slice(0, 1), slice(1, 2), slice(-1, None), slice(-2, -1)


def _lanes(a, s, pick):
    """The lanes of the 2-D C-order array a across the flat stride s that the
    slice pick selects: rows when s is a's row length (x), columns when s is 1 (y)."""
    return a[pick] if s > 1 else a[:, pick]


def _walls(a, s):
    """The first and last lanes of a across s, as one view."""
    return _lanes(a, s, slice(None, None, (a.shape[0] if s > 1 else a.shape[1]) - 1))


def _face_diff(d, s, h, out):
    """Into out, of the cells' shape: the differences d[k + s] - d[k] of the
    flat cell data d divided by h, each cell's face past it across s, with the
    far wall's zero in the last lane, where at s = 1 the row-end pairs fall."""
    flat = out.reshape(-1)
    np.subtract(d[s:], d[:-s], out=flat[:-s])
    _lanes(out, s, _LAST)[...] = 0.0
    flat /= h
    return out


def grad_cell_to_face(p: CellField) -> MacVector:
    """Centered gradient of a cell scalar, evaluated on faces.

    Boundary faces carry zero normal derivative (homogeneous Neumann), so the
    result always has vanishing normal boundary components.
    """
    g, d = p.grid, p.data.reshape(-1)
    out = MacVector.empty(g)
    _face_diff(d, g.ny, g.hx, out.u[1:])  # u's rows past the first are whole rows of the cells' shape
    out.v[:, 1:] = _face_diff(d, 1, g.hy, np.empty((g.nx, g.ny)))
    out.u[0] = out.v[:, 0] = 0.0
    return out


def minus_scaled_grad(w: MacVector, k: float, p: CellField) -> MacVector:
    """w - k * grad_cell_to_face(p), formed in place on the gradient's arrays."""
    _require_same_grid(w, p)
    grad = grad_cell_to_face(p)
    for a, b in zip(grad.arrays, w.arrays):
        np.subtract(b, np.multiply(a, k, out=a), out=a)
    return grad


def div_face_to_cell(w: MacVector) -> CellField:
    """Divergence of a face vector, evaluated at cell centers."""
    g, u, v = w.grid, w.u.reshape(-1), w.v.reshape(-1)
    out = (u[g.ny:] - u[:-g.ny]).reshape(g.nx, g.ny)
    out /= g.hx
    dy = np.empty(w.v.shape)  # in v's rows, whose last entries pair a row's end with the next row's start: never read
    np.subtract(v[1:], v[:-1], out=dy.reshape(-1)[:-1])
    out += np.divide(dy[:, :-1], g.hy)
    return CellField(g, out)


def _wall_diff(a, s, h, out, near):
    """Into out, of a's shape: the differences a[k] - a[k - s] over the flat
    views, divided by h, with the ghost lane near before a's first across s.
    a holds its far ghost in its last lane; at s = 1 the shift pairs each row's
    start with the previous row's end, and the first lane is set from near."""
    flat, a_flat = out.reshape(-1), a.reshape(-1)
    np.subtract(a_flat[s:], a_flat[:-s], out=flat[s:])
    np.subtract(_lanes(a, s, _FIRST), near, out=_lanes(out, s, _FIRST))
    flat /= h
    return out


def lap_cell(f: CellField) -> CellField:
    """Five-point Laplacian of a cell scalar with mirror (zero-flux) ghosts.

    It is div(grad(f)) bit for bit, with no face field built, so it is
    symmetric negative semidefinite and shares its eigenbasis with the fast
    transform solvers.  Each direction differences its face gradient, whose
    last lane holds the far wall's zero, against the near wall's zero."""
    g, d = f.grid, f.data.reshape(-1)
    out, lap_y = np.empty(f.data.shape), np.empty(f.data.shape)
    for s, o, h in ((g.ny, out, g.hx), (1, lap_y, g.hy)):
        _wall_diff(_face_diff(d, s, h, np.empty(f.data.shape)), s, h, o, 0.0)
    out += lap_y
    return CellField(g, out)


def lap_velocity(w: MacVector) -> MacVector:
    """Component-wise five-point Laplacian with no-slip ghosting.

    Normal components use the stored on-wall values (zero for velocities);
    tangential components use odd-reflection ghosts.  Output rows on the
    walls are zero: those entries are boundary data, not unknowns.
    """
    g = w.grid
    out = MacVector.empty(g)
    # a component's normal stride sn crosses the walls it stores, its tangential stride st the walls it ghosts
    for a, o, sn, st, h2n, h2t in ((w.u, out.u, g.ny, 1, g.hx * g.hx, g.hy * g.hy),
                                   (w.v, out.v, 1, g.ny + 1, g.hy * g.hy, g.hx * g.hx)):
        flat = a.reshape(-1)
        two = (2.0 * flat).reshape(a.shape)
        normal = np.subtract(flat[2 * sn:], two.reshape(-1)[sn:-sn], out=o.reshape(-1)[sn:-sn])
        normal += flat[:-2 * sn]
        _walls(o, sn)[...] = 0.0  # the stored walls; at sn = 1 also the row-end pairs
        o /= h2n
        tang = np.empty(a.shape)
        inner = np.subtract(flat[2 * st:], two.reshape(-1)[st:-st], out=tang.reshape(-1)[st:-st])
        inner += flat[:-2 * st]
        first, last = _lanes(tang, st, _FIRST), _lanes(tang, st, _LAST)  # odd ghosts; at st = 1 the row-end pairs
        np.subtract(_lanes(a, st, _SECOND), _lanes(two, st, _FIRST), out=first)
        first -= _lanes(a, st, _FIRST)
        np.subtract(-_lanes(a, st, _LAST), _lanes(two, st, _LAST), out=last)
        last += _lanes(a, st, _BEFORE_LAST)
        _walls(tang, sn)[...] = 0.0
        tang /= h2t
        o += tang
    return out


def advect_scalar(w: MacVector, f: CellField) -> CellField:
    """Conservative advection div(w f) with centered face interpolation of f.

    For discretely divergence-free w this equals (w . grad) f; for any w with
    zero normal boundary values the result integrates to zero over the domain
    (exact mass conservation by telescoping).
    """
    _require_same_grid(w, f)
    g, d = f.grid, f.data.reshape(-1)
    flux = MacVector.empty(g)
    fy = np.empty(f.data.shape)
    for s, inner in ((g.ny, flux.u[1:]), (1, fy)):  # each cell's face past it, in the cells' shape
        flat = inner.reshape(-1)[:-s]
        np.add(d[s:], d[:-s], out=flat)
        _lanes(inner, s, _LAST)[...] = 0.0  # the far wall, set below; at s = 1 also the row-end pairs in flat
        flat *= 0.5
    flux.v[:, 1:] = fy
    for s, o, wa in ((g.ny, flux.u, w.u), (1, flux.v, w.v)):
        _walls(o, s)[...] = _walls(f.data, s)
        o *= wa
    return div_face_to_cell(flux)


def _avg4(b):
    """The sums b[i, j] + b[i+1, j] + b[i, j+1] + b[i+1, j+1], in that order,
    over b's flat view: shape (rows - 1, cols), whose last column, where j + 1
    is the next row's start, is junk."""
    n, flat = b.shape[1], b.reshape(-1)
    out = flat[:-n] + flat[n:]
    out[:-1] += flat[1:-n]
    out[:-1] += flat[n + 1:]
    return out.reshape(b.shape[0] - 1, n)


def advect_velocity(w: MacVector) -> MacVector:
    """Centered convection (w . grad) w evaluated at the face locations.

    Cross components are brought to the evaluation point by 4-point
    averages; tangential derivatives near walls use odd-reflection ghosts,
    as separate wall slices.  Boundary (normal) faces return zero.
    """
    g = w.grid
    out = MacVector.empty(g)
    # the other component averaged to each interior face: v in u's rows 1..nx-1, u in v's rows with zero walls
    cross_u = np.multiply(_avg4(w.v)[:, :-1], 0.25)
    cross_v = np.empty(w.v.shape)
    cross_v[:, 1:-1] = _avg4(w.u)[:, :-1]
    _walls(cross_v, 1)[...] = 0.0
    cross_v *= 0.25
    # a component's normal stride sn crosses the walls it stores, its tangential stride st the walls it ghosts
    for a, o, cross, sn, st, hn, ht in ((w.u, out.u, cross_u.reshape(-1), g.ny, 1, g.hx, g.hy),
                                        (w.v, out.v, cross_v.reshape(-1)[1:-1], 1, g.ny + 1, g.hy, g.hx)):
        flat = a.reshape(-1)
        dtan = np.empty(a.shape)  # tangential central difference
        np.subtract(flat[2 * st:], flat[:-2 * st], out=dtan.reshape(-1)[st:-st])
        np.add(_lanes(a, st, _SECOND), _lanes(a, st, _FIRST), out=_lanes(dtan, st, _FIRST))
        np.subtract(-_lanes(a, st, _LAST), _lanes(a, st, _BEFORE_LAST), out=_lanes(dtan, st, _LAST))
        dtan /= 2.0 * ht
        cross *= dtan.reshape(-1)[sn:-sn]
        own = np.subtract(flat[2 * sn:], flat[:-2 * sn], out=o.reshape(-1)[sn:-sn])
        _walls(o, sn)[...] = 0.0  # the stored walls; at sn = 1 also the row-end pairs
        own /= 2.0 * hn
        own *= flat[sn:-sn]
        own += cross
        _walls(o, sn)[...] = 0.0  # at sn = 1 the products ran over the walls
    return out


def chemical_force(mu: CellField, phi: CellField) -> MacVector:
    """Face-centered mu * grad(phi): 2-point average of mu times the face
    difference of phi.  Zero on boundary faces."""
    _require_same_grid(mu, phi)
    g, m, p = mu.grid, mu.data.reshape(-1), phi.data.reshape(-1)
    out = MacVector.empty(g)
    fy = np.empty((g.nx, g.ny))
    for s, inner, h in ((g.ny, out.u[1:], g.hx), (1, fy, g.hy)):  # each cell's face past it, in the cells' shape
        flat = inner.reshape(-1)[:-s]
        np.add(m[s:], m[:-s], out=flat)
        _lanes(inner, s, _LAST)[...] = 0.0  # the far wall; at s = 1 also the row-end pairs in flat
        flat *= 0.5
        flat *= p[s:] - p[:-s]
        flat /= h
    out.v[:, 1:] = fy
    _walls(out.u, g.ny)[...] = _walls(out.v, 1)[...] = 0.0
    return out


# ---------------------------------------------------------------------------
# inner products, norms, curl; the package's field reductions all go through
# these, one np.vdot per array with no temporary product
# ---------------------------------------------------------------------------


def dot_cell(a: CellField, b: CellField) -> float:
    _require_same_grid(a, b)
    return a.grid.cell_area * float(np.vdot(a.data, b.data))


def dot_face(a: MacVector, b: MacVector) -> float:
    _require_same_grid(a, b)
    return a.grid.cell_area * float(np.vdot(a.u, b.u) + np.vdot(a.v, b.v))


def grad_sq_cell(f: CellField) -> float:
    """|grad f|^2, the dot_face of grad_cell_to_face(f) with itself, from the
    interior face differences: wall faces carry no gradient.  Each np.vdot
    sums a C-order array of the differences, as dot_face's would."""
    g, d = f.grid, f.data.reshape(-1)
    dx, dy = d[g.ny:] - d[:-g.ny], np.empty(f.data.shape)
    np.subtract(d[1:], d[:-1], out=dy.reshape(-1)[:-1])
    dy = dy[:, :-1].ravel()  # a copy without the row-end lane
    return g.cell_area * (float(np.vdot(dx, dx)) / g.hx**2 + float(np.vdot(dy, dy)) / g.hy**2)


def norm_l2_cell(f: CellField) -> float:
    return float(np.sqrt(max(dot_cell(f, f), 0.0)))


def norm_l2_face(w: MacVector) -> float:
    return float(np.sqrt(max(dot_face(w, w), 0.0)))


def curl_at_nodes(w: MacVector) -> np.ndarray:
    """Scalar curl dv/dx - du/dy at grid nodes, shape (nx+1, ny+1).

    Wall closures use the same odd-reflection ghosts as the viscous operator,
    so the curl of a discrete gradient vanishes identically at interior nodes.
    """
    g, v = w.grid, w.v
    out, s = np.empty((g.nx + 1, g.ny + 1)), g.ny + 1
    # dv/dx: v's rows are node rows, so its differences are one shift by the row length
    flat, v_flat = out.reshape(-1), v.reshape(-1)
    np.subtract(v_flat[s:], v_flat[:-s], out=flat[s:-s])
    np.subtract(v[0], -v[0], out=out[0])
    np.subtract(-v[-1], v[-1], out=out[-1])
    flat /= g.hx
    # du/dy: u laid out in node rows that end with its far odd ghost, differenced against the near one
    ghosted = np.empty(out.shape)
    ghosted[:, :-1] = w.u
    ghosted[:, -1] = -w.u[:, -1]
    out -= _wall_diff(ghosted, 1, g.hy, np.empty(out.shape), -w.u[:, :1])
    return out


def norm_l2_nodes(grid: GridSpec, node_values: np.ndarray) -> float:
    """Trapezoid-weighted L2 norm of a node field: weight 1 inside, 1/2 on the
    edges and 1/4 at the corners, applied as corrections to the plain sum of
    squares, so no weight array or squared field is built."""
    if node_values.shape != (grid.nx + 1, grid.ny + 1):
        raise DimensionMismatchError(
            f"node data shape {node_values.shape} != {(grid.nx + 1, grid.ny + 1)}"
        )
    v = node_values
    edges = np.vdot(v[0], v[0]) + np.vdot(v[-1], v[-1]) + np.vdot(v[:, 0], v[:, 0]) + np.vdot(v[:, -1], v[:, -1])
    corners = v[0, 0] ** 2 + v[0, -1] ** 2 + v[-1, 0] ** 2 + v[-1, -1] ** 2
    return float(np.sqrt(grid.cell_area * (np.vdot(v, v) - 0.5 * edges + 0.25 * corners)))


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


# '%.17g' of whole arrays.  Python formats one value at a time, at several
# hundred ns each; _g17_text writes the same bytes with numpy passes over a
# block of values:
#
#   * Digits.  For 1e-6 < |x| < 1e17 the decimal exponent X of |x| is
#     floor(log10|x|), checked exactly below, so s = 16 - X lies in [0, 22],
#     where 10**s is an exact double.  Dekker's product writes |x| * 10**s
#     exactly as hi + lo; hi >= 1e16 > 2**53 is an even integer, so
#     D = hi + rint(lo) rounds |x| * 10**s to an integer, half to even: the
#     correctly rounded 17-digit significand that '%.17g' prints.
#   * Text.  Each value fills a 24-byte slot of three little-endian words,
#     NUL where its text has no byte, and bytes.translate drops the NULs.
#     The slot starts with the separator before the value, so the longest
#     text of the array range (23 bytes) fits:
#         0      ',', or '\n' before the first value of a row
#         1      '-' of a negative value
#         2-7    the first digit: at byte 7, alone or after '0.' and up to
#                three zeros (-4 <= X < 0); at byte 6 when the '.' or more
#                integer digits follow (X >= 0 with a fraction); at byte 2,
#                with the '.' at byte 3, when X < -4
#         8-23   digits 1-16 less trailing zeros.  When a fraction follows
#                X >= 0, the integer ones move one byte down, which frees
#                byte 7 + X for the '.'; when X < -4 all move four bytes
#                down, which frees bytes 20-23 for 'e-05' or 'e-06'
#     Tables indexed by (significant digits nd, X) hold the masks, the
#     characters and the move that place digits 1-16, and one indexed by
#     (nd, X, sign, first digit) the rest of bytes 1-7.
#   * Zeros are '0' and '-0'.  Subnormals, |x| <= 1e-6, |x| >= 1e17, inf and
#     nan go through '%.17g' itself, one value at a time: its text, up to 24
#     bytes ('-d.dddddddddddddddde-ddd'), is joined in after the text of the
#     slots before it, in place of the value's own slot.

_CSV_BLOCK_VALUES = 8192  # values per _g17_text call: its temporaries (1.8 MB at most) stay in a 2 MB L2 cache
_WORD = np.dtype("<u8")
_EXPONENTS = range(-6, 17)  # X of the values formatted with arrays; (nd, X) is layout column 23 * (nd - 1) + X + 6


def _word(text, at=0):
    """A little-endian word holding the ASCII text from byte `at` on."""
    return int.from_bytes(b"\0" * at + text, "little")


def _byte_mask(start, stop):
    """A 128-bit mask of bytes start..stop-1."""
    return (1 << 8 * stop) - (1 << 8 * start) if stop > start else 0


def _layout_tables():
    """The layout rows per column (nd, X): the masks of digits 1-16 that stay
    (2 words) and that move down (2 words), the '.' or 'e-0N' among them
    (2 words) and the move in bits; and the front words per (column, sign,
    first digit): bytes 1-7 of the slot."""
    rows, front = [], []
    for nd in range(1, 18):
        for x in _EXPONENTS:
            kept = max(nd - 1, x)  # digits 1..kept are written
            moved, shift, fill = 0, 8, 0  # digits 1..moved move down by shift bits
            if x < -4:
                head, moved, shift, fill = b"#." if kept else b"#", kept, 32, _word(b"e-0%d" % -x, 12)
            elif x < 0:
                head = b"0." + b"0" * (-x - 1) + b"#"
            elif kept > x:  # the '.' goes in byte 7 + x, the head's own for x = 0
                head, moved, fill = b"#." if x == 0 else b"#\0", x, ord(".") << 8 * (x - 1) if x else 0
            else:
                head = b"#"
            masks = (_byte_mask(moved, kept), _byte_mask(0, moved), fill)
            rows.append([m >> at & (2**64 - 1) for m in masks for at in (0, 64)] + [shift])
            at = 2 if x < -4 else 8 - len(head)  # where the head, '#' for the first digit, starts
            for sign in (b"\0", b"-"):
                front += [_word(sign + b"\0" * (at - 2) + head.replace(b"#", b"%d" % f), 1) for f in range(10)]
    return np.array(rows, _WORD).T.copy(), np.array(front, _WORD)


def _digit_tables():
    """For every 4-digit group g: its ASCII digits in bytes 0-3 and in bytes
    4-7 of a word, and, for each of the four groups of digits 1-16 (in the
    order 5-8, 13-16, 1-4, 9-12), the layout column offset 23 * (nd - 1) of a
    significand whose last nonzero digit is in g, 0 for g = 0."""
    text = np.frombuffer(b"".join(b"%04d" % g for g in range(10000)), np.uint8).reshape(10000, 4)
    chars = text.view("<u4").ravel().astype(_WORD)
    last = np.zeros(10000, np.int16)  # the place, 1-4, of g's last nonzero digit
    for place in range(4):
        last[text[:, place] != ord("0")] = place + 1
    ends = np.array([5, 13, 1, 9], np.int16)[:, None] + last - 1
    ends *= len(_EXPONENTS)
    ends[:, last == 0] = 0
    return chars, (chars << np.uint64(32)).astype(_WORD), ends


@lru_cache(maxsize=None)
def _g17_tables():
    """(layout, front, chars_lo, chars_hi, last_digit), built at the first
    write, so a run that writes no CSV snapshot neither builds nor holds them."""
    return *_layout_tables(), *_digit_tables()


_POW10 = 10.0 ** np.arange(23)
_POW10_HI = _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)  # Dekker's split by 2**27 + 1
_POW10_LO = _POW10 - _POW10_HI
_HIGH_27 = np.uint64(2**64 - 2**26)  # the sign, the exponent and the leading 27 significant bits of a double


def _times_pow10(a, s):
    """(hi, lo) with hi + lo == a * 10**s exactly and hi the rounded product:
    Dekker's product, with a split into 27 + 26 significant bits by a mask and
    10**s into 26 + 26, so every partial product and partial sum is exact."""
    hi = a * _POW10.take(s)
    ah = np.bitwise_and(a.view(np.uint64), _HIGH_27).view(np.float64)
    al = a - ah
    bh, bl = _POW10_HI.take(s), _POW10_LO.take(s)
    lo = ah * bh
    lo -= hi
    lo += ah * bl
    lo += al * bh
    lo += al * bl
    return hi, lo


def _significand(x):
    """(d, key, rest): d the 17-digit decimal significand of |x| rounded half
    to even (0 for a zero), key = X + 6 for its decimal exponent X (6 for a
    zero), and rest the indices left to '%.17g' itself."""
    a = np.abs(x)
    outside = np.flatnonzero(~((a > 1e-6) & (a < 1e17)))
    a[outside] = 1.0
    s = np.log10(a)
    np.floor(s, out=s)
    np.subtract(16.0, s, out=s)
    s = np.clip(s, 0.0, 22.0, out=s).astype(np.int64)
    hi, lo = _times_pow10(a, s)
    near = np.flatnonzero((hi <= 1e16) | (hi >= 1e17))  # where log10 may have missed the decade by one
    if near.size:
        h, l = hi[near], lo[near]
        step = ((h < 1e16) | ((h == 1e16) & (l < 0))).astype(np.int64)
        step -= (h > 1e17) | ((h == 1e17) & (l >= 0))
        s[near] += step
        hi[near], lo[near] = _times_pow10(a[near], s[near])
    # Rounding never carries into the next decade: that needs a double within
    # 5e-18 relative below a power 10**(X+1), and for X + 1 in [-5, 17] the
    # nearest one below is 8.7e-17 or more below.
    d = hi.astype(np.int64)
    d += np.rint(lo).astype(np.int64)
    key = np.subtract(22, s, out=s)
    zero = outside[x[outside] == 0]
    d[zero] = 0
    key[zero] = 6
    return d, key, outside[x[outside] != 0]


def _g17_text(block, sep):
    """The bytes of '%.17g' % x for each x of block in C order, each preceded
    by its separator, the byte of its sep word: ',' or '\\n'."""
    x = block.ravel()
    layout, front, chars_lo, chars_hi, last_digit = _g17_tables()
    d, key, rest = _significand(x)
    first = d // 10**16
    d -= first * 10**16
    groups = np.empty((4, x.size), np.int64)  # digits 5-8, 13-16, 1-4, 9-12
    np.floor_divide(d, 10**8, out=groups[0])
    np.subtract(d, groups[0] * 10**8, out=groups[1])
    np.floor_divide(groups[:2], 10**4, out=groups[2:])
    groups[:2] -= groups[2:] * 10**4
    ends = last_digit[0].take(groups[0])
    for table, g in zip(last_digit[1:], groups[1:]):
        np.maximum(ends, table.take(g), out=ends)
    key += ends
    digits = chars_lo.take(groups[2:])  # digits 1-8 and 9-16
    digits |= chars_hi.take(groups[:2])
    del groups  # freed before the words are built: the block's peak stays lower
    lay = layout.take(key, axis=1)
    stay, move, fill, shift = lay[:2], lay[2:4], lay[4:6], lay[6]
    move &= digits
    digits &= stay
    digits |= fill
    digits |= move >> shift
    np.left_shift(move, 64 - shift, out=move)  # the bytes that move into the word below
    first += np.signbit(x) * 10
    first += key * 20  # the front word's index: (layout column, sign, first digit)
    head = front.take(first)
    head |= sep
    words = np.empty((x.size, 3), _WORD)
    np.bitwise_or(head, move[0], out=words[:, 0])
    np.bitwise_or(digits[0], move[1], out=words[:, 1])
    words[:, 2] = digits[1]
    pieces, start = [], 0
    for i, value in zip(rest, x[rest].tolist()):
        pieces += [words[start:i].tobytes().translate(None, b"\0"), b"%c%.17g" % (sep[i], value)]
        start = i + 1
    pieces.append(words[start:].tobytes().translate(None, b"\0"))
    return b"".join(pieces)


def write_field_csv(path, grid: GridSpec, kind: str, values: np.ndarray):
    """Snapshot format: header '# nx,ny,hx,hy,kind' then row-major values.

    Each value is written as '%.17g', so read_field_csv returns it bit for bit
    (-0.0 and subnormals included); the bytes are those of
    np.savetxt(fh, values, fmt="%.17g", delimiter=",").  Rows are formatted
    in blocks of at most _CSV_BLOCK_VALUES values (one row if longer), so no
    whole-array text is built; each row's text starts with the '\\n' that ends
    the line before it."""
    values = np.asarray(values, dtype=float)
    _check_kind(kind, values.shape, grid.nx, grid.ny)
    rows = max(1, _CSV_BLOCK_VALUES // values.shape[1])
    sep = np.full((rows, values.shape[1]), ord(","), _WORD)
    sep[:, 0] = ord("\n")
    with open(path, "wb") as fh:
        fh.write(f"# {grid.nx},{grid.ny},{grid.hx:.17g},{grid.hy:.17g},{kind}".encode())
        for start in range(0, values.shape[0], rows):
            block = values[start:start + rows]
            fh.write(_g17_text(block, sep[: len(block)].ravel()))
        fh.write(b"\n")


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
