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
    def full(cls, grid, value):
        out = cls.zeros(grid)
        out.data.fill(float(value))
        return out

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
# ---------------------------------------------------------------------------


def grad_cell_to_face(p: CellField) -> MacVector:
    """Centered gradient of a cell scalar, evaluated on faces.

    Boundary faces carry zero normal derivative (homogeneous Neumann), so the
    result always has vanishing normal boundary components.
    """
    g, d = p.grid, p.data
    out = MacVector.zeros(g)
    for a, o, h in ((d, out.u, g.hx), (d.T, out.v.T, g.hy)):
        inner = np.subtract(a[1:], a[:-1], out=o[1:-1])
        inner /= h
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
    g = w.grid
    out = w.u[1:, :] - w.u[:-1, :]
    out /= g.hx
    dy = w.v[:, 1:] - w.v[:, :-1]
    out += np.divide(dy, g.hy, out=dy)
    return CellField(g, out)


def _wall_diff(a, h, out, odd):
    """Into out, the differences along axis 0 of a, with one ghost beyond each
    end, divided by h: ghost = -a (odd reflection) or 0 (a zero wall value)."""
    np.subtract(a[1:], a[:-1], out=out[1:-1])
    np.subtract(a[0], -a[0] if odd else 0.0, out=out[0])
    np.subtract(-a[-1] if odd else 0.0, a[-1], out=out[-1])
    out /= h
    return out


def lap_cell(f: CellField) -> CellField:
    """Five-point Laplacian of a cell scalar with mirror (zero-flux) ghosts.

    It is div(grad(f)) bit for bit, with no face field built, so it is
    symmetric negative semidefinite and shares its eigenbasis with the fast
    transform solvers.  The y direction works on transposed views."""
    g, d = f.grid, f.data
    out, lap_y = np.empty(d.shape), np.empty(d.shape)
    for a, o, h in ((d, out, g.hx), (d.T, lap_y.T, g.hy)):
        grad = a[1:] - a[:-1]
        grad /= h
        _wall_diff(grad, h, o, odd=False)
    out += lap_y
    return CellField(g, out)


def lap_velocity(w: MacVector) -> MacVector:
    """Component-wise five-point Laplacian with no-slip ghosting.

    Normal components use the stored on-wall values (zero for velocities);
    tangential components use odd-reflection ghosts.  Output rows on the
    walls are zero: those entries are boundary data, not unknowns.
    """
    g = w.grid
    out = MacVector(g, np.empty_like(w.u), np.empty_like(w.v))
    # a's rows run normal to the walls it stores, its columns along the walls it ghosts; v on transposed views
    for a, o, h2n, h2t in ((w.u, out.u, g.hx * g.hx, g.hy * g.hy), (w.v.T, out.v.T, g.hy * g.hy, g.hx * g.hx)):
        o[0, :] = o[-1, :] = 0.0
        two = 2.0 * a[1:-1, :]
        normal = np.subtract(a[2:, :], two, out=o[1:-1, :])
        normal += a[:-2, :]
        normal /= h2n
        tang = np.empty_like(two)
        np.subtract(a[1:-1, 2:], two[:, 1:-1], out=tang[:, 1:-1])
        tang[:, 1:-1] += a[1:-1, :-2]
        tang[:, 0] = a[1:-1, 1] - two[:, 0] - a[1:-1, 0]
        tang[:, -1] = -a[1:-1, -1] - two[:, -1] + a[1:-1, -2]
        tang /= h2t
        normal += tang
    return out


def advect_scalar(w: MacVector, f: CellField) -> CellField:
    """Conservative advection div(w f) with centered face interpolation of f.

    For discretely divergence-free w this equals (w . grad) f; for any w with
    zero normal boundary values the result integrates to zero over the domain
    (exact mass conservation by telescoping).
    """
    _require_same_grid(w, f)
    d = f.data
    flux = MacVector(f.grid, np.empty(w.u.shape), np.empty(w.v.shape))
    for a, o, wa in ((d, flux.u, w.u), (d.T, flux.v.T, w.v.T)):
        o[1:-1] = 0.5 * (a[1:] + a[:-1])
        o[0], o[-1] = a[0], a[-1]
        o *= wa
    return div_face_to_cell(flux)


def _avg4(b):
    """b averaged over the four points around each interior cross-component face."""
    out = b[:-1, :-1] + b[1:, :-1]
    out += b[:-1, 1:]
    out += b[1:, 1:]
    out *= 0.25
    return out


def advect_velocity(w: MacVector) -> MacVector:
    """Centered convection (w . grad) w evaluated at the face locations.

    Cross components are brought to the evaluation point by 4-point
    averages; tangential derivatives near walls use odd-reflection ghosts,
    as separate wall slices.  Boundary (normal) faces return zero.
    """
    g = w.grid
    out = MacVector(g, np.empty_like(w.u), np.empty_like(w.v))
    # the v component is the u component's stencil on transposed views; each 4-point average is summed
    # before transposing, as floating-point addition is not associative
    for a, cross, o, hn, ht in ((w.u, _avg4(w.v), out.u, g.hx, g.hy), (w.v.T, _avg4(w.u).T, out.v.T, g.hy, g.hx)):
        o[0, :] = o[-1, :] = 0.0
        ai = a[1:-1, :]
        dtan = np.empty_like(cross)  # tangential central difference
        np.subtract(ai[:, 2:], ai[:, :-2], out=dtan[:, 1:-1])
        dtan[:, 0] = ai[:, 1] + ai[:, 0]
        dtan[:, -1] = -ai[:, -1] - ai[:, -2]
        dtan /= 2.0 * ht
        cross *= dtan
        own = np.subtract(a[2:, :], a[:-2, :], out=o[1:-1, :])
        own /= 2.0 * hn
        own *= ai
        own += cross
    return out


def chemical_force(mu: CellField, phi: CellField) -> MacVector:
    """Face-centered mu * grad(phi): 2-point average of mu times the face
    difference of phi.  Zero on boundary faces."""
    _require_same_grid(mu, phi)
    g = mu.grid
    out = MacVector.zeros(g)
    for m, p, o, h in ((mu.data, phi.data, out.u, g.hx), (mu.data.T, phi.data.T, out.v.T, g.hy)):
        o[1:-1] = 0.5 * (m[1:] + m[:-1]) * (p[1:] - p[:-1]) / h
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
    interior face differences: wall faces carry no gradient."""
    g, d = f.grid, f.data
    dx, dy = d[1:, :] - d[:-1, :], d[:, 1:] - d[:, :-1]
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
    g = w.grid
    out = _wall_diff(w.v, g.hx, np.empty((g.nx + 1, g.ny + 1)), odd=True)
    out -= _wall_diff(w.u.T, g.hy, np.empty((g.nx + 1, g.ny + 1)).T, odd=True).T
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
#   * Text.  Each value fills a 32-byte slot of four little-endian words, NUL
#     where its text has no byte, and bytes.translate drops the NULs:
#         0      '-' of a negative value
#         1-5    '0.' and up to three zeros, when -4 <= X < 0
#         7      the first digit
#         8-23   the other 16 digits less trailing zeros; when a fraction
#                follows the integer digits, the '.' before the first fraction
#                digit, and the digits from there on one byte later (the
#                last one in byte 24)
#         25-28  'e-05' or 'e-06', when X < -4
#         29     ',' or '\n'
#     Tables indexed by (significant digits, X) hold the masks and characters
#     that place them.
#   * Zeros are '0' and '-0'.  Subnormals, |x| <= 1e-6, |x| >= 1e17, inf and
#     nan go through '%.17g' itself, one value at a time.

_CSV_BLOCK_VALUES = 4096  # values per _g17_text call: its temporaries (0.7 MB at most) stay in L2 cache
_WORD = np.dtype("<u8")
_EXPONENTS = range(-6, 17)  # X of the values formatted with arrays; (nd, X) is layout column 23 * (nd - 1) + X + 6
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter for doubles


def _word(text, at=0):
    """A little-endian word holding the ASCII text from byte `at` on."""
    return int.from_bytes(b"\0" * at + text, "little")


def _byte_mask(start, stop):
    """A 128-bit mask of bytes start..stop-1."""
    return (1 << 8 * stop) - (1 << 8 * start) if stop > start else 0


def _layout_table():
    """Per (significant digits nd, X): the masks of digits 1-16 that keep their
    bytes (2 words) and that move one byte on (2 words), the '.' (2 words),
    the prefix word and the exponent word."""
    rows = []
    for nd in range(1, 18):
        for x in _EXPONENTS:
            prefix = suffix = b""
            if x < -4:
                integer, suffix = 1, b"e-0%d" % -x
            elif x < 0:
                integer, prefix = 0, b"0." + b"0" * (-x - 1)
            else:
                integer = x + 1
            kept = max(nd, integer) - 1  # digits 1..kept are written
            dot = integer - 1 if 1 <= integer <= kept else 16  # the '.' goes before digit dot + 1
            masks = (_byte_mask(0, min(kept, dot)), _byte_mask(dot, kept), ord(".") << 8 * dot if dot < 16 else 0)
            words = [m >> shift & (2**64 - 1) for m in masks for shift in (0, 64)]
            rows.append(words + [_word(prefix, 1), _word(suffix, 1)])
    return np.array(rows, _WORD).T.copy()


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
    """(layout, chars_lo, chars_hi, last_digit), built at the first write, so a
    run that writes no CSV snapshot neither builds nor holds them."""
    return _layout_table(), *_digit_tables()


_FIRST = np.array([_word(b"-" * neg) | _word(b"%d" % d, 7) for neg in (0, 1) for d in range(10)], _WORD)
_COMMA, _NEWLINE = _word(b",", 5), _word(b"\n", 5)


def _split(a):
    c = a * _SPLIT
    hi = c - (c - a)
    return hi, a - hi


_POW10 = 10.0 ** np.arange(23)
_POW10_HI, _POW10_LO = _split(_POW10)


def _times_pow10(a, s):
    """(hi, lo) with hi + lo == a * 10**s exactly and hi the rounded product."""
    hi = a * _POW10.take(s)
    ah, al = _split(a)
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
    s = s.astype(np.int64)
    np.subtract(16, s, out=s)
    np.clip(s, 0, 22, out=s)
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
    """The bytes of '%.17g' % x for each x of block in C order, each followed
    by its separator word's byte (_COMMA or _NEWLINE)."""
    x = block.ravel()
    layout, chars_lo, chars_hi, last_digit = _g17_tables()
    d, key, rest = _significand(x)
    first = d // 10**16
    d -= first * 10**16
    groups = np.empty((4, x.size), np.int64)  # digits 5-8, 13-16, 1-4, 9-12
    np.floor_divide(d, 10**8, out=groups[0])
    np.subtract(d, groups[0] * 10**8, out=groups[1])
    np.floor_divide(groups[:2], 10**4, out=groups[2:])
    groups[:2] -= groups[2:] * 10**4
    key += np.max([table.take(g) for table, g in zip(last_digit, groups)], axis=0)
    digits = chars_lo.take(groups[2:])  # digits 1-8 and 9-16
    digits |= chars_hi.take(groups[:2])
    del groups  # freed before the words are built: the block's peak stays lower
    words = np.empty((4, x.size), _WORD)
    first += np.signbit(x) * 10
    _FIRST.take(first, out=words[0])
    words[0] |= layout[6].take(key)
    move = digits & layout[2:4].take(key, axis=1)
    digits &= layout[0:2].take(key, axis=1)
    np.left_shift(move, 8, out=words[1:3])
    words[1:3] |= digits
    words[1:3] |= layout[4:6].take(key, axis=1)
    words[2] |= move[0] >> 56
    np.right_shift(move[1], 56, out=words[3])
    words[3] |= layout[7].take(key)
    words[3] |= sep
    for i, value in zip(rest, x[rest].tolist()):
        words[:3, i] = np.frombuffer(("%.17g" % value).encode().ljust(24, b"\0"), _WORD)
    return words.T.tobytes().translate(None, b"\0")


def write_field_csv(path, grid: GridSpec, kind: str, values: np.ndarray):
    """Snapshot format: header '# nx,ny,hx,hy,kind' then row-major values.

    Each value is written as '%.17g', so read_field_csv returns it bit for bit
    (-0.0 and subnormals included); the bytes are those of
    np.savetxt(fh, values, fmt="%.17g", delimiter=",").  Rows are formatted
    in blocks of at most _CSV_BLOCK_VALUES values (one row if longer), so no
    whole-array text is built."""
    values = np.asarray(values, dtype=float)
    _check_kind(kind, values.shape, grid.nx, grid.ny)
    rows = max(1, _CSV_BLOCK_VALUES // values.shape[1])
    sep = np.full((rows, values.shape[1]), _COMMA, _WORD)
    sep[:, -1] = _NEWLINE
    with open(path, "wb") as fh:
        fh.write(f"# {grid.nx},{grid.ny},{grid.hx:.17g},{grid.hy:.17g},{kind}\n".encode())
        for start in range(0, values.shape[0], rows):
            block = values[start:start + rows]
            fh.write(_g17_text(block, sep[: len(block)].ravel()))


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
