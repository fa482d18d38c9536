"""Operator identities, stencil symbols, and snapshot files."""

import io
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from chns.errors import DimensionMismatchError
from chns.grid import (
    _CSV_BLOCK_VALUES,
    CellField,
    GridSpec,
    MacVector,
    advect_scalar,
    advect_velocity,
    chemical_force,
    curl_at_nodes,
    div_face_to_cell,
    dot_cell,
    dot_face,
    grad_cell_to_face,
    grad_sq_cell,
    lap_cell,
    lap_velocity,
    minus_scaled_grad,
    norm_l2_cell,
    norm_l2_face,
    norm_l2_nodes,
    read_field_bin,
    read_field_csv,
    write_field_bin,
    write_field_csv,
)

from oracle_tools import (
    field_bytes,
    full_cell,
    ref_advect_scalar,
    ref_advect_velocity,
    ref_chemical_force,
    ref_curl_at_nodes,
    ref_div,
    ref_grad,
    ref_grad_sq_cell,
    ref_lap_cell,
    ref_lap_velocity,
    ref_minus_scaled_grad,
    with_signed_zeros,
)

RNG = np.random.default_rng(20240817)


def random_cell(grid, rng=RNG):
    return CellField(grid, rng.standard_normal((grid.nx, grid.ny)))


def random_noslip(grid, rng=RNG):
    """Random velocity with zero normal boundary values."""
    w = MacVector(
        grid,
        rng.standard_normal((grid.nx + 1, grid.ny)),
        rng.standard_normal((grid.nx, grid.ny + 1)),
    )
    w.u[0, :] = w.u[-1, :] = 0.0
    w.v[:, 0] = w.v[:, -1] = 0.0
    return w


def vortex_pair(grid):
    """Smooth solenoidal no-slip benchmark field."""
    return MacVector.from_functions(
        grid,
        lambda x, y: np.sin(np.pi * x) ** 2 * np.sin(2 * np.pi * y),
        lambda x, y: -np.sin(np.pi * y) ** 2 * np.sin(2 * np.pi * x),
    )


# ---------------------------------------------------------------------------
# gradient / divergence / Laplacians
# ---------------------------------------------------------------------------


def test_grad_of_constant_is_zero():
    g = GridSpec(12, 9)
    w = grad_cell_to_face(full_cell(g, 3.7))
    assert np.all(w.u == 0.0) and np.all(w.v == 0.0)


def test_grad_exact_for_linear_field():
    g = GridSpec(8, 8)
    p = CellField.from_function(g, lambda x, y: x + 0.0 * y)
    w = grad_cell_to_face(p)
    assert np.allclose(w.u[1:-1, :], 1.0, atol=1e-14)
    assert np.all(w.u[0, :] == 0.0) and np.all(w.u[-1, :] == 0.0)
    assert np.allclose(w.v, 0.0, atol=1e-14)


def test_grad_div_adjointness():
    g = GridSpec(17, 13)
    for _ in range(5):
        p = random_cell(g)
        w = random_noslip(g)
        lhs = dot_face(grad_cell_to_face(p), w)
        rhs = -dot_cell(p, div_face_to_cell(w))
        scale = norm_l2_cell(p) * norm_l2_face(w)
        assert abs(lhs - rhs) <= 1e-13 * scale


def test_div_of_zero():
    g = GridSpec(6, 7)
    assert norm_l2_cell(div_face_to_cell(MacVector.zeros(g))) == 0.0


def test_div_grad_converges_to_laplacian():
    errs = []
    for n in (16, 32, 64):
        g = GridSpec(n, n)
        p = CellField.from_function(g, lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y))
        exact = CellField.from_function(
            g, lambda x, y: -2 * np.pi**2 * np.cos(np.pi * x) * np.cos(np.pi * y)
        )
        errs.append(norm_l2_cell(div_face_to_cell(grad_cell_to_face(p)) - exact))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(rates >= 1.9)


def test_lap_cell_constant_and_eigenfield():
    g = GridSpec(16, 16)
    assert norm_l2_cell(lap_cell(full_cell(g, 2.0))) <= 1e-13
    for k in (1, 3, 7):
        f = CellField.from_function(g, lambda x, y, k=k: np.cos(k * np.pi * x))
        lam = -(2.0 / g.hx**2) * (1.0 - np.cos(k * np.pi * g.hx))
        out = lap_cell(f)
        assert np.allclose(out.data, lam * f.data, atol=1e-9 * abs(lam))


def test_lap_cell_symmetry():
    g = GridSpec(11, 14)
    for _ in range(5):
        f, h = random_cell(g), random_cell(g)
        lhs = dot_cell(lap_cell(f), h)
        rhs = dot_cell(f, lap_cell(h))
        scale = abs(lhs) + abs(rhs) + 1.0
        assert abs(lhs - rhs) <= 1e-13 * scale


def test_lap_cell_negative_semidefinite():
    g = GridSpec(10, 10)
    for _ in range(5):
        f = random_cell(g)
        assert dot_cell(lap_cell(f), f) <= 1e-12


def test_lap_velocity_zero_and_negative_definite():
    g = GridSpec(9, 12)
    assert norm_l2_face(lap_velocity(MacVector.zeros(g))) == 0.0
    for _ in range(5):
        w = random_noslip(g)
        assert dot_face(lap_velocity(w), w) <= 1e-12


def test_lap_velocity_manufactured_order2():
    errs = []
    for n in (16, 32, 64):
        g = GridSpec(n, n)
        w = vortex_pair(g)
        exact = MacVector.from_functions(
            g,
            lambda x, y: 2 * np.pi**2 * np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y)
            - 4 * np.pi**2 * np.sin(np.pi * x) ** 2 * np.sin(2 * np.pi * y),
            lambda x, y: 4 * np.pi**2 * np.sin(np.pi * y) ** 2 * np.sin(2 * np.pi * x)
            - 2 * np.pi**2 * np.cos(2 * np.pi * y) * np.sin(2 * np.pi * x),
        )
        diff = lap_velocity(w) - exact
        # compare on interior faces; the operator leaves wall rows at zero
        diff.u[0, :] = diff.u[-1, :] = 0.0
        diff.v[:, 0] = diff.v[:, -1] = 0.0
        errs.append(norm_l2_face(diff))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(rates >= 1.9)


# ---------------------------------------------------------------------------
# advection and forcing
# ---------------------------------------------------------------------------


def test_advect_scalar_zero_velocity():
    g = GridSpec(8, 8)
    f = random_cell(g)
    assert norm_l2_cell(advect_scalar(MacVector.zeros(g), f)) == 0.0


def test_advect_scalar_constant_field_divfree():
    g = GridSpec(32, 32)
    w = vortex_pair(g)
    # make w discretely divergence-free by removing its gradient part
    from chns.elliptic import project

    w, _, _ = project(w, 1.0)
    out = advect_scalar(w, full_cell(g, 4.2))
    assert np.max(np.abs(out.data)) <= 1e-12


def test_advect_scalar_total_flux_telescopes():
    g = GridSpec(13, 11)
    for _ in range(5):
        w = random_noslip(g)
        f = random_cell(g)
        total = g.cell_area * float(np.sum(advect_scalar(w, f).data))
        assert abs(total) <= 1e-12 * norm_l2_face(w) * norm_l2_cell(f)


def test_advect_velocity_zero():
    g = GridSpec(8, 9)
    out = advect_velocity(MacVector.zeros(g))
    assert norm_l2_face(out) == 0.0


def test_advect_velocity_manufactured_order2():
    errs = []
    for n in (16, 32, 64):
        g = GridSpec(n, n)
        w = vortex_pair(g)

        def u_fn(x, y):
            return np.sin(np.pi * x) ** 2 * np.sin(2 * np.pi * y)

        def v_fn(x, y):
            return -np.sin(np.pi * y) ** 2 * np.sin(2 * np.pi * x)

        def ux(x, y):
            return np.pi * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)

        def uy(x, y):
            return 2 * np.pi * np.sin(np.pi * x) ** 2 * np.cos(2 * np.pi * y)

        def vx(x, y):
            return -2 * np.pi * np.sin(np.pi * y) ** 2 * np.cos(2 * np.pi * x)

        def vy(x, y):
            return -np.pi * np.sin(2 * np.pi * y) * np.sin(2 * np.pi * x)

        exact = MacVector.from_functions(
            g,
            lambda x, y: u_fn(x, y) * ux(x, y) + v_fn(x, y) * uy(x, y),
            lambda x, y: u_fn(x, y) * vx(x, y) + v_fn(x, y) * vy(x, y),
        )
        diff = advect_velocity(w) - exact
        diff.u[0, :] = diff.u[-1, :] = 0.0
        diff.v[:, 0] = diff.v[:, -1] = 0.0
        errs.append(norm_l2_face(diff))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(rates >= 1.9)


def test_chemical_force_constant_phi():
    g = GridSpec(8, 8)
    out = chemical_force(random_cell(g), full_cell(g, 1.5))
    assert norm_l2_face(out) == 0.0


def test_chemical_force_constant_mu_factors():
    g = GridSpec(10, 10)
    phi = random_cell(g)
    c = 2.5
    out = chemical_force(full_cell(g, c), phi)
    ref = c * grad_cell_to_face(phi)
    assert np.allclose(out.u, ref.u, atol=1e-13) and np.allclose(out.v, ref.v, atol=1e-13)


def test_chemical_force_quadratures_agree_at_h2():
    # face quadrature of <mu grad phi, w> vs cell quadrature after averaging
    errs = []
    for n in (16, 32, 64):
        g = GridSpec(n, n)
        mu = CellField.from_function(g, lambda x, y: np.cos(np.pi * x) * np.cos(2 * np.pi * y))
        phi = CellField.from_function(g, lambda x, y: np.cos(2 * np.pi * x) * np.cos(np.pi * y))
        w = vortex_pair(g)
        face_val = dot_face(chemical_force(mu, phi), w)
        gp = grad_cell_to_face(phi)
        gx = 0.5 * (gp.u[1:, :] + gp.u[:-1, :])
        gy = 0.5 * (gp.v[:, 1:] + gp.v[:, :-1])
        wx = 0.5 * (w.u[1:, :] + w.u[:-1, :])
        wy = 0.5 * (w.v[:, 1:] + w.v[:, :-1])
        cell_val = g.cell_area * float(np.sum(mu.data * (gx * wx + gy * wy)))
        errs.append(abs(face_val - cell_val))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(rates >= 1.8)


# ---------------------------------------------------------------------------
# linearity
# ---------------------------------------------------------------------------


def test_operators_are_linear():
    g = GridSpec(9, 9)
    a, b = 0.7, -1.3
    f1, f2 = random_cell(g), random_cell(g)
    w1, w2 = random_noslip(g), random_noslip(g)

    for op in (lap_cell, grad_cell_to_face):
        combo = op(a * f1 + b * f2)
        parts = a * op(f1) + b * op(f2)
        if isinstance(combo, CellField):
            assert np.allclose(combo.data, parts.data, atol=1e-13)
        else:
            assert np.allclose(combo.u, parts.u, atol=1e-13)
            assert np.allclose(combo.v, parts.v, atol=1e-13)

    for op in (div_face_to_cell, lap_velocity):
        combo = op(a * w1 + b * w2)
        parts = a * op(w1) + b * op(w2)
        if isinstance(combo, CellField):
            assert np.allclose(combo.data, parts.data, atol=1e-12)
        else:
            assert np.allclose(combo.u, parts.u, atol=1e-12)
            assert np.allclose(combo.v, parts.v, atol=1e-12)


# ---------------------------------------------------------------------------
# norms and curl
# ---------------------------------------------------------------------------


def test_norms_trivial_values():
    g = GridSpec(16, 16)
    assert norm_l2_cell(CellField.zeros(g)) == 0.0
    assert abs(norm_l2_cell(full_cell(g, 1.0)) - 1.0) <= 1e-14


def test_grid_mismatch_raises():
    a = CellField.zeros(GridSpec(8, 8))
    b = CellField.zeros(GridSpec(8, 10))
    with pytest.raises(DimensionMismatchError):
        dot_cell(a, b)
    with pytest.raises(DimensionMismatchError):
        dot_face(MacVector.zeros(GridSpec(8, 8)), MacVector.zeros(GridSpec(8, 8, x1=2.0)))


@settings(max_examples=30, deadline=None)
@given(nx=st.integers(4, 12), ny=st.integers(4, 12), lx=st.floats(0.5, 2.0), ly=st.floats(0.5, 2.0),
       seed=st.integers(0, 2**32 - 1))
def test_reductions_equal_their_materialised_forms(nx, ny, lx, ly, seed):
    """The fused reductions equal the forms that build their temporaries:
    grad_sq_cell(f) is dot_face of grad_cell_to_face(f) with itself, and
    dot_cell/dot_face are the h-weighted np.sum(a * b), symmetric in a and b."""
    g = GridSpec(nx, ny, x1=lx, y1=ly)
    assume(g.hx != g.hy)
    rng = np.random.default_rng(seed)
    f, a, b = (random_cell(g, rng) for _ in range(3))
    gf = grad_cell_to_face(f)
    assert abs(grad_sq_cell(f) - dot_face(gf, gf)) <= 1e-13 * dot_face(gf, gf)

    w, z = (MacVector(g, rng.standard_normal((nx + 1, ny)), rng.standard_normal((nx, ny + 1))) for _ in range(2))

    def norm(*arrays):
        return np.sqrt(g.cell_area * sum(np.sum(x * x) for x in arrays))

    cell_sum = g.cell_area * np.sum(a.data * b.data)
    face_sum = g.cell_area * (np.sum(w.u * z.u) + np.sum(w.v * z.v))
    assert abs(dot_cell(a, b) - cell_sum) <= 1e-13 * norm(a.data) * norm(b.data)
    assert abs(dot_face(w, z) - face_sum) <= 1e-13 * norm(w.u, w.v) * norm(z.u, z.v)
    assert dot_cell(a, b) == dot_cell(b, a) and dot_face(w, z) == dot_face(z, w)


def laid_out(a, layout):
    """a's values in an array of the given memory layout: "C" order, "F"
    (Fortran) order, or a "slice" of columns of a wider array."""
    if layout == "F":
        return np.asfortranarray(a)
    if layout == "slice":
        wide = np.zeros((a.shape[0], a.shape[1] + 3))
        wide[:, 1:-2] = a
        return wide[:, 1:-2]
    return a


def call_recording_warnings(fn):
    """fn()'s result, and whether the call raised a RuntimeWarning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn()
    return out, any(issubclass(c.category, RuntimeWarning) for c in caught)


@settings(max_examples=60, deadline=None)
@given(nx=st.integers(4, 20), ny=st.integers(4, 20), lx=st.floats(0.5, 2.0), ly=st.floats(0.5, 2.0),
       k=st.floats(1e-4, 10.0), scale=st.sampled_from([1.0, 1e150, 1e300]),
       layout=st.sampled_from(["C", "F", "slice"]), seed=st.integers(0, 2**32 - 1))
@example(nx=8, ny=8, lx=1.0, ly=0.5, k=0.01, scale=1.0, layout="C", seed=0)
@example(nx=4, ny=9, lx=1.0, ly=2.0, k=0.5, scale=1.0, layout="C", seed=1)  # columns of 8 values: 64-byte strides
# the smallest grids, where each row-end lane of the flat stencils sits next to both walls
@example(nx=4, ny=4, lx=1.0, ly=2.0, k=0.5, scale=1.0, layout="slice", seed=2)
@example(nx=4, ny=5, lx=1.0, ly=0.5, k=0.5, scale=1e300, layout="F", seed=3)
@example(nx=5, ny=4, lx=2.0, ly=1.0, k=0.5, scale=1e150, layout="C", seed=4)
def test_kernels_equal_their_reference_compositions_bytewise(nx, ny, lx, ly, k, scale, layout, seed):
    """Each pad-free, in-place stencil returns the bytes of the composition it
    replaced (tests/oracle_tools.py), signed zeros included, on any grid and
    any field: wall entries are not zeroed, and a fifth of the entries are
    +0.0 and a fifth -0.0.  The fields' arrays may be in any memory layout,
    and at magnitudes up to 1e300, where products overflow, each kernel warns
    (RuntimeWarning) only if its reference does: no junk lane of a flat
    stencil reaches a result or raises a floating-point warning."""
    g = GridSpec(nx, ny, x1=lx, y1=ly)
    assume(g.hx != g.hy)
    rng = np.random.default_rng(seed)

    def draw(shape):
        return laid_out(scale * with_signed_zeros(rng, shape), layout)

    f, p = (CellField(g, draw((nx, ny))) for _ in range(2))
    w = MacVector(g, draw((nx + 1, ny)), draw((nx, ny + 1)))
    pairs = {
        "grad_cell_to_face": (lambda: grad_cell_to_face(f), lambda: ref_grad(f)),
        "div_face_to_cell": (lambda: div_face_to_cell(w), lambda: ref_div(w)),
        "lap_cell": (lambda: lap_cell(f), lambda: ref_lap_cell(f)),
        "lap_velocity": (lambda: lap_velocity(w), lambda: ref_lap_velocity(w)),
        "advect_velocity": (lambda: advect_velocity(w), lambda: ref_advect_velocity(w)),
        "advect_scalar": (lambda: advect_scalar(w, f), lambda: ref_advect_scalar(w, f)),
        "chemical_force": (lambda: chemical_force(f, p), lambda: ref_chemical_force(f, p)),
        "curl_at_nodes": (lambda: curl_at_nodes(w), lambda: ref_curl_at_nodes(w)),
        "minus_scaled_grad": (lambda: minus_scaled_grad(w, k, p), lambda: ref_minus_scaled_grad(w, k, p)),
        "grad_sq_cell": (lambda: grad_sq_cell(f), lambda: ref_grad_sq_cell(f)),
    }
    for name, (kernel, reference) in pairs.items():
        (got, got_warned), (want, want_warned) = map(call_recording_warnings, (kernel, reference))
        if name == "grad_sq_cell":
            assert got == want, name
        else:
            assert field_bytes(got) == field_bytes(want), name
        assert want_warned or not got_warned, name


@settings(max_examples=30, deadline=None)
@given(nx=st.integers(4, 12), ny=st.integers(4, 12), s=st.floats(-10.0, 10.0) | st.sampled_from([0.0, -0.0]),
       seed=st.integers(0, 2**32 - 1))
def test_field_algebra_is_numpy_on_each_array_bytewise(nx, ny, s, seed):
    """copy, +, - and scalar * (either side) of both field types give numpy's
    bytes on each of their arrays, signed zeros included, as a new field of
    the same type that shares no memory with its operands."""
    g = GridSpec(nx, ny)
    rng = np.random.default_rng(seed)
    cells = [CellField(g, with_signed_zeros(rng, (nx, ny))) for _ in range(2)]
    faces = [MacVector(g, with_signed_zeros(rng, (nx + 1, ny)), with_signed_zeros(rng, (nx, ny + 1)))
             for _ in range(2)]
    for a, b in (cells, faces):
        xs, ys = ((x.data,) if isinstance(x, CellField) else (x.u, x.v) for x in (a, b))
        cases = {
            "a + b": (a + b, [x + y for x, y in zip(xs, ys)]),
            "a - b": (a - b, [x - y for x, y in zip(xs, ys)]),
            "s * a": (s * a, [x * s for x in xs]),
            "a * s": (a * s, [x * s for x in xs]),
            "copy": (a.copy(), [x.copy() for x in xs]),
        }
        for name, (got, want) in cases.items():
            assert type(got) is type(a) and got.grid == g, name
            assert field_bytes(got) == [(x.shape, x.tobytes()) for x in want], name
            got_arrays = (got.data,) if isinstance(got, CellField) else (got.u, got.v)
            assert not any(np.shares_memory(x, y) for x in got_arrays for y in xs + ys), name


def test_curl_of_gradient_vanishes_interior():
    g = GridSpec(12, 12)
    psi = random_cell(g)
    curl = curl_at_nodes(grad_cell_to_face(psi))
    assert np.max(np.abs(curl[1:-1, 1:-1])) <= 1e-12


def test_curl_div_grad_identity_refinement():
    # for the smooth no-slip field: |curl w|^2 + |div w|^2 -> |grad w|^2 = 2 pi^2
    exact = 2.0 * np.pi**2
    errs = []
    for n in (16, 32, 64):
        g = GridSpec(n, n)
        w = vortex_pair(g)
        val = norm_l2_nodes(g, curl_at_nodes(w)) ** 2 + norm_l2_cell(div_face_to_cell(w)) ** 2
        errs.append(abs(val - exact))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(rates >= 1.0)


# ---------------------------------------------------------------------------
# snapshot files
# ---------------------------------------------------------------------------


def test_snapshot_csv_roundtrip(tmp_path):
    g = GridSpec(6, 4)
    f = random_cell(g)
    path = tmp_path / "phi.csv"
    write_field_csv(path, g, "cell", f.data)
    first = path.read_text().splitlines()[0]
    assert first.startswith("#") and first.lstrip("# ").split(",")[:2] == ["6", "4"]
    nx, ny, hx, hy, kind, vals = read_field_csv(path)
    assert (nx, ny, kind) == (6, 4, "cell")
    assert (abs(hx - g.hx) < 1e-15) and (abs(hy - g.hy) < 1e-15)
    assert np.array_equal(vals, f.data)


@pytest.mark.parametrize("kind", ["cell", "face_u", "face_v"])
def test_snapshot_csv_is_savetxt_bytes_and_round_trips_exactly(tmp_path, kind):
    """After its header line, write_field_csv writes the bytes of
    np.savetxt(fmt="%.17g", delimiter=","), and read_field_csv returns every
    value bit for bit: signed zero, subnormals and the extremes included."""
    g = GridSpec(5, 4)
    shape = {"cell": (5, 4), "face_u": (6, 4), "face_v": (5, 5)}[kind]
    rng = np.random.default_rng(17)
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    special = [-0.0, 5e-324, 1e308, -1e308, 0.1, 1.0, rng.random()]
    values.flat[: len(special)] = special
    path = tmp_path / f"{kind}.csv"
    write_field_csv(path, g, kind, values)
    reference = io.BytesIO()
    np.savetxt(reference, values, fmt="%.17g", delimiter=",")
    header, body = path.read_bytes().split(b"\n", 1)
    assert header.startswith(b"# 5,4,") and body == reference.getvalue()
    *_, got_kind, back = read_field_csv(path)
    assert got_kind == kind and back.tobytes() == values.tobytes()


def _csv_body_and_savetxt(directory, kind, values):
    """What write_field_csv writes after its header line for values (shaped
    as a kind field of some grid), and np.savetxt's bytes for them."""
    nx, ny = {"cell": values.shape, "face_u": (values.shape[0] - 1, values.shape[1]),
              "face_v": (values.shape[0], values.shape[1] - 1)}[kind]
    path = Path(directory) / "field.csv"
    write_field_csv(path, GridSpec(nx, ny), kind, values)
    reference = io.BytesIO()
    np.savetxt(reference, values, fmt="%.17g", delimiter=",")
    return path.read_bytes().split(b"\n", 1)[1], reference.getvalue()


@settings(max_examples=100, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["cell", "face_u", "face_v"]),
       nx=st.integers(4, 7), ny=st.integers(4, 7))
def test_snapshot_csv_is_savetxt_bytes_for_any_finite_values(data, kind, nx, ny):
    """Any finite doubles, subnormals, signed zeros and the extremes included,
    on every shape of the three kinds for 4-7 cells a side (GridSpec's least
    is 4); about half the entries are drawn from the range formatted with whole
    arrays."""
    shape = {"cell": (nx, ny), "face_u": (nx + 1, ny), "face_v": (nx, ny + 1)}[kind]
    finite = st.floats(allow_nan=False, allow_infinity=False)
    values = data.draw(hnp.arrays(np.float64, shape, elements=st.one_of(finite, st.floats(-1e17, 1e17))))
    with tempfile.TemporaryDirectory() as directory:
        body, reference = _csv_body_and_savetxt(directory, kind, values)
    assert body == reference


def test_snapshot_csv_is_savetxt_bytes_at_decimal_edges(tmp_path):
    """The doubles where a decimal conversion slips most easily, both signs,
    repeated over two full blocks of the writer and part of a third, whatever
    its block size: the 40 on each side of 10**k for k in [-8, 17] (where
    log10 may miss the decade by one), the powers of two 2**k for k in
    [-80, 60], the ties 2**49 + j/8 that round half to even, and the doubles
    nearest 10**k that lie below it but whose 17 digits round up to 10**k.
    The 24-byte texts, the longest '%.17g' writes, sit at the first and the
    last value of each block and at the end of every third row."""
    steps = np.arange(-40, 41)
    near_decades = (10.0 ** np.arange(-8, 18)).view(np.int64)[:, None] + steps  # one ulp per step
    rounding_up = [float(f"1e{k}") for k in (-305, -243, -176, -175, -174, -79, -78, -73, -70, -14, 98, 129, 153, 220)]
    edges = np.concatenate([near_decades.ravel().view(np.float64), 2.0 ** np.arange(-80, 61),
                            2.0**49 + np.arange(64) / 8, rounding_up])
    edges = np.concatenate([edges, -edges])
    cols = 7
    block_rows = _CSV_BLOCK_VALUES // cols
    rows = 2 * block_rows + block_rows // 2
    values = np.resize(edges, (rows, cols))
    longest = np.array([-2.2250738585072014e-308, -4.9406564584124654e-324, -1.7976931348623157e+308])
    assert all(len(b"%.17g" % x) == 24 for x in longest)
    values[::3, -1] = np.resize(longest, len(values[::3]))
    firsts = np.arange(0, rows, block_rows)
    values[firsts, 0] = longest[0]
    values[np.minimum(firsts + block_rows, rows) - 1, -1] = longest[1]
    body, reference = _csv_body_and_savetxt(tmp_path, "cell", values)
    assert body == reference


def test_snapshot_csv_writer_memory_stays_small(tmp_path):
    """Writing a 321x320 face_u field (0.8 MB of doubles, 2 MB of text)
    allocates at most 4 MB at a time: the text is built a block of rows at a
    time, never for the whole array."""
    g = GridSpec(320, 320)
    values = np.random.default_rng(5).standard_normal((321, 320))
    path = tmp_path / "u.csv"
    write_field_csv(path, g, "face_u", values)
    tracemalloc.start()
    try:
        write_field_csv(path, g, "face_u", values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_snapshot_bin_roundtrip(tmp_path):
    g = GridSpec(5, 7)
    w = random_noslip(g)
    pu, pv = tmp_path / "u.bin", tmp_path / "v.bin"
    write_field_bin(pu, g, "face_u", w.u)
    write_field_bin(pv, g, "face_v", w.v)
    *_, kind_u, vals_u = read_field_bin(pu)
    *_, kind_v, vals_v = read_field_bin(pv)
    assert kind_u == "face_u" and kind_v == "face_v"
    assert np.array_equal(vals_u, w.u) and np.array_equal(vals_v, w.v)
