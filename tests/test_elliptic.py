"""Solver oracles: closed-form symbols, dense LU comparisons, path agreement."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from chns.elliptic import (
    ChOperatorSpec,
    HelmholtzSpec,
    apply_ch_operator,
    apply_helmholtz_operator,
    cell_inverse,
    cell_transform,
    ch_mu_residual,
    face_inverse,
    face_transform,
    helmholtz_residual,
    project,
    solve_neumann_poisson,
)
from chns.errors import CompatibilityError, InputDataError, SolverConvergenceError
from chns.grid import (
    CellField,
    GridSpec,
    MacVector,
    div_face_to_cell,
    grad_cell_to_face,
    lap_velocity,
    norm_l2_cell,
    norm_l2_face,
)
from chns.model import chemical_potential
from oracle_tools import (
    cg_ch_system,
    cg_neumann_poisson,
    cg_velocity_helmholtz,
    dense_neumann_solve,
    field_bytes,
    full_cell,
    mat_face_to_face,
    mat_from_cell_op,
    normal_boundary_max,
    pack_face,
    ref_apply_ch_operator,
    ref_apply_helmholtz_operator,
    ref_cell_transform,
    ref_chemical_potential,
    ref_face_transform,
    ref_helmholtz_residual,
    ref_minus_scaled_grad,
    run_fresh_python,
    solve_ch_system,
    solve_velocity_helmholtz,
    unpack_face,
    with_signed_zeros,
)

RNG = np.random.default_rng(7)


def zero_mean_cell(grid, rng=RNG):
    d = rng.standard_normal((grid.nx, grid.ny))
    return CellField(grid, d - d.mean())


# ---------------------------------------------------------------------------
# Neumann Poisson
# ---------------------------------------------------------------------------


def test_poisson_zero_rhs():
    g = GridSpec(8, 8)
    psi, rep = solve_neumann_poisson(CellField.zeros(g))
    assert norm_l2_cell(psi) == 0.0 and rep.residual == 0.0


def test_poisson_eigenfield_closed_form():
    g = GridSpec(16, 16)
    rhs = CellField.from_function(g, lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y))
    lam = -(2.0 / g.hx**2) * (1.0 - np.cos(np.pi * g.hx)) - (2.0 / g.hy**2) * (
        1.0 - np.cos(np.pi * g.hy)
    )
    psi, _ = solve_neumann_poisson(rhs)
    assert np.allclose(psi.data, rhs.data / lam, atol=1e-13)
    # cross-check by applying the forward stencil
    from chns.grid import lap_cell

    assert norm_l2_cell(lap_cell(psi) - rhs) <= 1e-10 * norm_l2_cell(rhs)


def test_poisson_matches_dense_lu_8x8():
    g = GridSpec(8, 8)
    rhs = zero_mean_cell(g)
    psi, _ = solve_neumann_poisson(rhs)
    ref = dense_neumann_solve(g, rhs)
    assert norm_l2_cell(psi - ref) <= 1e-10 * max(1.0, norm_l2_cell(ref))


def test_poisson_transform_and_cg_agree():
    g = GridSpec(24, 16)
    rhs = zero_mean_cell(g)
    a, _ = solve_neumann_poisson(rhs)
    b, _, iters = cg_neumann_poisson(rhs, tol=1e-12)
    assert iters > 0
    assert norm_l2_cell(a - b) <= 1e-10 * max(1.0, norm_l2_cell(a))


def test_poisson_compatibility_violation():
    g = GridSpec(8, 8)
    with pytest.raises(CompatibilityError):
        solve_neumann_poisson(full_cell(g, 1.0))


def test_poisson_small_mean_projected_and_reported():
    g = GridSpec(8, 8)
    rhs = zero_mean_cell(g)
    rhs.data += 1e-12 * norm_l2_cell(rhs)
    psi, rep = solve_neumann_poisson(rhs)
    assert rep.mean_defect != 0.0
    assert abs(psi.data.mean()) <= 1e-14


def test_poisson_rejects_nan():
    g = GridSpec(8, 8)
    bad = CellField.zeros(g)
    bad.data[2, 3] = np.nan
    with pytest.raises(InputDataError):
        solve_neumann_poisson(bad)


# ---------------------------------------------------------------------------
# phase operator
# ---------------------------------------------------------------------------


def test_ch_identity_at_zero_mobility():
    g = GridSpec(8, 8)
    rhs = zero_mean_cell(g)
    phi, _ = solve_ch_system(ChOperatorSpec(mobility_dt=0.0, gamma_eff=1.0), rhs)
    assert np.allclose(phi.data, rhs.data, atol=1e-14)


def test_ch_eigenfield_closed_form():
    g = GridSpec(16, 16)
    spec = ChOperatorSpec(mobility_dt=3e-4, gamma_eff=1.0 + 5.0 / 0.09)
    for k in (1, 4):
        rhs = CellField.from_function(g, lambda x, y, k=k: np.cos(k * np.pi * x))
        lam = -(2.0 / g.hx**2) * (1.0 - np.cos(k * np.pi * g.hx))
        sigma = 1.0 + spec.mobility_dt * lam**2 - spec.mobility_dt * spec.gamma_eff * lam
        phi, _ = solve_ch_system(spec, rhs)
        assert np.allclose(phi.data, rhs.data / sigma, rtol=1e-11)


def test_ch_matches_dense_lu_8x8():
    g = GridSpec(8, 8)
    spec = ChOperatorSpec(mobility_dt=1e-5, gamma_eff=56.55)
    rhs = zero_mean_cell(g)
    mat = mat_from_cell_op(g, lambda f: apply_ch_operator(spec, f))
    ref = np.linalg.solve(mat, rhs.data.ravel()).reshape(8, 8)
    phi, _ = solve_ch_system(spec, rhs)
    assert norm_l2_cell(phi - CellField(g, ref)) <= 1e-9 * max(1.0, np.abs(ref).max())


def test_ch_transform_and_cg_agree():
    g = GridSpec(12, 12)
    spec = ChOperatorSpec(mobility_dt=1e-5, gamma_eff=10.0)
    rhs = zero_mean_cell(g)
    a, _ = solve_ch_system(spec, rhs)
    b, _, iters = cg_ch_system(spec, rhs, tol=1e-12)
    assert iters > 0
    assert norm_l2_cell(a - b) <= 1e-10 * max(1.0, norm_l2_cell(a))


# ---------------------------------------------------------------------------
# velocity Helmholtz
# ---------------------------------------------------------------------------


def random_rhs_face(grid, rng=RNG):
    return MacVector(
        grid,
        rng.standard_normal((grid.nx + 1, grid.ny)),
        rng.standard_normal((grid.nx, grid.ny + 1)),
    )


def test_helmholtz_zero_rhs():
    g = GridSpec(8, 8)
    out, _ = solve_velocity_helmholtz(HelmholtzSpec(visc_dt=1e-4), MacVector.zeros(g))
    assert norm_l2_face(out) == 0.0


def test_helmholtz_identity_limit():
    g = GridSpec(12, 12)
    rhs = random_rhs_face(g)
    rhs.u[0, :] = rhs.u[-1, :] = 0.0
    rhs.v[:, 0] = rhs.v[:, -1] = 0.0
    out, _ = solve_velocity_helmholtz(HelmholtzSpec(visc_dt=1e-12), rhs)
    assert norm_l2_face(out - rhs) <= 1e-8 * norm_l2_face(rhs)


def test_helmholtz_matches_dense_lu_8x8():
    g = GridSpec(8, 8)
    spec = HelmholtzSpec(visc_dt=2e-4)
    rhs = random_rhs_face(g)
    mat = mat_face_to_face(g, lambda w: apply_helmholtz_operator(spec, w))
    rhs_vec = pack_face(rhs)
    # interior equations only: zero the boundary data entries
    interior = rhs.copy()
    interior.u[0, :] = interior.u[-1, :] = 0.0
    interior.v[:, 0] = interior.v[:, -1] = 0.0
    ref = unpack_face(g, np.linalg.solve(mat, pack_face(interior)))
    out, _ = solve_velocity_helmholtz(spec, rhs)
    assert norm_l2_face(out - ref) <= 1e-10 * max(1.0, norm_l2_face(ref))
    assert normal_boundary_max(out) == 0.0
    del rhs_vec


def test_helmholtz_transform_and_cg_agree():
    g = GridSpec(12, 10)
    spec = HelmholtzSpec(visc_dt=5e-4)
    rhs = random_rhs_face(g)
    a, _ = solve_velocity_helmholtz(spec, rhs)
    b, _, iters = cg_velocity_helmholtz(spec, rhs, tol=1e-12)
    assert iters > 0
    assert norm_l2_face(a - b) <= 1e-10 * max(1.0, norm_l2_face(a))


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


def test_project_leaves_divergence_free_input():
    g = GridSpec(16, 16)
    w = random_rhs_face(g)
    w.u[0, :] = w.u[-1, :] = 0.0
    w.v[:, 0] = w.v[:, -1] = 0.0
    u, _, _ = project(w, 0.01)
    u2, psi2, _ = project(u, 0.01)
    assert norm_l2_cell(psi2) <= 1e-10 * max(1.0, norm_l2_face(u))
    assert norm_l2_face(u2 - u) <= 1e-10 * max(1.0, norm_l2_face(u))


def test_project_annihilates_pure_gradients():
    g = GridSpec(16, 16)
    chi = zero_mean_cell(g)
    w = grad_cell_to_face(chi)
    u, _, _ = project(w, 1.0)
    assert norm_l2_face(u) <= 1e-10 * max(1.0, norm_l2_face(w))


def test_project_divergence_residual():
    """The projection of a no-penetration w is divergence-free and reports a
    rounding-level mean_defect; with an outflow of 0.5 through one wall face,
    the report's mean_defect is that face's flux, 0.5 * hy."""
    g = GridSpec(16, 16)
    for _ in range(3):
        w = random_rhs_face(g)
        w.u[0, :] = w.u[-1, :] = 0.0
        w.v[:, 0] = w.v[:, -1] = 0.0
        u, _, report = project(w, 0.05)
        assert norm_l2_cell(div_face_to_cell(u)) <= 1e-10 * norm_l2_face(w) / min(g.hx, g.hy)
        assert normal_boundary_max(u) == 0.0
        assert abs(report.mean_defect) <= 1e-13
        w.u[-1, 3] = 0.5
        _, _, report = project(w, 0.05)
        assert abs(report.mean_defect - 0.5 * g.hy) <= 1e-13


def test_solver_roundtrip_residuals_reported():
    g = GridSpec(16, 16)
    rhs = zero_mean_cell(g)
    _, rep = solve_neumann_poisson(rhs)
    assert rep.residual <= 1e-12
    _, rep = solve_ch_system(ChOperatorSpec(1e-5, 56.55), rhs)
    assert rep.residual <= 1e-12
    _, rep = solve_velocity_helmholtz(HelmholtzSpec(1e-4), random_rhs_face(g))
    assert rep.residual <= 1e-12


def test_residual_checks_reject_a_nan_field():
    """A NaN residual compares false against any bound; the checks must still fail it."""
    g = GridSpec(8, 6)
    nan, zero = full_cell(g, np.nan), CellField.zeros(g)
    for phi, mu in ((nan, zero), (zero, nan)):
        with pytest.raises(SolverConvergenceError):
            ch_mu_residual(ChOperatorSpec(mobility_dt=1e-3, gamma_eff=1.0), phi, mu, zero)
    w = MacVector.zeros(g)
    w.u[1:-1, :] = np.nan
    with pytest.raises(SolverConvergenceError):
        helmholtz_residual(HelmholtzSpec(visc_dt=1e-3), w, MacVector.zeros(g))


@settings(max_examples=30, deadline=None)
@given(nx=st.integers(4, 20), ny=st.integers(4, 20), lx=st.floats(0.5, 2.0), ly=st.floats(0.5, 2.0),
       k=st.floats(1e-4, 10.0), gamma_eff=st.floats(0.5, 60.0), seed=st.integers(0, 2**32 - 1))
@example(nx=8, ny=8, lx=1.0, ly=0.5, k=0.01, gamma_eff=56.6, seed=0)
def test_projection_and_operators_equal_their_reference_compositions_bytewise(nx, ny, lx, ly, k, gamma_eff, seed):
    """The in-place forward operators, chemical potential, velocity check and
    projection return the bytes of the container arithmetic they replaced,
    signed zeros included."""
    g = GridSpec(nx, ny, x1=lx, y1=ly)
    assume(g.hx != g.hy)
    rng = np.random.default_rng(seed)
    phi = CellField(g, with_signed_zeros(rng, (nx, ny)))
    w = MacVector(g, with_signed_zeros(rng, (nx + 1, ny)), with_signed_zeros(rng, (nx, ny + 1)))
    ch, hz = ChOperatorSpec(mobility_dt=k, gamma_eff=gamma_eff), HelmholtzSpec(visc_dt=k)
    assert field_bytes(apply_ch_operator(ch, phi)) == field_bytes(ref_apply_ch_operator(ch, phi))
    assert field_bytes(apply_helmholtz_operator(hz, w)) == field_bytes(ref_apply_helmholtz_operator(hz, w))
    f = CellField(g, with_signed_zeros(rng, (nx, ny)))
    assert (field_bytes(chemical_potential(phi, gamma_eff, f))
            == field_bytes(ref_chemical_potential(phi, gamma_eff, f)))
    w.u[[0, -1], :] = np.copysign(0.0, rng.standard_normal((2, ny)))  # signed-zero walls, as the step's u~ has
    w.v[:, [0, -1]] = np.copysign(0.0, rng.standard_normal((nx, 2)))
    rhs = ref_apply_helmholtz_operator(hz, w)  # A w, its interior perturbed, its walls fresh boundary data
    for r in (rhs.u[1:-1, :], rhs.v[:, 1:-1]):
        r *= 1.0 + 1e-14 * rng.standard_normal(r.shape)
    rhs.u[[0, -1], :] = rng.standard_normal((2, ny))
    rhs.v[:, [0, -1]] = rng.standard_normal((nx, 2))
    ref = ref_helmholtz_residual(hz, w, rhs).residual
    assert (helmholtz_residual(hz, w, rhs).residual == helmholtz_residual(hz, w, rhs, lap_w=lap_velocity(w)).residual
            == ref)
    w.u[[0, -1], :] = 0.0  # no penetration, as the projection requires
    w.v[:, [0, -1]] = 0.0
    u, psi, _ = project(w, k)
    assert field_bytes(u) == field_bytes(ref_minus_scaled_grad(w, k, psi))


@settings(max_examples=40, deadline=None)
@given(nx=st.integers(4, 20), ny=st.integers(4, 20), m=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_stacked_transforms_equal_per_field_calls_bytewise(nx, ny, m, seed):
    """face_transform of m face vectors and cell_transform of a stack of m
    cell fields give, slice by slice, the bytes of one call per vector or
    field and of the per-field scipy calls they replaced, signed zeros
    included, on non-square grids, and leave their arguments unchanged.  Of
    one vector, face_transform gives stacks of one, which face_inverse
    inverts as it does their single slices."""
    assume(nx != ny)
    g = GridSpec(nx, ny)
    rng = np.random.default_rng(seed)
    ws = [MacVector(g, with_signed_zeros(rng, (nx + 1, ny)), with_signed_zeros(rng, (nx, ny + 1))) for _ in range(m)]
    cells = with_signed_zeros(rng, (m, nx, ny))
    before = [field_bytes(w) for w in ws], field_bytes(cells)
    stacked, stacked_cells = face_transform(*ws), cell_transform(cells)
    assert ([field_bytes(w) for w in ws], field_bytes(cells)) == before
    for i, w in enumerate(ws):
        ones = face_transform(w)
        for got, one, ref in zip(stacked, ones, ref_face_transform(w)):
            assert one.shape[0] == 1
            assert field_bytes(got[i]) == field_bytes(one[0]) == field_bytes(ref)
        assert field_bytes(face_inverse(g, ones)) == field_bytes(face_inverse(g, [one[0] for one in ones]))
        assert (field_bytes(stacked_cells[i]) == field_bytes(cell_transform(cells[i]))
                == field_bytes(ref_cell_transform(cells[i])))


# Every call shape the step makes, through chns.elliptic and through scipy.fft as the step called
# it before: the loader reads scipy's private layout, so a scipy that changes it fails here.
_KERNEL_IDENTITY = """
import {first}, {second}
import numpy as np
import scipy.fft as sf
from chns import elliptic as el

def same(got, ref):
    assert (got.dtype, got.shape, got.tobytes()) == (ref.dtype, ref.shape, ref.tobytes())

rng = np.random.default_rng(11)
for shape in ((7, 6), (12, 10)):
    field = rng.standard_normal(shape)
    field[rng.random(shape) < 0.2] = -0.0
    for a in (field, rng.standard_normal((3,) + shape)):
        same(el.dctn(a, type=2, axes=(-2, -1)), sf.dctn(a, type=2, norm="ortho", axes=(-2, -1)))
        ref_axes = None if a.ndim == 2 else (-2, -1)  # the step's former idctn transformed every axis
        same(el.idctn(a, type=2, axes=(-2, -1)), sf.idctn(a, type=2, norm="ortho", axes=ref_axes))
        mine = a.copy()
        assert el.idctn(mine, type=2, axes=(-2, -1), overwrite_x=True) is mine
        same(mine, sf.idctn(a.copy(), type=2, norm="ortho", axes=ref_axes, overwrite_x=True))
    stack = rng.standard_normal((3,) + shape)
    for tx, ty in ((1, 2), (2, 1)):
        mine, ref = stack.copy(), stack.copy()
        assert el.dst(el.dst(mine, type=tx, axis=-2, overwrite_x=True), type=ty, axis=-1, overwrite_x=True) is mine
        ref = sf.dst(sf.dst(ref, type=tx, axis=-2, norm="ortho", overwrite_x=True),
                     type=ty, axis=-1, norm="ortho", overwrite_x=True)
        same(mine, ref)
        once = el.idst(field, type=ty, axis=-1)
        same(once, sf.idst(field, type=ty, axis=1, norm="ortho"))
        twice = once.copy()
        assert el.idst(twice, type=tx, axis=-2, overwrite_x=True) is twice
        same(twice, sf.idst(once, type=tx, axis=0, norm="ortho", overwrite_x=True))
"""


@pytest.mark.parametrize("first, second", [("scipy.fft", "chns.elliptic"), ("chns.elliptic", "scipy.fft")])
def test_transforms_are_scipy_fft_bitwise(first, second):
    """chns.elliptic's dctn, idctn, dst and idst give scipy.fft's bytes at
    norm="ortho" for every call shape the step makes, in place where scipy
    is, on odd and even sizes, with either module imported first (each order
    in a fresh interpreter)."""
    run_fresh_python(_KERNEL_IDENTITY.format(first=first, second=second))


def test_transforms_leave_their_arguments_unchanged():
    """Only temporaries a function owns are overwritten: callers reuse the
    arrays they pass, as phase_substeps reuses phi0_hat after cell_inverse,
    and the step its right-hand sides after their stacked transforms."""
    g = GridSpec(9, 8)
    rng = np.random.default_rng(3)
    a = with_signed_zeros(rng, (9, 8))
    w = MacVector(g, with_signed_zeros(rng, (10, 8)), with_signed_zeros(rng, (9, 9)))
    w2 = MacVector(g, with_signed_zeros(rng, (10, 8)), with_signed_zeros(rng, (9, 9)))
    stack = with_signed_zeros(rng, (2, 9, 8))
    before = field_bytes(a), field_bytes(w), field_bytes(w2), field_bytes(stack)
    coeffs, face_coeffs = cell_transform(a), face_transform(w)
    cell_transform(stack)
    face_transform(w, w2)
    assert (field_bytes(a), field_bytes(w), field_bytes(w2), field_bytes(stack)) == before
    before = field_bytes(coeffs), [field_bytes(c) for c in face_coeffs]
    cell_inverse(coeffs)
    face_inverse(g, face_coeffs)
    assert (field_bytes(coeffs), [field_bytes(c) for c in face_coeffs]) == before
