"""One time step of the first-order fully decoupled scheme.

Every nonlinear term is taken explicitly from level n and multiplied by one of
two scalar recombination factors,

    xi1 = r^{n+1} / sqrt(E1(phi^n) + delta),      xi2 = exp(t^{n+1}/T) q^{n+1},

so the update for (phi, mu, u~) is linear and splits by superposition into
three independent substep families:

  substep 0 carries the lagged data (phi^n, u^n, grad p^n),
  substep 1 carries the phase coupling (advection of phi, F'(phi^n), mu grad phi),
  substep 2 carries the velocity convection (u . grad u).

Each family costs one fourth-order phase solve (families 0 and 1; family 2 is
identically zero) and one velocity Helmholtz solve.  The explicit terms are
evaluated once per step and shared by the substeps and the scalar system.  The
two scalars are then fixed by a 2x2 linear system obtained by substituting the
superposition into the auxiliary-variable updates

    (r^{n+1}-r^n)/dt = [ (F'(phi^n), d_t phi^{n+1}) + (mu^{n+1}, u^n.grad phi^n)
                         - (u~^{n+1}, mu^n grad phi^n) ] / (2 sqrt(E1+delta)),
    (q^{n+1}-q^n)/dt = -q^{n+1}/T + exp(t^{n+1}/T) (u^n.grad u^n, u~^{n+1}),

which reads only phi_i, mu_i and u~_i.  The step finishes by recombining
u~ = u~_0 + xi1 u~_1 + xi2 u~_2 and projecting it once,

    u^{n+1} = u~ - dt grad psi,   lap psi = div u~ / dt,   p^{n+1} = p^n + psi;

the projection is linear, so this equals projecting each family and
recombining.  Because the same discrete quadratures appear in the field
equations and in the scalar updates, the pairings cancel exactly and the step
dissipates the modified energy for every dt.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp

from .elliptic import (
    ChOperatorSpec,
    HelmholtzSpec,
    project,
    solve_ch_system,
    solve_velocity_helmholtz,
)
from .errors import SingularSystemError
from .grid import (
    CellField,
    MacVector,
    advect_scalar,
    advect_velocity,
    chemical_force,
    dot_cell,
    dot_face,
    grad_cell_to_face,
    lap_cell,
)
from .model import PhysParams, SavState, SchemeState, potential_f_prime, sqrt_aux_energy

__all__ = [
    "XiSystem",
    "ExplicitTerms",
    "FirstOrderSubsteps",
    "explicit_terms",
    "ch_substeps",
    "velocity_substeps",
    "assemble_xi_system",
    "solve_xi",
    "step_first_order",
]

DET_GUARD = 1e-14


@dataclass
class XiSystem:
    """Coefficients of  a1*xi1 + a2*xi2 = a0,  b1*xi1 + b2*xi2 = b0."""

    a0: float
    a1: float
    a2: float
    b0: float
    b1: float
    b2: float


@dataclass
class FirstOrderSubsteps:
    phi0: CellField
    mu0: CellField
    phi1: CellField
    mu1: CellField
    ut0: MacVector
    ut1: MacVector
    ut2: MacVector


@dataclass
class ExplicitTerms:
    """The explicit nonlinear data of one step, evaluated once and shared by
    the substeps and the 2x2 system."""

    sq: float  # sqrt(E1(phi) + delta)
    f_prime: CellField
    adv: CellField  # u . grad phi
    chem: MacVector  # mu grad phi
    conv: MacVector  # u . grad u


def explicit_terms(fields, params: PhysParams) -> ExplicitTerms:
    """Explicit terms at fields.phi, fields.mu and fields.u: the level-n state
    for the first-order step, the extrapolants for the BDF2 step."""
    return ExplicitTerms(
        sq=sqrt_aux_energy(fields.phi, params),
        f_prime=potential_f_prime(fields.phi, params),
        adv=advect_scalar(fields.u, fields.phi),
        chem=chemical_force(fields.mu, fields.phi),
        conv=advect_velocity(fields.u),
    )


def _collect(reports, new):
    if reports is not None:
        reports.extend(new)


def ch_substeps(state: SchemeState, params: PhysParams, dt: float, tol: float = 1e-11, reports=None,
                terms: ExplicitTerms | None = None):
    """Phase substeps: (phi0, mu0) carries phi^n, (phi1, mu1) carries the
    explicit advection and potential terms; the third family is identically
    zero and is not materialized.  terms defaults to explicit_terms(state)."""
    terms = terms if terms is not None else explicit_terms(state, params)
    spec = ChOperatorSpec(mobility_dt=params.mobility * dt, gamma_eff=params.gamma_eff)
    ge = params.gamma_eff

    phi0, rep0 = solve_ch_system(spec, state.phi, tol=tol)
    mu0 = -1.0 * lap_cell(phi0) + ge * phi0

    rhs1 = (params.mobility * dt) * lap_cell(terms.f_prime) - dt * terms.adv
    phi1, rep1 = solve_ch_system(spec, rhs1, tol=tol)
    mu1 = -1.0 * lap_cell(phi1) + ge * phi1 + terms.f_prime

    _collect(reports, [rep0, rep1])
    return (phi0, mu0), (phi1, mu1)


def velocity_substeps(state: SchemeState, params: PhysParams, dt: float, tol: float = 1e-11, reports=None,
                      terms: ExplicitTerms | None = None):
    """Intermediate velocities: (I - nu dt lap) u~_i = rhs_i with no-slip walls.
    terms defaults to explicit_terms(state)."""
    terms = terms if terms is not None else explicit_terms(state, params)
    spec = HelmholtzSpec(visc_dt=params.viscosity * dt)

    ut0, rep0 = solve_velocity_helmholtz(spec, state.u - dt * grad_cell_to_face(state.p), tol=tol)
    ut1, rep1 = solve_velocity_helmholtz(spec, dt * terms.chem, tol=tol)
    ut2, rep2 = solve_velocity_helmholtz(spec, (-dt) * terms.conv, tol=tol)

    _collect(reports, [rep0, rep1, rep2])
    return ut0, ut1, ut2


def assemble_xi_system(
    state: SchemeState,
    sub: FirstOrderSubsteps,
    params: PhysParams,
    dt: float,
    pairing_scale: float = 1.0,
    terms: ExplicitTerms | None = None,
) -> XiSystem:
    """Form the 2x2 system for (xi1, xi2) from the auxiliary-variable updates.

    All inner products use the same cell/face quadratures as the field
    equations, which is what makes the energy cancellations exact.
    pairing_scale is a test hook that deliberately mis-weights the
    velocity/chemical-force pairing; values well away from 1 push the step
    outside its dissipation margin so the energy audit can be shown to
    catch a broken cancellation.  terms defaults to explicit_terms(state).
    """
    terms = terms if terms is not None else explicit_terms(state, params)
    sq, f_prime, adv, chem, conv = terms.sq, terms.f_prime, terms.adv, terms.chem, terms.conv

    t_new = state.t + dt
    e_pos = exp(t_new / params.horizon)
    e_neg = exp(-t_new / params.horizon)
    half = 0.5 / sq
    ps = float(pairing_scale)

    a0 = state.r / dt + half * (
        dot_cell(f_prime, sub.phi0 - state.phi) / dt
        + dot_cell(sub.mu0, adv)
        - ps * dot_face(sub.ut0, chem)
    )
    a1 = sq / dt - half * (
        dot_cell(f_prime, sub.phi1) / dt
        + dot_cell(sub.mu1, adv)
        - ps * dot_face(sub.ut1, chem)
    )
    a2 = half * ps * dot_face(sub.ut2, chem)
    b0 = state.q / dt + e_pos * dot_face(conv, sub.ut0)
    b1 = -e_pos * dot_face(conv, sub.ut1)
    b2 = e_neg / dt + e_neg / params.horizon - e_pos * dot_face(conv, sub.ut2)
    return XiSystem(a0=a0, a1=a1, a2=a2, b0=b0, b1=b1, b2=b2)


def solve_xi(sys: XiSystem):
    """Cramer solve of the 2x2 system; a vanishing determinant signals that
    the time step is too large for unique solvability."""
    det = sys.a1 * sys.b2 - sys.a2 * sys.b1
    scale = max(abs(sys.a1 * sys.b2), abs(sys.a2 * sys.b1), 1e-300)
    if abs(det) <= DET_GUARD * scale:
        raise SingularSystemError(
            f"singular recombination system (det={det:.3e}, scale={scale:.3e}); retry with a smaller dt"
        )
    xi1 = (sys.a0 * sys.b2 - sys.a2 * sys.b0) / det
    xi2 = (sys.a1 * sys.b0 - sys.a0 * sys.b1) / det
    return xi1, xi2


def step_first_order(
    state: SchemeState,
    params: PhysParams,
    dt: float,
    tol_poisson: float = 1e-12,
    tol_helmholtz: float = 1e-11,
    reports=None,
    pairing_scale: float = 1.0,
) -> SchemeState:
    """Advance one level: substeps, 2x2 recombination, one projection."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    terms = explicit_terms(state, params)

    (phi0, mu0), (phi1, mu1) = ch_substeps(state, params, dt, tol=tol_helmholtz, reports=reports, terms=terms)
    ut0, ut1, ut2 = velocity_substeps(state, params, dt, tol=tol_helmholtz, reports=reports, terms=terms)
    sub = FirstOrderSubsteps(phi0, mu0, phi1, mu1, ut0, ut1, ut2)
    xi1, xi2 = solve_xi(assemble_xi_system(state, sub, params, dt, pairing_scale=pairing_scale, terms=terms))

    t_new = state.t + dt
    phi_new = phi0 + xi1 * phi1
    mu_new = mu0 + xi1 * mu1
    ut_new = ut0 + xi1 * ut1 + xi2 * ut2
    u_new, psi = project(ut_new, dt, tol=tol_poisson, reports=reports)
    p_new = state.p + psi
    p_new = CellField(p_new.grid, p_new.data - p_new.data.mean())
    sav = SavState(r=xi1 * terms.sq, q=xi2 * exp(-t_new / params.horizon))
    return SchemeState(t=t_new, phi=phi_new, mu=mu_new, u=u_new, u_tilde=ut_new, p=p_new, sav=sav)
