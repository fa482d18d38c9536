"""One time step of the second-order fully decoupled scheme.

Same decoupling as the first-order stepper, with three upgrades:

  * BDF2 time derivatives (3x^{n+1} - 4x^n + x^{n-1}) / (2 dt);
  * second-order extrapolation bar(x) = 2x^n - x^{n-1} of every explicit
    nonlinear quantity (phase advection, potential slope, chemical force,
    velocity convection);
  * rotational pressure correction: the recombined intermediate velocity
    u~ = u~_0 + xi1 u~_1 + xi2 u~_2 is projected once,

        u^{n+1} = u~ - (2 dt/3) grad psi,   lap psi = 3 div u~ / (2 dt),

    and the pressure takes the divergence correction nu*div(u~),

        p^{n+1} = p^n + psi - nu div u~,

    which lifts the pressure accuracy to the rotational-scheme rate.  The
    projection is linear, so this equals projecting each substep family and
    recombining.

The bookkeeping sequence g^{n+1} = g^n + nu div(u~^{n+1}) (g^0 = 0) and
H^{n+1} = p^{n+1} + g^{n+1} never feeds back into the dynamics; it exists so
the energy audit can evaluate exactly the quantities its decay estimate is
stated in.

The second level is produced by a short first-order run across the first
interval (see bootstrap), which does not degrade the overall second-order
accuracy.
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
from .first_order import XiSystem, _collect, explicit_terms, solve_xi, step_first_order
from .grid import (
    CellField,
    MacVector,
    div_face_to_cell,
    dot_cell,
    dot_face,
    grad_cell_to_face,
    lap_cell,
)
from .model import PhysParams, SavState, SchemeState, SchemeState2

__all__ = [
    "Extrapolants",
    "SecondOrderSubsteps",
    "bootstrap",
    "extrapolants",
    "step_second_order",
]


@dataclass
class Extrapolants:
    phi: CellField
    mu: CellField
    u: MacVector


@dataclass
class SecondOrderSubsteps:
    phi0: CellField
    mu0: CellField
    phi1: CellField
    mu1: CellField
    ut0: MacVector
    ut1: MacVector
    ut2: MacVector


def bootstrap(state0: SchemeState, params: PhysParams, dt: float, substeps: int = 4,
              tol_poisson: float = 1e-12, tol_helmholtz: float = 1e-11, reports=None,
              trace=None) -> SchemeState2:
    """Build the two-level state by running the first-order stepper across the
    first interval (substeps equal steps of dt/substeps).

    One whole-interval step (substeps=1) already preserves second-order global
    accuracy at the final time, but its backward-Euler treatment of the stiff
    fourth-order operator imprints a startup error on the crossover modes
    (mobility*dt*lam^2 ~ 1) that floors max-in-time Cauchy norms near dt^1.6;
    subdividing the bootstrap interval pushes that startup below the BDF2
    error at practical step sizes.

    Starts the g/H sequence: g^0 = 0, so g^1 = nu div(u~^1), H^1 = p^1 + g^1.
    trace, if given, receives (prev, new, substep_dt, reports) per substep so
    callers can audit each substep against the first-order energy law.
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    sub_dt = dt / substeps
    s1 = state0
    for _ in range(substeps):
        sub_reports = []
        new = step_first_order(
            s1, params, sub_dt, tol_poisson=tol_poisson, tol_helmholtz=tol_helmholtz,
            reports=sub_reports,
        )
        if reports is not None:
            reports.extend(sub_reports)
        if trace is not None:
            trace.append((s1, new, sub_dt, sub_reports))
        s1 = new
    g1 = params.viscosity * div_face_to_cell(s1.u_tilde)
    return SchemeState2(
        t=s1.t,
        phi=s1.phi,
        mu=s1.mu,
        u=s1.u,
        u_tilde=s1.u_tilde,
        p=s1.p,
        sav=s1.sav,
        phi_prev=state0.phi,
        mu_prev=state0.mu,
        u_prev=state0.u,
        sav_prev=SavState(state0.sav.r, state0.sav.q),
        g=g1,
        H=s1.p + g1,
    )


def extrapolants(state: SchemeState2) -> Extrapolants:
    """Second-order extrapolation 2x^n - x^{n-1} of phi, mu and u."""
    return Extrapolants(
        phi=2.0 * state.phi - state.phi_prev,
        mu=2.0 * state.mu - state.mu_prev,
        u=2.0 * state.u - state.u_prev,
    )


def step_second_order(
    state: SchemeState2,
    params: PhysParams,
    dt: float,
    tol_poisson: float = 1e-12,
    tol_helmholtz: float = 1e-11,
    reports=None,
    pairing_scale: float = 1.0,
) -> SchemeState2:
    """Advance one BDF2 level with rotational pressure correction."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    bar = extrapolants(state)
    terms = explicit_terms(bar, params)
    ge = params.gamma_eff
    two_thirds_dt = 2.0 * dt / 3.0

    # phase substeps, BDF2 left-hand side scaled to unit identity coefficient
    ch_spec = ChOperatorSpec(mobility_dt=params.mobility * two_thirds_dt, gamma_eff=ge)
    rhs0 = (1.0 / 3.0) * (4.0 * state.phi - state.phi_prev)
    phi0, repc0 = solve_ch_system(ch_spec, rhs0, tol=tol_helmholtz)
    mu0 = -1.0 * lap_cell(phi0) + ge * phi0
    rhs1 = (params.mobility * two_thirds_dt) * lap_cell(terms.f_prime) - two_thirds_dt * terms.adv
    phi1, repc1 = solve_ch_system(ch_spec, rhs1, tol=tol_helmholtz)
    mu1 = -1.0 * lap_cell(phi1) + ge * phi1 + terms.f_prime
    _collect(reports, [repc0, repc1])

    # velocity substeps
    h_spec = HelmholtzSpec(visc_dt=params.viscosity * two_thirds_dt)
    vrhs0 = (1.0 / 3.0) * (4.0 * state.u - state.u_prev) - two_thirds_dt * grad_cell_to_face(state.p)
    ut0, repv0 = solve_velocity_helmholtz(h_spec, vrhs0, tol=tol_helmholtz)
    ut1, repv1 = solve_velocity_helmholtz(h_spec, two_thirds_dt * terms.chem, tol=tol_helmholtz)
    ut2, repv2 = solve_velocity_helmholtz(h_spec, (-two_thirds_dt) * terms.conv, tol=tol_helmholtz)
    _collect(reports, [repv0, repv1, repv2])

    sub = SecondOrderSubsteps(phi0, mu0, phi1, mu1, ut0, ut1, ut2)
    xi1, xi2 = solve_xi(_assemble_xi_system2(state, sub, terms, params, dt, pairing_scale))

    t_new = state.t + dt
    phi_new = phi0 + xi1 * phi1
    mu_new = mu0 + xi1 * mu1
    ut_new = ut0 + xi1 * ut1 + xi2 * ut2
    # rotational projection: one Poisson solve for the recombined velocity
    u_new, psi = project(ut_new, two_thirds_dt, tol=tol_poisson, reports=reports)
    nu_div = params.viscosity * div_face_to_cell(ut_new)
    p_new = state.p + psi - nu_div
    p_new = CellField(p_new.grid, p_new.data - p_new.data.mean())
    g_new = state.g + nu_div
    sav_new = SavState(r=xi1 * terms.sq, q=xi2 * exp(-t_new / params.horizon))

    return SchemeState2(
        t=t_new,
        phi=phi_new,
        mu=mu_new,
        u=u_new,
        u_tilde=ut_new,
        p=p_new,
        sav=sav_new,
        phi_prev=state.phi,
        mu_prev=state.mu,
        u_prev=state.u,
        sav_prev=SavState(state.sav.r, state.sav.q),
        g=g_new,
        H=p_new + g_new,
    )


def _assemble_xi_system2(state, sub, terms, params, dt, pairing_scale):
    """2x2 system from the BDF2 auxiliary-variable updates with extrapolated
    pairings; same quadratures as the field equations."""
    sq, f_prime, adv, chem, conv = terms.sq, terms.f_prime, terms.adv, terms.chem, terms.conv
    two_dt = 2.0 * dt
    t_new = state.t + dt
    e_pos = exp(t_new / params.horizon)
    e_neg = exp(-t_new / params.horizon)
    half = 0.5 / sq
    ps = float(pairing_scale)
    r_n, r_nm1 = state.sav.r, state.sav_prev.r
    q_n, q_nm1 = state.sav.q, state.sav_prev.q

    bdf_phi0 = 3.0 * sub.phi0 - 4.0 * state.phi + state.phi_prev
    a0 = (4.0 * r_n - r_nm1) / two_dt + half * (
        dot_cell(f_prime, bdf_phi0) / two_dt
        + dot_cell(sub.mu0, adv)
        - ps * dot_face(sub.ut0, chem)
    )
    a1 = 3.0 * sq / two_dt - half * (
        3.0 * dot_cell(f_prime, sub.phi1) / two_dt
        + dot_cell(sub.mu1, adv)
        - ps * dot_face(sub.ut1, chem)
    )
    a2 = half * ps * dot_face(sub.ut2, chem)
    b0 = (4.0 * q_n - q_nm1) / two_dt + e_pos * dot_face(conv, sub.ut0)
    b1 = -e_pos * dot_face(conv, sub.ut1)
    b2 = 3.0 * e_neg / two_dt + e_neg / params.horizon - e_pos * dot_face(conv, sub.ut2)
    return XiSystem(a0=a0, a1=a1, a2=a2, b0=b0, b1=b1, b2=b2)
