"""One time step of the fully decoupled scheme, in the form both orders share.

Divided by its leading coefficient c0, a BDF update takes backward-Euler form,
and the orders differ only in three inputs: the effective step k = dt/c0, a
lagged level x* holding the history, and an extrapolated level bar(x) for the
explicit terms:

    scheme  k       lagged (phi, u, p, r, q)         extrapolated (phi, mu, u)
    msav1   dt      x^n                              x^n
    msav2   2dt/3   (4x^n - x^{n-1})/3, p* = p^n     2x^n - x^{n-1}

Every nonlinear term is taken at bar(x) and multiplied by one of two scalar
recombination factors,

    xi1 = r^{n+1} / sqrt(E1(bar phi) + delta),      xi2 = exp(t^{n+1}/T) q^{n+1},

so the update for (phi, mu, u~) is linear and splits by superposition into
three substep families: 0 carries the lagged data (phi*, u*, grad p*), 1 the
phase coupling (advection of phi, F'(phi), mu grad phi) and 2 the velocity
convection (u . grad u).  Each costs one fourth-order phase solve (family 2's
is identically zero) and one velocity Helmholtz solve; the explicit terms are
evaluated once per step.  The two scalars are fixed by a 2x2 linear system
obtained by substituting the superposition into the auxiliary updates

    (r^{n+1}-r*)/k = [ (F'(bar phi), (phi^{n+1}-phi*)/k) + (mu^{n+1}, bar u.grad bar phi)
                       - (u~^{n+1}, bar mu grad bar phi) ] / (2 sqrt(E1(bar phi)+delta)),
    (q^{n+1}-q*)/k = -q^{n+1}/T + exp(t^{n+1}/T) (bar u.grad bar u, u~^{n+1}).

The recombined u~ = u~_0 + xi1 u~_1 + xi2 u~_2 is projected once,
u^{n+1} = u~ - k grad psi with lap psi = div u~ / k, which equals projecting
each family and recombining; the backward-Euler step sets p^{n+1} = p^n + psi.
Because the same discrete quadratures appear in the field equations and in the
scalar updates, the pairings cancel exactly and the step dissipates the
modified energy for every dt.
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
    "decoupled_step",
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
    """Explicit terms at the extrapolated level fields.phi, fields.mu and
    fields.u: the level-n state for msav1, 2x^n - x^{n-1} for msav2."""
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


def ch_substeps(lag, terms: ExplicitTerms, params: PhysParams, k: float, tol: float = 1e-11, reports=None):
    """Phase substeps at effective step k: (phi0, mu0) carries lag.phi,
    (phi1, mu1) carries the explicit advection and potential terms; the third
    family is identically zero and is not materialized."""
    spec = ChOperatorSpec(mobility_dt=params.mobility * k, gamma_eff=params.gamma_eff)
    ge = params.gamma_eff

    phi0, rep0 = solve_ch_system(spec, lag.phi, tol=tol)
    mu0 = -1.0 * lap_cell(phi0) + ge * phi0

    rhs1 = (params.mobility * k) * lap_cell(terms.f_prime) - k * terms.adv
    phi1, rep1 = solve_ch_system(spec, rhs1, tol=tol)
    mu1 = -1.0 * lap_cell(phi1) + ge * phi1 + terms.f_prime

    _collect(reports, [rep0, rep1])
    return (phi0, mu0), (phi1, mu1)


def velocity_substeps(lag, terms: ExplicitTerms, params: PhysParams, k: float, tol: float = 1e-11,
                      reports=None):
    """Intermediate velocities: (I - nu k lap) u~_i = rhs_i with no-slip walls,
    family 0 driven by lag.u - k grad lag.p."""
    spec = HelmholtzSpec(visc_dt=params.viscosity * k)

    ut0, rep0 = solve_velocity_helmholtz(spec, lag.u - k * grad_cell_to_face(lag.p), tol=tol)
    ut1, rep1 = solve_velocity_helmholtz(spec, k * terms.chem, tol=tol)
    ut2, rep2 = solve_velocity_helmholtz(spec, (-k) * terms.conv, tol=tol)

    _collect(reports, [rep0, rep1, rep2])
    return ut0, ut1, ut2


def assemble_xi_system(lag, sub: FirstOrderSubsteps, terms: ExplicitTerms, params: PhysParams, k: float,
                       t_new: float) -> XiSystem:
    """Form the 2x2 system for (xi1, xi2) from the auxiliary-variable updates
    at effective step k, with the history lag.r, lag.q and lag.phi.

    All inner products use the same cell/face quadratures as the field
    equations, which is what makes the energy cancellations exact.
    """
    sq, f_prime, adv, chem, conv = terms.sq, terms.f_prime, terms.adv, terms.chem, terms.conv
    e_pos = exp(t_new / params.horizon)
    e_neg = exp(-t_new / params.horizon)
    half = 0.5 / sq

    a0 = lag.r / k + half * (
        dot_cell(f_prime, sub.phi0 - lag.phi) / k
        + dot_cell(sub.mu0, adv)
        - dot_face(sub.ut0, chem)
    )
    a1 = sq / k - half * (
        dot_cell(f_prime, sub.phi1) / k
        + dot_cell(sub.mu1, adv)
        - dot_face(sub.ut1, chem)
    )
    a2 = half * dot_face(sub.ut2, chem)
    b0 = lag.q / k + e_pos * dot_face(conv, sub.ut0)
    b1 = -e_pos * dot_face(conv, sub.ut1)
    b2 = e_neg / k + e_neg / params.horizon - e_pos * dot_face(conv, sub.ut2)
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


def _zero_mean(p: CellField) -> CellField:
    return CellField(p.grid, p.data - p.data.mean())


def decoupled_step(lag, bar, params: PhysParams, k: float, t_new: float, tol_poisson: float = 1e-12,
                   tol_helmholtz: float = 1e-11, reports=None) -> SchemeState:
    """The step both orders share: substeps at effective step k from the
    lagged level lag (phi, u, p, r, q), explicit terms at the extrapolated
    level bar (phi, mu, u), the 2x2 recombination and one projection.

    The returned pressure is lag.p + psi, before the caller's own correction
    and zero-mean normalization.
    """
    if k <= 0:
        raise ValueError("dt must be positive")
    terms = explicit_terms(bar, params)

    (phi0, mu0), (phi1, mu1) = ch_substeps(lag, terms, params, k, tol=tol_helmholtz, reports=reports)
    ut0, ut1, ut2 = velocity_substeps(lag, terms, params, k, tol=tol_helmholtz, reports=reports)
    sub = FirstOrderSubsteps(phi0, mu0, phi1, mu1, ut0, ut1, ut2)
    xi1, xi2 = solve_xi(assemble_xi_system(lag, sub, terms, params, k, t_new))

    ut_new = ut0 + xi1 * ut1 + xi2 * ut2
    u_new, psi = project(ut_new, k, tol=tol_poisson, reports=reports)
    sav = SavState(r=xi1 * terms.sq, q=xi2 * exp(-t_new / params.horizon))
    return SchemeState(t=t_new, phi=phi0 + xi1 * phi1, mu=mu0 + xi1 * mu1, u=u_new, u_tilde=ut_new,
                       p=lag.p + psi, sav=sav)


def step_first_order(state: SchemeState, params: PhysParams, dt: float, tol_poisson: float = 1e-12,
                     tol_helmholtz: float = 1e-11, reports=None) -> SchemeState:
    """Advance one backward-Euler level: the shared step with k = dt, the state
    itself as lagged and extrapolated level, and p^{n+1} = p^n + psi."""
    new = decoupled_step(state, state, params, dt, state.t + dt, tol_poisson, tol_helmholtz, reports)
    new.p = _zero_mean(new.p)
    return new
