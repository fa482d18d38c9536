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
convection (u . grad u); family 2 has no phase part.  The two scalars are
fixed by a 2x2 linear system obtained by substituting the superposition into
the auxiliary updates

    (r^{n+1}-r*)/k = [ (F'(bar phi), (phi^{n+1}-phi*)/k) + (mu^{n+1}, bar u.grad bar phi)
                       - (u~^{n+1}, bar mu grad bar phi) ] / (2 sqrt(E1(bar phi)+delta)),
    (q^{n+1}-q*)/k = -q^{n+1}/T + exp(t^{n+1}/T) (bar u.grad bar u, u~^{n+1}).

Each family solve is diagonal in an orthonormal transform basis (DCT-II for
the phase operator, DST-I x DST-II for the velocity operator), so the step
never leaves transform space until the end: the ten pairings of the 2x2
system are weighted coefficient sums (Parseval), the families are recombined
on coefficients, and each operator costs one inverse transform and one
residual check of the field the step keeps.  Each new field is transformed
once: the velocity right-hand sides (rhs0, chem, conv) as one stack and F'
and adv as another, while phi* is not transformed at all, since every level
carries phi_hat, the coefficients its step inverted into phi (msav2 lags at
(4 phi_hat - phi_hat_prev)/3).  A step thus makes 12 transform calls: 4
forward and 4 inverse face passes, 1 forward and 1 inverse cell transform,
and the projection's 2.  The phase solve is checked in its mu form
phi - phi* - k M lap mu + k xi1 adv = 0, with the mu the level stores.

The recombined u~ = u~_0 + xi1 u~_1 + xi2 u~_2 is projected once,
u^{n+1} = u~ - k grad psi with lap psi = div u~ / k, which equals projecting
each family and recombining; the backward-Euler step sets p^{n+1} = p^n + psi.
Because the same discrete quadratures appear in the field equations and in the
scalar updates, the pairings cancel exactly and the step dissipates the
modified energy for every dt.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import exp, log

import numpy as np

from .elliptic import (
    ChOperatorSpec,
    HelmholtzSpec,
    cell_inverse,
    cell_laplacian_symbol,
    cell_transform,
    ch_inv_symbol,
    ch_mu_residual,
    face_inverse,
    face_transform,
    helmholtz_inv_symbol,
    helmholtz_residual,
    project,
)
from .errors import SingularSystemError, StateError
from .grid import (
    CellField,
    MacVector,
    advect_scalar,
    advect_velocity,
    chemical_force,
    div_face_to_cell,
    dot_cell,
    dot_face,
    lap_cell,
    lap_velocity,
    minus_scaled_grad,
)
from .model import PhysParams, SchemeState, potential_f_prime, sqrt_aux_energy


_DET_GUARD = 1e-14


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


def assemble_xi_system(lag, ch_pairs, vel_pairs, sq: float, params: PhysParams, k: float,
                       t_new: float) -> XiSystem:
    """Form the 2x2 system for (xi1, xi2) from the auxiliary-variable updates
    at effective step k, with the history lag.r and lag.q and the pairings
    of phase_families and velocity_families.  They are the same cell/face
    quadratures as the field equations, which makes the energy cancellations
    exact.  Past t/T = log(DBL_MAX), where exp(t/T) overflows, raises StateError."""
    f_dphi0, f_phi1, mu0_adv, mu1_adv = ch_pairs
    ut_chem, conv_ut = vel_pairs
    try:
        e_pos = exp(t_new / params.horizon)
    except OverflowError:
        raise StateError(f"t/T = {t_new / params.horizon:g} exceeds log(DBL_MAX) = {log(sys.float_info.max):.1f}, "
                         "where exp(t/T) overflows") from None
    e_neg = exp(-t_new / params.horizon)
    half = 0.5 / sq
    a0 = lag.r / k + half * (f_dphi0 / k + mu0_adv - ut_chem[0])
    a1 = sq / k - half * (f_phi1 / k + mu1_adv - ut_chem[1])
    a2 = half * ut_chem[2]
    b0 = lag.q / k + e_pos * conv_ut[0]
    b1 = -e_pos * conv_ut[1]
    b2 = e_neg / k + e_neg / params.horizon - e_pos * conv_ut[2]
    return XiSystem(a0=a0, a1=a1, a2=a2, b0=b0, b1=b1, b2=b2)


def phase_families(lag_hat: np.ndarray, terms: ExplicitTerms, spec: ChOperatorSpec, k: float):
    """DCT coefficients of the phase families phi0 (carrying phi*, whose
    coefficients lag_hat are read and left unchanged) and phi1 (carrying
    k(M lap F' - adv)), and their pairings ((F', phi0 - phi*), (F', phi1),
    (mu0, adv), (mu1, adv)), with mu_i = (gamma_eff - lam) phi_i (+ F' for
    family 1).  F' and adv are transformed as one stack, and a pairing is
    taken once its factors exist, so only the two family arrays outlive the call."""
    g = terms.f_prime.grid
    inv, lam, ge = ch_inv_symbol(g, spec), cell_laplacian_symbol(g), spec.gamma_eff
    f_hat, adv_hat = cell_transform(np.stack((terms.f_prime.data, terms.adv.data)))
    lam_adv = lam * adv_hat
    phi1 = (spec.mobility_dt * lam) * f_hat
    phi1 -= k * adv_hat
    phi1 *= inv
    f_phi1 = float(np.vdot(f_hat, phi1))
    mu1_adv = ge * float(np.vdot(phi1, adv_hat)) - float(np.vdot(phi1, lam_adv)) + float(np.vdot(f_hat, adv_hat))
    phi0 = inv * lag_hat
    mu0_adv = ge * float(np.vdot(phi0, adv_hat)) - float(np.vdot(phi0, lam_adv))
    f_dphi0 = float(np.vdot(f_hat, np.subtract(phi0, lag_hat, out=lam_adv)))  # lam adv is read no more
    return phi0, phi1, tuple(g.cell_area * x for x in (f_dphi0, f_phi1, mu0_adv, mu1_adv))


def velocity_families(rhs0: MacVector, terms: ExplicitTerms, spec: HelmholtzSpec, k: float):
    """Face coefficients of rhs0, chem and conv, as one (u, v) pair of stacks,
    and the pairings ((u~_i, chem), (conv, u~_i)) of u~_0 = H^-1 rhs0,
    u~_1 = H^-1 (k chem) and u~_2 = H^-1 (-k conv): H is symmetric, so five
    sums against sym*c and sym*v, sym its inverse symbol, give all six."""
    g = rhs0.grid
    hats = face_transform(rhs0, terms.chem, terms.conv)
    wc = cc = cv = vw = vv = 0.0
    for (w_hat, c_hat, v_hat), sym in zip(hats, helmholtz_inv_symbol(g, spec)):
        s = sym * c_hat
        wc += float(np.vdot(w_hat, s))
        cc += float(np.vdot(c_hat, s))
        cv += float(np.vdot(v_hat, s))
        s = np.multiply(sym, v_hat, out=s)
        vw += float(np.vdot(w_hat, s))
        vv += float(np.vdot(v_hat, s))
    wc, cc, cv, vw, vv = (g.cell_area * x for x in (wc, cc, cv, vw, vv))
    return hats, ((wc, k * cc, -k * cv), (vw, k * cv, -k * vv))


def solve_xi(sys: XiSystem):
    """Cramer solve of the 2x2 system; a vanishing determinant signals that
    the time step is too large for unique solvability."""
    det = sys.a1 * sys.b2 - sys.a2 * sys.b1
    scale = max(abs(sys.a1 * sys.b2), abs(sys.a2 * sys.b1), 1e-300)
    if abs(det) <= _DET_GUARD * scale:
        raise SingularSystemError(
            f"singular recombination system (det={det:.3e}, scale={scale:.3e}); retry with a smaller dt"
        )
    xi1 = (sys.a0 * sys.b2 - sys.a2 * sys.b0) / det
    xi2 = (sys.a1 * sys.b0 - sys.a0 * sys.b1) / det
    return xi1, xi2


def zero_mean(p: CellField) -> CellField:
    p.data -= p.data.mean()  # in place: every caller owns p
    return p


def decoupled_step(lag, lag_hat: np.ndarray, rhs_u: MacVector, bar, params: PhysParams, k: float,
                   t_new: float) -> SchemeState:
    """The step both orders share: the substep families at effective step k
    from the lagged level lag (phi, p, r, q), the DCT coefficients lag_hat
    of lag.phi and the momentum right-hand side rhs_u = u* - k grad p*,
    which the step consumes (a caller that builds lag_hat and rhs_u in the
    call hands over their only references, so each goes after its last
    use), explicit terms at the extrapolated level bar (phi, mu, u), the 2x2
    recombination, one inverse transform and one residual check per
    operator, and one projection.

    Returns the new level and div u~.  The level's pressure is lag.p + psi,
    before the caller's own correction and zero-mean normalization; it carries
    the phase, Helmholtz and Poisson reports of the step, and <-lap u~, u~>
    and |div u~|^2 of its u~ from the Laplacian of the Helmholtz residual
    check and the divergence the projection consumes.
    """
    terms = explicit_terms(bar, params)
    del bar  # only the explicit terms read the extrapolated level
    g = lag.phi.grid
    ch_spec = ChOperatorSpec(mobility_dt=params.mobility * k, gamma_eff=params.gamma_eff)
    h_spec = HelmholtzSpec(visc_dt=params.viscosity * k)

    phi_hat, phi1_hat, ch_pairs = phase_families(lag_hat, terms, ch_spec, k)
    del lag_hat
    hats, vel_pairs = velocity_families(rhs_u, terms, h_spec, k)
    xi1, xi2 = solve_xi(assemble_xi_system(lag, ch_pairs, vel_pairs, terms.sq, params, k, t_new))

    # recombine on coefficients, then one inverse transform and one residual check per operator,
    # the velocity first; each array is updated in place at its last use, as the step sets a run's peak memory
    w_hat = []
    for sym in helmholtz_inv_symbol(g, h_spec):
        w, c, v = hats.pop(0)  # a component's stack, freed before face_inverse: a is an array of its own
        a = np.multiply(c, xi1 * k)
        a += w
        a -= np.multiply(v, xi2 * k, out=v)
        a *= sym
        w_hat.append(a)
    del hats, w, c, v
    ut_new = face_inverse(g, w_hat)
    del w_hat
    for a, c, v in zip(rhs_u.arrays, terms.chem.arrays, terms.conv.arrays):
        a += np.multiply(c, xi1 * k, out=c)  # the right-hand side of u~
        a -= np.multiply(v, xi2 * k, out=v)
    del terms.chem, terms.conv
    lap_ut = lap_velocity(ut_new)  # shared by the residual check and the audit's <-lap u~, u~>
    h_report = helmholtz_residual(h_spec, ut_new, rhs_u, lap_w=lap_ut)
    del rhs_u
    grad_ut_sq = -dot_face(lap_ut, ut_new)
    del lap_ut
    phi_hat += np.multiply(phi1_hat, xi1, out=phi1_hat)  # the level's phi_hat
    del phi1_hat
    phi = CellField(g, cell_inverse(phi_hat))
    mu = lap_cell(phi)  # -lap phi + gamma_eff phi + xi1 F'
    mu.data *= -1.0
    mu.data += params.gamma_eff * phi.data
    mu.data += np.multiply(terms.f_prime.data, xi1, out=terms.f_prime.data)
    rhs_mu = terms.adv  # phi* - k xi1 adv, the right-hand side of the mu form
    rhs_mu.data *= -k * xi1
    rhs_mu.data += lag.phi.data
    ch_report = ch_mu_residual(ch_spec, phi, mu, rhs_mu)
    r_new, q_new = xi1 * terms.sq, xi2 * exp(-t_new / params.horizon)
    del rhs_mu, terms
    div_ut = div_face_to_cell(ut_new)  # shared by the projection, the audit's |div u~|^2 and the caller
    u_new, psi, p_report = project(ut_new, k, div_w=div_ut)
    psi.data += lag.p.data  # the level's pressure lag.p + psi
    new = SchemeState(t=t_new, phi=phi, mu=mu, u=u_new, u_tilde=ut_new, p=psi, r=r_new, q=q_new, phi_hat=phi_hat,
                      reports=(ch_report, h_report, p_report), grad_ut_sq=grad_ut_sq,
                      div_ut_sq=dot_cell(div_ut, div_ut))
    return new, div_ut


def step_first_order(state: SchemeState, params: PhysParams, dt: float) -> SchemeState:
    """Advance one backward-Euler level: the shared step with k = dt, the state
    itself as lagged and extrapolated level, and p^{n+1} = p^n + psi."""
    new = decoupled_step(state, state.phi_hat, minus_scaled_grad(state.u, dt, state.p), state, params, dt,
                         state.t + dt)[0]
    zero_mean(new.p)
    return new
