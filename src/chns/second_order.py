"""One time step of the second-order fully decoupled scheme.

The BDF2 update (3x^{n+1} - 4x^n + x^{n-1}) / (2 dt), divided by its leading
coefficient 3/2, is the shared step of first_order with the effective step
k = 2 dt/3, the lagged level (4x^n - x^{n-1})/3 of phi, u, r and q (the
pressure lags at p^n), and the extrapolated level 2x^n - x^{n-1} of phi, mu
and u, at which every explicit nonlinear quantity is taken.  The projection
u^{n+1} = u~ - (2 dt/3) grad psi is followed by the rotational pressure
correction

    p^{n+1} = p^n + psi - nu div u~,

which lifts the pressure accuracy to the rotational-scheme rate.

The bookkeeping sequence g^{n+1} = g^n + nu div(u~^{n+1}) (g^0 = 0) never
feeds back into the dynamics; it exists so the energy audit can evaluate
exactly the quantities its decay estimate is stated in, H^{n+1} = p^{n+1} +
g^{n+1} among them.

The second level is produced by a short first-order run across the first
interval (see bootstrap), which does not degrade the overall second-order
accuracy.
"""

from __future__ import annotations

from types import SimpleNamespace

from .first_order import StepRecord, decoupled_step, explicit_terms, step_first_order, zero_mean
from .grid import div_face_to_cell, minus_scaled_grad
from .model import PhysParams, SchemeState, SchemeState2


BOOTSTRAP_SUBSTEPS = 4  # first-order steps across the first interval; see bootstrap


def bootstrap(state0: SchemeState, params: PhysParams, dt: float, trace=None) -> SchemeState2:
    """Build the two-level state by running the first-order stepper across the
    first interval (BOOTSTRAP_SUBSTEPS equal steps of dt/BOOTSTRAP_SUBSTEPS).

    One whole-interval step already preserves second-order global accuracy
    at the final time; the substeps shrink its startup error in max-in-time
    norms.  On data without the compatibility conditions at t = 0, such as
    demos/paper5.cfg's, an initial layer, not the startup, limits msav2's
    rates: with 16 substeps grad phi still reads 1.57, 1.33, 1.25 down a 64^2 ladder.

    Starts the g sequence: g^0 = 0, so g^1 = nu div(u~^1) of the last
    substep's record.  trace, if given, is called as trace(prev, new, record,
    substep_dt) right after each substep, which the audit checks against the
    first-order law.  Level 1 keeps phi, mu, u, r and q of state0 as its
    history and no other part of it, so a caller that hands over its only
    reference frees state0 after the first substep's trace.
    """
    sub_dt = dt / BOOTSTRAP_SUBSTEPS
    history = dict(phi_prev=state0.phi, phi_hat_prev=state0.phi_hat, mu_prev=state0.mu, u_prev=state0.u,
                   r_prev=state0.r, q_prev=state0.q)
    s1 = state0
    del state0
    for _ in range(BOOTSTRAP_SUBSTEPS):
        record = None  # the previous substep's record, freed before this substep runs
        new, record = step_first_order(s1, params, sub_dt)
        if trace is not None:
            trace(s1, new, record, sub_dt)
        s1 = new
    g1 = params.viscosity * div_face_to_cell(record.u_tilde)
    return SchemeState2(**vars(s1), **history, g=g1)


def combine(c, x, prev, scale=None):
    """c*x - prev, times scale if given, for two fields of one kind, built in place."""
    out = c * x
    for a, b in zip(out.arrays, prev.arrays):
        a -= b
        if scale is not None:
            a *= scale
    return out


def extrapolants(state: SchemeState2) -> SimpleNamespace:
    """Second-order extrapolation 2x^n - x^{n-1} of phi, mu and u."""
    return SimpleNamespace(
        phi=combine(2.0, state.phi, state.phi_prev),
        mu=combine(2.0, state.mu, state.mu_prev),
        u=combine(2.0, state.u, state.u_prev),
    )


def step_second_order(state: SchemeState2, params: PhysParams, dt: float) -> tuple[SchemeState2, StepRecord]:
    """Advance one BDF2 level: the shared step with k = 2dt/3 from the lagged
    level, the BDF2 history (4x^n - x^{n-1})/3 of phi, u, r and q with the
    pressure p^n, and the explicit terms at the extrapolated level, then the rotational
    pressure correction and the g bookkeeping; returns the level and the step's record."""
    k = 2.0 * dt / 3.0
    lag = SimpleNamespace(phi=combine(4.0, state.phi, state.phi_prev, 1.0 / 3.0), p=state.p,
                          r=(4.0 * state.r - state.r_prev) / 3.0, q=(4.0 * state.q - state.q_prev) / 3.0)
    # the call builds lag_hat, rhs_u and the terms, and holds their only references; the extrapolants go with the terms
    new, record, div_ut = decoupled_step(lag, (4.0 * state.phi_hat - state.phi_hat_prev) * (1.0 / 3.0),
                                 minus_scaled_grad(combine(4.0, state.u, state.u_prev, 1.0 / 3.0), k, state.p),
                                 explicit_terms(extrapolants(state), params), params, k, state.t + dt)
    del lag
    div_ut.data *= params.viscosity  # nu div u~, in place on the step's own array
    new.p.data -= div_ut.data
    zero_mean(new.p)
    div_ut.data += state.g.data  # g^{n+1} = g^n + nu div u~
    return SchemeState2(**vars(new), phi_prev=state.phi, phi_hat_prev=state.phi_hat, mu_prev=state.mu,
                        u_prev=state.u, r_prev=state.r, q_prev=state.q, g=div_ut), record
