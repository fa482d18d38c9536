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

from .first_order import decoupled_step, step_first_order, zero_mean
from .grid import div_face_to_cell, minus_scaled_grad
from .model import PhysParams, SchemeState, SchemeState2


BOOTSTRAP_SUBSTEPS = 4  # first-order steps across the first interval; see bootstrap


def bootstrap(state0: SchemeState, params: PhysParams, dt: float, trace=None) -> SchemeState2:
    """Build the two-level state by running the first-order stepper across the
    first interval (BOOTSTRAP_SUBSTEPS equal steps of dt/BOOTSTRAP_SUBSTEPS).

    One whole-interval step already preserves second-order global
    accuracy at the final time, but its backward-Euler treatment of the stiff
    fourth-order operator imprints a startup error on the crossover modes
    (mobility*dt*lam^2 ~ 1) that floors max-in-time Cauchy norms near dt^1.6;
    subdividing the bootstrap interval pushes that startup below the BDF2
    error at practical step sizes.

    Starts the g sequence: g^0 = 0, so g^1 = nu div(u~^1).  trace, if given,
    is called as trace(prev, new, substep_dt) right after each substep, while
    prev is alive: the states that the audit checks against the first-order
    energy law, each carrying its substep's solver reports.  Level 1 keeps
    phi, mu, u, r and q of state0 as its history and no other part of it, so a
    caller that hands over its only reference frees state0 after the first
    substep's trace.
    """
    sub_dt = dt / BOOTSTRAP_SUBSTEPS
    history = dict(phi_prev=state0.phi, phi_hat_prev=state0.phi_hat, mu_prev=state0.mu, u_prev=state0.u,
                   r_prev=state0.r, q_prev=state0.q)
    s1 = state0
    del state0
    for _ in range(BOOTSTRAP_SUBSTEPS):
        new = step_first_order(s1, params, sub_dt)
        if trace is not None:
            trace(s1, new, sub_dt)
        s1 = new
    g1 = params.viscosity * div_face_to_cell(s1.u_tilde)
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


def step_second_order(state: SchemeState2, params: PhysParams, dt: float) -> SchemeState2:
    """Advance one BDF2 level: the shared step with k = 2dt/3 from the lagged
    level, the BDF2 history (4x^n - x^{n-1})/3 of phi, u, r and q with the
    pressure p^n, and the extrapolated level, then the rotational pressure
    correction and the g bookkeeping."""
    k = 2.0 * dt / 3.0
    lag = SimpleNamespace(phi=combine(4.0, state.phi, state.phi_prev, 1.0 / 3.0), p=state.p,
                          r=(4.0 * state.r - state.r_prev) / 3.0, q=(4.0 * state.q - state.q_prev) / 3.0)
    # the lagged coefficients and the momentum right-hand side are built in the call, which holds their only references
    new, div_ut = decoupled_step(lag, (4.0 * state.phi_hat - state.phi_hat_prev) * (1.0 / 3.0),
                                 minus_scaled_grad(combine(4.0, state.u, state.u_prev, 1.0 / 3.0), k, state.p),
                                 extrapolants(state), params, k, state.t + dt)
    del lag
    div_ut.data *= params.viscosity  # nu div u~, in place on the step's own array
    new.p.data -= div_ut.data
    zero_mean(new.p)
    div_ut.data += state.g.data  # g^{n+1} = g^n + nu div u~
    return SchemeState2(**vars(new), phi_prev=state.phi, phi_hat_prev=state.phi_hat, mu_prev=state.mu,
                        u_prev=state.u, r_prev=state.r, q_prev=state.q, g=div_ut)
