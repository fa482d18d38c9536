"""Physical parameters, the stabilized double-well potential, and scheme states.

The free energy used throughout drops an additive constant and reads

    E1(phi) = 1/(4 eps^2) * integral (phi^2 - 1 - beta)^2,
    F'(phi) = 1/eps^2 * phi * (phi^2 - 1 - beta),

with the shifted quadratic part absorbed into the linear coefficient
gamma_eff = gamma + beta/eps^2 of the chemical potential.  beta = 0 recovers
the plain double well.

Two scalar auxiliary variables accompany the fields on each level: r tracks
sqrt(E1(phi) + delta) and q tracks exp(-t/T).  Both energy laws are built from
the level energy L(x) = |grad phi|^2 + gamma_eff |phi|^2 + |u|^2 + 2 r^2 + q^2
of a level x = (phi, u, r, q); see diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elliptic import cell_transform
from .errors import StateError
from .grid import CellField, GridSpec, MacVector, lap_cell


_E1_FLOOR = 1e-14  # below this, r/sqrt(E1+delta) is numerically meaningless


@dataclass(frozen=True)
class PhysParams:
    """Model constants; defaults are the reference benchmark values."""

    epsilon: float = 0.3  # interface width
    mobility: float = 1e-3
    viscosity: float = 1e-3
    gamma: float = 1.0  # quadratic stabilization split out of the potential
    beta: float = 5.0  # potential shift
    delta: float = 0.0  # shift under the square root of the auxiliary energy
    horizon: float = 0.1  # relaxation time T of the exponential auxiliary variable

    def __post_init__(self):
        if min(self.epsilon, self.mobility, self.viscosity, self.horizon) <= 0:
            raise ValueError("epsilon, mobility, viscosity and horizon must be positive")
        if min(self.gamma, self.beta, self.delta) < 0:
            raise ValueError("gamma, beta and delta must be nonnegative")
        # epsilon * epsilon, not epsilon**2, which raises OverflowError instead of giving inf
        if not (0.0 < self.epsilon * self.epsilon < np.inf and 0.0 < self.gamma_eff < np.inf):
            raise ValueError("epsilon^2 and gamma + beta/epsilon^2 must be positive and finite")

    @property
    def gamma_eff(self) -> float:
        return self.gamma + self.beta / self.epsilon**2


def potential_f_prime(phi: CellField, params: PhysParams) -> CellField:
    """Pointwise F'(phi) = phi (phi^2 - 1 - beta) / eps^2."""
    c = 1.0 + params.beta
    out = phi.data**2
    out -= c
    out *= phi.data
    return CellField(phi.grid, np.divide(out, params.epsilon**2, out=out))


def energy_e1(phi: CellField, params: PhysParams) -> float:
    """Midpoint quadrature of (phi^2 - 1 - beta)^2 / (4 eps^2)."""
    c = 1.0 + params.beta
    integrand = (phi.data**2 - c) ** 2 / (4.0 * params.epsilon**2)
    return phi.grid.cell_area * float(integrand.sum())


def sqrt_aux_energy(phi: CellField, params: PhysParams) -> float:
    """sqrt(E1(phi) + delta), guarding against the degenerate zero."""
    val = energy_e1(phi, params) + params.delta
    if val <= _E1_FLOOR:
        raise StateError(
            f"E1(phi) + delta = {val:.3e} is too small; the auxiliary ratio r/sqrt(E1+delta) "
            "is undefined (choose delta > 0 for states near the potential minimum)"
        )
    return float(np.sqrt(val))


def chemical_potential(phi: CellField, gamma_eff: float, f: CellField) -> CellField:
    """mu = -lap(phi) + gamma_eff*phi + f, formed in place on lap(phi): f is F'(phi)
    on initial data, xi1*F'(bar phi) in the step and zero for the bare phase operator."""
    mu = lap_cell(phi)
    mu.data *= -1.0
    mu.data += gamma_eff * phi.data
    mu.data += f.data
    return mu


@dataclass
class SchemeState:
    """One time level: what the next step reads."""

    t: float
    phi: CellField
    mu: CellField
    u: MacVector  # projected (divergence-free) velocity
    p: CellField  # zero-mean pressure
    r: float  # tracks sqrt(E1(phi) + delta)
    q: float  # tracks exp(-t/T)
    phi_hat: np.ndarray  # phi's DCT coefficients, the ones its step inverted (cell_transform(phi) to rounding)

    @property
    def grid(self) -> GridSpec:
        return self.phi.grid


@dataclass
class SchemeState2(SchemeState):
    """Two-level state for the BDF2 stepper, plus the rotational bookkeeping
    field g (accumulated nu*div of the intermediate velocities); the audit's
    H = p + g is formed from it when needed."""

    phi_prev: CellField
    phi_hat_prev: np.ndarray
    mu_prev: CellField
    u_prev: MacVector
    r_prev: float
    q_prev: float
    g: CellField


def state_from_fields(params: PhysParams, phi: CellField, vel: MacVector):
    """Assemble a consistent level-0 state from sampled fields, at t = 0 with zero pressure.

    The chemical potential is evaluated from phi with the auxiliary ratio at
    its exact initial value r0/sqrt(E1+delta) = 1, which the first step's
    forcing terms require; r0 = sqrt(E1(phi)+delta) and q0 = 1.  phi_hat is
    phi's DCT, which the first step lags at; every later level carries the
    coefficients its step inverted.
    """
    mu = chemical_potential(phi, params.gamma_eff, potential_f_prime(phi, params))
    r0 = sqrt_aux_energy(phi, params)
    return SchemeState(t=0.0, phi=phi, mu=mu, u=vel, p=CellField.zeros(phi.grid), r=r0, q=1.0,
                       phi_hat=cell_transform(phi.data))


def initial_state(grid: GridSpec, params: PhysParams) -> SchemeState:
    """Reference benchmark initial data on the unit square: a pair of
    counter-rotating vortices and a single-period cosine phase layout."""
    phi = CellField.from_function(grid, lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y))
    vel = MacVector.from_functions(
        grid,
        lambda x, y: np.sin(np.pi * x) ** 2 * np.sin(2.0 * np.pi * y),
        lambda x, y: -np.sin(np.pi * y) ** 2 * np.sin(2.0 * np.pi * x),
    )
    return state_from_fields(params, phi, vel)
