"""Energy/mass/divergence monitors, Cauchy errors of a dt ladder, and rate tables.

The stability monitors evaluate the exact discrete energy identities of the
two steppers.  The state picks the law: a two-level state obeys the BDF2 law,
any other state (the msav2 bootstrap substeps included) the first-order one.
A run audits each step as soon as it is taken, so it holds one level, never
the earlier ones.  For each accepted step the recorded decay defect

    defect = Etilde^{n+1} - Etilde^n + dissipation

must be bounded by a machine-scale slack 1e-9 * max(1, Etilde^n): the
identity says defect equals minus a sum of squares, so anything measurably
positive indicates a broken cancellation (wrong quadrature pairing, sloppy
solve) and fails the audit.

The BDF2 decay estimate is stated with the continuous identity
|curl v|^2 + |div v|^2 = |grad v|^2, which no staggered stencil reproduces
exactly.  Its audit row therefore records both the raw defect (with the node
curl of the projected velocity) and the defect-adjusted one in which the
curl term is replaced by |grad u~|^2 - |div u~|^2; the adjusted inequality
is the one that holds to rounding and the one acceptance keys on.  The gap
between the two readings is reported as identity_defect, which is zero for
the first-order law.

Every energy comes from one quadratic form, the level energy
L(x) = |grad phi|^2 + gamma_eff |phi|^2 + |u|^2 + 2 r^2 + q^2 of x = (phi, u, r, q):
the first-order Etilde is L(x^n) + dt^2 |grad p^n|^2, the BDF2 one
(L(x^n) + L(2x^n - x^{n-1}))/2 + (2/3) dt^2 |grad(p^n + g^n)|^2 + dt/nu |g^n|^2,
and E_total is half the field part of L(x^n) plus E1(phi^n), less a constant.

The audit is a check of the stored fields that repeats none of the step's
operator applications.  |grad u~|^2 = <-lap u~, u~> and |div u~|^2 come from
the level: the step forms them from the Laplacian of its Helmholtz residual
check and the divergence its projection consumes, both applied to the u~ it
stores.  Every energy, dissipation and Cauchy error reduces through the
grid's dot_cell, dot_face, grad_sq_cell and (the node curl) norm_l2_nodes.

Convergence is measured with Cauchy errors between a run at dt and a
companion at dt/2 on the same grid, compared at every coarse level; no exact
solution exists for this system.  A ladder of halvings shares its runs: the
run at dt/2 is the companion of the dt rung and the coarse run of the next.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, fields
from math import log2, sqrt

import numpy as np

from .elliptic import TOL_HELMHOLTZ, TOL_POISSON
from .errors import ChnsError
from .first_order import step_first_order, zero_mean
from .grid import (
    CellField,
    MacVector,
    curl_at_nodes,
    div_face_to_cell,
    dot_cell,
    dot_face,
    grad_sq_cell,
    lap_velocity,
    norm_l2_cell,
    norm_l2_face,
    norm_l2_nodes,
)
from .model import PhysParams, SchemeState, SchemeState2, energy_e1
from .second_order import bootstrap, combine, step_second_order


# ---------------------------------------------------------------------------
# scalar functionals
# ---------------------------------------------------------------------------


def mass(phi: CellField) -> float:
    return phi.grid.cell_area * float(np.sum(phi.data))


def grad_energy_velocity(w: MacVector) -> float:
    """Discrete Dirichlet energy <-lap w, w>; the viscous dissipation norm."""
    return -dot_face(lap_velocity(w), w)


def _field_energy(phi: CellField, u: MacVector, params: PhysParams) -> float:
    """|grad phi|^2 + gamma_eff |phi|^2 + |u|^2: the field part of the level
    energy L(x), which the physical and the modified energies share."""
    return grad_sq_cell(phi) + params.gamma_eff * dot_cell(phi, phi) + dot_face(u, u)


def total_energy(state: SchemeState, params: PhysParams, field_part: float | None = None) -> float:
    """Physical total energy field_part/2 + E1(phi), with the additive constant
    dropped from the working potential restored, so the reported value matches
    the unshifted model.  field_part, if given, is _field_energy of the state."""
    if field_part is None:
        field_part = _field_energy(state.phi, state.u, params)
    g = state.grid
    # beta * beta, not beta**2, which raises OverflowError instead of giving inf
    shift = (params.beta * params.beta + 2.0 * params.beta) / (4.0 * params.epsilon**2)
    return 0.5 * field_part + energy_e1(state.phi, params) - shift * (g.x1 - g.x0) * (g.y1 - g.y0)


def modified_energy(state: SchemeState, params: PhysParams, dt: float, field_part: float | None = None) -> float:
    """Etilde of the energy law the state obeys, from the level energy
    L(x) = field_part + 2 r^2 + q^2, field_part as in _field_energy (or as given).
    A two-level state obeys the BDF2 law, the G-stability average over x and
    the extrapolated level x_bar = 2x - x_prev,

        (L(x) + L(x_bar))/2 + (2/3) dt^2 |grad(p + g)|^2 + dt/nu |g|^2;

    any other state the first-order law, L(x) + dt^2 |grad p|^2."""
    if field_part is None:
        field_part = _field_energy(state.phi, state.u, params)
    level = field_part + 2.0 * state.r**2 + state.q**2
    if not isinstance(state, SchemeState2):
        return level + dt * dt * grad_sq_cell(state.p)
    phi_bar, u_bar = combine(2.0, state.phi, state.phi_prev), combine(2.0, state.u, state.u_prev)
    r_bar, q_bar = 2.0 * state.r - state.r_prev, 2.0 * state.q - state.q_prev
    level_bar = _field_energy(phi_bar, u_bar, params) + 2.0 * r_bar**2 + q_bar**2
    return (0.5 * (level + level_bar) + (2.0 / 3.0) * dt * dt * grad_sq_cell(state.p + state.g)
            + dt / params.viscosity * dot_cell(state.g, state.g))


# ---------------------------------------------------------------------------
# per-step audits
# ---------------------------------------------------------------------------


@dataclass
class EnergyAudit:
    t: float
    E_total: float
    Etilde: float
    Etilde_prev: float
    mass: float
    div_norm: float
    r: float
    q: float
    decay_defect: float
    decay_defect_raw: float
    diss_mu: float
    diss_visc: float
    diss_q: float
    diss_curl: float
    identity_defect: float
    solver_residual_max: float

    @property
    def slack(self) -> float:
        return audit_slack(self.Etilde_prev)

    @property
    def passed(self) -> bool:
        return self.decay_defect <= self.slack

    def row(self):
        return [getattr(self, c) for c in AUDIT_COLUMNS]


# the audit CSV's columns: a row's fields in order, less the previous row's Etilde
AUDIT_COLUMNS = tuple(f.name for f in fields(EnergyAudit) if f.name != "Etilde_prev")


def audit_slack(etilde_prev: float) -> float:
    return 1e-9 * max(1.0, etilde_prev)


def audit_step(prev: SchemeState, new: SchemeState, params: PhysParams, dt: float,
               etilde_prev: float | None = None) -> EnergyAudit:
    """Audit row of one step against the energy law new obeys (see
    modified_energy), with the solver reports new carries.  etilde_prev, if
    given, is prev's Etilde under the same law and dt (the Etilde of prev's
    own row), which saves recomputing it.  new is a level a step produced.

    Both laws dissipate diss_mu = 2 M dt |grad mu|^2, diss_q = 2 dt/T q^2 and
    V = nu dt |grad u~|^2.  The BDF2 law adds D = nu dt |div u~|^2 and, in its
    stated form, C = nu dt |curl u|^2 at the nodes; the first-order law has
    neither, so its raw and adjusted defects coincide.  |grad u~|^2 and
    |div u~|^2 are the ones new carries: the step formed them from its
    stored u~ with the Laplacian of its Helmholtz residual check and the
    divergence its projection consumed."""
    nu_dt = params.viscosity * dt
    field_part = _field_energy(new.phi, new.u, params)
    et_new = modified_energy(new, params, dt, field_part)
    et_prev = modified_energy(prev, params, dt) if etilde_prev is None else etilde_prev
    diss_mu = 2.0 * params.mobility * dt * grad_sq_cell(new.mu)
    diss_q = 2.0 * dt / params.horizon * new.q**2
    visc = nu_dt * new.grad_ut_sq
    bdf2 = isinstance(new, SchemeState2)
    div = nu_dt * new.div_ut_sq if bdf2 else 0.0
    curl = nu_dt * norm_l2_nodes(new.grid, curl_at_nodes(new.u)) ** 2 if bdf2 else 0.0
    # the exact discrete identity carries 2V - D; the stated BDF2 estimate V + C
    diss_visc = 2.0 * visc - div
    defect = et_new - et_prev + diss_mu + diss_visc + diss_q
    return EnergyAudit(
        t=new.t,
        E_total=total_energy(new, params, field_part),
        Etilde=et_new,
        Etilde_prev=et_prev,
        mass=mass(new.phi),
        div_norm=norm_l2_cell(div_face_to_cell(new.u)),
        r=new.r,
        q=new.q,
        decay_defect=defect,
        decay_defect_raw=et_new - et_prev + diss_mu + visc + curl + diss_q if bdf2 else defect,
        diss_mu=diss_mu,
        diss_visc=diss_visc,
        diss_q=diss_q,
        diss_curl=curl,
        identity_defect=visc - div - curl if bdf2 else 0.0,
        solver_residual_max=max((r.residual for r in new.reports), default=0.0),
    )


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def _iterate(scheme, state, params, dt, n_steps, on_step=None):
    """Yield (step_index, state) for each level, holding no earlier level.
    on_step, if given, is called as on_step(prev, new, dt) right after each
    step, msav2's bootstrap substeps included (see second_order.bootstrap).
    A ChnsError from a step leaves with the level index and dt recorded on it
    as step and dt."""
    step = {"msav1": step_first_order, "msav2": step_second_order}.get(scheme)
    if step is None:
        raise ValueError(f"unknown scheme {scheme!r} (expected 'msav1' or 'msav2')")
    k = 1
    try:
        if scheme == "msav2":
            # bootstrap gets the only reference and frees the initial state after its first substep;
            # a plain call, since a ** call would keep its arguments alive in a tuple
            first = [state]
            del state
            state = bootstrap(first.pop(), params, dt, trace=on_step)
            yield 1, state
        for k in range(2 if scheme == "msav2" else 1, n_steps + 1):
            new = step(state, params, dt)
            if on_step is not None:
                on_step(state, new, dt)
            state = new
            yield k, state
    except ChnsError as exc:
        exc.step, exc.dt = k, dt
        raise


# tol_poisson and tol_helmholtz keep the call of perfbench/worker.py working, which passes the fixed bounds
# as RunConfig's properties of those names; they go together.  Any other value raises ValueError.
def iterate_with_audits(scheme, state0, params, dt, n_steps, tol_poisson=TOL_POISSON, tol_helmholtz=TOL_HELMHOLTZ):
    """Yield (step_index, new_state, audits_of_this_step) for each level.

    Each step is audited as soon as it is taken, against the law its new state
    obeys: the msav2 bootstrap substeps against the first-order law at the
    substep size, so level 1 may carry several rows, and every later msav2 step
    against the BDF2 law.  A row's Etilde is handed on as the next row's
    Etilde_prev when both audit the same law at the same dt.
    """
    if (tol_poisson, tol_helmholtz) != (TOL_POISSON, TOL_HELMHOLTZ):
        raise ValueError(f"the residual bounds are fixed at {TOL_POISSON!r}, {TOL_HELMHOLTZ!r}")
    rows, etilde, law = [], None, None

    def audit(prev, new, step_dt):
        nonlocal etilde, law
        row_law = (isinstance(new, SchemeState2), step_dt)
        rows.append(audit_step(prev, new, params, step_dt, etilde if row_law == law else None))
        etilde, law = rows[-1].Etilde, row_law

    run = _iterate(scheme, state0, params, dt, n_steps, on_step=audit)
    del state0  # the run alone holds the initial state, and drops it after its last use
    for k, state in run:
        yield k, state, rows
        rows = []


def simulate_run(scheme: str, state0: SchemeState, params: PhysParams, dt: float, n_steps: int):
    """Run one simulation with the per-step energy audit (see iterate_with_audits)
    and return (audits, final_state)."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    audits, run = [], iterate_with_audits(scheme, state0, params, dt, n_steps)
    del state0  # as in iterate_with_audits, the run alone holds the initial state
    for _, state, step_audits in run:
        audits.extend(step_audits)
    return audits, state


# ---------------------------------------------------------------------------
# Cauchy errors and rates
# ---------------------------------------------------------------------------


@dataclass
class ErrorRecord:
    """Time-aggregated Cauchy errors between a dt run and its dt/2 companion:
    max-in-time L2 norms for phi, grad phi, u and the scalars, squared-sum
    (l2-in-time) norms for the velocity gradient and the zero-mean pressure.

    The velocity-gradient error is measured on the projected velocity via the
    Dirichlet energy <-lap e_u, e_u>.  The intermediate velocity is unusable
    here: its splitting error carries a numerical boundary layer of width
    sqrt(nu dt) whose gradient energy decays at the fixed rate 3/2 and masks
    the scheme's order; the projection removes that layer (it is a pure
    gradient) and the remaining solenoidal error converges at the full rate.

    A record starts at zero for the coarse step dt and accumulates the level
    pairs handed to add; its fields after dt are the table's errors."""

    dt: float
    e_phi_linf: float = 0.0
    e_grad_phi_linf: float = 0.0
    e_r: float = 0.0
    e_u_linf: float = 0.0
    e_grad_u_l2: float = 0.0
    e_p_l2: float = 0.0
    e_q: float = 0.0
    # the running l2-in-time sums under e_grad_u_l2 and e_p_l2
    _sum_grad_u: float = field(default=0.0, init=False, repr=False, compare=False)
    _sum_p: float = field(default=0.0, init=False, repr=False, compare=False)

    def add(self, coarse, fine):
        """Fold in the errors between a coarse level and the fine level at its time."""
        dphi = coarse.phi - fine.phi
        self.e_phi_linf = max(self.e_phi_linf, norm_l2_cell(dphi))
        self.e_grad_phi_linf = max(self.e_grad_phi_linf, sqrt(grad_sq_cell(dphi)))
        self.e_r = max(self.e_r, abs(coarse.r - fine.r))
        self.e_q = max(self.e_q, abs(coarse.q - fine.q))
        du = coarse.u - fine.u
        self.e_u_linf = max(self.e_u_linf, norm_l2_face(du))
        self._sum_grad_u += self.dt * max(grad_energy_velocity(du), 0.0)
        self.e_grad_u_l2 = sqrt(self._sum_grad_u)
        dp = zero_mean(coarse.p - fine.p)  # pressure error in the quotient space (mod constants)
        self._sum_p += self.dt * dot_cell(dp, dp)
        self.e_p_l2 = sqrt(self._sum_p)

    def values(self):
        """The errors by name, in table order."""
        return {f.name: getattr(self, f.name) for f in fields(self)[1:] if f.init}


def cauchy_ladder(scheme: str, state0: SchemeState, params: PhysParams, dt: float, n_steps: int,
                  rungs: int) -> list[ErrorRecord]:
    """Cauchy errors of a halving ladder: rung j compares the run at dt/2^j
    with its dt/2^(j+1) companion at every level of the coarser run.

    The rungs + 1 runs advance depth-first, so each is integrated once and
    holds only its current state: one step of run j is followed by two steps
    of run j+1, after which rung j compares the two states."""
    runs = [_iterate(scheme, state0, params, dt / 2**j, n_steps * 2**j) for j in range(rungs + 1)]
    records = [ErrorRecord(dt / 2**j) for j in range(rungs)]
    for _ in range(n_steps):
        _advance(runs, records, 0)
    return records


def _advance(runs, records, j):
    """One step of run j, two of run j+1, then rung j adds the pair; returns
    run j's new state.  A module function, not a closure: a self-referencing
    closure is a reference cycle that would keep every run's last states
    alive until the cyclic collector runs."""
    _, state = next(runs[j])
    if j < len(records):
        _advance(runs, records, j + 1)
        records[j].add(state, _advance(runs, records, j + 1))
    return state


def observed_rate(e_coarse: float, e_fine: float) -> float:
    """log2 error ratio between a dt row and its dt/2 row; NaN if undefined."""
    if not (e_coarse > 0.0 and e_fine > 0.0):
        return float("nan")
    return log2(e_coarse / e_fine)


def attach_rates(records):
    """Rows for the study table: each record's errors plus the observed rate
    against the previous (coarser) record."""
    rows = []
    prev = None
    for rec in records:
        row = {"dt": rec.dt}
        for name, value in rec.values().items():
            row[name] = value
            row["rate_" + name] = observed_rate(getattr(prev, name), value) if prev else float("nan")
        rows.append(row)
        prev = rec
    return rows


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

TABLE_COLUMNS = ("dt",) + tuple(
    col for f in fields(ErrorRecord)[1:] if f.init for col in (f.name, "rate_" + f.name)
)


def _fmt(x):
    return "" if np.isnan(x) else f"{x:.17g}"


def _write_csv(path, columns, rows):
    """Write the header, then each row as rows yields it: a failure midway leaves the rows before it."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_audit_csv(path, audits):
    _write_csv(path, AUDIT_COLUMNS, (a.row() for a in audits))


def write_table_csv(path, rows):
    _write_csv(path, TABLE_COLUMNS, ([row.get(c, float("nan")) for c in TABLE_COLUMNS] for row in rows))
