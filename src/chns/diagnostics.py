"""Energy/mass/divergence monitors, Cauchy errors of a dt ladder, and rate tables.

The stability monitors evaluate the exact discrete energy identities of the
two steppers.  For each accepted step the recorded decay defect

    defect = Etilde^{n+1} - Etilde^n + dissipation

must be bounded by a machine-scale slack 1e-9 * max(1, Etilde^n): the
identity says defect equals minus a sum of squares, so anything measurably
positive indicates a broken cancellation (wrong quadrature pairing, sloppy
solve) and fails the audit.

For the BDF2 stepper the stated decay estimate uses the continuous identity
|curl v|^2 + |div v|^2 = |grad v|^2, which no staggered stencil reproduces
exactly.  The audit therefore records both the raw defect (with the node
curl of the projected velocity) and the defect-adjusted one in which the
curl term is replaced by |grad u~|^2 - |div u~|^2; the adjusted inequality
is the one that holds to rounding and the one acceptance keys on.  The gap
between the two readings is reported as identity_defect.

Convergence is measured with Cauchy errors between a run at dt and a
companion at dt/2 on the same grid, compared at every coarse level; no exact
solution exists for this system.  A ladder of halvings shares its runs: the
run at dt/2 is the companion of the dt rung and the coarse run of the next.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from math import log2, sqrt

import numpy as np

from .first_order import step_first_order
from .grid import (
    CellField,
    MacVector,
    curl_at_nodes,
    div_face_to_cell,
    dot_cell,
    dot_face,
    grad_cell_to_face,
    lap_velocity,
    norm_l2_cell,
    norm_l2_face,
    norm_l2_nodes,
)
from .model import PhysParams, SchemeState, SchemeState2, energy_e1
from .second_order import bootstrap, step_second_order

__all__ = [
    "EnergyAudit",
    "AUDIT_COLUMNS",
    "mass",
    "kinetic_energy",
    "total_energy",
    "modified_energy_first",
    "energy2_report",
    "audit_step_first",
    "audit_step_second",
    "audit_slack",
    "RunResult",
    "simulate_run",
    "iterate_with_audits",
    "ErrorRecord",
    "cauchy_ladder",
    "observed_rate",
    "attach_rates",
    "TABLE_COLUMNS",
    "write_audit_csv",
    "write_table_csv",
]


# ---------------------------------------------------------------------------
# scalar functionals
# ---------------------------------------------------------------------------


def mass(phi: CellField) -> float:
    return phi.grid.cell_area * float(np.sum(phi.data))


def kinetic_energy(u: MacVector) -> float:
    return 0.5 * dot_face(u, u)


def grad_energy_cell(f: CellField) -> float:
    g = grad_cell_to_face(f)
    return dot_face(g, g)


def grad_energy_velocity(w: MacVector) -> float:
    """Discrete Dirichlet energy <-lap w, w>; the viscous dissipation norm."""
    return dot_face(-1.0 * lap_velocity(w), w)


def _quadratics(state: SchemeState):
    """|grad phi|^2, |phi|^2 and |u|^2 of a state: the reductions the physical
    and the modified energies share, so an audit row computes them once."""
    return grad_energy_cell(state.phi), dot_cell(state.phi, state.phi), dot_face(state.u, state.u)


def total_energy(state: SchemeState, params: PhysParams) -> float:
    """Physical total energy, including the additive constant dropped from the
    working potential, so the reported value matches the unshifted model."""
    return _total_energy(state, params, _quadratics(state))


def _total_energy(state, params, quads):
    grad_phi, phi_sq, u_sq = quads
    g = state.grid
    area = (g.x1 - g.x0) * (g.y1 - g.y0)
    quad = 0.5 * params.gamma + 0.5 * params.beta / params.epsilon**2
    shift = (params.beta**2 + 2.0 * params.beta) / (4.0 * params.epsilon**2)
    return (
        0.5 * u_sq
        + 0.5 * grad_phi
        + quad * phi_sq
        + energy_e1(state.phi, params)
        - shift * area
    )


def modified_energy_first(state: SchemeState, params: PhysParams, dt: float) -> float:
    """Modified energy of the first-order stepper:
    |grad phi|^2 + gamma_eff |phi|^2 + 2 r^2 + |u|^2 + dt^2 |grad p|^2 + q^2."""
    return _modified_energy_first(state, params, dt, _quadratics(state))


def _modified_energy_first(state, params, dt, quads):
    grad_phi, phi_sq, u_sq = quads
    gp = grad_cell_to_face(state.p)
    return (
        grad_phi
        + params.gamma_eff * phi_sq
        + 2.0 * state.r**2
        + u_sq
        + dt * dt * dot_face(gp, gp)
        + state.q**2
    )


def energy2_report(state: SchemeState2, params: PhysParams, dt: float) -> dict:
    """Named components of the BDF2 modified energy and its dissipation terms."""
    return _energy2_report(state, params, dt, _quadratics(state))


def _energy2_report(state, params, dt, quads):
    grad_phi, phi_sq, u_sq = quads
    ge = params.gamma_eff
    gH = grad_cell_to_face(state.H)
    u_x = 2.0 * state.u - state.u_prev
    phi_x = 2.0 * state.phi - state.phi_prev
    r_x = 2.0 * state.sav.r - state.sav_prev.r
    q_x = 2.0 * state.sav.q - state.sav_prev.q
    comp = {
        "u_half": 0.5 * u_sq,
        "u_extrap_half": 0.5 * dot_face(u_x, u_x),
        "grad_H": (2.0 / 3.0) * dt * dt * dot_face(gH, gH),
        "g_term": dt / params.viscosity * dot_cell(state.g, state.g),
        "grad_phi_half": 0.5 * grad_phi,
        "grad_phi_extrap_half": 0.5 * grad_energy_cell(phi_x),
        "phi_half": 0.5 * ge * phi_sq,
        "phi_extrap_half": 0.5 * ge * dot_cell(phi_x, phi_x),
        "r_sq": state.sav.r**2,
        "r_extrap_sq": r_x**2,
        "q_half": 0.5 * state.sav.q**2,
        "q_extrap_half": 0.5 * q_x**2,
    }
    comp["etilde"] = float(sum(comp.values()))
    comp["diss_mu"] = 2.0 * params.mobility * dt * grad_energy_cell(state.mu)
    comp["diss_visc_tilde"] = params.viscosity * dt * grad_energy_velocity(state.u_tilde)
    comp["diss_curl"] = params.viscosity * dt * norm_l2_nodes(state.grid, curl_at_nodes(state.u)) ** 2
    comp["diss_div_tilde"] = params.viscosity * dt * norm_l2_cell(div_face_to_cell(state.u_tilde)) ** 2
    comp["diss_q"] = 2.0 * dt / params.horizon * state.sav.q**2
    return comp


# ---------------------------------------------------------------------------
# per-step audits
# ---------------------------------------------------------------------------

AUDIT_COLUMNS = (
    "t",
    "E_total",
    "Etilde",
    "mass",
    "div_norm",
    "r",
    "q",
    "decay_defect",
    "decay_defect_raw",
    "diss_mu",
    "diss_visc",
    "diss_q",
    "diss_curl",
    "identity_defect",
    "solver_residual_max",
    "solver_iterations",
)


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
    solver_iterations: int

    @property
    def slack(self) -> float:
        return audit_slack(self.Etilde_prev)

    @property
    def passed(self) -> bool:
        return self.decay_defect <= self.slack

    def row(self):
        return [getattr(self, c) for c in AUDIT_COLUMNS]


def audit_slack(etilde_prev: float) -> float:
    return 1e-9 * max(1.0, etilde_prev)


def _report_summary(reports):
    if not reports:
        return 0.0, 0
    return max(r.residual for r in reports), int(sum(r.iterations for r in reports))


def audit_step_first(prev: SchemeState, new: SchemeState, params: PhysParams, dt: float, reports=None,
                     etilde_prev: float | None = None) -> EnergyAudit:
    """Audit row of one first-order step.  etilde_prev, if given, is the
    modified energy of prev at this dt (the Etilde of prev's own row), which
    saves recomputing it."""
    diss_mu = 2.0 * params.mobility * dt * grad_energy_cell(new.mu)
    diss_visc = 2.0 * params.viscosity * dt * grad_energy_velocity(new.u_tilde)
    diss_q = 2.0 * dt / params.horizon * new.q**2
    et_prev = modified_energy_first(prev, params, dt) if etilde_prev is None else etilde_prev
    quads = _quadratics(new)
    et_new = _modified_energy_first(new, params, dt, quads)
    defect = et_new - et_prev + diss_mu + diss_visc + diss_q
    res_max, iters = _report_summary(reports)
    return EnergyAudit(
        t=new.t,
        E_total=_total_energy(new, params, quads),
        Etilde=et_new,
        Etilde_prev=et_prev,
        mass=mass(new.phi),
        div_norm=norm_l2_cell(div_face_to_cell(new.u)),
        r=new.r,
        q=new.q,
        decay_defect=defect,
        decay_defect_raw=defect,
        diss_mu=diss_mu,
        diss_visc=diss_visc,
        diss_q=diss_q,
        diss_curl=0.0,
        identity_defect=0.0,
        solver_residual_max=res_max,
        solver_iterations=iters,
    )


def audit_step_second(prev: SchemeState2, new: SchemeState2, params: PhysParams, dt: float, reports=None,
                      etilde_prev: float | None = None) -> EnergyAudit:
    """Audit row of one BDF2 step; etilde_prev as in audit_step_first."""
    quads = _quadratics(new)
    rep_new = _energy2_report(new, params, dt, quads)
    et_prev = energy2_report(prev, params, dt)["etilde"] if etilde_prev is None else etilde_prev
    et_new = rep_new["etilde"]

    # adjusted viscous dissipation 2 nu dt |grad u~|^2 - nu dt |div u~|^2 is the
    # one the exact discrete identity carries
    diss_visc = 2.0 * rep_new["diss_visc_tilde"] - rep_new["diss_div_tilde"]
    diss_mu = rep_new["diss_mu"]
    diss_q = rep_new["diss_q"]
    diss_curl = rep_new["diss_curl"]
    defect = et_new - et_prev + diss_mu + diss_visc + diss_q
    identity_defect = rep_new["diss_visc_tilde"] - rep_new["diss_div_tilde"] - diss_curl
    defect_raw = et_new - et_prev + diss_mu + rep_new["diss_visc_tilde"] + diss_curl + diss_q
    res_max, iters = _report_summary(reports)
    return EnergyAudit(
        t=new.t,
        E_total=_total_energy(new, params, quads),
        Etilde=et_new,
        Etilde_prev=et_prev,
        mass=mass(new.phi),
        div_norm=norm_l2_cell(div_face_to_cell(new.u)),
        r=new.r,
        q=new.q,
        decay_defect=defect,
        decay_defect_raw=defect_raw,
        diss_mu=diss_mu,
        diss_visc=diss_visc,
        diss_q=diss_q,
        diss_curl=diss_curl,
        identity_defect=identity_defect,
        solver_residual_max=res_max,
        solver_iterations=iters,
    )


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    audits: list
    final_state: object


def _iterate(scheme, state0, params, dt, n_steps, tol_poisson, tol_helmholtz, bootstrap_trace=None):
    """Yield (step_index, prev_state, new_state, reports) for each step.

    For msav2 the first yield covers the whole bootstrap interval; callers
    wanting per-substep detail pass bootstrap_trace (see second_order.bootstrap).
    """
    step = {"msav1": step_first_order, "msav2": step_second_order}.get(scheme)
    if step is None:
        raise ValueError(f"unknown scheme {scheme!r} (expected 'msav1' or 'msav2')")
    tols = dict(tol_poisson=tol_poisson, tol_helmholtz=tol_helmholtz)
    state, first = state0, 1
    if scheme == "msav2":
        reports = []
        state = bootstrap(state0, params, dt, reports=reports, trace=bootstrap_trace, **tols)
        yield 1, state0, state, reports
        first = 2
    for k in range(first, n_steps + 1):
        reports = []
        # only the yielded tuple holds the previous state, so it is freed with it
        yield k, state, (state := step(state, params, dt, reports=reports, **tols)), reports


def iterate_with_audits(
    scheme, state0, params, dt, n_steps,
    tol_poisson=1e-12, tol_helmholtz=1e-11,
):
    """Yield (step_index, new_state, audits_of_this_step) for each step.

    For the BDF2 scheme the bootstrap substeps are audited against the
    first-order energy identity at the substep size (they are first-order
    steps) and all later transitions against the BDF2 identity, so the step
    at index 1 may carry several audit rows.

    Each row's Etilde is handed to the next step's audit as the energy of its
    previous state.  The bootstrap rows hold first-order energies at the
    substep size, so the first BDF2 step computes its own.
    """
    trace = [] if scheme == "msav2" else None
    etilde_prev = None
    for k, prev, new, reports in _iterate(
        scheme, state0, params, dt, n_steps, tol_poisson, tol_helmholtz, bootstrap_trace=trace,
    ):
        if scheme == "msav2" and k == 1:
            step_audits = [
                audit_step_first(sub_prev, sub_new, params, sub_dt, sub_reports)
                for sub_prev, sub_new, sub_dt, sub_reports in trace
            ]
        elif scheme == "msav2":
            step_audits = [audit_step_second(prev, new, params, dt, reports, etilde_prev)]
        else:
            step_audits = [audit_step_first(prev, new, params, dt, reports, etilde_prev)]
        etilde_prev = None if scheme == "msav2" and k == 1 else step_audits[-1].Etilde
        yield k, new, step_audits


def simulate_run(
    scheme: str,
    state0: SchemeState,
    params: PhysParams,
    dt: float,
    n_steps: int,
    tol_poisson: float = 1e-12,
    tol_helmholtz: float = 1e-11,
) -> RunResult:
    """Run one simulation with the per-step energy audit (see iterate_with_audits)."""
    audits, state = [], state0
    for _, state, step_audits in iterate_with_audits(
        scheme, state0, params, dt, n_steps,
        tol_poisson=tol_poisson, tol_helmholtz=tol_helmholtz,
    ):
        audits.extend(step_audits)
    return RunResult(audits=audits, final_state=state)


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
    gradient) and the remaining solenoidal error converges at the full rate."""

    dt: float
    e_phi_linf: float
    e_grad_phi_linf: float
    e_r: float
    e_u_linf: float
    e_grad_u_l2: float
    e_p_l2: float
    e_q: float

    _FIELDS = ("e_phi_linf", "e_grad_phi_linf", "e_r", "e_u_linf", "e_grad_u_l2", "e_p_l2", "e_q")

    def values(self):
        return {name: getattr(self, name) for name in self._FIELDS}


class _CauchyAccumulator:
    def __init__(self, dt_coarse):
        self.dt = dt_coarse
        self.e_phi = 0.0
        self.e_gphi = 0.0
        self.e_r = 0.0
        self.e_u = 0.0
        self.e_q = 0.0
        self.sum_gu = 0.0
        self.sum_p = 0.0

    def add(self, coarse, fine):
        dphi = coarse.phi - fine.phi
        self.e_phi = max(self.e_phi, norm_l2_cell(dphi))
        gd = grad_cell_to_face(dphi)
        self.e_gphi = max(self.e_gphi, sqrt(max(dot_face(gd, gd), 0.0)))
        self.e_r = max(self.e_r, abs(coarse.r - fine.r))
        self.e_q = max(self.e_q, abs(coarse.q - fine.q))
        du = coarse.u - fine.u
        self.e_u = max(self.e_u, norm_l2_face(du))
        self.sum_gu += self.dt * max(grad_energy_velocity(du), 0.0)
        dp = (coarse.p - fine.p).data
        dp = dp - dp.mean()  # pressure error in the quotient space (mod constants)
        self.sum_p += self.dt * coarse.phi.grid.cell_area * float(np.sum(dp * dp))

    def record(self):
        return ErrorRecord(
            dt=self.dt,
            e_phi_linf=self.e_phi,
            e_grad_phi_linf=self.e_gphi,
            e_r=self.e_r,
            e_u_linf=self.e_u,
            e_grad_u_l2=sqrt(self.sum_gu),
            e_p_l2=sqrt(self.sum_p),
            e_q=self.e_q,
        )


def cauchy_ladder(
    scheme: str,
    state0: SchemeState,
    params: PhysParams,
    dt: float,
    n_steps: int,
    rungs: int,
    tol_poisson: float = 1e-12,
    tol_helmholtz: float = 1e-11,
) -> list[ErrorRecord]:
    """Cauchy errors of a halving ladder: rung j compares the run at dt/2^j
    with its dt/2^(j+1) companion at every level of the coarser run.

    The rungs + 1 runs advance depth-first, so each is integrated once and
    holds only its current state: one step of run j is followed by two steps
    of run j+1, after which rung j compares the two states."""
    runs = [
        _iterate(scheme, state0, params, dt / 2**j, n_steps * 2**j, tol_poisson, tol_helmholtz)
        for j in range(rungs + 1)
    ]
    accs = [_CauchyAccumulator(dt / 2**j) for j in range(rungs)]
    for _ in range(n_steps):
        _advance(runs, accs, 0)
    return [acc.record() for acc in accs]


def _advance(runs, accs, j):
    """One step of run j, two of run j+1, then rung j adds the pair; returns
    run j's new state.  A module function, not a closure: a self-referencing
    closure is a reference cycle that would keep every run's last states
    alive until the cyclic collector runs."""
    _, _, state, _ = next(runs[j])
    if j < len(accs):
        _advance(runs, accs, j + 1)
        accs[j].add(state, _advance(runs, accs, j + 1))
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
    col for name in ErrorRecord._FIELDS for col in (name, "rate_" + name)
)


def _fmt(x):
    if isinstance(x, float):
        return "" if np.isnan(x) else f"{x:.17g}"
    return str(x)


def write_audit_csv(path, audits):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(AUDIT_COLUMNS)
        for a in audits:
            writer.writerow([_fmt(v) for v in a.row()])


def write_table_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TABLE_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row.get(c, float("nan"))) for c in TABLE_COLUMNS])
