"""Fully decoupled, unconditionally energy-stable time steppers for the
coupled phase-field / incompressible-flow system on a MAC staggered grid.

Subpackage map:

    grid         grid, field containers, discrete operators, snapshot files
    elliptic     constant-coefficient solvers (transform + CG) and their transform pieces
    model        parameters, potential, scheme states, initial data
    first_order  the decoupled step both orders share, and the backward-Euler stepper
    second_order BDF2 levels over the shared step, rotational pressure, bootstrap
    diagnostics  one energy audit for both laws, the Cauchy ladder, rate tables, CSV
    cli          batch front end (simulate / converge / audit)
"""

from .elliptic import (
    ChOperatorSpec,
    HelmholtzSpec,
    SolveReport,
    project,
    solve_ch_system,
    solve_neumann_poisson,
    solve_velocity_helmholtz,
)
from .errors import (
    ChnsError,
    CompatibilityError,
    ConfigError,
    DimensionMismatchError,
    InputDataError,
    SingularSystemError,
    SolverConvergenceError,
    StateError,
)
from .first_order import XiSystem, solve_xi, step_first_order
from .grid import (
    CellField,
    GridSpec,
    MacVector,
    advect_scalar,
    advect_velocity,
    chemical_force,
    curl_at_nodes,
    div_face_to_cell,
    dot_cell,
    dot_face,
    grad_cell_to_face,
    lap_cell,
    lap_velocity,
    norm_l2_cell,
    norm_l2_face,
)
from .model import (
    PhysParams,
    SavState,
    SchemeState,
    SchemeState2,
    energy_e1,
    initial_state,
    potential_f_prime,
    state_from_fields,
)
from .second_order import bootstrap, step_second_order
from .diagnostics import (
    EnergyAudit,
    ErrorRecord,
    RunResult,
    audit_step,
    cauchy_ladder,
    energy2_report,
    kinetic_energy,
    mass,
    modified_energy,
    observed_rate,
    simulate_run,
    total_energy,
)

__version__ = "0.1.0"
