"""Monitors, Cauchy errors, rates, and the CSV surfaces."""

import gc
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from chns import diagnostics, first_order, second_order
from chns.diagnostics import (
    AUDIT_COLUMNS,
    TABLE_COLUMNS,
    ErrorRecord,
    _iterate,
    attach_rates,
    audit_slack,
    audit_step,
    cauchy_ladder,
    energy2_report,
    iterate_with_audits,
    mass,
    modified_energy,
    observed_rate,
    simulate_run,
    total_energy,
    write_audit_csv,
    write_table_csv,
)
from chns.first_order import step_first_order
from chns.grid import CellField, GridSpec, MacVector
from chns.model import PhysParams, SchemeState, initial_state, state_from_fields
from chns.second_order import bootstrap, step_second_order
from oracle_tools import cauchy_pair


def test_observed_rate_values():
    assert observed_rate(4.0, 1.0) == 2.0
    assert abs(observed_rate(2.44e-3, 1.43e-3) - 0.77) <= 5e-3
    assert observed_rate(np.e, np.e) == 0.0
    assert np.isnan(observed_rate(0.0, 1.0))
    assert np.isnan(observed_rate(1.0, -2.0))


def test_scalar_functionals_closed_forms():
    g = GridSpec(16, 16)
    p = PhysParams()
    state = state_from_fields(p, CellField.zeros(g), MacVector.zeros(g))
    # E(0,0) = (1+beta)^2/(4 eps^2) - (beta^2+2 beta)/(4 eps^2) = 1/(4 eps^2)
    assert abs(total_energy(state, p) - 1.0 / (4.0 * p.epsilon**2)) <= 1e-10
    phi0 = CellField.from_function(g, lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y))
    assert abs(mass(phi0)) <= 1e-14  # odd about both midlines


def _level_pairs():
    """(coarse, fine) states at both levels of a dt = 0.01 run and its dt/2 companion."""
    g = GridSpec(8, 8)
    p = PhysParams()
    s0 = initial_state(g, p)
    coarse = [new for _, new in _iterate("msav1", s0, p, 0.01, 2, 1e-12, 1e-11)]
    fine = [new for _, new in _iterate("msav1", s0, p, 0.005, 4, 1e-12, 1e-11)]
    return list(zip(coarse, fine[1::2]))


def _errors(pairs):
    record = ErrorRecord(0.01)
    for coarse, fine in pairs:
        record.add(coarse, fine)
    return record


def test_identical_runs_have_zero_errors():
    pairs = _level_pairs()
    assert _errors(pairs).e_phi_linf > 0  # sanity: runs do differ
    rec = _errors([(coarse, coarse) for coarse, _ in pairs])
    assert all(v == 0.0 for v in rec.values().values())


def test_constant_pressure_shift_invisible_in_quotient_norm():
    pairs = _level_pairs()
    base = _errors(pairs)
    shifted = _errors([(c, replace(f, p=CellField(f.p.grid, f.p.data + 17.5))) for c, f in pairs])
    assert abs(shifted.e_p_l2 - base.e_p_l2) <= 1e-12 * max(1.0, base.e_p_l2)
    assert shifted.e_phi_linf == base.e_phi_linf


def test_cauchy_error_sign_symmetry():
    # norms of (coarse - fine) equal norms of (fine - coarse)
    pairs = _level_pairs()
    fwd = _errors(pairs)
    rev = _errors([(f, c) for c, f in pairs])
    for name, value in fwd.values().items():
        assert abs(value - rev.values()[name]) <= 1e-12 * max(1.0, value)


@pytest.mark.parametrize("scheme", ["msav1", "msav2"])
def test_ladder_matches_per_rung_pairs(scheme):
    """Sharing runs across the ladder changes no record, not even in the last bit."""
    g = GridSpec(16, 16)
    p = PhysParams()
    s0 = initial_state(g, p)
    ladder = cauchy_ladder(scheme, s0, p, 0.025, 4, 3)
    pairs = [cauchy_pair(scheme, s0, p, 0.025 / 2**j, 4 * 2**j) for j in range(3)]
    assert ladder == pairs


def test_ladder_integrates_each_run_once(monkeypatch):
    """Four rungs from N0 = 8 steps: five runs of 8, 16, ..., 128 steps make
    31 N0 = 248 steps; per-rung pairs make 45 N0 = 360."""
    calls = []
    step = diagnostics.step_first_order

    def counted(*args, **kwargs):
        calls.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(diagnostics, "step_first_order", counted)
    g = GridSpec(8, 8)
    p = PhysParams()
    records = cauchy_ladder("msav1", initial_state(g, p), p, 0.0125, 8, 4)
    assert [rec.dt for rec in records] == [0.0125, 0.00625, 0.003125, 0.0015625]
    assert len(calls) == 248


@pytest.mark.parametrize("scheme", ["msav1", "msav2"])
def test_ladder_runs_hold_only_their_current_state(scheme, monkeypatch):
    """A suspended run holds only its current state: whenever a rung compares
    two states, the rungs + 1 runs keep at most one state each alive, the
    msav2 bootstrap substeps and every earlier level included."""
    live = []
    add = ErrorRecord.add

    def counting_add(self, coarse, fine):
        gc.collect()
        live.append(sum(isinstance(obj, SchemeState) for obj in gc.get_objects()))
        add(self, coarse, fine)

    monkeypatch.setattr(ErrorRecord, "add", counting_add)
    p = PhysParams()
    state0 = initial_state(GridSpec(8, 8), p)
    gc.collect()
    before = sum(isinstance(obj, SchemeState) for obj in gc.get_objects())
    cauchy_ladder(scheme, state0, p, 0.01, 2, 2)
    assert len(live) == 2 * (1 + 2)
    assert max(live) <= before + 3


@pytest.mark.parametrize("scheme", ["msav1", "msav2"])
def test_a_run_holds_one_level(scheme, monkeypatch):
    """Whenever a step starts, only the state it steps is live; whenever a row
    is audited, only that step's prev and new are.  The one exception is the
    msav2 bootstrap, which keeps the initial state: its fields become level
    1's history.  Both drivers hold to it: iterate_with_audits and
    simulate_run."""
    dt, starts, audits = 0.01, [], []

    def counting(fn, into):
        def wrapped(state, *args, **kwargs):
            gc.collect()
            into.append((state.t, sum(isinstance(obj, SchemeState) for obj in gc.get_objects()) - before))
            return fn(state, *args, **kwargs)
        return wrapped

    for module, name, into in ((diagnostics, "step_first_order", starts), (diagnostics, "step_second_order", starts),
                               (second_order, "step_first_order", starts), (diagnostics, "audit_step", audits)):
        monkeypatch.setattr(module, name, counting(getattr(module, name), into))
    p = PhysParams()

    def held(t):  # the initial state, while a bootstrap substep after the first runs
        return 1 if scheme == "msav2" and 0.0 < t < 0.9 * dt else 0

    def check():
        assert len(starts) == len(audits) == (4 if scheme == "msav1" else 7)
        assert [n for _, n in starts] == [1 + held(t) for t, _ in starts]
        assert [n for _, n in audits] == [2 + held(t) for t, _ in audits]
        starts.clear()
        audits.clear()

    gc.collect()
    before = sum(isinstance(obj, SchemeState) for obj in gc.get_objects())
    for _ in iterate_with_audits(scheme, initial_state(GridSpec(8, 8), p), p, dt, 4):
        pass
    check()
    del _  # the loop variable holds the final level
    gc.collect()
    before = sum(isinstance(obj, SchemeState) for obj in gc.get_objects())
    simulate_run(scheme, initial_state(GridSpec(8, 8), p), p, dt, 4)
    check()


@pytest.mark.parametrize("scheme, budget", [("msav1", 34), ("msav2", 48)])
def test_a_run_peaks_within_its_memory_budget(scheme, budget):
    """Peak traced memory of a 6-step audited run at 32^2 above its start, in
    field arrays of (n+1) n doubles, after a warm-up run has filled the
    transform symbol caches.  A level is 7 arrays for msav1 and 13 for msav2,
    so a run that keeps one more level alive exceeds the budget."""
    n, p = 32, PhysParams()

    def run():
        for _ in iterate_with_audits(scheme, initial_state(GridSpec(n, n), p), p, 0.01, 6):
            pass

    run()
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - start) / ((n + 1) * n * 8) <= budget


def test_attach_rates_layout():
    from chns.diagnostics import ErrorRecord

    recs = [
        ErrorRecord(0.02, 4.0, 4.0, 4.0, 4.0, 4.0, 4.0, 4.0),
        ErrorRecord(0.01, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0),
    ]
    rows = attach_rates(recs)
    assert np.isnan(rows[0]["rate_e_phi_linf"])
    assert rows[1]["rate_e_phi_linf"] == 2.0
    assert rows[1]["rate_e_grad_phi_linf"] == 1.0


def test_audit_csv_schema_shared_between_schemes(tmp_path):
    g = GridSpec(8, 8)
    p = PhysParams()
    s0 = initial_state(g, p)
    paths = {}
    for scheme in ("msav1", "msav2"):
        run = simulate_run(scheme, s0, p, 0.01, 3)
        path = tmp_path / f"audit_{scheme}.csv"
        write_audit_csv(path, run.audits)
        paths[scheme] = path.read_text().splitlines()
    assert paths["msav1"][0] == paths["msav2"][0] == ",".join(AUDIT_COLUMNS)
    assert len(paths["msav1"]) == 4  # header + one row per step
    assert len(paths["msav2"]) == 7  # header + 4 bootstrap substeps + 2 BDF2 rows


def test_csv_outputs_deterministic(tmp_path):
    g = GridSpec(8, 8)
    p = PhysParams()
    s0 = initial_state(g, p)
    texts = []
    for tag in ("a", "b"):
        run = simulate_run("msav1", s0, p, 0.01, 3)
        path = tmp_path / f"audit_{tag}.csv"
        write_audit_csv(path, run.audits)
        texts.append(path.read_bytes())
    assert texts[0] == texts[1]


def test_table_csv_single_row_has_empty_rates(tmp_path):
    from chns.diagnostics import ErrorRecord

    rows = attach_rates([ErrorRecord(0.01, 1e-3, 1e-2, 1e-4, 1e-3, 1e-2, 1e-3, 1e-4)])
    path = tmp_path / "table.csv"
    write_table_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(TABLE_COLUMNS)
    cells = lines[1].split(",")
    rate_positions = [i for i, c in enumerate(TABLE_COLUMNS) if c.startswith("rate_")]
    assert all(cells[i] == "" for i in rate_positions)


@pytest.mark.parametrize("scheme", ["msav1", "msav2"])
def test_energy_audit_detects_broken_pairing(scheme, monkeypatch):
    """Negative control: corrupting the velocity/chemical-force pairing must
    trip the decay audit, proving the monitor sees broken cancellations.

    The 2x2 system is handed the pairings (u~_i, mu grad phi) scaled by 1.5
    while the velocity solve keeps the true mu grad phi; they enter only the
    r row."""
    g = GridSpec(32, 32)
    p = PhysParams()
    s0 = initial_state(g, p)
    clean = simulate_run(scheme, s0, p, 0.01, 10)
    assert all(a.passed for a in clean.audits)

    assemble = first_order.assemble_xi_system

    def mis_weighted(lag, ch_pairs, vel_pairs, *rest):
        ut_chem, conv_ut = vel_pairs
        return assemble(lag, ch_pairs, (tuple(1.5 * x for x in ut_chem), conv_ut), *rest)

    monkeypatch.setattr(first_order, "assemble_xi_system", mis_weighted)
    corrupted = simulate_run(scheme, s0, p, 0.01, 10)
    assert any(not a.passed for a in corrupted.audits)


@pytest.mark.parametrize("scheme", ["msav1", "msav2"])
def test_carried_etilde_prev_equals_recomputed(scheme):
    g = GridSpec(16, 16)
    p = PhysParams()
    dt = 0.01
    prev = initial_state(g, p)
    for k, new, audits in iterate_with_audits(scheme, prev, p, dt, 10):
        if scheme == "msav2" and k == 1:
            # the bootstrap rows audit four first-order substeps of dt/4
            assert len(audits) == 4
            assert audits[0].Etilde_prev == modified_energy(prev, p, dt / 4)
            for row, following in zip(audits, audits[1:]):
                assert following.Etilde_prev == row.Etilde
        else:
            assert audits[0].Etilde_prev == modified_energy(prev, p, dt)
            assert audits[0].Etilde == modified_energy(new, p, dt)
        assert audits[-1].E_total == total_energy(new, p)
        prev = new


def test_audit_step_law_follows_the_state():
    """One audit for both laws: a first-order row (the msav2 bootstrap rows
    included) has no curl term and equal raw and adjusted defects; a row of
    two-level states is audited against the BDF2 law."""
    g = GridSpec(16, 16)
    p = PhysParams()
    dt = 0.01
    s0 = initial_state(g, p)
    first = audit_step(s0, step_first_order(s0, p, dt), p, dt)
    st2 = bootstrap(s0, p, dt)
    st3 = step_second_order(st2, p, dt)
    second = audit_step(st2, st3, p, dt)
    assert first.Etilde_prev == modified_energy(s0, p, dt)
    assert second.Etilde_prev == energy2_report(st2, p, dt)["etilde"]
    assert second.Etilde == energy2_report(st3, p, dt)["etilde"]
    assert first.passed and second.passed
    assert second.diss_curl > 0.0 and second.identity_defect != 0.0
    gap = second.decay_defect_raw - second.decay_defect + second.identity_defect
    assert abs(gap) <= 1e-12 * max(1.0, second.Etilde)
    _, _, bootstrap_rows = next(iterate_with_audits("msav2", s0, p, dt, 1))
    for row in [first] + bootstrap_rows:
        assert row.diss_curl == 0.0 and row.identity_defect == 0.0
        assert row.decay_defect_raw == row.decay_defect


def test_audit_slack_definition():
    assert audit_slack(0.5) == 1e-9
    assert abs(audit_slack(200.0) - 2e-7) <= 1e-20


def test_energy_decay_at_very_large_steps():
    """Unconditional stability: the decay inequality holds even for dt = 0.1
    and dt = 1.0 (a single step far beyond any accuracy regime)."""
    g = GridSpec(32, 32)
    p = PhysParams()
    s0 = initial_state(g, p)
    for dt in (0.1, 1.0):
        for scheme in ("msav1", "msav2"):
            run = simulate_run(scheme, s0, p, dt, 1)
            assert all(a.passed for a in run.audits), (scheme, dt)


def test_first_order_rates_stay_near_one_across_pairs():
    """Observed first-order rates stay near one over the asymptotic pairs.

    The coarsest pair is visibly pre-asymptotic for the phase field (rate
    0.53 here, identical in the reference tables) so the near-one window is
    asserted on the two finest rate rows; the auxiliary-energy scalar r is
    the slowest to settle (1.27 then 1.15) and gets the wider bound on the
    earlier row.  The acceptance gate checks the finest pair."""
    g = GridSpec(64, 64)
    p = PhysParams()
    s0 = initial_state(g, p)
    rows = attach_rates(cauchy_ladder("msav1", s0, p, 0.1 * 2.0**-3, 2**3, 4))
    for row in rows[2:]:
        for name, value in row.items():
            if not name.startswith("rate_"):
                continue
            if name == "rate_e_r" and row is not rows[-1]:
                assert 0.75 <= value <= 1.3, (name, row["dt"], value)
            else:
                assert 0.75 <= value <= 1.25, (name, row["dt"], value)
