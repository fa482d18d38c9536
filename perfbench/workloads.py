"""Workload table of the chns benchmark.

Each workload is one `chns` command line (`simulate` or `converge`) with
fixed overrides.  The full-size table is what the benchmark measures; the
smoke table keeps every workload's shape (scheme, subcommand, snapshot I/O,
ladder) on grids small enough for a seconds-scale schema check.

Only `restart-io-160` takes data from the workload seed: it reads perturbed
initial fields that the benchmark writes as `.bin` snapshots.  The other
three start from the built-in `paper5` data.  Their cost does not depend on data
values: every elliptic solve is a direct transform solve and every
run has a fixed step count.

This module imports neither numpy nor chns, so the parent process stays
small and can validate the checkout before anything is imported.
"""

from __future__ import annotations

from dataclasses import dataclass

# Acceptance windows of the first-order finest-pair Cauchy rates, restated
# from the acceptance suite (criterion 3) rather than imported from it.
RATE_WINDOWS_MSAV1 = {
    "rate_e_phi_linf": (0.75, 1.05),
    "rate_e_grad_phi_linf": (0.75, 1.05),
    "rate_e_r": (0.9, 1.2),
    "rate_e_u_linf": (0.85, 1.1),
    "rate_e_grad_u_l2": (0.8, 1.1),
    "rate_e_p_l2": (0.85, 1.2),
    "rate_e_q": (0.9, 1.1),
}

CONVERGE_LADDER = (0.0125, 0.00625, 0.003125, 0.0015625)

SMOKE_CALIB = (1, 0.002)  # one pseudo-step on the seconds-scale grids


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # chns subcommand: simulate | converge
    sets: tuple  # (key, value) overrides passed as --set key=value
    warmup_t_final: str  # shorter horizon of the untimed warm-up run
    config: str = ""  # repo-relative config file passed as --config
    rate_windows: tuple = ()  # converge only: finest-pair rate windows
    # Arrays of about nx*ny doubles that a step keeps live: state, substeps
    # and new state (33); msav2 adds history, extrapolants and explicit terms.
    live_arrays: int = 33
    # Calibration kernel (calib.py) on this workload's grid: (pseudo-steps
    # per call, its time in s on the reference machine).  The time sets the
    # scale of the calibrated times.
    calib: tuple = SMOKE_CALIB

    @property
    def settings(self) -> dict:
        return dict(self.sets)

    @property
    def nx(self) -> int:
        return int(self.settings["nx"])

    @property
    def ny(self) -> int:
        return int(self.settings["ny"])

    @property
    def scheme(self) -> str:
        return self.settings.get("scheme", "msav1")

    @property
    def seeded(self) -> bool:
        return self.settings.get("init") == "files"

    @property
    def nominal_steps(self) -> int:
        """Steps the command integrates by its configuration: t_final/dt for
        simulate; for converge every rung's dt run plus its dt/2 companion."""
        t_final = float(self.settings["t_final"])
        if self.command == "converge":
            return sum(3 * round(t_final / dt) for dt in CONVERGE_LADDER)
        return round(t_final / float(self.settings["dt"]))

    def working_set_bytes(self) -> int:
        return self.live_arrays * (self.nx + 1) * (self.ny + 1) * 8

    def argv(self, root: str, outdir: str, overrides: dict, t_final: str = "") -> list:
        """The chns command line; overrides are extra --set pairs, such as the
        initial-data files of the restart workload."""
        sets = dict(self.sets)
        if t_final:
            sets["t_final"] = t_final
        sets.update(overrides)
        sets["outdir"] = outdir
        argv = [self.command]
        if self.config:
            argv += ["--config", f"{root}/{self.config}"]
        for key, value in sets.items():
            argv += ["--set", f"{key}={value}"]
        return argv + ["--threads", "1"]


def _sim(name, n, scheme, t_final, warmup, calib=SMOKE_CALIB, **extra):
    sets = {"nx": str(n), "ny": str(n), "scheme": scheme, "dt": "0.001",
            "t_final": t_final, "init": "paper5", "snapshot_every": "0"}
    sets.update(extra)
    return Workload(name, "simulate", tuple(sets.items()), warmup,
                    live_arrays=55 if scheme == "msav2" else 33, calib=calib)


def _converge(name, n, calib=SMOKE_CALIB):
    sets = {"nx": str(n), "ny": str(n), "t_final": "0.1"}
    return Workload(name, "converge", tuple(sets.items()), "0.0125", config="demos/paper5.cfg",
                    rate_windows=tuple(RATE_WINDOWS_MSAV1.items()), calib=calib)


def _restart(name, n, t_final, calib=SMOKE_CALIB):
    return _sim(name, n, "msav1", t_final, "0.002", calib, init="files", snapshot_every="2")


FULL = {
    w.name: w
    for w in (
        _sim("sim-msav1-160", 160, "msav1", "0.1", "0.001", calib=(20, 0.22)),
        _sim("sim-msav2-320", 320, "msav2", "0.05", "0.002", calib=(14, 0.65)),
        _converge("converge-msav1-64", 64, calib=(80, 0.26)),
        _restart("restart-io-160", 160, "0.02", calib=(12, 0.23)),
    )
}

# Same names and shapes, seconds-scale sizes.
SMOKE = {
    w.name: w
    for w in (
        _sim("sim-msav1-160", 24, "msav1", "0.004", "0.001"),
        _sim("sim-msav2-320", 24, "msav2", "0.004", "0.002"),
        _converge("converge-msav1-64", 16),
        _restart("restart-io-160", 24, "0.004"),
    )
}


def table(smoke: bool) -> dict:
    return SMOKE if smoke else FULL
