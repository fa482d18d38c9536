"""Span tracing of one `chns` run from outside the package.

The traced layers are the package's modules.  `WRAP_TABLE` declares which
function belongs to which layer, by the module that defines it.  `install`
rebinds each of them under every name a `chns` module binds it to, which is
what the callers look up: `chns.first_order.solve_ch_system` as well as
`chns.elliptic.solve_ch_system`, and scipy's transforms as `chns.elliptic`
imported them.  A table entry whose module or attribute no longer exists is
skipped and listed as unwrapped, so refactors that delete or merge functions
do not break the trace.

Spans stay in memory (flat lists, one slot per call) and are turned into
per-layer metrics after the run.  Layer times are inclusive: a solve's time
contains its transforms and residual check.  Self time is a span's duration
minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
from time import perf_counter

# (layer, defining module, attribute); a dotted attribute names a method.
WRAP_TABLE = (
    ("elliptic.ch", "chns.elliptic", "solve_ch_system"),
    ("elliptic.helmholtz", "chns.elliptic", "solve_velocity_helmholtz"),
    ("elliptic.poisson", "chns.elliptic", "solve_neumann_poisson"),
    ("elliptic.transform", "chns.elliptic", "dctn"),
    ("elliptic.transform", "chns.elliptic", "idctn"),
    ("elliptic.transform", "chns.elliptic", "dst"),
    ("elliptic.transform", "chns.elliptic", "idst"),
    ("elliptic.operator", "chns.elliptic", "apply_ch_operator"),
    ("elliptic.operator", "chns.elliptic", "apply_helmholtz_operator"),
    ("grid.explicit", "chns.grid", "advect_scalar"),
    ("grid.explicit", "chns.grid", "advect_velocity"),
    ("grid.explicit", "chns.grid", "chemical_force"),
    ("grid.stencil", "chns.grid", "grad_cell_to_face"),
    ("grid.stencil", "chns.grid", "div_face_to_cell"),
    ("grid.stencil", "chns.grid", "lap_cell"),
    ("grid.stencil", "chns.grid", "lap_velocity"),
    ("grid.stencil", "chns.grid", "curl_at_nodes"),
    ("grid.reduce", "chns.grid", "dot_cell"),
    ("grid.reduce", "chns.grid", "dot_face"),
    ("grid.reduce", "chns.grid", "norm_l2_cell"),
    ("grid.reduce", "chns.grid", "norm_l2_face"),
    ("grid.reduce", "chns.grid", "norm_l2_nodes"),
    ("grid.reduce", "chns.grid", "norm_h1_semi"),
    ("grid.io", "chns.grid", "write_field_csv"),
    ("grid.io", "chns.grid", "read_field_csv"),
    ("grid.io", "chns.grid", "write_field_bin"),
    ("grid.io", "chns.grid", "read_field_bin"),
    ("model.potential", "chns.model", "potential_f_prime"),
    ("model.potential", "chns.model", "energy_e1"),
    ("model.potential", "chns.model", "sqrt_aux_energy"),
    ("model.setup", "chns.model", "initial_state"),
    ("model.setup", "chns.model", "state_from_fields"),
    ("stepper.step", "chns.first_order", "step_first_order"),
    ("stepper.step", "chns.second_order", "step_second_order"),
    ("stepper.bootstrap", "chns.second_order", "bootstrap"),
    ("stepper.xi", "chns.first_order", "assemble_xi_system"),
    ("stepper.xi", "chns.second_order", "_assemble_xi_system2"),
    ("stepper.xi", "chns.first_order", "solve_xi"),
    ("diagnostics.audit", "chns.diagnostics", "audit_step_first"),
    ("diagnostics.audit", "chns.diagnostics", "audit_step_second"),
    ("diagnostics.cauchy", "chns.diagnostics", "_CauchyAccumulator.add"),
    ("diagnostics.cauchy", "chns.diagnostics", "cauchy_errors"),
    ("diagnostics.cauchy", "chns.diagnostics", "attach_rates"),
    ("diagnostics.csv", "chns.diagnostics", "write_audit_csv"),
    ("diagnostics.csv", "chns.diagnostics", "write_table_csv"),
    ("cli.config", "chns.cli", "parse_config_text"),
    ("cli.config", "chns.cli", "build_config"),
    ("cli.config", "chns.cli", "_gather_config"),
    ("cli.run", "chns.cli", "main"),
    ("cli.run", "chns.cli", "cmd_simulate"),
    ("cli.run", "chns.cli", "cmd_converge"),
)

SOLVERS = ("elliptic.ch", "elliptic.helmholtz", "elliptic.poisson")
STEPPERS = ("stepper.step", "stepper.bootstrap")
# Layers whose call counts must repeat exactly from one traced run to the next.
COUNTED = SOLVERS + ("elliptic.transform", "grid.explicit", "grid.stencil", "grid.reduce",
                     "model.potential")


def _nbytes(args, kwargs, result):
    # computed bytes of a transform: its input read plus its output written
    return args[0].nbytes + result.nbytes


def _iterations(args, kwargs, result):
    return result[1].iterations


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _interval(args, kwargs, result):
    return (round(args[0].t, 12), round(result.t, 12))


MEASURES = {
    "elliptic.transform": _nbytes,
    "elliptic.ch": _iterations,
    "elliptic.helmholtz": _iterations,
    "elliptic.poisson": _iterations,
    "grid.io": _file_bytes,
    "diagnostics.csv": _file_bytes,
    "stepper.step": _interval,
    "stepper.bootstrap": _interval,
}


class Tracer:
    """Installs span-recording wrappers and turns the spans into metrics."""

    def __init__(self):
        self.labels = []  # label per wrapped function
        self.label_layer = []
        self.wrapped = []  # "module.attr" bindings that were rebound
        self.unwrapped = []  # table entries that were not found
        self._patches = []
        self._wrappers = {}  # label -> wrapper, built on the first install
        self.reset()

    def reset(self):
        self.fn = []
        self.parent = []
        self.t0 = []
        self.t1 = []
        self.extra = []
        self.raised = []
        self._stack = [-1]

    # -- installation ------------------------------------------------------

    def install(self):
        self.wrapped.clear()
        self.unwrapped.clear()
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "chns" or name.startswith("chns."))]
        for layer, modname, attr in WRAP_TABLE:
            try:
                owner = importlib.import_module(modname)
                *path, name = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, name)
            except (ImportError, AttributeError):
                self.unwrapped.append(f"{modname}.{attr}")
                continue
            label = f"{modname}.{attr}"
            if label not in self._wrappers:
                self._wrappers[label] = self._wrapper(layer, label, original)
            wrapper = self._wrappers[label]
            if path:  # a method: rebind it on its class
                self._patch(owner, name, wrapper, f"{modname}.{attr}")
                continue
            for module in modules:
                for bound, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, bound, wrapper, f"{module.__name__}.{bound}")

    def _patch(self, owner, name, wrapper, label):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)
        self.wrapped.append(label)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _wrapper(self, layer, label, fn):
        fid = len(self.labels)
        self.labels.append(label)
        self.label_layer.append(layer)
        measure = MEASURES.get(layer)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            i = len(tracer.t0)
            tracer.fn.append(fid)
            tracer.parent.append(stack[-1])
            tracer.t1.append(0.0)
            tracer.extra.append(None)
            tracer.raised.append(None)
            stack.append(i)
            tracer.t0.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.t1[i] = perf_counter()
                tracer.raised[i] = type(exc).__name__
                stack.pop()
                raise
            tracer.t1[i] = perf_counter()
            stack.pop()
            if measure is not None:
                try:
                    tracer.extra[i] = measure(args, kwargs, result)
                except (AttributeError, IndexError, TypeError, OSError):
                    pass  # signature changed: the span stays, its measure is lost
            return result

        return wrapper

    # -- metrics -----------------------------------------------------------

    def spans(self):
        """Columnar dump of the recorded spans."""
        return {
            "labels": self.labels,
            "layers": self.label_layer,
            "fn": self.fn,
            "parent": self.parent,
            "t0": self.t0,
            "t1": self.t1,
            "raised": self.raised,
        }

    def metrics(self, nominal_steps):
        """Per-layer metrics of the spans recorded since the last reset,
        plus the exact counts that must repeat between runs."""
        n = len(self.t0)
        layer = [self.label_layer[f] for f in self.fn]
        dur = [self.t1[i] - self.t0[i] for i in range(n)]
        own = list(dur)  # self time: duration minus direct children
        for i in range(n):
            if self.parent[i] >= 0:
                own[self.parent[i]] -= dur[i]

        def has_ancestor(i, layers):
            p = self.parent[i]
            while p >= 0:
                if layer[p] in layers:
                    return True
                p = self.parent[p]
            return False

        # outermost spans of each layer: no enclosing span of the same layer
        calls, busy = {}, {}
        for i in range(n):
            if not has_ancestor(i, (layer[i],)):
                calls[layer[i]] = calls.get(layer[i], 0) + 1
                busy[layer[i]] = busy.get(layer[i], 0.0) + dur[i]

        def total(pred, values):
            return sum(values[i] for i in range(n) if pred(i))

        def extra_sum(layers):
            return sum(self.extra[i] or 0 for i in range(n) if layer[i] in layers)

        steps = [i for i in range(n) if layer[i] in STEPPERS and not has_ancestor(i, STEPPERS)]
        step_ms = [1e3 * dur[i] for i in steps] or [0.0]
        intervals = {self.extra[i] for i in steps}
        run_wall = sum(dur[i] for i in range(n) if self.parent[i] < 0 and layer[i] == "cli.run")

        per_step = 1.0 / nominal_steps
        m = {}
        for name in COUNTED:
            m[f"{name}.calls_per_step"] = calls.get(name, 0) * per_step
            m[f"{name}.ms_per_step"] = 1e3 * busy.get(name, 0.0) * per_step
        m["elliptic.transform.mb_per_step"] = 1e-6 * extra_sum(("elliptic.transform",)) * per_step
        m["elliptic.residual.ms_per_step"] = 1e3 * per_step * total(
            lambda i: layer[i] == "elliptic.operator"
            or (layer[i] == "grid.stencil" and self.parent[i] >= 0 and layer[self.parent[i]] in SOLVERS),
            dur,
        )
        m["elliptic.iterations_per_step"] = extra_sum(SOLVERS) * per_step
        m["elliptic.failures"] = sum(1 for i in range(n) if layer[i] in SOLVERS and self.raised[i])
        m["grid.io.ms_per_run"] = 1e3 * busy.get("grid.io", 0.0)
        m["grid.io.mb_per_run"] = 1e-6 * extra_sum(("grid.io",))
        m["grid.io.files_per_run"] = calls.get("grid.io", 0)
        m["model.setup.ms"] = 1e3 * busy.get("model.setup", 0.0)
        m["stepper.step_ms.p50"] = statistics.median(step_ms)
        m["stepper.step_ms.p90"] = (statistics.quantiles(step_ms, n=10)[8]
                                    if len(step_ms) > 1 else step_ms[0])
        # first interval of each integration: the msav2 bootstrap, a plain step for msav1
        first = [1e3 * dur[i] for i in steps if self.extra[i] and self.extra[i][0] == 0.0]
        m["stepper.bootstrap_ms"] = statistics.mean(first) if first else 0.0
        m["stepper.self_ms_per_step"] = 1e3 * per_step * total(lambda i: layer[i] in STEPPERS, own)
        m["stepper.xi.ms_per_step"] = 1e3 * busy.get("stepper.xi", 0.0) * per_step
        m["stepper.singular"] = sum(
            1 for i in range(n) if layer[i] == "stepper.xi" and self.raised[i] == "SingularSystemError")
        m["diagnostics.audit.ms_per_step"] = 1e3 * busy.get("diagnostics.audit", 0.0) * per_step
        m["diagnostics.audit.share"] = busy.get("diagnostics.audit", 0.0) / run_wall if run_wall else 0.0
        m["diagnostics.ladder.steps_integrated"] = len(steps)
        m["diagnostics.ladder.steps_distinct"] = len(intervals)
        m["diagnostics.ladder.useful_ratio"] = len(intervals) / len(steps) if steps else 0.0
        m["diagnostics.cauchy.ms_per_run"] = 1e3 * busy.get("diagnostics.cauchy", 0.0)
        m["diagnostics.csv.ms_per_run"] = 1e3 * busy.get("diagnostics.csv", 0.0)
        m["diagnostics.csv.mb_per_run"] = 1e-6 * extra_sum(("diagnostics.csv",))
        m["cli.config.ms"] = 1e3 * busy.get("cli.config", 0.0)
        m["cli.self_ms_per_run"] = 1e3 * total(lambda i: layer[i] == "cli.run", own)

        counts = {f"{name}.calls": calls.get(name, 0) for name in COUNTED}
        counts["diagnostics.ladder.steps_integrated"] = len(steps)
        counts["diagnostics.ladder.steps_distinct"] = len(intervals)
        return m, counts
