"""Machine-speed calibration of the chns benchmark.

The benchmark's host is a shared VM whose speed drifts by 20-50% over
minutes (CPU time tracks wall time, so the process is running, only
slower).  A run of one workload can sit wholly in a slow or a fast spell,
so raw wall times of the same code spread past any useful bound.

`Calibrator(workload).time()` times fixed work with the program's resource
mix on the workload's grid and nothing from `chns`: transforms with a
spectral division (the direct solves), face stencils and field arithmetic
(explicit terms, projections), reductions (the audit), a loop of small
numpy calls (per-call overhead, which dominates at 64^2), a plain
interpreter loop and, for the seeded restart workload, CSV formatting in
memory (snapshot output).  The benchmark times it right before and after every timed run
and scales that run's time by `ref_s / kernel time`: the time the run would
have taken on a machine on which the kernel takes `ref_s`.  The program's
code never runs the kernel, so a faster program still reads faster.
"""

from __future__ import annotations

import io
from time import perf_counter

import numpy as np
import scipy.fft as sfft


def _fields(n):
    rng = np.random.default_rng(12345)
    eig = 2 - 2 * np.cos(np.pi * np.arange(n) / n)
    return {
        "phi": rng.standard_normal((n, n)),
        "u": rng.standard_normal((n + 1, n)),
        "v": rng.standard_normal((n, n + 1)),
        "lam": 1.0 + 1e-3 * n * n * (eig[:, None] + eig[None, :]),
        "small": rng.standard_normal(8),
    }


def _pseudo_step(f, text):
    phi, u, v, lam = f["phi"], f["u"], f["v"], f["lam"]
    acc = 0.0
    for _ in range(8):  # direct solves: forward transform, divide, inverse
        rhs = phi + 0.5 * (u[1:] - u[:-1]) + 0.5 * (v[:, 1:] - v[:, :-1])
        sol = sfft.idctn(sfft.dctn(rhs, type=2, norm="ortho") / lam, type=2, norm="ortho")
        acc += float(np.vdot(sol, sol))
    for _ in range(6):  # explicit terms and projections on the faces
        gx = np.zeros_like(u)
        gx[1:-1] = phi[1:] - phi[:-1]
        gy = np.zeros_like(v)
        gy[:, 1:-1] = phi[:, 1:] - phi[:, :-1]
        w = phi * phi * phi - phi + 0.01 * ((u[1:] + u[:-1]) * gx[1:] + (v[:, 1:] + v[:, :-1]) * gy[:, 1:])
        acc += float(np.sum(w * w)) + float(np.abs(gx).max()) + float(np.sum(gy * gy))
    small = f["small"]
    for _ in range(300):  # per-call overhead: scalars, 2x2 systems, tiny arrays
        small = np.tanh(small * 0.5 + 0.1)
        acc += float(small.sum()) + float(np.dot(small[:2], small[2:4]))
    for i in range(3000):  # interpreter work: configuration, bookkeeping, CSV rows
        acc += (i * i) % 7
    if text:  # snapshot output: half a field as %.17g CSV, in memory
        buf = io.StringIO()
        np.savetxt(buf, phi[: len(phi) // 2], fmt="%.17g", delimiter=",")
        acc += len(buf.getvalue())
    return acc


class Calibrator:
    """The kernel of one workload; build it once, call `time()` often."""

    def __init__(self, workload):
        # a few small arrays: between runs they add nothing to the worker's peak RSS
        self._fields = _fields(workload.nx)
        self._repeats = workload.calib[0]
        self._text = workload.seeded
        self.time()  # first call builds the transform plans

    def time(self) -> float:
        t0 = perf_counter()
        for _ in range(self._repeats):
            _pseudo_step(self._fields, self._text)
        return perf_counter() - t0
