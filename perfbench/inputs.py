"""Seeded initial data for the restart workload, written without chns.

The fields are the `paper5` data plus a smooth random perturbation drawn
from the workload seed:

  * phi = cos(pi x) cos(pi y) + sum a_kl cos(k pi x) cos(l pi y);
  * the velocity is the discrete curl of a node stream function
    psi = sin^2(pi x) sin^2(pi y) / pi + sum b_kl sin(k pi x) sin(l pi y)
    that vanishes on the walls, so it is discretely divergence-free and has
    zero normal components, as a restart state must.

Each field is written twice, in the two snapshot formats the CLI reads: the
`.bin` copy is what the timed runs load, the `.csv` copy feeds the reference
run that the timed runs are checked against.
"""

from __future__ import annotations

import os

import numpy as np

_KIND_CODES = {"cell": 0, "face_u": 1, "face_v": 2}
MODES = 3  # perturbation modes per direction


def restart_fields(nx: int, ny: int, seed: int):
    rng = np.random.default_rng(seed)
    a = 0.05 * rng.standard_normal((MODES, MODES))
    b = 0.02 * rng.standard_normal((MODES, MODES))
    hx, hy = 1.0 / nx, 1.0 / ny
    xc = (np.arange(nx) + 0.5) * hx
    yc = (np.arange(ny) + 0.5) * hy
    xn = np.arange(nx + 1) * hx
    yn = np.arange(ny + 1) * hy

    phi = np.cos(np.pi * xc)[:, None] * np.cos(np.pi * yc)[None, :]
    psi = np.sin(np.pi * xn)[:, None] ** 2 * np.sin(np.pi * yn)[None, :] ** 2 / np.pi
    for k in range(MODES):
        for m in range(MODES):
            phi += a[k, m] * np.cos((k + 1) * np.pi * xc)[:, None] * np.cos((m + 1) * np.pi * yc)[None, :]
            psi += b[k, m] * np.sin((k + 1) * np.pi * xn)[:, None] * np.sin((m + 1) * np.pi * yn)[None, :]
    psi[0, :] = psi[-1, :] = 0.0
    psi[:, 0] = psi[:, -1] = 0.0
    u = (psi[:, 1:] - psi[:, :-1]) / hy
    v = -(psi[1:, :] - psi[:-1, :]) / hx
    return {"cell": phi, "face_u": u, "face_v": v}


def _header(nx, ny, kind):
    return [float(nx), float(ny), 1.0 / nx, 1.0 / ny, float(_KIND_CODES[kind]), 0.0, 0.0, 0.0]


def write_bin(path, nx, ny, kind, values):
    """Snapshot layout: eight little-endian doubles [nx, ny, hx, hy, kind, x0, y0, 0]
    followed by the row-major values."""
    with open(path, "wb") as fh:
        np.asarray(_header(nx, ny, kind), dtype="<f8").tofile(fh)
        np.asarray(values, dtype="<f8").tofile(fh)


def write_csv(path, nx, ny, kind, values):
    """Snapshot layout: '# nx,ny,hx,hy,kind' then one row of values per line."""
    with open(path, "w") as fh:
        fh.write(f"# {nx},{ny},{1.0 / nx:.17g},{1.0 / ny:.17g},{kind}\n")
        np.savetxt(fh, values, fmt="%.17g", delimiter=",")


def write_restart_inputs(directory, nx, ny, seed):
    """Write phi/u/v in both formats; returns the --set overrides for each."""
    os.makedirs(directory, exist_ok=True)
    fields = restart_fields(nx, ny, seed)
    names = {"cell": "phi", "face_u": "u", "face_v": "v"}
    sets = {"bin": {}, "csv": {}}
    for kind, values in fields.items():
        stem = os.path.join(directory, names[kind])
        write_bin(stem + ".bin", nx, ny, kind, values)
        write_csv(stem + ".csv", nx, ny, kind, values)
        sets["bin"][f"init_{names[kind]}"] = stem + ".bin"
        sets["csv"][f"init_{names[kind]}"] = stem + ".csv"
    return sets
