"""Tour of the staggered-grid operator identities.

The whole solver rests on a handful of exact discrete facts about the MAC
layout; this script prints each one next to the machine-precision defect it
actually achieves:

  1. the face gradient and cell divergence are negative adjoints,
  2. the cell Laplacian (div o grad) is symmetric and its cosine-mode
     symbol matches the closed form,
  3. the node curl of any discrete gradient vanishes at interior nodes,
  4. conservative advection moves mass around without creating any,
  5. projection returns a discretely divergence-free field and is idempotent.
"""

import numpy as np

from chns.elliptic import project
from chns.grid import (
    CellField,
    GridSpec,
    MacVector,
    advect_scalar,
    curl_at_nodes,
    div_face_to_cell,
    dot_cell,
    dot_face,
    grad_cell_to_face,
    lap_cell,
    norm_l2_cell,
    norm_l2_face,
)

rng = np.random.default_rng(1)
g = GridSpec(48, 48)

p = CellField(g, rng.standard_normal((g.nx, g.ny)))
w = MacVector(g, rng.standard_normal((g.nx + 1, g.ny)), rng.standard_normal((g.nx, g.ny + 1)))
w.u[0, :] = w.u[-1, :] = 0.0
w.v[:, 0] = w.v[:, -1] = 0.0

lhs = dot_face(grad_cell_to_face(p), w)
rhs = -dot_cell(p, div_face_to_cell(w))
print(f"1. adjointness        <grad p, w> + <p, div w> = {lhs + (-rhs):+.3e} vs {lhs:+.3e}")

f, h = CellField(g, rng.standard_normal((g.nx, g.ny))), CellField(g, rng.standard_normal((g.nx, g.ny)))
sym = dot_cell(lap_cell(f), h) - dot_cell(f, lap_cell(h))
k = 5
mode = CellField.from_function(g, lambda x, y: np.cos(k * np.pi * x))
lam = -(2.0 / g.hx**2) * (1.0 - np.cos(k * np.pi * g.hx))
symbol_defect = norm_l2_cell(lap_cell(mode) - lam * mode)
print(f"2. laplacian          symmetry defect {sym:+.3e}, mode-{k} symbol defect {symbol_defect:.3e}")

curl = curl_at_nodes(grad_cell_to_face(p))
print(f"3. curl(grad p)       max interior value {np.max(np.abs(curl[1:-1, 1:-1])):.3e}")

mass_flux = g.cell_area * float(np.sum(advect_scalar(w, p).data))
print(f"4. advection          total mass flux {mass_flux:+.3e}")

u, _, _ = project(w, 0.01)
u2, _, _ = project(u, 0.01)
print(
    f"5. projection         |div u| = {norm_l2_cell(div_face_to_cell(u)):.3e}, "
    f"idempotence defect {norm_l2_face(u2 - u):.3e}"
)
