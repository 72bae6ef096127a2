"""Workload definitions and seeded structured-grid inputs.

A workload is a fixed list of cases run one after another in a single
process (closed loop, one client).  Every case is one structured mesh of
the unit square and one plate thickness.  Cases that share a mesh size
share one ``Mesh`` built once per run, so the ``quad-tsweep`` solves
reuse their mesh the way a thickness study would.

The seed only renumbers the inputs: it permutes the vertex and element
numbering of the structured grid.  Seed 0 is the order of
``hdgplate.mesh.generate_structured``.  The program under test receives
nothing but ``points`` and ``loops``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                  # "triangle" | "quadrilateral"
    k: int
    levels: tuple[int, ...]    # cells per side, one mesh each
    thicknesses: tuple[float, ...]
    rate_bands: bool = False   # gate the final observed rates (criterion 2)

    def cases(self):
        """(n, t) in run order: every thickness on each mesh in turn."""
        return [(n, t) for n in self.levels for t in self.thicknesses]


def case_key(kind: str, n: int, k: int, t: float) -> str:
    return f"{kind}-n{n}-k{k}-t{t:g}"


WORKLOADS = {
    w.name: w for w in (
        Workload("tri-study", "triangle", 1, (8, 16, 32, 64), (1e-2,),
                 rate_bands=True),
        Workload("quad-tsweep", "quadrilateral", 2, (32,),
                 (1.0, 1e-2, 1e-4, 1e-6)),
        Workload("tri-k3-thin", "triangle", 3, (48,), (1e-6,)),
    )
}

# Small versions of the workloads with the same shape, for the
# benchmark's own tests.
TINY = {
    "tri-study": Workload("tri-study", "triangle", 1, (8, 16), (1e-2,),
                          rate_bands=True),
    "quad-tsweep": Workload("quad-tsweep", "quadrilateral", 2, (4,),
                            (1.0, 1e-6)),
    "tri-k3-thin": Workload("tri-k3-thin", "triangle", 3, (4,), (1e-6,)),
}


def structured_grid(kind: str, n: int, seed: int):
    """Points and CCW vertex loops of the n x n unit-square grid.

    Seed 0 reproduces ``generate_structured`` exactly; any other seed
    applies a random vertex relabelling and a random element order.
    Loops keep their counter-clockwise orientation and starting vertex.
    """
    coords = np.arange(n + 1) / n
    xv, yv = np.meshgrid(coords, coords, indexing="xy")
    points = np.column_stack([xv.ravel(), yv.ravel()])

    j, i = np.divmod(np.arange(n * n), n)
    a = j * (n + 1) + i
    b, c, d = a + 1, a + n + 2, a + n + 1
    if kind == "quadrilateral":
        loops = np.stack([a, b, c, d], axis=1)
    elif kind == "triangle":
        loops = np.stack([np.stack([a, b, c], axis=1),
                          np.stack([a, c, d], axis=1)], axis=1).reshape(-1, 3)
    else:
        raise ValueError(f"unknown mesh kind {kind!r}")

    if seed:
        rng = np.random.default_rng(seed)
        relabel = rng.permutation(len(points))
        new_points = np.empty_like(points)
        new_points[relabel] = points
        points = new_points
        loops = relabel[loops][rng.permutation(len(loops))]
    return points, [tuple(int(v) for v in loop) for loop in loops]
