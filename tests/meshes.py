"""Mesh builders, and a walk over what a mesh keeps, shared by the tests."""

import numpy as np

from hdgplate.mesh import Mesh, generate_structured


def renumbered_grid(kind, n, seed):
    """The structured grid with shuffled vertex ids and element order."""
    return renumbered(generate_structured(kind, n), seed)


def renumbered(base, seed):
    """Points and loops of ``base`` with shuffled vertex ids and element
    order; every loop keeps its first vertex."""
    rng = np.random.default_rng(seed)
    relabel = rng.permutation(len(base.points))
    points = np.empty_like(base.points)
    points[relabel] = base.points
    loops = [tuple(int(v) for v in relabel[list(base.elements[i].vertex_loop)])
             for i in rng.permutation(base.num_elements)]
    return points, loops


def mixed_group_mesh():
    """Triangles, pentagons and quadrilaterals, each group numbered out of order."""
    points = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0],
                       [4.0, 0.0], [2.0, 1.0], [0.0, 2.0], [2.0, 2.0],
                       [4.0, 2.0], [0.0, 3.0], [2.0, 3.0], [4.0, 3.0]]) / 4.0
    loops = [(1, 2, 5), (0, 1, 5, 7, 6), (6, 7, 10, 9),
             (2, 3, 5), (3, 4, 8, 7, 5), (7, 8, 11, 10)]
    return Mesh(points, loops)


def mixed_strip(tiles):
    """``tiles`` copies of ``mixed_group_mesh`` (6 elements) side by side."""
    base = mixed_group_mesh()
    points = np.vstack([base.points + [i, 0.0] for i in range(tiles)])
    _, first, inv = np.unique(np.round(4 * points).astype(int), axis=0,
                              return_index=True, return_inverse=True)
    inv, nv = inv.ravel(), len(base.points)
    loops = [tuple(int(inv[v + i * nv]) for v in el.vertex_loop)
             for i in range(tiles) for el in base.elements]
    return Mesh(points[first], loops)


def arrays_in(value):
    """Every array reachable from ``value`` through tuples, lists, dicts
    and object attributes (dataclasses, batches, sparse matrices)."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from arrays_in(item)
    elif isinstance(value, dict):
        yield from arrays_in(list(value.values()))
    elif hasattr(value, "__dict__"):
        yield from arrays_in(vars(value))
