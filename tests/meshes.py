"""Mesh builders, and a walk over what a mesh keeps, shared by the tests."""

import numpy as np
import pytest
from scipy.spatial import KDTree, Voronoi

from hdgplate.mesh import Mesh, ShapeRegularityWarning, generate_structured


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


# one small mesh of each family, for the bit-for-bit oracle tests
FAMILIES = {
    "tri": lambda: generate_structured("triangle", 3),
    "quad": lambda: generate_structured("quadrilateral", 3),
    "mixed_strip": lambda: mixed_strip(2),
    "voronoi": lambda: short_edged_voronoi(),
    "jittered": lambda: jittered_quads(3),
    "renumbered": lambda: Mesh(*renumbered_grid("triangle", 3, 1)),
}


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


def on_unit_square(mesh):
    """``mesh`` mapped onto the unit square, the domain of the exact
    solution, by scaling each axis of its bounding box."""
    lo, hi = mesh.points.min(axis=0), mesh.points.max(axis=0)
    return Mesh((mesh.points - lo) / (hi - lo),
                [el.vertex_loop for el in mesh.elements])


def jittered_quads(n, seed=0):
    """The structured ``n`` x ``n`` quadrilateral grid with each interior
    vertex moved by ``0.2 / n`` times a ``U(-1, 1)^2`` draw; the boundary
    vertices stay where they are, and every cell stays convex."""
    base = generate_structured("quadrilateral", n)
    points = base.points.copy()
    inner = ((points > 0) & (points < 1)).all(axis=1)
    points[inner] += 0.2 / n * np.random.default_rng(seed).uniform(
        -1, 1, (np.count_nonzero(inner), 2))
    return Mesh(points, [el.vertex_loop for el in base.elements])


def voronoi_mesh(cells, seed=0):
    """A Lloyd-smoothed Voronoi mesh of the unit square with ``cells``
    convex polygons.  The seeds are reflected across the four sides, so
    that their cells close on the boundary (PolyMesher, Talischi et al.,
    Struct. Multidisc. Optim. 45, 2012), and moved to their cells'
    centroids 30 times; vertices closer than 1e-9 are merged."""
    seeds = np.random.default_rng(seed).random((cells, 2))
    for _ in range(30):
        vertices, loops, sizes = _voronoi_cells(seeds)
        seeds = _centroids(vertices[loops], sizes)
    vertices, loops, sizes = _voronoi_cells(seeds)
    label = np.arange(len(vertices))
    for i, j in sorted(KDTree(vertices).query_pairs(1e-9)):
        label[j] = label[i]
    used, ids = np.unique(label[loops], return_inverse=True)
    points = vertices[used]
    for side in (0.0, 1.0):
        points[np.abs(points - side) < 1e-9] = side
    loops = np.split(ids, np.cumsum(sizes)[:-1])
    return Mesh(points, [[int(v) for v, w in zip(loop, np.roll(loop, -1))
                          if v != w] for loop in loops])


def short_edged_voronoi():
    """``voronoi_mesh(16)``, whose element 15 has an edge shorter than
    ``C_REG * h_K``: the mesh's warning is expected, and checked."""
    with pytest.warns(ShapeRegularityWarning, match="1 element.*first "
                      "element 15:"):
        return voronoi_mesh(16)


def _voronoi_cells(seeds):
    """Vertices of the Voronoi diagram of ``seeds`` and their mirror images
    across the unit square's sides, and each seed's cell as a CCW loop of
    vertex ids: the loops laid end to end, and their sizes."""
    x, y = seeds.T
    vor = Voronoi(np.vstack([seeds] + [np.column_stack(xy) for xy in (
        (-x, y), (2 - x, y), (x, -y), (x, 2 - y))]))
    regions = [vor.regions[r] for r in vor.point_region[:len(seeds)]]
    sizes = np.array([len(region) for region in regions])
    owner = np.repeat(np.arange(len(seeds)), sizes)
    loops = np.concatenate(regions)
    pts = vor.vertices[loops]
    mean = np.add.reduceat(pts, np.cumsum(sizes) - sizes) / sizes[:, None]
    d = pts - mean[owner]   # a convex cell is CCW by angle about its mean
    return vor.vertices, loops[np.lexsort(
        (np.arctan2(d[:, 1], d[:, 0]), owner))], sizes


def _centroids(pts, sizes):
    """Area centroids of CCW polygons laid end to end in ``pts``."""
    start = np.cumsum(sizes) - sizes
    nxt = np.arange(1, len(pts) + 1)
    nxt[start + sizes - 1] = start
    cross = pts[:, 0] * pts[nxt, 1] - pts[nxt, 0] * pts[:, 1]
    moment = np.add.reduceat((pts + pts[nxt]) * cross[:, None], start)
    return moment / (3 * np.add.reduceat(cross, start))[:, None]


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
