"""Planar polygonal meshes with oriented edges for hybrid DG assembly.

A mesh stores vertices, derived edges and convex polygonal elements as
arrays.  Every edge has a globally fixed orientation, from its
lower-numbered vertex to the higher-numbered one, whose normal is that
tangent rotated by -90 degrees.  Each element records, per local edge,
the edge id and a sign ``s`` such that ``s`` times the global normal is
the outward normal of the element on that edge.  This makes all trace
quantities single-valued across element interfaces.
"""

from __future__ import annotations

import numbers
import warnings
from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "Element",
    "Mesh",
    "MeshTopologyError",
    "ShapeRegularityWarning",
    "generate_structured",
]


class MeshTopologyError(ValueError):
    """Raised for invalid connectivity or elements: an edge with more than
    two adjacent elements or run through twice in the same direction, a
    degenerate, clockwise or non-convex loop."""


class ShapeRegularityWarning(UserWarning):
    """Emitted when an element has an edge much shorter than its diameter."""


# shape-regularity threshold: warn on an edge shorter than C_REG * h_K
C_REG = 0.05


class Element(NamedTuple):
    """An element's id and its vertex loop; the geometry is on the mesh."""
    id: int
    vertex_loop: tuple[int, ...]        # counter-clockwise


class Mesh:
    """Immutable vertices, edges and CCW convex polygonal elements.

    Parameters
    ----------
    points : (V, 2) array
        Vertex coordinates; vertex ids are the row indices.
    loops : sequence of vertex-id sequences
        One counter-clockwise loop per element.

    The loops are stored flattened: local edge ``j`` of element ``i`` is
    slot ``loop_start[i] + j``, which runs from vertex ``loop_vertices``
    to the next vertex of the loop along edge ``loop_edges`` with sign
    ``loop_signs``.  Edges are numbered in order of first appearance
    (element by element, then local edge); ``edge_vertices`` holds the
    (lower, higher) vertex ids, ``edge_length`` the lengths and
    ``boundary_mask`` is True on edges with one adjacent element.
    Elements carry ``area``, ``centroid`` and ``diameter`` (the largest
    vertex distance), and ``groups`` lists the element ids of each
    vertex count in ascending count.  All arrays are read-only.  What is
    built from the mesh on first use and kept for its lifetime is in
    ``kept``, through :meth:`keep`.
    """

    def __init__(self, points: np.ndarray, loops: Sequence[Sequence[int]]):
        self.points = np.array(points, dtype=float)  # read-only copy
        if self.points.ndim != 2 or self.points.shape[1] != 2:
            raise ValueError("points must be a (V, 2) array")
        bad = np.flatnonzero(~np.isfinite(self.points).all(axis=1))
        if bad.size:
            raise ValueError(f"vertex {bad[0]} has a non-finite coordinate")
        loops = [tuple(map(int, loop)) for loop in loops]
        if not loops:
            raise MeshTopologyError("mesh has no elements")
        sizes = np.fromiter(map(len, loops), int, len(loops))
        bad = np.flatnonzero(sizes < 3)
        if bad.size:
            raise MeshTopologyError(
                f"element {bad[0]} has fewer than 3 vertices")
        self.loop_start = np.concatenate([[0], np.cumsum(sizes)])
        owner = np.repeat(np.arange(len(loops)), sizes)
        a = np.fromiter(chain.from_iterable(loops), int, self.loop_start[-1])
        bad = np.flatnonzero((a < 0) | (a >= len(self.points)))
        if bad.size:
            raise MeshTopologyError(
                f"element {owner[bad[0]]} references unknown vertex")
        self.loop_vertices = a
        self.groups = tuple(np.flatnonzero(sizes == nv)
                            for nv in np.unique(sizes))
        self._element_geometry()
        self._number_edges()
        self.h = float(self.diameter.max())

        short = (self.edge_length[self.loop_edges]
                 < C_REG * self.diameter[owner])
        flagged, first = np.unique(owner[short], return_index=True)
        for eid, slot in zip(flagged, np.flatnonzero(short)[first]):
            warnings.warn(
                f"element {eid}: edge {self.loop_edges[slot]} shorter than "
                f"{C_REG} * h_K", ShapeRegularityWarning)
        _freeze(vars(self))     # before the records, which hold no array
        self.elements = tuple(map(Element, range(len(loops)), loops))
        self.kept = {}

    def slots(self, ids: np.ndarray) -> np.ndarray:
        """(len(ids), nv) loop slots of elements that all have nv vertices."""
        start = self.loop_start[ids]
        nv = self.loop_start[ids[0] + 1] - start[0]
        return start[:, None] + np.arange(nv)

    def _element_geometry(self):
        ne = len(self.loop_start) - 1
        self.area, self.diameter = np.empty(ne), np.empty(ne)
        self.centroid = np.empty((ne, 2))
        for ids in self.groups:
            pts = self.points[self.loop_vertices[self.slots(ids)]]
            x, y = pts[..., 0], pts[..., 1]
            xn, yn = np.roll(x, -1, axis=1), np.roll(y, -1, axis=1)
            cross = x * yn - xn * y
            area = 0.5 * np.sum(cross, axis=1)
            bad = np.flatnonzero(area <= 0.0)
            if bad.size:
                raise MeshTopologyError(
                    f"element {ids[bad[0]]} is not counter-clockwise "
                    f"(signed area {area[bad[0]]:g})")
            # the centroid fan rule and the h_K penalties need convexity;
            # a triangle with positive area is always convex
            if pts.shape[1] > 3:
                bad = np.flatnonzero(~_is_convex(pts))
                if bad.size:
                    raise MeshTopologyError(
                        f"element {ids[bad[0]]} is not convex")
            self.area[ids] = area
            self.centroid[ids, 0] = (np.sum((x + xn) * cross, axis=1)
                                     / (6.0 * area))
            self.centroid[ids, 1] = (np.sum((y + yn) * cross, axis=1)
                                     / (6.0 * area))
            diff = pts[:, :, None, :] - pts[:, None, :, :]
            self.diameter[ids] = np.sqrt((diff ** 2).sum(-1)).max(axis=(1, 2))

    def _number_edges(self):
        a = self.loop_vertices
        nxt = np.arange(1, len(a) + 1)     # slot of the loop's next vertex
        nxt[self.loop_start[1:] - 1] = self.loop_start[:-1]
        b = a[nxt]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        _, first, inverse = np.unique(lo * len(self.points) + hi,
                                      return_index=True, return_inverse=True)
        order = np.argsort(first)           # edge ids by first appearance
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        self.loop_edges = rank[inverse]
        # Traversal a->b is CCW, so the outward normal is the traversal
        # direction rotated by -90 degrees; the sign records whether that
        # matches the global normal of the (lower, higher) orientation.
        self.loop_signs = np.where(a <= b, 1, -1)
        self.edge_vertices = np.column_stack([lo, hi])[first[order]]
        ends = self.points[self.edge_vertices]
        d = ends[:, 1] - ends[:, 0]
        self.edge_length = np.hypot(d[:, 0], d[:, 1])
        bad = np.flatnonzero(self.edge_length == 0.0)
        if bad.size:
            key = tuple(int(v) for v in self.edge_vertices[bad[0]])
            raise MeshTopologyError(f"degenerate edge between vertices {key}")
        adjacent = np.bincount(self.loop_edges, minlength=len(order))
        bad = np.flatnonzero(adjacent > 2)
        if bad.size:
            raise MeshTopologyError(
                f"edge {bad[0]} shared by more than two elements")
        # two CCW elements run through their shared edge in opposite ways
        bad = np.flatnonzero(abs(np.bincount(self.loop_edges,
                                             self.loop_signs)) > 1)
        if bad.size:
            raise MeshTopologyError(
                f"edge {bad[0]} {tuple(self.edge_vertices[bad[0]].tolist())} "
                "is traversed in the same direction by both its elements")
        self.boundary_mask = adjacent == 1

    def keep(self, key, build):
        """``build()``, run on first use of ``key`` and kept in ``kept``
        for the mesh's lifetime, all its arrays made read-only.  Nothing
        kept depends on t, E, nu, kappa or a load, or refers back to the
        mesh, so a t sweep builds each item once and it goes with the mesh
        by reference counting.  Keys by owner: ``"edge_order"``,
        :attr:`edge_order`; in ``femspace``, ``"element_batches"``; in
        ``assembly``, ``("poisson", k)``, the stage one/three operator; in
        ``solver``, ``("poisson", k, "factor")``, the factor of its
        condensed matrix, ``"edge_adjacency"``, ``("pattern", layout)`` per
        trace layout and ``("pattern", layout, "B11" | "B12" | "B22c")``,
        the index maps of stage two's blocks."""
        if key not in self.kept:
            self.kept[key] = _freeze(build())
        return self.kept[key]

    @property
    def edge_order(self) -> np.ndarray:
        """Edge ids in nested-dissection elimination order (see
        :func:`_nested_dissection`); built once, on first use."""
        return self.keep("edge_order", lambda: _nested_dissection(self))

    # ------------------------------------------------------------------

    @property
    def num_edges(self) -> int:
        return len(self.edge_length)

    @property
    def num_elements(self) -> int:
        return len(self.elements)


def _freeze(value):
    """``value``, with every array reachable through tuples, lists, dicts
    and object attributes (dataclasses, sparse matrices) made read-only."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, (tuple, list, dict)):
        for item in value.values() if isinstance(value, dict) else value:
            _freeze(item)
    elif hasattr(value, "__dict__"):
        _freeze(vars(value))
    return value


def _is_convex(pts: np.ndarray) -> np.ndarray:
    """Per element of the (ne, nv, 2) stack: every vertex lies left of or
    on every edge of the CCW loop.

    Unlike a check of the turn at each vertex, this also rejects
    self-intersecting loops such as a pentagram.
    """
    d = np.roll(pts, -1, axis=1) - pts
    rel = pts[:, None, :, :] - pts[:, :, None, :]
    cross = d[:, :, None, 0] * rel[..., 1] - d[:, :, None, 1] * rel[..., 0]
    tol = -1e-14 * np.abs(cross).max(axis=(1, 2), keepdims=True)
    return ~np.any(cross < tol, axis=(1, 2))


def _nested_dissection(mesh: Mesh) -> np.ndarray:
    """Edge ids ordered by a complete geometric nested dissection.

    Every part of two or more elements is bisected at the median
    centroid along its longer extent (x on a tie; ties in that coordinate
    go by the other one), all parts of one level at once, down to single
    elements.  Parts are heap-numbered: root 1, children 2v and 2v + 1.
    An edge belongs to the part whose bisection put its two elements on
    different sides (its separator), a boundary edge to its element.
    Edges are listed in post-order of their parts, by midpoint (x, then
    y) within a part, so each separator follows both halves it separates
    and the order depends on the geometry only: a sparse factorization
    in this order fills in only O(N log N) entries on planar meshes
    (A. George, SIAM J. Numer. Anal. 10, 1973).
    """
    ne, c = mesh.num_elements, mesh.centroid
    perm = np.arange(ne)            # elements, each part contiguous
    size = np.array([ne])           # part sizes, in perm order
    heap, leaf = np.ones(1, dtype=np.int64), np.empty(ne, dtype=np.int64)
    while True:
        one = size == 1
        leaf[perm[(np.cumsum(size) - size)[one]]] = heap[one]
        if one.all():
            break
        perm = perm[np.repeat(~one, size)]
        size, heap = size[~one], heap[~one]
        start = np.cumsum(size) - size
        seg = np.repeat(np.arange(len(size)), size)
        cp = c[perm]
        span = np.maximum.reduceat(cp, start) - np.minimum.reduceat(cp, start)
        axis = np.argmax(span, axis=1)[seg]
        i = np.arange(len(perm))
        perm = perm[np.lexsort((cp[i, 1 - axis], cp[i, axis], seg))]
        size = np.column_stack([size // 2, size - size // 2]).ravel()
        heap = np.column_stack([2 * heap, 2 * heap + 1]).ravel()

    # the leaves of each edge's two elements (a boundary edge's, twice);
    # its part is their lowest common ancestor, the common bit prefix
    ends = leaf[np.repeat(np.arange(ne), np.diff(mesh.loop_start))]
    ends = ends[np.argsort(mesh.loop_edges, kind="stable")]
    count = np.bincount(mesh.loop_edges)
    last = np.cumsum(count) - 1
    a, b = ends[last - count + 1], ends[last]
    da, db = np.frexp(a)[1], np.frexp(b)[1]
    a, b = a >> (da - np.minimum(da, db)), b >> (db - np.minimum(da, db))
    part = a >> np.frexp(a ^ b)[1]

    # Part v at depth d (2^d <= v < 2^(d+1)) spans leaf slots up to
    # (v + 1) << (D - d), D the deepest part's depth; sorting by that
    # end, deeper parts first on a tie, is post-order.
    depth = np.frexp(part)[1] - 1
    mid = mesh.points[mesh.edge_vertices].sum(axis=1)
    return np.lexsort((mid[:, 1], mid[:, 0], -depth,
                       (part + 1) << (depth.max() - depth)))


# ----------------------------------------------------------------------
# generators


def generate_structured(kind: str, n: int) -> Mesh:
    """Structured mesh of the unit square with n x n cells.

    ``kind`` is ``"triangle"`` (each cell split along the lower-left to
    upper-right diagonal) or ``"quadrilateral"`` (axis-aligned squares).
    Cells are numbered row by row from the lower-left corner.
    """
    if not isinstance(n, numbers.Integral):
        raise ValueError(f"n={n!r} must be an integer")
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind not in ("triangle", "quadrilateral"):
        raise ValueError(f"unknown mesh kind {kind!r}")

    coords = np.arange(n + 1) / n
    xv, yv = np.meshgrid(coords, coords, indexing="xy")
    points = np.column_stack([xv.ravel(), yv.ravel()])

    j, i = np.divmod(np.arange(n * n), n)
    a = j * (n + 1) + i
    b, c, d = a + 1, a + n + 2, a + n + 1
    if kind == "quadrilateral":
        loops = np.stack([a, b, c, d], axis=1)
    else:
        loops = np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3)
    return Mesh(points, loops.tolist())
