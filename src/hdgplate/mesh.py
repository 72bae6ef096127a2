"""Planar polygonal meshes with oriented edges for hybrid DG assembly.

A mesh stores vertices, derived edges and convex polygonal elements.
Every edge carries a globally fixed unit tangent (pointing from its
lower-numbered vertex to the higher-numbered one) and the normal
obtained by rotating that tangent by -90 degrees.  Elements reference
edges together with a sign ``s`` such that ``s * edge.normal`` is the
outward normal of the element on that edge.  This makes all trace
quantities single-valued across element interfaces.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Sequence, TextIO

import numpy as np

__all__ = [
    "Edge",
    "Element",
    "Mesh",
    "MeshFormatError",
    "MeshTopologyError",
    "ShapeRegularityWarning",
    "generate_structured",
    "load_mesh",
    "save_mesh",
]


class MeshFormatError(ValueError):
    """Raised when a mesh file cannot be parsed; carries the line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class MeshTopologyError(ValueError):
    """Raised for invalid connectivity or elements: an edge with more than
    two adjacent elements, a degenerate, clockwise or non-convex loop."""


class ShapeRegularityWarning(UserWarning):
    """Emitted when an element has an edge much shorter than its diameter."""


@dataclass
class Edge:
    id: int
    endpoints: tuple[int, int]          # (lower vertex id, higher vertex id)
    tangent: np.ndarray                 # unit vector, first -> second endpoint
    normal: np.ndarray                  # tangent rotated by -90 degrees
    length: float
    adjacent_elements: list[int] = field(default_factory=list)

    @property
    def is_boundary(self) -> bool:
        return len(self.adjacent_elements) == 1


@dataclass
class Element:
    id: int
    vertex_loop: tuple[int, ...]        # counter-clockwise
    edges: tuple[tuple[int, int], ...]  # (edge id, sign) per loop segment
    area: float
    centroid: np.ndarray
    diameter: float                     # max pairwise vertex distance


class Mesh:
    """Immutable collection of vertices, edges and CCW polygonal elements.

    Parameters
    ----------
    points : (V, 2) array
        Vertex coordinates; vertex ids are the row indices.
    loops : sequence of vertex-id sequences
        One counter-clockwise loop per element.
    c_reg : float
        Shape-regularity threshold; a warning is emitted for any element
        with an edge shorter than ``c_reg`` times its diameter.
    """

    def __init__(self, points: np.ndarray, loops: Sequence[Sequence[int]],
                 c_reg: float = 0.05):
        self.points = np.asarray(points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] != 2:
            raise ValueError("points must be a (V, 2) array")
        self.edges: list[Edge] = []
        self.elements: list[Element] = []
        self._build(loops, c_reg)
        self.h = max(el.diameter for el in self.elements)
        self.boundary_edges = frozenset(
            e.id for e in self.edges if e.is_boundary)

    # ------------------------------------------------------------------

    def _build(self, loops, c_reg):
        nv = len(self.points)
        edge_of_pair: dict[tuple[int, int], int] = {}
        for eid, loop in enumerate(loops):
            loop = tuple(int(v) for v in loop)
            if len(loop) < 3:
                raise MeshTopologyError(f"element {eid} has fewer than 3 vertices")
            if any(v < 0 or v >= nv for v in loop):
                raise MeshTopologyError(f"element {eid} references unknown vertex")
            pts = self.points[list(loop)]
            area = _signed_area(pts)
            if area <= 0.0:
                raise MeshTopologyError(
                    f"element {eid} is not counter-clockwise (signed area {area:g})")
            # the centroid fan rule and the h_K penalties need convexity;
            # a triangle with positive area is always convex
            if len(loop) > 3 and not _is_convex(pts):
                raise MeshTopologyError(f"element {eid} is not convex")
            centroid = _polygon_centroid(pts, area)
            diam = _max_pairwise_distance(pts)

            elem_edges = []
            for a, b in zip(loop, loop[1:] + loop[:1]):
                key = (min(a, b), max(a, b))
                if key not in edge_of_pair:
                    edge_of_pair[key] = len(self.edges)
                    p0, p1 = self.points[key[0]], self.points[key[1]]
                    d = p1 - p0
                    length = float(np.hypot(d[0], d[1]))
                    if length == 0.0:
                        raise MeshTopologyError(
                            f"degenerate edge between vertices {key}")
                    tangent = d / length
                    normal = np.array([tangent[1], -tangent[0]])
                    self.edges.append(Edge(edge_of_pair[key], key,
                                           tangent, normal, length))
                edge = self.edges[edge_of_pair[key]]
                if len(edge.adjacent_elements) >= 2:
                    raise MeshTopologyError(
                        f"edge {edge.id} shared by more than two elements")
                edge.adjacent_elements.append(eid)
                # Traversal a->b is CCW, so the outward normal is the
                # traversal direction rotated by -90 degrees; the sign
                # records whether that matches the stored global normal.
                sign = 1 if a == key[0] else -1
                elem_edges.append((edge.id, sign))

            self.elements.append(Element(eid, loop, tuple(elem_edges),
                                         area, centroid, diam))

        for el in self.elements:
            for edge_id, _ in el.edges:
                if self.edges[edge_id].length < c_reg * el.diameter:
                    warnings.warn(
                        f"element {el.id}: edge {edge_id} shorter than "
                        f"{c_reg} * h_K", ShapeRegularityWarning)
                    break

    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.points)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_elements(self) -> int:
        return len(self.elements)

    def outward_normal(self, element_id: int, local_edge_index: int) -> np.ndarray:
        """Unit outward normal of an element on the given local edge."""
        el = self.elements[element_id]
        edge_id, sign = el.edges[local_edge_index]
        return sign * self.edges[edge_id].normal


# ----------------------------------------------------------------------
# geometry helpers


def _signed_area(pts: np.ndarray) -> float:
    x, y = pts[:, 0], pts[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    return float(0.5 * np.sum(x * yn - xn * y))


def _is_convex(pts: np.ndarray) -> bool:
    """Every vertex lies left of or on every edge of the CCW loop.

    Unlike a check of the turn at each vertex, this also rejects
    self-intersecting loops such as a pentagram.
    """
    d = np.roll(pts, -1, axis=0) - pts
    rel = pts[None, :, :] - pts[:, None, :]
    cross = d[:, None, 0] * rel[..., 1] - d[:, None, 1] * rel[..., 0]
    return not np.any(cross < -1e-14 * np.max(np.abs(cross)))


def _polygon_centroid(pts: np.ndarray, area: float) -> np.ndarray:
    x, y = pts[:, 0], pts[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    cx = np.sum((x + xn) * cross) / (6.0 * area)
    cy = np.sum((y + yn) * cross) / (6.0 * area)
    return np.array([cx, cy])


def _max_pairwise_distance(pts: np.ndarray) -> float:
    diff = pts[:, None, :] - pts[None, :, :]
    return float(np.sqrt((diff ** 2).sum(-1)).max())


# ----------------------------------------------------------------------
# generators


def generate_structured(kind: str, n: int, c_reg: float = 0.05) -> Mesh:
    """Structured mesh of the unit square with n x n cells.

    ``kind`` is ``"triangle"`` (each cell split along the lower-left to
    upper-right diagonal) or ``"quadrilateral"`` (axis-aligned squares).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind not in ("triangle", "quadrilateral"):
        raise ValueError(f"unknown mesh kind {kind!r}")

    coords = np.arange(n + 1) / n
    xv, yv = np.meshgrid(coords, coords, indexing="xy")
    points = np.column_stack([xv.ravel(), yv.ravel()])

    def vid(i, j):
        return j * (n + 1) + i

    loops = []
    for j in range(n):
        for i in range(n):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            if kind == "quadrilateral":
                loops.append((a, b, c, d))
            else:
                loops.append((a, b, c))
                loops.append((a, c, d))
    return Mesh(points, loops, c_reg=c_reg)


# ----------------------------------------------------------------------
# text format: "polymesh 1" header, vertex block, element block


def save_mesh(mesh: Mesh, stream: TextIO) -> None:
    """Write a mesh in the plain-text polymesh format (edges are derived)."""
    stream.write("polymesh 1\n")
    stream.write(f"vertices {mesh.num_vertices}\n")
    for p in mesh.points:
        stream.write(f"{float(p[0])!r} {float(p[1])!r}\n")
    stream.write(f"elements {mesh.num_elements}\n")
    for el in mesh.elements:
        stream.write(" ".join([str(len(el.vertex_loop))]
                              + [str(v) for v in el.vertex_loop]) + "\n")


def load_mesh(stream: TextIO, c_reg: float = 0.05) -> Mesh:
    """Parse the polymesh text format; raises MeshFormatError with line info."""
    lines = stream.read().splitlines()
    pos = 0

    def next_line():
        nonlocal pos
        while pos < len(lines) and not lines[pos].strip():
            pos += 1
        if pos >= len(lines):
            raise MeshFormatError(pos + 1, "unexpected end of file")
        pos += 1
        return pos, lines[pos - 1].strip()

    ln, header = next_line()
    if header != "polymesh 1":
        raise MeshFormatError(ln, f"expected 'polymesh 1', got {header!r}")

    ln, vline = next_line()
    parts = vline.split()
    if len(parts) != 2 or parts[0] != "vertices":
        raise MeshFormatError(ln, "expected 'vertices <count>'")
    try:
        nv = int(parts[1])
    except ValueError:
        raise MeshFormatError(ln, f"bad vertex count {parts[1]!r}") from None

    points = np.empty((nv, 2))
    for i in range(nv):
        ln, line = next_line()
        parts = line.split()
        if len(parts) != 2:
            raise MeshFormatError(ln, "expected 'x y'")
        try:
            points[i] = [float(parts[0]), float(parts[1])]
        except ValueError:
            raise MeshFormatError(ln, f"bad coordinate in {line!r}") from None

    ln, eline = next_line()
    parts = eline.split()
    if len(parts) != 2 or parts[0] != "elements":
        raise MeshFormatError(ln, "expected 'elements <count>'")
    try:
        ne = int(parts[1])
    except ValueError:
        raise MeshFormatError(ln, f"bad element count {parts[1]!r}") from None

    loops = []
    for _ in range(ne):
        ln, line = next_line()
        parts = line.split()
        try:
            ids = [int(s) for s in parts]
        except ValueError:
            raise MeshFormatError(ln, f"bad vertex id in {line!r}") from None
        if not ids or len(ids) != ids[0] + 1:
            raise MeshFormatError(ln, "expected 'm v0 ... v(m-1)'")
        if any(v < 0 or v >= nv for v in ids[1:]):
            raise MeshFormatError(ln, "vertex id out of range")
        loops.append(tuple(ids[1:]))

    return Mesh(points, loops, c_reg=c_reg)
