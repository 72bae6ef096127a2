"""Batched scaled-monomial bases and exact quadrature on polygonal meshes.

Elements with the same vertex count are stacked into an
:class:`ElementBatch`, and every basis evaluation and quadrature rule
works on the whole batch at once.  Element bases are scaled monomials
``((x-x_K)/h_K)^a ((y-y_K)/h_K)^b`` with ``a+b <= degree``.  Volume
rules of any requested exactness degree are a conical-product Gauss
rule mapped onto each triangle, a tensor Gauss-Legendre rule mapped
bilinearly onto each quadrilateral, and the triangle rule on the fan
sub-triangulation from the centroid of any other convex polygon.  Edge
rules are mapped Gauss-Legendre rules that also return the arclength
parameter ``s in [0, 1]`` along the edge's global tangent.  With the
degrees of :func:`quadrature_degrees`, all inner products of the
discretization are exact.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi

__all__ = [
    "monomial_exponents",
    "space_dim",
    "quadrature_degrees",
    "gauss_legendre_01",
    "triangle_reference_rule",
    "ElementBatch",
    "element_batches",
    "scalar_vals",
    "power_table",
]


def space_dim(degree: int) -> int:
    """Dimension of the total-degree polynomial space P_degree in 2D."""
    return (degree + 1) * (degree + 2) // 2


@lru_cache(maxsize=None)
def monomial_exponents(degree: int) -> np.ndarray:
    """Exponent pairs (a, b), a+b <= degree, ordered by total degree."""
    exps = [(a, d - a) for d in range(degree + 1) for a in range(d, -1, -1)]
    arr = np.array(exps, dtype=int)
    arr.setflags(write=False)
    return arr


def quadrature_degrees(k: int) -> dict[str, int]:
    """Exactness degrees of the assembly rules for primary degree ``k``.

    Volume and edge rules integrate products of two P_k functions; the
    load rule also integrates the polynomial data exactly.
    """
    volume = 2 * k + 2
    return {"assembly_degree": volume, "edge_degree": volume,
            "source_degree": max(k + 8, volume)}


# ----------------------------------------------------------------------
# reference rules


@lru_cache(maxsize=None)
def gauss_legendre_01(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(npts)
    return (x + 1.0) / 2.0, w / 2.0


@lru_cache(maxsize=None)
def _gauss_jacobi_01(npts: int) -> tuple[np.ndarray, np.ndarray]:
    # nodes/weights for \int_0^1 (1-x) f(x) dx
    x, w = roots_jacobi(npts, 1.0, 0.0)
    return (x + 1.0) / 2.0, w / 4.0


@lru_cache(maxsize=None)
def triangle_reference_rule(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Conical-product rule on the unit triangle, exact to ``degree``.

    Collapses the unit square onto the triangle {u,v >= 0, u+v <= 1}
    via (a, b) -> (a(1-b), b); the (1-b) Jacobian is absorbed by a
    Gauss-Jacobi rule, so exactness holds for any requested degree.
    """
    n = max(1, (degree + 2) // 2)
    xa, wa = gauss_legendre_01(n)
    xb, wb = _gauss_jacobi_01(n)
    u = np.outer(xa, 1.0 - xb).ravel()
    v = np.tile(xb, n)
    w = np.outer(wa, wb).ravel()
    pts = np.column_stack([u, v])
    pts.setflags(write=False)
    w.setflags(write=False)
    return pts, w


# ----------------------------------------------------------------------
# batched element geometry and rules


class ElementBatch:
    """Stacked geometry for the elements ``ids``, which all have the same
    vertex count; sliced from the mesh arrays."""

    def __init__(self, mesh, ids: np.ndarray):
        self.ids = ids
        slots = mesh.slots(ids)
        self.nv = slots.shape[1]
        self.verts = mesh.points[mesh.loop_vertices[slots]]
        self.centroid = mesh.centroid[ids]
        self.h = mesh.diameter[ids]
        self.edge_ids = mesh.loop_edges[slots]
        self.edge_signs = mesh.loop_signs[slots]
        self.edge_len = mesh.edge_length[self.edge_ids]
        # per local edge: traversal direction = in-element tangent,
        # outward normal = tangent rotated by -90 degrees
        d = np.roll(self.verts, -1, axis=1) - self.verts
        self.tangents = d / self.edge_len[..., None]
        self.normals = np.stack(
            [self.tangents[..., 1], -self.tangents[..., 0]], axis=-1)

    def volume_rule(self, degree: int, part=slice(None)):
        """Points (ne, nq, 2) and weights (ne, nq), exact for P_degree, on
        the elements ``part``; the points are a view of a (2, ne, nq) array,
        so that every broadcast runs along the points, not the axis of 2."""
        ref, w0 = triangle_reference_rule(degree)
        v = np.moveaxis(self.verts[part], -1, 0)[..., None]  # (2, ne, nv, 1)

        def mapped(p0, a, b):  # the reference rule on p0 + span(a, b)
            return (p0 + ref[:, 0] * a + ref[:, 1] * b,
                    w0 * (a[0] * b[1] - a[1] * b[0]))
        if self.nv == 3:
            # triangles map onto the reference rule without subdivision
            pts, w = mapped(v[:, :, 0], v[:, :, 1] - v[:, :, 0],
                            v[:, :, 2] - v[:, :, 0])
        elif self.nv == 4:
            # tensor Gauss rule through the bilinear map; det J is affine,
            # so n points per direction integrate P_degree exactly
            x, wx = gauss_legendre_01((degree + 3) // 2)
            s, t = np.repeat(x, len(x)), np.tile(x, len(x))
            p0, p1, p2, p3 = (v[:, :, i] for i in range(4))
            ds = (1.0 - t) * (p1 - p0) + t * (p2 - p3)
            dt = (1.0 - s) * (p3 - p0) + s * (p2 - p1)
            pts = p0 + s * (p1 - p0) + t * dt
            w = np.outer(wx, wx).ravel() * (ds[0] * dt[1] - ds[1] * dt[0])
        else:
            c = np.moveaxis(self.centroid[part], -1, 0)[:, :, None, None]
            pts, w = mapped(c, v - c, np.roll(v, -1, axis=2) - c)  # per edge
            pts, w = pts.reshape(2, len(w), -1), w.reshape(len(w), -1)
        return np.moveaxis(pts, 0, -1), w

    def edge_rule(self, local_edge: int, degree: int):
        """Points, weights and global arclength parameter on one local
        edge; the points are a view of a (2, ne, nq) array."""
        x, w = gauss_legendre_01(max(1, (degree + 2) // 2))
        v = np.moveaxis(self.verts, -1, 0)[..., None]
        p0, p1 = v[:, :, local_edge], v[:, :, (local_edge + 1) % self.nv]
        s = np.where(self.edge_signs[:, local_edge, None] > 0, x, 1.0 - x)
        return (np.moveaxis(p0 + x * (p1 - p0), 0, -1),
                w * self.edge_len[:, local_edge, None], s)


def element_batches(mesh) -> tuple[ElementBatch, ...]:
    """Batches by vertex count, kept on the mesh (``Mesh.keep``); every
    caller shares them, so their arrays are read-only."""
    return mesh.keep("element_batches", lambda: tuple(
        ElementBatch(mesh, ids) for ids in mesh.groups))


def power_table(z: np.ndarray, n: int) -> np.ndarray:
    """z^0 .. z^n by repeated multiplication, on a new axis before the last."""
    out = np.empty(z.shape[:-1] + (n + 1, z.shape[-1]))
    out[..., 0, :] = 1.0
    for i in range(1, n + 1):
        np.multiply(out[..., i - 1, :], z, out=out[..., i, :])
    return out


def scalar_vals(exps, centroid, h, pts, dx=0, dy=0):
    """Scaled-monomial values on stacked elements: (ne, nb, nq).

    ``dx``/``dy`` select the order of the x/y derivative.
    """
    a = exps[:, 0]
    b = exps[:, 1]
    coef = np.ones(len(exps))
    for _ in range(dx):
        coef, a = coef * a, np.maximum(a - 1, 0)
    for _ in range(dy):
        coef, b = coef * b, np.maximum(b - 1, 0)
    xi = (pts[..., 0] - centroid[:, None, 0]) / h[:, None]
    eta = (pts[..., 1] - centroid[:, None, 1]) / h[:, None]
    vals = (coef[None, :, None] * power_table(xi, a.max())[:, a]
            * power_table(eta, b.max())[:, b])
    if dx or dy:
        vals = vals / h[:, None, None] ** (dx + dy)
    return vals
