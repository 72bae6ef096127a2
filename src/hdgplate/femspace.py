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

    def volume_rule(self, degree: int):
        """Points (ne, nq, 2) and weights (ne, nq), exact for P_degree."""
        ref, w0 = triangle_reference_rule(degree)
        if self.nv == 3:
            # triangles map onto the reference rule without subdivision
            p0 = self.verts[:, 0, :][:, None, :]
            a = self.verts[:, 1, :][:, None, :] - p0
            b = self.verts[:, 2, :][:, None, :] - p0
            jac = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
            return (p0 + ref[None, :, :1] * a + ref[None, :, 1:] * b,
                    w0[None, :] * jac)
        if self.nv == 4:
            # tensor Gauss rule through the bilinear map; det J is affine,
            # so n points per direction integrate P_degree exactly
            x, w = gauss_legendre_01((degree + 3) // 2)
            u = np.repeat(x, len(x))[None, :, None]
            v = np.tile(x, len(x))[None, :, None]
            p0, p1, p2, p3 = (self.verts[:, i, None, :] for i in range(4))
            du = (1.0 - v) * (p1 - p0) + v * (p2 - p3)
            dv = (1.0 - u) * (p3 - p0) + u * (p2 - p1)
            jac = du[..., 0] * dv[..., 1] - du[..., 1] * dv[..., 0]
            return p0 + u * (p1 - p0) + v * dv, np.outer(w, w).ravel() * jac
        pts, wts = [], []
        c = self.centroid[:, None, :]
        for i in range(self.nv):
            a = self.verts[:, i, :][:, None, :] - c
            b = self.verts[:, (i + 1) % self.nv, :][:, None, :] - c
            jac = (a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0])
            pts.append(c + ref[None, :, :1] * a + ref[None, :, 1:] * b)
            wts.append(w0[None, :] * jac)
        return np.concatenate(pts, axis=1), np.concatenate(wts, axis=1)

    def edge_rule(self, local_edge: int, degree: int):
        """Points, weights and global arclength parameter on one local edge."""
        npts = max(1, (degree + 2) // 2)
        x, w = gauss_legendre_01(npts)
        p0 = self.verts[:, local_edge, :]
        p1 = self.verts[:, (local_edge + 1) % self.nv, :]
        pts = p0[:, None, :] + x[None, :, None] * (p1 - p0)[:, None, :]
        wts = w[None, :] * self.edge_len[:, local_edge][:, None]
        sign = self.edge_signs[:, local_edge][:, None]
        s = np.where(sign > 0, x[None, :], 1.0 - x[None, :])
        return pts, wts, s


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
