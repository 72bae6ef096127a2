"""Assembly of the three hybrid-DG block systems for plate bending.

The solve is staged: a scalar Poisson-type system (stage one), a
perturbed saddle-point system coupling bending stress, rotation and a
stream-function pressure (stage two), the deflection Poisson-type system
driven by the computed rotation (stage three), and an algebraic shear
recovery (stage four).  Each stage is assembled in an interior/trace
block layout: the interior block is block-diagonal with one dense block
per element, the trace blocks couple elements only through single-valued
edge unknowns, and the whole matrix is symmetric (sign conventions are
chosen so the trace-row coupling equals the transpose of the
interior-to-trace block).

Edge stabilization terms involve L2 projections of interior traces onto
edge polynomial spaces; these are assembled exactly through edge mass
matrix algebra, never through pointwise approximation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import block_diag
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components

from . import femspace as fs
from .femspace import ElementBatch, element_batches
from .mesh import Mesh, MeshTopologyError

__all__ = [
    "PlateMaterial",
    "SpaceConfig",
    "stabilization",
    "constitutive_inverse_matrix",
    "DiscreteField",
    "StageDofMap",
    "BlockSystem",
    "ElementBlockGroup",
    "assemble_step1",
    "assemble_step2",
    "assemble_step3",
    "shift_pressure_to_zero_mean",
    "recover_gamma",
    "SolutionFields",
]


# ----------------------------------------------------------------------
# material and space parameters


@dataclass(frozen=True)
class PlateMaterial:
    """Plate parameters; the shear modulus is derived, never stored."""

    E: float = 1.0
    nu: float = 0.3
    kappa: float = 5.0 / 6.0
    t: float = 1.0

    def __post_init__(self):
        for name in ("E", "nu", "kappa", "t"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name}={value!r} must be a real number")
        if not 0 < self.E < math.inf:
            raise ValueError("E must be positive and finite")
        if not 0 < self.nu <= 0.5:
            raise ValueError("nu must lie in (0, 1/2]")
        if not 0 < self.kappa < math.inf:
            raise ValueError("kappa must be positive and finite")
        if not 0 < self.t <= 1:
            raise ValueError("t must lie in (0, 1]")
        if self.t ** 2 == 0 or not math.isfinite(self.lam / self.t ** 2):
            raise ValueError(f"t={self.t!r} is too small: lam / t^2 is not "
                             "a finite float")

    @property
    def lam(self) -> float:
        return self.kappa * self.E / (2.0 * (1.0 + self.nu))


@dataclass(frozen=True)
class SpaceConfig:
    """Primary degree k >= 1 and rotation-trace degree l, max(1,k-1) <= l <= k."""

    k: int
    l: int = -1

    def __post_init__(self):
        if not all(isinstance(d, numbers.Integral) and not isinstance(d, bool)
                   for d in (self.k, self.l)):
            raise ValueError(f"k={self.k!r} and l={self.l!r} must be integers")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.l == -1:
            object.__setattr__(self, "l", self.k)
        if not max(1, self.k - 1) <= self.l <= self.k:
            raise ValueError(
                f"l={self.l} outside [max(1, k-1), k] = "
                f"[{max(1, self.k - 1)}, {self.k}]")


def stabilization(h, material: PlateMaterial):
    """Edge penalty weights (1/h_K, 1/h_K, h_K + t^2/h_K).

    ``h`` is an element diameter or an array of diameters (one per
    element of a batch).
    """
    if not np.all(h > 0):
        raise ValueError("element diameter must be positive")
    return 1.0 / h, 1.0 / h, h + material.t ** 2 / h


# The L2 weight of each component per value rank, which has as many
# components as weights.  Symmetric 2x2 tensors are stored as (11, 22, 12);
# the Frobenius inner product carries weight 2 on the off-diagonal slot.
_COMPONENT_WEIGHTS = {"scalar": (1.0,), "vector2": (1.0, 1.0),
                      "symtensor2x2": (1.0, 1.0, 2.0)}


def _constitutive_matrix(material: PlateMaterial) -> np.ndarray:
    a = material.E / (12.0 * (1.0 - material.nu ** 2))
    nu = material.nu
    return a * np.array([[1.0, nu, 0.0],
                         [nu, 1.0, 0.0],
                         [0.0, 0.0, 1.0 - nu]])


def constitutive_inverse_matrix(material: PlateMaterial) -> np.ndarray:
    """Matrix K with K[a,b] = (Cinv E_a) : E_b on unit component tensors."""
    return (np.linalg.inv(_constitutive_matrix(material))
            * _COMPONENT_WEIGHTS["symtensor2x2"])


def _ip(w, rows, cols):
    return np.einsum("eiq,ejq,eq->eij", rows, cols, w, optimize=True)


# ----------------------------------------------------------------------
# discrete fields


@dataclass
class DiscreteField:
    """Element-wise polynomial field: coefficient rows over all elements.

    Coefficients are component-major: entry ``c * nscalar + m`` multiplies
    the scaled monomial ``m`` placed in component ``c``.
    """

    mesh: Mesh
    degree: int
    rank: str
    coeffs: np.ndarray  # (num_elements, ncomp * nscalar)

    def __post_init__(self):
        if self.rank not in _COMPONENT_WEIGHTS:
            raise ValueError(f"unknown value rank {self.rank!r}")
        self.ncomp = len(_COMPONENT_WEIGHTS[self.rank])
        self.nscalar = fs.space_dim(self.degree)
        if self.coeffs.shape != (self.mesh.num_elements, self.ncomp * self.nscalar):
            raise ValueError("coefficient array has the wrong shape")

    def values_batched(self, batch: ElementBatch, pts: np.ndarray) -> np.ndarray:
        """(ne, ncomp, nq) values at per-element points of a batch."""
        return self.combine(batch.ids, fs.scalar_vals(
            fs.monomial_exponents(self.degree), batch.centroid, batch.h, pts))

    def combine(self, ids: np.ndarray, vals: np.ndarray) -> np.ndarray:
        """(ne, ncomp, nq) values on the elements ``ids`` from their scaled
        monomials (ne, nb, nq)."""
        coeffs = self.coeffs[ids].reshape(-1, self.ncomp, self.nscalar)
        if self.nscalar == 1:   # one monomial: matmul's loop is 2-3x slower
            return np.einsum("enq,ecn->ecq", vals, coeffs)
        return coeffs @ vals

    def mean(self) -> float:
        """Integral mean over the whole domain (exact for the field degree)."""
        total = 0.0
        volume = 0.0
        for batch in element_batches(self.mesh):
            pts, w = batch.volume_rule(self.degree)
            vals = self.values_batched(batch, pts)
            total += float(np.einsum("ecq,eq->", vals, w))
            volume += float(w.sum())
        return total / volume


def recover_gamma(L: DiscreteField, R: DiscreteField,
                  material: PlateMaterial) -> DiscreteField:
    """Shear stress recovery: coefficient-wise L + (lam/t^2) R."""
    if L.mesh is not R.mesh:
        raise ValueError("gradient and rotation-moment fields are on two meshes")
    if L.coeffs.shape != R.coeffs.shape or L.degree != R.degree:
        raise ValueError("gradient and rotation-moment fields do not match")
    coeff = L.coeffs + material.lam / material.t ** 2 * R.coeffs
    return DiscreteField(L.mesh, L.degree, "vector2", coeff)


@dataclass
class SolutionFields:
    """Coefficient arrays of all thirteen discrete unknowns of one solve.

    Trace fields are (num_edges, per_edge) arrays with zeros on edges
    whose degrees of freedom were eliminated by the boundary condition.
    """

    mesh: Mesh
    spaces: SpaceConfig
    material: PlateMaterial
    L: DiscreteField
    r: DiscreteField
    r_hat: np.ndarray
    sigma: DiscreteField
    R: DiscreteField
    theta: DiscreteField
    theta_hat: np.ndarray
    p: DiscreteField
    p_hat: np.ndarray
    G: DiscreteField
    omega: DiscreteField
    omega_hat: np.ndarray
    gamma: DiscreteField
    reports: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# DOF maps


@dataclass(frozen=True)
class TraceField:
    name: str
    offset: int
    per_edge: int
    dirichlet: bool
    edge_rank: np.ndarray  # (num_edges,), by edge_order; -1 if eliminated

    def dofs(self, edge_ids: np.ndarray) -> np.ndarray:
        """Global dof indices (..., per_edge); -1 rows for eliminated edges."""
        rank = self.edge_rank[edge_ids]
        base = self.offset + rank[..., None] * self.per_edge
        out = base + np.arange(self.per_edge)
        out[rank < 0] = -1
        return out


def _check_trace(n_trace: int, x2: np.ndarray) -> None:
    """Raise ``ValueError`` unless ``x2`` is a vector of ``n_trace`` entries."""
    if np.shape(x2) != (n_trace,):
        raise ValueError(f"x2: shape {np.shape(x2)}, expected ({n_trace},)")


def _padded(n_trace: int, x2: np.ndarray) -> np.ndarray:
    """The trace vector ``x2``, checked, and a 0 for eliminated (-1) dofs."""
    _check_trace(n_trace, x2)
    return np.append(x2, 0.0)


class StageDofMap:
    """Interior (per-element) and trace (per-edge) numbering for one stage.

    Interior fields are declared as ``(name, degree, rank)``; each element
    owns one contiguous block holding the fields in that order, each one
    component-major like :class:`DiscreteField`.  Trace fields are
    ``(name, per_edge, dirichlet)``; their unknowns are field-major then
    edge-major, the edges in the mesh's nested-dissection order
    (``Mesh.edge_order``), so every trace matrix is assembled in the order
    it is factored in; Dirichlet trace fields skip boundary edges entirely.
    """

    def __init__(self, mesh: Mesh, interior_fields, trace_fields):
        self.mesh = mesh
        # name -> (offset, degree, rank)
        self.interior_fields: dict[str, tuple[int, int, str]] = {}
        off = 0
        for name, degree, rank in interior_fields:
            self.interior_fields[name] = (off, degree, rank)
            off += len(_COMPONENT_WEIGHTS[rank]) * fs.space_dim(degree)
        self.n_interior_per_element = off
        self.n_interior = off * mesh.num_elements

        order = mesh.edge_order
        self.trace_fields: dict[str, TraceField] = {}
        off = 0
        for name, per_edge, dirichlet in trace_fields:
            kept = order[~mesh.boundary_mask[order]] if dirichlet else order
            er = np.full(mesh.num_edges, -1)
            er[kept] = np.arange(len(kept))
            er.setflags(write=False)
            self.trace_fields[name] = TraceField(name, off, per_edge,
                                                 dirichlet, er)
            off += len(kept) * per_edge
        self.n_trace = off

    def components(self, name: str) -> list[slice]:
        """One interior slice per component of field ``name``."""
        off, degree, rank = self.interior_fields[name]
        n = fs.space_dim(degree)
        return [slice(off + c * n, off + (c + 1) * n)
                for c in range(len(_COMPONENT_WEIGHTS[rank]))]

    def interior_slice(self, name: str) -> slice:
        comps = self.components(name)
        return slice(comps[0].start, comps[-1].stop)

    def field(self, name: str, x1: np.ndarray) -> DiscreteField:
        """Interior field ``name`` of the (num_elements, n1) solution ``x1``."""
        _, degree, rank = self.interior_fields[name]
        return DiscreteField(self.mesh, degree, rank,
                             x1[:, self.interior_slice(name)])

    def trace_to_edge_array(self, name: str, x2: np.ndarray) -> np.ndarray:
        """(num_edges, per_edge) coefficients; zeros on eliminated edges."""
        dofs = self.trace_fields[name].dofs(np.arange(self.mesh.num_edges))
        return _padded(self.n_trace, x2)[dofs]


# ----------------------------------------------------------------------
# block system


def _densify(terms, e: slice, ne: int, shape: tuple) -> np.ndarray:
    """The dense (ne, *shape) block of the ``ne`` elements ``e`` from
    ``terms``: ``scale * block`` in each term's region, zero elsewhere."""
    out = np.zeros((ne, *shape))
    for rows, cols, scale, block in terms:
        out[:, rows, cols] = scale[e, None, None] * block[e]
    return out


@dataclass
class ElementBlockGroup:
    """Local blocks for one batch of same-size elements, each kept as the
    terms that write it, ``(rows, cols, scale, block)`` with ``scale``
    (ne,) and ``block`` (ne, r, c), each region written by one term; rows
    and columns count from the block's first.  The leading ``nm = nc *
    Ts`` interior dofs are the mass fields (the Poisson flux; stage two's
    sigma and R), whose block is ``coef ⊗ mass``; ``a11`` is the interior
    columns ``[A_mp; A_pp]`` of the fields after them, ``a12`` and ``a22``
    the trace blocks.  Every term's ``block`` is a view of the mesh's kept
    local set (``_local_matrices``), the edge penalties its edge sums
    ``P`` scaled per element.  The local trace dofs run field by field,
    each field edge by local edge."""

    batch: ElementBatch
    a11: tuple                # terms of the (n1, n_a11) columns
    a12: tuple                # terms of the (n1, ntl) A12
    a22: tuple                # terms of the (ntl, ntl) A22
    b1: np.ndarray            # (ne, n1)
    b2: np.ndarray            # (ne, ntl)
    trace_indices: np.ndarray  # (ne, ntl), -1 for eliminated trace dofs
    mass: np.ndarray          # (ne, Ts, Ts)
    coef: np.ndarray          # (nc, nc)

    @property
    def n_a11(self) -> int:
        """The columns of ``a11``: the interior dofs after the mass fields."""
        return max(cols.stop for _, cols, _, _ in self.a11)

    def interior_columns(self, e: slice) -> np.ndarray:
        """The dense (len, n1, n_a11) ``a11`` of the elements ``e``."""
        return _densify(self.a11, e, len(self.batch.ids[e]),
                        (self.b1.shape[1], self.n_a11))

    def trace_block(self, e: slice, name: str) -> np.ndarray:
        """The dense (len, n1, ntl) ``a12`` or (len, ntl, ntl) ``a22``
        (``name``) of the elements ``e``."""
        ntl = self.trace_indices.shape[1]
        rows = ntl if name == "a22" else self.b1.shape[1]
        return _densify(getattr(self, name), e, len(self.batch.ids[e]),
                        (rows, ntl))


@dataclass
class BlockSystem:
    """Symmetric two-by-two block system with element-diagonal interior
    block, kept as element-local blocks; only ``solver`` scatters the
    trace blocks into sparse form."""

    dof: StageDofMap
    groups: list[ElementBlockGroup]
    stage: str = ""

    @property
    def n_interior(self) -> int:
        return self.dof.n_interior

    @property
    def n_trace(self) -> int:
        return self.dof.n_trace


# ----------------------------------------------------------------------
# local block helpers


def _edge_projection_blocks(batch, local_edge, edge_degree, trace_deg, elem_deg):
    """Edge cross-mass C (edge basis x element trace) and edge mass E."""
    pts, w, s = batch.edge_rule(local_edge, edge_degree)
    ehat = fs.power_table(s, trace_deg)
    tr = fs.scalar_vals(fs.monomial_exponents(elem_deg),
                      batch.centroid, batch.h, pts)
    C = _ip(w, ehat, tr)          # (ne, m, nb)
    E = _ip(w, ehat, ehat)        # (ne, m, m)
    return C, E


def _local_matrices(batch, k):
    """Volume and edge matrices of one batch that every stage slices.

    Returns the P_{k-1} mass ``Mss``, ``D = (EX, EY)`` (rows: d/dx, d/dy
    of P_k; cols: P_k), one ``(C, E)`` per local edge for the degree-k
    edge basis against P_k, and ``P = (P_{k-1}, P_k)``, the edge sums
    ``sum_e C^T E^{-1} C`` of the degree k-1 and k edge bases, which every
    edge penalty scales by its weight per element.  P_{k-1} is the first
    ``space_dim(k-1)`` monomials of P_k, and an edge basis of lower degree
    is a leading run of rows, so smaller blocks are leading slices:
    ``D[:, :, :Ts]`` is d/dx, d/dy of P_{k-1} against P_k, and ``C[:,
    :k, :Ts]``, ``E[:, :k, :k]`` are the degree k-1 edge blocks against
    P_{k-1}.
    """
    degrees = fs.quadrature_degrees(k)
    pts, w = batch.volume_rule(degrees["assembly_degree"])
    exps = fs.monomial_exponents(k)
    V = fs.scalar_vals(exps, batch.centroid, batch.h, pts)
    Vs = V[:, :fs.space_dim(k - 1)]
    D = np.stack([
        _ip(w, fs.scalar_vals(exps, batch.centroid, batch.h, pts, dx=1), V),
        _ip(w, fs.scalar_vals(exps, batch.centroid, batch.h, pts, dy=1), V)])
    edges = [_edge_projection_blocks(batch, e, degrees["edge_degree"], k, k)
             for e in range(batch.nv)]
    P = tuple(sum(_stab_volume_block(C[:, :m], E[:, :m, :m]) for C, E in edges)
              for m in (k, k + 1))
    return _ip(w, Vs, Vs), D, edges, P


def _local_set(mesh: Mesh, k: int) -> list:
    """Every batch's ``_local_matrices``, kept on the mesh as ``("local", k)``."""
    return mesh.keep(("local", k), lambda: [
        _local_matrices(batch, k) for batch in element_batches(mesh)])


def _load_moments(batch, k, load):
    """The P_k moments (ne, ..., space_dim(k)) of ``load(pts)``, its
    (ne, ..., nq) values at the batch's load rule points ``pts``; raises
    ``ValueError`` naming the batch's first element whose moments are not
    finite."""
    pts, w = batch.volume_rule(fs.quadrature_degrees(k)["source_degree"])
    V = fs.scalar_vals(fs.monomial_exponents(k), batch.centroid, batch.h, pts)
    out = np.einsum("enq,e...q,eq->e...n", V, load(pts), w)
    bad = ~np.isfinite(out.reshape(len(out), -1)).all(axis=1)
    if bad.any():
        raise ValueError(f"the load's moments on element "
                         f"{batch.ids[bad].min()} are not finite")
    return out


def _values(g: Callable, pts: np.ndarray, name: str,
            vector: bool = False) -> np.ndarray:
    """The load ``name``, ``g(x, y)``, at the (ne, nq, 2) points ``pts``:
    (ne, nq), or (ne, 2, nq) for a ``vector`` load.  The value, or each of
    a vector load's two components, has the points' shape or is a
    constant; anything else raises ``ValueError`` naming the load and the
    shape it returned."""
    v, shape = g(pts[..., 0], pts[..., 1]), pts.shape[:-1]
    parts = (list(v) if vector and (isinstance(v, (tuple, list)) or np.ndim(v))
             else [v])
    if len(parts) != 1 + vector or any(np.shape(c) not in (shape, ())
                                       for c in parts):
        try:
            got = np.shape(v)
        except ValueError:  # a ragged sequence: its items' shapes
            got = [np.shape(c) for c in v]
        need = "two components, each" if vector else "a value"
        raise ValueError(f"the load {name} returned shape {got} at points "
                         f"of shape {shape}; it must return {need} of the "
                         "points' shape or constant")
    if vector:
        return np.stack([np.full(shape, c, float) for c in parts], -2)
    v = np.asarray(v, float)
    return v if v.shape == shape else np.full(shape, v)


def _stab_volume_block(C, E):
    """C^T E^{-1} C: exact edge-projection stabilization of interior traces."""
    return np.einsum("emi,emj->eij", C, np.linalg.solve(E, C), optimize=True)


# ----------------------------------------------------------------------
# stages one and three


def _poisson_system(dof: StageDofMap, stage: str, loads: Callable) -> BlockSystem:
    """Stage one's or three's system on ``dof``; ``loads(batch, D,
    edges)`` gives a group's primal rows of ``b1`` and its ``b2``."""
    k = dof.trace_fields["u_hat"].per_edge
    Ts, Tv = fs.space_dim(k - 1), fs.space_dim(k)
    tf = dof.trace_fields["u_hat"]
    sl_L = dof.components("flux")
    sl_r = dof.interior_slice("primal")

    groups = []
    for batch, (Mss, D, edges, P) in zip(element_batches(dof.mesh),
                                         _local_set(dof.mesh, k), strict=True):
        ne, nv = len(batch.ids), batch.nv
        a12, a22, trace_idx = [], [], np.empty((ne, nv * k), dtype=int)
        # alpha1 does not depend on the thickness
        alpha1 = stabilization(batch.h, PlateMaterial())[0]

        for e, (C, E) in enumerate(edges):
            # the degree k-1 edge basis: the leading k rows of the kept one
            Cv, Ee = C[:, :k], E[:, :k, :k]
            cols = slice(e * k, (e + 1) * k)
            nrm = batch.normals[:, e, :]
            a12 += [(sl, cols, nrm[:, u], Cv[:, :, :Ts].mT)
                    for u, sl in enumerate(sl_L)]
            a12.append((sl_r, cols, -alpha1, Cv.mT))
            a22.append((cols, cols, alpha1, Ee))
            trace_idx[:, cols] = tf.dofs(batch.edge_ids[:, e])

        # the flux is a mass field, -I2 ⊗ Mss, coupled to the primal field
        # by -(r, div q): its component u through -d/du; the primal block
        # is the alpha1-weighted projection stabilization
        primal = slice(0, Tv)
        minus = np.broadcast_to(-1.0, ne)
        DX, DY = D[:, :, :Ts]
        a11 = ((sl_L[0], primal, minus, DX), (sl_L[1], primal, minus, DY),
               (sl_r, primal, alpha1, P[0]))
        b1 = np.zeros((ne, dof.n_interior_per_element))
        b1[:, sl_r], b2 = loads(batch, D, edges)
        groups.append(ElementBlockGroup(batch, a11, tuple(a12), tuple(a22),
                                        b1, b2, trace_idx, Mss, -np.eye(2)))
    return BlockSystem(dof, groups, stage=stage)


def assemble_step1(mesh: Mesh, spaces: SpaceConfig, g: Callable) -> BlockSystem:
    """Stage-one system for the load potential: find (L, r, r_hat) from g."""
    k = spaces.k
    dof = StageDofMap(mesh, interior_fields=[("flux", k - 1, "vector2"),
                                             ("primal", k, "scalar")],
                      trace_fields=[("u_hat", k, True)])
    return _poisson_system(dof, "step1", lambda batch, D, edges: (
        _load_moments(batch, k, lambda pts: _values(g, pts, "g")),
        np.zeros((len(batch.ids), batch.nv * k))))


def _check_input(field, name, system, mesh, k, degree):
    """Raise ``ValueError`` unless the input ``name`` of the ``system`` (of
    degree ``k``) is a finite vector2 field of ``degree`` on ``mesh``."""
    if getattr(field, "mesh", None) is not mesh:
        raise ValueError(f"{name} is not on the {system}'s mesh")
    if field.degree != degree:
        raise ValueError(f"{name} has degree {field.degree}, the {system} "
                         f"k={k} needs {degree}")
    if field.rank != "vector2":
        raise ValueError(f"{name} is a {field.rank} field, not vector2")
    bad = np.flatnonzero(~np.isfinite(field.coeffs).all(axis=1))
    if bad.size:
        raise ValueError(f"{name} is not finite on element {bad[0]}")


def assemble_step3(step1: BlockSystem, material: PlateMaterial,
                   theta: DiscreteField, g: Callable) -> BlockSystem:
    """Stage-three system for the deflection, driven by the stage-two rotation:
    stage one's operator on its ``dof`` with new loads ``b1``, ``b2``, whose
    theta moments come from the local matrices (``EX``/``EY``, each edge's
    ``C``)."""
    if step1.stage != "step1":
        raise ValueError("stage-three assembly needs the stage-one system, "
                         f"not a {step1.stage!r} system")
    dof = step1.dof
    k = dof.trace_fields["u_hat"].per_edge
    _check_input(theta, "the stage-two rotation", "stage-one system",
                 dof.mesh, k, k)
    scale = material.t ** 2 / material.lam

    def loads(batch, D, edges):
        th = theta.coeffs[batch.ids].reshape(len(batch.ids), 2, -1)
        # (t^2/lam g - div theta, v) and <theta . n, s_hat> per local edge
        r = _load_moments(batch, k, lambda pts: scale * _values(g, pts, "g"))
        r -= (th[:, :1] @ D[0] + th[:, 1:] @ D[1])[:, 0]
        return r, np.concatenate([np.einsum("emn,eun,eu->em", C[:, :k], th,
                                            batch.normals[:, e])
                                  for e, (C, _) in enumerate(edges)], axis=1)
    return _poisson_system(dof, "step3", loads)


# ----------------------------------------------------------------------
# stage two

def _check_simply_connected(mesh: Mesh) -> None:
    """Raise :class:`MeshTopologyError` unless the elements form one
    edge-connected piece with V - E + F = 1 (V counting the vertices the
    loops use), that is, a domain without holes."""
    ne = mesh.num_elements
    owner = np.repeat(np.arange(ne), np.diff(mesh.loop_start))
    incidence = coo_array((np.ones(len(owner)), (owner, ne + mesh.loop_edges)),
                          shape=(ne + mesh.num_edges,) * 2)
    parts = connected_components(incidence, directed=False)[0]
    if parts != 1:
        raise MeshTopologyError(f"the mesh has {parts} edge-connected "
                                "components; stage two needs one")
    chi = len(np.unique(mesh.loop_vertices)) - mesh.num_edges + ne
    if chi != 1:
        raise MeshTopologyError(
            f"the mesh has Euler characteristic V - E + F = {chi}, not 1: "
            "its domain has a hole, and stage two needs a simply connected "
            "one")


def assemble_step2(mesh: Mesh, spaces: SpaceConfig, material: PlateMaterial,
                   L: DiscreteField, f: Callable | None = None) -> BlockSystem:
    """Stage-two saddle system: find (sigma, R, theta, theta_hat, p, p_hat).
    sigma and R are the mass fields; ``a11`` is the (theta, p) columns,
    thirteen terms, each a view of the kept local set (``D`` and the edge
    sums ``P``), so stage two allocates no block of its own.
    The stream-function pressure p rests on a Helmholtz decomposition of
    the shear stress, which needs a simply connected domain: a mesh with
    more than one edge-connected component or with a hole raises
    :class:`MeshTopologyError`."""
    k, l = spaces.k, spaces.l
    _check_input(L, "the stage-one flux", "stage-two system", mesh, k, k - 1)
    _check_simply_connected(mesh)
    m_th = 2 * (l + 1)
    dof = StageDofMap(
        mesh,
        interior_fields=[("sigma", k - 1, "symtensor2x2"), ("R", k - 1, "vector2"),
                         ("theta", k, "vector2"), ("p", k, "scalar")],
        trace_fields=[("theta_hat", m_th, True), ("p_hat", k, False)])
    n1, Ts, Tv = dof.n_interior_per_element, fs.space_dim(k - 1), fs.space_dim(k)
    tf_th = dof.trace_fields["theta_hat"]
    tf_p = dof.trace_fields["p_hat"]
    sl_sig, sl_R, sl_th = (dof.components(name) for name in ("sigma", "R", "theta"))
    sl_p, sl_theta = dof.interior_slice("p"), dof.interior_slice("theta")

    # the sigma mass Kinv ⊗ Mss and the R mass lam/t^2 Mss, negated for
    # the symmetric arrangement
    coef = block_diag(-constitutive_inverse_matrix(material),
                      material.lam / material.t ** 2 * np.eye(2))

    groups = []
    for batch, (Mss, D, edges, P) in zip(element_batches(mesh),
                                         _local_set(mesh, k), strict=True):
        ne, nv = len(batch.ids), batch.nv
        a12, a22, trace_idx = [], [], np.empty((ne, nv * (m_th + k)), dtype=int)
        _, alpha2, alpha3 = stabilization(batch.h, material)

        for e, (C, E) in enumerate(edges):
            # the degree l and k-1 edge bases: the leading l+1 and k rows of
            # the kept degree-k one
            Clv, El = C[:, :l + 1], E[:, :l + 1, :l + 1]
            Cls, Ckv, Cks, Ek = (Clv[:, :, :Ts], C[:, :k], C[:, :k, :Ts],
                                 E[:, :k, :k])

            nrm = batch.normals[:, e, :]
            tang = -batch.tangents[:, e, :]  # enters negated
            c_th = e * m_th
            sl_that = [slice(c_th + u * (l + 1), c_th + (u + 1) * (l + 1))
                       for u in range(2)]
            c_p = nv * m_th + e * k
            sl_phat = slice(c_p, c_p + k)

            # <theta_hat, tau n>: unit tensors map n to (n1,0),(0,n2),(n2,n1)
            coeff = ((0, 0, nrm[:, 0]), (1, 1, nrm[:, 1]),
                     (2, 0, nrm[:, 1]), (2, 1, nrm[:, 0]))
            a12 += [(sl_sig[c], sl_that[u], val, Cls.mT)
                    for c, u, val in coeff]
            for u in range(2):
                a12 += [(sl_R[u], sl_phat, tang[:, u], Cks.mT),
                        (sl_th[u], sl_that[u], -alpha2, Clv.mT),
                        (sl_th[u], sl_phat, tang[:, u], Ckv.mT)]
            a12.append((sl_p, sl_phat, alpha3, Ckv.mT))

            a22 += [(sl, sl, alpha2, El) for sl in sl_that]
            a22.append((sl_phat, sl_phat, -alpha3, Ek))
            trace_idx[:, c_th:c_th + m_th] = tf_th.dofs(batch.edge_ids[:, e])
            trace_idx[:, sl_phat] = tf_p.dofs(batch.edge_ids[:, e])

        def load(pts):  # (L + f, phi) on the rotation test rows
            vals = L.values_batched(batch, pts)
            if f is None:
                return vals
            return vals + _values(f, pts, "f", vector=True)

        b1 = np.zeros((ne, n1))
        b1[:, sl_theta] = _load_moments(batch, k, load).reshape(ne, -1)

        # the columns of theta and p after the mass fields sigma and R:
        # -(theta, div tau) and (p, curl S) on the P_{k-1} rows, then the
        # edge stabilizations on the diagonal, theta's with the degree l
        # edge sum for both components and p's negated, (curl phi, p) and
        # its transpose
        th, p = (slice(0, Tv), slice(Tv, 2 * Tv)), slice(2 * Tv, 3 * Tv)
        one, minus = np.broadcast_to(1.0, ne), np.broadcast_to(-1.0, ne)
        DX, DY = D[:, :, :Ts]  # sigma and R read the leading Ts rows
        a11 = ((sl_sig[0], th[0], minus, DX), (sl_sig[1], th[1], minus, DY),
               (sl_sig[2], th[0], minus, DY), (sl_sig[2], th[1], minus, DX),
               (sl_R[0], p, minus, DY), (sl_R[1], p, one, DX),
               (sl_th[0], th[0], alpha2, P[l - k + 1]),
               (sl_th[1], th[1], alpha2, P[l - k + 1]),
               (sl_th[0], p, minus, D[1]), (sl_p, th[0], minus, D[1].mT),
               (sl_th[1], p, one, D[0]), (sl_p, th[1], one, D[0].mT),
               (sl_p, p, -alpha3, P[0]))
        groups.append(ElementBlockGroup(
            batch, a11, tuple(a12), tuple(a22), b1, np.zeros(trace_idx.shape),
            trace_idx, Mss, coef))

    return BlockSystem(dof, groups, stage="step2")


def shift_pressure_to_zero_mean(bs: BlockSystem, x1: np.ndarray,
                                x2: np.ndarray) -> None:
    """Fix the stage-two pressure constant in place: shift (p, p_hat) so
    that p has zero mean.  ``x1``/``x2`` are the interior and trace
    solutions of the ``assemble_step2`` system ``bs``; an ``x2`` of
    another shape raises ``ValueError``."""
    if bs.stage != "step2":
        raise ValueError("the pressure shift needs the stage-two system, "
                         f"not a {bs.stage!r} system")
    dof = bs.dof
    _check_trace(dof.n_trace, x2)
    tf_p = dof.trace_fields["p_hat"]
    shift = dof.field("p", x1).mean()
    x1[:, dof.interior_slice("p").start] -= shift
    x2[tf_p.dofs(np.arange(dof.mesh.num_edges))[:, 0]] -= shift
