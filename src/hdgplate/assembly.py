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
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from scipy.linalg import block_diag

from . import femspace as fs
from .femspace import ElementBatch, element_batches
from .mesh import Mesh

__all__ = [
    "PlateMaterial",
    "SpaceConfig",
    "stabilization",
    "constitutive_inverse_matrix",
    "DiscreteField",
    "StageDofMap",
    "BlockSystem",
    "ElementBlockGroup",
    "MassFields",
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
        if not 0 < self.E < math.inf:
            raise ValueError("E must be positive and finite")
        if not 0 < self.nu <= 0.5:
            raise ValueError("nu must lie in (0, 1/2]")
        if not 0 < self.kappa < math.inf:
            raise ValueError("kappa must be positive and finite")
        if not 0 < self.t <= 1:
            raise ValueError("t must lie in (0, 1]")

    @property
    def lam(self) -> float:
        return self.kappa * self.E / (2.0 * (1.0 + self.nu))


@dataclass(frozen=True)
class SpaceConfig:
    """Primary degree k >= 1 and rotation-trace degree l, max(1,k-1) <= l <= k."""

    k: int
    l: int = -1

    def __post_init__(self):
        if not all(isinstance(d, numbers.Integral) for d in (self.k, self.l)):
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


# Symmetric 2x2 tensors are stored as (11, 22, 12); the Frobenius inner
# product carries weight 2 on the off-diagonal slot.
_FROBENIUS_W = np.array([1.0, 1.0, 2.0])


def _constitutive_matrix(material: PlateMaterial) -> np.ndarray:
    a = material.E / (12.0 * (1.0 - material.nu ** 2))
    nu = material.nu
    return a * np.array([[1.0, nu, 0.0],
                         [nu, 1.0, 0.0],
                         [0.0, 0.0, 1.0 - nu]])


def constitutive_inverse_matrix(material: PlateMaterial) -> np.ndarray:
    """Matrix K with K[a,b] = (Cinv E_a) : E_b on unit component tensors."""
    return np.linalg.inv(_constitutive_matrix(material)) * _FROBENIUS_W[None, :]


def _ip(w, rows, cols):
    return np.einsum("eiq,ejq,eq->eij", rows, cols, w, optimize=True)


# ----------------------------------------------------------------------
# discrete fields


# components of each value rank
_NCOMP = {"scalar": 1, "vector2": 2, "symtensor2x2": 3}


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
        self.ncomp = _NCOMP.get(self.rank)
        if self.ncomp is None:
            raise ValueError(f"unknown value rank {self.rank!r}")
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
        return np.einsum("enq,ecn->ecq", vals, coeffs)

    def divergence_batched(self, batch: ElementBatch, pts: np.ndarray) -> np.ndarray:
        if self.rank != "vector2":
            raise ValueError("divergence needs a vector2 field")
        exps = fs.monomial_exponents(self.degree)
        gx = fs.scalar_vals(exps, batch.centroid, batch.h, pts, dx=1)
        gy = fs.scalar_vals(exps, batch.centroid, batch.h, pts, dy=1)
        c = self.coeffs[batch.ids]
        n = self.nscalar
        return (np.einsum("enq,en->eq", gx, c[:, :n])
                + np.einsum("enq,en->eq", gy, c[:, n:]))

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
    edge_rank: np.ndarray  # (num_edges,), -1 on eliminated edges

    def dofs(self, edge_ids: np.ndarray) -> np.ndarray:
        """Global dof indices (..., per_edge); -1 rows for eliminated edges."""
        rank = self.edge_rank[edge_ids]
        base = self.offset + rank[..., None] * self.per_edge
        out = base + np.arange(self.per_edge)
        out[rank < 0] = -1
        return out


class StageDofMap:
    """Interior (per-element) and trace (per-edge) numbering for one stage.

    Interior fields are declared as ``(name, degree, rank)``; each element
    owns one contiguous block holding the fields in that order, each one
    component-major like :class:`DiscreteField`.  Trace fields are
    ``(name, per_edge, dirichlet)``; their unknowns are field-major then
    edge-major, and Dirichlet trace fields skip boundary edges entirely.
    """

    def __init__(self, mesh: Mesh, interior_fields, trace_fields):
        self.mesh = mesh
        # name -> (offset, degree, rank)
        self.interior_fields: dict[str, tuple[int, int, str]] = {}
        off = 0
        for name, degree, rank in interior_fields:
            self.interior_fields[name] = (off, degree, rank)
            off += _NCOMP[rank] * fs.space_dim(degree)
        self.n_interior_per_element = off
        self.n_interior = off * mesh.num_elements

        n_edges = mesh.num_edges
        interior = ~mesh.boundary_mask
        interior_rank = np.where(interior, np.cumsum(interior) - 1, -1)
        rank = int(np.count_nonzero(interior))

        self.trace_fields: dict[str, TraceField] = {}
        off = 0
        for name, per_edge, dirichlet in trace_fields:
            er = (interior_rank if dirichlet else np.arange(n_edges)).copy()
            er.setflags(write=False)
            count = rank if dirichlet else n_edges
            self.trace_fields[name] = TraceField(name, off, per_edge,
                                                 dirichlet, er)
            off += count * per_edge
        self.n_trace = off

    def trace_order(self, name: str) -> np.ndarray:
        """Global DOFs of trace field ``name`` in the mesh's
        nested-dissection edge order (``Mesh.edge_order``)."""
        dofs = self.trace_fields[name].dofs(self.mesh.edge_order)
        return dofs[dofs >= 0]

    def components(self, name: str) -> list[slice]:
        """One interior slice per component of field ``name``."""
        off, degree, rank = self.interior_fields[name]
        n = fs.space_dim(degree)
        return [slice(off + c * n, off + (c + 1) * n)
                for c in range(_NCOMP[rank])]

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
        f = self.trace_fields[name]
        out = np.zeros((self.mesh.num_edges, f.per_edge))
        mask = f.edge_rank >= 0
        rows = f.offset + f.edge_rank[mask][:, None] * f.per_edge \
            + np.arange(f.per_edge)
        out[mask] = x2[rows]
        return out


# ----------------------------------------------------------------------
# block system


@dataclass
class MassFields:
    """A group's leading interior fields that enter only through an L2
    mass (the Poisson flux; stage two's sigma and R): their block is
    ``coef ⊗ mass``, and they couple to the later fields only through
    ``sum_d coupling[d] ⊗ D[d]``."""

    mass: np.ndarray      # (ne, Ts, Ts)
    coef: np.ndarray      # (nc, nc)
    D: np.ndarray         # (nd, ne, Ts, Tv)
    coupling: np.ndarray  # (nd, nc, np)


@dataclass
class ElementBlockGroup:
    """Local blocks for one batch of same-size elements.  ``a11`` is the
    block of the interior fields after the ``nm = nc * Ts`` fields kept in
    ``mass``; the trace columns ``[A12; A22]`` are kept as the ``terms``
    that write them, ``(rows, cols, scale, block)`` with ``scale`` (ne,)
    and ``block`` (ne, r, c), and each region is written by one term."""

    batch: ElementBatch
    a11: np.ndarray           # (ne, n1 - nm, n1 - nm)
    terms: tuple
    b1: np.ndarray            # (ne, n1)
    b2: np.ndarray            # (ne, ntl)
    trace_indices: np.ndarray  # (ne, ntl), -1 for eliminated trace dofs
    mass: MassFields

    def trace_columns(self, e: slice, stop: int | None = None) -> np.ndarray:
        """The dense (len, n1 + ntl, ntl) ``[A12; A22]`` of the elements
        ``e``: ``scale * block`` in each term's region, zero elsewhere.
        With ``stop``, only its first ``stop`` rows, written by the terms
        whose rows end there or before (no term straddles a field)."""
        ntl = self.trace_indices.shape[1]
        if stop is None:
            stop = (len(self.mass.coef) * self.mass.mass.shape[1]
                    + self.a11.shape[1] + ntl)
        out = np.zeros((len(self.batch.ids[e]), stop, ntl))
        for rows, cols, scale, block in self.terms:
            if rows.stop <= stop:
                out[:, rows, cols] = scale[e, None, None] * block[e]
        return out


@dataclass
class BlockSystem:
    """Symmetric two-by-two block system with element-diagonal interior
    block, kept as element-local blocks; only ``solver`` scatters the
    trace blocks into sparse form."""

    dof: StageDofMap
    groups: list[ElementBlockGroup]
    kernel_hint: np.ndarray | None = None
    stage: str = ""
    # the Poisson stages' key on the mesh (see _poisson_operator), which
    # ``solver`` extends for what it keeps; None for stage two
    kept_as: tuple | None = None

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


def _local_matrices(batch, k, trace_deg, degrees):
    """Volume and edge matrices of one batch that every stage slices.

    Returns the P_{k-1} mass ``Mss``, ``EX``/``EY`` (rows: d/dx, d/dy of
    P_k; cols: P_k) and one ``(C, E)`` per local edge for the edge basis
    of degree ``trace_deg`` against P_k.  P_{k-1} is the first
    ``space_dim(k-1)`` monomials of P_k, and an edge basis of lower
    degree is a leading run of rows, so smaller blocks are leading
    slices: ``EX[:, :Ts]`` is d/dx of P_{k-1} against P_k, and
    ``C[:, :k, :Ts]``, ``E[:, :k, :k]`` are the degree k-1 edge blocks
    against P_{k-1}.
    """
    pts, w = batch.volume_rule(degrees["assembly_degree"])
    exps = fs.monomial_exponents(k)
    V = fs.scalar_vals(exps, batch.centroid, batch.h, pts)
    Vs = V[:, :fs.space_dim(k - 1)]
    EX = _ip(w, fs.scalar_vals(exps, batch.centroid, batch.h, pts, dx=1), V)
    EY = _ip(w, fs.scalar_vals(exps, batch.centroid, batch.h, pts, dy=1), V)
    edges = [_edge_projection_blocks(batch, e, degrees["edge_degree"],
                                     trace_deg, k) for e in range(batch.nv)]
    return _ip(w, Vs, Vs), EX, EY, edges


def _below(n1: int, cols: slice) -> slice:
    """The ``[A12; A22]`` rows of the ``A22`` rows ``cols``."""
    return slice(n1 + cols.start, n1 + cols.stop)


def _stab_volume_block(C, E):
    """C^T E^{-1} C: exact edge-projection stabilization of interior traces."""
    return np.einsum("emi,emj->eij", C, np.linalg.solve(E, C), optimize=True)


# ----------------------------------------------------------------------
# stage one / three operator (kept on the mesh, shared by both stages)


def _assemble_poisson_operator(dof, k, degrees):
    n1, Ts, Tv = dof.n_interior_per_element, fs.space_dim(k - 1), fs.space_dim(k)
    tf = dof.trace_fields["u_hat"]
    sl_L = dof.components("flux")
    sl_r = dof.interior_slice("primal")

    groups, source = [], []
    for batch in element_batches(dof.mesh):
        ne, nv = len(batch.ids), batch.nv
        Mss, EX, EY, edges = _local_matrices(batch, k, k - 1, degrees)
        # the flux is a mass field, -I2 ⊗ Mss, coupled to the primal field
        # by -(r, div q): its component u through -d/du; a11 is the primal
        # block
        flux = MassFields(Mss, -np.eye(2), np.stack([EX[:, :Ts], EY[:, :Ts]]),
                          -np.eye(2)[:, :, None])
        a11 = np.zeros((ne, Tv, Tv))

        terms, trace_idx = [], np.empty((ne, nv * k), dtype=int)
        # alpha1 does not depend on the thickness
        alpha1 = stabilization(batch.h, PlateMaterial())[0]

        for e, (Cv, Ee) in enumerate(edges):
            # alpha1-weighted projection stabilization on the primal trace
            a11 += alpha1[:, None, None] * _stab_volume_block(Cv, Ee)

            cols = slice(e * k, (e + 1) * k)
            nrm = batch.normals[:, e, :]
            terms += [(sl, cols, nrm[:, u], Cv[:, :, :Ts].mT)
                      for u, sl in enumerate(sl_L)]
            terms += [(sl_r, cols, -alpha1, Cv.mT),
                      (_below(n1, cols), cols, alpha1, Ee)]
            trace_idx[:, cols] = tf.dofs(batch.edge_ids[:, e])

        # the loads differ per solve: each stage sets b1 and b2
        groups.append(ElementBlockGroup(batch, a11, tuple(terms), None, None,
                                        trace_idx, flux))
        pts, w = batch.volume_rule(degrees["source_degree"])
        source.append((pts, w, fs.scalar_vals(fs.monomial_exponents(k),
                                               batch.centroid, batch.h, pts)))

    return groups, source


def _poisson_operator(dof: StageDofMap) -> tuple:
    """The stage one/three operator on ``dof``, kept on the mesh under
    ``("poisson", k)``: groups without loads and per batch the source
    rule's points, weights and P_k basis."""
    k = dof.trace_fields["u_hat"].per_edge
    return dof.mesh.keep(("poisson", k), lambda: _assemble_poisson_operator(
        dof, k, fs.quadrature_degrees(k)))


def assemble_step1(mesh: Mesh, spaces: SpaceConfig, g: Callable) -> BlockSystem:
    """Stage-one system for the load potential: find (L, r, r_hat) from g."""
    k = spaces.k
    dof = StageDofMap(mesh, interior_fields=[("flux", k - 1, "vector2"),
                                             ("primal", k, "scalar")],
                      trace_fields=[("u_hat", k, True)])
    sl_r = dof.interior_slice("primal")
    groups = []
    for grp, (pts, w, Vv) in zip(*_poisson_operator(dof)):
        b1 = np.zeros((len(grp.batch.ids), dof.n_interior_per_element))
        gvals = np.asarray(g(pts[..., 0], pts[..., 1]), dtype=float)
        b1[:, sl_r] = np.einsum("enq,eq,eq->en", Vv, gvals, w)
        groups.append(replace(grp, b1=b1, b2=np.zeros(grp.trace_indices.shape)))
    return BlockSystem(dof, groups, stage="step1", kept_as=("poisson", k))


def assemble_step3(step1: BlockSystem, material: PlateMaterial,
                   theta: DiscreteField, g: Callable) -> BlockSystem:
    """Stage-three system for the deflection, driven by the stage-two rotation:
    stage one's read-only operator and the kept source rule with new loads
    ``b1``, ``b2``."""
    if step1.stage != "step1":
        raise ValueError("stage-three assembly needs the stage-one system, "
                         f"not a {step1.stage!r} system")
    dof = step1.dof
    k = dof.trace_fields["u_hat"].per_edge
    if getattr(theta, "mesh", None) is not dof.mesh:
        raise ValueError("stage-three assembly needs the stage-two rotation "
                         "on the stage-one system's mesh")
    if theta.degree != k:
        raise ValueError(f"the stage-two rotation has degree {theta.degree}, "
                         f"the stage-one system k={k}")
    edge_degree = fs.quadrature_degrees(k)["edge_degree"]
    sl_r = dof.interior_slice("primal")
    scale = material.t ** 2 / material.lam

    groups = []
    for grp, (pts, w, Vv) in zip(step1.groups, _poisson_operator(dof)[1]):
        batch = grp.batch
        gvals = np.asarray(g(pts[..., 0], pts[..., 1]), dtype=float)
        divth = theta.divergence_batched(batch, pts)
        b1 = np.zeros_like(grp.b1)
        b1[:, sl_r] = np.einsum("enq,eq,eq->en", Vv, scale * gvals - divth, w)

        # trace load <theta . n, s_hat>, per element and local edge
        b2 = np.zeros_like(grp.b2)
        for e in range(batch.nv):
            epts, ew, s = batch.edge_rule(e, edge_degree + k)
            ehat = fs.power_table(s, k - 1)
            thv = theta.values_batched(batch, epts)
            th_n = np.einsum("ecq,ec->eq", thv, batch.normals[:, e, :])
            b2[:, e * k:(e + 1) * k] = np.einsum("emq,eq,eq->em",
                                                 ehat, th_n, ew)
        groups.append(replace(grp, b1=b1, b2=b2))

    return BlockSystem(dof, groups, stage="step3", kept_as=step1.kept_as)


# ----------------------------------------------------------------------
# stage two

# sigma (11, 22, 12) and R (1, 2) against theta (1, 2) and p, per
# derivative d/dx, d/dy: -(theta, div tau) and (p, curl S)
_COUPLING = np.zeros((2, 5, 3))
_COUPLING[0, [0, 2, 4], [0, 1, 2]] = -1.0, -1.0, 1.0
_COUPLING[1, [1, 2, 3], [1, 0, 2]] = -1.0
_COUPLING.setflags(write=False)


def assemble_step2(mesh: Mesh, spaces: SpaceConfig, material: PlateMaterial,
                   L: DiscreteField, f: Callable | None = None) -> BlockSystem:
    """Stage-two saddle system: find (sigma, R, theta, theta_hat, p, p_hat).
    sigma and R are :class:`MassFields`; ``a11`` is the (theta, p) block."""
    if L is None:
        raise ValueError("stage-two assembly needs the stage-one flux field")
    k, l = spaces.k, spaces.l
    degrees = fs.quadrature_degrees(k)
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
    sl_p = dof.interior_slice("p")

    # the sigma mass Kinv ⊗ Mss and the R mass lam/t^2 Mss, negated for
    # the symmetric arrangement
    coef = block_diag(-constitutive_inverse_matrix(material),
                      material.lam / material.t ** 2 * np.eye(2))
    exps_v = fs.monomial_exponents(k)

    groups = []
    for batch in element_batches(mesh):
        ne, nv = len(batch.ids), batch.nv
        Mss, EX, EY, edges = _local_matrices(batch, k, l, degrees)
        DX, DY = EX[:, :Ts], EY[:, :Ts]

        # theta and p after the mass fields sigma and R
        a11 = np.zeros((ne, 3 * Tv, 3 * Tv))
        th, p = (slice(0, Tv), slice(Tv, 2 * Tv)), slice(2 * Tv, None)
        # (curl phi, p) and its transpose
        a11[:, th[0], p], a11[:, p, th[0]] = -EY, -EY.mT
        a11[:, th[1], p], a11[:, p, th[1]] = EX, EX.mT

        terms, trace_idx = [], np.empty((ne, nv * (m_th + k)), dtype=int)
        _, alpha2, alpha3 = stabilization(batch.h, material)

        for e, (Clv, El) in enumerate(edges):
            # degree k-1 edge basis: the leading k rows of the degree-l one
            Cls, Ckv, Cks, Ek = (Clv[:, :, :Ts], Clv[:, :k], Clv[:, :k, :Ts],
                                 El[:, :k, :k])
            stab2 = alpha2[:, None, None] * _stab_volume_block(Clv, El)
            a11[:, th[0], th[0]] += stab2
            a11[:, th[1], th[1]] += stab2
            a11[:, p, p] -= alpha3[:, None, None] * _stab_volume_block(Ckv, Ek)

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
            terms += [(sl_sig[c], sl_that[u], val, Cls.mT)
                      for c, u, val in coeff]
            for u in range(2):
                terms += [(sl_R[u], sl_phat, tang[:, u], Cks.mT),
                          (sl_th[u], sl_that[u], -alpha2, Clv.mT),
                          (sl_th[u], sl_phat, tang[:, u], Ckv.mT)]
            terms.append((sl_p, sl_phat, alpha3, Ckv.mT))

            terms += [(_below(n1, sl), sl, alpha2, El) for sl in sl_that]
            terms.append((_below(n1, sl_phat), sl_phat, -alpha3, Ek))
            trace_idx[:, c_th:c_th + m_th] = tf_th.dofs(batch.edge_ids[:, e])
            trace_idx[:, sl_phat] = tf_p.dofs(batch.edge_ids[:, e])

        # load: (L + f, phi) on the rotation test rows
        b1 = np.zeros((ne, n1))
        spts, sw = batch.volume_rule(degrees["source_degree"])
        Vv_s = fs.scalar_vals(exps_v, batch.centroid, batch.h, spts)
        load = L.values_batched(batch, spts)
        if f is not None:
            # vector callables return (2,) + points.shape
            fv = np.asarray(f(spts[..., 0], spts[..., 1]), dtype=float)
            load = load + np.moveaxis(fv, 0, 1)
        for u in range(2):
            b1[:, sl_th[u]] = np.einsum("enq,eq,eq->en", Vv_s, load[:, u, :], sw)

        groups.append(ElementBlockGroup(
            batch, a11, tuple(terms), b1, np.zeros(trace_idx.shape), trace_idx,
            MassFields(Mss, coef, np.stack([DX, DY]), _COUPLING)))

    # the condensed system annihilates constant pressure: mark that mode
    kernel = np.zeros(dof.n_trace)
    const_modes = tf_p.offset + np.arange(mesh.num_edges) * k
    kernel[const_modes] = 1.0
    kernel /= np.linalg.norm(kernel)

    return BlockSystem(dof, groups, kernel_hint=kernel, stage="step2")


def shift_pressure_to_zero_mean(bs: BlockSystem, x1: np.ndarray,
                                x2: np.ndarray) -> None:
    """Fix the stage-two pressure constant in place: shift (p, p_hat) so
    that p has zero mean.  ``x1``/``x2`` are the interior and trace
    solutions of the ``assemble_step2`` system ``bs``."""
    dof = bs.dof
    tf_p = dof.trace_fields["p_hat"]
    shift = dof.field("p", x1).mean()
    x1[:, dof.interior_slice("p").start] -= shift
    x2[tf_p.offset + np.arange(dof.mesh.num_edges) * tf_p.per_edge] -= shift
