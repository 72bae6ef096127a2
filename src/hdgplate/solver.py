"""Static condensation and iterative solution of the trace systems.

Condensation eliminates the element-diagonal interior block, producing a
sparse system in the edge unknowns only, in one way for every stage:
the fields that enter only through L2 masses (the Poisson flux, stage
two's sigma and R) go first, then the rest.  For the Poisson-type stages
the condensed matrix is symmetric positive definite and is solved by CG
preconditioned with its own factorization.  For the saddle stage the
condensed matrix keeps a two-by-two structure in (rotation trace,
pressure trace); an outer CG, preconditioned with a factored surrogate,
runs on the pressure Schur complement with the rotation-trace block
inverted by a sparse factorization and the constant pressure mode
deflated.

Every trace factorization is a no-pivot LU of a symmetric positive
definite block in the mesh's nested-dissection edge order, expanded to
the block's DOFs; the matrices and CG vectors keep the assembly order.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import BlockSystem

__all__ = [
    "SolverConfig",
    "SolveReport",
    "CondensedSystem",
    "SingularElementBlockError",
    "SingularTraceBlockError",
    "condense",
    "solve_spd",
    "solve_saddle_trace",
    "back_substitute",
    "solve_stage",
    "full_residual",
]


class SingularElementBlockError(RuntimeError):
    def __init__(self, element_id: int):
        self.element_id = element_id
        super().__init__(
            f"interior block of element {element_id} is singular "
            "(assembly bug or degenerate element)")


class SingularTraceBlockError(RuntimeError):
    def __init__(self, stage: str, block: str):
        self.stage, self.block = stage, block
        super().__init__(
            f"{stage}: trace block {block} hit a zero pivot in its "
            "no-pivot factorization (the block is singular)")


@dataclass(frozen=True)
class SolverConfig:
    """CG settings.

    Every trace solve is preconditioned by a sparse factorization: the
    condensed matrix itself for the positive definite stages, and for the
    saddle stage the surrogate ``rho * W - B22c`` (pressure-trace edge
    mass plus the condensed pressure block).  The surrogate captures both
    the mass-like coupling part and the thickness-scaled rotational
    stiffness of the pressure Schur complement, and keeps the outer
    iteration count nearly mesh-independent uniformly in thickness.
    """

    tol: float = 1e-10
    max_iter: int = 20000

    def __post_init__(self):
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        if not isinstance(self.max_iter, numbers.Integral):
            raise ValueError(f"max_iter={self.max_iter!r} must be an integer")
        if not self.max_iter >= 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class SolveReport:
    iterations: int
    residual: float
    wall_time: float
    # converged | zero_rhs | max_iter | indefinite (a direction with pAp <= 0)
    stop_reason: str = "converged"
    deflated: bool = False
    kernel_rejected: bool = False
    residual_history: list = field(default_factory=list)
    # sqrt(r^T M^{-1} r) per iteration, M the factored block; monotone
    # (it is the quantity CG minimizes when M is the operator itself)
    precond_residual_history: list = field(default_factory=list)
    # SuperLU's stored nonzeros of L and U and wall time, summed over the
    # factorizations it made
    factor_fill: int = 0
    factor_time: float = 0.0

    @property
    def converged(self) -> bool:
        return self.stop_reason in ("converged", "zero_rhs")


@dataclass
class CondensedSystem:
    """Schur complement trace system; ``local`` keeps, per element group,
    ``(Y_A, Y_b, minv)`` for back-substitution (see :func:`_eliminate`);
    ``S`` is None once :func:`solve_saddle_trace` has gathered it."""

    system: BlockSystem
    S: sp.csr_matrix | None
    rhs: np.ndarray
    local: list
    kernel: np.ndarray | None


def _local_solve(ids, a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """a^{-1} rhs for a stack of elements ``ids`` at once."""
    try:
        y = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:  # some block has an exactly zero pivot
        ok = np.isfinite(np.linalg.slogdet(a)[1])
    else:
        if np.isfinite(y).all():
            return y
        ok = np.isfinite(y).all(axis=(1, 2))
    raise SingularElementBlockError(int(ids[np.argmin(ok)]))


def _mass_inverse(ids, mass: np.ndarray) -> np.ndarray:
    """The inverses of a stack of element masses, from one stacked
    Cholesky; names an element whose mass is not positive definite."""
    try:
        linv = _local_solve(ids, np.linalg.cholesky(mass), np.eye(mass.shape[1]))
    except np.linalg.LinAlgError:
        ok = (np.isfinite(mass).all(axis=(1, 2))
              & (np.linalg.eigvalsh(np.nan_to_num(mass))[:, 0] > 0))
        raise SingularElementBlockError(int(ids[np.argmin(ok)])) from None
    return linv.mT @ linv


def _kron(c: np.ndarray, M: np.ndarray, x: np.ndarray, T=False) -> np.ndarray:
    """``(sum_d c[d] ⊗ M[d]) x`` per element for (nd, a, b) ``c``, (nd, ne,
    s, t) ``M`` and an (ne, b * t, ...) stack ``x``, never forming the
    product's matrix; with ``T``, its transpose times an (ne, a * s, ...)
    stack."""
    if T:
        c, M = c.transpose(0, 2, 1), M.mT
    y = M[:, :, None] @ x.reshape(len(x), c.shape[2], M.shape[3], -1)
    return np.einsum("dij,dejs...->eis...", c, y).reshape(
        len(x), -1, *x.shape[2:])


# bytes of [A11 | A12 | b1] per pass over a group's elements, about 64
# elements at stage two, k=3: bounds the temporaries of the elimination and
# of the dense trace columns, and changes no bit of any result
_CHUNK_BYTES = 3 * 2 ** 20


def _chunks(grp) -> list:
    """Slices of ``grp``'s elements, each at most ``_CHUNK_BYTES`` of
    ``[A11 | A12 | b1]`` (one element at least)."""
    ne, n1 = grp.b1.shape
    step = max(1, _CHUNK_BYTES // (8 * n1 * (n1 + grp.b2.shape[1] + 1)))
    return [slice(i, i + step) for i in range(0, ne, step)]


def _eliminate(grp, out: np.ndarray) -> tuple:
    """Eliminate a group's interior unknowns: write its local Schur blocks
    into ``out`` and return ``(Y, rhs, minv)``, with ``Y = A11'^{-1}
    [A12' | b1']`` for the fields after the mass fields, the local loads
    and the inverse element masses.  The mass fields go first, through
    ``coef^{-1} ⊗ minv``; the primes mark what that leaves of the other
    fields' blocks, which a stacked dense solve eliminates."""
    (ne, n1), n, m = grp.b1.shape, grp.a11.shape[1], grp.mass
    nm, cinv = n1 - n, np.linalg.inv(m.coef)[None]
    y, rhs = np.empty((ne, n, grp.b2.shape[1] + 1)), np.empty(grp.b2.shape)
    minv = np.empty(m.mass.shape)
    for e in _chunks(grp):
        a = grp.trace_columns(e)
        cols = np.concatenate([a[:, :n1], grp.b1[e, :, None]], -1)
        # rest = [A11 | A12_p | b1_p] - A_pm A_mm^{-1} [A_mp | A12_m | b1_m]
        minv[e] = _mass_inverse(grp.batch.ids[e], m.mass[e])
        amp = _kron(m.coupling, m.D[:, e],
                    np.broadcast_to(np.eye(n), (len(cols), n, n)))
        w = _kron(cinv, minv[None, e], np.concatenate([amp, cols[:, :nm]], -1))
        rest = np.concatenate([grp.a11[e], cols[:, nm:]], -1)
        rest -= amp.mT @ w
        y[e] = _local_solve(grp.batch.ids[e], rest[..., :n], rest[..., n:])
        z = cols[:, :nm, :-1].mT @ w[..., n:]
        z += rest[..., n:-1].mT @ y[e]
        np.subtract(a[:, n1:], z[..., :-1], out=out[e])
        np.subtract(grp.b2[e], z[..., -1], out=rhs[e])
    return y, rhs, minv


def _scatter_vector(vec: np.ndarray, idx: np.ndarray, local: np.ndarray):
    """Add a batched local trace vector into ``vec``, dropping -1 dofs."""
    keep = idx >= 0
    np.add.at(vec, idx[keep], local[keep])


# ----------------------------------------------------------------------
# the fixed pattern of the condensed trace matrix


def _edge_adjacency(groups, num_edges: int) -> sp.csr_matrix:
    """The (num_edges, num_edges) pattern of edges that share an element."""
    pairs = [(np.repeat(e, e.shape[1]), np.tile(e, e.shape[1]).ravel())
             for e in (grp.batch.edge_ids for grp in groups)]
    rows, cols = map(np.concatenate, zip(*pairs))
    return sp.csr_matrix((np.ones(len(rows)), (rows, cols)), (num_edges,) * 2)


def _build_pattern(adjacency: sp.csr_matrix, bs: BlockSystem) -> dict:
    n, edges = bs.n_trace, np.arange(adjacency.shape[0])
    dof_edge = np.zeros(n, dtype=np.intp)
    for f in bs.dof.trace_fields.values():
        dofs = f.dofs(edges)
        dof_edge[dofs[dofs >= 0]] = np.nonzero(dofs >= 0)[0]
    # S's pattern: a row holds the dofs of every edge adjacent to its own
    P = sp.csr_matrix((np.ones(n), (np.arange(n), dof_edge)), (n, len(edges)))
    S = P @ adjacency @ P.T
    S.sort_indices()
    ids = sp.csr_array((np.arange(S.nnz, dtype=S.indices.dtype), S.indices,
                        S.indptr), S.shape)
    edge_row = np.zeros(len(edges), dtype=np.intp)  # any row of each edge
    edge_row[dof_edge] = np.arange(n)
    sizes = [g.trace_indices.size * g.trace_indices.shape[1] for g in bs.groups]
    position = np.empty(sum(sizes), ids.dtype)
    for grp, pos in zip(bs.groups, np.split(position, np.cumsum(sizes)[:-1])):
        ok = grp.trace_indices >= 0
        dof = np.where(ok, grp.trace_indices, 0)
        edge = np.argmax(dof_edge[dof][:, :, None]      # each dof's local edge
                         == grp.batch.edge_ids[:, None, :], axis=2)
        # all rows of an edge hold the same columns: look their places up
        # once per local edge, then offset them to every row
        row, col = np.broadcast_arrays(edge_row[grp.batch.edge_ids][..., None],
                                       dof[:, None])
        col = ids[row.ravel(), col.ravel()].reshape(row.shape) - S.indptr[row]
        pos = pos.reshape(*dof.shape, dof.shape[1])
        np.add(col[np.arange(len(dof))[:, None], edge],
               S.indptr[dof][..., None], out=pos)
        pos[~(ok[:, :, None] & ok[:, None, :])] = S.nnz
    return {"indptr": S.indptr, "indices": S.indices, "position": position}


def _layout(dof) -> tuple:
    """The trace layout: ``(per_edge, dirichlet)`` per trace field."""
    return tuple((f.per_edge, f.dirichlet) for f in dof.trace_fields.values())


def _pattern(bs: BlockSystem) -> dict:
    """The CSR pattern of ``bs``'s condensed matrix, kept on the mesh per
    trace layout: ``indptr``, ``indices`` and, for every entry of every
    group's (ne, ntl, ntl) block in turn, its ``position`` in ``S.data``
    (``nnz`` for eliminated dofs), int32 while they fit.  It expands the
    mesh's edge adjacency, kept beside it, without a global sort.  Two
    elements share at most one edge, so no entry sums more than two local
    entries, and ``S`` is bitwise the COO-to-CSR sum of the blocks."""
    mesh = bs.dof.mesh
    return mesh.keep(("pattern", _layout(bs.dof)), lambda: _build_pattern(
        mesh.keep("edge_adjacency", lambda: _edge_adjacency(
            bs.groups, mesh.num_edges)), bs))


def _scatter(pattern: dict, blocks: np.ndarray) -> sp.csr_matrix:
    """``S`` summed from the flat local blocks by one ``np.bincount``."""
    indptr, indices = pattern["indptr"], pattern["indices"]
    data = np.bincount(pattern["position"], blocks,
                       minlength=len(indices) + 1)
    data.resize(len(indices), refcheck=False)  # drop the eliminated slot
    return sp.csr_matrix((data, indices, indptr), shape=(len(indptr) - 1,) * 2)


def condense(bs: BlockSystem) -> CondensedSystem:
    """Eliminate interior unknowns element-by-element (never globally).

    This is the one place where trace blocks become sparse: ``S`` sums
    the local ``A22 - A12^T A11^{-1} A12`` into the mesh's kept pattern,
    and ``rhs`` the local ``b2 - A12^T A11^{-1} b1``.  Every stage
    eliminates its mass fields with the inverse element mass first, then
    the rest by one stacked solve (see :func:`_eliminate`).
    """
    pattern = _pattern(bs)
    schur = np.empty(len(pattern["position"]))  # the local Schur blocks
    sizes = [g.trace_indices.size * g.trace_indices.shape[1] for g in bs.groups]
    blocks = np.split(schur, np.cumsum(sizes)[:-1])
    rhs = np.zeros(bs.n_trace)
    local = []
    for grp, out in zip(bs.groups, blocks):
        ne, ntl = grp.trace_indices.shape
        y, local_rhs, minv = _eliminate(grp, out.reshape(ne, ntl, ntl))
        _scatter_vector(rhs, grp.trace_indices, local_rhs)
        local.append((y[..., :-1], y[..., -1], minv))
    return CondensedSystem(bs, _scatter(pattern, schur), rhs, local,
                           bs.kernel_hint)


def back_substitute(cond: CondensedSystem, x2: np.ndarray) -> np.ndarray:
    """Interior solution (num_elements, n1) from the trace solution."""
    dof = cond.system.dof
    x1 = np.zeros((dof.mesh.num_elements, dof.n_interior_per_element))
    for grp, (y_a, y_b, minv) in zip(cond.system.groups, cond.local):
        x2loc = np.where(grp.trace_indices >= 0,
                         x2[np.clip(grp.trace_indices, 0, None)], 0.0)
        xp = y_b - np.einsum("eij,ej->ei", y_a, x2loc)
        nm, m = x1.shape[1] - xp.shape[1], grp.mass
        x1[grp.batch.ids, nm:] = xp
        # the mass fields from the rest
        a12x = np.concatenate([np.einsum(
            "eij,ej->ei", grp.trace_columns(e, nm), x2loc[e])
            for e in _chunks(grp)])
        v = grp.b1[:, :nm] - a12x - _kron(m.coupling, m.D, xp)
        x1[grp.batch.ids, :nm] = _kron(np.linalg.inv(m.coef)[None],
                                       minv[None], v)
    return x1


def full_residual(bs: BlockSystem, x1: np.ndarray, x2: np.ndarray) -> float:
    """Relative residual of the uncondensed block system."""
    r2, b2 = np.zeros(bs.n_trace), np.zeros(bs.n_trace)
    rnorm2 = bnorm2 = 0.0
    for grp in bs.groups:
        x1g = x1[grp.batch.ids]
        x2loc = np.where(grp.trace_indices >= 0,
                         x2[np.clip(grp.trace_indices, 0, None)], 0.0)
        n1, r1, rt = x1g.shape[1], np.empty_like(grp.b1), np.empty_like(grp.b2)
        for e in _chunks(grp):
            a = grp.trace_columns(e)
            r1[e] = np.einsum("eij,ej->ei", a[:, :n1], x2loc[e])
            rt[e] = (np.einsum("eij,ei->ej", a[:, :n1], x1g[e])
                     + np.einsum("eij,ej->ei", a[:, n1:], x2loc[e]))
        r1 -= grp.b1
        nm, m = x1g.shape[1] - grp.a11.shape[1], grp.mass
        xm, xp = x1g[:, :nm], x1g[:, nm:]
        r1[:, :nm] += (_kron(m.coef[None], m.mass[None], xm)
                       + _kron(m.coupling, m.D, xp))
        r1[:, nm:] += (np.einsum("eij,ej->ei", grp.a11, xp)
                       + _kron(m.coupling, m.D, xm, T=True))
        rnorm2 += float((r1 ** 2).sum())
        bnorm2 += float((grp.b1 ** 2).sum())
        _scatter_vector(r2, grp.trace_indices, rt - grp.b2)
        _scatter_vector(b2, grp.trace_indices, grp.b2)
    rnorm2 += float((r2 ** 2).sum())
    bnorm2 += float((b2 ** 2).sum())
    return np.sqrt(rnorm2) / max(np.sqrt(bnorm2), 1e-300)


# ----------------------------------------------------------------------
# preconditioned CG with optional deflation


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """``a @ b`` without BLAS, whose rounding follows its thread count."""
    return float(np.add.reduce(a * b))


def _pcg(apply_op: Callable, b: np.ndarray, precond: Callable,
         tol: float, max_iter: int, project: Callable = lambda v: v):
    bnorm = math.sqrt(_dot(b, b))  # residuals stay relative to the raw load
    b = project(b)
    if not b.any():  # zero, or entirely in the deflated kernel: x = 0 is exact
        return np.zeros_like(b), 0, [0.0], "zero_rhs", [0.0]
    x = np.zeros_like(b)
    r = b.copy()
    z = project(precond(r))
    p = z.copy()
    rz = _dot(r, z)
    history = [math.sqrt(_dot(r, r)) / bnorm]
    rz_history = [math.sqrt(abs(rz))]
    iterations = 0
    stop_reason = "max_iter"
    for it in range(1, max_iter + 1):
        Ap = project(apply_op(p))
        pAp = _dot(p, Ap)
        if pAp <= 0.0:
            stop_reason = "indefinite"  # return the best iterate
            break
        alpha = rz / pAp
        x += alpha * p
        r = project(r - alpha * Ap)
        history.append(math.sqrt(_dot(r, r)) / bnorm)
        iterations = it
        z = project(precond(r))
        rz_new = _dot(r, z)
        rz_history.append(math.sqrt(abs(rz_new)))
        if history[-1] <= tol:
            stop_reason = "converged"
            break
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, iterations, history, stop_reason, rz_history


class _Factor(NamedTuple):
    lu: spla.SuperLU
    perm: np.ndarray
    fill: int
    seconds: float

    def solve(self, b: np.ndarray) -> np.ndarray:
        x = np.empty_like(b)
        x[self.perm] = self.lu.solve(b[self.perm])
        return x


def _factorize(A: sp.csc_matrix, perm: np.ndarray, stage: str = "",
               block: str = "") -> _Factor:
    """Sparse LU of an SPD block ``B`` given in the symmetric order
    ``perm``, as ``A = B[perm][:, perm].tocsc()``.

    SuperLU factors ``A`` in its own column order with diagonal pivots
    only, as a Cholesky factorization would; ``solve`` permutes in and
    out, so callers keep ``B``'s own order.  The fill is SuperLU's own
    count of stored nonzeros (reading ``L`` or ``U`` would copy them).
    A zero pivot raises :class:`SingularTraceBlockError` naming
    ``stage`` and ``block``.
    """
    t0 = time.perf_counter()
    if not A.data.all():  # the kept pattern's exact zeros stay out
        A = A.copy()
        A.eliminate_zeros()
    try:
        lu = spla.splu(A, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as err:  # SuperLU: "Factor is exactly singular"
        raise SingularTraceBlockError(stage, block) from err
    return _Factor(lu, perm, lu.nnz, time.perf_counter() - t0)


def _deflation_projector(z: np.ndarray) -> Callable:
    z = z / math.sqrt(_dot(z, z))
    return lambda v: v - _dot(z, v) * z


def _kernel_is_valid(B11, B12, B22c, kernel: np.ndarray) -> bool:
    """Whether ``kernel``, which has to live on the pressure trace, is a
    null vector of ``S = [[B11, B12], [B12^T, B22c]]`` to 1e-8 of
    ``|S|_F``; every sum goes through :func:`_dot`, not BLAS."""
    m = B11.shape[0]
    kp = kernel[m:]
    Sz = np.concatenate([B12 @ kp, B22c @ kp])
    snorm2 = sum(c * _dot(B.data, B.data)
                 for c, B in ((1, B11), (2, B12), (1, B22c)))
    return (not kernel[:m].any() and math.sqrt(_dot(Sz, Sz))
            <= 1e-8 * math.sqrt(snorm2 * _dot(kp, kp)))


def solve_spd(cond: CondensedSystem, config: SolverConfig = SolverConfig()):
    """CG on the condensed SPD trace system, preconditioned by its own
    factorization; a Poisson stage's factor is kept on the mesh for every
    later solve to reuse, each of which condenses to the same ``S`` bit
    for bit; returns (x2, report)."""
    t0 = time.perf_counter()
    S, bs = cond.S, cond.system
    key, perm = (*bs.kept_as, "factor"), bs.dof.trace_order("u_hat")
    fresh = key not in bs.dof.mesh.kept
    factor = bs.dof.mesh.keep(key, lambda: _factorize(
        S[perm][:, perm].tocsc(), perm, bs.stage, "S"))
    x, iterations, history, stop_reason, rz_hist = _pcg(
        lambda v: S @ v, cond.rhs, factor.solve, config.tol, config.max_iter)
    report = SolveReport(iterations, history[-1],
                         time.perf_counter() - t0, stop_reason,
                         residual_history=history,
                         precond_residual_history=rz_hist,
                         factor_fill=factor.fill if fresh else 0,
                         factor_time=factor.seconds if fresh else 0.0)
    return x, report


def _phat_edge_mass(dof) -> sp.csr_matrix:
    """Edge mass matrix of the pressure trace space (analytic, per edge):
    the edge length times the Gram matrix of 1, s, ..., s^(k-1) on [0, 1]."""
    k = dof.trace_fields["p_hat"].per_edge
    H = 1.0 / (np.add.outer(np.arange(k), np.arange(k)) + 1.0)
    return sp.kron(sp.diags(dof.mesh.edge_length), H, format="csr")


def _block(cond: CondensedSystem, name: str, take: Callable):
    """The block ``take(S)``, its values gathered from ``S.data`` through
    the index map that ``take`` gives on S's entry numbers; the map is
    kept on the mesh under ``name`` beside S's pattern, so ``take`` runs
    once per trace layout."""
    S, dof = cond.S, cond.system.dof
    ids = dof.mesh.keep(("pattern", _layout(dof), name), lambda: take(
        sp.csr_matrix((np.arange(S.nnz, dtype=S.indices.dtype), S.indices,
                       S.indptr), S.shape)))
    return type(ids)((S.data[ids.data], ids.indices, ids.indptr), ids.shape)


def solve_saddle_trace(cond: CondensedSystem,
                       config: SolverConfig = SolverConfig()):
    """Nested Schur solve of the saddle trace system.

    Outer CG runs on the pressure-trace operator
    ``B12^T B11^{-1} B12 - B22c`` (positive semidefinite with the
    constant mode as kernel); the rotation-trace block is inverted per
    application.  Returns (theta_hat, p_hat, report); the reported
    iteration count is the number of outer CG iterations.  ``cond.S`` is
    set to None once its blocks are gathered.
    """
    t0 = time.perf_counter()
    dof, stage = cond.system.dof, cond.system.stage
    m = dof.trace_fields["p_hat"].offset
    c1, c2 = cond.rhs[:m], cond.rhs[m:]

    # B11 goes to SuperLU in nested-dissection order, without an
    # assembly-order copy; the other blocks keep the assembly order
    perm = dof.trace_order("theta_hat")
    B11 = _block(cond, "B11", lambda A: A[:m, :m][perm][:, perm].tocsc())
    B12 = _block(cond, "B12", lambda A: A[:m, m:])
    B22c = _block(cond, "B22c", lambda A: A[m:, m:])
    deflated = (cond.kernel is not None
                and _kernel_is_valid(B11, B12, B22c, cond.kernel))
    kernel_rejected = cond.kernel is not None and not deflated
    project = (_deflation_projector(cond.kernel[m:]) if deflated
               else lambda v: v)
    # the blocks are all that is read of S: drop it before the
    # factorizations, which set the solve's peak memory, and B11 once used
    cond.S = None
    inner = _factorize(B11, perm, stage, "B11")
    del B11

    def apply_outer(v):
        return B12.T @ inner.solve(B12 @ v) - B22c @ v

    rhs = B12.T @ inner.solve(c1) - c2

    # Surrogate -B22c + rho * W: the pressure-trace block carries the
    # thickness-scaled rotational stiffness of the operator, and the edge
    # mass W (scale rho fitted by one probe) covers the mass-like part
    # contributed through the rotation-trace coupling.  The combination
    # stays spectrally equivalent uniformly in h and t.  The probe is drawn
    # in ``edge_order``, not in DOF order, so the element and edge numbering
    # do not move rho; for k >= 2 each edge's s still runs by vertex id.
    W = _phat_edge_mass(dof)
    order = dof.trace_order("p_hat") - m
    probe = np.empty(B12.shape[1])
    probe[order] = np.random.default_rng(0).standard_normal(len(order))
    probe = project(probe)
    coupled = _dot(probe, B12.T @ inner.solve(B12 @ probe))
    rho = max(coupled / _dot(probe, W @ probe), 0.0)
    surrogate = _factorize((rho * W - B22c)[order][:, order].tocsc(), order,
                           stage, "surrogate")

    p_hat, iterations, history, stop_reason, rz_hist = _pcg(
        apply_outer, rhs, surrogate.solve, config.tol, config.max_iter,
        project)
    theta_hat = inner.solve(c1 - B12 @ p_hat)
    report = SolveReport(iterations, history[-1],
                         time.perf_counter() - t0, stop_reason,
                         deflated, kernel_rejected, history, rz_hist,
                         inner.fill + surrogate.fill,
                         inner.seconds + surrogate.seconds)
    return theta_hat, p_hat, report


def solve_stage(bs: BlockSystem, config: SolverConfig = SolverConfig()):
    """Condense, solve the trace system and back-substitute one stage."""
    cond = condense(bs)
    if bs.stage == "step2":
        theta_hat, p_hat, report = solve_saddle_trace(cond, config)
        x2 = np.concatenate([theta_hat, p_hat])
    else:
        x2, report = solve_spd(cond, config)
    x1 = back_substitute(cond, x2)
    return x1, x2, report
