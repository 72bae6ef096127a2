"""Static condensation and iterative solution of the trace systems.

Condensation eliminates the element-diagonal interior block, producing a
sparse system in the edge unknowns only.  For the Poisson-type stages
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
        if not self.tol > 0:
            raise ValueError("tol must be positive")
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
    ``(Y_A, Y_b) = (A11^{-1} A12, A11^{-1} b1)`` for back-substitution,
    and ``pattern`` the kept pattern of ``S`` (empty for a hand-built
    ``S``)."""

    system: BlockSystem
    S: sp.csr_matrix
    rhs: np.ndarray
    local: list
    kernel: np.ndarray | None
    pattern: dict = field(default_factory=dict, repr=False)


def _local_solve(grp, rhs: np.ndarray) -> np.ndarray:
    """A11^{-1} rhs for every element of a group at once."""
    try:
        y = np.linalg.solve(grp.a11, rhs)
    except np.linalg.LinAlgError:  # some block has an exactly zero pivot
        ok = np.isfinite(np.linalg.slogdet(grp.a11)[1])
    else:
        if np.isfinite(y).all():
            return y
        ok = np.isfinite(y).all(axis=(1, 2))
    raise SingularElementBlockError(int(grp.batch.ids[np.argmin(ok)]))


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
    adjacency = sp.csr_matrix((np.ones(len(rows)), (rows, cols)),
                              (num_edges,) * 2)
    for arr in (adjacency.data, adjacency.indices, adjacency.indptr):
        arr.setflags(write=False)
    return adjacency


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
    position = np.empty(sum(grp.a22.size for grp in bs.groups), ids.dtype)
    for grp, pos in zip(bs.groups, np.split(position, np.cumsum(
            [grp.a22.size for grp in bs.groups])[:-1])):
        ok = grp.trace_indices >= 0
        dof = np.where(ok, grp.trace_indices, 0)
        edge = np.argmax(dof_edge[dof][:, :, None]      # each dof's local edge
                         == grp.batch.edge_ids[:, None, :], axis=2)
        # all rows of an edge hold the same columns: look their places up
        # once per local edge, then offset them to every row
        row, col = np.broadcast_arrays(edge_row[grp.batch.edge_ids][..., None],
                                       dof[:, None])
        col = ids[row.ravel(), col.ravel()].reshape(row.shape) - S.indptr[row]
        pos = pos.reshape(grp.a22.shape)
        np.add(col[np.arange(len(dof))[:, None], edge],
               S.indptr[dof][..., None], out=pos)
        pos[~(ok[:, :, None] & ok[:, None, :])] = S.nnz
    for arr in (S.indptr, S.indices, position):
        arr.setflags(write=False)
    return {"indptr": S.indptr, "indices": S.indices, "position": position}


def _pattern(bs: BlockSystem) -> dict:
    """The CSR pattern of ``bs``'s condensed matrix, kept on the mesh per
    trace layout: ``indptr``, ``indices`` and, for every entry of every
    group's (ne, ntl, ntl) block in turn, its ``position`` in ``S.data``
    (``nnz`` for eliminated dofs), int32 while they fit.  It expands the
    mesh's edge adjacency, kept beside it, without a global sort.  Two
    elements share at most one edge, so no entry sums more than two local
    entries, and ``S`` is bitwise the COO-to-CSR sum of the blocks."""
    mesh = bs.dof.mesh
    kept = vars(mesh).setdefault("_trace_patterns", {})
    key = tuple((f.per_edge, f.dirichlet)
                for f in bs.dof.trace_fields.values())
    if key not in kept:
        if "edges" not in kept:
            kept["edges"] = _edge_adjacency(bs.groups, mesh.num_edges)
        kept[key] = _build_pattern(kept["edges"], bs)
    return kept[key]


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
    and ``rhs`` the local ``b2 - A12^T A11^{-1} b1``.  The Poisson
    stages share an operator kept on the mesh: its ``Y_A`` and ``S`` are
    built on first use, and every condense solves ``A11^{-1} b1`` alone.
    Stage two gets both from one stacked solve ``A11^{-1} [A12 | b1]``.
    """
    pattern, op = _pattern(bs), bs._operator
    schur = np.empty(len(pattern["position"]))  # the local Schur blocks
    blocks = [b.reshape(grp.a22.shape) for grp, b in zip(bs.groups, np.split(
        schur, np.cumsum([grp.a22.size for grp in bs.groups])[:-1]))]
    if op and "S" not in op:
        op["Y_A"] = [_local_solve(grp, grp.a12) for grp in bs.groups]
        for grp, y_a, out in zip(bs.groups, op["Y_A"], blocks):
            np.subtract(grp.a22, grp.a12.transpose(0, 2, 1) @ y_a, out=out)
        op["S"] = _scatter(pattern, schur)
        for arr in (*op["Y_A"], op["S"].data):
            arr.setflags(write=False)
    rhs = np.zeros(bs.n_trace)
    local = []
    for i, grp in enumerate(bs.groups):
        if op:
            y_a, y_b = op["Y_A"][i], _local_solve(grp, grp.b1[..., None])[..., 0]
            z_b = np.einsum("eij,ei->ej", grp.a12, y_b)
        else:
            y = _local_solve(
                grp, np.concatenate([grp.a12, grp.b1[..., None]], axis=-1))
            # A12^T [Y_A | Y_b]: the Schur block and, in the last column, the load
            z = grp.a12.transpose(0, 2, 1) @ y
            np.subtract(grp.a22, z[..., :-1], out=blocks[i])
            y_a, y_b, z_b = y[..., :-1], y[..., -1], z[..., -1].copy()
            del z  # freed before the scatter
        _scatter_vector(rhs, grp.trace_indices, grp.b2 - z_b)
        local.append((y_a, y_b))

    S = op["S"] if op else _scatter(pattern, schur)
    return CondensedSystem(bs, S, rhs, local, bs.kernel_hint, pattern)


def back_substitute(cond: CondensedSystem, x2: np.ndarray) -> np.ndarray:
    """Interior solution (num_elements, n1) from the trace solution."""
    dof = cond.system.dof
    x1 = np.zeros((dof.mesh.num_elements, dof.n_interior_per_element))
    for grp, (y_a, y_b) in zip(cond.system.groups, cond.local):
        x2loc = np.where(grp.trace_indices >= 0,
                         x2[np.clip(grp.trace_indices, 0, None)], 0.0)
        x1[grp.batch.ids] = y_b - np.einsum("eij,ej->ei", y_a, x2loc)
    return x1


def full_residual(bs: BlockSystem, x1: np.ndarray, x2: np.ndarray) -> float:
    """Relative residual of the uncondensed block system."""
    r2, b2 = np.zeros(bs.n_trace), np.zeros(bs.n_trace)
    rnorm2 = bnorm2 = 0.0
    for grp in bs.groups:
        x1g = x1[grp.batch.ids]
        x2loc = np.where(grp.trace_indices >= 0,
                         x2[np.clip(grp.trace_indices, 0, None)], 0.0)
        r1 = (np.einsum("eij,ej->ei", grp.a11, x1g)
              + np.einsum("eij,ej->ei", grp.a12, x2loc) - grp.b1)
        rnorm2 += float((r1 ** 2).sum())
        bnorm2 += float((grp.b1 ** 2).sum())
        _scatter_vector(r2, grp.trace_indices,
                        np.einsum("eij,ei->ej", grp.a12, x1g)
                        + np.einsum("eij,ej->ei", grp.a22, x2loc) - grp.b2)
        _scatter_vector(b2, grp.trace_indices, grp.b2)
    rnorm2 += float((r2 ** 2).sum())
    bnorm2 += float((b2 ** 2).sum())
    return np.sqrt(rnorm2) / max(np.sqrt(bnorm2), 1e-300)


# ----------------------------------------------------------------------
# preconditioned CG with optional deflation


def _pcg(apply_op: Callable, b: np.ndarray, precond: Callable,
         tol: float, max_iter: int, project: Callable | None = None):
    bnorm = float(np.linalg.norm(b))  # residuals stay relative to the raw load
    if project is not None:
        b = project(b)
    if not b.any():  # zero, or entirely in the deflated kernel: x = 0 is exact
        return np.zeros_like(b), 0, [0.0], "zero_rhs", [0.0]
    x = np.zeros_like(b)
    r = b.copy()
    z = precond(r)
    if project is not None:
        z = project(z)
    p = z.copy()
    rz = float(r @ z)
    history = [float(np.linalg.norm(r)) / bnorm]
    rz_history = [np.sqrt(abs(rz))]
    iterations = 0
    stop_reason = "max_iter"
    for it in range(1, max_iter + 1):
        Ap = apply_op(p)
        if project is not None:
            Ap = project(Ap)
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            stop_reason = "indefinite"  # return the best iterate
            break
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        if project is not None:
            r = project(r)
        res = float(np.linalg.norm(r)) / bnorm
        history.append(res)
        iterations = it
        z = precond(r)
        if project is not None:
            z = project(z)
        rz_new = float(r @ z)
        rz_history.append(np.sqrt(abs(rz_new)))
        if res <= tol:
            stop_reason = "converged"
            break
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, iterations, history, stop_reason, rz_history


class _Factor(NamedTuple):
    solve: Callable
    fill: int
    seconds: float


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

    def solve(b: np.ndarray) -> np.ndarray:
        x = np.empty_like(b)
        x[perm] = lu.solve(b[perm])
        return x
    return _Factor(solve, lu.nnz, time.perf_counter() - t0)


def _deflation_projector(z: np.ndarray) -> Callable:
    z = z / np.linalg.norm(z)
    return lambda v: v - (z @ v) * z


def _kernel_is_valid(S: sp.csr_matrix, kernel: np.ndarray) -> bool:
    snorm = spla.norm(S)
    return float(np.linalg.norm(S @ kernel)) <= 1e-8 * snorm * np.linalg.norm(kernel)


def solve_spd(cond: CondensedSystem, config: SolverConfig = SolverConfig()):
    """CG on the condensed SPD trace system, preconditioned by its own
    factorization; the factor is kept on a shared operator for every
    later solve on it to reuse; returns (x2, report)."""
    t0 = time.perf_counter()
    S, dof, op = cond.S, cond.system.dof, cond.system._operator
    fresh = "factor" not in op
    perm = dof.trace_order("u_hat")
    factor = op.get("factor") or _factorize(
        S[perm][:, perm].tocsc(), perm, cond.system.stage, "S")
    if op:
        op["factor"] = factor
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
    the index map that ``take`` gives on S's entry numbers; kept under
    ``name`` beside S's pattern, so ``take`` runs once per pattern."""
    S, kept = cond.S, cond.pattern
    if name not in kept:
        ids = kept[name] = take(sp.csr_matrix((np.arange(
            S.nnz, dtype=S.indices.dtype), S.indices, S.indptr), S.shape))
        for arr in (ids.data, ids.indices, ids.indptr):
            arr.setflags(write=False)
    ids = kept[name]
    return type(ids)((S.data[ids.data], ids.indices, ids.indptr), ids.shape)


def solve_saddle_trace(cond: CondensedSystem,
                       config: SolverConfig = SolverConfig()):
    """Nested Schur solve of the saddle trace system.

    Outer CG runs on the pressure-trace operator
    ``B12^T B11^{-1} B12 - B22c`` (positive semidefinite with the
    constant mode as kernel); the rotation-trace block is inverted per
    application.  Returns (theta_hat, p_hat, report); the reported
    iteration count is the number of outer CG iterations.
    """
    t0 = time.perf_counter()
    dof, stage = cond.system.dof, cond.system.stage
    m = dof.trace_fields["p_hat"].offset
    c1, c2 = cond.rhs[:m], cond.rhs[m:]

    # B11 goes to SuperLU in nested-dissection order, without an
    # assembly-order copy; the other blocks keep the assembly order
    perm = dof.trace_order("theta_hat")
    inner = _factorize(_block(cond, "B11", lambda A: A[:m, :m][perm][
        :, perm].tocsc()), perm, stage, "B11")
    B12 = _block(cond, "B12", lambda A: A[:m, m:])
    B21 = _block(cond, "B21", lambda A: A[:m, m:].T.tocsr())
    B22c = _block(cond, "B22c", lambda A: A[m:, m:])

    def apply_outer(v):
        return B21 @ inner.solve(B12 @ v) - B22c @ v

    rhs = B21 @ inner.solve(c1) - c2

    project = None
    deflated = False
    kernel_rejected = False
    if cond.kernel is not None:
        if _kernel_is_valid(cond.S, cond.kernel):
            project = _deflation_projector(cond.kernel[m:])
            deflated = True
        else:
            kernel_rejected = True

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
    if project is not None:
        probe = project(probe)
    coupled = float(probe @ (B21 @ inner.solve(B12 @ probe)))
    rho = max(coupled / float(probe @ (W @ probe)), 0.0)
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
