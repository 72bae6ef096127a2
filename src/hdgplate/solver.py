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
    # L.nnz + U.nnz and wall time, summed over the factorizations it made
    factor_fill: int = 0
    factor_time: float = 0.0

    @property
    def converged(self) -> bool:
        return self.stop_reason in ("converged", "zero_rhs")


@dataclass
class CondensedSystem:
    """Schur complement trace system; ``local`` keeps, per element group,
    ``(Y_A, Y_b) = (A11^{-1} A12, A11^{-1} b1)`` for back-substitution."""

    system: BlockSystem
    S: sp.csr_matrix
    rhs: np.ndarray
    local: list
    kernel: np.ndarray | None


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


def _coo_block(idx: np.ndarray, local: np.ndarray):
    """(rows, cols, values) of a batched local trace block, without the
    entries of eliminated (-1) dofs."""
    rows = np.broadcast_to(idx[:, :, None], local.shape)
    cols = np.broadcast_to(idx[:, None, :], local.shape)
    keep = (rows >= 0) & (cols >= 0)
    return rows[keep], cols[keep], local[keep]


def _trace_matrix(blocks, n: int) -> sp.csr_matrix:
    """(n, n) CSR sum of the ``_coo_block`` triplets, without exact zeros."""
    rows, cols, vals = zip(*blocks)
    # concatenated inline, so that the int64 index arrays are freed as
    # soon as coo_matrix has made its int32 copies
    S = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows),
                                              np.concatenate(cols))),
                      shape=(n, n)).tocsr()
    S.eliminate_zeros()
    return S


def _scatter_vector(vec: np.ndarray, idx: np.ndarray, local: np.ndarray):
    """Add a batched local trace vector into ``vec``, dropping -1 dofs."""
    keep = idx >= 0
    np.add.at(vec, idx[keep], local[keep])


def condense(bs: BlockSystem) -> CondensedSystem:
    """Eliminate interior unknowns element-by-element (never globally).

    This is the one place where trace blocks become sparse: ``S`` sums
    the local ``A22 - A12^T A11^{-1} A12`` and ``rhs`` the local
    ``b2 - A12^T A11^{-1} b1``.  The Poisson stages share an operator
    kept on the mesh: its ``Y_A`` and ``S`` are built on first use, and
    every condense solves ``A11^{-1} b1`` alone.  Stage two gets both
    from one stacked solve ``A11^{-1} [A12 | b1]``.
    """
    op = bs._operator
    if op and "S" not in op:
        op["Y_A"] = [_local_solve(grp, grp.a12) for grp in bs.groups]
        op["S"] = _trace_matrix(
            [_coo_block(grp.trace_indices,
                        grp.a22 - grp.a12.transpose(0, 2, 1) @ y_a)
             for grp, y_a in zip(bs.groups, op["Y_A"])], bs.n_trace)
        for arr in (*op["Y_A"], op["S"].data, op["S"].indices, op["S"].indptr):
            arr.setflags(write=False)
    rhs = np.zeros(bs.n_trace)
    blocks, local = [], []
    for i, grp in enumerate(bs.groups):
        if op:
            y_a, y_b = op["Y_A"][i], _local_solve(grp, grp.b1[..., None])[..., 0]
            z_b = np.einsum("eij,ei->ej", grp.a12, y_b)
        else:
            y = _local_solve(
                grp, np.concatenate([grp.a12, grp.b1[..., None]], axis=-1))
            # A12^T [Y_A | Y_b]: the Schur block and, in the last column, the load
            z = grp.a12.transpose(0, 2, 1) @ y
            np.subtract(grp.a22, z[..., :-1], out=z[..., :-1])
            blocks.append(_coo_block(grp.trace_indices, z[..., :-1]))
            y_a, y_b, z_b = y[..., :-1], y[..., -1], z[..., -1]
        _scatter_vector(rhs, grp.trace_indices, grp.b2 - z_b)
        local.append((y_a, y_b))

    S = op["S"] if op else _trace_matrix(blocks, bs.n_trace)
    return CondensedSystem(bs, S, rhs, local, bs.kernel_hint)


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


def _factorize(A: sp.spmatrix, perm: np.ndarray, stage: str = "",
               block: str = "") -> _Factor:
    """Sparse LU of the SPD block ``A`` in the symmetric order ``perm``.

    SuperLU factors ``A[perm][:, perm]`` in that column order with
    diagonal pivots only, as a Cholesky factorization would; ``solve``
    permutes in and out, so callers keep ``A``'s own order.  A zero
    pivot raises :class:`SingularTraceBlockError` naming ``stage`` and
    ``block``.
    """
    t0 = time.perf_counter()
    try:
        lu = spla.splu(A[perm][:, perm].tocsc(), permc_spec="NATURAL",
                       diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as err:  # SuperLU: "Factor is exactly singular"
        raise SingularTraceBlockError(stage, block) from err

    def solve(b: np.ndarray) -> np.ndarray:
        x = np.empty_like(b)
        x[perm] = lu.solve(b[perm])
        return x
    return _Factor(solve, lu.L.nnz + lu.U.nnz, time.perf_counter() - t0)


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
    factor = op.get("factor") or _factorize(
        S, dof.trace_order("u_hat"), cond.system.stage, "S")
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


def _saddle_split(cond: CondensedSystem):
    m, S = cond.system.dof.trace_fields["p_hat"].offset, cond.S
    return m, S[:m, :m], S[:m, m:].tocsr(), S[m:, m:].tocsr()


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
    m, B11, B12, B22c = _saddle_split(cond)
    c1, c2 = cond.rhs[:m], cond.rhs[m:]
    dof, stage = cond.system.dof, cond.system.stage

    B21 = B12.T.tocsr()
    inner = _factorize(B11, dof.trace_order("theta_hat"), stage, "B11")

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
    surrogate = _factorize(rho * W - B22c, dof.trace_order("p_hat") - m,
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
