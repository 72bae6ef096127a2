"""Static condensation and iterative solution of the trace systems.

Condensation eliminates the element-diagonal interior block, producing a
sparse system in the edge unknowns only, and back-substitution does it
again, by one local solver: the fields entering only through L2 masses
(the Poisson flux, stage two's sigma and R) go first, then the rest.  In
the Poisson-type stages the condensed matrix is SPD and is solved by CG
preconditioned with its own factorization.  For the saddle stage the
condensed matrix keeps a two-by-two structure in (rotation trace,
pressure trace); an outer CG, preconditioned with a factored surrogate,
runs on the pressure Schur complement with the rotation-trace block
inverted by a sparse factorization and the constant pressure mode
deflated.

Every trace factorization is a no-pivot LU of a symmetric positive
definite block in the order ``assembly.StageDofMap`` numbers the trace
DOFs, the mesh's nested-dissection edge order.  No factor outlives the
solve that made it: stage three factors stage one's ``S`` again, so
stage one's factor is gone before stage two factors ``B11``.
"""

from __future__ import annotations

import ctypes
import math
import numbers
import resource
import time
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import BlockSystem, _padded

__all__ = [
    "SolverConfig",
    "SolveReport",
    "CondensedSystem",
    "SaddleBlocks",
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
    """CG settings: the relative residual tolerance and the iteration
    budget of every trace solve (see :func:`solve_saddle_trace` for the
    saddle stage's preconditioner)."""

    tol: float = 1e-10
    max_iter: int = 20000

    def __post_init__(self):
        if isinstance(self.tol, bool) or not isinstance(self.tol, numbers.Real):
            raise ValueError(f"tol={self.tol!r} must be a real number")
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        if (isinstance(self.max_iter, bool)
                or not isinstance(self.max_iter, numbers.Integral)):
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
    # the process's peak resident set when the stage's trace solve returned
    peak_rss_mb: float = 0.0
    # the stage's interior and trace dofs, and the entries its condensed
    # matrix stores (stage two's B11, B12 and B22c; B12^T is not stored)
    n_interior: int = 0
    n_trace: int = 0
    stored_nnz: int = 0
    # bytes still held when the trace solve returned, sums of nbytes: the
    # condensed blocks' entries (their indices and indptr are the mesh's kept
    # pattern; stage two's factored B11 is gone) and the mesh's kept arrays
    condensed_bytes: int = 0
    kept_bytes: int = 0

    @property
    def converged(self) -> bool:
        return self.stop_reason in ("converged", "zero_rhs")


class SaddleBlocks(NamedTuple):
    """Stage two's condensed ``[[B11, B12], [B12^T, B22c]]`` as the blocks
    the saddle solve reads, all CSC, each with its own data buffer and
    its indices and indptr from the mesh's kept pattern; ``nnz`` counts
    the whole matrix's, ``B12^T``'s included.  Once
    :func:`solve_saddle_trace` has factored ``B11``, its system holds
    ``B11=None`` and ``nnz`` raises."""

    B11: sp.csc_matrix | None
    B12: sp.csc_matrix
    B22c: sp.csc_matrix

    @property
    def nnz(self) -> int:
        if self.B11 is None:
            raise ValueError("B11 was released when the saddle solve "
                             "factored it; SolveReport.stored_nnz holds "
                             "the stored count")
        return self.B11.nnz + 2 * self.B12.nnz + self.B22c.nnz


@dataclass
class CondensedSystem:
    """Schur complement trace system: ``S`` in CSC, or stage two's
    :class:`SaddleBlocks`, each block its own buffer, whose ``B11`` is
    None once :func:`solve_saddle_trace` has factored it.  It keeps
    nothing per element: :func:`back_substitute` eliminates again."""

    system: BlockSystem
    S: sp.csc_matrix | SaddleBlocks
    rhs: np.ndarray


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


def _kron(c: np.ndarray, M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``(c ⊗ M) x`` per element for (a, b) ``c``, (ne, s, t) ``M`` and an
    (ne, b * t, ...) stack ``x``, never forming the product's matrix."""
    y = M[:, None] @ x.reshape(len(x), c.shape[1], M.shape[2], -1)
    return np.einsum("ij,ejs...->eis...", c, y).reshape(
        len(x), -1, *x.shape[2:])


# bytes of [A11 | A12 | b1] per pass over a group's elements, about 64
# elements at stage two, k=3: bounds the temporaries of the elimination,
# of its scatter and of the dense trace columns, and changes no bit of any
# result
_CHUNK_BYTES = 3 * 2 ** 20


def _chunks(grp) -> list:
    """Slices of ``grp``'s elements, each at most ``_CHUNK_BYTES`` of
    ``[A11 | A12 | b1]`` (one element at least)."""
    ne, n1 = grp.b1.shape
    step = max(1, _CHUNK_BYTES // (8 * n1 * (n1 + grp.b2.shape[1] + 1)))
    return [slice(i, i + step) for i in range(0, ne, step)]


def _eliminate(grp, e: slice, cols: np.ndarray) -> tuple:
    """The one local solver: eliminate the interior unknowns of ``grp``'s
    elements ``e`` against the columns ``cols`` (len, n1, c); return ``(w,
    rest, y)``.  The mass fields go first, through ``coef^{-1} ⊗ minv``:
    ``w = A_mm^{-1} [A_mp | cols_m]``, and ``rest = [A_pp | cols_p] - A_pm
    w`` is what that leaves, ``A_mp`` and ``A_pp`` the interior columns;
    ``y`` solves its block against its columns.  So ``A11^{-1} cols`` is
    ``w_c - w_A y`` on the mass fields, ``y`` on the rest."""
    n, ids, c = grp.n_a11, grp.batch.ids[e], grp.interior_columns(e)
    amp = c[:, :-n]
    w = _kron(np.linalg.inv(grp.coef), _mass_inverse(ids, grp.mass[e]),
              np.concatenate([amp, cols[:, :-n]], -1))
    rest = np.concatenate([c[:, -n:], cols[:, -n:]], -1)
    rest -= amp.mT @ w
    return w, rest, _local_solve(ids, rest[..., :n], rest[..., n:])


def _local_schur(grp, e: slice) -> tuple:
    """The local Schur blocks ``A22 - A12^T A11^{-1} A12`` and loads ``b2 -
    A12^T A11^{-1} b1`` of ``grp``'s elements ``e``."""
    n1, n = grp.b1.shape[1], grp.n_a11
    cols = np.concatenate([grp.trace_block(e, "a12"), grp.b1[e, :, None]], -1)
    w, rest, y = _eliminate(grp, e, cols)
    z = cols[:, :n1 - n, :-1].mT @ w[..., n:]
    z += rest[..., n:-1].mT @ y
    return grp.trace_block(e, "a22") - z[..., :-1], grp.b2[e] - z[..., -1]


# ----------------------------------------------------------------------
# the fixed pattern of the condensed trace matrix


def _build_pattern(bs: BlockSystem) -> dict:
    mesh, fields = bs.dof.mesh, list(bs.dof.trace_fields.values())
    per_edge = [f.per_edge for f in fields]
    # the element-edge incidence, its columns each field's kept edges in
    # the order the field numbers them
    E = sp.vstack([sp.csr_matrix((np.ones(e.size), e.ravel(), np.arange(
        0, e.size + 1, e.shape[1])), (len(e), mesh.num_edges))
        for e in (grp.batch.edge_ids for grp in bs.groups)]).tocsc()
    kept = [E[:, np.argsort(f.edge_rank)[np.sum(f.edge_rank < 0):]]
            for f in fields]
    # each field against itself and every later one: B12^T is not kept
    pairs = list(combinations_with_replacement(range(len(fields)), 2))
    graphs, blocks = [], []
    for i, j in pairs:
        p, q, G = per_edge[i], per_edge[j], sp.csc_array(kept[i].T @ kept[j])
        G.sort_indices()
        # G ⊗ ones((p, q)) in CSC, without sp.kron's ones: each column of
        # G q times (H), each row p rows
        H = G[:, np.repeat(np.arange(G.shape[1]), q)]
        itype = np.int32 if H.nnz * p < 2 ** 31 else np.int64
        rows = H.indices.astype(itype)[:, None] * p + np.arange(p, dtype=itype)
        blocks.append(((G.shape[0] * p, H.shape[1]), rows.ravel(),
                       H.indptr.astype(itype) * p))
        G.data = np.arange(G.nnz)  # its entry numbers
        graphs.append(G)
    dtype = np.int32 if max(len(b[1]) for b in blocks) < 2 ** 31 else np.int64
    starts = []
    for grp in bs.groups:
        # a local row block is one field's dofs on one local edge (they run
        # field by field, edge by local edge): in every column of a block
        # that keeps them, a run of places
        ne, nv = grp.batch.edge_ids.shape
        rank = [f.edge_rank[grp.batch.edge_ids] for f in fields]
        group = []
        for (i, j), G, (_, indices, indptr) in zip(pairs, graphs, blocks):
            start = np.full((ne, nv, nv, per_edge[j]), len(indices), dtype)
            if G.nnz:  # else a field that keeps no edge
                # every kept (row edge v, column edge w) of each element e:
                # the place of v's first row in w's columns is p_i times
                # v's place among w's neighbours
                e, v, w = np.nonzero((rank[i][:, :, None] >= 0)
                                     & (rank[j][:, None, :] >= 0))
                r, c = rank[i][e, v], rank[j][e, w]
                place = per_edge[i] * (G[r, c] - G.indptr[c])
                col = c[:, None] * per_edge[j] + np.arange(per_edge[j])
                start[e, v, w] = place[:, None] + indptr[col]
            group.append(start.reshape(ne, nv, -1))
        starts.append(group)
    return {"blocks": blocks, "starts": starts}


def _pattern(bs: BlockSystem) -> dict:
    """The CSC ``(shape, indices, indptr)`` of ``S``, or of stage two's
    :class:`SaddleBlocks`, kept on the mesh per trace layout with each
    group's ``starts``, one per block: for the block of fields i <= j, an
    (ne, nv, nv * per_edge_j) array, int32 while it fits, of the place in
    that block's data of each element's local row block (field i's dofs on
    one local edge) in each of its columns, so that the block's r-th row
    goes to its start plus r; the block's nnz for eliminated dofs.  The
    block is their kept edges' graph (edges that share an element) with
    one dense ``per_edge_i x per_edge_j`` block per entry.  Two elements
    share at most one edge, so each matrix is bitwise its slice of the COO
    sum."""
    layout = tuple((f.per_edge, f.dirichlet)
                   for f in bs.dof.trace_fields.values())
    return bs.dof.mesh.keep(("pattern", layout), lambda: _build_pattern(bs))


def condense(bs: BlockSystem) -> CondensedSystem:
    """Eliminate interior unknowns element-by-element (never globally).

    This is the one place where trace blocks become sparse: ``S`` sums
    the local ``A22 - A12^T A11^{-1} A12`` into the mesh's kept pattern
    (stage two's into its blocks), and ``rhs`` the local ``b2 - A12^T
    A11^{-1} b1``, a chunk of elements at a time as :func:`_eliminate`
    eliminates it.  Eliminated (-1) dofs add into one slot past the end,
    which is dropped, as :func:`assembly._padded` reads a 0 there.
    """
    pattern = _pattern(bs)
    per_edge = [f.per_edge for f in bs.dof.trace_fields.values()]
    pairs = list(combinations_with_replacement(range(len(per_edge)), 2))
    # each block its own buffer, so that stage two's B11 can go alone, with
    # one slot past its entries for the eliminated dofs
    data = [np.zeros(len(indices) + 1) for _, indices, _ in pattern["blocks"]]
    rhs = np.zeros(bs.n_trace + 1)
    for grp, starts in zip(bs.groups, pattern["starts"], strict=True):
        # a field's local dofs are one run: field by field, edge by edge
        cut = np.cumsum([0] + per_edge) * grp.batch.edge_ids.shape[1]
        for e in _chunks(grp):
            schur, load = _local_schur(grp, e)
            for d, start, (i, j) in zip(data, starts, pairs):
                # a local row's place: its row block's start plus its row
                pos = start[e, :, None] + np.arange(per_edge[i])[:, None]
                np.minimum(pos, len(d) - 1, out=pos)
                np.add.at(d, pos.ravel(), schur[
                    :, cut[i]:cut[i + 1], cut[j]:cut[j + 1]].ravel())
            np.add.at(rhs, grp.trace_indices[e], load)
    mats = []
    for d, (shape, indices, indptr) in zip(data, pattern["blocks"]):
        mats.append(sp.csc_matrix((d[:-1], indices, indptr), shape))
        mats[-1].data = d[:-1]  # scipy copies an empty block's view
    S = mats[0] if len(mats) == 1 else SaddleBlocks(*mats)
    return CondensedSystem(bs, S, rhs[:-1])


def back_substitute(cond: CondensedSystem, x2: np.ndarray) -> np.ndarray:
    """Interior solution (num_elements, n1) from the trace solution: every
    element's interior system solved again by :func:`_eliminate`, against
    the one column ``b1 - A12 x2``."""
    bs, x2 = cond.system, _padded(cond.system.n_trace, x2)
    x1 = np.zeros((bs.dof.mesh.num_elements, bs.dof.n_interior_per_element))
    for grp in bs.groups:
        n = grp.n_a11
        for e in _chunks(grp):
            v = grp.b1[e] - np.einsum("eij,ej->ei", grp.trace_block(e, "a12"),
                                      x2[grp.trace_indices[e]])
            w, _, y = _eliminate(grp, e, v[..., None])
            x1[grp.batch.ids[e]] = np.concatenate(
                [w[..., n:] - w[..., :n] @ y, y], 1)[..., 0]
    return x1


def full_residual(bs: BlockSystem, x1: np.ndarray, x2: np.ndarray) -> float:
    """Relative residual of the uncondensed block system."""
    shape = (bs.dof.mesh.num_elements, bs.dof.n_interior_per_element)
    if np.shape(x1) != shape:
        raise ValueError(f"x1: shape {np.shape(x1)}, expected {shape}")
    x2 = _padded(bs.n_trace, x2)
    # eliminated (-1) dofs add into a last slot, dropped from the norms
    r2, b2 = np.zeros(bs.n_trace + 1), np.zeros(bs.n_trace + 1)
    rnorm2 = bnorm2 = 0.0
    for grp in bs.groups:
        x1g, x2loc = x1[grp.batch.ids], x2[grp.trace_indices]
        r1, rt = np.empty_like(grp.b1), np.empty_like(grp.b2)
        nm = x1g.shape[1] - grp.n_a11
        xm, xp = x1g[:, :nm], x1g[:, nm:]
        for e in _chunks(grp):
            a12, c = grp.trace_block(e, "a12"), grp.interior_columns(e)
            r1[e] = (np.einsum("eij,ej->ei", a12, x2loc[e])
                     + np.einsum("eij,ej->ei", c, xp[e]))
            r1[e, nm:] += np.einsum("eij,ei->ej", c[:, :nm], xm[e])
            rt[e] = (np.einsum("eij,ei->ej", a12, x1g[e])
                     + np.einsum("eij,ej->ei", grp.trace_block(e, "a22"),
                                 x2loc[e]))
        r1 -= grp.b1
        r1[:, :nm] += _kron(grp.coef, grp.mass, xm)
        rnorm2 += float((r1 ** 2).sum())
        bnorm2 += float((grp.b1 ** 2).sum())
        np.add.at(r2, grp.trace_indices, rt - grp.b2)
        np.add.at(b2, grp.trace_indices, grp.b2)
    rnorm2 += float((r2[:-1] ** 2).sum())
    bnorm2 += float((b2[:-1] ** 2).sum())
    return np.sqrt(rnorm2) / max(np.sqrt(bnorm2), 1e-300)


# ----------------------------------------------------------------------
# preconditioned CG with optional deflation


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """``a @ b`` without BLAS, whose rounding follows its thread count."""
    return float(np.add.reduce(a * b))


def _pcg(apply_op: Callable, b: np.ndarray, precond: Callable,
         tol: float, max_iter: int, project: Callable = lambda v: v,
         **fields) -> tuple[np.ndarray, SolveReport]:
    """``(x, report)``; ``fields`` go to the report, whose ``wall_time``
    the caller sets."""
    bnorm = math.sqrt(_dot(b, b))  # residuals stay relative to the raw load
    b = project(b)
    if not b.any():  # zero, or entirely in the deflated kernel: x = 0 is exact
        return np.zeros_like(b), SolveReport(
            0, 0.0, 0.0, "zero_rhs", residual_history=[0.0],
            precond_residual_history=[0.0], **fields)
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
    return x, SolveReport(iterations, history[-1], 0.0, stop_reason,
                          residual_history=history,
                          precond_residual_history=rz_history, **fields)


def _peak_rss_mb() -> float:
    """The process's peak resident set so far (``ru_maxrss``), in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _find_malloc_trim() -> Callable[[], None]:
    """glibc's ``malloc_trim(0)``, which hands the freed heap back to the
    OS; a no-op where the C library has none (musl, macOS, Windows)."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return lambda: None
    trim.argtypes = [ctypes.c_size_t]
    return lambda: trim(0)


_trim_heap = _find_malloc_trim()


# the columns SuperLU's supernode-panel factorization updates at once; its
# working arrays grow with n x panel.  Peak above the final factor, then
# the factor's time (median of 5, two runs each), at panel 2 / 4 / 8 / 20
# (SuperLU's default) on each benchmark workload's largest B11, 2 vCPUs:
#   tri n=64 k=1, factor 51.6 MB: 4.6 / 6.1 / 9.0 / 17.9 MB, 0.155-0.200 /
#     0.163-0.164 / 0.164-0.167 / 0.169-0.179 s;
#   quad n=32 k=2, 20.0 MB: 1.2 / 1.6 / 2.2 / 4.4 MB, 0.057-0.060 s at each;
#   tri n=48 k=3, 111.8 MB: 5.1 / 6.8 / 10.1 / 20.1 MB, 0.428-0.437 /
#     0.404-0.413 / 0.407-0.441 / 0.428-0.431 s.
# lu.nnz is the same at every panel; only the factor's rounding moves
_PANEL_SIZE = 4


def _factorize(A: sp.csc_matrix, stage: str = "",
               block: str = "") -> tuple[spla.SuperLU, float]:
    """Sparse LU of an SPD block ``A`` and its wall time in seconds.

    SuperLU factors ``A`` in its own column order with diagonal pivots
    only, as a Cholesky factorization would; ``lu.nnz`` is its count of
    stored nonzeros (reading ``L`` or ``U`` would copy them).  A zero
    pivot raises :class:`SingularTraceBlockError` naming ``stage`` and
    ``block``.  The factor sets the solve's peak memory, so the heap that
    assembly and condensation freed goes back to the OS first, and the
    factor does not land on top of it, and SuperLU works in panels of
    ``_PANEL_SIZE`` columns.  A copy without exact zeros replaces ``A``,
    so ``A``'s entries go unless the caller holds them.
    """
    _trim_heap()
    t0 = time.perf_counter()
    if not A.data.all():  # the kept pattern's exact zeros stay out
        A = A.copy()
        A.eliminate_zeros()
    try:
        lu = spla.splu(A, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                       panel_size=_PANEL_SIZE, options={"SymmetricMode": True})
    except RuntimeError as err:  # SuperLU: "Factor is exactly singular"
        raise SingularTraceBlockError(stage, block) from err
    return lu, time.perf_counter() - t0


def _deflation_projector(z: np.ndarray) -> Callable:
    z = z / math.sqrt(_dot(z, z))
    return lambda v: v - _dot(z, v) * z


def _kernel_is_valid(S: SaddleBlocks, kp: np.ndarray) -> bool:
    """Whether the pressure-trace vector ``kp`` (zero rotation trace) is a
    null vector of ``S`` to 1e-8 of ``|S|_F``; every sum goes through
    :func:`_dot`, not BLAS."""
    Sz = np.concatenate([S.B12 @ kp, S.B22c @ kp])
    snorm2 = sum(c * _dot(B.data, B.data) for c, B in zip((1, 2, 1), S))
    return math.sqrt(_dot(Sz, Sz)) <= 1e-8 * math.sqrt(snorm2 * _dot(kp, kp))


def solve_spd(cond: CondensedSystem, config: SolverConfig = SolverConfig()):
    """CG on the condensed SPD trace system, preconditioned by its own
    factorization, which goes when the solve returns, so that no factor
    outlives its stage; returns (x2, report)."""
    t0 = time.perf_counter()
    S = cond.S
    lu, seconds = _factorize(S, cond.system.stage, "S")
    x, report = _pcg(lambda v: S @ v, cond.rhs, lu.solve, config.tol,
                     config.max_iter, factor_fill=lu.nnz, factor_time=seconds)
    report.wall_time = time.perf_counter() - t0
    return x, report


def _phat_edge_mass(dof) -> sp.csc_matrix:
    """Edge mass matrix of the pressure trace space (analytic, per edge):
    the edge length times the Gram matrix of 1, s, ..., s^(k-1) on [0, 1]."""
    tf = dof.trace_fields["p_hat"]
    k, length = tf.per_edge, np.empty(dof.mesh.num_edges)
    length[tf.edge_rank] = dof.mesh.edge_length
    H = 1.0 / (np.add.outer(np.arange(k), np.arange(k)) + 1.0)
    return sp.kron(sp.diags(length), H, format="csc")


def _release_b11(cond: CondensedSystem) -> sp.csc_matrix:
    """``cond.S.B11``, which ``cond`` then no longer holds: passed straight
    to a call, the callee holds the only reference to it."""
    B11, cond.S = cond.S.B11, cond.S._replace(B11=None)
    return B11


def solve_saddle_trace(cond: CondensedSystem,
                       config: SolverConfig = SolverConfig()):
    """Nested Schur solve of the saddle trace system.

    Outer CG runs on the pressure-trace operator
    ``B12^T B11^{-1} B12 - B22c`` (positive semidefinite with the
    constant pressure trace as kernel, which is deflated once checked to
    be a null vector of ``cond.S``); the rotation-trace block is inverted
    per application, factored from ``cond.S.B11`` as it comes.  That
    factor is the largest allocation of the solve, so ``B11``'s entries
    go with its factorization: ``cond.S.B11`` is None from then on.
    Returns (x2, report) like :func:`solve_spd`, ``x2`` the rotation
    trace then the pressure trace, with the outer CG's iteration count.
    """
    t0 = time.perf_counter()
    dof, stage = cond.system.dof, cond.system.stage
    tf_p = dof.trace_fields["p_hat"]
    m = tf_p.offset
    c1, c2 = cond.rhs[:m], cond.rhs[m:]
    B12, B22c = cond.S[1:]
    # the pressure is fixed only up to a constant: the constant trace
    kernel = np.zeros(B12.shape[1])
    kernel[tf_p.dofs(np.arange(dof.mesh.num_edges))[:, 0] - m] = 1.0
    kernel /= np.linalg.norm(kernel)
    deflated = _kernel_is_valid(cond.S, kernel)
    project = _deflation_projector(kernel) if deflated else lambda v: v
    inner, inner_s = _factorize(_release_b11(cond), stage, "B11")

    def apply_outer(v):
        return B12.T @ inner.solve(B12 @ v) - B22c @ v

    rhs = B12.T @ inner.solve(c1) - c2

    # Surrogate -B22c + rho * W: the pressure-trace block carries the
    # thickness-scaled rotational stiffness of the operator, and the edge
    # mass W (scale rho fitted by one probe) covers the mass-like part
    # contributed through the rotation-trace coupling.  The combination
    # stays spectrally equivalent uniformly in h and t.  The probe is drawn
    # in DOF order, which follows ``Mesh.edge_order``, so the element and
    # edge numbering do not move rho; for k >= 2 each edge's s still runs
    # by vertex id.  With no rotation trace (every edge clamped) there is
    # no coupling to fit, and -B22c alone is singular on the constant
    # pressure trace, so W comes in at -B22c's mean diagonal scale.
    W = _phat_edge_mass(dof)
    if B12.shape[0]:
        probe = project(np.random.default_rng(0).standard_normal(B12.shape[1]))
        coupled = _dot(probe, B12.T @ inner.solve(B12 @ probe))
        rho = max(coupled / _dot(probe, W @ probe), 0.0)
    else:
        rho = -B22c.diagonal().sum() / W.diagonal().sum()
    surrogate, surrogate_s = _factorize(rho * W - B22c, stage, "surrogate")

    p_hat, report = _pcg(apply_outer, rhs, surrogate.solve, config.tol,
                         config.max_iter, project, deflated=deflated,
                         kernel_rejected=not deflated,
                         factor_fill=inner.nnz + surrogate.nnz,
                         factor_time=inner_s + surrogate_s)
    x2 = np.concatenate([inner.solve(c1 - B12 @ p_hat), p_hat])
    report.wall_time = time.perf_counter() - t0
    return x2, report


def _blocks(S: sp.csc_matrix | SaddleBlocks) -> tuple:
    """The condensed blocks ``S`` still holds: ``S``, or stage two's."""
    return tuple(B for B in (S if isinstance(S, SaddleBlocks) else (S,))
                 if B is not None)


def solve_stage(bs: BlockSystem, config: SolverConfig = SolverConfig()):
    """Condense, solve the trace system and back-substitute one stage."""
    cond = condense(bs)
    stored_nnz = sum(B.nnz for B in _blocks(cond.S))  # before B11 goes
    solve = solve_saddle_trace if bs.stage == "step2" else solve_spd
    x2, report = solve(cond, config)
    report.peak_rss_mb = _peak_rss_mb()
    report.n_interior, report.n_trace = bs.n_interior, bs.n_trace
    report.stored_nnz = stored_nnz
    report.condensed_bytes = sum(B.data.nbytes for B in _blocks(cond.S))
    report.kept_bytes = bs.dof.mesh.kept_nbytes
    return back_substitute(cond, x2), x2, report
