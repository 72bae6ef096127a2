"""Reference evaluations that only the tests use.

They trade speed for accuracy: exact rational arithmetic,
``np.longdouble`` where a whole error norm has to be recomputed, a
dense or sparse direct solve of a whole block system, or the condensed
matrix summed from COO triplets, as the solver did before it kept a
fixed pattern.
"""

from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hdgplate import femspace as fs
from hdgplate import solver as slv
from hdgplate import verification as vf


def eval_exact(poly, x, y) -> Fraction:
    """Round-off-free value of ``poly`` at a rational point."""
    dx = Fraction(x) - poly.origin[0]
    dy = Fraction(y) - poly.origin[1]
    return sum((v * dx ** a * dy ** b for (a, b), v in poly.coeffs.items()),
               Fraction(0))


def is_zero(poly) -> bool:
    """True when every coefficient vanishes, whatever the origin."""
    return not poly.coeffs


def to_longdouble(q) -> np.longdouble:
    """The rational ``q`` rounded to long double via 40 decimal digits."""
    q = Fraction(q)
    with localcontext() as ctx:
        ctx.prec = 40
        return np.longdouble(str(Decimal(q.numerator) / q.denominator))


def eval_longdouble(poly, x, y) -> np.ndarray:
    """``poly`` at float points, summed term by term in long double from
    its Fraction coefficients."""
    dx = np.asarray(x, np.longdouble) - to_longdouble(poly.origin[0])
    dy = np.asarray(y, np.longdouble) - to_longdouble(poly.origin[1])
    out = np.zeros(np.broadcast(dx, dy).shape, np.longdouble)
    for (a, b), v in poly.coeffs.items():
        out += to_longdouble(v) * dx ** a * dy ** b
    return out


def table_errors_longdouble(fields, exact, quad_degree=vf.ERROR_DEGREE):
    """:func:`verification.table_errors` recomputed in long double.

    Same discrete fields and the same rule points and weights; the exact
    fields come from their Fraction coefficients and the discrete ones
    from their scaled monomials, all in long double.
    """
    pairs = ((fields.theta, exact.theta), (fields.gamma, exact.gamma),
             (fields.sigma, exact.sigma), (fields.omega, exact.omega))
    acc = [np.longdouble(0)] * 4
    for batch in fs.element_batches(fields.mesh):
        pts, w = batch.volume_rule(quad_degree)
        pts, w = pts.astype(np.longdouble), w.astype(np.longdouble)
        xi = (pts[..., 0] - batch.centroid[:, None, 0]) / batch.h[:, None]
        eta = (pts[..., 1] - batch.centroid[:, None, 1]) / batch.h[:, None]
        for slot, (fld, ex) in enumerate(pairs):
            exps = fs.monomial_exponents(fld.degree)
            basis = np.stack([xi ** a * eta ** b for a, b in exps], axis=1)
            coeffs = fld.coeffs[batch.ids].reshape(-1, fld.ncomp, fld.nscalar)
            vals = np.einsum("enq,ecn->ecq", basis,
                             coeffs.astype(np.longdouble))
            weights = vf._COMPONENT_WEIGHTS[fld.rank]
            for c, (poly, wc) in enumerate(zip(ex.components, weights)):
                diff = eval_longdouble(poly, pts[..., 0], pts[..., 1]) \
                    - vals[:, c, :]
                acc[slot] += wc * np.sum(diff ** 2 * w)
    errs = [np.sqrt(a) for a in acc]
    errs[1] *= to_longdouble(fields.material.t)
    return errs


def monolithic_dense(bs) -> tuple[np.ndarray, np.ndarray]:
    """The uncondensed symmetric system (interior + trace) of the
    ``BlockSystem`` ``bs`` as dense arrays."""
    n1 = bs.dof.n_interior_per_element
    ni, nt = bs.n_interior, bs.n_trace
    A = np.zeros((ni + nt, ni + nt))
    b = np.zeros(ni + nt)
    for g in bs.groups:
        for row in range(len(g.batch.ids)):
            i0 = g.batch.ids[row] * n1
            A[i0:i0 + n1, i0:i0 + n1] = g.a11[row]
            cols = g.trace_indices[row]
            keep = cols >= 0
            A[i0:i0 + n1, ni + cols[keep]] = g.a12[row][:, keep]
            A[ni + cols[keep], i0:i0 + n1] = g.a12[row][:, keep].T
            A[np.ix_(ni + cols[keep], ni + cols[keep])] += \
                g.a22[row][np.ix_(keep, keep)]
            b[i0:i0 + n1] = g.b1[row]
            b[ni + cols[keep]] += g.b2[row][keep]
    return A, b


def solve_saddle_direct(cond) -> np.ndarray:
    """Sparse direct solve of a whole condensed saddle system.

    The one-dimensional constant-pressure kernel is removed by bordering
    the matrix with the kernel vector.
    """
    S, b = cond.S, cond.rhs
    if cond.kernel is not None and slv._kernel_is_valid(S, cond.kernel):
        z = sp.csr_matrix(cond.kernel.reshape(-1, 1))
        A = sp.bmat([[S, z], [z.T, None]], format="csc")
        return spla.splu(A).solve(np.concatenate([b, [0.0]]))[:-1]
    return spla.splu(S.tocsc()).solve(b)


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
    S = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows),
                                              np.concatenate(cols))),
                      shape=(n, n)).tocsr()
    S.eliminate_zeros()
    return S


def condensed_matrix(bs) -> sp.csr_matrix:
    """``solver.condense(bs).S`` without its exact zeros, as the COO-to-CSR
    sum of every element's ``A22 - A12^T A11^{-1} A12``, each computed
    with the same operations as in ``condense``."""
    blocks = []
    for grp in bs.groups:
        if bs._operator:    # the Poisson stages: A11^{-1} A12 alone
            local = grp.a22 - grp.a12.transpose(0, 2, 1) @ np.linalg.solve(
                grp.a11, grp.a12)
        else:               # stage two: A11^{-1} [A12 | b1]
            y = np.linalg.solve(grp.a11, np.concatenate(
                [grp.a12, grp.b1[..., None]], axis=-1))
            local = grp.a22 - (grp.a12.transpose(0, 2, 1) @ y)[..., :-1]
        blocks.append(_coo_block(grp.trace_indices, local))
    return _trace_matrix(blocks, bs.n_trace)


def factor_inputs(bs) -> list:
    """The matrices SuperLU factors for ``bs``: ``S``, or ``B11`` and the
    surrogate ``rho W - B22c``, each sliced from ``condensed_matrix(bs)``
    in assembly order and then put in its trace order as
    ``A[perm][:, perm].tocsc()``; ``rho`` comes from the same probe as in
    ``solver.solve_saddle_trace``."""
    S, dof = condensed_matrix(bs), bs.dof
    if bs.stage != "step2":
        perm = dof.trace_order("u_hat")
        return [S[perm][:, perm].tocsc()]
    m = dof.trace_fields["p_hat"].offset
    perm, order = dof.trace_order("theta_hat"), dof.trace_order("p_hat") - m
    B12, B22c = S[:m, m:].tocsr(), S[m:, m:].tocsr()
    B11 = S[:m, :m][perm][:, perm].tocsc()
    lu = spla.splu(B11, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})
    x = np.empty(m)
    W = slv._phat_edge_mass(dof)
    probe = np.empty(len(order))
    probe[order] = np.random.default_rng(0).standard_normal(len(order))
    if bs.kernel_hint is not None and slv._kernel_is_valid(S, bs.kernel_hint):
        probe = slv._deflation_projector(bs.kernel_hint[m:])(probe)
    x[perm] = lu.solve((B12 @ probe)[perm])
    rho = max(float(probe @ (B12.T.tocsr() @ x)) / float(probe @ (W @ probe)),
              0.0)
    return [B11, (rho * W - B22c)[order][:, order].tocsc()]
