"""Reference evaluations that only the tests use.

They trade speed for accuracy: exact rational arithmetic,
``np.longdouble`` where a whole error norm has to be recomputed, or a
dense or sparse direct solve of a whole block system.
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
