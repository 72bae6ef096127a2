"""Reference evaluations that only the tests use.

They trade speed for accuracy: exact rational arithmetic, or
``np.longdouble`` where a whole error norm has to be recomputed.
"""

from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from hdgplate import femspace as fs
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
