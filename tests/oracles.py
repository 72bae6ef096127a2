"""Reference evaluations that only the tests use.

Two are norms that no solve needs: the L2 error of a single field and
the energy norm of a stage-two state.  The others trade speed for
accuracy: exact rational arithmetic, ``np.longdouble`` where a whole
error norm has to be recomputed, a dense or sparse direct solve of a
whole block system, the dense
interior block that every stage keeps in its field blocks, the dense
trace columns that every stage keeps as terms, or the condensed matrix
summed from COO triplets, as the solver did before it kept a fixed
pattern; others rebuild a kept structure as it was before its block
form: the dense interior block ``a11`` and one pattern place per local
entry.  Some keep a kernel's arithmetic as it was written
before a rewrite that must not change a bit of its results.
"""

from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hdgplate import assembly as asm
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


def volume_rule(batch, degree):
    """``ElementBatch.volume_rule(degree)`` as it was written on (ne, nq, 2)
    arrays, before each coordinate was computed on its own."""
    ref, w0 = fs.triangle_reference_rule(degree)
    if batch.nv == 3:
        p0 = batch.verts[:, 0, :][:, None, :]
        a = batch.verts[:, 1, :][:, None, :] - p0
        b = batch.verts[:, 2, :][:, None, :] - p0
        jac = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
        return (p0 + ref[None, :, :1] * a + ref[None, :, 1:] * b,
                w0[None, :] * jac)
    if batch.nv == 4:
        x, w = fs.gauss_legendre_01((degree + 3) // 2)
        u = np.repeat(x, len(x))[None, :, None]
        v = np.tile(x, len(x))[None, :, None]
        p0, p1, p2, p3 = (batch.verts[:, i, None, :] for i in range(4))
        du = (1.0 - v) * (p1 - p0) + v * (p2 - p3)
        dv = (1.0 - u) * (p3 - p0) + u * (p2 - p1)
        jac = du[..., 0] * dv[..., 1] - du[..., 1] * dv[..., 0]
        return p0 + u * (p1 - p0) + v * dv, np.outer(w, w).ravel() * jac
    pts, wts = [], []
    c = batch.centroid[:, None, :]
    for i in range(batch.nv):
        a = batch.verts[:, i, :][:, None, :] - c
        b = batch.verts[:, (i + 1) % batch.nv, :][:, None, :] - c
        jac = (a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0])
        pts.append(c + ref[None, :, :1] * a + ref[None, :, 1:] * b)
        wts.append(w0[None, :] * jac)
    return np.concatenate(pts, axis=1), np.concatenate(wts, axis=1)


def edge_rule(batch, local_edge, degree):
    """``ElementBatch.edge_rule`` as it was written on (ne, nq, 2) arrays."""
    x, w = fs.gauss_legendre_01(max(1, (degree + 2) // 2))
    p0 = batch.verts[:, local_edge, :]
    p1 = batch.verts[:, (local_edge + 1) % batch.nv, :]
    pts = p0[:, None, :] + x[None, :, None] * (p1 - p0)[:, None, :]
    wts = w[None, :] * batch.edge_len[:, local_edge][:, None]
    sign = batch.edge_signs[:, local_edge][:, None]
    return pts, wts, np.where(sign > 0, x[None, :], 1.0 - x[None, :])


def evaluate_gathered(polys, x, y) -> np.ndarray:
    """``verification.PolyField(polys)(x, y)`` written out per call: one
    coefficient row per polynomial and parity class (a mod 2, b mod 2),
    built from the Fractions, over the monomials u^i v^j, u = xi^2 and
    v = eta^2, gathered from the powers of v multiplied by u i times; each
    row odd in xi scaled by xi, then each row odd in eta by eta, and each
    polynomial's rows summed.  Rows run by class in the kernel's order."""
    ox, oy = (float(v) for v in polys[0].origin)
    order = [(0, 0), (1, 0), (1, 1), (0, 1)]
    rows = sorted({((a % 2, b % 2), c) for c, p in enumerate(polys)
                   for a, b in p.coeffs},
                  key=lambda row: (order.index(row[0]), row[1]))
    exps = sorted({(a // 2, b // 2) for p in polys for a, b in p.coeffs}
                  or {(0, 0)})
    ei, ej = np.array(exps).T
    coef = np.zeros((len(rows), len(exps)))
    for c, p in enumerate(polys):
        for (a, b), v in p.coeffs.items():
            coef[rows.index(((a % 2, b % 2), c)),
                 exps.index((a // 2, b // 2))] = float(v)
    total = np.zeros((len(polys), len(rows)))
    for r, (_, c) in enumerate(rows):
        total[c, r] = 1.0
    out = np.empty((len(polys), x.size))
    xf, yf = x.ravel() - ox, y.ravel() - oy
    for start in range(0, x.size, vf._CHUNK):
        chunk = slice(start, start + vf._CHUNK)
        xi, eta = xf[chunk], yf[chunk]
        powers = [fs.power_table(eta * eta, ej.max())]
        for _ in range(ei.max()):
            powers.append(powers[-1] * (xi * xi))
        vals = coef @ np.array(powers)[ei, ej]
        for r, ((odd_x, odd_y), _) in enumerate(rows):
            if odd_x:
                vals[r] *= xi
            if odd_y:
                vals[r] *= eta
        out[:, chunk] = total @ vals
    return out.reshape((len(polys),) + x.shape)


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
            weights = asm._COMPONENT_WEIGHTS[fld.rank]
            for c, (poly, wc) in enumerate(zip(ex.components, weights)):
                diff = eval_longdouble(poly, pts[..., 0], pts[..., 1]) \
                    - vals[:, c, :]
                acc[slot] += wc * np.sum(diff ** 2 * w)
    errs = [np.sqrt(a) for a in acc]
    errs[1] *= to_longdouble(fields.material.t)
    return errs


def l2_error(fld, exact, quad_degree: int = vf.ERROR_DEGREE) -> float:
    """Broken L2 norm of (exact - field); Frobenius norm for tensors.

    ``exact`` is any callable returning (ncomp,) + points.shape values;
    pass a zero-coefficient field to measure the norm of ``exact`` itself.
    """
    if quad_degree < 2 * fld.degree:
        raise ValueError("error quadrature degree too low for the field")
    return float(np.sqrt(vf._squared_errors((fld,), exact, quad_degree)[0]))


def bh_norm(mesh, spaces, material, sigma, R, theta, theta_hat: np.ndarray,
            p, p_hat: np.ndarray) -> float:
    """Energy-type norm of a stage-two state (zero iff the state is zero).

    ``theta_hat``/``p_hat`` are (num_edges, per_edge) coefficient arrays
    with component-major layout for the vector trace.
    """
    k, l = spaces.k, spaces.l
    degrees = fs.quadrature_degrees(k)
    exps_v = fs.monomial_exponents(k)
    total = 0.0
    for batch in fs.element_batches(mesh):
        pts, w = batch.volume_rule(degrees["assembly_degree"])
        sv = sigma.values_batched(batch, pts)
        sv2 = sv[:, 0] ** 2 + sv[:, 1] ** 2 + 2 * sv[:, 2] ** 2
        rv = R.values_batched(batch, pts)
        rv2 = (rv ** 2).sum(axis=1)
        gx_v = fs.scalar_vals(exps_v, batch.centroid, batch.h, pts, dx=1)
        gy_v = fs.scalar_vals(exps_v, batch.centroid, batch.h, pts, dy=1)
        tc = theta.coeffs[batch.ids]
        Tv = fs.space_dim(k)
        grad2 = np.zeros_like(rv2)
        for u in range(2):
            cu = tc[:, u * Tv:(u + 1) * Tv]
            grad2 += np.einsum("enq,en->eq", gx_v, cu) ** 2
            grad2 += np.einsum("enq,en->eq", gy_v, cu) ** 2
        pc = p.coeffs[batch.ids]
        perp2 = (np.einsum("enq,en->eq", gx_v, pc) ** 2
                 + np.einsum("enq,en->eq", gy_v, pc) ** 2)
        total += float(np.einsum(
            "eq,eq->", sv2 + rv2 / material.t ** 2 + grad2
            + material.t ** 2 * perp2, w))

        _, alpha2, alpha3 = asm.stabilization(batch.h, material)
        for e in range(batch.nv):
            Clv, El = asm._edge_projection_blocks(
                batch, e, degrees["edge_degree"], l, k)
            Ckv, Ek = Clv[:, :k], El[:, :k, :k]
            th_hat_e = theta_hat[batch.edge_ids[:, e]]
            p_hat_e = p_hat[batch.edge_ids[:, e]]
            for u in range(2):
                cu = tc[:, u * Tv:(u + 1) * Tv]
                load = np.einsum("emj,ej->em", Clv, cu)
                proj = np.linalg.solve(El, load[..., None])[..., 0]
                diff = proj - th_hat_e[:, u * (l + 1):(u + 1) * (l + 1)]
                total += float((alpha2 * np.einsum(
                    "em,emn,en->e", diff, El, diff)).sum())
            loadp = np.einsum("emj,ej->em", Ckv, pc)
            projp = np.linalg.solve(Ek, loadp[..., None])[..., 0]
            diffp = projp - p_hat_e
            total += float((alpha3 * np.einsum(
                "em,emn,en->e", diffp, Ek, diffp)).sum())
    return float(np.sqrt(total))


def local_matrices(batch, k, trace_deg):
    """``(Mss, EX, EY, edges)`` of ``assembly._local_matrices(batch, k)``,
    each edge's ``(C, E)`` cut to the degree ``trace_deg`` edge basis, its
    leading rows, as the stages slice them."""
    Mss, (EX, EY), edges, _ = asm._local_matrices(batch, k)
    m = trace_deg + 1
    return Mss, EX, EY, [(C[:, :m], E[:, :m, :m]) for C, E in edges]


def edge_sum(edges) -> np.ndarray:
    """``sum_e C^T E^{-1} C`` over the ``(C, E)`` of a batch's local
    edges, summed edge by edge from zero."""
    out = np.zeros((len(edges[0][0]),) + (edges[0][0].shape[2],) * 2)
    for C, E in edges:
        out += asm._stab_volume_block(C, E)
    return out


def dense_a11(grp) -> np.ndarray:
    """The whole (ne, n1, n1) interior block of an element group: the
    block ``coef ⊗ mass`` of its mass fields, its interior columns
    ``a11`` and their transpose on the mass fields' columns."""
    ne, n1 = grp.b1.shape
    nm = n1 - grp.n_a11
    a11 = np.zeros((ne, n1, n1))
    a11[:, :nm, :nm] = np.einsum("ij,est->eisjt", grp.coef,
                                 grp.mass).reshape(ne, nm, nm)
    a11[:, :, nm:] = grp.interior_columns(slice(None))
    a11[:, nm:, :nm] = a11[:, :nm, nm:].transpose(0, 2, 1)
    return a11


def dense_interior_columns(bs, material) -> list:
    """Each group's dense interior columns ``a11`` (ne, n1, n_a11) of the
    stage system ``bs``, written by the assembly loop that ``assembly``
    ran before it kept them as terms, with the mass fields' coupling rows
    written here from the weak forms: the primal columns of stages one
    and three, stage two's (theta, p) ones; ``material`` is stage two's.
    Each edge penalty is its weight alpha_K times the sum over the local
    edges of ``C^T E^{-1} C``."""
    out, dof = [], bs.dof
    n1 = dof.n_interior_per_element
    if bs.stage != "step2":
        k = dof.trace_fields["u_hat"].per_edge
        Ts, Tv = fs.space_dim(k - 1), fs.space_dim(k)
        sl_L, sl_r = dof.components("flux"), dof.interior_slice("primal")
        for grp in bs.groups:
            batch = grp.batch
            _, EX, EY, edges = local_matrices(batch, k, k - 1)
            a11 = np.zeros((len(batch.ids), n1, Tv))
            # -(r, div q), div q = dx q1 + dy q2
            a11[:, sl_L[0]], a11[:, sl_L[1]] = -EX[:, :Ts], -EY[:, :Ts]
            alpha1 = asm.stabilization(batch.h, asm.PlateMaterial())[0]
            a11[:, sl_r] = alpha1[:, None, None] * edge_sum(edges)
            out.append(a11)
        return out

    tf_th, tf_p = dof.trace_fields["theta_hat"], dof.trace_fields["p_hat"]
    k, l = tf_p.per_edge, tf_th.per_edge // 2 - 1
    Ts, Tv = fs.space_dim(k - 1), fs.space_dim(k)
    sig, R, rot = (dof.components(name) for name in ("sigma", "R", "theta"))
    sl_p = dof.interior_slice("p")
    th, p = (slice(0, Tv), slice(Tv, 2 * Tv)), slice(2 * Tv, None)
    for grp in bs.groups:
        batch = grp.batch
        _, EX, EY, edges = local_matrices(batch, k, l)
        DX, DY = EX[:, :Ts], EY[:, :Ts]
        a11 = np.zeros((len(batch.ids), n1, 3 * Tv))
        # -(theta, div tau), div tau = (dx tau11 + dy tau12, dx tau12 +
        # dy tau22) for tau = (tau11, tau22, tau12)
        a11[:, sig[0], th[0]], a11[:, sig[2], th[0]] = -DX, -DY
        a11[:, sig[2], th[1]], a11[:, sig[1], th[1]] = -DX, -DY
        # (p, curl S), curl S = dx S2 - dy S1
        a11[:, R[0], p], a11[:, R[1], p] = -DY, DX
        a11[:, rot[0], p], a11[:, sl_p, th[0]] = -EY, -EY.mT
        a11[:, rot[1], p], a11[:, sl_p, th[1]] = EX, EX.mT
        _, alpha2, alpha3 = asm.stabilization(batch.h, material)
        stab2 = alpha2[:, None, None] * edge_sum(edges)
        a11[:, rot[0], th[0]] = a11[:, rot[1], th[1]] = stab2
        a11[:, sl_p, p] = -alpha3[:, None, None] * edge_sum(
            [(Clv[:, :k], El[:, :k, :k]) for Clv, El in edges])
        out.append(a11)
    return out


def dense_trace_blocks(bs, material) -> list:
    """``(a12, a22, trace_idx)`` per group of the stage system ``bs``,
    written by the dense assembly loops that ``assembly`` ran before it
    kept them as terms; ``material`` is stage two's (stages one and three
    do not depend on it)."""
    dof, out = bs.dof, []
    n1 = dof.n_interior_per_element
    if bs.stage != "step2":
        k = dof.trace_fields["u_hat"].per_edge
        Ts = fs.space_dim(k - 1)
        tf = dof.trace_fields["u_hat"]
        sl_L = dof.components("flux")
        sl_r = dof.interior_slice("primal")
        for grp in bs.groups:
            batch = grp.batch
            ne, nv = len(batch.ids), batch.nv
            edges = local_matrices(batch, k, k - 1)[3]
            ntl = nv * k
            a12 = np.zeros((ne, n1, ntl))
            a22 = np.zeros((ne, ntl, ntl))
            trace_idx = np.empty((ne, ntl), dtype=int)
            alpha1 = asm.stabilization(batch.h, asm.PlateMaterial())[0]

            for e, (Cv, Ee) in enumerate(edges):
                cols = slice(e * k, (e + 1) * k)
                nrm = batch.normals[:, e, :]
                for u, sl in enumerate(sl_L):
                    a12[:, sl, cols] = (nrm[:, u, None, None]
                                        * Cv[:, :, :Ts].transpose(0, 2, 1))
                a12[:, sl_r, cols] = -alpha1[:, None, None] * Cv.transpose(0, 2, 1)
                a22[:, cols, cols] = alpha1[:, None, None] * Ee
                trace_idx[:, cols] = tf.dofs(batch.edge_ids[:, e])
            out.append((a12, a22, trace_idx))
        return out

    tf_th = dof.trace_fields["theta_hat"]
    tf_p = dof.trace_fields["p_hat"]
    k, l = tf_p.per_edge, tf_th.per_edge // 2 - 1
    m_th, Ts = 2 * (l + 1), fs.space_dim(k - 1)
    sl_sig, sl_R, sl_th = (dof.components(name) for name in ("sigma", "R", "theta"))
    sl_p = dof.interior_slice("p")
    for grp in bs.groups:
        batch = grp.batch
        ne, nv = len(batch.ids), batch.nv
        edges = local_matrices(batch, k, l)[3]
        ntl = nv * (m_th + k)
        a12 = np.zeros((ne, n1, ntl))
        a22 = np.zeros((ne, ntl, ntl))
        trace_idx = np.empty((ne, ntl), dtype=int)
        _, alpha2, alpha3 = asm.stabilization(batch.h, material)

        for e, (Clv, El) in enumerate(edges):
            Cls, Ckv, Cks, Ek = (Clv[:, :, :Ts], Clv[:, :k], Clv[:, :k, :Ts],
                                 El[:, :k, :k])
            nrm = batch.normals[:, e, :]
            tang = batch.tangents[:, e, :]
            c_th = e * m_th
            sl_that = [slice(c_th + u * (l + 1), c_th + (u + 1) * (l + 1))
                       for u in range(2)]
            c_p = nv * m_th + e * k
            sl_phat = slice(c_p, c_p + k)

            coeff = ((0, 0, nrm[:, 0]), (1, 1, nrm[:, 1]),
                     (2, 0, nrm[:, 1]), (2, 1, nrm[:, 0]))
            for c, u, val in coeff:
                a12[:, sl_sig[c], sl_that[u]] = \
                    val[:, None, None] * Cls.transpose(0, 2, 1)
            for u in range(2):
                a12[:, sl_R[u], sl_phat] = \
                    -tang[:, u, None, None] * Cks.transpose(0, 2, 1)
                a12[:, sl_th[u], sl_that[u]] = \
                    -alpha2[:, None, None] * Clv.transpose(0, 2, 1)
                a12[:, sl_th[u], sl_phat] = \
                    -tang[:, u, None, None] * Ckv.transpose(0, 2, 1)
            a12[:, sl_p, sl_phat] = alpha3[:, None, None] * Ckv.transpose(0, 2, 1)

            for sl in sl_that:
                a22[:, sl, sl] = alpha2[:, None, None] * El
            a22[:, sl_phat, sl_phat] = -alpha3[:, None, None] * Ek
            trace_idx[:, c_th:c_th + m_th] = tf_th.dofs(batch.edge_ids[:, e])
            trace_idx[:, sl_phat] = tf_p.dofs(batch.edge_ids[:, e])
        out.append((a12, a22, trace_idx))
    return out


def divergence(field, batch, pts) -> np.ndarray:
    """div of the vector2 ``field`` at the batch's (ne, nq, 2) points
    ``pts``, (ne, nq), from the derivatives of its scaled monomials."""
    exps, n = fs.monomial_exponents(field.degree), field.nscalar
    c = field.coeffs[batch.ids]
    gx = fs.scalar_vals(exps, batch.centroid, batch.h, pts, dx=1)
    gy = fs.scalar_vals(exps, batch.centroid, batch.h, pts, dy=1)
    return (np.einsum("enq,en->eq", gx, c[:, :n])
            + np.einsum("enq,en->eq", gy, c[:, n:]))


def load_b1(bs, material, g=None, L=None, f=None, theta=None) -> list:
    """Each group's ``b1`` of the stage system ``bs``: the P_k moments of
    its interior load, one component at a time, with the einsum that each
    stage ran before all three shared one load path.  The load is ``g``
    (stage one), ``t^2 / lam g - div theta`` (stage three, div theta from
    :func:`divergence`) or each component of ``L + f`` (stage two, ``f``
    optional)."""
    dof, out = bs.dof, []
    k = dof.trace_fields["p_hat" if bs.stage == "step2" else "u_hat"].per_edge
    for grp in bs.groups:
        batch = grp.batch
        pts, w = batch.volume_rule(fs.quadrature_degrees(k)["source_degree"])
        V = fs.scalar_vals(fs.monomial_exponents(k), batch.centroid, batch.h,
                           pts)
        b1 = np.zeros_like(grp.b1)
        if bs.stage == "step2":
            load = L.values_batched(batch, pts)
            if f is not None:
                fv = np.asarray(f(pts[..., 0], pts[..., 1]), dtype=float)
                load = load + np.moveaxis(fv, 0, 1)
            for u, sl in enumerate(dof.components("theta")):
                b1[:, sl] = np.einsum("enq,eq,eq->en", V, load[:, u, :], w)
        else:
            vals = np.asarray(g(pts[..., 0], pts[..., 1]), dtype=float)
            if bs.stage == "step3":
                scale = material.t ** 2 / material.lam
                vals = scale * vals - divergence(theta, batch, pts)
            b1[:, dof.interior_slice("primal")] = np.einsum(
                "enq,eq,eq->en", V, vals, w)
        out.append(b1)
    return out


def trace_blocks(grp) -> tuple:
    """A group's dense ``(a12, a22)``, from its terms in one chunk."""
    e = slice(None)
    return grp.trace_block(e, "a12"), grp.trace_block(e, "a22")


def saddle_blocks(S, m: int) -> tuple:
    """``(B11, B12, B22c)`` of a condensed saddle matrix ``S`` whose
    pressure trace starts at ``m``."""
    return S[:m, :m].tocsr(), S[:m, m:].tocsr(), S[m:, m:].tocsr()


def monolithic_dense(bs) -> tuple[np.ndarray, np.ndarray]:
    """The uncondensed symmetric system (interior + trace) of the
    ``BlockSystem`` ``bs`` as dense arrays."""
    n1 = bs.dof.n_interior_per_element
    ni, nt = bs.n_interior, bs.n_trace
    A = np.zeros((ni + nt, ni + nt))
    b = np.zeros(ni + nt)
    for g in bs.groups:
        a11, (a12, a22) = dense_a11(g), trace_blocks(g)
        for row in range(len(g.batch.ids)):
            i0 = g.batch.ids[row] * n1
            A[i0:i0 + n1, i0:i0 + n1] = a11[row]
            cols = g.trace_indices[row]
            keep = cols >= 0
            A[i0:i0 + n1, ni + cols[keep]] = a12[row][:, keep]
            A[ni + cols[keep], i0:i0 + n1] = a12[row][:, keep].T
            A[np.ix_(ni + cols[keep], ni + cols[keep])] += \
                a22[row][np.ix_(keep, keep)]
            b[i0:i0 + n1] = g.b1[row]
            b[ni + cols[keep]] += g.b2[row][keep]
    return A, b


def saddle_matrix(cond) -> sp.csc_matrix:
    """The condensed matrix of ``cond`` as one CSC matrix: a Poisson
    stage's ``S`` as it is, and stage two's rebuilt from its
    ``SaddleBlocks``, ``B12^T`` below the diagonal."""
    if not isinstance(cond.S, slv.SaddleBlocks):
        return cond.S
    B11, B12, B22c = cond.S
    return sp.bmat([[B11, B12], [B12.T, B22c]], format="csc")


def pressure_kernel(dof) -> np.ndarray:
    """The unit constant pressure trace of stage two's trace layout
    ``dof``, over all its trace dofs: the kernel of the condensed matrix."""
    tf = dof.trace_fields["p_hat"]
    z = np.zeros(dof.n_trace)
    z[tf.offset + np.arange(dof.mesh.num_edges) * tf.per_edge] = 1.0
    return z / np.linalg.norm(z)


def solve_saddle_direct(cond) -> np.ndarray:
    """Sparse direct solve of a whole condensed saddle system.

    The one-dimensional constant-pressure kernel is removed by bordering
    the matrix with the kernel vector.
    """
    S, b = saddle_matrix(cond), cond.rhs
    kernel = pressure_kernel(cond.system.dof)
    m = cond.system.dof.trace_fields["p_hat"].offset
    if slv._kernel_is_valid(cond.S, kernel[m:]):
        z = sp.csr_matrix(kernel.reshape(-1, 1))
        A = sp.bmat([[S, z], [z.T, None]], format="csc")
        return spla.splu(A).solve(np.concatenate([b, [0.0]]))[:-1]
    return spla.splu(S).solve(b)


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


def schur_triplets(bs) -> list:
    """The ``_coo_block`` triplets of every element's local Schur block,
    each computed with the same operations as in ``solver.condense``."""
    blocks = []
    for grp in bs.groups:
        chunks = [slv._local_schur(grp, e)[0] for e in slv._chunks(grp)]
        blocks.append(_coo_block(grp.trace_indices, np.concatenate(chunks)))
    return blocks


def condensed_matrix(bs) -> sp.csr_matrix:
    """``solver.condense(bs).S`` without its exact zeros, as the COO-to-CSR
    sum of every element's local Schur block."""
    return _trace_matrix(schur_triplets(bs), bs.n_trace)


def dense_elimination(bs, x2: np.ndarray) -> tuple:
    """``(S, rhs, x1)`` of ``bs`` from one stacked solve ``A11^{-1}
    [A12 | b1]`` per group with the dense interior block ``dense_a11``:
    the condensed matrix (dense), its load and the interior solution
    back-substituted from the trace solution ``x2``."""
    blocks, rhs = [], np.zeros(bs.n_trace)
    x1 = np.zeros((bs.dof.mesh.num_elements, bs.dof.n_interior_per_element))
    for grp in bs.groups:
        idx, (a12, a22) = grp.trace_indices, trace_blocks(grp)
        y = np.linalg.solve(dense_a11(grp), np.concatenate(
            [a12, grp.b1[..., None]], axis=-1))
        z = a12.transpose(0, 2, 1) @ y
        blocks.append(_coo_block(idx, a22 - z[..., :-1]))
        np.add.at(rhs, idx[idx >= 0], (grp.b2 - z[..., -1])[idx >= 0])
        x2loc = np.where(idx >= 0, x2[idx], 0.0)
        x1[grp.batch.ids] = y[..., -1] - np.einsum("eij,ej->ei",
                                                   y[..., :-1], x2loc)
    return _trace_matrix(blocks, bs.n_trace).toarray(), rhs, x1


def factor_inputs(bs) -> list:
    """The matrices SuperLU factors for ``bs``: ``S``, or ``B11`` and the
    surrogate ``rho W - B22c``, each sliced from ``condensed_matrix(bs)``
    as CSC; ``rho`` comes from the same probe as in
    ``solver.solve_saddle_trace``."""
    S, dof = condensed_matrix(bs), bs.dof
    if bs.stage != "step2":
        return [S.tocsc()]
    m = dof.trace_fields["p_hat"].offset
    blocks = saddle_blocks(S, m)
    _, B12, B22c = blocks
    B11 = S[:m, :m].tocsc()
    lu = spla.splu(B11, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                   panel_size=slv._PANEL_SIZE, options={"SymmetricMode": True})
    W = slv._phat_edge_mass(dof)
    probe = np.random.default_rng(0).standard_normal(S.shape[0] - m)
    kernel = pressure_kernel(dof)[m:]
    if slv._kernel_is_valid(slv.SaddleBlocks(*blocks), kernel):
        probe = slv._deflation_projector(kernel)(probe)
    x = lu.solve(B12 @ probe)
    rho = max(slv._dot(probe, B12.T.tocsr() @ x) / slv._dot(probe, W @ probe),
              0.0)
    return [B11, (rho * W - B22c).tocsc()]


def full_positions(bs) -> dict:
    """The CSC ``(shape, indices, indptr)`` of each condensed block and
    every local block entry's place in their data laid end to end, one
    ``position`` per entry, as ``solver`` kept them before it kept one
    start per element, local row block and column."""
    n, edges = bs.n_trace, np.arange(bs.dof.mesh.num_edges)
    dof_edge = np.zeros(n, dtype=np.intp)
    for f in bs.dof.trace_fields.values():
        dofs = f.dofs(edges)
        dof_edge[dofs[dofs >= 0]] = np.nonzero(dofs >= 0)[0]
    E = sp.vstack([sp.csr_matrix((np.ones(e.size), e.ravel(), np.arange(
        0, e.size + 1, e.shape[1])), (len(e), len(edges)))
        for e in (grp.batch.edge_ids for grp in bs.groups)])
    P = sp.csr_matrix((np.ones(n), (np.arange(n), dof_edge)), (n, len(edges)))
    S = sp.csr_array(P @ (E.T @ E) @ P.T)
    S.sort_indices()
    S.data = np.arange(S.nnz, dtype=S.indices.dtype)
    edge_row = np.zeros(len(edges), dtype=np.intp)
    edge_row[dof_edge] = np.arange(n)
    sizes = [g.trace_indices.size * g.trace_indices.shape[1] for g in bs.groups]
    position = np.empty(sum(sizes), S.dtype)
    for grp, pos in zip(bs.groups, np.split(position, np.cumsum(sizes)[:-1])):
        ok = grp.trace_indices >= 0
        dof = np.where(ok, grp.trace_indices, 0)
        edge = np.argmax(dof_edge[dof][:, :, None]
                         == grp.batch.edge_ids[:, None, :], axis=2)
        row, col = np.broadcast_arrays(edge_row[grp.batch.edge_ids][..., None],
                                       dof[:, None])
        col = S[row.ravel(), col.ravel()].reshape(row.shape) - S.indptr[row]
        pos = pos.reshape(*dof.shape, dof.shape[1])
        np.add(col[np.arange(len(dof))[:, None], edge],
               S.indptr[dof][..., None], out=pos.transpose(0, 2, 1))
        pos[~(ok[:, :, None] & ok[:, None, :])] = S.nnz
    S = sp.csc_array((S.data, S.indices, S.indptr), S.shape)
    bounds = [f.offset for f in bs.dof.trace_fields.values()] + [n]
    fields = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
    blocks = [S[r, c] for i, r in enumerate(fields) for c in fields[i:]]
    taken = np.concatenate([b.data for b in blocks])
    target = np.full(S.nnz + 1, len(taken), S.dtype)
    target[taken] = np.arange(len(taken))
    return {"blocks": [(b.shape, b.indices, b.indptr) for b in blocks],
            "position": target[position]}


def expanded_positions(pattern: dict) -> np.ndarray:
    """Every local block entry's place from the kept ``pattern``'s starts,
    one array per block, laid end to end like ``full_positions``'
    ``position``: a block's place goes past the blocks before it, and a
    place at or past its entries, like every ``B12^T`` entry, goes to one
    past them all."""
    sizes = [len(indices) for _, indices, _ in pattern["blocks"]]
    bases, drop = np.cumsum([0] + sizes[:-1]), sum(sizes)
    nf = int(np.sqrt(2 * len(sizes)))  # len(sizes) = nf (nf + 1) / 2
    pairs = [(i, j) for i in range(nf) for j in range(i, nf)]
    out = []
    for starts in pattern["starts"]:
        ne, nv = starts[0].shape[:2]
        per_edge = [starts[j].shape[2] // nv for j in range(nf)]
        cut = np.cumsum([0] + per_edge) * nv
        place = np.full((ne, cut[-1], cut[-1]), drop, starts[0].dtype)
        for (i, j), start, base, size in zip(pairs, starts, bases, sizes):
            pos = start[:, :, None] + np.arange(per_edge[i])[:, None]
            place[:, cut[i]:cut[i + 1], cut[j]:cut[j + 1]] = np.where(
                pos < size, pos + base, drop).reshape(ne, -1, pos.shape[-1])
        out.append(place.ravel())
    return np.concatenate(out)
