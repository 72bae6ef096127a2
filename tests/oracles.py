"""Reference evaluations that only the tests use.

Two are norms that no solve needs: the L2 error of a single field and
the energy norm of a stage-two state.  The others trade speed for
accuracy: exact rational arithmetic, ``np.longdouble`` where a whole
error norm has to be recomputed, a dense or sparse direct solve of a
whole block system, the dense
interior block that every stage keeps in its field blocks, the dense
trace columns that every stage keeps as terms, or the condensed matrix
summed from COO triplets, as the solver did before it kept a fixed
pattern.  Some keep a kernel's arithmetic as it was written
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
    """``verification.PolyField(polys)(x, y)`` as it was: the coefficient
    matrix built from the Fractions on every call, the monomials gathered
    from the power tables."""
    ox, oy = (float(v) for v in polys[0].origin)
    exps = sorted(set().union(*(p.coeffs for p in polys))) or [(0, 0)]
    ea, eb = np.array(exps).T
    coef = np.array([[float(p.coeffs.get(e, 0)) for e in exps] for p in polys])
    out = np.empty((len(polys), x.size))
    xf, yf = x.ravel(), y.ravel()
    for start in range(0, x.size, vf._CHUNK):
        chunk = slice(start, start + vf._CHUNK)
        out[:, chunk] = coef @ (fs.power_table(xf[chunk] - ox, ea.max())[ea]
                                * fs.power_table(yf[chunk] - oy, eb.max())[eb])
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
            weights = vf._COMPONENT_WEIGHTS[fld.rank]
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


def dense_a11(grp) -> np.ndarray:
    """The whole (ne, n1, n1) interior block of an element group: its
    ``a11`` with the blocks ``coef ⊗ mass`` of its mass fields and their
    couplings ``sum_d coupling[d] ⊗ D[d]`` put back."""
    m = grp.mass
    ne, n1 = grp.b1.shape
    nm = n1 - grp.a11.shape[1]
    a11 = np.zeros((ne, n1, n1))
    a11[:, :nm, :nm] = np.einsum("ij,est->eisjt", m.coef,
                                 m.mass).reshape(ne, nm, nm)
    a11[:, :nm, nm:] = np.einsum("dij,dest->eisjt", m.coupling,
                                 m.D).reshape(ne, nm, n1 - nm)
    a11[:, nm:, :nm] = a11[:, :nm, nm:].transpose(0, 2, 1)
    a11[:, nm:, nm:] = grp.a11
    return a11


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
            edges = asm._local_matrices(batch, k, k - 1,
                                        fs.quadrature_degrees(k))[3]
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
        edges = asm._local_matrices(batch, k, l, fs.quadrature_degrees(k))[3]
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


def trace_blocks(grp) -> tuple:
    """A group's dense ``(a12, a22)``, from its terms in one chunk."""
    a = grp.trace_columns(slice(None))
    n1 = a.shape[1] - a.shape[2]
    return a[:, :n1], a[:, n1:]


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


def solve_saddle_direct(cond) -> np.ndarray:
    """Sparse direct solve of a whole condensed saddle system.

    The one-dimensional constant-pressure kernel is removed by bordering
    the matrix with the kernel vector.
    """
    S, b = cond.S, cond.rhs
    m = cond.system.dof.trace_fields["p_hat"].offset
    if cond.kernel is not None and slv._kernel_is_valid(
            *saddle_blocks(S, m), cond.kernel):
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
    sum of every element's local Schur block, each computed with the
    same operations as in ``condense``."""
    blocks = []
    for grp in bs.groups:
        ne, ntl = grp.trace_indices.shape
        local = np.empty((ne, ntl, ntl))
        slv._eliminate(grp, local)
        blocks.append(_coo_block(grp.trace_indices, local))
    return _trace_matrix(blocks, bs.n_trace)


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
    in assembly order and then put in its trace order as
    ``A[perm][:, perm].tocsc()``; ``rho`` comes from the same probe as in
    ``solver.solve_saddle_trace``."""
    S, dof = condensed_matrix(bs), bs.dof
    if bs.stage != "step2":
        perm = dof.trace_order("u_hat")
        return [S[perm][:, perm].tocsc()]
    m = dof.trace_fields["p_hat"].offset
    perm, order = dof.trace_order("theta_hat"), dof.trace_order("p_hat") - m
    blocks = saddle_blocks(S, m)
    _, B12, B22c = blocks
    B11 = S[:m, :m][perm][:, perm].tocsc()
    lu = spla.splu(B11, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})
    x = np.empty(m)
    W = slv._phat_edge_mass(dof)
    probe = np.empty(len(order))
    probe[order] = np.random.default_rng(0).standard_normal(len(order))
    if bs.kernel_hint is not None and slv._kernel_is_valid(*blocks,
                                                           bs.kernel_hint):
        probe = slv._deflation_projector(bs.kernel_hint[m:])(probe)
    x[perm] = lu.solve((B12 @ probe)[perm])
    rho = max(slv._dot(probe, B12.T.tocsr() @ x) / slv._dot(probe, W @ probe),
              0.0)
    return [B11, (rho * W - B22c)[order][:, order].tocsc()]
