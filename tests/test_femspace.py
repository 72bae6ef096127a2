import math

import numpy as np
import pytest

from hdgplate import assembly as asm
from hdgplate import femspace as fs
from hdgplate.assembly import DiscreteField
from hdgplate.mesh import Mesh, generate_structured
from meshes import mixed_group_mesh, mixed_strip
from oracles import edge_rule as oracle_edge_rule
from oracles import volume_rule as oracle_volume_rule

UNIT_TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
# convex quadrilaterals that are not parallelograms; the second has a
# straight angle at its second vertex
JITTERED_QUAD = np.array([[0.3, 0.2], [1.45, 0.31], [1.62, 1.13],
                          [0.17, 1.26]])
STRAIGHT_ANGLE_QUAD = np.array([[0.3, 0.2], [1.3, 0.2], [2.3, 0.2],
                                [1.1, 1.7]])


def tri_monomial_integral(a, b):
    # int over unit triangle of x^a y^b
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


def single_element_batch(points):
    mesh = Mesh(points, [tuple(range(len(points)))])
    return fs.element_batches(mesh)[0]


def polygon_moment(verts, a, b):
    """Integral of x^a y^b over a polygon: x^a y^b is homogeneous of degree
    a+b, so by the divergence theorem it is the boundary integral of
    x^a y^b (x . n) / (a+b+2), and x . n ds = (p_i x p_i+1) dt on each edge."""
    t, w = fs.gauss_legendre_01((a + b) // 2 + 1)
    total = 0.0
    for p, q in zip(verts, np.roll(verts, -1, axis=0)):
        x = p[0] + t * (q[0] - p[0])
        y = p[1] + t * (q[1] - p[1])
        total += (p[0] * q[1] - p[1] * q[0]) * (w * x ** a * y ** b).sum()
    return total / (a + b + 2)


def l2_project(mesh, f, degree, quad_degree):
    """Element-wise L2 projection onto P_degree from the batched values."""
    exps = fs.monomial_exponents(degree)
    coeffs = np.empty((mesh.num_elements, len(exps)))
    for batch in fs.element_batches(mesh):
        pts, w = batch.volume_rule(quad_degree)
        vals = fs.scalar_vals(exps, batch.centroid, batch.h, pts)
        mass = np.einsum("eiq,ejq,eq->eij", vals, vals, w)
        load = np.einsum("eiq,eq,eq->ei", vals, f(pts[..., 0], pts[..., 1]), w)
        coeffs[batch.ids] = np.linalg.solve(mass, load[..., None])[..., 0]
    return DiscreteField(mesh, degree, "scalar", coeffs)


def edge_projection_blocks(mesh, trace_deg, elem_deg):
    """Per batch and local edge: the cross mass C and edge mass E the
    assembly uses, and the edge mass M of the element traces."""
    degree = fs.quadrature_degrees(max(trace_deg, elem_deg))["edge_degree"]
    exps = fs.monomial_exponents(elem_deg)
    for batch in fs.element_batches(mesh):
        for e in range(batch.nv):
            C, E = asm._edge_projection_blocks(batch, e, degree,
                                               trace_deg, elem_deg)
            pts, w, _ = batch.edge_rule(e, degree)
            tr = fs.scalar_vals(exps, batch.centroid, batch.h, pts)
            M = np.einsum("eiq,ejq,eq->eij", tr, tr, w)
            yield batch, e, C, E, M


class TestQuadrature:
    def test_triangle_area(self):
        _, w = single_element_batch(UNIT_TRI).volume_rule(0)
        assert w.sum() == pytest.approx(0.5, rel=1e-13)

    def test_square_x2y2(self):
        pts, w = single_element_batch(UNIT_SQUARE).volume_rule(4)
        val = (w * pts[..., 0] ** 2 * pts[..., 1] ** 2).sum()
        assert val == pytest.approx(1.0 / 9.0, rel=1e-13)

    def test_weight_sum_is_area(self):
        pentagon = np.array([[0, 0], [2, 0], [2.5, 1], [1, 2], [-0.5, 0.8]],
                            dtype=float)
        area = 0.5 * abs(sum(
            pentagon[i, 0] * pentagon[(i + 1) % 5, 1]
            - pentagon[(i + 1) % 5, 0] * pentagon[i, 1] for i in range(5)))
        batch = single_element_batch(pentagon)
        for d in (0, 3, 11):
            _, w = batch.volume_rule(d)
            assert w.sum() == pytest.approx(area, rel=1e-13)

    @pytest.mark.parametrize("degree", [1, 4, 9, 26])
    def test_monomial_exactness_triangle(self, degree):
        pts, w = single_element_batch(UNIT_TRI).volume_rule(degree)
        x, y = pts[0, :, 0], pts[0, :, 1]
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                val = (w[0] * x ** a * y ** b).sum()
                assert val == pytest.approx(tri_monomial_integral(a, b), rel=1e-12)

    @pytest.mark.parametrize("degree", [2, 7, 13])
    def test_monomial_exactness_square(self, degree):
        pts, w = single_element_batch(UNIT_SQUARE).volume_rule(degree)
        x, y = pts[0, :, 0], pts[0, :, 1]
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                val = (w[0] * x ** a * y ** b).sum()
                assert val == pytest.approx(1.0 / ((a + 1) * (b + 1)), rel=1e-12)

    @pytest.mark.parametrize("verts", [JITTERED_QUAD, STRAIGHT_ANGLE_QUAD],
                             ids=["jittered", "straight-angle"])
    def test_quadrilateral_rule_exact_to_degree(self, verts):
        batch = single_element_batch(verts)
        for degree in range(14):
            pts, w = batch.volume_rule(degree)
            npts = ((degree + 3) // 2) ** 2
            assert pts.shape == (1, npts, 2) and w.shape == (1, npts)
            x, y = pts[0, :, 0], pts[0, :, 1]
            for a in range(degree + 1):
                for b in range(degree + 1 - a):
                    assert (w[0] * x ** a * y ** b).sum() == pytest.approx(
                        polygon_moment(verts, a, b), rel=1e-12), (degree, a, b)

    @pytest.mark.parametrize("mesh", [mixed_group_mesh(), mixed_strip(3)],
                             ids=["mixed_group_mesh", "mixed_strip"])
    def test_other_vertex_counts_keep_their_rule_bitwise(self, mesh):
        # each coordinate on its own gives the bits of the formulas on
        # (ne, nq, 2) arrays, on every batch, on a part of it and on edges
        batches = {b.nv: b for b in fs.element_batches(mesh)}
        assert sorted(batches) == [3, 4, 5]
        for nv, batch in batches.items():
            for degree in (0, 3, 6, 10, 26):
                for part in (slice(None), slice(1, 2)):
                    got = batch.volume_rule(degree, part)
                    want = oracle_volume_rule(batch, degree)
                    for g, r in zip(got, want):
                        assert np.array_equal(g, r[part]), (nv, degree)
            for e in range(nv):
                for degree in (1, 6):
                    for g, r in zip(batch.edge_rule(e, degree),
                                    oracle_edge_rule(batch, e, degree)):
                        assert g.shape == r.shape and np.array_equal(g, r)

    def test_nonconvex_rejected(self):
        # the fan rule needs convex elements; Mesh is where batches come from
        bad = np.array([[0, 0], [2, 0], [1, 0.2], [2, 2]], dtype=float)
        with pytest.raises(ValueError):
            single_element_batch(bad)

    def test_edge_rule_degree1_is_midpoint(self):
        # local edge 0 of the unit triangle runs from (0, 0) to (1, 0)
        pts, w, s = single_element_batch(UNIT_TRI).edge_rule(0, 1)
        assert w.shape == (1, 1)
        assert pts[0, 0] == pytest.approx([0.5, 0.0], abs=1e-15)
        assert w[0, 0] == pytest.approx(1.0, rel=1e-14)
        assert s[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_edge_weight_sum_and_param_integral(self):
        mesh = generate_structured("triangle", 2)
        for batch in fs.element_batches(mesh):
            for e in range(batch.nv):
                pts, w, s = batch.edge_rule(e, 5)
                for row, eid in enumerate(batch.edge_ids[:, e]):
                    length = mesh.edge_length[eid]
                    assert w[row].sum() == pytest.approx(length, rel=1e-13)
                    assert (w[row] * s[row]).sum() == pytest.approx(
                        length / 2, rel=1e-13)
                    # s is the arclength along the global tangent, from
                    # the lower-numbered vertex to the higher one
                    p0, p1 = mesh.points[mesh.edge_vertices[eid]]
                    tangent = (p1 - p0) / length
                    want = (pts[row] - p0) @ tangent / length
                    assert s[row] == pytest.approx(want, abs=1e-14)


class TestScaledMonomials:
    def setup_method(self):
        self.centroid = np.array([[0.4, 0.7]])
        self.h = np.array([0.8])
        self.pts = np.array([[[0.1, 0.9], [0.5, 0.3], [0.2, 0.1]]])

    def gradient(self, degree, coeffs):
        """(d/dx, d/dy) of one scaled-monomial expansion at self.pts."""
        exps = fs.monomial_exponents(degree)
        gx = fs.scalar_vals(exps, self.centroid, self.h, self.pts, dx=1)
        gy = fs.scalar_vals(exps, self.centroid, self.h, self.pts, dy=1)
        return coeffs @ gx[0], coeffs @ gy[0]

    def test_dimensions(self):
        exps = fs.monomial_exponents(2)
        vals = fs.scalar_vals(exps, self.centroid, self.h, self.pts)
        assert vals.shape == (1, 6, 3)
        mesh = generate_structured("triangle", 1)
        assert DiscreteField(mesh, 2, "vector2", np.zeros((2, 12))).ncomp == 2
        assert DiscreteField(mesh, 1, "symtensor2x2", np.zeros((2, 9))).ncomp == 3
        with pytest.raises(ValueError):
            DiscreteField(mesh, 2, "vector2", np.zeros((2, 6)))

    @pytest.mark.parametrize("dx", [0, 1, 2])
    @pytest.mark.parametrize("dy", [0, 1, 2])
    def test_matches_closed_form(self, dx, dy):
        exps = fs.monomial_exponents(4)
        vals = fs.scalar_vals(exps, self.centroid, self.h, self.pts,
                              dx=dx, dy=dy)
        h = self.h[0]
        xi = (self.pts[0, :, 0] - self.centroid[0, 0]) / h
        eta = (self.pts[0, :, 1] - self.centroid[0, 1]) / h
        for m, (a, b) in enumerate(exps):
            # d^dx/dx^dx d^dy/dy^dy of xi^a eta^b; zero once dx > a or dy > b
            factor = math.perm(a, dx) * math.perm(b, dy) / h ** (dx + dy)
            expected = (factor * xi ** max(a - dx, 0) * eta ** max(b - dy, 0))
            assert vals[0, m] == pytest.approx(expected, rel=1e-14, abs=1e-14)

    def test_perp_grad_of_x(self):
        # f(x, y) = x in the scaled basis: xc + h * xi; perp grad = (f_y, -f_x)
        fx, fy = self.gradient(1, np.array([self.centroid[0, 0], self.h[0], 0.0]))
        assert fy == pytest.approx([0.0] * 3, abs=1e-14)
        assert -fx == pytest.approx([-1.0] * 3, abs=1e-14)

    def test_curl2d_of_rotation(self):
        # phi = (-y, x): curl = d(phi2)/dx - d(phi1)/dy = 2
        _, d1y = self.gradient(1, np.array([-self.centroid[0, 1], 0.0, -self.h[0]]))
        d2x, _ = self.gradient(1, np.array([self.centroid[0, 0], self.h[0], 0.0]))
        assert d2x - d1y == pytest.approx([2.0] * 3, rel=1e-14)

    def test_divergence_of_position_field(self):
        # phi = (x, y) on every element of a mixed mesh: div phi = 2
        points = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0],
                           [2.0, 1.0], [2.0, 2.0], [0.0, 2.0]])
        mesh = Mesh(points, [(1, 2, 3), (0, 1, 3, 4, 5)])
        (cx, cy), h = mesh.centroid.T, mesh.diameter
        coeffs = np.column_stack([cx, h, 0 * h, cy, 0 * h, h])
        phi = DiscreteField(mesh, 1, "vector2", coeffs)
        for batch in fs.element_batches(mesh):
            pts, _ = batch.volume_rule(2)
            assert phi.divergence_batched(batch, pts) == pytest.approx(
                np.full(pts.shape[:2], 2.0), rel=1e-13)

    def test_rank_mismatch_raises(self):
        mesh = generate_structured("triangle", 1)
        scalar = DiscreteField(mesh, 1, "scalar", np.zeros((2, 3)))
        batch = fs.element_batches(mesh)[0]
        pts, _ = batch.volume_rule(2)
        with pytest.raises(ValueError):
            scalar.divergence_batched(batch, pts)
        with pytest.raises(ValueError):
            DiscreteField(mesh, 1, "tensor9", np.zeros((2, 3)))

    def test_local_mass_matrix_spd(self):
        mesh = generate_structured("triangle", 2)
        batch = fs.element_batches(mesh)[0]
        for degree in (1, 3):
            pts, w = batch.volume_rule(2 * degree)
            vals = fs.scalar_vals(fs.monomial_exponents(degree),
                                  batch.centroid, batch.h, pts)
            mass = np.einsum("eiq,ejq,eq->eij", vals, vals, w)[1]
            assert np.abs(mass - mass.T).max() <= 1e-14 * np.abs(mass).max()
            assert np.linalg.eigvalsh(mass).min() > 0


class TestProjections:
    def test_linear_reproduced_exactly(self):
        mesh = generate_structured("triangle", 2)
        proj = l2_project(mesh, lambda x, y: x, 1, 4)
        rng = np.random.default_rng(7)
        sample = rng.uniform(0, 1, size=(10, 2))
        for batch in fs.element_batches(mesh):
            pts = np.broadcast_to(sample, (len(batch.ids),) + sample.shape)
            vals = proj.values_batched(batch, pts)[:, 0]
            assert vals == pytest.approx(pts[..., 0], rel=1e-12)

    def test_degree0_projection_is_centroid_mean(self):
        mesh = generate_structured("quadrilateral", 2)
        proj = l2_project(mesh, lambda x, y: x, 0, 2)
        assert proj.coeffs[:, 0] == pytest.approx(mesh.centroid[:, 0],
                                                  rel=1e-13)

    def test_projection_idempotent_on_space(self):
        # traces already in the edge space are reproduced: C^T E^-1 C = M
        mesh = generate_structured("quadrilateral", 2)
        for trace_deg, elem_deg in ((1, 1), (2, 1), (2, 2), (3, 3)):
            for _, _, C, E, M in edge_projection_blocks(mesh, trace_deg,
                                                        elem_deg):
                stab = asm._stab_volume_block(C, E)
                assert np.abs(stab - M).max() <= 1e-12 * np.abs(M).max()

    def test_projection_boundedness(self):
        # the projected trace is never longer: M - C^T E^-1 C is PSD
        mesh = generate_structured("triangle", 2)
        for trace_deg, elem_deg in ((0, 1), (1, 2), (2, 3)):
            for _, _, C, E, M in edge_projection_blocks(mesh, trace_deg,
                                                        elem_deg):
                gap = M - asm._stab_volume_block(C, E)
                scale = np.abs(M).max()
                assert np.linalg.eigvalsh(gap).min() >= -1e-12 * scale
                assert np.linalg.eigvalsh(gap).max() > 1e-8 * scale

    def test_edge_projection_linear_and_mean(self):
        # the trace of f = x: degree 1 reproduces it, degree 0 is its mean
        mesh = generate_structured("triangle", 2)
        for trace_deg in (0, 1):
            for batch, e, C, E, _ in edge_projection_blocks(mesh, trace_deg, 1):
                coeffs = np.column_stack([batch.centroid[:, 0], batch.h,
                                          np.zeros(len(batch.ids))])
                load = np.einsum("emj,ej->em", C, coeffs)
                proj = np.linalg.solve(E, load[..., None])[..., 0]
                pts, _, s = batch.edge_rule(e, 2)
                got = np.einsum("em,emq->eq", proj,
                                s[:, None, :] ** np.arange(trace_deg + 1)[:, None])
                if trace_deg == 1:
                    assert got == pytest.approx(pts[..., 0], abs=1e-13)
                else:
                    mid = (batch.verts[:, e, 0]
                           + batch.verts[:, (e + 1) % batch.nv, 0])
                    assert got[:, 0] == pytest.approx(mid / 2, abs=1e-13)

    def test_edge_projection_boundedness(self):
        mesh = generate_structured("quadrilateral", 2)
        rng = np.random.default_rng(5)
        for _, _, C, E, M in edge_projection_blocks(mesh, 1, 2):
            for c in rng.standard_normal((5, M.shape[1])):
                proj = np.linalg.solve(E, (C @ c)[..., None])[..., 0]
                norm_p = np.einsum("em,emn,en->e", proj, E, proj)
                norm_f = np.einsum("i,eij,j->e", c, M, c)
                assert np.all(norm_p <= norm_f * (1 + 1e-12))


class TestApproximationProperties:
    @pytest.mark.parametrize("degree", [1, 2])
    def test_projection_approximation_order(self, degree):
        f = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
        errors = []
        for n in (8, 16, 32):
            mesh = generate_structured("triangle", n)
            proj = l2_project(mesh, f, degree, 2 * degree + 6)
            total = 0.0
            for batch in fs.element_batches(mesh):
                pts, w = batch.volume_rule(2 * degree + 6)
                diff = proj.values_batched(batch, pts)[:, 0] \
                    - f(pts[..., 0], pts[..., 1])
                total += (w * diff ** 2).sum()
            errors.append(np.sqrt(total))
        rates = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(np.abs(rates - (degree + 1)) < 0.2)

    def test_inverse_inequality_uniform(self):
        samples = np.random.default_rng(2).standard_normal((20, 6))
        exps = fs.monomial_exponents(2)
        maxima = []
        for n in (8, 16, 32):
            mesh = generate_structured("triangle", n)
            batch = fs.element_batches(mesh)[0]
            pts, w = batch.volume_rule(6)
            args = (exps, batch.centroid, batch.h, pts)
            vals = np.einsum("sn,enq->seq", samples, fs.scalar_vals(*args))
            gx = np.einsum("sn,enq->seq", samples, fs.scalar_vals(*args, dx=1))
            gy = np.einsum("sn,enq->seq", samples, fs.scalar_vals(*args, dy=1))
            l2 = np.sqrt((w * vals ** 2).sum(-1))
            h1 = np.sqrt((w * (gx ** 2 + gy ** 2)).sum(-1))
            ratio = h1 * batch.h / l2
            maxima.append(ratio[:, [0, len(batch.ids) // 2]].max())
        for coarse, fine in zip(maxima, maxima[1:]):
            assert fine <= coarse * 1.1
