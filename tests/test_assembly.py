import gc
import tracemalloc

import numpy as np
import pytest

from hdgplate import assembly as asm
from hdgplate import femspace as fs
from hdgplate import solver as slv
from hdgplate import verification as vf
from hdgplate.assembly import (DiscreteField, PlateMaterial, SpaceConfig,
                               constitutive_inverse_matrix, recover_gamma,
                               stabilization)
from hdgplate.mesh import Mesh, generate_structured
from meshes import arrays_in, mixed_group_mesh
from oracles import bh_norm, dense_trace_blocks, monolithic_dense


class TestMaterial:
    def test_lambda_derived(self):
        mat = PlateMaterial(E=1.0, nu=0.3, kappa=5.0 / 6.0, t=0.1)
        assert mat.lam == pytest.approx(5.0 / 15.6, rel=1e-15)

    @pytest.mark.parametrize("bad", [
        dict(E=0.0), dict(nu=0.0), dict(nu=0.6), dict(t=0.0),
        dict(t=1.5), dict(kappa=-1.0),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            PlateMaterial(**bad)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    @pytest.mark.parametrize("name", ["E", "kappa"])
    def test_rejects_non_finite_modulus(self, name, value):
        with pytest.raises(ValueError,
                           match=f"^{name} must be positive and finite$"):
            PlateMaterial(**{name: value})

    def test_stabilization_values(self):
        mat1 = PlateMaterial(t=1.0)
        assert stabilization(1.0, mat1) == pytest.approx((1.0, 1.0, 2.0))
        mat2 = PlateMaterial(t=0.01)
        assert stabilization(0.25, mat2) == pytest.approx((4.0, 4.0, 0.2504))

    def test_stabilization_thin_limit(self):
        h = 0.37
        a3 = [stabilization(h, PlateMaterial(t=t))[2]
              for t in (1e-2, 1e-4, 1e-6)]
        assert a3[-1] == pytest.approx(h, rel=1e-10)
        assert a3[0] > a3[1] > h

    def test_stabilization_uses_element_diameter(self):
        # h_K is the element diameter: the cell diagonal at n=2
        mesh = generate_structured("triangle", 2)
        batch = asm.element_batches(mesh)[0]
        got = stabilization(batch.h, PlateMaterial(t=1.0))
        h = np.sqrt(0.5)
        assert batch.h == pytest.approx(np.full(8, h))
        for val, want in zip(got, (1 / h, 1 / h, h + 1 / h)):
            assert val == pytest.approx(np.full(8, want))

    def test_stabilization_accepts_batch_diameters(self):
        h = np.array([1.0, 0.25])
        a1, a2, a3 = stabilization(h, PlateMaterial(t=0.01))
        assert a1 == pytest.approx([1.0, 4.0]) and a2 == pytest.approx(a1)
        assert a3 == pytest.approx([1.0001, 0.2504])
        with pytest.raises(ValueError):
            stabilization(np.array([0.5, 0.0]), PlateMaterial())


class TestConstitutive:
    """The matrix stage two assembles, K[a, b] = (C^{-1} E_a) : E_b on the
    unit (11, 22, 12) tensors, so that tau^T K tau = (C^{-1} tau) : tau."""

    def setup_method(self):
        self.mat = PlateMaterial(E=1.0, nu=0.3)
        self.K = constitutive_inverse_matrix(self.mat)

    def test_identity_tensor_image(self):
        out = self.K @ np.array([1.0, 1.0, 0.0])
        scale = 1.3 / (12 * 0.91)
        assert out == pytest.approx([1 / scale, 1 / scale, 0.0], rel=1e-12)
        assert scale == pytest.approx(0.1190476, rel=1e-6)

    def test_inverse_identity(self):
        # K without the Frobenius weights of its columns inverts C
        rng = np.random.default_rng(0)
        taus = rng.standard_normal((20, 3))
        cinv = self.K / asm._FROBENIUS_W[None, :]
        back = taus @ asm._constitutive_matrix(self.mat).T @ cinv.T
        assert np.abs(back - taus).max() <= 1e-13 * np.abs(taus).max()

    def test_spectral_bracket(self):
        rng = np.random.default_rng(1)
        E, nu = self.mat.E, self.mat.nu
        for tau in rng.standard_normal((30, 3)):
            norm2 = tau[0] ** 2 + tau[1] ** 2 + 2 * tau[2] ** 2
            energy = tau @ self.K @ tau
            assert 12 * (1 - nu) / E * norm2 <= energy * (1 + 1e-12)
            assert energy <= 12 * (1 + nu) / E * norm2 * (1 + 1e-12)


class TestSpaceConfig:
    def test_default_trace_degree(self):
        assert SpaceConfig(2).l == 2

    def test_bounds(self):
        assert SpaceConfig(3, 2).l == 2
        with pytest.raises(ValueError):
            SpaceConfig(0)
        with pytest.raises(ValueError):
            SpaceConfig(2, 0)
        with pytest.raises(ValueError):
            SpaceConfig(2, 3)
        with pytest.raises(ValueError):
            SpaceConfig(1, 0)  # k=1 forces l=1
        for k, l in ((1.5, -1), (2, 1.5), (2.0, 2)):
            with pytest.raises(ValueError, match="must be integers"):
                SpaceConfig(k, l)


class TestDofCounts:
    @staticmethod
    def assert_fields(dof, declared):
        """dof.field reads each declared (name, degree, rank) from x1."""
        x1 = np.arange(dof.n_interior, dtype=float).reshape(
            dof.mesh.num_elements, -1)
        assert list(dof.interior_fields) == [name for name, _, _ in declared]
        for name, degree, rank in declared:
            fld = dof.field(name, x1)
            assert (fld.degree, fld.rank) == (degree, rank)
            assert np.array_equal(fld.coeffs, x1[:, dof.interior_slice(name)])
            comps = dof.components(name)
            assert len(comps) == fld.ncomp
            assert all(c.stop - c.start == fld.nscalar for c in comps)

    def test_step1_counts_k1(self):
        mesh = generate_structured("triangle", 2)
        bs = asm.assemble_step1(mesh, SpaceConfig(1), lambda x, y: 0 * x)
        assert bs.dof.n_interior_per_element == 5
        assert bs.n_interior == 40
        assert bs.n_trace == 8  # interior edges only
        self.assert_fields(bs.dof, [("flux", 0, "vector2"),
                                    ("primal", 1, "scalar")])

    def test_step2_counts_k1(self):
        mesh = generate_structured("triangle", 2)
        L = DiscreteField(mesh, 0, "vector2", np.zeros((8, 2)))
        bs = asm.assemble_step2(mesh, SpaceConfig(1), PlateMaterial(), L)
        assert bs.dof.n_interior_per_element == 14
        assert bs.n_interior == 112
        tf_th = bs.dof.trace_fields["theta_hat"]
        tf_p = bs.dof.trace_fields["p_hat"]
        assert tf_p.offset == 8 * 4        # theta trace block first
        assert bs.n_trace == 8 * 4 + 16 * 1
        self.assert_fields(bs.dof, [
            ("sigma", 0, "symtensor2x2"), ("R", 0, "vector2"),
            ("theta", 1, "vector2"), ("p", 1, "scalar")])

    def test_interior_counts_general_k(self):
        mesh = generate_structured("quadrilateral", 2)
        for k in (1, 2, 3):
            Ts, Tv = fs.space_dim(k - 1), fs.space_dim(k)
            L = DiscreteField(mesh, k - 1, "vector2",
                              np.zeros((4, 2 * Ts)))
            bs = asm.assemble_step2(mesh, SpaceConfig(k), PlateMaterial(), L)
            assert bs.dof.n_interior_per_element == 5 * Ts + 3 * Tv
            self.assert_fields(bs.dof, [
                ("sigma", k - 1, "symtensor2x2"), ("R", k - 1, "vector2"),
                ("theta", k, "vector2"), ("p", k, "scalar")])
            bs1 = asm.assemble_step1(mesh, SpaceConfig(k), lambda x, y: 0 * x)
            assert bs1.dof.n_interior_per_element == 2 * Ts + Tv
            self.assert_fields(bs1.dof, [("flux", k - 1, "vector2"),
                                         ("primal", k, "scalar")])

    def test_boundary_trace_dofs_eliminated(self):
        mesh = generate_structured("triangle", 2)
        bs = asm.assemble_step1(mesh, SpaceConfig(1), lambda x, y: 0 * x)
        ranks = bs.dof.trace_fields["u_hat"].edge_rank
        assert np.array_equal(ranks == -1, mesh.boundary_mask)
        assert np.array_equal(ranks[~mesh.boundary_mask],
                              np.arange(np.count_nonzero(~mesh.boundary_mask)))


def _step2_system(mesh, k=1, t=1.0, with_load=True):
    mat = PlateMaterial(t=t)
    spaces = SpaceConfig(k)
    if with_load:
        ex = vf.exact_fields(mat)
        bs1 = asm.assemble_step1(mesh, spaces, ex.g[0])
        x1, _, _ = slv.solve_stage(bs1)
        L = DiscreteField(mesh, k - 1, "vector2",
                          x1[:, bs1.dof.interior_slice("flux")])
    else:
        L = DiscreteField(mesh, k - 1, "vector2",
                          np.zeros((mesh.num_elements, 2 * fs.space_dim(k - 1))))
    return asm.assemble_step2(mesh, spaces, mat, L), mat, spaces


class TestSystems:
    def test_monolithic_symmetry_all_steps(self):
        mesh = generate_structured("triangle", 2)
        mat = PlateMaterial(t=0.1)
        spaces = SpaceConfig(2)
        ex = vf.exact_fields(mat)
        bs1 = asm.assemble_step1(mesh, spaces, ex.g[0])
        x1, _, _ = slv.solve_stage(bs1)
        L = DiscreteField(mesh, 1, "vector2", x1[:, bs1.dof.interior_slice("flux")])
        bs2 = asm.assemble_step2(mesh, spaces, mat, L)
        y1, _, _ = slv.solve_stage(bs2)
        theta = DiscreteField(mesh, 2, "vector2",
                              y1[:, bs2.dof.interior_slice("theta")])
        bs3 = asm.assemble_step3(bs1, mat, theta, ex.g[0])
        for bs in (bs1, bs2, bs3):
            A, _ = monolithic_dense(bs)
            assert np.abs(A - A.T).max() <= 1e-13 * np.abs(A).max()

    def test_zero_load_gives_zero_solution(self):
        mesh = generate_structured("triangle", 2)
        bs = asm.assemble_step1(mesh, SpaceConfig(1), lambda x, y: 0 * x)
        x1, x2, _ = slv.solve_stage(bs)
        assert np.abs(x1).max() == 0.0 and np.abs(x2).max() == 0.0

    def test_step2_zero_inputs_zero_solution(self):
        mesh = generate_structured("triangle", 2)
        bs, _, _ = _step2_system(mesh, with_load=False)
        y1, y2, _ = slv.solve_stage(bs)
        asm.shift_pressure_to_zero_mean(bs, y1, y2)
        assert np.abs(y1).max() <= 1e-12
        assert np.abs(y2).max() <= 1e-12

    def test_step3_zero_inputs_zero_solution(self):
        mesh = generate_structured("triangle", 2)
        theta = DiscreteField(mesh, 1, "vector2", np.zeros((8, 6)))
        bs1 = asm.assemble_step1(mesh, SpaceConfig(1), lambda x, y: 0 * x)
        bs = asm.assemble_step3(bs1, PlateMaterial(), theta,
                                lambda x, y: 0 * x)
        z1, z2, _ = slv.solve_stage(bs)
        assert np.abs(z1).max() == 0.0 and np.abs(z2).max() == 0.0

    def test_condensed_spd_step1(self):
        mesh = generate_structured("triangle", 4)
        bs = asm.assemble_step1(mesh, SpaceConfig(1), lambda x, y: 0 * x + 1)
        S = slv.condense(bs).S
        assert np.abs((S - S.T).toarray()).max() <= 1e-12 * np.abs(S.toarray()).max()
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = rng.standard_normal(S.shape[0])
            assert x @ (S @ x) > 0

    @pytest.mark.parametrize("kind, k", [("triangle", 1), ("quadrilateral", 3)])
    def test_one_edge_block_per_local_edge(self, monkeypatch, kind, k):
        # every stage slices its smaller edge blocks from one (C, E) pair
        calls = []
        orig = asm._edge_projection_blocks

        def counting(*args):
            calls.append(args[3:])
            return orig(*args)
        monkeypatch.setattr(asm, "_edge_projection_blocks", counting)
        mesh = generate_structured(kind, 2)
        nv = sum(b.nv for b in asm.element_batches(mesh))
        spaces = SpaceConfig(k, max(1, k - 1))
        asm.assemble_step1(mesh, spaces, lambda x, y: 0 * x)
        assert calls == [(k - 1, k)] * nv
        calls.clear()
        L = DiscreteField(mesh, k - 1, "vector2",
                          np.zeros((mesh.num_elements, 2 * fs.space_dim(k - 1))))
        asm.assemble_step2(mesh, spaces, PlateMaterial(), L)
        assert calls == [(spaces.l, k)] * nv

    def test_step3_operator_identical_to_step1(self):
        mesh = generate_structured("quadrilateral", 2)
        spaces = SpaceConfig(2)
        theta = DiscreteField(mesh, 2, "vector2", np.zeros((4, 12)))
        bs1 = asm.assemble_step1(mesh, spaces, lambda x, y: 0 * x)
        bs3 = asm.assemble_step3(bs1, PlateMaterial(), theta,
                                 lambda x, y: 0 * x)
        assert bs3.dof is bs1.dof
        assert bs3.kept_as == bs1.kept_as == ("poisson", 2)
        kept_groups, _ = mesh.kept["poisson", 2]
        shared = [bs1.dof.trace_fields["u_hat"].edge_rank]
        for g0, g1, g3 in zip(kept_groups, bs1.groups, bs3.groups,
                              strict=True):
            for name in ("a11", "terms", "trace_indices"):
                assert getattr(g3, name) is getattr(g1, name) \
                    is getattr(g0, name)
            shared += [g1.a11, g1.trace_indices]
            shared += [arr for term in g1.terms for arr in term[2:]]
            assert g3.b1 is not g1.b1 and g3.b2 is not g1.b2
        for arr in shared:
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 1

    def test_linearity_in_load(self):
        mesh = generate_structured("triangle", 2)
        g = lambda x, y: np.sin(3 * x) + y
        bs_a = asm.assemble_step1(mesh, SpaceConfig(1), g)
        bs_b = asm.assemble_step1(mesh, SpaceConfig(1),
                                  lambda x, y: 2.0 * g(x, y))
        xa, ya, _ = slv.solve_stage(bs_a)
        xb, yb, _ = slv.solve_stage(bs_b)
        assert np.abs(xb - 2 * xa).max() <= 1e-9 * np.abs(xa).max()
        assert np.abs(yb - 2 * ya).max() <= 1e-9 * max(np.abs(ya).max(), 1e-30)

    def test_full_residual_small_all_steps(self):
        mesh = generate_structured("triangle", 4)
        mat = PlateMaterial(t=0.1)
        spaces = SpaceConfig(1)
        ex = vf.exact_fields(mat)
        bs1 = asm.assemble_step1(mesh, spaces, ex.g[0])
        x1, x2, _ = slv.solve_stage(bs1)
        assert slv.full_residual(bs1, x1, x2) <= 1e-10
        L = DiscreteField(mesh, 0, "vector2", x1[:, bs1.dof.interior_slice("flux")])
        bs2 = asm.assemble_step2(mesh, spaces, mat, L)
        y1, y2, _ = slv.solve_stage(bs2)
        # note: the pressure shift happens outside solve_stage
        assert slv.full_residual(bs2, y1, y2) <= 1e-10
        theta = DiscreteField(mesh, 1, "vector2",
                              y1[:, bs2.dof.interior_slice("theta")])
        bs3 = asm.assemble_step3(bs1, mat, theta, ex.g[0])
        z1, z2, _ = slv.solve_stage(bs3)
        assert slv.full_residual(bs3, z1, z2) <= 1e-10

    def test_assembly_deterministic(self):
        mesh = generate_structured("quadrilateral", 3)
        bs_a, _, _ = _step2_system(mesh)
        bs_b, _, _ = _step2_system(mesh)
        for ga, gb in zip(bs_a.groups, bs_b.groups):
            assert np.array_equal(ga.a11, gb.a11)
            assert np.array_equal(ga.trace_columns(slice(None)),
                                  gb.trace_columns(slice(None)))
            assert np.array_equal(ga.b1, gb.b1)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_step2_keeps_no_dense_interior_block(self, k):
        # the flux, and sigma and R, stay in their mass blocks; a11 is the
        # primal block (ne, Tv, Tv), and in stage two the (theta, p) one;
        # the trace columns stay edge-local terms, in the groups and in
        # what the mesh keeps
        mesh = mixed_polygon_mesh()
        bs2, _, _ = _step2_system(mesh, k)
        slv.solve_stage(bs2)  # keeps stage two's pattern and block maps
        theta = DiscreteField(mesh, k, "vector2", np.zeros(
            (mesh.num_elements, 2 * fs.space_dim(k))))
        bs1 = asm.assemble_step1(mesh, SpaceConfig(k), lambda x, y: 0 * x)
        bs3 = asm.assemble_step3(bs1, PlateMaterial(), theta,
                                 lambda x, y: 0 * x)
        Tv = fs.space_dim(k)
        # the a11 blocks, whose (Tv, Tv) at k=1 is a triangle's (ntl, ntl)
        # and a pentagon's (n1, n1), are checked on their own
        a11s = {id(grp.a11) for bs in (bs1, bs2) for grp in bs.groups}
        kept = list(arrays_in(mesh.kept))
        for bs, n in ((bs1, Tv), (bs2, 3 * Tv), (bs3, Tv)):
            n1 = bs.dof.n_interior_per_element
            for grp in bs.groups:
                ne, ntl = grp.trace_indices.shape
                assert grp.a11.shape == (ne, n, n)
                dense = {(n1, n1), (n1, ntl), (ntl, ntl)}
                for arr in [*arrays_in(grp), *kept]:
                    assert (id(arr) in a11s or arr.ndim < 3
                            or arr.shape[-2:] not in dense), (bs.stage, arr.shape)

    def test_step2_retains_only_edge_local_blocks(self):
        # measured at tri n=16 k=3: 5.73 MB retained, 3.69 MB of it a11;
        # with the dense a12 and a22 it was 17.5 MB
        mesh = generate_structured("triangle", 16)
        L = DiscreteField(mesh, 2, "vector2",
                          np.zeros((mesh.num_elements, 2 * fs.space_dim(2))))
        asm.element_batches(mesh)  # kept by the mesh, not by the system
        gc.collect()
        tracemalloc.start()
        try:
            bs = asm.assemble_step2(mesh, SpaceConfig(3), PlateMaterial(), L)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert bs.groups and retained <= 6.0e6

    def test_missing_stage_inputs_raise(self):
        mesh = generate_structured("triangle", 1)
        with pytest.raises(ValueError):
            asm.assemble_step2(mesh, SpaceConfig(1), PlateMaterial(), None)
        bs1 = asm.assemble_step1(mesh, SpaceConfig(1), lambda x, y: 0 * x)
        g = lambda x, y: 0 * x
        with pytest.raises(ValueError, match="stage-two rotation"):
            asm.assemble_step3(bs1, PlateMaterial(), None, g)
        L = DiscreteField(mesh, 0, "vector2", np.zeros((2, 2)))
        theta = DiscreteField(mesh, 1, "vector2", np.zeros((2, 6)))
        bs2 = asm.assemble_step2(mesh, SpaceConfig(1), PlateMaterial(), L)
        with pytest.raises(ValueError, match="stage-one system, not a 'step2'"):
            asm.assemble_step3(bs2, PlateMaterial(), theta, g)
        other = generate_structured("triangle", 2)
        with pytest.raises(ValueError, match="stage-one system's mesh"):
            asm.assemble_step3(bs1, PlateMaterial(), DiscreteField(
                other, 1, "vector2", np.zeros((8, 6))), g)
        with pytest.raises(ValueError, match="degree 3, the stage-one system k=1"):
            asm.assemble_step3(bs1, PlateMaterial(), DiscreteField(
                mesh, 3, "vector2", np.zeros((2, 20))), g)


class TestTraceColumns:
    """Every stage keeps its trace columns as edge-local terms; densified
    one chunk at a time they are, bit for bit, the dense blocks that
    assembly wrote before (``oracles.dense_trace_blocks``)."""

    MESHES = {"tri": lambda: generate_structured("triangle", 2),
              "quad": lambda: generate_structured("quadrilateral", 2),
              "mixed": mixed_group_mesh}

    @pytest.mark.parametrize("t", [1.0, 1e-6])
    @pytest.mark.parametrize("k,l", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)])
    @pytest.mark.parametrize("kind", MESHES)
    def test_equal_the_dense_assembly_bit_for_bit(self, monkeypatch, kind,
                                                  k, l, t):
        mesh, spaces = self.MESHES[kind](), SpaceConfig(k, l)
        mat, ne = PlateMaterial(t=t), mesh.num_elements
        rng = np.random.default_rng(k)
        L = DiscreteField(mesh, k - 1, "vector2",
                          rng.standard_normal((ne, 2 * fs.space_dim(k - 1))))
        theta = DiscreteField(mesh, k, "vector2",
                              rng.standard_normal((ne, 2 * fs.space_dim(k))))
        g = lambda x, y: 1.0 + x * y
        bs1 = asm.assemble_step1(mesh, spaces, g)
        chunks = (1, slv._CHUNK_BYTES, 10 ** 12)
        for bs in (bs1, asm.assemble_step2(mesh, spaces, mat, L),
                   asm.assemble_step3(bs1, mat, theta, g)):
            ref = dense_trace_blocks(bs, mat)
            for chunk in chunks:
                monkeypatch.setattr(slv, "_CHUNK_BYTES", chunk)
                for grp, (a12, a22, idx) in zip(bs.groups, ref, strict=True):
                    got = np.concatenate([grp.trace_columns(e)
                                          for e in slv._chunks(grp)])
                    want = np.concatenate([a12, a22], axis=1)
                    assert got.tobytes() == want.tobytes(), (bs.stage, chunk)
                    assert np.array_equal(grp.trace_indices, idx)


def fan_rule(verts, degree):
    """Per-element reference rule: the femspace triangle rule mapped onto
    the fan of sub-triangles from the vertex mean of a convex polygon."""
    ref, w = fs.triangle_reference_rule(degree)
    c = verts.mean(axis=0)
    pts, wts = [], []
    for a, b in zip(verts - c, np.roll(verts, -1, axis=0) - c):
        pts.append(c + ref[:, :1] * a + ref[:, 1:] * b)
        wts.append(w * (a[0] * b[1] - a[1] * b[0]))
    return np.vstack(pts), np.concatenate(wts)


class TestBatchedQuadrature:
    @pytest.mark.parametrize("kind", ["triangle", "quadrilateral"])
    def test_batched_rule_matches_femspace_rule(self, kind):
        # the batched rule assembly uses must integrate like a plain
        # per-element loop over the reference rule
        mesh = generate_structured(kind, 2)
        batch = asm.element_batches(mesh)[0]
        for degree in (3, 8):
            pts, w = batch.volume_rule(degree)
            for row in range(len(batch.ids)):
                ref_pts, ref_w = fan_rule(batch.verts[row], degree)
                for a, b in ((0, 0), (2, 1), (degree, 0), (1, degree - 1)):
                    got = (w[row] * pts[row, :, 0] ** a
                           * pts[row, :, 1] ** b).sum()
                    want = (ref_w * ref_pts[:, 0] ** a
                            * ref_pts[:, 1] ** b).sum()
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-16)


class TestRebuiltMeshSolve:
    def test_rebuilt_mesh_reproduces_solution_bitwise(self):
        # nothing kept on one mesh may leak into a solve on another
        mesh = generate_structured("triangle", 4)
        rebuilt = Mesh(mesh.points,
                       [el.vertex_loop for el in mesh.elements])
        mat = PlateMaterial(t=0.1)
        ex = vf.exact_fields(mat)
        a = vf.solve_plate(mesh, SpaceConfig(1), mat, ex)
        b = vf.solve_plate(rebuilt, SpaceConfig(1), mat, ex)
        assert np.array_equal(a.omega.coeffs, b.omega.coeffs)
        assert np.array_equal(a.gamma.coeffs, b.gamma.coeffs)


def mixed_polygon_mesh():
    """A rectangle split into one convex pentagon and one triangle."""
    points = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0],
                       [2.0, 1.0], [2.0, 2.0], [0.0, 2.0]])
    loops = [(1, 2, 3), (0, 1, 3, 4, 5)]
    return Mesh(points, loops)


class TestGeneralPolygons:
    def test_mixed_mesh_assembles_in_groups(self):
        mesh = mixed_polygon_mesh()
        bs = asm.assemble_step1(mesh, SpaceConfig(1), lambda x, y: 0 * x + 1)
        assert len(bs.groups) == 2
        sizes = sorted(g.trace_indices.shape[1] for g in bs.groups)
        assert sizes == [3, 5]  # one trace dof per edge and element side

    def test_all_stages_match_dense_oracle_on_mixed_mesh(self):
        mesh = mixed_polygon_mesh()
        mat = PlateMaterial(t=0.1)
        spaces = SpaceConfig(2)
        ex = vf.exact_fields(mat)
        cfg = slv.SolverConfig(tol=1e-13)

        bs1 = asm.assemble_step1(mesh, spaces, ex.g[0])
        x1, x2, _ = slv.solve_stage(bs1, cfg)
        A, b = monolithic_dense(bs1)
        ref = np.linalg.solve(A, b)
        ni = bs1.n_interior
        x1_ref = np.empty_like(x1)
        n1 = bs1.dof.n_interior_per_element
        for e in range(mesh.num_elements):
            x1_ref[e] = ref[e * n1:(e + 1) * n1]
        assert np.abs(x1 - x1_ref).max() <= 1e-9 * np.abs(x1_ref).max()
        assert np.abs(x2 - ref[ni:]).max() <= 1e-9 * np.abs(ref[ni:]).max()

        L = DiscreteField(mesh, 1, "vector2", x1[:, bs1.dof.interior_slice("flux")])
        bs2 = asm.assemble_step2(mesh, spaces, mat, L)
        y1, y2, _ = slv.solve_stage(bs2, cfg)
        A2, b2 = monolithic_dense(bs2)
        ref2, *_ = np.linalg.lstsq(A2, b2, rcond=None)
        ni2 = bs2.n_interior
        n1 = bs2.dof.n_interior_per_element
        y1_ref = ref2[:ni2].reshape(mesh.num_elements, n1)
        y2_ref = ref2[ni2:].copy()
        for yy1, yy2 in ((y1, y2), (y1_ref, y2_ref)):
            asm.shift_pressure_to_zero_mean(bs2, yy1, yy2)
        assert np.abs(y1 - y1_ref).max() <= 1e-8 * np.abs(y1_ref).max()
        assert np.abs(y2 - y2_ref).max() <= 1e-8 * np.abs(y2_ref).max()

        theta = DiscreteField(mesh, 2, "vector2",
                              y1[:, bs2.dof.interior_slice("theta")])
        bs3 = asm.assemble_step3(bs1, mat, theta, ex.g[0])
        z1, z2, _ = slv.solve_stage(bs3, cfg)
        A3, b3 = monolithic_dense(bs3)
        ref3 = np.linalg.solve(A3, b3)
        assert np.abs(z1.ravel() - ref3[:bs3.n_interior]).max() \
            <= 1e-9 * np.abs(ref3[:bs3.n_interior]).max()


class TestGammaRecovery:
    def test_zero_moment_gives_flux(self):
        mesh = generate_structured("triangle", 1)
        L = DiscreteField(mesh, 0, "vector2", np.arange(4.0).reshape(2, 2))
        R = DiscreteField(mesh, 0, "vector2", np.zeros((2, 2)))
        gamma = recover_gamma(L, R, PlateMaterial(t=0.5))
        assert np.array_equal(gamma.coeffs, L.coeffs)

    def test_unit_lambda_t(self):
        # kappa * E / (2 (1 + nu)) = 1 for E = 2.6, nu = 0.3, kappa = 1
        mat = PlateMaterial(E=2.6, nu=0.3, kappa=1.0, t=1.0)
        assert mat.lam == pytest.approx(1.0, rel=1e-15)
        mesh = generate_structured("triangle", 1)
        L = DiscreteField(mesh, 0, "vector2", np.zeros((2, 2)))
        R = DiscreteField(mesh, 0, "vector2", np.arange(4.0).reshape(2, 2))
        gamma = recover_gamma(L, R, mat)
        assert np.allclose(gamma.coeffs, R.coeffs, rtol=1e-15)

    def test_linearity(self):
        mesh = generate_structured("triangle", 1)
        rng = np.random.default_rng(4)
        Lc, Rc = rng.standard_normal((2, 2, 2))
        mat = PlateMaterial(t=0.3)
        g1 = recover_gamma(DiscreteField(mesh, 0, "vector2", 3.0 * Lc),
                           DiscreteField(mesh, 0, "vector2", 3.0 * Rc), mat)
        g2 = recover_gamma(DiscreteField(mesh, 0, "vector2", Lc),
                           DiscreteField(mesh, 0, "vector2", Rc), mat)
        assert np.allclose(g1.coeffs, 3.0 * g2.coeffs, rtol=1e-14)

    def test_shape_mismatch(self):
        mesh = generate_structured("triangle", 1)
        L = DiscreteField(mesh, 0, "vector2", np.zeros((2, 2)))
        R = DiscreteField(mesh, 1, "vector2", np.zeros((2, 6)))
        with pytest.raises(ValueError):
            recover_gamma(L, R, PlateMaterial())


class TestEnergyNorm:
    def test_zero_state_has_zero_norm(self):
        mesh = generate_structured("triangle", 2)
        spaces = SpaceConfig(1)
        mat = PlateMaterial(t=0.5)
        zero_s = DiscreteField(mesh, 0, "symtensor2x2", np.zeros((8, 3)))
        zero_v = DiscreteField(mesh, 0, "vector2", np.zeros((8, 2)))
        zero_t = DiscreteField(mesh, 1, "vector2", np.zeros((8, 6)))
        zero_p = DiscreteField(mesh, 1, "scalar", np.zeros((8, 3)))
        th_hat = np.zeros((16, 4))
        p_hat = np.zeros((16, 1))
        val = bh_norm(mesh, spaces, mat, zero_s, zero_v, zero_t,
                      th_hat, zero_p, p_hat)
        assert val == 0.0

    def test_random_state_is_positive(self):
        mesh = generate_structured("triangle", 2)
        spaces = SpaceConfig(1)
        mat = PlateMaterial(t=0.5)
        rng = np.random.default_rng(12)
        states = [
            (rng.standard_normal((8, 3)), np.zeros((8, 2)),
             np.zeros((8, 6)), np.zeros((16, 4)), np.zeros((8, 3)),
             np.zeros((16, 1))),
            (np.zeros((8, 3)), np.zeros((8, 2)), np.zeros((8, 6)),
             rng.standard_normal((16, 4)), np.zeros((8, 3)),
             np.zeros((16, 1))),
            (np.zeros((8, 3)), np.zeros((8, 2)), np.zeros((8, 6)),
             np.zeros((16, 4)), np.zeros((8, 3)),
             rng.standard_normal((16, 1))),
        ]
        for sc, rc, tc, th, pc, ph in states:
            val = bh_norm(
                mesh, spaces, mat,
                DiscreteField(mesh, 0, "symtensor2x2", sc),
                DiscreteField(mesh, 0, "vector2", rc),
                DiscreteField(mesh, 1, "vector2", tc), th,
                DiscreteField(mesh, 1, "scalar", pc), ph)
            assert val > 0.0
