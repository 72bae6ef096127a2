import gc
import re
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
from hdgplate.mesh import Mesh, MeshTopologyError, generate_structured
from meshes import (FAMILIES, arrays_in, mixed_group_mesh, mixed_strip,
                    on_unit_square)
from oracles import (bh_norm, dense_interior_columns, dense_trace_blocks,
                     load_b1, monolithic_dense)


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

    @pytest.mark.parametrize("t", [1e-155, 1e-170])
    def test_rejects_t_the_solver_cannot_use(self, t):
        # lam / t^2 overflows at 1e-155; t^2 underflows to 0 at 1e-170
        with pytest.raises(ValueError, match=f"^t={t!r} is too small"):
            PlateMaterial(t=t)

    # a bool is a Real, taken as t=1; a string failed in a comparison
    @pytest.mark.parametrize("value", [True, "0.1"])
    def test_rejects_t_that_is_not_a_number(self, value):
        with pytest.raises(ValueError,
                           match=re.escape(f"t={value!r} must be a real")):
            PlateMaterial(t=value)

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
        cinv = self.K / asm._COMPONENT_WEIGHTS["symtensor2x2"]
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

    # a bool is an Integral, but SpaceConfig(True) would write True into
    # the CSV's k column
    @pytest.mark.parametrize("k, l, name", [(True, -1, "k=True"),
                                            (2, True, "l=True")])
    def test_rejects_bool_degrees(self, k, l, name):
        with pytest.raises(ValueError, match=name):
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
        # interior edges are ranked in nested-dissection order
        order = mesh.edge_order[~mesh.boundary_mask[mesh.edge_order]]
        assert np.array_equal(ranks[order], np.arange(len(order)))

    def test_trace_to_edge_array_reads_the_trace_dofs(self):
        mesh = generate_structured("quadrilateral", 3)
        bs1 = asm.assemble_step1(mesh, SpaceConfig(2), lambda x, y: 0 * x)
        L = DiscreteField(mesh, 1, "vector2", np.zeros((9, 6)))
        bs2 = asm.assemble_step2(mesh, SpaceConfig(2), PlateMaterial(), L)
        # u_hat drops the boundary edges, p_hat keeps every edge
        for dof, name, dropped in (
                (bs1.dof, "u_hat", mesh.boundary_mask),
                (bs2.dof, "p_hat", np.zeros(mesh.num_edges, bool))):
            f = dof.trace_fields[name]
            x2 = np.arange(1.0, dof.n_trace + 1)
            out = dof.trace_to_edge_array(name, x2)
            assert out.shape == (mesh.num_edges, f.per_edge)
            assert np.array_equal(f.edge_rank < 0, dropped)
            assert not out[dropped].any()
            kept = np.flatnonzero(~dropped)
            assert np.array_equal(out[kept], x2[f.dofs(kept)])

    @pytest.mark.parametrize("length", [39, 43])
    def test_trace_to_edge_array_rejects_a_trace_of_another_length(
            self, length):
        # tri n=4 k=1 keeps 40 u_hat dofs: 39 entries once read the
        # appended 0 for the last, 43 left three unread
        mesh = generate_structured("triangle", 4)
        dof = asm.assemble_step1(mesh, SpaceConfig(1), lambda x, y: 0 * x).dof
        assert dof.n_trace == 40
        message = rf"^x2: shape \({length},\), expected \(40,\)$"
        with pytest.raises(ValueError, match=message):
            dof.trace_to_edge_array("u_hat", np.ones(length))


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
        # every stage slices its edge blocks from one (C, E) pair per local
        # edge, of the degree-k edge basis, built once per mesh
        calls = []
        orig = asm._edge_projection_blocks

        def counting(*args):
            calls.append(args[3:])
            return orig(*args)
        monkeypatch.setattr(asm, "_edge_projection_blocks", counting)
        mesh = generate_structured(kind, 2)
        nv = sum(b.nv for b in asm.element_batches(mesh))
        spaces = SpaceConfig(k, max(1, k - 1))
        g = lambda x, y: 0 * x
        bs1 = asm.assemble_step1(mesh, spaces, g)
        assert calls == [(k, k)] * nv
        calls.clear()
        L = DiscreteField(mesh, k - 1, "vector2",
                          np.zeros((mesh.num_elements, 2 * fs.space_dim(k - 1))))
        asm.assemble_step2(mesh, spaces, PlateMaterial(), L)
        theta = DiscreteField(mesh, k, "vector2",
                              np.zeros((mesh.num_elements, 2 * fs.space_dim(k))))
        asm.assemble_step3(bs1, PlateMaterial(), theta, g)
        assert calls == []

    def test_step3_operator_identical_to_step1(self):
        # stage three builds stage one's operator again on its dof map:
        # every term the same views of the kept local set, the same
        # scales bit for bit, and so the same S, bit for bit
        mesh = generate_structured("quadrilateral", 2)
        spaces = SpaceConfig(2)
        theta = DiscreteField(mesh, 2, "vector2", np.zeros((4, 12)))
        bs1 = asm.assemble_step1(mesh, spaces, lambda x, y: 0 * x)
        bs3 = asm.assemble_step3(bs1, PlateMaterial(), theta,
                                 lambda x, y: 0 * x)
        assert bs3.dof is bs1.dof
        local = list(arrays_in(mesh.kept["local", 2]))
        shared = [bs1.dof.trace_fields["u_hat"].edge_rank]
        for g1, g3 in zip(bs1.groups, bs3.groups, strict=True):
            for name in ("a11", "a12", "a22"):
                for t1, t3 in zip(getattr(g1, name), getattr(g3, name),
                                  strict=True):
                    assert t1[:2] == t3[:2]
                    assert t1[2].tobytes() == t3[2].tobytes()
                    assert t1[3].tobytes() == t3[3].tobytes()
                    assert any(np.shares_memory(t1[3], a) for a in local)
                    assert any(np.shares_memory(t3[3], a) for a in local)
                    shared.append(t3[3])
            assert np.array_equal(g1.trace_indices, g3.trace_indices)
            assert g3.b1 is not g1.b1 and g3.b2 is not g1.b2
        for arr in shared:  # what the two stages share, neither may write
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 1
        S1, S3 = slv.condense(bs1).S, slv.condense(bs3).S
        for name in ("data", "indices", "indptr"):
            assert getattr(S1, name).tobytes() == getattr(S3, name).tobytes()

    def test_a_solve_keeps_no_operator(self):
        # every stage builds its system per solve from the kept local set:
        # the mesh keeps the edge order, the batches, the local set and the
        # trace patterns, and no stage's element groups
        mesh = on_unit_square(mixed_strip(2))
        mat = PlateMaterial(t=1e-2)
        vf.solve_plate(mesh, SpaceConfig(2), mat, vf.exact_fields(mat))
        assert {key if isinstance(key, str) else key[0] for key in mesh.kept
                } == {"edge_order", "element_batches", "local", "pattern"}
        assert [key for key in mesh.kept if key[0] == "local"] == [("local", 2)]
        assert not hasattr(asm.BlockSystem(None, []), "kept_as")

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
            assert np.array_equal(ga.interior_columns(slice(None)),
                                  gb.interior_columns(slice(None)))
            for name in ("a12", "a22"):
                assert np.array_equal(ga.trace_block(slice(None), name),
                                      gb.trace_block(slice(None), name))
            assert np.array_equal(ga.b1, gb.b1)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_step2_keeps_no_dense_interior_block(self, k):
        # the flux, and sigma and R, stay in their mass blocks; a11 is the
        # primal columns, two flux terms and the primal penalty, and in
        # stage two the (theta, p) ones, terms over kept (ne, Tv, Tv)
        # blocks, of which stage two allocates none; the trace columns
        # stay edge-local terms, in the groups and in what the mesh keeps
        mesh = mixed_polygon_mesh()
        bs2, _, _ = _step2_system(mesh, k)
        slv.solve_stage(bs2)  # keeps the pattern of stage two's blocks
        theta = DiscreteField(mesh, k, "vector2", np.zeros(
            (mesh.num_elements, 2 * fs.space_dim(k))))
        bs1 = asm.assemble_step1(mesh, SpaceConfig(k), lambda x, y: 0 * x)
        bs3 = asm.assemble_step3(bs1, PlateMaterial(), theta,
                                 lambda x, y: 0 * x)
        Tv = fs.space_dim(k)
        # the kept edge sums P, the penalties' blocks, whose (Tv, Tv) at
        # k <= 2 is a triangle's (ntl, ntl), are checked on their own; so
        # are the kept patterns' places, one per element, local row block
        # and column of each stored block, which at k=1 are a triangle's
        # (ntl, ntl) in the Poisson layout
        local = mesh.kept["local", k]
        primal = {id(block) for *_, P in local for block in P}
        # so are the kept derivative blocks D = (EX, EY), (2, ne, Tv, Tv),
        # whose views are terms of a11, not a dense interior block
        primal |= {id(D) for _, D, _, _ in local}
        # stage two's (ne, Tv, Tv) blocks are all views of the kept set
        for grp in bs2.groups:
            for arr in arrays_in(grp):
                assert (arr.ndim < 3 or arr.shape[-2:] != (Tv, Tv)
                        or any(np.shares_memory(arr, a)
                               for a in arrays_in(local))), arr.shape
        places = set()
        for bs in (bs1, bs2):
            fields = list(bs.dof.trace_fields.values())
            pattern = mesh.kept["pattern", tuple((f.per_edge, f.dirichlet)
                                                 for f in fields)]
            for grp, starts in zip(bs.groups, pattern["starts"], strict=True):
                ne, nv = grp.batch.edge_ids.shape
                assert [start.shape for start in starts] == [
                    (ne, nv, nv * g.per_edge) for i, f in enumerate(fields)
                    for g in fields[i:]]
                places.update(map(id, starts))
        kept = list(arrays_in(mesh.kept))
        for bs, n in ((bs1, Tv), (bs2, 3 * Tv), (bs3, Tv)):
            n1 = bs.dof.n_interior_per_element
            for grp in bs.groups:
                ne, ntl = grp.trace_indices.shape
                assert grp.interior_columns(slice(None)).shape == (ne, n1, n)
                dense = {(n, n), (n1, n), (n1, n1), (n1, ntl), (ntl, ntl)}
                for arr in [*arrays_in(grp), *kept]:
                    assert (id(arr) in primal | places or arr.ndim < 3
                            or arr.shape[-2:] not in dense), (bs.stage, arr.shape)

    def test_step2_retains_only_edge_local_blocks(self):
        # measured at tri n=16 k=3: 3.16 MB retained, 3.65 MB when the
        # mass fields' D copied the leading rows of a11's (curl, p)
        # blocks, 5.69 MB with the dense (theta, p) block a11 and 17.5 MB
        # with the dense a12 and a22; a11's seven terms hold four (ne, Tv,
        # Tv) blocks, 1.64 MB, where the dense block held 3.69 MB
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
        (grp,) = bs.groups
        blocks = {b.ctypes.data for _, _, _, b in grp.a11}
        assert len(grp.a11) == 13 and len(blocks) == 4
        # the coupling terms are views of a11's (curl, p) blocks, not copies
        assert all(any(np.shares_memory(b, c) for _, _, _, c in grp.a11[8:12])
                   for _, _, _, b in grp.a11[:6])
        assert retained <= 4.0e6
        assert retained <= 3.4e6

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
        # a scalar theta at k=2 has 6 coefficients, which would split
        # silently into two components of 3
        bs1 = asm.assemble_step1(mesh, SpaceConfig(2), g)
        with pytest.raises(ValueError, match="^the stage-two rotation is a "
                           "scalar field, not vector2$"):
            asm.assemble_step3(bs1, PlateMaterial(), DiscreteField(
                mesh, 2, "scalar", np.ones((2, 6))), g)

    @pytest.mark.parametrize("case", ["mesh", "degree", "rank", "finite"])
    def test_stage_two_checks_its_flux(self, case):
        # on tri n=4, L's first 8 rows once assembled stage two on tri
        # n=2; a degree-k L assembled too, and a scalar one raised numpy's
        # broadcast error
        mesh = generate_structured("triangle", 2)
        ne, n = mesh.num_elements, fs.space_dim(1)
        nan_from_5 = np.zeros((ne, 2 * n))
        nan_from_5[5:, 0] = np.nan
        L = {"mesh": DiscreteField(generate_structured("triangle", 4), 1,
                                   "vector2", np.zeros((32, 2 * n))),
             "degree": DiscreteField(mesh, 2, "vector2",
                                     np.zeros((ne, 2 * fs.space_dim(2)))),
             "rank": DiscreteField(mesh, 1, "scalar", np.zeros((ne, n))),
             "finite": DiscreteField(mesh, 1, "vector2", nan_from_5)}[case]
        message = {"mesh": "is not on the stage-two system's mesh",
                   "degree": "has degree 2, the stage-two system k=2 needs 1",
                   "rank": "is a scalar field, not vector2",
                   "finite": "is not finite on element 5"}[case]
        with pytest.raises(ValueError, match=f"^the stage-one flux {message}$"):
            asm.assemble_step2(mesh, SpaceConfig(2), PlateMaterial(), L)

    def test_pressure_shift_needs_the_stage_two_system(self):
        # a stage-one system has no p_hat to shift
        bs1 = asm.assemble_step1(generate_structured("triangle", 2),
                                 SpaceConfig(1), lambda x, y: 1.0 + x)
        x1, x2, _ = slv.solve_stage(bs1)
        with pytest.raises(ValueError, match="pressure shift needs the "
                           "stage-two system, not a 'step1' system"):
            asm.shift_pressure_to_zero_mean(bs1, x1, x2)

    @pytest.mark.parametrize("shape", [(50,), (46,), (48, 1)],
                             ids=["long", "short", "2-D"])
    def test_pressure_shift_checks_the_trace_vector(self, shape):
        # the long one was shifted silently, the others failed with an
        # IndexError; x1 is left as it was
        bs, _, _ = _step2_system(generate_structured("triangle", 2))
        y1, y2, _ = slv.solve_stage(bs)
        assert y2.shape == (48,)
        x2 = np.resize(y2, shape)
        before = y1.copy()
        with pytest.raises(ValueError,
                           match=re.escape(f"x2: shape {shape}, expected (48,)")):
            asm.shift_pressure_to_zero_mean(bs, y1, x2)
        assert np.array_equal(y1, before)


class TestLoads:
    """All three stages take their data's P_k moments through one path;
    stages one and two's ``b1`` is, bit for bit, the per-component moment
    they computed before (``oracles.load_b1``), and stage three's, whose
    theta moments come from the local matrices, is the oracle's quadrature
    of div theta to rounding."""

    MESHES = {"tri": lambda: generate_structured("triangle", 3),
              "quad": lambda: generate_structured("quadrilateral", 3),
              "mixed_strip": lambda: mixed_strip(2)}

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("kind", MESHES)
    def test_equal_the_per_component_moments_bit_for_bit(self, kind, k):
        mesh, spaces = self.MESHES[kind](), SpaceConfig(k)
        mat, ne = PlateMaterial(t=1e-2), mesh.num_elements
        ex = vf.exact_fields(mat)
        rng = np.random.default_rng(k)
        L = DiscreteField(mesh, k - 1, "vector2",
                          rng.standard_normal((ne, 2 * fs.space_dim(k - 1))))
        theta = DiscreteField(mesh, k, "vector2",
                              rng.standard_normal((ne, 2 * fs.space_dim(k))))
        g = ex.g[0]
        bs1 = asm.assemble_step1(mesh, spaces, g)
        cases = [(bs1, dict(g=g)),
                 (asm.assemble_step2(mesh, spaces, mat, L, ex.f),
                  dict(L=L, f=ex.f)),
                 (asm.assemble_step2(mesh, spaces, mat, L), dict(L=L)),
                 (asm.assemble_step3(bs1, mat, theta, g),
                  dict(g=g, theta=theta))]
        for bs, data in cases:
            want = load_b1(bs, mat, **data)
            for grp, b1 in zip(bs.groups, want, strict=True):
                if bs.stage != "step3":
                    assert grp.b1.tobytes() == b1.tobytes(), bs.stage
                else:
                    # measured at most 7.1e-16 of the largest entry over
                    # these nine cases, at one BLAS thread
                    assert (np.abs(grp.b1 - b1).max()
                            <= 2e-15 * np.abs(b1).max())

    def test_step3_loads_of_the_position_field(self):
        # theta = (x, y), g = 0 on a triangle and a pentagon: b1 is
        # -(div theta, phi_j) = -2 int_K phi_j, and on a straight edge from
        # p to q, theta . n |e| is the cross product p x q, so b2[e, m] =
        # int_e theta . n s^m = (p x q) / (m + 1)
        points = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0],
                           [2.0, 1.0], [2.0, 2.0], [0.0, 2.0]])
        mesh = Mesh(points, [(1, 2, 3), (0, 1, 3, 4, 5)])
        (cx, cy), h = mesh.centroid.T, mesh.diameter
        zero = lambda x, y: 0 * x
        for k in (1, 2, 3):
            coeffs = np.zeros((2, 2, fs.space_dim(k)))
            coeffs[:, 0, :2] = np.column_stack([cx, h])  # x = cx + h xi
            coeffs[:, 1, 0], coeffs[:, 1, 2] = cy, h      # y = cy + h eta
            theta = DiscreteField(mesh, k, "vector2", coeffs.reshape(2, -1))
            bs1 = asm.assemble_step1(mesh, SpaceConfig(k), zero)
            bs3 = asm.assemble_step3(bs1, PlateMaterial(), theta, zero)
            sl_r = bs3.dof.interior_slice("primal")
            for grp in bs3.groups:
                batch = grp.batch
                pts, w = batch.volume_rule(k)
                phi = fs.scalar_vals(fs.monomial_exponents(k), batch.centroid,
                                     batch.h, pts)
                b1 = np.zeros_like(grp.b1)
                b1[:, sl_r] = -2.0 * np.einsum("enq,eq->en", phi, w)
                assert grp.b1 == pytest.approx(b1, rel=1e-13, abs=1e-13)
                p, q = batch.verts, np.roll(batch.verts, -1, axis=1)
                cross = p[..., 0] * q[..., 1] - p[..., 1] * q[..., 0]
                b2 = cross[..., None] / np.arange(1, k + 1)
                assert grp.b2 == pytest.approx(b2.reshape(len(b2), -1),
                                               rel=1e-13, abs=1e-13)

    @staticmethod
    def _stages(mesh, k, g, f):
        """Each stage's system with the load ``g`` (``f`` in stage two)."""
        ne, rng = mesh.num_elements, np.random.default_rng(k)
        L = DiscreteField(mesh, k - 1, "vector2",
                          rng.standard_normal((ne, 2 * fs.space_dim(k - 1))))
        theta = DiscreteField(mesh, k, "vector2",
                              rng.standard_normal((ne, 2 * fs.space_dim(k))))
        mat, spaces = PlateMaterial(t=1e-2), SpaceConfig(k)
        return {"step1": lambda: asm.assemble_step1(mesh, spaces, g),
                "step2": lambda: asm.assemble_step2(mesh, spaces, mat, L, f),
                "step3": lambda: asm.assemble_step3(asm.assemble_step1(
                    mesh, spaces, lambda x, y: 0 * x), mat, theta, g)}

    @pytest.mark.parametrize("stage", ["step1", "step2", "step3"])
    def test_constant_loads_fill_the_points(self, stage):
        # a constant g, or a constant component of f, is the load at
        # every point
        mesh = generate_structured("triangle", 4)
        got = self._stages(mesh, 2, lambda x, y: 1.0,
                           lambda x, y: (0.0, 1.0))[stage]()
        want = self._stages(mesh, 2, lambda x, y: 1.0 + 0 * x,
                            lambda x, y: (0 * x, 1.0 + 0 * x))[stage]()
        for a, b in zip(got.groups, want.groups, strict=True):
            assert a.b1.tobytes() == b.b1.tobytes()

    @pytest.mark.parametrize("stage", ["step1", "step2", "step3"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_load_names_its_element(self, stage, bad):
        # the load is bad only on the top right cell's elements, so the
        # error names the first of them, not element 0
        mesh = generate_structured("triangle", 4)
        corner = lambda x, y: np.where((x > 0.75) & (y > 0.75), bad, 1.0)
        first = np.flatnonzero((mesh.centroid > 0.75).all(axis=1)).min()
        build = self._stages(mesh, 1, corner,
                             lambda x, y: (0 * x, corner(x, y)))[stage]
        with pytest.raises(ValueError, match=f"the load's moments on "
                           f"element {first} are not finite"):
            build()

    @pytest.mark.parametrize("stage, load, got", [
        ("step2", lambda x, y: (x,), (1, 8, 25)),
        ("step2", lambda x, y: x, (8, 25)),
        ("step2", lambda x, y: (x, y, x), (3, 8, 25)),
        ("step2", lambda x, y: 1.0, ()),
        ("step1", lambda x, y: (x, x), (2, 8, 25)),
        ("step3", lambda x, y: (x, x), (2, 8, 25)),
    ], ids=["f-one", "f-array", "f-three", "f-constant", "g-two",
            "g-two-step3"])
    def test_a_load_of_the_wrong_shape_is_named(self, stage, load, got):
        # tri n=2, k=1: 8 elements of 25 load points; f = (x,) assembled
        # as (x, x), the others failed inside numpy
        mesh, zero = generate_structured("triangle", 2), lambda x, y: 0 * x
        name = "f" if stage == "step2" else "g"
        g, f = (zero, load) if name == "f" else (load, None)
        build = self._stages(mesh, 1, g, f)[stage]
        with pytest.raises(ValueError, match=re.escape(
                f"the load {name} returned shape {got} at points of shape "
                "(8, 25)")):
            build()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_rotation_names_its_element(self, bad):
        # theta is bad only on the top right cell's elements, 30 and 31
        mesh = generate_structured("triangle", 4)
        coeffs = np.ones((mesh.num_elements, 6))
        coeffs[(mesh.centroid > 0.75).all(axis=1), 4] = bad
        theta = DiscreteField(mesh, 1, "vector2", coeffs)
        zero = lambda x, y: 0 * x
        bs1 = asm.assemble_step1(mesh, SpaceConfig(1), zero)
        with pytest.raises(ValueError, match="^the stage-two rotation is not "
                           "finite on element 30$"):
            asm.assemble_step3(bs1, PlateMaterial(t=1e-2), theta, zero)


class TestSimplyConnected:
    """Stage two needs a simply connected domain; stages one and three
    do not, so a mesh with a hole or two components builds and assembles
    them."""

    @pytest.mark.parametrize("removed,message", [
        ({27, 28, 35, 36}, "Euler characteristic V - E + F = 0, not 1"),
        (set(range(3, 64, 8)), "2 edge-connected components"),
        # two diagonal neighbours: a hole pinched at their shared vertex
        ({27, 36}, "Euler characteristic V - E + F = -1, not 1"),
    ], ids=["hole", "column", "pinched"])
    def test_step2_rejects(self, removed, message):
        grid = generate_structured("quadrilateral", 8)
        mesh = Mesh(grid.points, [el.vertex_loop for el in grid.elements
                                  if el.id not in removed])
        spaces = SpaceConfig(1)
        asm.assemble_step1(mesh, spaces, lambda x, y: 1.0 + x)
        L = DiscreteField(mesh, 0, "vector2", np.zeros((mesh.num_elements, 2)))
        with pytest.raises(MeshTopologyError, match=re.escape(message)):
            asm.assemble_step2(mesh, spaces, PlateMaterial(), L)


class TestTraceColumns:
    """Every stage keeps its trace blocks ``a12`` and ``a22`` as edge-local
    terms; densified one chunk at a time they are, bit for bit, the dense
    blocks that assembly wrote before (``oracles.dense_trace_blocks``)."""

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
                    for name, want in (("a12", a12), ("a22", a22)):
                        got = np.concatenate([grp.trace_block(e, name)
                                              for e in slv._chunks(grp)])
                        assert got.tobytes() == want.tobytes(), (
                            bs.stage, chunk, name)
                    assert np.array_equal(grp.trace_indices, idx)


class TestInteriorBlock:
    """Every stage keeps its interior columns ``a11`` as terms; densified
    one chunk at a time they are, bit for bit on all n1 rows, the dense
    columns that assembly wrote before, with the mass fields' coupling
    rows written from the weak forms (``oracles.dense_interior_columns``)."""

    @pytest.mark.parametrize("k,l", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_equals_the_dense_assembly_bit_for_bit(self, monkeypatch,
                                                   family, k, l):
        mesh, spaces, mat = FAMILIES[family](), SpaceConfig(k, l), \
            PlateMaterial(t=1e-3)
        L = DiscreteField(mesh, k - 1, "vector2", np.zeros(
            (mesh.num_elements, 2 * fs.space_dim(k - 1))))
        for bs in (asm.assemble_step1(mesh, spaces, lambda x, y: 1.0 + x),
                   asm.assemble_step2(mesh, spaces, mat, L)):
            ref = dense_interior_columns(bs, mat)
            for chunk in (1, slv._CHUNK_BYTES, 10 ** 12):
                monkeypatch.setattr(slv, "_CHUNK_BYTES", chunk)
                for grp, want in zip(bs.groups, ref, strict=True):
                    got = np.concatenate([grp.interior_columns(e)
                                          for e in slv._chunks(grp)])
                    assert got.tobytes() == want.tobytes(), (bs.stage, chunk)


class TestLocalSet:
    """All three stages take their blocks as views of one set of local
    matrices per mesh and k, kept under ``("local", k)``."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_a_solve_keeps_the_local_set_and_no_factor(self, k):
        mesh, mat = on_unit_square(mixed_strip(2)), PlateMaterial(t=1e-2)
        vf.solve_plate(mesh, SpaceConfig(k), mat, vf.exact_fields(mat))
        assert ("local", k) in mesh.kept
        assert [key for key in mesh.kept if "factor" in key] == []
        local = mesh.kept["local", k]
        assert len(local) == len(asm.element_batches(mesh))

    @pytest.mark.parametrize("k,l", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)])
    def test_every_stage_views_the_kept_set(self, k, l):
        mesh, spaces, g = mixed_group_mesh(), SpaceConfig(k, l), \
            lambda x, y: 1.0 + x
        ne = mesh.num_elements
        bs1 = asm.assemble_step1(mesh, spaces, g)
        L = DiscreteField(mesh, k - 1, "vector2",
                          np.zeros((ne, 2 * fs.space_dim(k - 1))))
        theta = DiscreteField(mesh, k, "vector2",
                              np.ones((ne, 2 * fs.space_dim(k))))
        bs2 = asm.assemble_step2(mesh, spaces, PlateMaterial(), L)
        bs3 = asm.assemble_step3(bs1, PlateMaterial(), theta, g)
        local = mesh.kept["local", k]
        for bs, n_views in ((bs1, 2), (bs2, 10), (bs3, 2)):
            for grp, (Mss, D, edges, P) in zip(bs.groups, local, strict=True):
                assert np.shares_memory(grp.mass, Mss)
                # the flux's derivative terms; in stage two every term but
                # the three edge stabilizations
                assert sum(np.shares_memory(b, D)
                           for *_, b in grp.a11) == n_views, bs.stage
                # the edge stabilizations are the kept edge sums, each
                # scaled by its weight per element: P_{k-1} for the primal
                # field and for p, the degree l one for both components of
                # theta
                _, alpha2, alpha3 = stabilization(grp.batch.h, PlateMaterial())
                want = ([(alpha2, P[l - k + 1])] * 2 + [(-alpha3, P[0])]
                        if bs is bs2 else [(1 / grp.batch.h, P[0])])
                got = [(scale, b) for *_, scale, b in grp.a11
                       if not np.shares_memory(b, D)]
                assert len(got) == len(want), bs.stage
                for (scale, b), (w_scale, w_b) in zip(got, want):
                    assert b is w_b and np.array_equal(scale, w_scale)
                # every trace term is a view of an edge's C or E
                blocks = [m for pair in edges for m in pair]
                assert all(any(np.shares_memory(b, m) for m in blocks)
                           for *_, b in grp.a12 + grp.a22), bs.stage

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_edge_sums_are_the_per_edge_sums(self, k):
        # P = (P_{k-1}, P_k) is, bit for bit, sum_e C^T E^{-1} C summed
        # edge by edge over the kept edge blocks cut to the degree k-1 and
        # k edge bases, and to round-off the same sum of edge blocks built
        # at those degrees
        mesh = on_unit_square(mixed_group_mesh())
        degree = fs.quadrature_degrees(k)["edge_degree"]
        for batch, (_, _, edges, P) in zip(asm.element_batches(mesh),
                                           asm._local_set(mesh, k),
                                           strict=True):
            assert len(P) == 2
            for m, block in zip((k, k + 1), P):
                want = np.zeros_like(block)
                fresh = np.zeros_like(block)
                for e, (C, E) in enumerate(edges):
                    want += asm._stab_volume_block(C[:, :m], E[:, :m, :m])
                    fresh += asm._stab_volume_block(*asm._edge_projection_blocks(
                        batch, e, degree, m - 1, k))
                assert block.tobytes() == want.tobytes()
                assert np.allclose(block, fresh, rtol=1e-12,
                                   atol=1e-12 * np.abs(fresh).max())

    def test_built_once_per_batch_per_mesh(self, monkeypatch):
        # over two thicknesses, every stage of both solves
        calls = []
        build = asm._local_matrices

        def counting(batch, k):
            calls.append((len(batch.ids), k))
            return build(batch, k)
        monkeypatch.setattr(asm, "_local_matrices", counting)
        mesh = on_unit_square(mixed_strip(2))
        for t in (1e-2, 1e-6):
            mat = PlateMaterial(t=t)
            vf.solve_plate(mesh, SpaceConfig(2), mat, vf.exact_fields(mat))
        assert calls == [(len(b.ids), 2) for b in asm.element_batches(mesh)]


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

    def test_fields_on_two_meshes(self):
        # two tri n=2 meshes built apart once combined, into L's mesh
        L, R = (DiscreteField(generate_structured("triangle", 2), 0,
                              "vector2", np.zeros((8, 2))) for _ in range(2))
        with pytest.raises(ValueError, match="on two meshes"):
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
