import gc
import os
import subprocess
import sys
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hdgplate import assembly as asm
from hdgplate import solver as slv
from hdgplate import verification as vf
from hdgplate.assembly import DiscreteField, PlateMaterial, SpaceConfig
from hdgplate.mesh import Mesh, generate_structured
from meshes import mixed_group_mesh, mixed_strip, renumbered_grid
from oracles import (condensed_matrix, dense_a11, dense_elimination,
                     factor_inputs, solve_saddle_direct, trace_blocks)


def stand_in_mesh(**attrs):
    """A mesh stand-in with the attributes ``attrs`` and its own store."""
    mesh = SimpleNamespace(kept={}, **attrs)
    mesh.keep = lambda key, build: Mesh.keep(mesh, key, build)
    return mesh


def toy_block_system(a11_blocks, a12_blocks, a22, b1, b2, ids=None,
                     mass=None):
    """Single-group BlockSystem with hand-built blocks for formula tests;
    every element couples to all trace dofs, which sit on one edge that
    all elements share, and the first element carries the whole trace
    block ``a22`` and trace load ``b2``; the trace columns are two terms
    over all columns, one on the rows of the mass fields ``mass``
    (``MassFields``) and one on the rest.  ``a11_blocks`` is the block
    after the mass fields; without them, one decoupled and unloaded
    unit-mass field of one dof goes in front, so the blocks given are the
    whole toy and its solution's leading column is 0."""
    if mass is None:
        ne, n = a11_blocks.shape[:2]
        mass = asm.MassFields(np.ones((ne, 1, 1)), np.eye(1),
                              np.zeros((1, ne, 1, n)), np.zeros((1, 1, 1)))
        a12_blocks = np.concatenate(
            [np.zeros((ne, 1, a12_blocks.shape[2])), a12_blocks], axis=1)
        b1 = np.concatenate([np.zeros((ne, 1)), b1], axis=1)
    ne, n1, ntl = a12_blocks.shape
    ids = np.arange(ne) if ids is None else np.asarray(ids)
    trace = asm.TraceField("x", 0, ntl, False, np.zeros(1, dtype=int))
    dof = SimpleNamespace(n_interior_per_element=n1, n_interior=ne * n1,
                          n_trace=ntl, trace_fields={"x": trace},
                          mesh=stand_in_mesh(num_elements=ids.max() + 1,
                                             num_edges=1))
    batch = SimpleNamespace(ids=ids, edge_ids=np.zeros((ne, 1), dtype=int))
    trace = np.tile(np.arange(ntl), (ne, 1))
    a22_local, b2_local = np.zeros((ne, ntl, ntl)), np.zeros((ne, ntl))
    a22_local[0], b2_local[0] = a22, b2
    block, nm = (np.concatenate([a12_blocks, a22_local], axis=1),
                 len(mass.coef) * mass.mass.shape[1])
    terms = tuple((rows, slice(0, ntl), np.ones(ne), block[:, rows])
                  for rows in (slice(0, nm), slice(nm, n1 + ntl)))
    group = asm.ElementBlockGroup(batch, a11_blocks, terms, b1, b2_local,
                                  trace, mass)
    return asm.BlockSystem(dof=dof, groups=[group])


def toy_saddle_system(B11, Mp, rhs):
    """Condensed stage-two system [[B11, 0], [0, -Mp]] on a stand-in mesh
    of unit-length edges, one pressure dof each; the trace orders are the
    identity."""
    m, n = len(B11), len(Mp)
    S = np.block([[B11, np.zeros((m, n))], [np.zeros((n, m)), -Mp]])
    dof = SimpleNamespace(
        trace_fields={"p_hat": SimpleNamespace(offset=m, per_edge=1,
                                               dirichlet=False)},
        trace_order={"theta_hat": np.arange(m),
                     "p_hat": np.arange(m, m + n)}.get,
        mesh=stand_in_mesh(num_edges=n, edge_length=np.ones(n)),
        n_trace=m + n, n_interior=0)
    bs = SimpleNamespace(dof=dof, stage="step2")
    return slv.CondensedSystem(bs, sp.csr_matrix(S), rhs, [], None)


class TestSolverConfig:
    @pytest.mark.parametrize("kwargs, message", [
        ({"max_iter": 0}, "max_iter must be >= 1"),
        ({"max_iter": -3}, "max_iter must be >= 1"),
        ({"tol": 0.0}, "tol must be positive"),
        ({"max_iter": 2.5}, "max_iter=2.5 must be an integer"),
        ({"tol": np.inf}, "tol must be positive and finite")])
    def test_rejects_impossible_settings(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            slv.SolverConfig(**kwargs)


class TestCondense:
    def test_decoupled_trace(self):
        # A12 = 0: the condensed system is (A22, b2) in this layout
        a11 = -np.eye(3)[None].repeat(2, axis=0)
        a12 = np.zeros((2, 3, 2))
        a22 = np.diag([2.0, 3.0])
        b1 = np.ones((2, 3))
        b2 = np.array([1.0, -1.0])
        cond = slv.condense(toy_block_system(a11, a12, a22, b1, b2))
        assert np.allclose(cond.S.toarray(), a22)
        assert np.allclose(cond.rhs, b2)

    def test_schur_formula(self):
        # A11 = -I, A12 = I: S = A22 + I under S = A22 - A12^T A11^{-1} A12
        a11 = -np.eye(2)[None].repeat(2, axis=0)
        a12 = np.stack([np.eye(2), np.eye(2)])
        a22 = np.zeros((2, 2))
        b1 = np.zeros((2, 2))
        b2 = np.zeros(2)
        cond = slv.condense(toy_block_system(a11, a12, a22, b1, b2))
        assert np.allclose(cond.S.toarray(), 2.0 * np.eye(2))

    def test_trace_size_from_assembly(self):
        mesh = generate_structured("triangle", 2)
        bs = asm.assemble_step1(mesh, SpaceConfig(1), lambda x, y: 0 * x + 1)
        cond = slv.condense(bs)
        assert cond.S.shape == (8, 8)

    def test_singular_block_reports_element(self):
        a11 = np.zeros((2, 2, 2))
        a12 = np.zeros((2, 2, 2))
        bs = toy_block_system(a11, a12, np.eye(2), np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(slv.SingularElementBlockError) as err:
            slv.condense(bs)
        assert err.value.element_id == 0

    @staticmethod
    def _four_element_group(bad_block):
        # four elements numbered out of order; the third block is broken
        a11 = np.stack([np.eye(3) * (i + 2.0) for i in range(4)])
        a11[2] = bad_block
        a12 = np.ones((4, 3, 2))
        return toy_block_system(a11, a12, np.eye(2), np.ones((4, 3)),
                                np.zeros(2), ids=[7, 3, 11, 5])

    def test_singular_block_in_stack_names_its_element(self):
        bs = self._four_element_group(np.diag([1.0, 0.0, 1.0]))
        with pytest.raises(slv.SingularElementBlockError) as err:
            slv.condense(bs)
        assert err.value.element_id == 11

    def test_nan_block_in_stack_names_its_element(self):
        bs = self._four_element_group(np.full((3, 3), np.nan))
        with pytest.raises(slv.SingularElementBlockError) as err:
            slv.condense(bs)
        assert err.value.element_id == 11

    @staticmethod
    def _four_element_mass_group(bad_mass=None, bad_rest=None):
        # one mass field of two dofs (block 2 Mss), coupled to the two
        # dofs after it by A_mp = D = I; the third element is broken
        mass = np.stack([np.eye(2) * s for s in (2.0, 4.0, 1.0, 3.0)])
        a11 = np.stack([np.eye(2) * (i + 3.0) for i in range(4)])
        if bad_mass is not None:
            mass[2] = bad_mass
        if bad_rest is not None:
            a11[2] = bad_rest
        fields = asm.MassFields(mass, np.array([[2.0]]),
                                np.eye(2)[None, None].repeat(4, axis=1),
                                np.ones((1, 1, 1)))
        return toy_block_system(a11, np.ones((4, 4, 2)), np.eye(2),
                                np.ones((4, 4)), np.zeros(2),
                                ids=[7, 3, 11, 5], mass=fields)

    @pytest.mark.parametrize("bad", [np.diag([1.0, -1.0]), np.zeros((2, 2)),
                                     np.full((2, 2), np.nan)],
                             ids=["indefinite", "zero", "nan"])
    def test_mass_not_positive_definite_names_its_element(self, bad):
        bs = self._four_element_mass_group(bad_mass=bad)
        with pytest.raises(slv.SingularElementBlockError) as err:
            slv.condense(bs)
        assert err.value.element_id == 11

    def test_singular_block_after_mass_names_its_element(self):
        # element 11's mass is I, so a11 = I / 2 leaves an exactly zero
        # (theta, p) block once the mass fields are eliminated
        bs = self._four_element_mass_group(bad_rest=np.eye(2) / 2)
        with pytest.raises(slv.SingularElementBlockError) as err:
            slv.condense(bs)
        assert err.value.element_id == 11

    def test_mass_group_matches_dense_elimination(self):
        bs = self._four_element_mass_group()
        x2 = np.array([0.5, -1.0])
        cond = slv.condense(bs)
        S, rhs, x1 = dense_elimination(bs, x2)
        assert np.allclose(cond.S.toarray(), S, rtol=1e-14, atol=1e-14)
        assert np.allclose(cond.rhs, rhs, rtol=1e-14, atol=1e-14)
        assert np.allclose(slv.back_substitute(cond, x2), x1,
                           rtol=1e-13, atol=1e-14)


def _stage_systems(mesh, k):
    """The three stage systems, driven by random (not solved) coefficients."""
    rng = np.random.default_rng(k)
    spaces, mat = SpaceConfig(k), PlateMaterial(t=0.1)
    ne = mesh.num_elements
    g = lambda x, y: 1.0 + x * y
    L = DiscreteField(mesh, k - 1, "vector2",
                      rng.standard_normal((ne, 2 * (k * (k + 1) // 2))))
    theta = DiscreteField(mesh, k, "vector2",
                          rng.standard_normal((ne, (k + 1) * (k + 2))))
    bs1 = asm.assemble_step1(mesh, spaces, g)
    return (bs1, asm.assemble_step2(mesh, spaces, mat, L),
            asm.assemble_step3(bs1, mat, theta, g))


class TestBatchedCondensation:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_per_element_dense_elimination(self, k):
        mesh = mixed_group_mesh()
        rng = np.random.default_rng(10 + k)
        for bs in _stage_systems(mesh, k):
            assert len(bs.groups) == 3
            S_ref = np.zeros((bs.n_trace, bs.n_trace))
            rhs_ref = np.zeros(bs.n_trace)
            x2 = rng.standard_normal(bs.n_trace)
            x1_ref = np.zeros((mesh.num_elements, bs.dof.n_interior_per_element))
            for grp in bs.groups:
                a12s, a22s = trace_blocks(grp)
                for i, e in enumerate(grp.batch.ids):
                    idx = grp.trace_indices[i]
                    keep = idx >= 0
                    a11, a12, b1 = dense_a11(grp)[i], a12s[i][:, keep], grp.b1[i]
                    a22, b2 = a22s[i][np.ix_(keep, keep)], grp.b2[i][keep]
                    kidx = idx[keep]
                    S_ref[np.ix_(kidx, kidx)] += \
                        a22 - a12.T @ np.linalg.solve(a11, a12)
                    rhs_ref[kidx] += b2 - a12.T @ np.linalg.solve(a11, b1)
                    x1_ref[e] = np.linalg.solve(a11, b1 - a12 @ x2[kidx])
            cond = slv.condense(bs)
            x1 = slv.back_substitute(cond, x2)
            for got, ref in ((cond.S.toarray(), S_ref), (cond.rhs, rhs_ref),
                             (x1, x1_ref)):
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    MESHES = {"tri": lambda: generate_structured("triangle", 4),
              "quad": lambda: generate_structured("quadrilateral", 4),
              "mixed": lambda: mixed_strip(2),
              "renumbered": lambda: Mesh(*renumbered_grid("triangle", 4, 5))}

    @pytest.mark.parametrize("kind,k", [("tri", 3), ("quad", 2), ("mixed", 1),
                                        ("mixed", 2), ("mixed", 3),
                                        ("renumbered", 1)])
    def test_condensed_matrix_is_the_coo_sum(self, kind, k):
        # every entry sums at most two local entries, so the kept pattern
        # gives the COO-to-CSR sum bit for bit; it also keeps the entries
        # that cancel exactly (on axis-aligned edges, say), and only those
        for bs in _stage_systems(self.MESHES[kind](), k):
            S, ref = slv.condense(bs).S, condensed_matrix(bs)
            assert S.has_canonical_format, bs.stage
            # no slack slots behind data or indices
            for arr in (S.data, S.indices):
                assert (arr if arr.base is None else arr.base).size == S.nnz
            nonzero = S.copy()
            nonzero.eliminate_zeros()
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(nonzero, name),
                                      getattr(ref, name)), (bs.stage, name)

    def test_factor_inputs_are_the_reordered_blocks(self, monkeypatch):
        # SuperLU gets S, B11 and the surrogate in trace order, without
        # zeros, exactly as slicing the assembly-order matrix gives them;
        # the fill is SuperLU's own count, without copies of L or U
        class NoFactorCopies:
            def __init__(self, lu):
                self.nnz, self.solve = lu.nnz, lu.solve

            @property
            def L(self):
                raise AssertionError("reads (copies) the L factor")

            @property
            def U(self):
                raise AssertionError("reads (copies) the U factor")

        splu, received, fills = spla.splu, [], []

        def recording(A, *args, **kwargs):
            received.append(A.copy())
            lu = splu(A, *args, **kwargs)
            fills.append(lu.nnz)
            return NoFactorCopies(lu)

        for kind, k in [("tri", 3), ("quad", 2), ("mixed", 2)]:
            bs1, bs2, _ = _stage_systems(self.MESHES[kind](), k)
            expected = factor_inputs(bs1) + factor_inputs(bs2)
            received.clear()
            fills.clear()
            monkeypatch.setattr(spla, "splu", recording)
            _, report1 = slv.solve_spd(slv.condense(bs1))
            *_, report2 = slv.solve_saddle_trace(slv.condense(bs2))
            monkeypatch.undo()
            assert len(received) == len(expected) == 3
            for got, ref, name in zip(received, expected,
                                      ("S", "B11", "surrogate")):
                for attr in ("indptr", "indices", "data"):
                    assert np.array_equal(getattr(got, attr),
                                          getattr(ref, attr)), (kind, name)
            assert (report1.factor_fill, report2.factor_fill) == (
                fills[0], fills[1] + fills[2])

    def test_no_dense_lu_factor_or_solve(self, monkeypatch):
        import scipy.linalg

        def forbidden(*args, **kwargs):
            raise AssertionError("per-element dense LU call")

        monkeypatch.setattr(scipy.linalg, "lu_factor", forbidden)
        monkeypatch.setattr(scipy.linalg, "lu_solve", forbidden)
        mat = PlateMaterial(t=0.1)
        fields = vf.solve_plate(generate_structured("triangle", 4),
                                SpaceConfig(2), mat, vf.exact_fields(mat))
        assert all(rep.converged for rep in fields.reports.values())


class TestMassFirstElimination:
    """Every stage eliminates its mass fields (the flux; sigma and R)
    through the inverse element mass first; the reference is one stacked
    solve with the whole dense interior block
    (``oracles.dense_elimination``)."""

    @pytest.mark.parametrize("stage,t", [
        *(pytest.param("step2", t, id=str(t)) for t in (1.0, 1e-2, 1e-6)),
        pytest.param("step1", None, id="step1")])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["triangle", "quadrilateral"])
    def test_matches_dense_stacked_solve(self, kind, k, stage, t):
        # measured on these cases: S and rhs agree to 2.3e-14 of their
        # largest entry, x1 to 1.3e-12 of each field's largest entry
        # (stage one: 1.1e-15 and 2.1e-13)
        mesh = generate_structured(kind, 3)
        rng = np.random.default_rng(k)
        if stage == "step1":
            bs = asm.assemble_step1(mesh, SpaceConfig(k), lambda x, y: 1 + x * y)
        else:
            L = DiscreteField(mesh, k - 1, "vector2", rng.standard_normal(
                (mesh.num_elements, k * (k + 1))))
            bs = asm.assemble_step2(mesh, SpaceConfig(k), PlateMaterial(t=t), L)
        x2 = rng.standard_normal(bs.n_trace)
        cond = slv.condense(bs)
        S, rhs, x1 = dense_elimination(bs, x2)
        assert np.abs(cond.S.toarray() - S).max() <= 1e-12 * np.abs(S).max()
        assert np.abs(cond.rhs - rhs).max() <= 1e-12 * np.abs(rhs).max()
        got = slv.back_substitute(cond, x2)
        for name in bs.dof.interior_fields:
            sl = bs.dof.interior_slice(name)
            assert (np.abs(got[:, sl] - x1[:, sl]).max()
                    <= 1e-10 * np.abs(x1[:, sl]).max()), name

    def test_chunks_change_no_bit(self, monkeypatch):
        bs = _stage_systems(mixed_group_mesh(), 2)[1]
        x2 = np.linspace(-1.0, 1.0, bs.n_trace)
        runs = []
        # the default, one element per pass and one pass per group
        for chunk in (slv._CHUNK_BYTES, 1, 10 ** 12):
            monkeypatch.setattr(slv, "_CHUNK_BYTES", chunk)
            cond = slv.condense(bs)
            runs.append((cond.S.data, cond.rhs, slv.back_substitute(cond, x2)))
        for run in runs[1:]:
            assert all(np.array_equal(a, b) for a, b in zip(runs[0], run))

    @pytest.mark.parametrize("mesh,k", [
        (lambda: generate_structured("triangle", 8), 1),
        (lambda: generate_structured("quadrilateral", 4), 2),
        (mixed_group_mesh, 3)], ids=["tri-k1", "quad-k2", "mixed-k3"])
    def test_back_substitution_rows_equal_all_rows_bit_for_bit(
            self, monkeypatch, mesh, k):
        # back substitution densifies only the mass fields' rows of
        # [A12; A22]; x1 is what those rows of all n1 + ntl give
        rng = np.random.default_rng(k)
        for bs in _stage_systems(mesh(), k):
            x2 = rng.standard_normal(bs.n_trace)
            cond = slv.condense(bs)
            got = slv.back_substitute(cond, x2)
            columns = asm.ElementBlockGroup.trace_columns
            monkeypatch.setattr(
                asm.ElementBlockGroup, "trace_columns",
                lambda grp, e, stop=None: columns(grp, e)[:, :stop])
            want = slv.back_substitute(cond, x2)
            monkeypatch.undo()
            assert got.tobytes() == want.tobytes(), bs.stage

    def test_full_residual_never_forms_the_dense_block(self):
        # its peak stays below the bytes of one dense (ne, n1, n1) block
        bs = _stage_systems(generate_structured("triangle", 16), 3)[1]
        rng = np.random.default_rng(0)
        ne, n1 = bs.groups[0].b1.shape
        x1, x2 = rng.standard_normal((ne, n1)), rng.standard_normal(bs.n_trace)
        gc.collect()
        tracemalloc.start()
        try:
            slv.full_residual(bs, x1, x2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ne * n1 * n1 * 8


class TestCG:
    def test_identity_converges_in_one(self):
        n = 17
        rng = np.random.default_rng(0)
        b = rng.standard_normal(n)
        x, iters, hist, reason, _ = slv._pcg(lambda v: v, b, lambda r: r,
                                             1e-12, 100)
        assert reason == "converged" and iters == 1
        assert np.allclose(x, b)

    def test_two_eigenvalues_two_iterations(self):
        A = np.diag([1.0, 2.0])
        b = np.array([1.0, 1.0])
        x, iters, hist, reason, _ = slv._pcg(lambda v: A @ v, b, lambda r: r,
                                             1e-12, 100)
        assert reason == "converged" and iters <= 2
        assert x == pytest.approx([1.0, 0.5], rel=1e-12)

    def test_zero_rhs(self):
        x, iters, hist, reason, _ = slv._pcg(lambda v: v, np.zeros(4),
                                             lambda r: r, 1e-12, 100)
        assert reason == "zero_rhs" and iters == 0 and np.all(x == 0)

    def test_max_iter_flagged(self):
        A = np.diag(np.linspace(1, 1e6, 50))
        b = np.ones(50)
        x, iters, hist, reason, _ = slv._pcg(lambda v: A @ v, b, lambda r: r,
                                             1e-14, 3)
        assert reason == "max_iter" and iters == 3

    def test_negative_definite_operator_is_indefinite(self):
        b = np.random.default_rng(1).standard_normal(5)
        x, iters, hist, reason, _ = slv._pcg(lambda v: -v, b, lambda r: r,
                                             1e-12, 100)
        assert reason == "indefinite" and iters == 0 and np.all(x == 0)

    def test_rhs_in_deflated_kernel_is_zero_rhs(self):
        x, iters, hist, reason, _ = slv._pcg(
            lambda v: v, 3 * np.ones(5), lambda r: r, 1e-10, 50,
            slv._deflation_projector(np.ones(5)))
        assert reason == "zero_rhs" and iters == 0 and hist == [0.0]
        assert np.all(x == 0)

    def test_zero_load_reports_zero_rhs(self):
        mesh = generate_structured("triangle", 2)
        bs = asm.assemble_step1(mesh, SpaceConfig(1), lambda x, y: 0 * x)
        x, report = slv.solve_spd(slv.condense(bs))
        assert report.stop_reason == "zero_rhs" and report.converged
        assert np.all(x == 0)

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                        reason="needs two CPUs for two BLAS threads")
    def test_iterates_do_not_depend_on_blas_threads(self):
        # OpenBLAS splits a dot product of more than about 10,000 entries
        # across its threads, which changes its rounding
        script = (
            "import hashlib, numpy as np, scipy.sparse as sp\n"
            "from hdgplate import solver as slv\n"
            "n = 60_000\n"
            "A = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], (n, n), 'csr')\n"
            "A = A - sp.diags(np.asarray(A.sum(axis=1)).ravel())\n"
            "b = np.random.default_rng(0).standard_normal(n)\n"
            "x, _, hist, _, rz = slv._pcg(\n"
            "    lambda v: A @ v, b, lambda r: r / (2.0 + np.arange(n) % 3),\n"
            "    1e-12, 40, slv._deflation_projector(np.ones(n)))\n"
            "print([float(v).hex() for v in hist + rz],\n"
            "      hashlib.sha256(x.tobytes()).hexdigest())\n")
        src = os.path.dirname(os.path.dirname(slv.__file__))
        runs = [subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            check=True, timeout=300, env={
                **os.environ, "OPENBLAS_NUM_THREADS": threads,
                "OMP_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
                    filter(None, [src, os.environ.get("PYTHONPATH")]))}).stdout
            for threads in ("1", "2")]
        assert runs[0] == runs[1]

    def test_residual_monotone_with_default_preconditioner(self):
        mesh = generate_structured("triangle", 8)
        bs = asm.assemble_step1(mesh, SpaceConfig(1), lambda x, y: x * y + 1)
        cond = slv.condense(bs)
        _, report = slv.solve_spd(cond, slv.SolverConfig())
        hist = np.array(report.precond_residual_history)
        assert report.converged
        assert np.all(np.diff(hist) <= 1e-12 * hist[0])


class TestSaddle:
    def _stage2(self, n=2, k=1, t=1.0):
        mesh = generate_structured("triangle", n)
        mat = PlateMaterial(t=t)
        spaces = SpaceConfig(k)
        ex = vf.exact_fields(mat)
        bs1 = asm.assemble_step1(mesh, spaces, ex.g[0])
        x1, _, _ = slv.solve_stage(bs1)
        L = DiscreteField(mesh, k - 1, "vector2",
                          x1[:, bs1.dof.interior_slice("flux")])
        return asm.assemble_step2(mesh, spaces, mat, L), mesh

    def test_deflated_pressure_orthogonal_to_kernel(self):
        bs, _ = self._stage2()
        cond = slv.condense(bs)
        m = bs.dof.trace_fields["p_hat"].offset
        _, p_hat, report = slv.solve_saddle_trace(cond)
        assert report.deflated and not report.kernel_rejected
        z = cond.kernel[m:]
        assert abs(p_hat @ z) <= 1e-12 * np.linalg.norm(p_hat) * np.linalg.norm(z)

    def test_corrupt_kernel_is_rejected(self):
        bs, _ = self._stage2()
        cond = slv.condense(bs)
        cond.kernel = np.ones_like(cond.kernel)  # not a null vector
        cond.kernel[0] = 5.0
        _, _, report = slv.solve_saddle_trace(cond)
        assert report.kernel_rejected and not report.deflated
        assert report.converged

    def test_kernel_hint_annihilated(self):
        bs, _ = self._stage2()
        cond = slv.condense(bs)
        S, z = cond.S, cond.kernel
        assert np.linalg.norm(S @ z) <= 1e-8 * sp.linalg.norm(S)

    def test_decoupled_saddle_matches_plain_cg(self):
        # B12 = 0: the outer operator is Mp, the probe fits rho = 0, and
        # the surrogate rho * W - B22c is Mp itself, so one iteration
        # solves Mp p = -c2 exactly
        rng = np.random.default_rng(6)
        Q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        B11 = Q @ np.diag(np.linspace(1, 3, 6)) @ Q.T
        Mp = np.diag(np.linspace(0.5, 2.0, 5))
        rhs = np.concatenate([np.zeros(6), rng.standard_normal(5)])
        cond = toy_saddle_system(B11, Mp, rhs)
        th, ph, report = slv.solve_saddle_trace(cond)
        assert report.stop_reason == "converged" and report.iterations == 1
        assert not report.deflated and not report.kernel_rejected
        assert np.allclose(Mp @ ph, -rhs[6:], rtol=1e-12, atol=1e-14)
        assert np.allclose(th, np.zeros(6), atol=1e-12)

    def test_iteration_budget_reports_max_iter(self):
        bs, _ = self._stage2(n=4)
        _, _, report = slv.solve_saddle_trace(slv.condense(bs),
                                              slv.SolverConfig(max_iter=1))
        assert report.stop_reason == "max_iter" and not report.converged
        assert report.iterations == 1

    def test_run_convergence_names_stage_and_stop(self):
        with pytest.raises(RuntimeError,
                           match="n=2: step2 solve stopped on max_iter"):
            vf.run_convergence(PlateMaterial(t=0.1), "tri", SpaceConfig(1),
                               [2], slv.SolverConfig(max_iter=1))

    def test_direct_oracle_matches_cg_path(self):
        # the direct solve goes first: the CG path frees cond.S
        bs, mesh = self._stage2(t=0.01)
        cond = slv.condense(bs)
        x_direct = solve_saddle_direct(cond)
        th, ph, _ = slv.solve_saddle_trace(cond)
        x_cg = np.concatenate([th, ph])
        m = bs.dof.trace_fields["p_hat"].offset
        z = cond.kernel
        x_direct = x_direct - (x_direct @ z) * z  # same kernel gauge
        assert np.abs(x_cg - x_direct).max() <= 1e-8 * np.abs(x_direct).max()


def _factor_blocks(cond):
    """(name, block, trace order) of every factorization of one stage, the
    blocks in assembly order."""
    dof, S = cond.system.dof, cond.S
    if cond.system.stage != "step2":
        (name,) = dof.trace_fields
        return [("S", S, dof.trace_order(name))]
    m = dof.trace_fields["p_hat"].offset
    B11, surrogate = S[:m, :m], slv._phat_edge_mass(dof) - S[m:, m:]
    return [("B11", B11, dof.trace_order("theta_hat")),
            ("surrogate", surrogate, dof.trace_order("p_hat") - m)]


def _b11(mesh, k):
    """The stage-two block ``B11`` and its trace order."""
    bs = _stage_systems(mesh, k)[1]
    (_, B11, perm), _ = _factor_blocks(slv.condense(bs))
    return B11, perm


class TestTraceFactorization:
    MESHES = {"tri": lambda: generate_structured("triangle", 12),
              "quad": lambda: generate_structured("quadrilateral", 10),
              "mixed": lambda: mixed_strip(12)}

    @pytest.mark.parametrize("kind", MESHES)
    def test_order_is_permutation_of_each_stage(self, kind):
        mesh = self.MESHES[kind]()
        # the order differs from the edge numbering, so that the
        # permutation checks below are not vacuous
        assert np.any(mesh.edge_order != np.arange(mesh.num_edges))
        for bs in _stage_systems(mesh, 2):
            dof = bs.dof
            orders = [dof.trace_order(name) for name in dof.trace_fields]
            assert np.array_equal(np.sort(np.concatenate(orders)),
                                  np.arange(dof.n_trace))
            for name, order in zip(dof.trace_fields, orders):
                f = dof.trace_fields[name]
                assert order.min() == f.offset
                assert order.max() == f.offset + len(order) - 1

    @pytest.mark.parametrize("kind", MESHES)
    def test_solve_matches_default_splu(self, kind):
        mesh = self.MESHES[kind]()
        rng = np.random.default_rng(3)
        for bs in _stage_systems(mesh, 2):
            for name, A, perm in _factor_blocks(slv.condense(bs)):
                b = rng.standard_normal(A.shape[0])
                ref = spla.splu(A.tocsc()).solve(b)
                got = slv._factorize(A[perm][:, perm].tocsc(), perm).solve(b)
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), \
                    (bs.stage, name)

    def test_b11_fill_below_colamd(self):
        B11, perm = _b11(generate_structured("triangle", 16), 3)
        lu = spla.splu(B11.tocsc())
        assert slv._factorize(B11[perm][:, perm].tocsc(), perm).fill < lu.nnz

    def test_b11_fill_below_mmd(self):
        # also below SuperLU's minimum degree order of A + A^T, unpivoted
        for kind, k in [("triangle", 3), ("quadrilateral", 2)]:
            B11, perm = _b11(generate_structured(kind, 16), k)
            lu = spla.splu(B11.tocsc(), permc_spec="MMD_AT_PLUS_A",
                           diag_pivot_thresh=0.0,
                           options={"SymmetricMode": True})
            fill = slv._factorize(B11[perm][:, perm].tocsc(), perm).fill
            assert fill < lu.nnz, kind
        # and the same, to 0.1%, for three numberings of one mesh
        blocks = [_b11(Mesh(*renumbered_grid("triangle", 16, seed)), 3)
                  for seed in range(3)]
        fills = [slv._factorize(B11[perm][:, perm].tocsc(), perm).fill
                 for B11, perm in blocks]
        assert max(fills) - min(fills) <= 1e-3 * min(fills)

    def test_singular_b11_names_stage_and_block(self):
        B11 = np.diag([1.0, 2.0, 0.0, 3.0])
        cond = toy_saddle_system(B11, np.eye(3), np.ones(7))
        with pytest.raises(slv.SingularTraceBlockError) as err:
            slv.solve_saddle_trace(cond)
        assert str(err.value) == (
            "step2: trace block B11 hit a zero pivot in its no-pivot "
            "factorization (the block is singular)")
        assert (err.value.stage, err.value.block) == ("step2", "B11")
        assert isinstance(err.value, RuntimeError)

    def test_reports_fill_and_time_per_stage(self):
        mat = PlateMaterial(t=0.1)
        mesh, ex = generate_structured("triangle", 4), vf.exact_fields(mat)
        fields = vf.solve_plate(mesh, SpaceConfig(1), mat, ex)
        for stage in ("step1", "step2"):
            rep = fields.reports[stage]
            assert rep.factor_fill > 0 and rep.factor_time > 0
        # stage three reuses stage one's factor
        assert fields.reports["step3"].factor_fill == 0
        assert fields.reports["step3"].factor_time == 0

    def test_saddle_operator_not_kept(self):
        # only the Poisson stages keep an operator and its factor, not
        # their Y_A or S; stage two keeps on the mesh only its pattern
        # and block maps
        mat = PlateMaterial(t=0.1)
        mesh, ex = generate_structured("triangle", 4), vf.exact_fields(mat)
        bs1 = asm.assemble_step1(mesh, SpaceConfig(1), ex.g[0])
        x1, _, _ = slv.solve_stage(bs1)
        assert bs1.kept_as == ("poisson", 1)
        assert {key for key in mesh.kept if key[0] == "poisson"} == {
            ("poisson", 1), ("poisson", 1, "factor")}
        bs2 = asm.assemble_step2(mesh, SpaceConfig(1), mat,
                                 bs1.dof.field("flux", x1))
        before = set(mesh.kept)
        slv.solve_stage(bs2)
        assert bs2.kept_as is None
        layout = ((4, True), (1, False))
        assert set(mesh.kept) - before == {
            ("pattern", layout), *(("pattern", layout, name)
                                   for name in ("B11", "B12", "B22c"))}

    def test_one_poisson_operator_and_three_factorizations_per_solve(
            self, monkeypatch):
        calls = {"_factorize": 0, "_assemble_poisson_operator": 0}

        def counting(module, name):
            orig = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return orig(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)
        counting(slv, "_factorize")
        counting(asm, "_assemble_poisson_operator")
        condense, poisson_S = slv.condense, []

        def record_S(bs):
            cond = condense(bs)
            if bs.stage != "step2":
                poisson_S.append(cond.S.data)
            return cond
        monkeypatch.setattr(slv, "condense", record_S)
        step1, refs = asm.assemble_step1, []

        def keep_ref(*args):
            bs = step1(*args)
            refs.append(weakref.ref(bs))
            return bs
        monkeypatch.setattr(asm, "assemble_step1", keep_ref)
        mat = PlateMaterial(t=0.1)
        mesh, ex = generate_structured("triangle", 4), vf.exact_fields(mat)
        fields = vf.solve_plate(mesh, SpaceConfig(1), mat, ex)
        assert calls == {"_factorize": 3, "_assemble_poisson_operator": 1}
        assert fields.reports["step1"].factor_fill > 0
        # stage one's factor preconditions stage three: both condense to
        # the same S, bit for bit
        assert len(poisson_S) == 2
        assert np.array_equal(poisson_S[0], poisson_S[1])
        # the stage-one system does not outlive the solve
        gc.collect()
        assert len(refs) == 1 and refs[0]() is None and fields.omega.coeffs.any()
        # a second solve on the mesh, at another t, reuses the operator and
        # its factor, and factors stage two's blocks only
        mat = PlateMaterial(t=1e-6)
        fields = vf.solve_plate(mesh, SpaceConfig(1), mat, vf.exact_fields(mat))
        assert calls == {"_factorize": 1 + 2 * 2, "_assemble_poisson_operator": 1}
        for stage in ("step1", "step3"):
            assert fields.reports[stage].factor_fill == 0
            assert fields.reports[stage].factor_time == 0
        assert fields.reports["step2"].factor_fill > 0
        # and its S is still the one the kept factor was made from
        assert len(poisson_S) == 4
        assert all(np.array_equal(poisson_S[0], S) for S in poisson_S[2:])
        # the operator and its factor do not outlive the mesh (a SuperLU
        # object takes no weak reference; the factor's own permutation
        # stands for it)
        lu = weakref.ref(mesh.kept["poisson", 1, "factor"].perm)
        del mesh, fields
        gc.collect()
        assert lu() is None

    def test_stage_two_frees_S_before_its_factorizations(self, monkeypatch):
        # the gathered blocks hold all that the solve reads of S
        refs, seen = [], []
        condense, factorize = slv.condense, slv._factorize

        def record(bs):
            cond = condense(bs)
            if bs.stage == "step2":
                refs.append(weakref.ref(cond.S.data))
            return cond

        def check(A, perm, stage="", block=""):
            if block in ("B11", "surrogate"):
                seen.append((block, refs[-1]() is None))
            return factorize(A, perm, stage, block)
        monkeypatch.setattr(slv, "condense", record)
        monkeypatch.setattr(slv, "_factorize", check)
        mat = PlateMaterial(t=1e-6)
        vf.solve_plate(generate_structured("triangle", 4), SpaceConfig(2), mat,
                       vf.exact_fields(mat))
        assert seen == [("B11", True), ("surrogate", True)]


class TestBackSubstitution:
    def test_decoupled_interior(self):
        a11 = np.stack([np.diag([2.0, 4.0]), np.diag([1.0, 1.0])])
        a12 = np.zeros((2, 2, 2))
        b1 = np.array([[2.0, 8.0], [1.0, 0.0]])
        bs = toy_block_system(a11, a12, np.eye(2), b1, np.zeros(2))
        cond = slv.condense(bs)
        x1 = slv.back_substitute(cond, np.zeros(2))
        assert np.all(x1[:, 0] == 0.0)  # the toy's padded mass field
        assert np.allclose(x1[:, 1:], [[1.0, 2.0], [1.0, 0.0]])

    def test_zero_data_zero_solution(self):
        a11 = np.stack([np.eye(2)] * 2)
        a12 = np.ones((2, 2, 2))
        bs = toy_block_system(a11, a12, np.eye(2), np.zeros((2, 2)), np.zeros(2))
        cond = slv.condense(bs)
        assert np.all(slv.back_substitute(cond, np.zeros(2)) == 0.0)


class TestDeterminism:
    def test_bit_identical_reruns(self):
        mesh = generate_structured("triangle", 4)
        mat = PlateMaterial(t=0.1)
        ex = vf.exact_fields(mat)
        runs = []
        for _ in range(2):
            fields = vf.solve_plate(mesh, SpaceConfig(1), mat, ex)
            runs.append(fields)
        a, b = runs
        assert a.reports["step2"].iterations == b.reports["step2"].iterations
        for name in ("L", "r", "sigma", "R", "theta", "p", "G", "omega", "gamma"):
            assert np.array_equal(getattr(a, name).coeffs,
                                  getattr(b, name).coeffs)
        assert np.array_equal(a.p_hat, b.p_hat)


_FIELDS = ("L", "r", "sigma", "R", "theta", "p", "G", "omega", "gamma")
_TRACES = ("r_hat", "theta_hat", "p_hat", "omega_hat")


class TestMeshCache:
    """The Poisson operator, the trace patterns and the error tables are
    kept on the mesh (see also ``test_mesh.TestKept``)."""

    @pytest.mark.parametrize("kind,k", [("triangle", 1), ("quadrilateral", 2)])
    def test_t_sweep_equals_fresh_meshes(self, kind, k):
        shared = generate_structured(kind, 4)
        for t in (1.0, 1e-2, 1e-6):
            mat = PlateMaterial(t=t)
            ex = vf.exact_fields(mat)
            swept = vf.solve_plate(shared, SpaceConfig(k), mat, ex)
            fresh = vf.solve_plate(generate_structured(kind, 4), SpaceConfig(k),
                                   mat, ex)
            for name in _FIELDS:
                assert np.array_equal(getattr(swept, name).coeffs,
                                      getattr(fresh, name).coeffs), (t, name)
            for name in _TRACES:
                assert np.array_equal(getattr(swept, name),
                                      getattr(fresh, name)), (t, name)
            for stage, rep in swept.reports.items():
                assert rep.iterations == fresh.reports[stage].iterations
            assert vf.table_errors(swept, ex) == vf.table_errors(fresh, ex)

    def test_t_sweep_builds_each_pattern_once(self, monkeypatch):
        built, conds = [], []

        def wrap(name, log, entry=lambda out: out):
            orig = getattr(slv, name)

            def wrapper(*args):
                out = orig(*args)
                log.append(entry(out))
                return out
            monkeypatch.setattr(slv, name, wrapper)
        wrap("_build_pattern", built)
        # S as condense returns it: the saddle solve frees it
        wrap("condense", conds, lambda cond: (cond.system.stage, cond.S))
        mesh = generate_structured("triangle", 4)
        for t in (1.0, 1e-6):
            mat = PlateMaterial(t=t)
            vf.solve_plate(mesh, SpaceConfig(2), mat, vf.exact_fields(mat))
        # one pattern for stages one and three, one for stage two
        assert len(built) == 2 and len(conds) == 6
        (stage1, first), (stage2, second) = conds[1], conds[4]
        assert stage1 == stage2 == "step2"
        assert mesh.kept["pattern", ((6, True), (2, False))] is built[1]
        for S in (first, second):
            assert np.shares_memory(S.indices, built[1]["indices"])
        assert first is not second

    def test_stage_two_condense_transient(self):
        # above what condense returns (Y and S), stage two's condense at
        # tri n=16 k=3 peaks at 10.3 MB, the pattern build and the dense
        # trace columns of one chunk included (9.1 MB when the group kept
        # them dense); a sum of COO triplets through a COO-to-CSR copy
        # peaks at 26.5 MB, and the mass-first elimination of a whole
        # group at once at 21.7 MB
        bs = _stage_systems(generate_structured("triangle", 16), 3)[1]
        for _ in range(2):  # builds the pattern, then reuses it
            gc.collect()
            tracemalloc.start()
            try:
                cond = slv.condense(bs)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak - kept <= 12 * 2 ** 20
            del cond

    @pytest.mark.parametrize("kind,n,k,t", [("triangle", 16, 1, 1e-2),
                                            ("quadrilateral", 8, 2, 1e-6)])
    def test_outer_iterations_do_not_depend_on_numbering(self, kind, n, k, t):
        mat = PlateMaterial(t=t)
        ex = vf.exact_fields(mat)
        reports = [vf.solve_plate(mesh, SpaceConfig(k), mat, ex).reports["step2"]
                   for mesh in (generate_structured(kind, n),
                                *(Mesh(*renumbered_grid(kind, n, seed))
                                  for seed in (1, 2)))]
        assert len({rep.iterations for rep in reports}) == 1
        if k == 1:
            # one constant per edge: the surrogate's probe, and with it the
            # whole outer CG, is the same up to round-off
            for rep in reports[1:]:
                assert np.allclose(rep.residual_history,
                                   reports[0].residual_history, rtol=1e-9)
