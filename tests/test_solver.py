import dataclasses
import gc
import math
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
from hdgplate import femspace as fs
from hdgplate import solver as slv
from hdgplate import verification as vf
from hdgplate.assembly import DiscreteField, PlateMaterial, SpaceConfig
from hdgplate.mesh import Mesh, generate_structured
from meshes import (FAMILIES, arrays_in, mixed_group_mesh, mixed_strip,
                    renumbered_grid)
from oracles import (condensed_matrix, dense_a11, dense_elimination,
                     expanded_positions, factor_inputs, full_positions,
                     pressure_kernel, saddle_matrix, solve_saddle_direct,
                     trace_blocks)


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
    block ``a22`` and trace load ``b2``; ``A12`` and ``A22`` are one term
    each.
    ``mass`` is ``(Mss, coef, A_mp)``: the mass fields' block is ``coef ⊗
    Mss`` and ``A_mp`` their coupling to the fields after them, whose
    block is ``a11_blocks``; without them, one decoupled and unloaded
    unit-mass field of one dof goes in front, so the blocks given are the
    whole toy and its solution's leading column is 0."""
    if mass is None:
        ne, n = a11_blocks.shape[:2]
        mass = np.ones((ne, 1, 1)), np.eye(1), np.zeros((ne, 1, n))
        a12_blocks = np.concatenate(
            [np.zeros((ne, 1, a12_blocks.shape[2])), a12_blocks], axis=1)
        b1 = np.concatenate([np.zeros((ne, 1)), b1], axis=1)
    Mss, coef, amp = mass
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
    nm, rest, trace_dofs = (len(coef) * Mss.shape[1],
                            slice(0, a11_blocks.shape[1]), slice(0, ntl))
    a11 = ((slice(0, nm), rest, np.ones(ne), amp),
           (slice(nm, n1), rest, np.ones(ne), a11_blocks))
    group = asm.ElementBlockGroup(
        batch, a11, ((slice(0, n1), trace_dofs, np.ones(ne), a12_blocks),),
        ((trace_dofs, trace_dofs, np.ones(ne), a22_local),), b1, b2_local,
        trace, Mss, coef)
    return asm.BlockSystem(dof=dof, groups=[group])


def toy_saddle_system(B11, Mp, rhs):
    """Condensed stage-two system [[B11, 0], [0, -Mp]] on a stand-in mesh
    of unit-length edges, one pressure dof each, numbered as the edges."""
    m, n = len(B11), len(Mp)
    S = slv.SaddleBlocks(sp.csc_matrix(B11), sp.csc_matrix((m, n)),
                         sp.csc_matrix(-Mp))
    dof = SimpleNamespace(
        trace_fields={"p_hat": asm.TraceField("p_hat", m, 1, False,
                                              np.arange(n))},
        mesh=stand_in_mesh(num_edges=n, edge_length=np.ones(n)),
        n_trace=m + n, n_interior=0)
    bs = SimpleNamespace(dof=dof, stage="step2")
    return slv.CondensedSystem(bs, S, rhs)


class TestSolverConfig:
    @pytest.mark.parametrize("kwargs, message", [
        ({"max_iter": 0}, "max_iter must be >= 1"),
        ({"max_iter": -3}, "max_iter must be >= 1"),
        ({"tol": 0.0}, "tol must be positive"),
        ({"max_iter": 2.5}, "max_iter=2.5 must be an integer"),
        ({"tol": np.inf}, "tol must be positive and finite"),
        ({"max_iter": True}, "max_iter=True must be an integer"),
        ({"tol": True}, "^tol=True must be a real number$"),
        ({"tol": "1e-8"}, "^tol='1e-8' must be a real number$")])
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
        # dofs after it by A_mp = I; the third element is broken
        mass = np.stack([np.eye(2) * s for s in (2.0, 4.0, 1.0, 3.0)])
        a11 = np.stack([np.eye(2) * (i + 3.0) for i in range(4)])
        if bad_mass is not None:
            mass[2] = bad_mass
        if bad_rest is not None:
            a11[2] = bad_rest
        fields = mass, np.array([[2.0]]), np.eye(2)[None].repeat(4, axis=0)
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


class TestPatternStarts:
    """The kept pattern keeps one start per element, local row block and
    column; expanded, its places are, bit for bit, the per-entry positions
    that the solver kept before (``oracles.full_positions``)."""

    @pytest.mark.parametrize("k,l", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_expand_to_the_full_positions(self, family, k, l):
        mesh, spaces = FAMILIES[family](), SpaceConfig(k, l)
        L = DiscreteField(mesh, k - 1, "vector2", np.zeros(
            (mesh.num_elements, 2 * fs.space_dim(k - 1))))
        # both trace layouts: the Poisson stages' and stage two's
        for bs in (asm.assemble_step1(mesh, spaces, lambda x, y: 1.0 + x),
                   asm.assemble_step2(mesh, spaces, PlateMaterial(), L)):
            pattern, want = slv._pattern(bs), full_positions(bs)
            got = expanded_positions(pattern)
            assert got.dtype == want["position"].dtype
            assert got.tobytes() == want["position"].tobytes(), bs.stage
            for block, ref in zip(pattern["blocks"], want["blocks"],
                                  strict=True):
                assert block[0] == ref[0]
                assert all(np.array_equal(a, b)
                           for a, b in zip(block[1:], ref[1:]))


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


class TestStageSizes:
    def test_reports_carry_the_stage_sizes(self):
        # stage two stores B11, B12 and B22c: SaddleBlocks.nnz also counts
        # the B12^T that no array stores
        for bs in _stage_systems(mixed_group_mesh(), 2):
            _, _, report = slv.solve_stage(bs)
            S = slv.condense(bs).S
            blocks = S if isinstance(S, slv.SaddleBlocks) else (S,)
            assert report.n_interior == bs.n_interior > 0
            assert report.n_trace == bs.n_trace > 0
            assert report.stored_nnz == sum(B.nnz for B in blocks) > 0
            if bs.stage == "step2":
                assert report.stored_nnz == S.nnz - S.B12.nnz


class TestHeldBytes:
    def test_reports_carry_what_the_solve_still_holds(self, monkeypatch):
        # each stage reports the bytes it still holds when its trace solve
        # returns: the condensed blocks' entries (stage two's without
        # B11, which its factorization freed) and every buffer kept on the
        # mesh
        condense, conds = slv.condense, []

        def record(bs):
            conds.append(condense(bs))
            return conds[-1]
        monkeypatch.setattr(slv, "condense", record)
        mesh = mixed_group_mesh()
        for bs in _stage_systems(mesh, 2):
            *_, report = slv.solve_stage(bs)
            S = conds[-1].S
            blocks = S[1:] if bs.stage == "step2" else (S,)
            if bs.stage == "step2":
                assert S.B11 is None
                assert report.condensed_bytes < 8 * report.stored_nnz
            assert report.condensed_bytes == sum(
                B.data.nbytes for B in blocks) > 0
            buffers = {}
            for a in arrays_in(mesh.kept):
                while a.base is not None:
                    a = a.base
                buffers[id(a)] = a.nbytes
            assert report.kept_bytes == sum(buffers.values()) > 0

    def test_condense_holds_nothing_per_element(self):
        # with the pattern already kept, what condense still holds is its
        # blocks' entries and its load; measured 1.007x at the stated case
        # (a kept per-element Y_A, Y_b and minv made it 2.30x)
        mesh = generate_structured("triangle", 8)
        L = DiscreteField(mesh, 1, "vector2", np.ones((mesh.num_elements, 6)))
        bs = asm.assemble_step2(mesh, SpaceConfig(2), PlateMaterial(t=1e-2), L)
        slv.condense(bs)
        gc.collect()
        tracemalloc.start()
        try:
            cond = slv.condense(bs)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert [f.name for f in dataclasses.fields(cond)] == [
            "system", "S", "rhs"]
        entries = sum(B.data.nbytes for B in cond.S) + cond.rhs.nbytes
        assert held <= 1.05 * entries, (held, entries)

    def test_kept_nbytes_counts_each_buffer_once(self):
        mesh = generate_structured("triangle", 2)
        before, a = mesh.kept_nbytes, np.zeros(100)
        eye = sp.csc_matrix(np.eye(3))
        mesh.keep("test", lambda: {"a": a, "view": a[:10],
                                   "again": [a, eye], "n": 3})
        assert mesh.kept_nbytes - before == 800 + sum(
            x.nbytes for x in (eye.data, eye.indices, eye.indptr))


class TestNoKeptEdge:
    """On one quad every edge is a boundary edge: the Dirichlet trace
    fields keep none, so stages one and three have no trace unknown and
    stage two keeps only the pressure trace."""

    @pytest.mark.parametrize("t", [1.0, 1e-2])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_every_stage_solves(self, k, t):
        mesh, mat = generate_structured("quadrilateral", 1), PlateMaterial(t=t)
        ex, spaces = vf.exact_fields(mat), SpaceConfig(k)
        bs1 = asm.assemble_step1(mesh, spaces, ex.g[0])
        x1, x2, rep1 = slv.solve_stage(bs1)
        L = DiscreteField(mesh, k - 1, "vector2",
                          x1[:, bs1.dof.interior_slice("flux")])
        bs2 = asm.assemble_step2(mesh, spaces, mat, L, ex.f)
        y1, y2, rep2 = slv.solve_stage(bs2)
        theta = DiscreteField(mesh, k, "vector2",
                              y1[:, bs2.dof.interior_slice("theta")])
        bs3 = asm.assemble_step3(bs1, mat, theta, ex.g[0])
        z1, z2, rep3 = slv.solve_stage(bs3)
        for rep in (rep1, rep3):
            assert rep.stop_reason == "zero_rhs" and rep.n_trace == 0
        assert rep2.stop_reason == "converged"
        for bs, a, b in ((bs1, x1, x2), (bs2, y1, y2), (bs3, z1, z2)):
            assert slv.full_residual(bs, a, b) <= 1e-12, bs.stage
        assert not bs1.dof.trace_to_edge_array("u_hat", z2).any()


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
            for got, ref in ((saddle_matrix(cond).toarray(), S_ref),
                             (cond.rhs, rhs_ref),
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
        # gives the COO sum bit for bit, in CSC: S, or each of stage two's
        # blocks as the same slice of it; it also keeps the entries that
        # cancel exactly (on axis-aligned edges, say), and only those
        for bs in _stage_systems(self.MESHES[kind](), k):
            S, ref = slv.condense(bs).S, condensed_matrix(bs)
            mats, refs = [S], [ref.tocsc()]
            if bs.stage == "step2":
                m = bs.dof.trace_fields["p_hat"].offset
                mats, refs = S, [B.tocsc() for B in (
                    ref[:m, :m], ref[:m, m:], ref[m:, m:])]
            for got, want in zip(mats, refs, strict=True):
                assert got.has_canonical_format, bs.stage
                assert got.format == want.format, bs.stage
                # no slack slots behind indices; each block's data its own
                # buffer, with one slot for what it drops
                assert (got.indices if got.indices.base is None
                        else got.indices.base).size == got.nnz
                assert got.data.base.size == got.nnz + 1
                nonzero = got.copy()
                nonzero.eliminate_zeros()
                for name in ("indptr", "indices", "data"):
                    assert np.array_equal(getattr(nonzero, name),
                                          getattr(want, name)), name
            assert len({id(B.data.base) for B in mats}) == len(mats)

    @pytest.mark.parametrize("kind,k", [("mixed", 2), ("quad", 2)])
    def test_blocks_are_built_in_the_format_superlu_factors(
            self, kind, k, monkeypatch):
        # every condensed block comes out canonical CSC, and the Poisson S
        # and B11 go to the factorization as they come, never converted
        factorize, received = slv._factorize, []

        def record(A, *args):
            received.append(A)
            return factorize(A, *args)
        monkeypatch.setattr(slv, "_factorize", record)
        conds = [slv.condense(bs)
                 for bs in _stage_systems(self.MESHES[kind](), k)]
        for cond in conds:
            S = cond.S
            for B in S if isinstance(S, slv.SaddleBlocks) else [S]:
                assert B.format == "csc", cond.system.stage
                assert B.has_canonical_format, cond.system.stage
        B11 = conds[1].S.B11
        slv.solve_spd(conds[0])
        slv.solve_saddle_trace(conds[1])
        assert received[0] is conds[0].S
        assert received[1] is B11 and conds[1].S.B11 is None

    def test_factor_inputs_are_the_reordered_blocks(self, monkeypatch):
        # SuperLU gets S, B11 and the surrogate without zeros, exactly as
        # slicing the COO-to-CSR sum of the local blocks gives them;
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
        assert (np.abs(saddle_matrix(cond).toarray() - S).max()
                <= 1e-12 * np.abs(S).max())
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
            runs.append((saddle_matrix(cond).data, cond.rhs,
                         slv.back_substitute(cond, x2)))
        for run in runs[1:]:
            assert all(np.array_equal(a, b) for a, b in zip(runs[0], run))

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
        x, rep = slv._pcg(lambda v: v, b, lambda r: r, 1e-12, 100)
        assert rep.stop_reason == "converged" and rep.iterations == 1
        assert np.allclose(x, b)

    def test_two_eigenvalues_two_iterations(self):
        A = np.diag([1.0, 2.0])
        b = np.array([1.0, 1.0])
        x, rep = slv._pcg(lambda v: A @ v, b, lambda r: r, 1e-12, 100)
        assert rep.stop_reason == "converged" and rep.iterations <= 2
        assert x == pytest.approx([1.0, 0.5], rel=1e-12)

    def test_zero_rhs(self):
        x, rep = slv._pcg(lambda v: v, np.zeros(4), lambda r: r, 1e-12, 100)
        assert rep.stop_reason == "zero_rhs" and rep.iterations == 0
        assert np.all(x == 0)

    def test_max_iter_flagged(self):
        A = np.diag(np.linspace(1, 1e6, 50))
        b = np.ones(50)
        x, rep = slv._pcg(lambda v: A @ v, b, lambda r: r, 1e-14, 3)
        assert rep.stop_reason == "max_iter" and rep.iterations == 3

    def test_negative_definite_operator_is_indefinite(self):
        b = np.random.default_rng(1).standard_normal(5)
        x, rep = slv._pcg(lambda v: -v, b, lambda r: r, 1e-12, 100)
        assert rep.stop_reason == "indefinite" and rep.iterations == 0
        assert np.all(x == 0)

    def test_rhs_in_deflated_kernel_is_zero_rhs(self):
        x, rep = slv._pcg(lambda v: v, 3 * np.ones(5), lambda r: r, 1e-10, 50,
                          slv._deflation_projector(np.ones(5)))
        assert rep.stop_reason == "zero_rhs" and rep.iterations == 0
        assert rep.residual_history == [0.0]
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
            "x, rep = slv._pcg(\n"
            "    lambda v: A @ v, b, lambda r: r / (2.0 + np.arange(n) % 3),\n"
            "    1e-12, 40, slv._deflation_projector(np.ones(n)))\n"
            "print([float(v).hex() for v in rep.residual_history\n"
            "       + rep.precond_residual_history],\n"
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
        x2, report = slv.solve_saddle_trace(cond)
        assert report.deflated and not report.kernel_rejected
        p_hat, z = x2[m:], pressure_kernel(bs.dof)[m:]
        assert abs(p_hat @ z) <= 1e-12 * np.linalg.norm(p_hat) * np.linalg.norm(z)

    def test_corrupt_kernel_is_rejected(self):
        # doubling one diagonal entry of B22c (which is negative) moves the
        # constant pressure trace out of the kernel: it is not deflated,
        # and the outer operator is definite
        bs, _ = self._stage2()
        cond = slv.condense(bs)
        B22c = cond.S.B22c
        assert B22c.indices[0] == 0  # data[0] is the entry (0, 0)
        B22c.data[0] -= abs(B22c.data[0])
        _, report = slv.solve_saddle_trace(cond)
        assert report.kernel_rejected and not report.deflated
        assert report.converged

    def test_pressure_kernel_annihilated(self):
        bs, _ = self._stage2()
        cond = slv.condense(bs)
        S, z = saddle_matrix(cond), pressure_kernel(bs.dof)
        assert np.linalg.norm(S @ z) <= 1e-8 * sp.linalg.norm(S)

    def test_decoupled_saddle_matches_plain_cg(self):
        # B12 = 0: the outer operator is Mp, the probe fits rho = 0, and
        # the surrogate rho * W - B22c is Mp itself, so one iteration
        # solves Mp p = -c2 exactly; Mp is definite, so the constant
        # pressure trace is no null vector and is rejected
        rng = np.random.default_rng(6)
        Q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        B11 = Q @ np.diag(np.linspace(1, 3, 6)) @ Q.T
        Mp = np.diag(np.linspace(0.5, 2.0, 5))
        rhs = np.concatenate([np.zeros(6), rng.standard_normal(5)])
        cond = toy_saddle_system(B11, Mp, rhs)
        x2, report = slv.solve_saddle_trace(cond)
        th, ph = x2[:6], x2[6:]
        assert report.stop_reason == "converged" and report.iterations == 1
        assert not report.deflated and report.kernel_rejected
        assert np.allclose(Mp @ ph, -rhs[6:], rtol=1e-12, atol=1e-14)
        assert np.allclose(th, np.zeros(6), atol=1e-12)

    def test_iteration_budget_reports_max_iter(self):
        bs, _ = self._stage2(n=4)
        _, report = slv.solve_saddle_trace(slv.condense(bs),
                                           slv.SolverConfig(max_iter=1))
        assert report.stop_reason == "max_iter" and not report.converged
        assert report.iterations == 1

    def test_run_convergence_names_stage_and_stop(self):
        with pytest.raises(RuntimeError,
                           match="n=2: step2 solve stopped on max_iter"):
            vf.run_convergence(PlateMaterial(t=0.1), "tri", SpaceConfig(1),
                               [2], slv.SolverConfig(max_iter=1))

    def test_direct_oracle_matches_cg_path(self):
        bs, mesh = self._stage2(t=0.01)
        cond = slv.condense(bs)
        x_direct = solve_saddle_direct(cond)
        x_cg, _ = slv.solve_saddle_trace(cond)
        z = pressure_kernel(bs.dof)
        x_direct = x_direct - (x_direct @ z) * z  # same kernel gauge
        assert np.abs(x_cg - x_direct).max() <= 1e-8 * np.abs(x_direct).max()


def _factor_blocks(cond):
    """(name, block) of every factorization of one stage."""
    dof, S = cond.system.dof, saddle_matrix(cond)
    if cond.system.stage != "step2":
        return [("S", S)]
    m = dof.trace_fields["p_hat"].offset
    return [("B11", S[:m, :m]),
            ("surrogate", slv._phat_edge_mass(dof) - S[m:, m:])]


def _b11(mesh, k):
    """The stage-two block ``B11`` (CSC)."""
    bs = _stage_systems(mesh, k)[1]
    return _factor_blocks(slv.condense(bs))[0][1]


def _fill(A: sp.csc_matrix) -> int:
    return slv._factorize(A)[0].nnz


class TestTraceFactorization:
    MESHES = {"tri": lambda: generate_structured("triangle", 12),
              "quad": lambda: generate_structured("quadrilateral", 10),
              "mixed": lambda: mixed_strip(12)}

    @pytest.mark.parametrize("kind", MESHES)
    def test_order_is_permutation_of_each_stage(self, kind):
        mesh = self.MESHES[kind]()
        # the order differs from the edge numbering, so that the check
        # below is not vacuous
        assert np.any(mesh.edge_order != np.arange(mesh.num_edges))
        # each stage's trace dofs, listed edge by edge in edge_order,
        # field by field, count up from 0: the numbering is that order
        for bs in _stage_systems(mesh, 2):
            dofs = [f.dofs(mesh.edge_order)
                    for f in bs.dof.trace_fields.values()]
            listed = np.concatenate([d[d >= 0] for d in dofs])
            assert np.array_equal(listed, np.arange(bs.dof.n_trace))

    @pytest.mark.parametrize("kind", MESHES)
    def test_solve_matches_default_splu(self, kind):
        mesh = self.MESHES[kind]()
        rng = np.random.default_rng(3)
        for bs in _stage_systems(mesh, 2):
            for name, A in _factor_blocks(slv.condense(bs)):
                b = rng.standard_normal(A.shape[0])
                ref = spla.splu(A).solve(b)
                got = slv._factorize(A)[0].solve(b)
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), \
                    (bs.stage, name)

    def test_b11_fill_below_colamd(self):
        B11 = _b11(generate_structured("triangle", 16), 3)
        assert _fill(B11) < spla.splu(B11).nnz

    def test_b11_fill_below_mmd(self):
        # also below SuperLU's minimum degree order of A + A^T, unpivoted
        for kind, k in [("triangle", 3), ("quadrilateral", 2)]:
            B11 = _b11(generate_structured(kind, 16), k)
            lu = spla.splu(B11, permc_spec="MMD_AT_PLUS_A",
                           diag_pivot_thresh=0.0,
                           options={"SymmetricMode": True})
            assert _fill(B11) < lu.nnz, kind
        # and the same, to 0.1%, for three numberings of one mesh
        fills = [_fill(_b11(Mesh(*renumbered_grid("triangle", 16, seed)), 3))
                 for seed in range(3)]
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
        for stage in ("step1", "step2", "step3"):
            rep = fields.reports[stage]
            assert rep.factor_fill > 0 and rep.factor_time > 0
        # stage three factors stage one's S again: no factor is kept
        assert (fields.reports["step3"].factor_fill
                == fields.reports["step1"].factor_fill)

    def test_saddle_operator_not_kept(self):
        # no stage keeps its operator, its S or its factor, beside the
        # local matrices every stage views; stage two keeps on the mesh
        # only the pattern of its blocks
        mat = PlateMaterial(t=0.1)
        mesh, ex = generate_structured("triangle", 4), vf.exact_fields(mat)
        bs1 = asm.assemble_step1(mesh, SpaceConfig(1), ex.g[0])
        x1, _, _ = slv.solve_stage(bs1)
        assert {key for key in mesh.kept if key[0] in ("poisson", "local")
                } == {("local", 1)}
        bs2 = asm.assemble_step2(mesh, SpaceConfig(1), mat,
                                 bs1.dof.field("flux", x1))
        before = set(mesh.kept)
        slv.solve_stage(bs2)
        layout = ((4, True), (1, False))
        assert set(mesh.kept) - before == {("pattern", layout)}

    def test_one_poisson_operator_and_four_factorizations(
            self, monkeypatch):
        # one Poisson operator per mesh in value: both Poisson stages of
        # every solve build it from the one kept local set, to the same S
        calls = {"_factorize": 0, "_local_matrices": 0}

        def counting(module, name):
            orig = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return orig(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)
        counting(slv, "_factorize")
        counting(asm, "_local_matrices")
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
        assert calls == {"_factorize": 4, "_local_matrices": 1}
        assert fields.reports["step1"].factor_fill > 0
        # stage three factors S again: both Poisson stages condense to the
        # same S, bit for bit
        assert len(poisson_S) == 2
        assert np.array_equal(poisson_S[0], poisson_S[1])
        assert (fields.reports["step3"].factor_fill
                == fields.reports["step1"].factor_fill)
        # the stage-one system does not outlive the solve
        gc.collect()
        assert len(refs) == 1 and refs[0]() is None and fields.omega.coeffs.any()
        # a second solve on the mesh, at another t, reuses the local set
        # and factors all four blocks again
        mat = PlateMaterial(t=1e-6)
        fields = vf.solve_plate(mesh, SpaceConfig(1), mat, vf.exact_fields(mat))
        assert calls == {"_factorize": 2 * 4, "_local_matrices": 1}
        for rep in fields.reports.values():
            assert rep.factor_fill > 0 and rep.factor_time > 0
        # and its S is still the one of the first solve
        assert len(poisson_S) == 4
        assert all(np.array_equal(poisson_S[0], S) for S in poisson_S[2:])
        # the local set does not outlive the mesh
        local = weakref.ref(mesh.kept["local", 1][0][3][0])
        del mesh, fields
        gc.collect()
        assert local() is None

    def test_stage_two_condenses_into_its_blocks(self, monkeypatch):
        # condense sums stage two straight into the blocks the solve
        # reads, each its own buffer with a slot for what it drops (the
        # eliminated dofs; B12^T is never scattered); no S is formed, and
        # B11 goes to SuperLU as it comes, after which cond holds no B11
        bs = _stage_systems(generate_structured("triangle", 4), 2)[1]
        cond = slv.condense(bs)
        assert isinstance(cond.S, slv.SaddleBlocks)
        B11, B12, B22c = cond.S
        assert (B11.format, B12.format, B22c.format) == ("csc", "csc", "csc")
        assert all(B.data.base.size == B.nnz + 1 for B in cond.S)
        assert len({id(B.data.base) for B in cond.S}) == 3
        factorize, received = slv._factorize, []

        def record(A, *args):
            received.append(A)
            return factorize(A, *args)
        monkeypatch.setattr(slv, "_factorize", record)
        slv.solve_saddle_trace(cond)
        assert received[0] is B11
        assert cond.S.B11 is None and cond.S[1:] == (B12, B22c)

    def test_nnz_after_b11_is_released_names_the_stored_count(self):
        # before the solve nnz counts B12^T too; after it, B11 is gone and
        # nnz says so
        bs = _stage_systems(generate_structured("triangle", 2), 1)[1]
        cond = slv.condense(bs)
        B11, B12, B22c = cond.S
        assert cond.S.nnz == B11.nnz + 2 * B12.nnz + B22c.nnz
        slv.solve_saddle_trace(cond)
        with pytest.raises(ValueError, match=r"B11 was released.*"
                                             r"SolveReport\.stored_nnz"):
            cond.S.nnz

    def test_b11_is_gone_when_the_surrogate_is_factored(self, monkeypatch):
        # B11's entries go with its factorization: by the time the
        # surrogate is factored, nothing reaches B11's data buffer
        factorize, buffers, reachable = slv._factorize, {}, []

        def record(A, stage, block):
            if block == "surrogate":
                reachable.append(buffers["B11"]() is not None)
            else:
                buffers[block] = weakref.ref(
                    A.data if A.data.base is None else A.data.base)
            return factorize(A, stage, block)
        monkeypatch.setattr(slv, "_factorize", record)
        mat = PlateMaterial(t=1e-6)
        fields = vf.solve_plate(generate_structured("triangle", 4),
                                SpaceConfig(3), mat, vf.exact_fields(mat))
        assert reachable == [False]
        assert fields.reports["step2"].converged

    def test_no_factor_outlives_its_stage(self, monkeypatch):
        # stage one's factor is gone when B11, the solve's largest
        # allocation, is factored, and no factor is left once the solve
        # returns; SuperLU takes no weak reference, so each factor goes
        # behind a proxy that alone holds it
        class Factor:
            def __init__(self, lu):
                self.lu = lu

            @property
            def nnz(self):
                return self.lu.nnz

            def solve(self, b):
                return self.lu.solve(b)

        factorize, made, alive_at_b11 = slv._factorize, [], []

        def proxied(A, stage, block):
            if block == "B11":
                alive_at_b11.extend(name for name, ref in made if ref())
            lu, seconds = factorize(A, stage, block)
            proxy = Factor(lu)
            made.append(((stage, block), weakref.ref(proxy)))
            return proxy, seconds
        monkeypatch.setattr(slv, "_factorize", proxied)
        mat = PlateMaterial(t=1e-2)
        mesh = generate_structured("triangle", 4)
        fields = vf.solve_plate(mesh, SpaceConfig(2), mat, vf.exact_fields(mat))
        assert [name for name, _ in made] == [
            ("step1", "S"), ("step2", "B11"), ("step2", "surrogate"),
            ("step3", "S")]
        assert alive_at_b11 == []
        assert [name for name, ref in made if ref()] == []
        assert all(rep.converged for rep in fields.reports.values())

    def test_b11_without_zeros_replaces_it(self, monkeypatch):
        # on axis-parallel quads B11 stores exact zeros, which _factorize
        # drops in a copy: SuperLU factors the copy while the original's
        # entries can no longer be reached
        bs = _stage_systems(generate_structured("quadrilateral", 4), 2)[1]
        cond = slv.condense(bs)
        assert not cond.S.B11.data.all()
        original = weakref.ref(cond.S.B11.data.base)
        splu, reachable, zeros = spla.splu, [], []

        def recording(A, *args, **kwargs):
            reachable.append(original() is not None)
            zeros.append(not A.data.all())
            return splu(A, *args, **kwargs)
        monkeypatch.setattr(spla, "splu", recording)
        slv.solve_saddle_trace(cond)
        assert reachable == [False, False]  # B11's copy, the surrogate
        assert zeros == [False, False]

    def test_every_factorization_takes_the_panel(self, monkeypatch):
        # SuperLU works in panels of _PANEL_SIZE columns on S, B11 and the
        # surrogate alike
        splu, options = spla.splu, []

        def recording(A, *args, **kwargs):
            options.append(kwargs)
            return splu(A, *args, **kwargs)
        monkeypatch.setattr(spla, "splu", recording)
        mat = PlateMaterial(t=1e-2)
        vf.solve_plate(generate_structured("quadrilateral", 4), SpaceConfig(2),
                       mat, vf.exact_fields(mat))
        assert len(options) == 4
        assert all(kw.get("panel_size") == slv._PANEL_SIZE for kw in options)


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


class TestTraceVectorLength:
    """On tri n=4 k=1, stage one keeps 40 trace dofs; a trace vector one
    short read its padding as the last dof, and one too long went
    unread."""

    @staticmethod
    def _stage_one():
        mesh = generate_structured("triangle", 4)
        bs = asm.assemble_step1(mesh, SpaceConfig(1), lambda x, y: 1.0 + x)
        assert bs.n_trace == 40
        return bs, slv.condense(bs)

    @pytest.mark.parametrize("n", [39, 43])
    def test_back_substitute_rejects_a_wrong_length(self, n):
        _, cond = self._stage_one()
        with pytest.raises(ValueError, match=r"expected \(40,\)"):
            slv.back_substitute(cond, np.zeros(n))

    @pytest.mark.parametrize("n", [39, 43])
    def test_full_residual_rejects_a_wrong_length(self, n):
        bs, cond = self._stage_one()
        x1 = slv.back_substitute(cond, np.zeros(40))
        with pytest.raises(ValueError, match=r"expected \(40,\)"):
            slv.full_residual(bs, x1, np.zeros(n))

    @pytest.mark.parametrize("cut", [np.s_[:-1], np.s_[:, :-1], np.s_[0]])
    def test_full_residual_rejects_a_wrong_interior_shape(self, cut):
        bs, cond = self._stage_one()
        x1 = slv.back_substitute(cond, np.zeros(40))
        with pytest.raises(ValueError, match=r"expected \(32, 5\)"):
            slv.full_residual(bs, x1[cut], np.zeros(40))


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


class TestHeapTrim:
    """Every factorization first returns the freed heap to the OS
    (``slv._trim_heap``, glibc's ``malloc_trim(0)``), which moves no bit."""

    @staticmethod
    def solve(mesh, t=0.1):
        mat = PlateMaterial(t=t)
        return vf.solve_plate(mesh, SpaceConfig(2), mat, vf.exact_fields(mat))

    def test_one_trim_per_factorization(self, monkeypatch):
        calls = []
        monkeypatch.setattr(slv, "_trim_heap", lambda: calls.append(1))
        mesh = generate_structured("triangle", 4)
        self.solve(mesh)  # the Poisson S twice, B11 and the surrogate
        assert len(calls) == 4
        self.solve(mesh, t=1e-6)  # no factor is kept on the mesh
        assert len(calls) == 4 + 4

    def test_trim_changes_no_bit(self, monkeypatch):
        trimmed = self.solve(generate_structured("quadrilateral", 4))
        monkeypatch.setattr(slv, "_trim_heap", lambda: None)
        plain = self.solve(generate_structured("quadrilateral", 4))
        for name in _FIELDS:
            assert np.array_equal(getattr(trimmed, name).coeffs,
                                  getattr(plain, name).coeffs), name
        for name in _TRACES:
            assert np.array_equal(getattr(trimmed, name), getattr(plain, name))
        for stage, rep in trimmed.reports.items():
            other = plain.reports[stage]
            for key in ("iterations", "residual", "stop_reason",
                        "residual_history", "precond_residual_history",
                        "factor_fill"):
                assert getattr(rep, key) == getattr(other, key), (stage, key)

    @pytest.mark.parametrize("missing", ["symbol", "library"])
    def test_without_malloc_trim_the_trim_is_a_no_op(self, monkeypatch,
                                                      missing):
        # musl, macOS and Windows have no malloc_trim
        def cdll(name):
            if missing == "library":
                raise OSError("no C library to load")
            return SimpleNamespace()  # a C library without malloc_trim
        monkeypatch.setattr(slv.ctypes, "CDLL", cdll)
        trim = slv._find_malloc_trim()
        assert trim() is None
        monkeypatch.setattr(slv, "_trim_heap", trim)
        fields = self.solve(generate_structured("triangle", 2))
        assert all(rep.converged for rep in fields.reports.values())


class TestMeshCache:
    """The local set and the trace patterns are kept on the mesh (see
    also ``test_mesh.TestKept``)."""

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

    def test_kept_patterns_hold_one_start_per_row_block(self):
        # measured at tri n=16 k=3 after one solve_plate: 1.90 MB under the
        # two ("pattern", layout) keys, 1.70 MB of it stage two's; 2.04 MB
        # with the starts laid end to end, B12^T's rows included, and 3.98
        # MB with one position per local entry
        mat = PlateMaterial(t=1e-2)
        mesh = generate_structured("triangle", 16)
        vf.solve_plate(mesh, SpaceConfig(3), mat, vf.exact_fields(mat))
        patterns = [value for key, value in mesh.kept.items()
                    if key[0] == "pattern"]
        assert len(patterns) == 2
        assert sum(arr.nbytes for arr in arrays_in(patterns)) <= 2.3e6

    def test_stage_two_keeps_one_start_array_per_stored_block(self):
        # B11, B12 and B22c each have their own starts, none B12^T: 0.246
        # MiB at tri n=16 k=3, where laid end to end they held 0.387 MiB
        bs = _stage_systems(generate_structured("triangle", 16), 3)[1]
        pattern = slv._pattern(bs)
        fields = list(bs.dof.trace_fields.values())
        stored = [(f, g) for i, f in enumerate(fields) for g in fields[i:]]
        assert len(stored) == len(pattern["blocks"]) == 3
        nbytes = 0
        for grp, starts in zip(bs.groups, pattern["starts"], strict=True):
            ne, nv = grp.batch.edge_ids.shape
            shapes = [(ne, nv, nv * g.per_edge) for _, g in stored]
            assert [start.shape for start in starts] == shapes
            nbytes += sum(map(math.prod, shapes)) * starts[0].itemsize
            # each start lies in its own block's data, or is its drop slot
            for start, (_, indices, _) in zip(starts, pattern["blocks"]):
                assert 0 <= start.min() and start.max() <= len(indices)
        assert sum(a.nbytes for a in arrays_in(pattern["starts"])) == nbytes
        assert nbytes <= 0.25 * 2 ** 20

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
            for B, block in zip(S, built[1]["blocks"], strict=True):
                assert np.shares_memory(B.indices, block[1])
        assert first is not second

    def test_stage_two_condense_transient(self):
        # above what condense returns (Y and the blocks), stage two's
        # condense at tri n=16 k=3 peaks at 9.2 MB, the pattern build and
        # the dense trace columns of one chunk included; 11.0 MB when it
        # held every local Schur block until one scatter at the end, as
        # when it returned all of S, 10.3 MB above it (9.1 MB when the
        # group kept them dense); a sum of COO triplets through a
        # COO-to-CSR copy peaks at 26.5 MB, and the mass-first elimination
        # of a whole group at once at 21.7 MB
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

    def test_condense_transient_is_bounded_by_the_chunk(self):
        # each chunk is scattered as it is eliminated, so with the pattern
        # kept the transient is one chunk's temporaries, 9.2 MB at tri
        # n=32 k=3 as at n=16; every element's local Schur block held
        # until one scatter at the end made it 22.3 MB (49.1 MB at n=48)
        bs = _stage_systems(generate_structured("triangle", 32), 3)[1]
        slv.condense(bs)  # builds and keeps the pattern
        gc.collect()
        tracemalloc.start()
        try:
            cond = slv.condense(bs)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - kept <= 12 * 2 ** 20
        del cond

    def test_first_condense_peaks_no_higher_than_the_second(self):
        # above what condense returns, stage two's condense at tri n=32
        # k=3 peaks at 7.17 MiB on both calls (tracemalloc); when the first
        # built the pattern from the dof-level product P (E^T E) P^T it
        # peaked at 14.6 MiB (33.4 against 8.8 MiB at n=48), and with
        # sp.kron's array of ones at 11.5 MiB
        bs = _stage_systems(generate_structured("triangle", 32), 3)[1]
        transients = []
        for _ in range(2):  # builds the pattern, then reuses it
            gc.collect()
            tracemalloc.start()
            try:
                cond = slv.condense(bs)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            transients.append(peak - kept)
            del cond
        assert transients[0] <= transients[1] + 2 ** 20

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

    @pytest.mark.parametrize("kind", ["triangle", "quadrilateral"])
    def test_stage_one_does_not_depend_on_numbering(self, kind):
        # the trace dofs follow the mesh's geometric edge order, so at k=1
        # (one constant per edge) renumbering the vertices and elements
        # moves no bit of stage one's trace system or its solution; at
        # k >= 2 each edge's monomials in s still run by vertex id
        digests = set()
        for seed in (1, 2, 3):
            mesh = Mesh(*renumbered_grid(kind, 6, seed))
            bs = asm.assemble_step1(mesh, SpaceConfig(1),
                                    lambda x, y: 1.0 + x * y)
            cond = slv.condense(bs)
            x2, _ = slv.solve_spd(cond)
            digests.add(b"".join(a.tobytes() for a in (
                cond.S.data, cond.S.indices, cond.S.indptr, cond.rhs, x2)))
        assert len(digests) == 1
