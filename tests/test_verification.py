import csv
import dataclasses
import gc
import io
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hdgplate import assembly as asm
from hdgplate import solver as slv
from hdgplate import verification as vf
from hdgplate.assembly import DiscreteField, PlateMaterial, SpaceConfig
from hdgplate.mesh import Mesh, generate_structured
from meshes import mixed_strip
from oracles import (eval_exact, evaluate_gathered, is_zero, l2_error,
                     table_errors_longdouble)


class TestPoly2:
    def test_arithmetic_is_exact(self):
        X, Y = vf.Poly2.x(), vf.Poly2.y()
        p = (X + Y) * (X - Y) - X * X + Y * Y
        assert is_zero(p)

    def test_differentiation(self):
        X, Y = vf.Poly2.x(), vf.Poly2.y()
        p = X ** 3 * Y + 2 * Y
        assert is_zero(p.dx() - 3 * X ** 2 * Y)
        assert is_zero(p.dy() - (X ** 3 + vf.Poly2.const(2)))

    def test_float_and_exact_eval_agree(self):
        X, Y = vf.Poly2.x(), vf.Poly2.y()
        p = 3 * X ** 2 * Y - Y ** 2 + vf.Poly2.const(Fraction(1, 4))
        assert p(0.5, 0.25) == pytest.approx(float(eval_exact(
            p, Fraction(1, 2), Fraction(1, 4))), rel=1e-15)

    def test_shifted_variables(self):
        o = (Fraction(1, 2), Fraction(-1, 4))
        X = vf.Poly2.x(o) + o[0]
        Y = vf.Poly2.y(o) + o[1]
        p = 3 * X ** 2 * Y - Y ** 2 + 7
        q = 3 * vf.Poly2.x() ** 2 * vf.Poly2.y() - vf.Poly2.y() ** 2 + 7
        assert p.origin == o and p.dx().origin == o and (-p).origin == o
        assert p.degree == 3
        for x, y in ((0, 0), (Fraction(1, 3), 2), (-1, Fraction(5, 7))):
            assert eval_exact(p, x, y) == eval_exact(q, x, y)
            assert eval_exact(p.dx(), x, y) == eval_exact(q.dx(), x, y)
            assert eval_exact(p.dy(), x, y) == eval_exact(q.dy(), x, y)
        assert p(0.75, 0.5) == pytest.approx(float(eval_exact(q, 0.75, 0.5)),
                                             rel=1e-15)
        assert is_zero(p - p) and not is_zero(p - q.coeffs[(0, 0)])

    def test_different_origins_do_not_combine(self):
        X, Xc = vf.Poly2.x(), vf.Poly2.x((Fraction(1, 2), 0))
        for op in (lambda a, b: a + b, lambda a, b: a - b,
                   lambda a, b: a * b):
            with pytest.raises(ValueError, match="different origins"):
                op(X, Xc)
        with pytest.raises(ValueError, match="different origins"):
            vf.PolyField([X, Xc])(0.5, 0.5)

    @pytest.mark.parametrize("n", [-1, 2.0, 0.5, Fraction(2)])
    def test_power_needs_non_negative_integer(self, n):
        with pytest.raises(ValueError, match="non-negative integer"):
            vf.Poly2.x() ** n

    def test_power_zero_is_one(self):
        o = (Fraction(1, 2), Fraction(1, 2))
        one = vf.Poly2.y(o) ** 0
        assert one.origin == o and one.coeffs == {(0, 0): 1}


def _abs_sum(poly, x, y) -> float:
    """Sum of |c_ab dx^a dy^b| at a rational point, (dx, dy) = (x, y) -
    origin: the scale of round-off."""
    dx, dy = x - poly.origin[0], y - poly.origin[1]
    return float(sum(abs(v * dx ** a * dy ** b)
                     for (a, b), v in poly.coeffs.items()))


def _monomial_sum(poly, x, y, absolute=False):
    """Reference float evaluation, one broadcast term per monomial of the
    shifted variables; with ``absolute``, the sum of the terms' magnitudes
    (the scale of round-off)."""
    dx = x - float(poly.origin[0])
    dy = y - float(poly.origin[1])
    out = np.zeros(np.broadcast(x, y).shape)
    for (a, b), v in poly.coeffs.items():
        term = float(v) * dx ** a * dy ** b
        out = out + (np.abs(term) if absolute else term)
    return out


class TestPolynomialKernel:
    @pytest.mark.parametrize("t", [0.5, 1e-4])
    def test_exact_fields_match_rational_evaluation(self, t):
        exact = vf.exact_fields(PlateMaterial(t=t))
        # dyadic points are exact floats, so x_f = x_q below
        rng = np.random.default_rng(11)
        num = rng.integers(0, 2 ** 20 + 1, size=(2, 25))
        xq = [Fraction(int(i), 2 ** 20) for i in num[0]]
        yq = [Fraction(int(i), 2 ** 20) for i in num[1]]
        xf = np.array([float(v) for v in xq])
        yf = np.array([float(v) for v in yq])
        for f in dataclasses.fields(exact):
            field_ = getattr(exact, f.name)
            if not isinstance(field_, vf.PolyField):
                continue
            vals = field_(xf, yf)
            for c, poly in enumerate(field_.components):
                for i, (x, y) in enumerate(zip(xq, yq)):
                    err = abs(vals[c, i] - float(eval_exact(poly, x, y)))
                    assert err <= 1e-13 * _abs_sum(poly, x, y), (f.name, c)

    @pytest.mark.parametrize("npts", [0, 1, vf._CHUNK - 1, vf._CHUNK,
                                      vf._CHUNK + 1])
    def test_point_counts_across_chunks(self, npts):
        sigma = vf.exact_fields(PlateMaterial(t=0.1)).sigma
        rng = np.random.default_rng(npts)
        x, y = rng.uniform(0, 1, size=(2, npts))
        vals = sigma(x, y)
        assert vals.shape == (3, npts)
        for c, poly in enumerate(sigma.components):
            ref = _monomial_sum(poly, x, y)
            scale = _monomial_sum(poly, x, y, absolute=True)
            assert np.all(np.abs(vals[c] - ref) <= 1e-13 * scale)

    def test_scalar_and_broadcast_input(self):
        exact = vf.exact_fields(PlateMaterial(t=0.1))
        omega = exact.omega[0]
        value = omega(0.3, 0.6)
        assert np.ndim(value) == 0
        assert value == pytest.approx(_monomial_sum(omega, 0.3, 0.6),
                                      rel=1e-13)
        assert exact.theta(0.3, 0.6).shape == (2,)
        x = np.linspace(0.1, 0.9, 3)[:, None]
        y = np.linspace(0.2, 0.8, 4)[None, :]
        vals = exact.gamma(x, y)
        assert vals.shape == (2, 3, 4)
        for c, poly in enumerate(exact.gamma.components):
            ref = _monomial_sum(poly, x, y)
            scale = _monomial_sum(poly, x, y, absolute=True)
            assert ref.shape == (3, 4)
            assert np.all(np.abs(vals[c] - ref) <= 1e-13 * scale)

    def test_outer_product_keeps_the_gathered_bits(self):
        exact = vf.exact_fields(PlateMaterial(t=1e-2))
        table = (exact.theta.components + exact.gamma.components
                 + exact.sigma.components + exact.omega.components)
        rng = np.random.default_rng(5)
        x, y = rng.uniform(0, 1, size=(2, 7, 2 * vf._CHUNK + 3))
        for polys in (table, exact.g.components, exact.f.components,
                      exact.sigma.components, exact.p.components):
            assert np.array_equal(vf.PolyField(polys)(x, y),
                                  evaluate_gathered(polys, x, y))

    def test_zero_polynomial(self):
        p = vf.exact_fields(PlateMaterial(t=0.1)).p
        assert np.all(p(np.ones((2, 3)), np.ones((2, 3))) == 0)
        assert p(np.ones((2, 3)), 0.5).shape == (1, 2, 3)


class TestExactSolution:
    def setup_method(self):
        self.mat = PlateMaterial(t=0.1)
        self.exact = vf.exact_fields(self.mat)

    def test_rotation_vanishes_at_center(self):
        assert self.exact.theta(0.5, 0.5) == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_deflection_center_value(self):
        # independently recomputed from the closed form at t=0.1, nu=0.3
        assert self.exact.omega[0](0.5, 0.5) == pytest.approx(
            9.254092261904615e-3, rel=1e-9)

    def test_body_force_vanishes(self):
        rng = np.random.default_rng(17)
        pts = rng.uniform(0.02, 0.98, size=(2, 100))
        fvals = self.exact.f(pts[0], pts[1])
        sigma_scale = np.abs(self.exact.sigma(pts[0], pts[1])).max()
        assert np.abs(fvals).max() <= 1e-10 * sigma_scale

    def test_clamped_boundary_exactly(self):
        samples = [Fraction(i, 49) for i in range(50)]
        for field in (self.exact.theta[0], self.exact.theta[1],
                      self.exact.omega[0]):
            for s in samples:
                assert eval_exact(field, s, 0) == 0
                assert eval_exact(field, s, 1) == 0
                assert eval_exact(field, 0, s) == 0
                assert eval_exact(field, 1, s) == 0

    def test_load_is_thickness_independent(self):
        g_thin = vf.exact_fields(PlateMaterial(t=0.003)).g[0]
        g_thick = vf.exact_fields(PlateMaterial(t=0.9)).g[0]
        assert is_zero(g_thin - g_thick)

    def test_shear_potentials(self):
        # gamma = grad(r) + perp_grad(p) with p identically zero here
        r = self.exact.r[0]
        assert is_zero(self.exact.gamma[0] - r.dx())
        assert is_zero(self.exact.gamma[1] - r.dy())
        assert is_zero(self.exact.p[0])

    def test_degrees(self):
        assert self.exact.omega[0].degree == 12
        assert self.exact.theta[0].degree == 11
        assert self.exact.g[0].degree == 8


class TestErrorNorms:
    def test_self_error_is_zero(self):
        mesh = generate_structured("triangle", 2)
        rng = np.random.default_rng(3)
        coeffs = rng.standard_normal((8, 3))
        fld = DiscreteField(mesh, 1, "scalar", coeffs)
        # evaluate the piecewise polynomial through the field itself
        same = lambda x, y: _piecewise_eval(fld, x, y)
        err = l2_error(fld, same, quad_degree=8)
        assert err <= 1e-14 * np.abs(coeffs).max()

    def test_norm_of_x_on_unit_square(self):
        mesh = generate_structured("quadrilateral", 2)
        zero = DiscreteField(mesh, 0, "scalar", np.zeros((4, 1)))
        err = l2_error(zero, lambda x, y: x, quad_degree=4)
        assert err == pytest.approx(1 / np.sqrt(3), rel=1e-13)

    def test_invariant_under_element_permutation(self):
        mesh = generate_structured("triangle", 2)
        perm = [3, 1, 7, 0, 5, 2, 6, 4]
        loops = [mesh.elements[i].vertex_loop for i in perm]
        mesh_p = Mesh(mesh.points.copy(), loops)
        exact = lambda x, y: np.sin(x) * y
        zero = DiscreteField(mesh, 1, "scalar", np.zeros((8, 3)))
        zero_p = DiscreteField(mesh_p, 1, "scalar", np.zeros((8, 3)))
        a = l2_error(zero, exact, quad_degree=12)
        b = l2_error(zero_p, exact, quad_degree=12)
        assert a == pytest.approx(b, rel=1e-14)

    def test_quad_degree_guard(self):
        mesh = generate_structured("triangle", 1)
        fld = DiscreteField(mesh, 2, "scalar", np.zeros((2, 6)))
        with pytest.raises(ValueError):
            l2_error(fld, lambda x, y: x, quad_degree=3)

    def test_component_mismatch_rejected(self):
        mesh = generate_structured("triangle", 1)
        fld = DiscreteField(mesh, 1, "vector2", np.zeros((2, 6)))
        with pytest.raises(ValueError):
            l2_error(fld, lambda x, y: x, quad_degree=4)

    @pytest.mark.parametrize("kind, k", [("quadrilateral", 2),
                                         ("triangle", 3)])
    def test_table_errors_match_longdouble(self, kind, k):
        # the same discrete fields and rule, recomputed in long double:
        # round-off in evaluating the degree-12 exact fields once moved
        # these norms by up to 7e-12 relative
        if np.finfo(np.longdouble).eps > 1e-18:
            pytest.skip("long double is no wider than double here")
        mat = PlateMaterial(t=1e-6)
        exact = vf.exact_fields(mat)
        fields = vf.solve_plate(generate_structured(kind, 8), SpaceConfig(k),
                                mat, exact)
        got = vf.table_errors(fields, exact)
        ref = table_errors_longdouble(fields, exact)
        for name, g, r in zip(("theta", "tgamma", "sigma", "omega"), got, ref):
            assert abs(np.longdouble(g) - r) <= 1e-13 * r, name

    def test_error_chunks_move_no_norm(self, monkeypatch):
        # triangles, quadrilaterals and pentagons (980 points each) in
        # chunks of one element, a few elements, the default and a batch
        mat = PlateMaterial(t=1e-2)
        exact = vf.exact_fields(mat)
        fields = vf.solve_plate(mixed_strip(4), SpaceConfig(2), mat, exact)
        ref = np.square(vf.table_errors(fields, exact))
        for chunk in (1, 2_000, 10 ** 9):
            monkeypatch.setattr(vf, "_ERROR_CHUNK", chunk)
            got = np.square(vf.table_errors(fields, exact))
            assert np.all(np.abs(got - ref) <= 1e-14 * ref), chunk

    def test_table_errors_memory(self):
        # streamed in cache-sized chunks, nothing kept: 5.2 MB traced at
        # tri n=32 k=1, against 56.2 MB with the rule and bases kept
        mat = PlateMaterial(t=1e-2)
        exact = vf.exact_fields(mat)
        fields = vf.solve_plate(generate_structured("triangle", 32),
                                SpaceConfig(1), mat, exact)
        gc.collect()
        tracemalloc.start()
        try:
            vf.table_errors(fields, exact)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 10 ** 6

    def test_tensor_norm_uses_frobenius_weights(self):
        mesh = generate_structured("quadrilateral", 1)
        zero = DiscreteField(mesh, 0, "symtensor2x2", np.zeros((1, 3)))
        # constant off-diagonal tensor [[0, 1], [1, 0]]: |tau|_F^2 = 2
        err = l2_error(zero, lambda x, y: np.stack(
            [0 * x, 0 * x, 1 + 0 * x]), quad_degree=2)
        assert err == pytest.approx(np.sqrt(2.0), rel=1e-13)


def _piecewise_eval(fld, x, y):
    pts = np.stack([np.asarray(x), np.asarray(y)], axis=-1)
    out = np.zeros(pts.shape[:-1])
    for batch in asm.element_batches(fld.mesh):
        vals = fld.values_batched(batch, pts if pts.ndim == 3 else
                                  pts[None].repeat(len(batch.ids), axis=0))
        out = vals[:, 0, :] if pts.ndim == 3 else vals[0, 0]
    return out


class TestObservedRate:
    def test_clean_halving(self):
        assert vf.observed_rate(4e-2, 1e-2) == pytest.approx(2.0, abs=1e-14)

    def test_stagnation(self):
        assert vf.observed_rate(1e-3, 1e-3) == 0.0

    def test_reference_table_pair(self):
        # published pair for the finest halving of the k=1 thick-plate run
        assert vf.observed_rate(3.1768e-05, 7.9517e-06) == pytest.approx(
            2.00, abs=5e-3)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            vf.observed_rate(0.0, 1e-3)
        with pytest.raises(ValueError):
            vf.observed_rate(1e-3, -1.0)


class TestPipeline:
    def setup_method(self):
        self.mat = PlateMaterial(t=0.1)
        self.spaces = SpaceConfig(1)
        self.exact = vf.exact_fields(self.mat)
        self.mesh = generate_structured("triangle", 4)
        self.fields = vf.solve_plate(self.mesh, self.spaces, self.mat,
                                     self.exact)

    def test_gamma_recovery_identity(self):
        expect = self.fields.L.coeffs \
            + self.mat.lam / self.mat.t ** 2 * self.fields.R.coeffs
        assert np.array_equal(self.fields.gamma.coeffs, expect)

    def test_boundary_trace_coefficients_vanish(self):
        for name in ("r_hat", "theta_hat", "omega_hat"):
            arr = getattr(self.fields, name)
            assert np.all(arr[self.mesh.boundary_mask] == 0.0)

    def test_pressure_has_zero_mean(self):
        assert abs(self.fields.p.mean()) <= 1e-12

    def test_galerkin_residual(self):
        bs1 = asm.assemble_step1(self.mesh, self.spaces, self.exact.g[0])
        x1 = np.column_stack([self.fields.L.coeffs, self.fields.r.coeffs])
        tf = bs1.dof.trace_fields["u_hat"]
        mask = tf.edge_rank >= 0
        x2 = self.fields.r_hat[mask].ravel()
        assert slv.full_residual(bs1, x1, x2) <= 1e-10

    def test_field_shapes(self):
        assert self.fields.sigma.rank == "symtensor2x2"
        assert self.fields.theta.degree == 1
        assert self.fields.gamma.degree == 0
        with pytest.raises(ValueError):
            DiscreteField(self.mesh, 1, "vector2", np.zeros((3, 3)))


class TestReducedTraceDegree:
    def test_l_equals_k_minus_1_still_converges(self):
        table = vf.run_convergence(PlateMaterial(t=0.1), "tri",
                                   SpaceConfig(2, 1), [4, 8, 16])
        th, tg, sg, om = table.final_rates()
        assert th > 2.3 and om > 2.3
        assert tg > 1.5 and sg > 1.5


class TestLockingFree:
    def test_rotation_error_uniform_in_thickness(self):
        # errors for a thin and a very thin plate stay within a factor 2
        errs = []
        for t in (0.01, 1e-6):
            table = vf.run_convergence(PlateMaterial(t=t), "tri",
                                       SpaceConfig(1), [32])
            errs.append(table.reports[0].err_theta)
        assert max(errs) / min(errs) < 2.0


class TestBodyForce:
    def test_rates_at_other_shear_correction_factor(self):
        # away from kappa = 5/6 the manufactured body force f is not zero,
        # and the solve must carry it to keep the criterion-2 rate bands
        mat = PlateMaterial(kappa=0.5, t=0.1)
        assert np.abs(vf.exact_fields(mat).f(0.3, 0.4)).max() > 1e-3
        table = vf.run_convergence(mat, "tri", SpaceConfig(1), [4, 8, 16])
        th, tg, sg, om = table.final_rates()
        assert th >= 1.85 and om >= 1.85
        assert 0.85 <= sg <= 1.15 and 0.85 <= tg <= 1.15


class TestRateTable:
    def test_single_level_has_no_rates(self):
        table = vf.run_convergence(PlateMaterial(t=0.1), "tri", SpaceConfig(1),
                                   [4])
        assert table.rates() == []
        assert table.final_rates() == (None,) * 4

    def test_unknown_mesh_kind_rejected(self):
        with pytest.raises(ValueError, match=r"^unknown mesh kind 'hex'$"):
            vf.run_convergence(PlateMaterial(t=0.1), "hex", SpaceConfig(1), [2])

    def test_non_halving_levels_skip_rates(self):
        table = vf.RateTable("triangle", SpaceConfig(1), PlateMaterial())
        table.reports = [vf.ErrorReport(2, 1, 1, 1, 1, 1),
                         vf.ErrorReport(6, 1, 1, 1, 1, 1)]
        assert table.rates() == [(None,) * 4]

    def test_csv_layout_and_determinism(self):
        table = vf.run_convergence(PlateMaterial(t=0.1), "tri", SpaceConfig(1),
                                   [2, 4])
        buf1, buf2 = io.StringIO(), io.StringIO()
        table.write_csv(buf1)
        table.write_csv(buf2)
        assert buf1.getvalue() == buf2.getvalue()
        lines = buf1.getvalue().splitlines()
        assert lines[0] == ",".join(vf.CSV_HEADER)
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[:5] == ["1", "triangle", "2", "0.1",
                             str(table.reports[0].iterations)]
        assert first[6] == ""  # no rate on the first level
        assert lines[2].split(",")[6] != ""


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("name, kind, k, t, levels", [
    ("convergence_tri_k1_t0.01.csv", "tri", 1, 0.01, [4, 8, 16]),
    ("convergence_quad_k2_t1e-06.csv", "quad", 2, 1e-6, [2, 4, 8]),
])
def test_convergence_csv_matches_reference(name, kind, k, t, levels):
    """The committed tables were written by ``hdgplate convergence`` with
    the same arguments; ids and iteration counts must match exactly, the
    numbers up to the round-off another BLAS may bring."""
    table = vf.run_convergence(PlateMaterial(t=t), kind, SpaceConfig(k),
                               levels)
    stream = io.StringIO()
    table.write_csv(stream)
    rows = list(csv.reader(io.StringIO(stream.getvalue())))
    with open(DATA / name, newline="") as ref_stream:
        ref = list(csv.reader(ref_stream))
    assert rows[0] == ref[0] and len(rows) == len(ref)
    for row, ref_row in zip(rows[1:], ref[1:]):
        assert row[:5] == ref_row[:5]
        for cell, ref_cell in zip(row[5:], ref_row[5:]):
            if ref_cell == "":
                assert cell == ""
            else:
                assert float(cell) == pytest.approx(float(ref_cell), rel=1e-9)
