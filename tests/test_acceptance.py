"""Acceptance suite: reproduces the published rate/iteration behavior.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure).  Reference error magnitudes and iteration counts come from the
published thick/thin clamped-plate benchmark tables; rate bands and the
2x iteration allowance account for the different (non-AMG) inner
preconditioning used here.
"""

import numpy as np
import pytest

from hdgplate import assembly as asm
from hdgplate import femspace as fs
from hdgplate import solver as slv
from hdgplate import verification as vf
from hdgplate.assembly import DiscreteField, PlateMaterial, SpaceConfig
from hdgplate.mesh import generate_structured
from oracles import bh_norm, monolithic_dense

# published table cells for k=1, t=1, triangles: n -> (iter, theta, tgamma,
# sigma, omega)
TABLE_T1_TRI_K1 = {
    8: (32, 1.8465e-03, 5.3090e-02, 3.4310e-03, 5.7566e-03),
    16: (41, 4.9623e-04, 2.7260e-02, 1.7645e-03, 1.5051e-03),
    32: (43, 1.2645e-04, 1.3721e-02, 8.8843e-04, 3.8070e-04),
    64: (44, 3.1768e-05, 6.8721e-03, 4.4499e-04, 9.5459e-05),
}
REF_ITER_THIN_N64 = 23  # published thin-plate (t=1e-10) count at the finest level


def _report(name: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def table_t1_tri_k1():
    return vf.run_convergence(PlateMaterial(t=1.0), "tri", SpaceConfig(1),
                              [8, 16, 32, 64])


@pytest.fixture(scope="module")
def table_t001_tri_k1():
    return vf.run_convergence(PlateMaterial(t=0.01), "tri", SpaceConfig(1),
                              [8, 16, 32, 64])


@pytest.fixture(scope="module")
def table_t001_quad_k1():
    return vf.run_convergence(PlateMaterial(t=0.01), "quad", SpaceConfig(1),
                              [8, 16, 32, 64])


def test_criterion1_thick_plate_rates(table_t1_tri_k1):
    th, tg, sg, om = table_t1_tri_k1.final_rates()
    ok = (th >= 1.85 and om >= 1.85
          and 0.85 <= sg <= 1.15 and 0.85 <= tg <= 1.15)
    _report("criterion 1 (t=1 triangle rates, k=1)", ok,
            f"theta {th:.2f} omega {om:.2f} sigma {sg:.2f} tgamma {tg:.2f}")


def test_criterion2_locking_free_rates(table_t001_tri_k1, table_t001_quad_k1):
    details = []
    ok = True
    for label, table in (("tri", table_t001_tri_k1),
                         ("quad", table_t001_quad_k1)):
        th, tg, sg, om = table.final_rates()
        ok &= (th >= 1.85 and om >= 1.85
               and 0.85 <= sg <= 1.15 and 0.85 <= tg <= 1.15)
        details.append(f"{label} k=1: th {th:.2f} om {om:.2f} "
                       f"sg {sg:.2f} tg {tg:.2f}")
    k2 = vf.run_convergence(PlateMaterial(t=0.01), "tri", SpaceConfig(2),
                            [8, 16, 32])
    _, _, sg2, om2 = k2.final_rates()
    ok &= om2 >= 2.7 and sg2 >= 1.7
    details.append(f"tri k=2: om {om2:.2f} sg {sg2:.2f}")
    _report("criterion 2 (t=0.01 locking-free rates)", ok, "; ".join(details))


def test_criterion3_high_order():
    table = vf.run_convergence(PlateMaterial(t=1.0), "tri", SpaceConfig(3),
                               [8, 16, 32])
    th, _, sg, _ = table.final_rates()
    ok = th >= 3.7 and sg >= 2.8
    _report("criterion 3 (k=3 spot check)", ok,
            f"theta {th:.2f} sigma {sg:.2f}")


def test_criterion4_error_magnitude_ratios(table_t1_tri_k1):
    names = ("theta", "tgamma", "sigma", "omega")
    ratios = {name: [] for name in names}
    for rep in table_t1_tri_k1.reports:
        _, *refs = TABLE_T1_TRI_K1[rep.n]
        for name, ours, ref in zip(names, rep.errors(), refs):
            ratios[name].append(ours / ref)
    spreads = {name: max(r) / min(r) for name, r in ratios.items()}
    ok = all(spread <= 1.10 for spread in spreads.values())
    exact_match = all(abs(r - 1.0) <= 0.05
                      for rs in ratios.values() for r in rs)
    detail = "; ".join(
        f"{name}: ratio {np.mean(rs):.3f} spread {spreads[name]:.3f}"
        for name, rs in ratios.items())
    if exact_match:
        detail += "; full quantitative agreement"
    _report("criterion 4 (error magnitude ratios constant)", ok, detail)


def test_criterion5_iteration_counts(table_t1_tri_k1):
    iters = {rep.n: rep.iterations for rep in table_t1_tri_k1.reports}
    ok = iters[64] <= 2 * TABLE_T1_TRI_K1[64][0]
    growth = iters[64] / iters[16]
    ok &= growth <= 1.6

    mat = PlateMaterial(t=1e-10)
    mesh = generate_structured("triangle", 64)
    fields = vf.solve_plate(mesh, SpaceConfig(1), mat, vf.exact_fields(mat))
    thin_iters = fields.reports["step2"].iterations
    ok &= thin_iters <= 2 * REF_ITER_THIN_N64
    _report("criterion 5 (iteration counts)", ok,
            f"t=1: n64 {iters[64]} (<= {2 * TABLE_T1_TRI_K1[64][0]}), "
            f"growth {growth:.2f} (<= 1.6); "
            f"t=1e-10: n64 {thin_iters} (<= {2 * REF_ITER_THIN_N64})")


def _oracle_case(kind, n, k, t):
    mesh = generate_structured(kind, n)
    mat = PlateMaterial(t=t)
    spaces = SpaceConfig(k)
    exact = vf.exact_fields(mat)
    cfg = slv.SolverConfig(tol=1e-12)
    worst = 0.0

    def compare(x, x_ref):
        scale = max(np.abs(x_ref).max(), 1e-14)
        return np.abs(x - x_ref).max() / scale

    bs1 = asm.assemble_step1(mesh, spaces, exact.g[0])
    x1, x2, _ = slv.solve_stage(bs1, cfg)
    A, b = monolithic_dense(bs1)
    ref = np.linalg.solve(A, b)
    ni = bs1.n_interior
    worst = max(worst, compare(x1.ravel(), ref[:ni]), compare(x2, ref[ni:]))

    L = DiscreteField(mesh, k - 1, "vector2", x1[:, bs1.dof.interior_slice("flux")])
    bs2 = asm.assemble_step2(mesh, spaces, mat, L)
    y1, y2, _ = slv.solve_stage(bs2, cfg)
    A2, b2 = monolithic_dense(bs2)
    ref2, *_ = np.linalg.lstsq(A2, b2, rcond=None)
    ni2 = bs2.n_interior
    y1r = ref2[:ni2].reshape(mesh.num_elements, -1)
    y2r = ref2[ni2:].copy()
    for yy1, yy2 in ((y1, y2), (y1r, y2r)):
        asm.shift_pressure_to_zero_mean(bs2, yy1, yy2)
    for name in ("sigma", "R", "theta", "p"):
        sl = bs2.dof.interior_slice(name)
        worst = max(worst, compare(y1[:, sl].ravel(), y1r[:, sl].ravel()))
    worst = max(worst, compare(y2, y2r))

    theta = DiscreteField(mesh, k, "vector2", y1[:, bs2.dof.interior_slice("theta")])
    bs3 = asm.assemble_step3(bs1, mat, theta, exact.g[0])
    z1, z2, _ = slv.solve_stage(bs3, cfg)
    A3, b3 = monolithic_dense(bs3)
    ref3 = np.linalg.solve(A3, b3)
    worst = max(worst, compare(z1.ravel(), ref3[:bs3.n_interior]),
                compare(z2, ref3[bs3.n_interior:]))
    return worst


def test_criterion6_oracle_equivalence():
    worst = 0.0
    for kind in ("triangle", "quadrilateral"):
        for n in (2, 4):
            for k in (1, 2):
                for t in (1.0, 0.01):
                    worst = max(worst, _oracle_case(kind, n, k, t))
    ok = worst <= 1e-8
    _report("criterion 6 (condensed vs monolithic oracle)", ok,
            f"max per-field relative difference {worst:.2e} (<= 1e-8)")


def test_criterion7_property_suites():
    checks = []

    # edge L2 projection of interior traces, as in the stabilization
    # C^T E^-1 C: idempotent on the edge space, bounded by the trace norm
    mesh = generate_structured("triangle", 2)
    rng = np.random.default_rng(42)
    ok_idem, ok_bound = True, True
    for batch in fs.element_batches(mesh):
        for e in range(batch.nv):
            pts, w, _ = batch.edge_rule(e, 6)
            for trace_deg, elem_deg in ((2, 2), (1, 2)):
                C, E = asm._edge_projection_blocks(batch, e, 6, trace_deg,
                                                   elem_deg)
                tr = fs.scalar_vals(fs.monomial_exponents(elem_deg),
                                    batch.centroid, batch.h, pts)
                M = np.einsum("eiq,ejq,eq->eij", tr, tr, w)
                gap = M - asm._stab_volume_block(C, E)
                scale = np.abs(M).max()
                if trace_deg >= elem_deg:
                    ok_idem &= bool(np.abs(gap).max() <= 1e-12 * scale)
                else:
                    ok_bound &= bool(
                        np.linalg.eigvalsh(gap).min() >= -1e-12 * scale)
    checks.append(("projection idempotence", ok_idem))
    checks.append(("projection boundedness", ok_bound))

    # mesh identities
    ok_mesh = True
    for kind in ("triangle", "quadrilateral"):
        m = generate_structured(kind, 3)
        ok_mesh &= (len(m.points) - m.num_edges + m.num_elements) == 1
        for batch in fs.element_batches(m):
            total = (batch.edge_len[..., None] * batch.normals).sum(axis=1)
            ok_mesh &= bool(np.abs(total).max() <= 1e-13)
    checks.append(("mesh geometric identities", ok_mesh))

    # constitutive identity and spectral bracket of the matrix that stage
    # two assembles: C^{-1}, its columns scaled by the Frobenius weights
    mat = PlateMaterial(E=1.0, nu=0.3)
    K = asm.constitutive_inverse_matrix(mat)
    taus = rng.standard_normal((20, 3))
    back = taus @ asm._constitutive_matrix(mat).T \
        @ (K / asm._FROBENIUS_W[None, :]).T
    ok_c = np.abs(back - taus).max() <= 1e-13 * np.abs(taus).max()
    for tau in taus:
        n2 = tau[0] ** 2 + tau[1] ** 2 + 2 * tau[2] ** 2
        en = tau @ K @ tau
        ok_c &= (12 * 0.7 * n2 <= en * (1 + 1e-12)
                 and en <= 12 * 1.3 * n2 * (1 + 1e-12))
    checks.append(("constitutive identity and bounds", ok_c))

    # manufactured solution: body force residual
    exact = vf.exact_fields(PlateMaterial(t=0.37))
    pts = rng.uniform(0.03, 0.97, size=(2, 100))
    fv = np.abs(exact.f(pts[0], pts[1])).max()
    sv = np.abs(exact.sigma(pts[0], pts[1])).max()
    checks.append(("body force vanishes", fv <= 1e-10 * sv))

    # energy norm positivity
    mat2 = PlateMaterial(t=0.5)
    spaces = SpaceConfig(1)
    val = bh_norm(
        mesh, spaces, mat2,
        DiscreteField(mesh, 0, "symtensor2x2", rng.standard_normal((8, 3))),
        DiscreteField(mesh, 0, "vector2", rng.standard_normal((8, 2))),
        DiscreteField(mesh, 1, "vector2", rng.standard_normal((8, 6))),
        rng.standard_normal((16, 4)),
        DiscreteField(mesh, 1, "scalar", rng.standard_normal((8, 3))),
        rng.standard_normal((16, 1)))
    zero = bh_norm(
        mesh, spaces, mat2,
        DiscreteField(mesh, 0, "symtensor2x2", np.zeros((8, 3))),
        DiscreteField(mesh, 0, "vector2", np.zeros((8, 2))),
        DiscreteField(mesh, 1, "vector2", np.zeros((8, 6))),
        np.zeros((16, 4)),
        DiscreteField(mesh, 1, "scalar", np.zeros((8, 3))),
        np.zeros((16, 1)))
    checks.append(("energy norm definite", val > 0.0 and zero == 0.0))

    # CG determinism and monotone preconditioned residuals
    mesh4 = generate_structured("triangle", 4)
    mat4 = PlateMaterial(t=0.1)
    ex4 = vf.exact_fields(mat4)
    runs = [vf.solve_plate(mesh4, spaces, mat4, ex4) for _ in range(2)]
    ok_det = all(
        np.array_equal(getattr(runs[0], nm).coeffs, getattr(runs[1], nm).coeffs)
        for nm in ("L", "theta", "omega", "gamma"))
    ok_det &= (runs[0].reports["step2"].iterations
               == runs[1].reports["step2"].iterations)
    for rep in runs[0].reports.values():
        hist = np.array(rep.precond_residual_history)
        ok_det &= bool(np.all(np.diff(hist) <= 1e-12 * max(hist[0], 1e-300)))
    checks.append(("CG determinism and monotonicity", ok_det))

    # shear recovery identity
    gamma = runs[0].gamma.coeffs
    expect = runs[0].L.coeffs + mat4.lam / mat4.t ** 2 * runs[0].R.coeffs
    checks.append(("shear recovery identity",
                   bool(np.array_equal(gamma, expect))))

    ok = all(flag for _, flag in checks)
    _report("criterion 7 (property suites)", ok,
            "; ".join(f"{nm} {'ok' if flag else 'FAILED'}"
                      for nm, flag in checks))


def test_criterion8_stage_three_consistency(table_t1_tri_k1):
    rates = table_t1_tri_k1.rates()
    omega_rates = [row[3] for row in rates]
    ok = omega_rates[-1] >= 1.85
    _report("criterion 8 (stage-three data flow)", ok,
            "omega rates " + ", ".join(f"{r:.2f}" for r in omega_rates))
