"""Manufactured-solution verification: exact fields, errors and rate tables.

The benchmark is a clamped unit-square plate with a polynomial rotation
and deflection whose body force vanishes identically.  All dependent
fields (shear stress, bending stress, transverse load) are derived from
the strong form by exact rational-coefficient polynomial arithmetic, so
a transcription error would show up as a nonzero body-force residual.
The transverse load is obtained from the strong form rather than from
any closed-form shortcut; its validity is certified by that residual.
"""

from __future__ import annotations

import csv
import resource
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import assembly as asm
from . import femspace as fs
from . import solver as slv
from .assembly import (PlateMaterial, SolutionFields, SpaceConfig,
                       recover_gamma)
from .femspace import element_batches
from .mesh import Mesh, generate_structured

__all__ = [
    "Poly2",
    "PolyField",
    "ExactSolution",
    "exact_fields",
    "SolutionFields",
    "solve_plate",
    "table_errors",
    "observed_rate",
    "ErrorReport",
    "RateTable",
    "run_convergence",
    "CSV_HEADER",
    "ERROR_DEGREE",
]


# ----------------------------------------------------------------------
# exact bivariate polynomials


class Poly2:
    """Exact-Fraction polynomial in x - origin[0] and y - origin[1]."""

    __slots__ = ("coeffs", "origin")

    def __init__(self, coeffs: dict | None = None, origin=(0, 0)):
        self.origin = tuple(origin)
        self.coeffs = {}
        if coeffs:
            for key, val in coeffs.items():
                val = Fraction(val)
                if val != 0:
                    self.coeffs[key] = val

    @classmethod
    def const(cls, value, origin=(0, 0)) -> "Poly2":
        return cls({(0, 0): Fraction(value)}, origin)

    @classmethod
    def x(cls, origin=(0, 0)) -> "Poly2":
        return cls({(1, 0): Fraction(1)}, origin)

    @classmethod
    def y(cls, origin=(0, 0)) -> "Poly2":
        return cls({(0, 1): Fraction(1)}, origin)

    def _like(self, other) -> "Poly2":
        if not isinstance(other, Poly2):
            return Poly2.const(other, self.origin)
        if other.origin != self.origin:
            raise ValueError("polynomials about different origins")
        return other

    def __add__(self, other):
        other = self._like(other)
        out = dict(self.coeffs)
        for key, val in other.coeffs.items():
            out[key] = out.get(key, Fraction(0)) + val
        return Poly2(out, self.origin)

    __radd__ = __add__

    def __neg__(self):
        return Poly2({k: -v for k, v in self.coeffs.items()}, self.origin)

    def __sub__(self, other):
        return self + (-self._like(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly2):
            factor = Fraction(other)
            return Poly2({k: v * factor for k, v in self.coeffs.items()}, self.origin)
        other = self._like(other)
        out: dict = {}
        for (a1, b1), v1 in self.coeffs.items():
            for (a2, b2), v2 in other.coeffs.items():
                key = (a1 + a2, b1 + b2)
                out[key] = out.get(key, Fraction(0)) + v1 * v2
        return Poly2(out, self.origin)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"exponent {n!r} is not a non-negative integer")
        out = Poly2.const(1, self.origin)
        for _ in range(n):
            out = out * self
        return out

    def dx(self) -> "Poly2":
        return Poly2({(a - 1, b): a * v
                      for (a, b), v in self.coeffs.items() if a > 0}, self.origin)

    def dy(self) -> "Poly2":
        return Poly2({(a, b - 1): b * v
                      for (a, b), v in self.coeffs.items() if b > 0}, self.origin)

    @property
    def degree(self) -> int:
        return max((a + b for (a, b) in self.coeffs), default=0)

    def __call__(self, x, y):
        return PolyField([self])(x, y)[0]


# Points per evaluation chunk; bounds the monomial table's memory.  At 2048
# the table of ~50 monomials and its two power tables fit a 2 MB L2 cache;
# at 4096 OpenBLAS runs the product threaded, several times slower.
_CHUNK = 2048


class PolyField:
    """Tuple of polynomial components about one origin, evaluated as
    (ncomp,) + shape arrays: the outer product of the x and y power tables,
    restricted to the exponents in use, times the float coefficients, which
    are taken from the Fractions once."""

    def __init__(self, components):
        self.components = tuple(components)
        if len({p.origin for p in self.components}) != 1:
            raise ValueError("polynomials about different origins")
        exps = sorted(set().union(*(p.coeffs for p in self.components))
                      or {(0, 0)})
        self._exps = np.array(exps)
        self._coef = np.array([[float(p.coeffs.get(e, 0)) for e in exps]
                               for p in self.components])

    def __call__(self, x, y):
        (ox, oy), (da, db) = self.components[0].origin, self._exps.max(axis=0)
        rows = self._exps @ (db + 1, 1)   # the exponents' rows in the table
        x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
        out = np.empty((len(self.components), x.size))
        xf, yf = x.ravel() - float(ox), y.ravel() - float(oy)
        table = np.empty((da + 1, db + 1, min(x.size, _CHUNK)))  # every chunk
        for start in range(0, x.size, _CHUNK):
            px, py = (fs.power_table(z[start:start + _CHUNK], d)
                      for z, d in ((xf, da), (yf, db)))
            t = np.multiply(px[:, None], py, out=table[..., :px.shape[1]])
            t = t.reshape(-1, px.shape[1])
            out[:, start:start + _CHUNK] = self._coef @ (
                t if len(rows) == len(t) else t[rows])
        return out.reshape((len(self.components),) + x.shape)

    def __getitem__(self, i) -> Poly2:
        return self.components[i]


# ----------------------------------------------------------------------
# the manufactured solution


@dataclass(frozen=True)
class ExactSolution:
    """Closed-form clamped-plate solution and all derived exact fields."""

    material: PlateMaterial
    theta: PolyField       # rotation (2)
    omega: PolyField       # deflection (1), contains the t^2 correction
    gamma: PolyField       # shear stress (2), t-independent
    sigma: PolyField       # bending stress (3: 11, 22, 12)
    g: PolyField           # transverse load (1), derived from the strong form
    f: PolyField           # body force residual (2), zero only for kappa = 5/6
    r: PolyField           # gradient potential of the shear stress (1)
    p: PolyField           # rotated-gradient potential (1), zero here


def exact_fields(material: PlateMaterial = PlateMaterial()) -> ExactSolution:
    """Build the polynomial benchmark fields for the given parameters.

    All arithmetic is exact: float parameters are converted to their
    exact binary rationals, so differentiation and cancellation carry no
    round-off.  The body force comes out identically zero only for shear
    correction factor 5/6; for other values it is reported as-is.
    """
    E = Fraction(material.E)
    nu = Fraction(material.nu)
    kappa = Fraction(material.kappa)
    t2 = Fraction(material.t) ** 2
    lam = kappa * E / (2 * (1 + nu))

    # expanded about the square's centre: fewer terms, far less cancellation
    c = Fraction(1, 2)
    X, Y = Poly2.x((c, c)) + c, Poly2.y((c, c)) + c
    A = (X * (X - 1)) ** 3
    B = (Y * (Y - 1)) ** 3
    theta1 = 100 * B * X ** 2 * (X - 1) ** 2 * (2 * X - 1)
    theta2 = 100 * A * Y ** 2 * (Y - 1) ** 2 * (2 * Y - 1)

    bubble_x = X * (X - 1) * (5 * X * X - 5 * X + 1)
    bubble_y = Y * (Y - 1) * (5 * Y * Y - 5 * Y + 1)
    base = Fraction(100, 3) * A * B
    corr = (-Fraction(40) / (1 - nu)) * (B * bubble_x + A * bubble_y)
    omega = base + t2 * corr

    gamma1 = (omega.dx() - theta1) * (lam / t2)
    gamma2 = (omega.dy() - theta2) * (lam / t2)

    a = E / (12 * (1 - nu * nu))
    e11, e22 = theta1.dx(), theta2.dy()
    e12 = (theta1.dy() + theta2.dx()) * Fraction(1, 2)
    s11 = a * ((1 - nu) * e11 + nu * (e11 + e22))
    s22 = a * ((1 - nu) * e22 + nu * (e11 + e22))
    s12 = a * (1 - nu) * e12

    g = -(gamma1.dx() + gamma2.dy())
    f1 = -(s11.dx() + s12.dy()) - gamma1
    f2 = -(s12.dx() + s22.dy()) - gamma2

    return ExactSolution(
        material=material,
        theta=PolyField([theta1, theta2]),
        omega=PolyField([omega]),
        gamma=PolyField([gamma1, gamma2]),
        sigma=PolyField([s11, s22, s12]),
        g=PolyField([g]),
        f=PolyField([f1, f2]),
        r=PolyField([lam * corr]),
        p=PolyField([Poly2(origin=(c, c))]),
    )


# ----------------------------------------------------------------------
# errors


# Exactness degree of the error rule (14 x 14 points per triangle, per
# quadrilateral and per fan triangle): the exact fields have degree at most
# 12, so squared errors of fields up to degree 13 integrate exactly.
ERROR_DEGREE = 26

_COMPONENT_WEIGHTS = {"scalar": (1.0,), "vector2": (1.0, 1.0),
                      "symtensor2x2": (1.0, 1.0, 2.0)}


# Points per error chunk: its rule, exact and discrete values and bases
# stay cache-sized, and nothing outlives the chunk
_ERROR_CHUNK = 20_000


def _squared_errors(flds, exact, quad_degree: int) -> np.ndarray:
    """Squared broken L2 norms of (exact - field) per field; ``exact``
    returns all fields' components stacked, (total ncomp,) + points.shape.
    One pass over chunks of elements, each with its own rule, exact values
    and basis of the highest field degree (its leading rows are the rest)."""
    rows = np.cumsum([0] + [fld.ncomp for fld in flds])
    exps = fs.monomial_exponents(max(fld.degree for fld in flds))
    acc = np.zeros(len(flds))
    for batch in element_batches(flds[0].mesh):
        nq = batch.volume_rule(quad_degree, slice(1))[1].size
        step = max(1, _ERROR_CHUNK // nq)
        for start in range(0, len(batch.ids), step):
            part = slice(start, start + step)
            pts, w = batch.volume_rule(quad_degree, part)
            ex = np.reshape(exact(pts[..., 0], pts[..., 1]), (-1,) + w.shape)
            if ex.shape[0] != rows[-1]:
                raise ValueError(f"exact field has {ex.shape[0]} components, "
                                 f"discrete field has {rows[-1]}")
            basis = fs.scalar_vals(exps, batch.centroid[part], batch.h[part],
                                   pts)
            for slot, fld in enumerate(flds):
                diff = ex[rows[slot]:rows[slot + 1]] - fld.combine(
                    batch.ids[part], basis[:, :fs.space_dim(fld.degree)]
                ).transpose(1, 0, 2)
                acc[slot] += np.einsum("ceq,ceq,eq->c", diff, diff, w) @ \
                    _COMPONENT_WEIGHTS[fld.rank]
    return acc


def observed_rate(e_coarse: float, e_fine: float) -> float:
    """log2 of the error ratio under one mesh halving."""
    if e_coarse <= 0 or e_fine <= 0:
        raise ValueError("errors must be positive to define a rate")
    return float(np.log2(e_coarse / e_fine))


# ----------------------------------------------------------------------
# staged solve


def solve_plate(mesh: Mesh, spaces: SpaceConfig, material: PlateMaterial,
                exact: ExactSolution,
                config: slv.SolverConfig = slv.SolverConfig()) -> SolutionFields:
    """Run the four solution stages on one mesh and collect all fields;
    the load ``g`` and body force ``f`` are those of ``exact``."""
    g, f = exact.g[0], exact.f

    bs1 = asm.assemble_step1(mesh, spaces, g)
    x1, x2, rep1 = slv.solve_stage(bs1, config)
    dof1 = bs1.dof
    L, r = (dof1.field(name, x1) for name in ("flux", "primal"))
    r_hat = dof1.trace_to_edge_array("u_hat", x2)

    bs2 = asm.assemble_step2(mesh, spaces, material, L, f)
    y1, y2, rep2 = slv.solve_stage(bs2, config)
    asm.shift_pressure_to_zero_mean(bs2, y1, y2)
    dof2 = bs2.dof
    sigma, R, theta, p = (dof2.field(name, y1)
                          for name in ("sigma", "R", "theta", "p"))
    theta_hat = dof2.trace_to_edge_array("theta_hat", y2)
    p_hat = dof2.trace_to_edge_array("p_hat", y2)

    bs3 = asm.assemble_step3(bs1, material, theta, g)
    z1, z2, rep3 = slv.solve_stage(bs3, config)
    G, omega = (dof1.field(name, z1) for name in ("flux", "primal"))
    omega_hat = dof1.trace_to_edge_array("u_hat", z2)

    gamma = recover_gamma(L, R, material)

    return SolutionFields(mesh, spaces, material, L, r, r_hat, sigma, R,
                          theta, theta_hat, p, p_hat, G, omega, omega_hat,
                          gamma, reports={"step1": rep1, "step2": rep2,
                                          "step3": rep3})


# ----------------------------------------------------------------------
# convergence studies


CSV_HEADER = ["k", "mesh_kind", "n", "t", "iter",
              "err_theta", "rate_theta", "err_tgamma", "rate_tgamma",
              "err_sigma", "rate_sigma", "err_omega", "rate_omega"]

_KIND_ALIASES = {"tri": "triangle", "triangle": "triangle",
                 "quad": "quadrilateral", "quadrilateral": "quadrilateral"}


@dataclass
class ErrorReport:
    """Per-level errors; the L2 norms match the benchmark table columns."""

    n: int
    iterations: int
    err_theta: float
    err_tgamma: float
    err_sigma: float
    err_omega: float
    wall_time: float = 0.0
    peak_rss_mb: float = 0.0    # of this process, after the level
    # per stage: SolveReport.stop_reason, kernel_rejected, factor_fill
    # and factor_time
    stop_reasons: dict = field(default_factory=dict)
    kernel_rejected: dict = field(default_factory=dict)
    factor_fill: dict = field(default_factory=dict)
    factor_time: dict = field(default_factory=dict)

    def errors(self) -> tuple[float, float, float, float]:
        return (self.err_theta, self.err_tgamma, self.err_sigma, self.err_omega)


@dataclass
class RateTable:
    mesh_kind: str
    spaces: SpaceConfig
    material: PlateMaterial
    reports: list = field(default_factory=list)

    def rates(self) -> list[tuple[float, float, float, float]]:
        """Observed rates between consecutive halvings; None where undefined."""
        out = []
        for prev, cur in zip(self.reports, self.reports[1:]):
            if cur.n != 2 * prev.n:
                out.append((None,) * 4)
            else:
                out.append(tuple(observed_rate(a, b)
                                 for a, b in zip(prev.errors(), cur.errors())))
        return out

    def final_rates(self):
        return self.rates()[-1] if len(self.reports) > 1 else (None,) * 4

    def write_csv(self, stream) -> None:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        rates = [(None,) * 4] + self.rates()
        for rep, rate in zip(self.reports, rates):
            cells = [self.spaces.k, self.mesh_kind, rep.n,
                     f"{self.material.t:g}", rep.iterations]
            for err, rt in zip(rep.errors(), rate):
                cells.append(f"{err:.10e}")
                cells.append("" if rt is None else f"{rt:.4f}")
            writer.writerow(cells)


def table_errors(fields: SolutionFields, exact: ExactSolution,
                 quad_degree: int = ERROR_DEGREE):
    """The four table norms, from one pass over the eight exact components."""
    exact_all = PolyField(exact.theta.components + exact.gamma.components
                          + exact.sigma.components + exact.omega.components)
    errs = np.sqrt(_squared_errors((fields.theta, fields.gamma, fields.sigma,
                                    fields.omega), exact_all, quad_degree))
    return errs[0], fields.material.t * errs[1], errs[2], errs[3]


def run_convergence(material: PlateMaterial, kind: str, spaces: SpaceConfig,
                    levels, config: slv.SolverConfig = slv.SolverConfig()
                    ) -> RateTable:
    """Solve on a sequence of structured meshes and tabulate errors.

    ``levels`` lists the cells-per-side counts; consecutive entries
    related by doubling get rate entries.  The reported iteration count
    is the outer CG iteration count of the stage-two trace solve.
    """
    if kind not in _KIND_ALIASES:
        raise ValueError(f"unknown mesh kind {kind!r}")
    kind = _KIND_ALIASES[kind]
    exact = exact_fields(material)
    table = RateTable(kind, spaces, material)
    for n in levels:
        t0 = time.perf_counter()
        mesh = generate_structured(kind, n)
        fields = solve_plate(mesh, spaces, material, exact, config=config)
        for stage, rep in fields.reports.items():
            if not rep.converged:
                raise RuntimeError(
                    f"level n={n}: {stage} solve stopped on "
                    f"{rep.stop_reason} (residual {rep.residual:.3e})")
        err_theta, err_tgamma, err_sigma, err_omega = table_errors(
            fields, exact)

        def per_stage(attr):
            return {s: getattr(r, attr) for s, r in fields.reports.items()}
        table.reports.append(ErrorReport(
            n, fields.reports["step2"].iterations,
            err_theta, err_tgamma, err_sigma, err_omega,
            wall_time=time.perf_counter() - t0,
            peak_rss_mb=resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            stop_reasons=per_stage("stop_reason"),
            kernel_rejected=per_stage("kernel_rejected"),
            factor_fill=per_stage("factor_fill"),
            factor_time=per_stage("factor_time")))
    return table
