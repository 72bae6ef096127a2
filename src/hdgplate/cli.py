"""Command-line driver: single solves and convergence studies.

All outputs are deterministic; wall-clock times go to the metadata
sidecar only, so re-running a study reproduces the CSV byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

from . import verification as vf
from .assembly import PlateMaterial, SpaceConfig
from .femspace import quadrature_degrees
from .solver import SolverConfig

__all__ = ["main"]

_EXIT_OK = 0
_EXIT_CONFIG = 1
_EXIT_SOLVER = 2


def _git_revision() -> str:
    """HEAD of the checkout this package is imported from (the root that
    holds ``src/hdgplate``), not of the caller's working directory;
    ``"unknown"`` outside such a checkout or when ``git`` fails to start
    or outlives its timeout."""
    root = Path(__file__).resolve().parents[2]
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=5,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)})
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdgplate",
        description="Hybrid DG solver for clamped Reissner-Mindlin plates "
                    "on the unit square")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--mesh", choices=["tri", "quad"], default="tri")
        p.add_argument("--k", type=int, default=1)
        p.add_argument("--l", type=int, default=SpaceConfig.l,
                       help="rotation trace degree (default: k)")
        p.add_argument("--t", type=float, default=PlateMaterial.t)
        p.add_argument("--E", type=float, default=PlateMaterial.E)
        p.add_argument("--nu", type=float, default=PlateMaterial.nu)
        p.add_argument("--kappa", type=float, default=PlateMaterial.kappa)
        p.add_argument("--tol", type=float, default=SolverConfig.tol)
        p.add_argument("--max-iter", type=int, default=SolverConfig.max_iter)

    solve_p = sub.add_parser("solve", help="solve one level, print errors")
    common(solve_p)
    solve_p.add_argument("--n", type=int, default=8)

    conv_p = sub.add_parser("convergence", help="run a mesh refinement study")
    common(conv_p)
    conv_p.add_argument("--levels", required=True,
                        help="comma-separated cells per side, e.g. 2,4,8,16")
    conv_p.add_argument("--out", required=True, help="CSV output path")

    return parser


def _materials(args):
    material = PlateMaterial(E=args.E, nu=args.nu, kappa=args.kappa, t=args.t)
    spaces = SpaceConfig(args.k, args.l)
    config = SolverConfig(tol=args.tol, max_iter=args.max_iter)
    return material, spaces, config


def _metadata(material, spaces, config, **extra):
    return {
        "material": asdict(material),
        "k": spaces.k,
        "l": spaces.l,
        "solver": asdict(config),
        "quadrature": dict(quadrature_degrees(spaces.k),
                           error_degree=vf.ERROR_DEGREE),
        "git_revision": _git_revision(),
        **extra,
    }


def _cmd_solve(args) -> int:
    material, spaces, config = _materials(args)
    rep = vf.run_convergence(material, args.mesh, spaces, [args.n],
                             config).reports[0]
    print(f"n={rep.n} iter={rep.iterations} "
          f"err_theta={rep.err_theta:.10e} err_tgamma={rep.err_tgamma:.10e} "
          f"err_sigma={rep.err_sigma:.10e} err_omega={rep.err_omega:.10e}")
    return _EXIT_OK


def _cmd_convergence(args) -> int:
    material, spaces, config = _materials(args)
    try:
        levels = [int(s) for s in args.levels.split(",") if s]
    except ValueError:
        raise ValueError(f"bad --levels value {args.levels!r}") from None
    if not levels or any(n < 1 for n in levels):
        raise ValueError("--levels must list positive integers")
    folder = os.path.dirname(os.path.abspath(args.out))
    if not os.path.isdir(folder):
        raise ValueError(f"cannot write {args.out}: no directory {folder}")

    table = vf.run_convergence(material, args.mesh, spaces, levels, config)
    meta = _metadata(
        material, spaces, config, mesh_kind=args.mesh, levels=levels,
        wall_times=[r.wall_time for r in table.reports],
        errors_times=[r.errors_time for r in table.reports],
        peak_rss_mb=[r.peak_rss_mb for r in table.reports],
        stages=[{stage: asdict(rep) for stage, rep in r.reports.items()}
                for r in table.reports])
    try:
        with open(args.out, "w") as stream:
            table.write_csv(stream)
        with open(args.out + ".meta.json", "w") as stream:
            json.dump(meta, stream, indent=2)
            stream.write("\n")
    except OSError as err:
        raise ValueError(f"cannot write {err.filename}: {err.strerror}") from err
    print(f"wrote {args.out} ({len(levels)} levels) and {args.out}.meta.json")
    return _EXIT_OK


def main(argv=None) -> int:
    try:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            # argparse exits with 2 on usage errors; keep 2 for solver failures
            return _EXIT_OK if exc.code == 0 else _EXIT_CONFIG
        if args.command == "solve":
            return _cmd_solve(args)
        return _cmd_convergence(args)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except RuntimeError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return _EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
