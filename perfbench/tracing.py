"""Spans and counts recorded around the library's layer boundaries.

Nothing under ``src/`` knows about tracing.  :class:`Tracer` replaces
module attributes with wrappers for the duration of a ``with`` block and
puts the originals back on exit.  It wraps the name the caller looks up:
``verification`` reaches ``recover_gamma`` and ``element_batches``
through its own namespace, ``solver`` reaches ``splu`` and ``lu_factor``
through the ``scipy.sparse.linalg`` and ``scipy.linalg`` modules.

Evidence that is not part of the timed work (residuals of the
uncondensed systems, LU fill, quadrature point counts) is computed with
the clock paused, so it is missing from every span and from ``study_s``.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("mesh", "assembly", "solver", "verification", "bench")


class Tracer:
    """Span recorder with a pausable clock.

    With ``traced=False`` only the spans the benchmark opens itself are
    kept and only the correctness probe on ``solver.solve_stage`` is
    installed; with ``traced=True`` every layer boundary below is wrapped.
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: list[dict] = []
        self.counts: dict = defaultdict(lambda: defaultdict(int))
        self.residuals: dict = defaultdict(dict)
        self.case = None
        self._stack: list[int] = []
        self._paused = 0.0
        self._saved: list = []

    # -- clock and spans ------------------------------------------------

    def now(self) -> float:
        return time.perf_counter() - self._paused

    @contextmanager
    def paused(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - t0

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "start": self.now(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "case": self.case}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = self.now()

    def count(self, name: str, value: float = 1) -> None:
        self.counts[self.case][name] += value

    # -- attribute wrapping ---------------------------------------------

    def _patch(self, owner, attr: str, make):
        # A boundary the program no longer has reads as zero instead of
        # stopping the run; the gate still needs the solve_stage probe.
        orig = getattr(owner, attr, None)
        if orig is None:
            return
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def _spanned(self, owner, attr, name_of, after=None):
        def make(orig):
            def wrapper(*args, **kwargs):
                with self.span(name_of(*args, **kwargs)):
                    result = orig(*args, **kwargs)
                if after is not None:
                    with self.paused():
                        after(result, *args, **kwargs)
                return result
            wrapper.__wrapped__ = orig
            return wrapper
        self._patch(owner, attr, make)

    def _counted(self, owner, attr, name):
        def make(orig):
            def wrapper(*args, **kwargs):
                self.counts[self.case][name] += 1
                return orig(*args, **kwargs)
            wrapper.__wrapped__ = orig
            return wrapper
        self._patch(owner, attr, make)

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self):
        import scipy.linalg
        import scipy.sparse.linalg
        from hdgplate import assembly, solver, verification

        def probe_stage(result, bs, *args, **kwargs):
            x1, x2, _ = result
            self.residuals[self.case][bs.stage] = float(
                solver.full_residual(bs, x1, x2))

        self._spanned(solver, "solve_stage",
                      lambda bs, *a, **k: f"solver.solve_stage.{bs.stage}",
                      after=probe_stage)
        if not self.traced:
            return

        def sizes(bs, *args, **kwargs):
            self.count(f"assembly.n_interior.{bs.stage}", bs.n_interior)
            self.count(f"assembly.n_trace.{bs.stage}", bs.n_trace)

        for step in ("step1", "step2", "step3"):
            self._spanned(assembly, f"assemble_{step}",
                          lambda *a, _s=step, **k: f"assembly.assemble_{_s}",
                          after=sizes)
        self._spanned(verification, "recover_gamma",
                      lambda *a, **k: "assembly.recover_gamma")
        for owner in (assembly, verification):
            self._spanned(owner, "element_batches",
                          lambda *a, **k: "assembly.element_batches",
                          after=lambda *a, **k: self.count(
                              "assembly.element_batches.calls"))

        self._spanned(solver, "condense",
                      lambda bs: f"solver.condense.{bs.stage}",
                      after=lambda cond, bs: self.count(
                          f"solver.S_nnz.{bs.stage}", cond.S.nnz))

        def iterations(result, cond, *args, **kwargs):
            self.count("solver.outer_iters.step2", result[-1].iterations)

        self._spanned(solver, "solve_spd",
                      lambda cond, *a, **k:
                      f"solver.trace_solve.{cond.system.stage}")
        self._spanned(solver, "solve_saddle_trace",
                      lambda cond, *a, **k:
                      f"solver.trace_solve.{cond.system.stage}",
                      after=iterations)
        self._spanned(solver, "back_substitute",
                      lambda cond, x2: f"solver.back_substitute."
                                       f"{cond.system.stage}")

        def fill(lu, *args, **kwargs):
            self.count("solver.splu.calls")
            self.count("solver.splu.fill", lu.L.nnz + lu.U.nnz)

        self._spanned(scipy.sparse.linalg, "splu",
                      lambda *a, **k: "solver.splu", after=fill)
        self._counted(scipy.linalg, "lu_factor", "solver.lu_factor.calls")
        self._counted(scipy.linalg, "lu_solve", "solver.lu_solve.calls")

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)
        return False

    # -- summaries ------------------------------------------------------

    def self_times(self) -> dict:
        """Per-span self time: duration minus the children's durations."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def totals(self) -> tuple[dict, dict]:
        """(inclusive seconds per span name, self seconds per layer).

        Layer self times cover only spans opened inside a case, so they
        add up to the study time.
        """
        inclusive: dict = defaultdict(float)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        own = self.self_times()
        for s in self.spans:
            inclusive[s["name"]] += s["end"] - s["start"]
            layer = s["name"].split(".", 1)[0]
            if s["case"] is not None:   # set-up spans are not study work
                layer_self[layer] += own[s["id"]]
        return dict(inclusive), layer_self
