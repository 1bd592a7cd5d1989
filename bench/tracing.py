"""In-memory span tracer for the benchmark's traced run.

Spans are recorded around calls into fraclab's public functions by patching
each function object wherever a fraclab module has bound it (``experiments``
imports the samplers by name, ``calibration`` imports ``rough_pvar_distance``
by name, ``likelihood`` and ``tfe`` import ``golden_section_minimize`` by
name), plus a few methods of ``FgnCovariance`` and ``FouLikelihood``.  Nothing
under ``src/`` is edited; :meth:`Tracer.uninstall` puts every original back.

Spans are recorded only while a task is open (:meth:`Tracer.task`), so the
benchmark's output checks and warm-up never show up in the trace.  The
tracer is single-threaded: the traced run is serial so that every span of a
task lives in one process.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

# e-folds of burn-in the samplers prepend so the zero start decays below
# 1e-8 (see fraclab.simulate); used only for the computed stream lengths.
_BURN_IN_DECADES = 19.0


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    task: int


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its children.

    Children are the spans whose ``parent`` points at it; their intervals are
    clipped to the parent and merged before subtracting, so overlapping or
    nested children are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, span.start), min(b, span.end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out.append((span.end - span.start) - covered)
    return out


@dataclass
class SpanTotals:
    calls: int = 0
    total_s: float = 0.0  # inclusive of child spans
    self_s: float = 0.0


def totals_by_name(spans: list[Span]) -> dict[str, SpanTotals]:
    out: dict[str, SpanTotals] = defaultdict(SpanTotals)
    for span, own in zip(spans, self_times(spans)):
        entry = out[span.name]
        entry.calls += 1
        entry.total_s += span.end - span.start
        entry.self_s += own
    return dict(out)


class Tracer:
    """Records spans and computed counters while a task is open."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._task: int | None = None
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    @contextmanager
    def task(self, task_id: int):
        """Record spans for one task; nothing is recorded outside this."""
        self._task = task_id
        try:
            yield
        finally:
            self._task = None
            self._stack.clear()

    @property
    def recording(self) -> bool:
        return self._task is not None

    @contextmanager
    def span(self, name: str):
        if self._task is None:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, self._task))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            opened = self.spans[index]
            self.spans[index] = Span(
                opened.name, opened.start, time.perf_counter(), opened.parent, opened.task
            )

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self.peaks.clear()

    # -- patching --------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def wrap_function(self, original, name, on_call=None):
        """Wrapper recording a span; ``name`` may be a callable of the bound
        arguments.  ``on_call(tracer, arguments, result)`` runs after the span
        closes."""
        signature = inspect.signature(original)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if self._task is None:
                return original(*args, **kwargs)
            bound = None
            if on_call is not None or callable(name):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
            label = name(bound.arguments) if callable(name) else name
            with self.span(label):
                result = original(*args, **kwargs)
            if on_call is not None:
                on_call(self, bound.arguments, result)
            return result

        return wrapper

    def patch_function(self, module_name: str, attr: str, name, on_call=None) -> None:
        """Replace ``module.attr`` in every loaded fraclab module that holds it."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = self.wrap_function(original, name, on_call)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "fraclab" and not mod_name.startswith("fraclab."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, key, wrapper)

    def patch_method(self, cls, attr: str, name: str) -> None:
        original = cls.__dict__[attr]
        self._replace(cls, attr, self.wrap_function(original, name))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# computed counters (labelled "computed": derived from call arguments, not
# measured inside the library)


def _substeps(lam: float, delta: float, refine: int, max_substeps) -> int:
    m = max(refine, math.ceil(refine * lam * delta))
    return m if max_substeps is None else min(m, max_substeps)


def _count_physical(tracer: Tracer, args, _result) -> None:
    params, grid = args["params"], args["grid"]
    lam = 1.0 / params.epsilon
    if params.hurst == 0.5 and args["method"] != "refined":
        fine = grid.count  # exact Brownian sampler: one draw per cell
    else:
        m = _substeps(lam, grid.delta, args["refine"], args["max_substeps"])
        burn = max(1, math.ceil(_BURN_IN_DECADES / (lam * grid.delta)))
        fine = (grid.count + burn) * m
    tracer.counters["simulate.fine_samples"] += fine


def _count_tfe(tracer: Tracer, args, _result) -> None:
    grid = args["grid"]
    m = _substeps(1.0 / args["epsilon"], grid.delta, args["refine"], args["max_substeps"])
    tracer.counters["simulate.fine_samples"] += grid.count * m


def _count_approximate(tracer: Tracer, args, _result) -> None:
    params, grid = args["params"], args["grid"]
    u = params.theta * grid.delta
    burn = 0 if u == 0.0 or args["initial"] is not None else math.ceil(_BURN_IN_DECADES / u)
    tracer.counters["simulate.fine_samples"] += burn + grid.count


def _count_dp_cells(tracer: Tracer, args, _result) -> None:
    lift = args["a"]
    n = lift.samples.shape[0] - 1
    tracer.counters["signatures.pvar_dp_cells"] += lift.level * n * (n + 1) // 2


def _count_output_bytes(tracer: Tracer, _args, result) -> None:
    tracer.counters["experiments.output_bytes"] += sum(os.path.getsize(p) for p in result)


def install(tracer: Tracer) -> None:
    """Patch fraclab's layer entry points so calls record spans."""
    import fraclab  # noqa: F401  (loads every submodule)
    from fraclab.fgn import FgnCovariance
    from fraclab.likelihood import FouLikelihood

    functions = (
        ("fraclab.simulate", "sample_physical_fbm", "simulate.sample_physical_fbm", _count_physical),
        ("fraclab.simulate", "sample_tfe_system", "simulate.sample_tfe_system", _count_tfe),
        ("fraclab.simulate", "sample_approximate_model", "simulate.sample_approximate_model", _count_approximate),
        ("fraclab.estimators", "sigma2_hat", "estimators.sigma2_hat", None),
        ("fraclab.estimators", "hurst_hat", "estimators.hurst_hat", None),
        ("fraclab.optimize", "golden_section_minimize", "optimize.golden_section_minimize", None),
        ("fraclab.calibration", "convergence_diagnostic", "calibration.convergence_diagnostic", None),
        ("fraclab.signatures", "rough_pvar_distance", "signatures.rough_pvar_distance", _count_dp_cells),
        ("fraclab.traces", "conjecture_scan", "traces.conjecture_scan", None),
        ("fraclab.tfe", "tfe_estimate", "tfe.tfe_estimate", None),
        ("fraclab.experiments", "write_outputs", "experiments.write_outputs", _count_output_bytes),
    )
    for module_name, attr, name, on_call in functions:
        tracer.patch_function(module_name, attr, name, on_call)
    tracer.patch_function(
        "fraclab.experiments",
        "run_config",
        lambda args: f"experiments.run_config.{args['config'].experiment}",
    )

    tracer.patch_method(FgnCovariance, "solve", "fgn.solve")
    tracer.patch_method(FgnCovariance, "quadratic_form", "fgn.solve")
    for method in ("profile_mle", "score", "expansion_terms"):
        tracer.patch_method(FouLikelihood, method, f"likelihood.{method}")

    # the factorisation is the first read of the cached `cholesky` property
    factor = FgnCovariance.__dict__["cholesky"]

    def traced_factor(cov):
        if not tracer.recording or cov._chol is not None:
            return factor.fget(cov)
        with tracer.span("fgn.factor"):
            low = factor.fget(cov)
        dense = 2 * 8 * cov.size * cov.size  # Toeplitz matrix + its factor
        tracer.peaks["fgn.dense_bytes_peak"] = max(tracer.peaks["fgn.dense_bytes_peak"], dense)
        return low

    tracer._replace(FgnCovariance, "cholesky", property(traced_factor, doc=factor.__doc__))
