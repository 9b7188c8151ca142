"""In-memory span recorder that times the nlvar layers from outside.

Each wrapper replaces one binding of a layer entry point (a module global)
with a function that records a span -- name, start, end, parent -- around a
call to the original. Several modules import entry points by name, so every
importing module's binding is wrapped separately; a call goes through exactly
one wrapper. Nothing in the package is edited; `Tracer.uninstall` puts the
original bindings back.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class TraceError(RuntimeError):
    """A wrapped entry point is missing, or a busy layer recorded no call."""


def _grouplasso_counts(args, kwargs, result, counts):
    # _solve_stacked(B, starts, sizes, y, kappa, opts, ...) ->
    # (w, trace, iterations, converged, sigma)
    iters, converged = result[2], result[3]
    counts["grouplasso.iters"] += iters
    counts["grouplasso.unconverged"] += 0 if converged else 1
    # each ISTA iteration reads B at least twice (B^T r and B delta): a
    # computed lower bound, blind to caches and backtracking passes
    counts["grouplasso.bytes_computed"] += 2 * iters * args[0].nbytes


def _gram_counts(args, kwargs, result, counts):
    counts["kernels.gram_bytes"] += result.n_kernels * result.n_train ** 2 * 8


def _feature_counts(args, kwargs, result, counts):
    counts["kernels.feature_cols"] += sum(result.ranks)


def _l12_counts(args, kwargs, result, counts):
    # objective_trace holds one entry per outer iteration plus the final one
    counts["solver.l12_outer_iters"] += len(result.objective_trace) - 1
    counts["solver.l12_unconverged"] += 0 if result.converged else 1


def _save_counts(args, kwargs, result, counts):
    counts["modelio.doc_bytes"] += os.path.getsize(args[1])


#: (module, binding, span name, counter hook) for every wrapped entry point.
#: A span name's prefix is its layer.
ENTRY_POINTS = (
    ("nlvar.grouplasso", "_solve_stacked", "grouplasso.solve", _grouplasso_counts),
    ("nlvar.harness", "_solve_stacked", "grouplasso.solve", _grouplasso_counts),
    ("nlvar.harness", "build_gram_stack", "kernels.gram", _gram_counts),
    ("nlvar.solver", "build_gram_stack", "kernels.gram", _gram_counts),
    ("nlvar.harness", "build_feature_stack", "kernels.features", _feature_counts),
    ("nlvar.solver", "build_feature_stack", "kernels.features", _feature_counts),
    ("nlvar.harness", "build_cross_stack", "kernels.cross", None),
    ("nlvar.solver", "cross_gram", "kernels.cross", None),
    ("nlvar.solver", "solve_coefficients", "solver.coef", None),
    ("nlvar.solver", "solve_task_l12", "solver.l12", _l12_counts),
    ("nlvar.solver", "solve_group_lasso", "solver.group_lasso", None),
    ("nlvar.solver", "predict", "solver.predict", None),
    ("nlvar.baselines", "fit_baseline", "baselines.fit", None),
    ("nlvar.baselines", "solve_group_lasso", "baselines.group_lasso", None),
    ("nlvar.harness", "cv_select", "harness.cv", None),
    ("nlvar.harness", "evaluate_holdout", "harness.eval", None),
    ("nlvar.modelio", "load_model", "modelio.load", None),
    ("nlvar.modelio", "save_model", "modelio.save", _save_counts),
    ("nlvar.harness", "read_csv", "series.csv", None),
    ("nlvar.cli", "read_csv", "series.csv", None),
    ("nlvar.cli", "write_csv", "series.csv", None),
    ("nlvar.cli", "lag_embed", "series.embed", None),
    ("nlvar.harness", "lag_embed", "series.embed", None),
    ("nlvar.cli", "main", "cli.main", None),
)

#: Per-layer metrics: name -> (unit, how it is computed). "total" sums the
#: durations of a span name, "self" its self time, "calls" counts its spans,
#: and "count" reads a counter filled by a hook.
LAYER_METRICS = {
    "grouplasso.solve_s": ("s", "total", "grouplasso.solve"),
    "grouplasso.solves": ("count", "calls", "grouplasso.solve"),
    "grouplasso.iters": ("count", "count", "grouplasso.iters"),
    "grouplasso.unconverged": ("count", "count", "grouplasso.unconverged"),
    "grouplasso.bytes_computed": ("B", "count", "grouplasso.bytes_computed"),
    "kernels.gram_s": ("s", "total", "kernels.gram"),
    "kernels.gram_bytes": ("B", "count", "kernels.gram_bytes"),
    "kernels.features_s": ("s", "total", "kernels.features"),
    "kernels.feature_cols": ("count", "count", "kernels.feature_cols"),
    "kernels.cross_s": ("s", "total", "kernels.cross"),
    "kernels.cross_calls": ("count", "calls", "kernels.cross"),
    "solver.coef_s": ("s", "total", "solver.coef"),
    "solver.coef_calls": ("count", "calls", "solver.coef"),
    "solver.l12_self_s": ("s", "self", "solver.l12"),
    "solver.l12_outer_iters": ("count", "count", "solver.l12_outer_iters"),
    "solver.l12_unconverged": ("count", "count", "solver.l12_unconverged"),
    "solver.predict_s": ("s", "total", "solver.predict"),
    "solver.predict_calls": ("count", "calls", "solver.predict"),
    "harness.cv_s": ("s", "total", "harness.cv"),
    "harness.cv_self_s": ("s", "self", "harness.cv"),
    "harness.eval_s": ("s", "total", "harness.eval"),
    "baselines.fit_s": ("s", "total", "baselines.fit"),
    "modelio.load_s": ("s", "total", "modelio.load"),
    "modelio.save_s": ("s", "total", "modelio.save"),
    "modelio.doc_bytes": ("B", "count", "modelio.doc_bytes"),
    "series.csv_s": ("s", "total", "series.csv"),
    "series.embed_s": ("s", "total", "series.embed"),
    "cli.predict_s": ("s", "total", "cli.main"),
}

#: Layer times compared when naming the largest layer. Where a layer's spans
#: contain other layers' calls (harness.cv, solver.l12) its self time is
#: compared; solver.predict is left out for kernels.cross, which it contains.
LAYER_TIMES = ("grouplasso.solve_s", "kernels.gram_s", "kernels.features_s",
               "kernels.cross_s", "solver.coef_s", "solver.l12_self_s",
               "harness.cv_self_s", "baselines.fit_s", "modelio.load_s",
               "modelio.save_s", "series.csv_s", "series.embed_s")


class Tracer:
    """Records spans and counters while installed and enabled."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.enabled = False
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        #: converged flag of every group-lasso solve made through
        #: solver.solve_group_lasso (the nvarl1 final-fit tasks), in call order
        self.l1_flags: list[bool] = []
        #: wrapped calls whose results no longer have the expected shape
        self.broken: list[str] = []

    def install(self):
        """Wrap every entry point; a missing binding is a broken trace."""
        missing = []
        for mod_name, attr, _, _ in ENTRY_POINTS:
            mod = importlib.import_module(mod_name)
            if not callable(getattr(mod, attr, None)):
                missing.append(f"{mod_name}.{attr}")
        if missing:
            raise TraceError(f"entry points not found: {', '.join(missing)}")
        for mod_name, attr, span_name, hook in ENTRY_POINTS:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(original, span_name, hook))

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent)
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if parent is not None:
                    tracer.spans[parent].child_s += span.duration
            try:
                if hook is not None:
                    hook(args, kwargs, result, tracer.counts)
                if name == "solver.group_lasso":
                    tracer.l1_flags.append(bool(result.converged))
            except (AttributeError, IndexError, TypeError) as exc:
                # raising here would land in the program's own error handling;
                # the run reports the broken trace when it ends instead
                tracer.broken.append(f"cannot read the result of {name}: {exc}")
            return result

        return wrapper

    def layer_metrics(self) -> dict:
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        calls: dict[str, int] = {}
        for span in self.spans:
            total[span.name] = total.get(span.name, 0.0) + span.duration
            own[span.name] = own.get(span.name, 0.0) + span.self_s
            calls[span.name] = calls.get(span.name, 0) + 1
        out = {}
        for metric, (unit, how, key) in LAYER_METRICS.items():
            if how == "total":
                value = total.get(key, 0.0)
            elif how == "self":
                value = own.get(key, 0.0)
            elif how == "calls":
                value = calls.get(key, 0)
            else:
                value = self.counts.get(key, 0)
            out[metric] = {"value": value, "unit": unit}
        return out

    def write_spans(self, path):
        """One JSON object per span: name, start, end, parent index."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent}) + "\n")
