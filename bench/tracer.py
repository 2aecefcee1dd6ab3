"""Span tracer that times glmsub's layers from outside the package.

Nothing under ``src/`` knows about it.  ``Tracer.install`` replaces public
names in the module namespace where their callers look them up: a
``from .alias import draw_with_replacement`` binds the function into
``glmsub.twostage`` at import time, so the hook goes on
``glmsub.twostage.draw_with_replacement``.  Methods are wrapped on the
class.  Every call through a hook records one span ``(name, start, end,
parent)`` in memory; ``uninstall`` puts the original names back.

A span's name is the stem of the per-layer metric it feeds: spans named
``alias.build`` sum into ``alias.build_s``.  Layer times are self times,
a span's duration minus the part covered by its child spans, so they add
up to the traced ``main`` call.  A hook whose target no longer exists is
reported as missing instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

import numpy as np

__all__ = ["Tracer", "layer_metrics", "COUNTERS"]


def _io_counter(field: str) -> "tuple[int, int] | None":
    """The ``/proc/self/io`` field (bytes this process passed through read()
    or write() so far) and the bytes this very read added to ``rchar``."""
    try:
        with open("/proc/self/io", "rb") as fh:
            content = fh.read()
    except OSError:
        return None
    for line in content.decode("ascii").splitlines():
        key, _, value = line.partition(":")
        if key == field:
            return int(value), len(content)
    return None


class Tracer:
    """Records spans and counts for the hooks in ``HOOKS``."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._initial_probs = None  # last stage-1 probability vector
        self._stage1_drawn = False  # whether a draw from it has been made

    # -- hook installation ---------------------------------------------

    def install(self) -> None:
        for module_name, attribute, span, before, after in HOOKS:
            target = f"{module_name}.{attribute}"
            try:
                owner = importlib.import_module(module_name)
                *path, name = attribute.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, name)
            except (ImportError, AttributeError):
                self.missing.append(target)
                continue
            self._restore.append((owner, name, original))
            setattr(owner, name, self._wrap(original, span, before, after))

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def _wrap(self, fn, span_name, before, after):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(self, args, kwargs) if before is not None else None
            index = len(spans)
            spans.append([span_name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if after is not None:
                after(self, args, result, state)
            return result

        return traced

    def report(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "missing": self.missing}


# -- counters (run outside the span they belong to) ----------------------


def _io_before(field):
    def before(tracer, args, kwargs):
        return _io_counter(field)

    return before


def _io_after(field, counter):
    def after(tracer, args, result, start):
        end = _io_counter(field)
        if start is None or end is None:
            if counter not in tracer.missing:
                tracer.missing.append(counter)
            return
        # The first read of /proc/self/io is itself counted in rchar.
        own = start[1] if field == "rchar" else 0
        tracer.counts[counter] += end[0] - start[0] - own

    return after


def _count_call(tracer, args, kwargs):
    tracer.counts["twostage.calls"] += 1


def _initial_after(tracer, args, result, state):
    tracer._initial_probs = result
    tracer._stage1_drawn = False


def _draw_before(tracer, args, kwargs):
    tracer.counts["alias.calls"] += 1
    # Stage-1 draws sample from the vector initial_probabilities returned;
    # every such draw after the first is a redraw.  The random baseline
    # builds its own uniform vector and is not counted.
    if args and args[0] is tracer._initial_probs:
        if tracer._stage1_drawn:
            tracer.counts["twostage.stage1_redraws"] += 1
        tracer._stage1_drawn = True


def _sampler_after(tracer, args, result, state):
    tracer.counts["alias.rows_built"] += int(args[0].n)


def _scored_after(tracer, args, result, state):
    tracer.counts["probabilities.rows_scored"] += len(result)


def _design_after(tracer, args, result, state):
    tracer.counts["models.design_bytes"] += int(result.nbytes)


def _fit_after(tracer, args, result, state):
    tracer.counts["fitting.fits"] += 1
    tracer.counts["fitting.newton_iters"] += int(result.iterations)


# (module, attribute looked up by the caller, span name, before, after)
HOOKS = (
    ("glmsub.cli", "main", "cli.self", None, None),
    ("glmsub.cli", "parse_config", "config.parse", None, None),
    ("glmsub.cli", "load_csv", "datasets.load",
     _io_before("rchar"), _io_after("rchar", "datasets.bytes_read")),
    ("glmsub.cli", "atomic_write", "cli.write",
     _io_before("wchar"), _io_after("wchar", "cli.bytes_written")),
    ("glmsub.cli", "run_study", "simulate.self", None, None),
    ("glmsub.cli", "run_subsample", "realdata.self", None, None),
    ("glmsub.cli", "run_ssmse_study", "realdata.self", None, None),
    ("glmsub.simulate", "gen_covariates", "simulate.datagen", None, None),
    ("glmsub.simulate", "gen_response", "simulate.datagen", None, None),
    ("glmsub.simulate", "build_design", "models.build_design", None, _design_after),
    ("glmsub.simulate", "two_stage", "twostage.self", _count_call, None),
    ("glmsub.simulate", "random_sampling_baseline", "twostage.self", _count_call,
     None),
    ("glmsub.realdata", "two_stage", "twostage.self", _count_call, None),
    ("glmsub.realdata", "random_sampling_baseline", "twostage.self", _count_call,
     None),
    ("glmsub.realdata", "full_data_mles", "fitting.full_fit", None, None),
    ("glmsub.realdata", "fit_weighted_mle", "fitting.full_fit", None, _fit_after),
    ("glmsub.realdata", "build_design", "models.build_design", None, _design_after),
    ("glmsub.twostage", "draw_with_replacement", "alias.draw", _draw_before, None),
    ("glmsub.twostage", "initial_probabilities", "probabilities.initial", None,
     _initial_after),
    ("glmsub.twostage", "phi_model_robust", "probabilities.robust", None, None),
    ("glmsub.twostage", "phi_single", "probabilities.single", None, _scored_after),
    ("glmsub.twostage", "build_design", "models.build_design", None, _design_after),
    ("glmsub.twostage", "fit_weighted_mle", "fitting.fit", None, _fit_after),
    ("glmsub.probabilities", "phi_single", "probabilities.single", None, _scored_after),
    ("glmsub.probabilities", "build_design", "models.build_design", None, _design_after),
    ("glmsub.probabilities", "full_information", "fitting.full_information", None, None),
    ("glmsub.alias", "AliasSampler.__init__", "alias.build", None, _sampler_after),
    ("glmsub.alias", "AliasSampler.draw", "alias.draw", None, None),
)

SPAN_NAMES = tuple(dict.fromkeys(hook[2] for hook in HOOKS))

# Counts that must repeat exactly for a fixed seed and commit.
COUNTERS = (
    "alias.calls",
    "alias.rows_built",
    "datasets.bytes_read",
    "cli.bytes_written",
    "probabilities.rows_scored",
    "models.design_bytes",
    "fitting.fits",
    "fitting.newton_iters",
    "twostage.calls",
    "twostage.stage1_redraws",
    "trace.spans",
)


def layer_metrics(report: dict) -> dict:
    """Per-layer metrics of one traced call: ``<span>_s`` self times, the
    counters, and derived rates and percentiles."""
    spans = report["spans"]
    counts = report["counts"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_time = dict.fromkeys(SPAN_NAMES, 0.0)
    calls = []
    for (name, start, end, parent), covered in zip(spans, child_time):
        self_time[name] += (end - start) - covered
        if name == "twostage.self":
            calls.append(end - start)

    metrics = {f"{name}_s": value for name, value in self_time.items()}
    for name in COUNTERS:
        metrics[name] = counts.get(name, 0)
    metrics["trace.spans"] = len(spans)
    p50, p90 = np.percentile(calls, [50, 90]) if calls else (0.0, 0.0)
    metrics["twostage.call_p50_s"] = float(p50)
    metrics["twostage.call_p90_s"] = float(p90)
    load_s = metrics["datasets.load_s"]
    metrics["datasets.mb_per_s"] = (
        metrics["datasets.bytes_read"] / 1e6 / load_s if load_s > 0 else 0.0
    )
    return metrics
