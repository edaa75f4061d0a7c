"""Spans recorded from outside the program, by wrapping public names.

Every name below is looked up through its module at call time (a module
global or ``module.attr``), so replacing the attribute routes each call
through a wrapper that records a span: name, start, end, the index of the
enclosing span and one per-call note (result size, iteration count, the
exception raised). The program's sources stay untouched, and nothing is
wrapped unless a traced run installs the tracer.

Spans live in memory and are written once, after the traced pass.
"""

from __future__ import annotations

import time
from collections import Counter

import numpy as np

from sigfit import _kernels, gof, ingest, models, pipeline, selection, solver, verify


def _result_bytes(result):
    return int(result.nbytes)


def _fit_note(result):
    return (int(result.iterations), result.termination)


def _length(result):
    return len(result)


def _roc_note(result):
    return len(result[0])


# (module, attribute, span name, note on the result); the same function can
# sit under several modules' names, and each binding is wrapped
WRAPPED = (
    (pipeline, "uniformize_dataset", "pipeline.uniformize_dataset", None),
    (pipeline, "preprocess_sample", "pipeline.preprocess_sample", None),
    (pipeline, "extract_channel", "ingest.extract_channel", None),
    (verify, "extract_channel", "ingest.extract_channel", None),
    (ingest, "extract_channel", "ingest.extract_channel", None),
    (ingest, "load_dataset", "ingest.load_dataset", None),
    (ingest, "parse_sample", "ingest.parse_sample", None),
    (models, "initial_guess", "models.initial_guess", None),
    (models, "canonicalize", "models.canonicalize", None),
    (solver, "fit", "solver.fit", _fit_note),
    (gof, "gof_report", "gof.gof_report", None),
    (selection, "rank_families", "selection.rank_families", None),
    (selection, "segment", "selection.segment", _length),
    (selection, "reference_curve", "selection.reference_curve", None),
    (verify, "compare_preprocessors", "verify.compare_preprocessors", None),
    (verify, "_truncate_vectors", "verify.baseline_build", None),
    (verify, "_zero_pad_vectors", "verify.baseline_build", None),
    (verify, "score_trials", "verify.score_trials", _length),
    (verify, "roc_and_eer", "verify.roc_and_eer", _roc_note),
) + tuple(
    (_kernels, name, f"kernels.{name}", _result_bytes if name.endswith("_jac") else None)
    for name in (
        "sumsines_eval",
        "sumsines_jac",
        "fourier_eval",
        "fourier_jac",
        "horner_eval",
        "weibull_eval",
        "weibull_jac",
    )
)

ROOT_SPANS = (
    "pipeline.uniformize_dataset",
    "selection.rank_families",
    "ingest.load_dataset",
    "verify.compare_preprocessors",
)

NAME = 0
START = 1
END = 2
PARENT = 3
NOTE = 4


class Tracer:
    """Installs span-recording wrappers; a context manager restores them."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, note]
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, note):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                record[NOTE] = type(exc).__name__
                raise
            finally:
                record[END] = clock()
                stack.pop()
            if note is not None:
                record[NOTE] = note(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self):
        for module, attr, name, note in WRAPPED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, note))
        return self

    def __exit__(self, *exc_info):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False


def self_times(spans):
    """Per span, its duration minus the time its direct children cover."""
    own = np.array([s[END] - s[START] for s in spans])
    self_t = own.copy()
    for s, dur in zip(spans, own):
        if s[PARENT] >= 0:
            self_t[s[PARENT]] -= dur
    return own, self_t


def _percentile_tail(values):
    """(value, percentile) of the highest percentile with >= 10 values beyond it.

    With fewer than 11 values no percentile qualifies; the median stands in.
    """
    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0
    if n < 11:
        return float(np.median(ordered)), 50.0
    return float(ordered[n - 11]), 100.0 * (n - 10) / n


def layer_metrics(spans, wall_s):
    """Per-layer figures from one traced pass of fixed work."""
    own, self_t = self_times(spans)
    names = np.array([s[NAME] for s in spans]) if spans else np.array([], dtype=str)

    def pick(prefix, suffix=""):
        return np.array(
            [n.startswith(prefix) and n.endswith(suffix) for n in names], dtype=bool
        )

    def ms(mask, which=own):
        return float(which[mask].sum() * 1e3)

    evals = pick("kernels.", "_eval")
    jacs = pick("kernels.", "_jac")
    fits = names == "solver.fit"
    fit_idx = np.flatnonzero(fits)
    fit_notes = [spans[i][NOTE] for i in fit_idx]
    finished = [n for n in fit_notes if isinstance(n, tuple)]
    iterations = np.array([n[0] for n in finished], dtype=float)
    capped = sum(1 for n in finished if n[1] == solver.MAX_ITERATIONS)
    retries = sum(1 for n in fit_notes if n == "NonFiniteValueError")
    # every fit evaluates once at its start; each later evaluation is a trial point
    evals_in_fit = sum(1 for s, e in zip(spans, evals) if e and s[PARENT] >= 0 and fits[s[PARENT]])
    trials = evals_in_fit - len(fit_idx)
    samples = names == "pipeline.preprocess_sample"
    sample_ms = own[samples] * 1e3
    tail, tail_pct = _percentile_tail(sample_ms)
    roots = np.isin(names, ROOT_SPANS) & np.array([s[PARENT] < 0 for s in spans], dtype=bool)
    covered = float(own[roots].sum())
    jac_bytes = sum(spans[i][NOTE] or 0 for i in np.flatnonzero(jacs))
    segments = sum(spans[i][NOTE] or 0 for i in np.flatnonzero(names == "selection.segment"))
    scored = sum(spans[i][NOTE] or 0 for i in np.flatnonzero(names == "verify.score_trials"))
    thresholds = sum(spans[i][NOTE] or 0 for i in np.flatnonzero(names == "verify.roc_and_eer"))
    metrics = {
        "kernels.eval_calls": (int(evals.sum()), "count"),
        "kernels.eval_ms": (ms(evals), "ms"),
        "kernels.jac_calls": (int(jacs.sum()), "count"),
        "kernels.jac_ms": (ms(jacs), "ms"),
        "kernels.jac_mbytes_computed": (jac_bytes / 1e6, "MB"),
        "solver.fits": (int(fits.sum()), "count"),
        "solver.self_ms": (ms(fits, self_t), "ms"),
        "solver.iterations": (int(iterations.sum()), "count"),
        "solver.iterations_p50": (float(np.percentile(iterations, 50)) if len(iterations) else 0.0, "count"),
        "solver.iterations_p90": (float(np.percentile(iterations, 90)) if len(iterations) else 0.0, "count"),
        "solver.capped_fits": (capped, "count"),
        "solver.accept_ratio": (float(iterations.sum() / trials) if trials > 0 else 0.0, "ratio"),
        "solver.retries": (retries, "count"),
        "models.guess_calls": (int((names == "models.initial_guess").sum()), "count"),
        "models.guess_ms": (ms(names == "models.initial_guess"), "ms"),
        "models.canonicalize_ms": (ms(names == "models.canonicalize"), "ms"),
        "gof.calls": (int((names == "gof.gof_report").sum()), "count"),
        "gof.ms": (ms(names == "gof.gof_report"), "ms"),
        "pipeline.sample_ms_p50": (float(np.median(sample_ms)) if len(sample_ms) else 0.0, "ms"),
        "pipeline.sample_ms_tail": (tail, "ms"),
        "pipeline.self_ms": (ms(pick("pipeline."), self_t), "ms"),
        "selection.rank_ms": (ms(names == "selection.rank_families"), "ms"),
        "selection.reference_calls": (int((names == "selection.reference_curve").sum()), "count"),
        "selection.reference_ms": (ms(names == "selection.reference_curve"), "ms"),
        "selection.segments": (int(segments), "count"),
        "ingest.files": (int((names == "ingest.parse_sample").sum()), "count"),
        "ingest.parse_ms": (ms(names == "ingest.parse_sample"), "ms"),
        "ingest.extract_calls": (int((names == "ingest.extract_channel").sum()), "count"),
        "ingest.extract_ms": (ms(names == "ingest.extract_channel"), "ms"),
        "verify.trials": (int(scored), "count"),
        "verify.thresholds": (int(thresholds), "count"),
        "verify.score_ms": (ms(names == "verify.score_trials"), "ms"),
        "verify.roc_ms": (ms(names == "verify.roc_and_eer"), "ms"),
        "verify.baseline_build_ms": (ms(names == "verify.baseline_build"), "ms"),
        "trace.coverage": (covered / wall_s if wall_s > 0 else 0.0, "ratio"),
    }
    breakdown = {}
    for name, t in zip(names, self_t):
        breakdown[name] = breakdown.get(name, 0.0) + float(t) * 1e3
    summary = {
        "wall_ms": wall_s * 1e3,
        "covered_ms": covered * 1e3,
        "remainder_ms": (wall_s - covered) * 1e3,
        "self_ms_by_span": dict(sorted(breakdown.items(), key=lambda kv: -kv[1])),
        "sample_tail_note": (
            f"pipeline.sample_ms_tail is the p{tail_pct:.1f} of {len(sample_ms)} samples"
            if len(sample_ms)
            else None
        ),
        "solver_terminations": dict(sorted(Counter(n[1] for n in finished).items())),
    }
    return metrics, summary


def spans_table(spans, origin):
    """Columnar span dump: times in microseconds from ``origin``."""
    names = sorted({s[NAME] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    return {
        "names": names,
        "name": [index[s[NAME]] for s in spans],
        "start_us": [round((s[START] - origin) * 1e6, 1) for s in spans],
        "end_us": [round((s[END] - origin) * 1e6, 1) for s in spans],
        "parent": [s[PARENT] for s in spans],
    }
