"""Batch preprocessing: every channel of every sample into one fixed-length
coefficient vector.

Non-timestamp channels are fitted with an ``n_terms`` sum-of-sines (default
11 terms, 33 coefficients); the timestamp channel uses a low-degree
polynomial whose coefficients sit at the front of an equally wide,
zero-padded block. With the default 7 channels the vector is 7 x 33 = 231
coefficients, identical for every sample regardless of its point count.

The alternative ``per_segment_fit`` mode splits each channel into a fixed
number of near-equal parts (default 11) and fits a single-term sinusoid
per part (a degree ``timestamp_degree`` polynomial on the timestamp
channel), again 3 coefficients each, so the vector length is preserved at
the default settings. The part count is fixed rather than the part size
because a fixed size would make the vector length depend on the sample.

A failed channel fit emits a zero block plus an error flag in the batch
report; one bad channel never aborts a sample, and one bad sample never
aborts a batch.
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import _blas, gof, models, solver
from .errors import SigfitError
from .ingest import ChannelSeries, extract_channel, N_CHANNELS, _user_sort_key
from .solver import SolverConfig

TIMESTAMP_FAMILY = "polynomial"


@dataclass(frozen=True)
class PipelineConfig:
    n_terms: int = 11
    timestamp_channel: int | None = 3
    timestamp_degree: int = 1
    channels: tuple = tuple(range(1, N_CHANNELS + 1))
    solver: SolverConfig = field(default_factory=SolverConfig)
    abscissa: str = "index"
    per_segment_fit: bool = False
    n_segments: int = 11

    def validate(self):
        if self.n_terms < 1:
            raise SigfitError("n_terms must be >= 1")
        if self.timestamp_degree < 0:
            raise SigfitError("timestamp_degree must be >= 0")
        width = 3 if self.per_segment_fit else self.block_width  # what one fit fills
        if self.timestamp_degree >= width:
            raise SigfitError(f"timestamp_degree must be < {width}, the coefficients of one fit")
        if self.timestamp_channel is not None and self.timestamp_channel not in self.channels:
            raise SigfitError("timestamp_channel must be one of channels, or None")
        if self.per_segment_fit and self.n_segments < 1:
            raise SigfitError("n_segments must be >= 1")
        self.solver.validate()

    @property
    def block_width(self):
        return 3 * (self.n_segments if self.per_segment_fit else self.n_terms)

    @property
    def vector_length(self):
        return len(self.channels) * self.block_width

    def channel_model(self, channel):
        """(family, n_terms) of each fit on one channel: the whole channel or a part."""
        if channel == self.timestamp_channel:
            return TIMESTAMP_FAMILY, self.timestamp_degree
        return "sum-of-sines", 1 if self.per_segment_fit else self.n_terms

    def channel_family(self, channel):
        """The family label of one channel's block, as its fit reports it."""
        family = self.channel_model(channel)[0]
        return "segmented-" + family if self.per_segment_fit else family

    def layout(self):
        """Per-channel (channel, family, width) tuples; frozen for a run."""
        return tuple((c, self.channel_family(c), self.block_width) for c in self.channels)


@dataclass(frozen=True)
class ChannelFit:
    channel: int
    family: str
    termination: str
    r_squared: float
    rmse: float
    iterations: int
    error: str | None = None

    def to_dict(self):
        return {
            "channel": self.channel,
            "family": self.family,
            "termination": self.termination,
            "r_squared": None if np.isnan(self.r_squared) else self.r_squared,
            "rmse": None if np.isnan(self.rmse) else self.rmse,
            "iterations": self.iterations,
            "error": self.error,
        }


@dataclass(frozen=True)
class FeatureVector:
    user_id: str
    sample_index: int
    label: str
    blocks: tuple  # one float array per channel, each block_width long
    layout: tuple  # (channel, family, width) per block
    channel_fits: tuple = ()

    @property
    def values(self):
        return np.concatenate(self.blocks) if self.blocks else np.zeros(0)

    def __len__(self):
        return sum(len(b) for b in self.blocks)


def _gof_safe(series, params):
    try:
        report = gof.gof_report(series, params)
        return report.r_squared, report.rmse
    except SigfitError:
        return np.nan, np.nan


def _whole_channel_block(series, channel, config):
    family, n_terms = config.channel_model(channel)
    result = solver.fit_series(series, family, n_terms, config.solver)
    params = models.canonicalize(result.params)
    coeffs = params.param_vector()
    block = np.zeros(config.block_width)
    block[: len(coeffs)] = coeffs
    r2, rmse = _gof_safe(series, params)
    info = ChannelFit(channel, family, result.termination, r2, rmse, result.iterations)
    return block, info


def _segmented_block(series, channel, config):
    x = np.asarray(series.abscissa, dtype=float)
    y = np.asarray(series.ordinate, dtype=float)
    family, n_terms = config.channel_model(channel)
    parts = np.array_split(np.arange(len(y)), config.n_segments)
    block = np.zeros(config.block_width)
    predictions = np.empty_like(y)
    iterations = 0
    termination = solver.CONVERGED
    for k, idx in enumerate(parts):
        if len(idx) < 2:
            raise SigfitError(
                f"{len(y)} points cannot be split into {config.n_segments} parts of >= 2"
            )
        unit = ChannelSeries(x[idx], y[idx]).on_unit_interval()
        result = solver.fit_series(unit, family, n_terms, config.solver)
        coeffs = models.canonicalize(result.params).param_vector()
        block[3 * k : 3 * k + len(coeffs)] = coeffs
        predictions[idx] = models.evaluate(result.params, unit.abscissa)
        iterations += result.iterations
        if result.termination != solver.CONVERGED:
            termination = result.termination
    _, _, r2, rmse = gof.fit_statistics(y, predictions, 3 * config.n_segments)
    info = ChannelFit(channel, config.channel_family(channel), termination, r2, rmse, iterations)
    return block, info


def preprocess_sample(sample, config=None):
    """Fit every configured channel and pack coefficients per the layout."""
    config = config or PipelineConfig()
    config.validate()
    layout = config.layout()
    blocks = []
    infos = []
    for channel, family, _ in layout:
        # any exception, from extraction on, costs this channel only
        try:
            series = extract_channel(sample, channel, config.abscissa)
            if config.per_segment_fit:
                block, info = _segmented_block(series, channel, config)
            else:
                block, info = _whole_channel_block(series, channel, config)
        except Exception as exc:
            block = np.zeros(config.block_width)
            info = ChannelFit(
                channel, family, "failed", np.nan, np.nan, 0, error=f"{type(exc).__name__}: {exc}"
            )
        blocks.append(block)
        infos.append(info)
    return FeatureVector(
        sample.user_id,
        sample.sample_index,
        sample.label,
        tuple(blocks),
        layout,
        tuple(infos),
    )


_CHUNK = 4  # samples per pool task


@dataclass
class BatchResult:
    vectors: list
    report: dict


def _preprocess_star(args):
    sample, config = args
    return preprocess_sample(sample, config)


def uniformize_dataset(samples, config=None, jobs=1):
    """One vector per sample, identical length and layout across the run.

    Per-sample failures land in the report, never abort the batch. Output
    order is deterministic: sorted by (user_id, sample_index). Every fit,
    serial or in a pool worker, runs on one BLAS thread; the report records
    that count (None without BLAS thread control) and the worker count,
    which is at most one per chunk of 4 samples, and counts per channel
    how its fits ended (``terminations``: termination -> count).
    """
    config = config or PipelineConfig()
    config.validate()
    samples = sorted(samples, key=lambda s: (_user_sort_key(s.user_id), s.sample_index))
    # a forked pool starts all its workers at once: no more than there are chunks
    jobs = max(1, min(jobs, -(-len(samples) // _CHUNK)))
    # the fits run on one BLAS thread: a second one only busy-waits, and pool
    # workers would crowd each other off the cores
    with _blas.single_thread() as blas_threads:
        if jobs > 1:
            with ProcessPoolExecutor(
                max_workers=jobs, initializer=_blas.set_threads, initargs=(1,)
            ) as pool:
                vectors = list(
                    pool.map(_preprocess_star, ((s, config) for s in samples), chunksize=_CHUNK)
                )
        else:
            vectors = [preprocess_sample(s, config) for s in samples]
    entries = []
    terminations = {str(c): Counter() for c in config.channels}  # how each channel's fits ended
    for vec in vectors:
        for cf in vec.channel_fits:
            terminations[str(cf.channel)][cf.termination] += 1
        failed = [cf for cf in vec.channel_fits if cf.error]
        entries.append(
            {
                "user_id": vec.user_id,
                "sample_index": vec.sample_index,
                "label": vec.label,
                "channels": [cf.to_dict() for cf in vec.channel_fits],
                "failed_channels": [cf.channel for cf in failed],
            }
        )
    report = {
        "n_samples": len(samples),
        "n_vectors": len(vectors),
        "vector_length": config.vector_length,
        "jobs": jobs,
        "blas_threads": blas_threads,
        "terminations": {c: dict(sorted(t.items())) for c, t in terminations.items()},
        "samples": entries,
    }
    return BatchResult(vectors, report)


def vectors_csv_header(config):
    cols = ["user_id", "sample_index", "label"]
    for channel, family, width in config.layout():
        cols.extend(f"ch{channel}_c{j + 1:02d}" for j in range(width))
    return ",".join(cols)


def vectors_to_csv(vectors, config):
    """CSV with 17-significant-digit coefficients; one row per sample."""
    lines = [vectors_csv_header(config)]
    for vec in vectors:
        cells = [vec.user_id, str(vec.sample_index), vec.label]
        cells.extend(f"{v:.17g}" for v in vec.values)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def vectors_to_json(vectors):
    """Structured block form of the same vectors."""
    return [
        {
            "user_id": vec.user_id,
            "sample_index": vec.sample_index,
            "label": vec.label,
            "blocks": [
                {"channel": layout[0], "family": layout[1], "coefficients": [float(v) for v in block]}
                for layout, block in zip(vec.layout, vec.blocks)
            ],
        }
        for vec in vectors
    ]
