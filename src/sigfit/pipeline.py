"""Batch preprocessing: every channel of every sample into one fixed-length
coefficient vector.

Each channel is fitted in near-equal parts laid side by side in its block
and scored once on the stitched predictions of their canonical parameters.
By default a channel is one part: an ``n_terms`` sum-of-sines (default 11
terms, 33 coefficients), or on the timestamp channel a low-degree
polynomial at the front of an equally wide, zero-padded block; 7 channels
give 231 coefficients whatever the point count. ``per_segment_fit`` makes
``n_segments`` parts (default 11), each rescaled to [0, 1] and fitted with
one sine term (or the timestamp polynomial), 3 coefficients each. The part
count is fixed, not the part size, or the vector length would depend on
the sample; parts too short to seed a fit (2 points per parameter) fail
the channel before any is fitted.

A failed channel fit emits a zero block plus an error flag in the batch
report; one bad channel never aborts a sample, and one bad sample never
aborts a batch.
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import _blas, gof, models, solver
from .errors import SigfitError
from .ingest import ChannelSeries, check_channels, extract_channel, N_CHANNELS, sample_order
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

    @property
    def split(self):
        """(fits per channel, sum-of-sines terms per fit); each term fills 3 coefficients."""
        return (self.n_segments, 1) if self.per_segment_fit else (1, self.n_terms)

    def validate(self):
        check_channels(self.channels)
        if self.n_terms < 1:
            raise SigfitError("n_terms must be >= 1")
        if self.timestamp_degree < 0:
            raise SigfitError("timestamp_degree must be >= 0")
        width = 3 * self.split[1]  # what one fit fills
        if self.timestamp_degree >= width:
            raise SigfitError(f"timestamp_degree must be < {width}, the coefficients of one fit")
        if self.timestamp_channel is not None and self.timestamp_channel not in self.channels:
            raise SigfitError("timestamp_channel must be one of channels, or None")
        if self.split[0] < 1:
            raise SigfitError("n_segments must be >= 1")
        self.solver.validate()

    @property
    def block_width(self):
        return 3 * self.split[0] * self.split[1]

    @property
    def vector_length(self):
        return len(self.channels) * self.block_width

    def channel_model(self, channel):
        """(family, n_terms, n_params) of each fit on one channel: the whole channel or a part."""
        if channel == self.timestamp_channel:
            return TIMESTAMP_FAMILY, self.timestamp_degree, self.timestamp_degree + 1
        return "sum-of-sines", self.split[1], 3 * self.split[1]

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
    evaluations: int  # model evaluations, summed over the parts of a per-segment fit
    error: str | None = None

    def to_dict(self):
        return gof.nan_to_none(asdict(self))


@dataclass(frozen=True)
class FeatureVector:
    """One sample's fixed-length vector, fitted or raw; a raw baseline's has no channel_fits."""

    user_id: str
    sample_index: int
    label: str
    values: np.ndarray  # float64; fitted blocks lie end to end in config.layout() order
    channel_fits: tuple = ()

    def __len__(self):
        return len(self.values)


def _channel_block(series, channel, config):
    """One channel's block and fit record: its parts' fits side by side.

    A whole channel is the one-part case; more parts are rescaled to [0, 1].
    The stitched predictions of the canonical parameters are scored once.
    """
    x = np.asarray(series.abscissa, dtype=float)
    y = np.asarray(series.ordinate, dtype=float)
    family, n_terms, per_fit = config.channel_model(channel)
    n_parts = config.split[0]
    need = models.SEED_POINTS_PER_PARAM * per_fit
    if n_parts > 1 and len(y) < need * n_parts:  # the shortest part has len(y) // n_parts
        raise SigfitError(f"{len(y)} points cannot be split into {n_parts} parts of >= {need}")
    width = config.block_width // n_parts
    block = np.zeros(config.block_width)
    predictions = np.empty_like(y)
    n_params = iterations = evaluations = 0
    termination = solver.CONVERGED
    for k, idx in enumerate(np.array_split(np.arange(len(y)), n_parts)):
        part = series if n_parts == 1 else ChannelSeries(x[idx], y[idx]).on_unit_interval()
        result = solver.fit_series(part, family, n_terms, config.solver)
        params = models.canonicalize(result.params)
        block[k * width : k * width + params.n_params] = params.param_vector()
        predictions[idx] = models.evaluate(params, part.abscissa)
        n_params += params.n_params
        iterations += result.iterations
        evaluations += result.evaluations
        if result.termination != solver.CONVERGED:
            termination = result.termination
    report = gof.gof_report(y, predictions, n_params)
    r2, rmse = report.r_squared, report.rmse
    return block, ChannelFit(
        channel, config.channel_family(channel), termination, r2, rmse, iterations, evaluations
    )


def preprocess_sample(sample, config=None):
    """Fit every configured channel and pack coefficients per the layout."""
    config = config or PipelineConfig()
    config.validate()
    values = np.zeros(config.vector_length)
    infos = []
    for k, (channel, family, width) in enumerate(config.layout()):
        # any exception, from extraction on, costs this channel only
        try:
            series = extract_channel(sample, channel, config.abscissa)
            block, info = _channel_block(series, channel, config)
            values[k * width : (k + 1) * width] = block
        except Exception as exc:
            info = ChannelFit(
                channel, family, "failed", np.nan, np.nan, 0, 0, f"{type(exc).__name__}: {exc}"
            )
        infos.append(info)
    return FeatureVector(sample.user_id, sample.sample_index, sample.label, values, tuple(infos))


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
    order is deterministic: ``ingest.sample_order``. Every fit,
    serial or in a pool worker, runs on one BLAS thread; the report records
    that count (None without BLAS thread control) and the worker count,
    which is at most one per chunk of 4 samples, and counts per channel
    how its fits ended (``terminations``: termination -> count).
    """
    config = config or PipelineConfig()
    config.validate()
    samples = sorted(samples, key=sample_order)
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


def vectors_to_json(vectors, config):
    """Structured block form of the same vectors, one block per entry of the layout."""
    layout = config.layout()
    return [
        {
            "user_id": vec.user_id,
            "sample_index": vec.sample_index,
            "label": vec.label,
            "blocks": [
                {"channel": channel, "family": family, "coefficients": block.tolist()}
                for (channel, family, _), block in zip(layout, np.split(vec.values, len(layout)))
            ],
        }
        for vec in vectors
    ]
