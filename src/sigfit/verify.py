"""Verification-quality harness: scores, FAR/FRR, ROC and equal error rate.

The verifier is a deliberately simple nearest-centroid: enroll r genuine
vectors per user, standardize dimensions by the enrollment standard
deviation (floored at 1e-9), and score a probe by negative scaled
Euclidean distance to the claimed user's centroid. Its job is to compare
preprocessing configurations under one fixed protocol, not to maximize
absolute accuracy.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import pipeline
from .errors import InsufficientEnrollmentError, InvalidParamsError, OneClassOnlyError, SigfitError
from .ingest import GENUINE, check_channels, sample_order
from .ingest import extract_channel  # noqa: F401 - perfbench/tracing.py wraps this binding
from .pipeline import FeatureVector

SIGMA_FLOOR = 1e-9


@dataclass(frozen=True)
class Protocol:
    enroll_size: int = 10
    seed: int = 0

    def validate(self):
        if self.enroll_size < 1:
            raise InvalidParamsError("enroll_size must be >= 1")


@dataclass(frozen=True)
class ScoredTrial:
    claimed_user: str
    score: float
    truth: str  # "genuine" | "forged"


@dataclass(frozen=True)
class RocPoint:
    threshold: float
    far: float
    frr: float

    @property
    def tpr(self):
        return 1.0 - self.frr


def _user_rng(seed, user_id):
    digest = hashlib.sha256(f"{seed}:{user_id}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def score_trials(vectors, protocol=None):
    """Score held-out genuine and forged probes against per-user centroids.

    Enrollment picks ``enroll_size`` genuine vectors per user with a
    seeded, user-keyed shuffle, so a fixed protocol seed reproduces the
    identical split regardless of input order.
    """
    protocol = protocol or Protocol()
    protocol.validate()
    by_user = {}  # user_id -> vectors, users and samples in sample order
    for vec in sorted(vectors, key=sample_order):
        by_user.setdefault(vec.user_id, []).append(vec)
    trials = []
    for user, user_vectors in by_user.items():
        genuine = [v for v in user_vectors if v.label == GENUINE]
        forged = [v for v in user_vectors if v.label != GENUINE]
        if len(genuine) < protocol.enroll_size + 1:
            raise InsufficientEnrollmentError(user, protocol.enroll_size + 1, len(genuine))
        order = _user_rng(protocol.seed, user).permutation(len(genuine))
        enrolled = [genuine[i] for i in order[: protocol.enroll_size]]
        held_out = [genuine[i] for i in order[protocol.enroll_size :]]
        matrix = np.vstack([v.values for v in enrolled])
        centroid = matrix.mean(axis=0)
        sd = np.maximum(matrix.std(axis=0), SIGMA_FLOOR)
        dims = np.sqrt(matrix.shape[1])

        def score(vec):
            d = (vec.values - centroid) / sd
            return -float(np.linalg.norm(d)) / dims

        trials.extend(ScoredTrial(user, score(v), GENUINE) for v in held_out)
        trials.extend(ScoredTrial(user, score(v), "forged") for v in forged)
    return trials


def roc_and_eer(trials):
    """ROC swept over all distinct score thresholds, plus the interpolated EER.

    Acceptance means score >= threshold. As the threshold relaxes FAR
    never decreases and TPR never decreases. The EER interpolates linearly
    between the two thresholds bracketing FAR = FRR.
    """
    genuine = np.sort([t.score for t in trials if t.truth == GENUINE])
    forged = np.sort([t.score for t in trials if t.truth != GENUINE])
    if len(genuine) == 0 or len(forged) == 0:
        raise OneClassOnlyError("need at least one genuine and one forged trial")
    thresholds = np.unique(np.concatenate([genuine, forged]))[::-1]
    # counts from the sorted scores, where NaN sorts last: a NaN score is
    # neither accepted nor rejected, and a NaN threshold accepts and rejects none
    accepted = np.searchsorted(forged, np.nan) - np.searchsorted(forged, thresholds)
    rejected = np.where(np.isnan(thresholds), 0, np.searchsorted(genuine, thresholds))
    far, frr = accepted / len(forged), rejected / len(genuine)
    points = [RocPoint(*p) for p in zip(thresholds.tolist(), far.tolist(), frr.tolist())]
    eer = _interpolate_eer(points)
    return points, eer


def _interpolate_eer(points):
    # diff = FAR - FRR goes from <= 0 toward >= 0 as the threshold relaxes
    best = min(points, key=lambda p: abs(p.far - p.frr))
    for a, b in zip(points[:-1], points[1:]):
        da, db = a.far - a.frr, b.far - b.frr
        if da == 0.0:
            return a.far
        if da < 0.0 <= db or da > 0.0 >= db:
            t = da / (da - db)
            return float(a.far + t * (b.far - a.far))
    return (best.far + best.frr) / 2.0


ROC_CSV_HEADER = "threshold,far,frr,tpr"


def roc_csv(points):
    lines = [ROC_CSV_HEADER]
    lines.extend(
        f"{p.threshold:.17g},{p.far:.17g},{p.frr:.17g},{p.tpr:.17g}" for p in points
    )
    return "\n".join(lines) + "\n"


# --- preprocessing configurations under one protocol ---


def _raw_columns(channels):
    """The 0-based data columns of 1-based ``channels``; a raw vector is one slice of them."""
    return [c - 1 for c in check_channels(channels)]


# a raw vector is its channels' values one channel after another, as floats
def _truncate_vectors(samples, channels):
    cols = _raw_columns(channels)
    min_n = min(s.n_points for s in samples)
    cut = [s.data[:min_n, cols].T.astype(float).ravel() for s in samples]
    return [FeatureVector(s.user_id, s.sample_index, s.label, v) for s, v in zip(samples, cut)]


def _zero_pad_vectors(samples, channels):
    cols = _raw_columns(channels)
    max_n = max(s.n_points for s in samples)
    out = []
    for s in samples:
        values = np.zeros((len(cols), max_n))
        values[:, : s.n_points] = s.data[:, cols].T
        out.append(FeatureVector(s.user_id, s.sample_index, s.label, values.ravel()))
    return out


PREPROCESSORS = ("fitted", "truncate", "zero-pad")


def compare_preprocessors(
    samples,
    config=None,
    protocol=None,
    include=PREPROCESSORS,
    jobs=1,
):
    """EER per preprocessing configuration under identical trials and seed.

    ``fitted`` is the coefficient-vector pipeline; ``truncate`` cuts every
    raw channel to the shortest sample; ``zero-pad`` extends every raw
    channel to the longest.
    """
    config = config or pipeline.PipelineConfig()
    protocol = protocol or Protocol()
    results = {}
    for name in include:
        if name == "fitted":
            vectors = pipeline.uniformize_dataset(samples, config, jobs=jobs).vectors
        elif name == "truncate":
            vectors = _truncate_vectors(samples, config.channels)
        elif name == "zero-pad":
            vectors = _zero_pad_vectors(samples, config.channels)
        else:
            raise SigfitError(f"unknown preprocessing config {name!r}")
        trials = score_trials(vectors, protocol)
        points, eer = roc_and_eer(trials)
        results[name] = {"eer": eer, "n_trials": len(trials), "roc": points}
    return results


EER_CSV_HEADER = "config,eer,n_trials"


def eer_table_csv(results):
    lines = [EER_CSV_HEADER]
    for name in results:
        entry = results[name]
        lines.append(f"{name},{entry['eer']:.17g},{entry['n_trials']}")
    return "\n".join(lines) + "\n"
