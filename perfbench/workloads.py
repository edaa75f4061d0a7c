"""The benchmark's workloads: inputs from a seed, one pass, output checks.

Each workload is a closed loop with one caller: it submits one batch (a
pass over its fixed slice), waits for the result and submits the next.
Throughput is therefore reported at the stated slice size, not at a rate.
Inputs come from ``sigfit.synth`` with the run's seed as the synth seed;
the environment is left as found (no BLAS or thread pinning).
"""

from __future__ import annotations

import hashlib
import shutil
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from sigfit import ingest, pipeline, selection, synth, verify

# fit-serial and rank-segments time one genuine and one forged sample of
# each of the seed's first 20 synth users. Fit cost varies far more between
# users than between one user's samples or labels, so many users keep the
# figures steady from seed to seed; whole users (20 + 20 samples) are fitted
# only in the traced run, where the default verification protocol needs them
SLICE_USERS = 20
SLICE_GENUINE = 1
SLICE_FORGED = 1
TRACE_USERS = 1
SYNTH_GENUINE = 20  # synth's default per-user split, as load-score writes it
SYNTH_FORGED = 20
RECHECK = 8  # samples (channels for rank) run again and compared bit for bit
# lowest acceptable 10th percentile of non-timestamp R^2 (see README.md)
R2_P10_FLOOR = 0.55

LOAD_USERS = 24  # 40 files each, written with synth's 20/20 split
LOAD_BASELINES = ("truncate", "zero-pad")


@dataclass
class Outcome:
    attempted: int
    failed: int
    checks: dict  # check name -> passed
    record: dict = field(default_factory=dict)  # values kept for the reader
    quality: dict = field(default_factory=dict)  # metric name -> (value, unit)
    histograms: dict = field(default_factory=dict)


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _spread(n_items):
    """RECHECK indices evenly spaced over ``range(n_items)``."""
    return [i * n_items // RECHECK for i in range(RECHECK)]


def _timed_slice(seed):
    return synth.generate_samples(
        n_users=SLICE_USERS, seed=seed, genuine=SLICE_GENUINE, forged=SLICE_FORGED
    )


def _whole_users(seed):
    return synth.generate_samples(n_users=TRACE_USERS, seed=seed)


def _counts_by_user(items):
    out = {}
    for item in items:
        g, f = out.get(item.user_id, (0, 0))
        out[item.user_id] = (g + 1, f) if item.label == ingest.GENUINE else (g, f + 1)
    return out


class FitSerial:
    name = "fit-serial"
    unit = "samples"
    trace_passes = 1

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.config = pipeline.PipelineConfig()

    def prepare(self):
        return _timed_slice(self.seed)

    def trace_slice(self, samples):
        return _whole_users(self.seed)

    def warm(self, samples):
        pipeline.preprocess_sample(samples[-1], self.config)

    def units(self, samples):
        return len(samples)

    samples = units

    def run_pass(self, samples):
        return pipeline.uniformize_dataset(samples, self.config, jobs=1)

    def digest(self, batch):
        return _sha256(pipeline.vectors_to_csv(batch.vectors, self.config))

    def evaluate(self, samples, batch):
        vectors = batch.vectors
        config = self.config
        fits = [cf for v in vectors for cf in v.channel_fits]
        failed = sum(1 for cf in fits if cf.error)
        values = [v.values for v in vectors]
        csv_text = pipeline.vectors_to_csv(vectors, config)
        # 8 samples are two chunks of the pool's 4, so both workers fit; an odd
        # spacing over alternating labels takes both
        check_slice = [samples[i] for i in _spread(len(samples))]
        parallel = pipeline.uniformize_dataset(check_slice, config, jobs=2).vectors
        serial = {(v.user_id, v.sample_index): v.values for v in vectors}
        by_user = _counts_by_user(samples)
        protocol = verify.Protocol()
        trials, eer = [], None
        if min(g for g, _ in by_user.values()) > protocol.enroll_size:
            trials = verify.score_trials(vectors, protocol)
            _, eer = verify.roc_and_eer(trials)
        r2 = [
            cf.r_squared
            for cf in fits
            if cf.channel != config.timestamp_channel and np.isfinite(cf.r_squared)
        ]
        r2_p10 = float(np.percentile(r2, 10))
        checks = {
            "vector_length_231": all(len(v) == config.vector_length == 231 for v in values),
            "vectors_finite": all(np.all(np.isfinite(v)) for v in values),
            "one_vector_per_sample": len(vectors) == len(samples),
            "labels_match_synth": _counts_by_user(vectors) == by_user,
            "r2_p10_at_least_floor": r2_p10 >= R2_P10_FLOOR,
            "jobs2_bit_identical": len(parallel) == len(check_slice)
            and all(
                np.array_equal(p.values, serial[(p.user_id, p.sample_index)]) for p in parallel
            ),
        }
        record = {
            "samples": len(vectors),
            "vectors_csv_sha256": _sha256(csv_text),
            "eer_fitted": eer,
            "eer_trials": len(trials),
            "r2_p10": r2_p10,
            "r2_p10_floor": R2_P10_FLOOR,
            "failed_channels": failed,
        }
        quality = {"gof.r2_p10": (r2_p10, "ratio")}
        if eer is not None:
            quality["verify.eer_fitted"] = (float(eer), "ratio")
        return Outcome(len(fits), failed, checks, record, quality, _fit_histograms(vectors))

    def cleanup(self):
        pass


def _fit_histograms(vectors):
    """Per channel: termination counts and iteration counts in bins of 50."""
    edges = list(range(0, 401, 50))
    out = {}
    for v in vectors:
        for cf in v.channel_fits:
            entry = out.setdefault(
                f"ch{cf.channel}", {"termination": {}, "iterations": {}}
            )
            term = entry["termination"]
            term[cf.termination] = term.get(cf.termination, 0) + 1
            lo = max(e for e in edges if e <= cf.iterations)
            label = f"{lo}" if lo == edges[-1] else f"{lo}-{lo + 49}"
            entry["iterations"][label] = entry["iterations"].get(label, 0) + 1
    for entry in out.values():
        entry["termination"] = dict(sorted(entry["termination"].items()))
        entry["iterations"] = dict(
            sorted(entry["iterations"].items(), key=lambda kv: int(kv[0].split("-")[0]))
        )
    return dict(sorted(out.items(), key=lambda kv: int(kv[0][2:])))


class RankSegments:
    name = "rank-segments"
    unit = "channels"
    trace_passes = 1

    def __init__(self, seed, work_dir):
        self.seed = seed

    def prepare(self):
        samples = _timed_slice(self.seed)
        return [
            ingest.extract_channel(s, c) for s in samples for c in range(1, ingest.N_CHANNELS + 1)
        ]

    def trace_slice(self, series):
        return series

    def warm(self, series):
        selection.rank_families(series[0])

    def units(self, series):
        return len(series)

    def samples(self, series):
        return len(series) // ingest.N_CHANNELS

    def run_pass(self, series):
        return [selection.rank_families(s) for s in series]

    def digest(self, rankings):
        return _sha256("".join(selection.ranking_csv(r) for r in rankings))

    def evaluate(self, series, rankings):
        candidates = set(selection.TABLE_CANDIDATES)
        attempted = len(series) * len(candidates)
        failed = sum(len(candidates) - len(r) for r in rankings)
        csv_text = "".join(selection.ranking_csv(r) for r in rankings)
        totals = [[rep.total for _, rep in r] for r in rankings]
        winners = Counter(r[0][0] for r in rankings if r)
        # one step further in the cycle of channels each time, so all are hit
        picks = [i + k % ingest.N_CHANNELS for k, i in enumerate(_spread(len(series)))]
        rerun = [selection.ranking_csv(selection.rank_families(series[i])) for i in picks]
        checks = {
            "one_ranking_per_channel": len(rankings) == len(series),
            "all_candidates_ranked": all({f for f, _ in r} == candidates for r in rankings),
            "totals_finite": all(np.all(np.isfinite(t)) for t in totals),
            "totals_ascending": all(list(t) == sorted(t) for t in totals),
            "rerank_bit_identical": rerun
            == [selection.ranking_csv(rankings[i]) for i in picks],
        }
        record = {
            "channels": len(series),
            "rankings_sha256": _sha256(csv_text),
            "winners": dict(sorted(winners.items())),
            "excluded_candidates": failed,
        }
        return Outcome(attempted, failed, checks, record)

    def cleanup(self):
        pass


class LoadScore:
    name = "load-score"
    unit = "files"
    trace_passes = 8

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.root = work_dir / f"corpus-{seed}"

    def prepare(self):
        if self.root.exists():
            shutil.rmtree(self.root)
        synth.write_dataset(self.root, n_users=LOAD_USERS, seed=self.seed)
        return self.root

    def trace_slice(self, root):
        return root

    def warm(self, root):
        self.run_pass(root)

    def units(self, root):
        return LOAD_USERS * (SYNTH_GENUINE + SYNTH_FORGED)

    samples = units

    def run_pass(self, root):
        index = ingest.load_dataset(root)
        results = verify.compare_preprocessors(index.samples(), include=LOAD_BASELINES)
        return index, results

    def digest(self, output):
        index, results = output
        eers = {k: (v["eer"], v["n_trials"]) for k, v in results.items()}
        return _sha256(repr((index.counts(), len(index.errors), eers)))

    def evaluate(self, root, output):
        index, results = output
        summary = {k: (v["eer"], v["n_trials"]) for k, v in results.items()}
        expected_trials = LOAD_USERS * (
            SYNTH_GENUINE - verify.Protocol().enroll_size + SYNTH_FORGED
        )
        checks = {
            "no_file_errors": not index.errors,
            "labels_match_synth": index.counts()
            == {str(u): (SYNTH_GENUINE, SYNTH_FORGED) for u in range(1, LOAD_USERS + 1)},
            "sample_labels": all(
                (s.label == ingest.GENUINE) == (s.sample_index <= SYNTH_GENUINE)
                for s in index.samples()
            ),
            "trial_counts": all(n == expected_trials for _, n in summary.values()),
            "eer_in_unit_range": all(0.0 <= e <= 1.0 for e, _ in summary.values()),
        }
        record = {
            "files": self.units(root),
            "eer": {k: e for k, (e, _) in summary.items()},
            "n_trials": {k: n for k, (_, n) in summary.items()},
            "file_errors": len(index.errors),
            "reads": "page cache: the corpus is written in set-up and re-read every pass",
        }
        return Outcome(self.units(root), len(index.errors), checks, record)

    def cleanup(self):
        shutil.rmtree(self.root, ignore_errors=True)


WORKLOADS = {w.name: w for w in (FitSerial, RankSegments, LoadScore)}
