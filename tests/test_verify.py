import dataclasses

import numpy as np
import pytest

from sigfit import pipeline, verify
from sigfit.errors import InsufficientEnrollmentError, InvalidParamsError, OneClassOnlyError


def _vec(user, index, label, values):
    return verify._RawVector(user, index, label, np.asarray(values, dtype=float))


def _cluster_vectors(rng, n_users=4, dims=12, genuine_n=12, forged_n=6, separation=6.0):
    vectors = []
    for u in range(n_users):
        center = rng.normal(0.0, 3.0, dims)
        for i in range(1, genuine_n + 1):
            vectors.append(_vec(f"u{u}", i, "genuine", center + rng.normal(0, 0.4, dims)))
        for i in range(1, forged_n + 1):
            offset = rng.normal(0, 1.0, dims)
            offset += separation * np.sign(offset)
            vectors.append(_vec(f"u{u}", 100 + i, "forged", center + offset))
    return vectors


class TestScoreTrials:
    def test_probe_at_centroid_scores_highest(self):
        rng = np.random.default_rng(0)
        base = rng.normal(0, 1, 8)
        vectors = [_vec("a", i, "genuine", base) for i in range(1, 12)]
        vectors.append(_vec("a", 100, "forged", base + 3.0))
        trials = verify.score_trials(vectors, verify.Protocol(enroll_size=10, seed=1))
        genuine = [t for t in trials if t.truth == "genuine"]
        forged = [t for t in trials if t.truth == "forged"]
        assert len(genuine) == 1 and len(forged) == 1
        # identical to the centroid up to mean() rounding over the floor sd
        assert genuine[0].score == pytest.approx(0.0, abs=1e-5)
        assert forged[0].score < genuine[0].score

    def test_separated_clusters_rank_cleanly(self):
        # synthetic cluster oracle: all genuine above all forged
        rng = np.random.default_rng(1)
        trials = verify.score_trials(_cluster_vectors(rng), verify.Protocol(10, seed=3))
        genuine_scores = [t.score for t in trials if t.truth == "genuine"]
        forged_scores = [t.score for t in trials if t.truth == "forged"]
        assert min(genuine_scores) > max(forged_scores)

    def test_coordinate_permutation_invariance(self):
        rng = np.random.default_rng(2)
        vectors = _cluster_vectors(rng, n_users=2)
        baseline = verify.score_trials(vectors, verify.Protocol(10, seed=5))
        perm = rng.permutation(12)
        permuted = [
            verify._RawVector(v.user_id, v.sample_index, v.label, v.values[perm])
            for v in vectors
        ]
        shuffled = verify.score_trials(permuted, verify.Protocol(10, seed=5))
        for a, b in zip(baseline, shuffled):
            assert a.score == pytest.approx(b.score, rel=1e-12)
            assert (a.claimed_user, a.truth) == (b.claimed_user, b.truth)

    def test_split_is_seeded_and_input_order_free(self):
        rng = np.random.default_rng(3)
        vectors = _cluster_vectors(rng, n_users=2)
        first = verify.score_trials(vectors, verify.Protocol(10, seed=9))
        second = verify.score_trials(list(reversed(vectors)), verify.Protocol(10, seed=9))
        key = lambda t: (t.claimed_user, t.truth, round(t.score, 12))  # noqa: E731
        assert sorted(map(key, first)) == sorted(map(key, second))

    def test_insufficient_enrollment(self):
        vectors = [_vec("a", i, "genuine", [float(i)]) for i in range(1, 10)]
        with pytest.raises(InsufficientEnrollmentError):
            verify.score_trials(vectors, verify.Protocol(enroll_size=10))

    @pytest.mark.parametrize("enroll_size", [0, -1])
    def test_enrollment_needs_a_vector(self, enroll_size):
        vectors = [_vec("a", i, "genuine", [float(i)]) for i in range(1, 10)]
        with pytest.raises(InvalidParamsError):
            verify.score_trials(vectors, verify.Protocol(enroll_size=enroll_size))


class TestRocAndEer:
    def test_perfect_separation(self):
        trials = [verify.ScoredTrial("u", s, "genuine") for s in (0.9, 0.8, 0.7)]
        trials += [verify.ScoredTrial("u", s, "forged") for s in (0.2, 0.1)]
        points, eer = verify.roc_and_eer(trials)
        assert eer == pytest.approx(0.0, abs=1e-12)

    def test_hand_built_four_trials(self):
        trials = [
            verify.ScoredTrial("u", 0.9, "genuine"),
            verify.ScoredTrial("u", 0.8, "genuine"),
            verify.ScoredTrial("u", 0.7, "forged"),
            verify.ScoredTrial("u", 0.1, "forged"),
        ]
        points, eer = verify.roc_and_eer(trials)
        assert eer == pytest.approx(0.0, abs=1e-12)

    def test_identical_distributions_near_half(self):
        rng = np.random.default_rng(11)
        scores = rng.normal(size=4000)
        trials = [
            verify.ScoredTrial("u", s, "genuine" if i % 2 == 0 else "forged")
            for i, s in enumerate(scores)
        ]
        _, eer = verify.roc_and_eer(trials)
        assert 0.4 <= eer <= 0.6

    def test_roc_monotonic_as_threshold_relaxes(self):
        rng = np.random.default_rng(12)
        trials = [verify.ScoredTrial("u", s, "genuine") for s in rng.normal(1.0, 1.0, 200)]
        trials += [verify.ScoredTrial("u", s, "forged") for s in rng.normal(-1.0, 1.0, 200)]
        points, eer = verify.roc_and_eer(trials)
        fars = [p.far for p in points]
        tprs = [p.tpr for p in points]
        assert fars == sorted(fars)
        assert tprs == sorted(tprs)
        at = min(points, key=lambda p: abs(p.far - p.frr))  # the swept point nearest FAR = FRR
        assert min(at.far, at.frr) - 1e-12 <= eer <= max(at.far, at.frr) + 1e-12

    def test_trial_order_irrelevant(self):
        rng = np.random.default_rng(13)
        trials = [verify.ScoredTrial("u", s, "genuine") for s in rng.normal(1, 1, 50)]
        trials += [verify.ScoredTrial("u", s, "forged") for s in rng.normal(-1, 1, 50)]
        _, eer_a = verify.roc_and_eer(trials)
        rng.shuffle(trials)
        _, eer_b = verify.roc_and_eer(trials)
        assert eer_a == eer_b

    def test_one_class_only(self):
        with pytest.raises(OneClassOnlyError):
            verify.roc_and_eer([verify.ScoredTrial("u", 1.0, "genuine")])

    def test_roc_csv(self):
        trials = [
            verify.ScoredTrial("u", 1.0, "genuine"),
            verify.ScoredTrial("u", 0.0, "forged"),
        ]
        points, _ = verify.roc_and_eer(trials)
        text = verify.roc_csv(points)
        assert text.splitlines()[0] == "threshold,far,frr,tpr"
        assert len(text.strip().splitlines()) == len(points) + 1


@pytest.fixture(scope="module")
def tiny_dataset():
    from sigfit import synth

    return synth.generate_samples(n_users=2, genuine=12, forged=4)


@pytest.fixture(scope="module")
def fast_config():
    from sigfit import solver

    return pipeline.PipelineConfig(
        n_terms=2,
        channels=(1, 2),
        timestamp_channel=None,
        solver=solver.SolverConfig(max_iterations=40),
    )


class TestComparePreprocessors:
    def test_structure_and_determinism(self, tiny_dataset, fast_config):
        protocol = verify.Protocol(enroll_size=10, seed=4)
        first = verify.compare_preprocessors(tiny_dataset, fast_config, protocol)
        second = verify.compare_preprocessors(tiny_dataset, fast_config, protocol)
        assert set(first) == {"fitted", "truncate", "zero-pad"}
        for name in first:
            assert first[name]["eer"] == second[name]["eer"]
            assert 0.0 <= first[name]["eer"] <= 1.0
            assert first[name]["n_trials"] == second[name]["n_trials"]

    def test_eer_table_csv(self, tiny_dataset, fast_config):
        results = verify.compare_preprocessors(
            tiny_dataset, fast_config, verify.Protocol(10, 4), include=("truncate", "zero-pad")
        )
        text = verify.eer_table_csv(results)
        lines = text.strip().splitlines()
        assert lines[0] == "config,eer,n_trials"
        assert len(lines) == 3

    def test_baselines_ignore_the_abscissa(self, tiny_dataset, fast_config):
        # the raw baselines read ordinates only, so a repeated timestamp,
        # which the timestamp abscissa rejects, must not abort them
        samples = list(tiny_dataset)
        bad = samples[3]
        samples[3] = dataclasses.replace(bad, data=bad.data.copy())
        samples[3].data[5, 2] = samples[3].data[4, 2]
        baselines = ("truncate", "zero-pad")
        protocol = verify.Protocol(10, 4)
        timestamp = verify.compare_preprocessors(
            samples, dataclasses.replace(fast_config, abscissa="timestamp"), protocol,
            include=baselines,
        )
        index = verify.compare_preprocessors(samples, fast_config, protocol, include=baselines)
        for name in baselines:
            assert timestamp[name]["eer"] == index[name]["eer"]
            assert timestamp[name]["roc"] == index[name]["roc"]
