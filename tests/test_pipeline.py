import dataclasses
import json
import multiprocessing
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sigfit import _blas, gof, ingest, models, pipeline, solver
from sigfit.errors import SigfitError

TINY = pipeline.PipelineConfig(
    n_terms=2, channels=(1,), timestamp_channel=None,
    solver=solver.SolverConfig(max_iterations=20),
)
_preprocess_sample = pipeline.preprocess_sample
needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers see a patched pipeline only when forked",
)


def _sample_from_channel(values, user_id="u", sample_index=1):
    """SignatureSample whose channel 1 carries the given values."""
    n = len(values)
    data = np.zeros((n, 7), dtype=np.int64)
    data[:, 0] = np.rint(values)
    data[:, 1] = 1000
    data[:, 2] = 10 * np.arange(n) + 1_000_000
    data[:, 3] = 1
    data[:, 4:] = 100
    return ingest.SignatureSample(user_id, sample_index, ingest.GENUINE, data)


class TestPreprocessSample:
    def test_default_vector_length_231(self, small_dataset):
        vec = pipeline.preprocess_sample(small_dataset[0])
        assert len(vec) == 231
        assert vec.values.shape == (231,)

    def test_different_lengths_same_layout(self, small_dataset):
        first, second = small_dataset[0], small_dataset[1]
        assert first.n_points != second.n_points
        va = pipeline.preprocess_sample(first)
        vb = pipeline.preprocess_sample(second)
        assert len(va) == len(vb) == 231
        assert va.layout == vb.layout

    def test_known_two_term_sinusoid_recovered_in_block(self):
        # amplitudes large enough that integer rounding sits below 1e-6
        config = pipeline.PipelineConfig(
            n_terms=2, channels=(1,), timestamp_channel=None
        )
        x = np.arange(240.0)
        true = models.SumOfSines(((4.0e6, 0.21, 0.4), (1.5e6, 0.57, -1.1)))
        sample = _sample_from_channel(models.evaluate(true, x))
        vec = pipeline.preprocess_sample(sample, config)
        assert len(vec) == 6
        np.testing.assert_allclose(vec.values, true.param_vector(), rtol=1e-6)

    def test_timestamp_block_front_filled_zero_padded(self, small_dataset):
        config = pipeline.PipelineConfig()
        vec = pipeline.preprocess_sample(small_dataset[0], config)
        ts_block = vec.blocks[2]  # channel 3
        assert len(ts_block) == 33
        assert np.any(ts_block[:2] != 0.0)
        np.testing.assert_array_equal(ts_block[2:], 0.0)
        info = vec.channel_fits[2]
        assert info.family == "polynomial"
        assert info.r_squared > 0.999

    def test_metadata_carried_through(self, small_dataset):
        sample = small_dataset[21]
        vec = pipeline.preprocess_sample(sample)
        assert (vec.user_id, vec.sample_index, vec.label) == (
            sample.user_id,
            sample.sample_index,
            sample.label,
        )

    def test_failed_channel_emits_zero_block_and_flag(self):
        sample = _sample_from_channel(np.arange(8.0))  # far below 2P points
        config = pipeline.PipelineConfig(n_terms=11, channels=(1,), timestamp_channel=None)
        vec = pipeline.preprocess_sample(sample, config)
        assert len(vec) == 33
        np.testing.assert_array_equal(vec.values, 0.0)
        assert vec.channel_fits[0].error is not None

    def test_a_channel_block_is_the_canonical_fit_series_result(self, small_dataset):
        whole = pipeline.PipelineConfig(channels=(1,), timestamp_channel=None)
        series = ingest.extract_channel(small_dataset[0], 1)
        # with per_segment_fit each 3-wide slot is one unit part's single-term fit
        units = [
            ingest.ChannelSeries(series.abscissa[idx], series.ordinate[idx]).on_unit_interval()
            for idx in np.array_split(np.arange(len(series)), whole.n_segments)
        ]
        for config, parts, n_terms in [
            (whole, [series], whole.n_terms),
            (dataclasses.replace(whole, per_segment_fit=True), units, 1),
        ]:
            block = pipeline.preprocess_sample(small_dataset[0], config).blocks[0]
            for slot, part in zip(np.split(block, len(parts)), parts, strict=True):
                result = solver.fit_series(part, "sum-of-sines", n_terms, config.solver)
                expected = models.canonicalize(result.params).param_vector()
                assert slot.tobytes() == expected.tobytes()

    def test_determinism(self, small_dataset):
        a = pipeline.preprocess_sample(small_dataset[2])
        b = pipeline.preprocess_sample(small_dataset[2])
        np.testing.assert_array_equal(a.values, b.values)


FUZZ = dataclasses.replace(TINY, channels=(1, 3), timestamp_channel=3)
SEEDING_POINTS = 2 * 3 * FUZZ.n_terms  # the sum-of-sines guess wants 2 points per parameter
BEYOND_INT64 = (2**63, -(2**63) - 1, 10**30)


@st.composite
def _capture_rows(draw):
    """Rows of one capture file, and whether one value is beyond int64.

    Point counts sit at the seeding threshold and one either side; channel 1
    may be constant; a zero timestamp step repeats a timestamp.
    """
    n = draw(st.sampled_from([SEEDING_POINTS - 1, SEEDING_POINTS, SEEDING_POINTS + 1]))
    values = st.integers(-(2**62), 2**62)
    if draw(st.booleans()):
        x = [draw(values)] * n
    else:
        x = draw(st.lists(values, min_size=n, max_size=n))
    steps = draw(st.lists(st.integers(0, 20), min_size=n - 1, max_size=n - 1))
    t = (1_000_000 + np.concatenate([[0], np.cumsum(steps)])).tolist()
    rows = [[xi, 1000, ti, 1, 100, 100, 100] for xi, ti in zip(x, t)]
    overflow = draw(st.booleans())
    if overflow:
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, 6))] = draw(
            st.sampled_from(BEYOND_INT64)
        )
    return rows, overflow


class TestBatchIsolation:
    @settings(max_examples=25, deadline=None)
    @given(capture=_capture_rows(), abscissa=st.sampled_from(["index", "timestamp"]))
    def test_fuzzed_captures_always_give_a_full_vector(self, capture, abscissa):
        rows, overflow = capture
        config = dataclasses.replace(FUZZ, abscissa=abscissa)
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "U1S1.TXT"
            path.write_text(f"{len(rows)}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows))
            index = ingest.load_dataset(root)
        if overflow:
            assert [issue.path for issue in index.errors] == [str(path)]
            assert index.samples() == []
            return
        assert index.errors == []
        batch = pipeline.uniformize_dataset(index.samples(), config)
        (vec,) = batch.vectors
        assert len(vec) == config.vector_length
        failed = []
        for block, fit in zip(vec.blocks, vec.channel_fits):
            assert (fit.termination == "failed") == (fit.error is not None)
            if fit.error:
                failed.append(fit.channel)
                np.testing.assert_array_equal(block, 0.0)
        assert batch.report["samples"][0]["failed_channels"] == failed

    def test_repeated_timestamp_fails_only_its_sample(self):
        values = 5000.0 + 800.0 * np.sin(0.13 * np.arange(60.0))
        good = _sample_from_channel(values, sample_index=1)
        bad = _sample_from_channel(values, sample_index=2)
        bad.data[5, 2] = bad.data[4, 2]
        config = dataclasses.replace(TINY, abscissa="timestamp")
        batch = pipeline.uniformize_dataset([good, bad], config)
        assert [len(v) for v in batch.vectors] == [6, 6]
        np.testing.assert_array_equal(batch.vectors[1].values, 0.0)
        good_entry, bad_entry = batch.report["samples"]
        assert good_entry["failed_channels"] == []
        assert bad_entry["failed_channels"] == [1]
        assert "strictly increasing" in bad_entry["channels"][0]["error"]

    def test_failed_channel_takes_its_family_from_the_layout(self):
        values = 5000.0 + 800.0 * np.sin(0.13 * np.arange(60.0))
        sample = _sample_from_channel(values)
        sample.data[5, 2] = sample.data[4, 2]
        config = dataclasses.replace(
            TINY, channels=(1, 3), timestamp_channel=3, abscissa="timestamp"
        )
        vec = pipeline.preprocess_sample(sample, config)
        assert [cf.termination for cf in vec.channel_fits] == ["failed", "failed"]
        assert [cf.family for cf in vec.channel_fits] == ["sum-of-sines", "polynomial"]
        assert [f for _, f, _ in config.layout()] == ["sum-of-sines", "polynomial"]

    def test_any_exception_fails_only_its_channel(self, monkeypatch):
        def broken(series, channel, config):
            raise ValueError("not a sigfit error")

        monkeypatch.setattr(pipeline, "_channel_block", broken)
        sample = _sample_from_channel(np.arange(60.0))
        for per_segment_fit in (False, True):
            config = dataclasses.replace(TINY, per_segment_fit=per_segment_fit)
            vec = pipeline.preprocess_sample(sample, config)
            np.testing.assert_array_equal(vec.values, 0.0)
            assert vec.channel_fits[0].error == "ValueError: not a sigfit error"


@pytest.fixture
def fit_series_calls(monkeypatch):
    """The arguments of every ``solver.fit_series`` call the test makes."""
    calls = []
    fit_series = solver.fit_series

    def counting(*args, **kwargs):
        calls.append(args)
        return fit_series(*args, **kwargs)

    monkeypatch.setattr(solver, "fit_series", counting)
    return calls


class TestPerSegmentMode:
    def test_default_segment_mode_length_matches(self, small_dataset):
        config = pipeline.PipelineConfig(per_segment_fit=True)
        vec = pipeline.preprocess_sample(small_dataset[1], config)
        assert len(vec) == 231
        assert all(family.startswith("segmented-") for _, family, _ in vec.layout)

    def test_segment_count_sets_width(self, small_dataset):
        config = pipeline.PipelineConfig(per_segment_fit=True, n_segments=5)
        vec = pipeline.preprocess_sample(small_dataset[1], config)
        assert len(vec) == 7 * 15

    @pytest.mark.parametrize("per_segment_fit", [False, True])
    def test_layout_families_match_the_channel_fits(self, small_dataset, per_segment_fit):
        config = dataclasses.replace(
            TINY, channels=(1, 3), timestamp_channel=3, per_segment_fit=per_segment_fit
        )
        vec = pipeline.preprocess_sample(small_dataset[1], config)
        assert not any(cf.error for cf in vec.channel_fits)
        assert [f for _, f, _ in config.layout()] == [cf.family for cf in vec.channel_fits]
        blocks = pipeline.vectors_to_json([vec])[0]["blocks"]
        assert [b["family"] for b in blocks] == [cf.family for cf in vec.channel_fits]

    def test_timestamp_parts_fit_the_configured_degree(self, small_dataset):
        blocks = {}
        for degree in (1, 2):
            config = pipeline.PipelineConfig(
                channels=(3,), timestamp_channel=3, timestamp_degree=degree,
                per_segment_fit=True, n_segments=4,
            )
            vec = pipeline.preprocess_sample(small_dataset[0], config)
            assert vec.channel_fits[0].error is None
            blocks[degree] = vec.blocks[0].reshape(4, 3)
        # descending coefficients: a line leaves the third slot zero, a parabola fills it
        np.testing.assert_array_equal(blocks[1][:, 2], 0.0)
        assert np.all(blocks[2][:, 2] != 0.0)

    def test_a_channel_too_short_for_its_parts_fits_none_of_them(self, fit_series_calls):
        # 7 points in 4 parts: three parts of 2 that a degree-0 polynomial fits, then one of 1
        config = pipeline.PipelineConfig(
            channels=(3,), timestamp_channel=3, timestamp_degree=0,
            per_segment_fit=True, n_segments=4,
        )
        vec = pipeline.preprocess_sample(_sample_from_channel(np.arange(7.0)), config)
        assert vec.channel_fits[0].error == (
            "SigfitError: 7 points cannot be split into 4 parts of >= 2"
        )
        assert fit_series_calls == []

    def test_parts_too_short_to_seed_a_sine_fit_none_of_them(self, fit_series_calls):
        # 60 points in 11 parts: five of 6, which seed one sine term, then six of 5
        values = 5000.0 + 800.0 * np.sin(0.13 * np.arange(60.0))
        config = dataclasses.replace(TINY, per_segment_fit=True)
        vec = pipeline.preprocess_sample(_sample_from_channel(values), config)
        assert vec.channel_fits[0].error == (
            "SigfitError: 60 points cannot be split into 11 parts of >= 6"
        )
        assert fit_series_calls == []

    @pytest.mark.parametrize("degree", [0, 1])
    def test_timestamp_rmse_counts_each_parts_own_parameters(self, small_dataset, degree):
        config = pipeline.PipelineConfig(
            channels=(3,), timestamp_channel=3, timestamp_degree=degree, per_segment_fit=True
        )
        fit = pipeline.preprocess_sample(small_dataset[0], config).channel_fits[0]
        y = ingest.extract_channel(small_dataset[0], 3).ordinate.astype(float)
        sse = (1.0 - fit.r_squared) * np.sum((y - y.mean()) ** 2)
        dof = len(y) - config.n_segments * (degree + 1)
        assert fit.rmse == pytest.approx(np.sqrt(sse / dof), rel=1e-8)

    @pytest.mark.parametrize("per_segment_fit", [False, True])
    def test_channel_fit_counts_the_evaluations_of_its_fits(
        self, small_dataset, monkeypatch, per_segment_fit
    ):
        results = []
        fit_series = solver.fit_series

        def recording(*args, **kwargs):
            results.append(fit_series(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(solver, "fit_series", recording)
        config = dataclasses.replace(TINY, per_segment_fit=per_segment_fit)
        fit = pipeline.preprocess_sample(small_dataset[1], config).channel_fits[0]
        assert fit.error is None
        assert len(results) == (config.n_segments if per_segment_fit else 1)
        assert fit.evaluations == sum(r.evaluations for r in results) > len(results)
        assert fit.to_dict()["evaluations"] == fit.evaluations
        if not per_segment_fit:
            series = ingest.extract_channel(small_dataset[1], 1)
            alone = fit_series(series, "sum-of-sines", TINY.n_terms, TINY.solver)
            assert fit.evaluations == alone.evaluations

    @pytest.mark.parametrize("per_segment_fit", [False, True])
    def test_each_channel_is_scored_once_by_gof_report(
        self, small_dataset, monkeypatch, per_segment_fit
    ):
        reports = []
        gof_report = gof.gof_report

        def recording(*args, **kwargs):
            reports.append(gof_report(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(gof, "gof_report", recording)
        config = dataclasses.replace(
            TINY, channels=(1, 3), timestamp_channel=3, per_segment_fit=per_segment_fit
        )
        batch = pipeline.uniformize_dataset(small_dataset[1:2], config)
        channels = batch.report["samples"][0]["channels"]
        assert [c["error"] for c in channels] == [None, None]
        assert len(reports) == len(channels)
        for entry, report in zip(channels, reports):
            assert (entry["r_squared"], entry["rmse"]) == (report.r_squared, report.rmse)

    def test_segmented_fit_quality_reported(self, small_dataset):
        config = pipeline.PipelineConfig(per_segment_fit=True, channels=(1,),
                                         timestamp_channel=None)
        vec = pipeline.preprocess_sample(small_dataset[1], config)
        # eleven single-term local fits on ten-tone content: coarse but real
        assert vec.channel_fits[0].r_squared > 0.5
        assert vec.channel_fits[0].rmse > 0


class TestUniformizeDataset:
    def test_batch_uniformity_and_report(self, small_dataset):
        subset = small_dataset[:3]
        config = pipeline.PipelineConfig(n_terms=3, channels=(1, 3), solver=solver.SolverConfig(max_iterations=80))
        batch = pipeline.uniformize_dataset(subset, config)
        lengths = {len(v) for v in batch.vectors}
        assert lengths == {2 * 9}
        assert batch.report["n_vectors"] == 3
        assert len(batch.report["samples"]) == 3
        entry = batch.report["samples"][0]
        assert {"user_id", "sample_index", "label", "channels", "failed_channels"} <= set(entry)

    def test_report_counts_how_each_channels_fits_ended(self, small_dataset):
        config = pipeline.PipelineConfig(n_terms=3, channels=(1, 2, 3))
        batch = pipeline.uniformize_dataset(small_dataset[:4], config)
        counts = {"1": Counter(), "2": Counter(), "3": Counter()}
        for vec in batch.vectors:
            for cf in vec.channel_fits:
                counts[str(cf.channel)][cf.termination] += 1
        terminations = batch.report["terminations"]
        assert terminations == {c: dict(sorted(n.items())) for c, n in counts.items()}
        assert list(terminations) == ["1", "2", "3"]
        assert any(n.get(solver.STALLED) for n in terminations.values())
        assert json.loads(json.dumps(batch.report))["terminations"] == terminations

    def test_empty_input(self):
        batch = pipeline.uniformize_dataset([])
        assert batch.vectors == []
        assert batch.report["n_samples"] == 0

    def test_order_is_deterministic(self, small_dataset):
        subset = [small_dataset[41], small_dataset[0], small_dataset[40]]
        config = pipeline.PipelineConfig(n_terms=2, channels=(3,), timestamp_channel=3)
        batch = pipeline.uniformize_dataset(subset, config)
        keys = [(v.user_id, v.sample_index) for v in batch.vectors]
        assert keys == [("1", 1), ("2", 1), ("2", 2)]

    def test_parallel_matches_serial(self, small_dataset):
        subset = small_dataset[:5]  # two chunks of at most 4, so two workers
        config = pipeline.PipelineConfig(n_terms=2, channels=(1, 2), timestamp_channel=None)
        serial = pipeline.uniformize_dataset(subset, config, jobs=1)
        parallel = pipeline.uniformize_dataset(subset, config, jobs=2)
        for a, b in zip(serial.vectors, parallel.vectors):
            np.testing.assert_array_equal(a.values, b.values)


def _threads_as_user_id(sample, config):
    """preprocess_sample that reports the BLAS thread count it ran with."""
    vec = _preprocess_sample(sample, config)
    return dataclasses.replace(vec, user_id=str(_blas.get_threads()))


def _raise_in_fit(sample, config):
    raise RuntimeError("fit exploded")


@pytest.fixture
def two_blas_threads():
    """The caller runs 2 BLAS threads, so a leaked 1 would show."""
    before = _blas.get_threads()
    if before is None:
        pytest.skip("numpy's OpenBLAS exposes no thread control")
    _blas.set_threads(2)
    yield
    _blas.set_threads(before)


class TestBlasThreads:
    def test_serial_fits_on_one_thread_and_restores(self, two_blas_threads, monkeypatch,
                                                     small_dataset):
        monkeypatch.setattr(pipeline, "preprocess_sample", _threads_as_user_id)
        batch = pipeline.uniformize_dataset(small_dataset[:2], TINY, jobs=1)
        assert [v.user_id for v in batch.vectors] == ["1", "1"]
        assert (batch.report["blas_threads"], batch.report["jobs"]) == (1, 1)
        assert _blas.get_threads() == 2

    @needs_fork
    def test_pool_fits_on_one_thread_and_restores(self, two_blas_threads, monkeypatch,
                                                   small_dataset):
        monkeypatch.setattr(pipeline, "preprocess_sample", _threads_as_user_id)
        batch = pipeline.uniformize_dataset(small_dataset[:5], TINY, jobs=2)
        assert [v.user_id for v in batch.vectors] == ["1"] * 5
        assert (batch.report["blas_threads"], batch.report["jobs"]) == (1, 2)
        assert _blas.get_threads() == 2

    @pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=needs_fork)])
    def test_restored_when_a_fit_raises(self, two_blas_threads, monkeypatch, small_dataset,
                                        jobs):
        monkeypatch.setattr(pipeline, "preprocess_sample", _raise_in_fit)
        with pytest.raises(RuntimeError, match="fit exploded"):
            pipeline.uniformize_dataset(small_dataset[:5], TINY, jobs=jobs)
        assert _blas.get_threads() == 2

    def test_without_thread_control_still_fits(self, monkeypatch, small_dataset):
        subset = small_dataset[:5]
        expected = pipeline.uniformize_dataset(subset, TINY, jobs=1)
        monkeypatch.setattr(_blas, "_controls", lambda: None)
        for jobs in (1, 2):
            batch = pipeline.uniformize_dataset(subset, TINY, jobs=jobs)
            assert batch.report["blas_threads"] is None
            for a, b in zip(expected.vectors, batch.vectors):
                np.testing.assert_array_equal(a.values, b.values)

    def test_one_sample_runs_serially(self, small_dataset):
        batch = pipeline.uniformize_dataset(small_dataset[:1], TINY, jobs=4)
        assert batch.report["jobs"] == 1

    def test_no_more_workers_than_chunks(self, monkeypatch, small_dataset):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", no_pool)
        # 3 samples make one chunk of 4: one worker, so no pool at all
        batch = pipeline.uniformize_dataset(small_dataset[:3], TINY, jobs=8)
        assert (batch.report["jobs"], batch.report["n_vectors"]) == (1, 3)


class TestVectorSerialization:
    def test_csv_shape_and_precision(self, small_dataset):
        config = pipeline.PipelineConfig(n_terms=2, channels=(1,), timestamp_channel=None)
        batch = pipeline.uniformize_dataset(small_dataset[:2], config)
        text = pipeline.vectors_to_csv(batch.vectors, config)
        lines = text.strip().splitlines()
        header = lines[0].split(",")
        assert header[:3] == ["user_id", "sample_index", "label"]
        assert len(header) == 3 + 6
        row = lines[1].split(",")
        value = float(row[3])
        assert f"{value:.17g}" == row[3]  # round-trip exact

    def test_json_blocks(self, small_dataset):
        config = pipeline.PipelineConfig(n_terms=2, channels=(1, 2), timestamp_channel=None)
        batch = pipeline.uniformize_dataset(small_dataset[:1], config)
        payload = pipeline.vectors_to_json(batch.vectors)
        assert len(payload) == 1
        blocks = payload[0]["blocks"]
        assert [b["channel"] for b in blocks] == [1, 2]
        assert all(len(b["coefficients"]) == 6 for b in blocks)


class TestConfigValidation:
    def test_timestamp_channel_must_be_in_channels(self):
        config = pipeline.PipelineConfig(channels=(1, 2), timestamp_channel=3)
        with pytest.raises(SigfitError):
            config.validate()

    @pytest.mark.parametrize("config", [
        pipeline.PipelineConfig(solver=solver.SolverConfig(max_iterations=0)),
        pipeline.PipelineConfig(solver=solver.SolverConfig(algorithm="nope")),
        pipeline.PipelineConfig(timestamp_degree=-1),
        pipeline.PipelineConfig(n_terms=1, timestamp_degree=3),
        pipeline.PipelineConfig(n_terms=2, timestamp_degree=40),
        pipeline.PipelineConfig(per_segment_fit=True, timestamp_degree=3),
    ], ids=["max-iterations", "algorithm", "timestamp-degree", "degree-over-terms",
            "degree-over-block", "degree-over-part"])
    def test_out_of_range_settings_are_refused(self, config):
        with pytest.raises(SigfitError):
            config.validate()

    @pytest.mark.parametrize("config", [
        pipeline.PipelineConfig(n_terms=1, timestamp_degree=2),
        pipeline.PipelineConfig(per_segment_fit=True, timestamp_degree=2),
    ], ids=["whole-channel", "per-segment"])
    def test_a_timestamp_degree_that_fills_its_block_fits(self, config):
        config.validate()

    def test_disabled_timestamp_is_fine(self, small_dataset):
        config = pipeline.PipelineConfig(channels=(1, 2), timestamp_channel=None, n_terms=2)
        vec = pipeline.preprocess_sample(small_dataset[0], config)
        assert len(vec) == 12
