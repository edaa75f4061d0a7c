import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sigfit import ingest, models, selection, solver, synth
from sigfit.errors import LengthMismatchError, SegmentTooSmallError
from tests.conftest import make_series


def _series_of_length(n):
    x = np.arange(float(n))
    return make_series(x, np.sin(0.2 * x) + 0.01 * x)


class TestSegment:
    def test_220_points_make_11_segments(self):
        segments = selection.segment(_series_of_length(220), 20)
        assert len(segments) == 11
        assert all(len(seg) == 20 for seg in segments)
        assert all(isinstance(seg, ingest.ChannelSeries) for seg in segments)

    def test_exact_single_segment(self):
        segments = selection.segment(_series_of_length(20), 20)
        assert len(segments) == 1
        assert len(segments[0]) == 20

    def test_short_tail_segment(self):
        segments = selection.segment(_series_of_length(205), 20)
        assert len(segments) == 11
        assert len(segments[-1]) == 5

    def test_orphan_point_joins_last_segment(self):
        segments = selection.segment(_series_of_length(41), 20)
        assert [len(seg) for seg in segments] == [20, 21]

    def test_too_small(self):
        with pytest.raises(SegmentTooSmallError):
            selection.segment(_series_of_length(50), 1)
        with pytest.raises(SegmentTooSmallError):
            selection.segment(_series_of_length(1), 20)

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(min_value=2, max_value=500), size=st.integers(min_value=2, max_value=60))
    def test_concatenation_identity(self, n, size):
        series = _series_of_length(n)
        segments = selection.segment(series, size)
        rebuilt = np.concatenate([seg.ordinate for seg in segments])
        np.testing.assert_array_equal(rebuilt, series.ordinate)
        assert all(len(seg) >= 2 for seg in segments)
        expected = int(np.ceil(n / size)) - (1 if n % size == 1 and n > size else 0)
        assert len(segments) == expected


class TestAreaBetween:
    def test_identical_curves(self):
        seg = selection.segment(_series_of_length(20), 20)[0]
        assert selection.area_between(seg, seg.ordinate, seg.ordinate) == 0.0

    def test_constant_offset_rectangle(self):
        # offset c over uniform spacing dx: area = c * n * dx under the
        # first-interval-uses-following-gap convention
        x = np.arange(0.0, 20.0, 2.0)
        seg = ingest.ChannelSeries(x, np.zeros(10))
        area = selection.area_between(seg, np.zeros(10), np.full(10, 3.0))
        assert area == pytest.approx(3.0 * 10 * 2.0)

    def test_matches_quadrature_oracle(self):
        # dense trapezoid integration of the piecewise-linear interpolants
        x = np.linspace(0.0, 30.0, 400)
        f = 3.0 * np.sin(0.7 * x) + 0.2 * x
        g = 0.05 * (x - 15.0) ** 2 - 2.0
        seg = ingest.ChannelSeries(x, f)
        area = selection.area_between(seg, f, g)
        fine = np.linspace(x[0], x[-1], 40_001)
        oracle = np.trapezoid(np.abs(np.interp(fine, x, f) - np.interp(fine, x, g)), fine)
        assert area == pytest.approx(oracle, rel=0.02)

    def test_non_negative(self):
        rng = np.random.default_rng(0)
        x = np.arange(25.0)
        seg = ingest.ChannelSeries(x, rng.normal(size=25))
        assert selection.area_between(seg, seg.ordinate, rng.normal(size=25)) >= 0.0

    def test_length_mismatch(self):
        seg = selection.segment(_series_of_length(20), 20)[0]
        with pytest.raises(LengthMismatchError):
            selection.area_between(seg, seg.ordinate, np.zeros(5))


class TestRankFamilies:
    def test_exact_candidate_wins_with_zero_area(self):
        # generic candidates fit their one-term form per segment, so a line
        # is exactly representable by the polynomial candidate
        x = np.arange(100.0)
        y = 2.0 * x + 40.0
        series = make_series(x, y)
        rankings = selection.rank_families(series, ("polynomial", "exponential"), 20)
        assert rankings[0][0] == "polynomial"
        assert rankings[0][1].total <= 1e-6 * np.abs(y).sum()

    def test_candidate_order_does_not_matter(self, reference_series):
        forward = selection.rank_families(reference_series, ("sinusoidal", "parabolic"), 20)
        backward = selection.rank_families(reference_series, ("parabolic", "sinusoidal"), 20)
        assert [f for f, _ in forward] == [f for f, _ in backward]
        for (_, a), (_, b) in zip(forward, backward):
            assert a.total == pytest.approx(b.total, rel=1e-12)

    def test_total_is_sum_of_segments(self, reference_series):
        rankings = selection.rank_families(reference_series, ("sinusoidal",), 20)
        report = rankings[0][1]
        assert report.total == sum(report.per_segment)
        assert all(a >= 0 for a in report.per_segment)

    def test_failed_candidate_excluded_with_warning(self, reference_series, caplog):
        rankings = selection.rank_families(
            reference_series, ("parabolic", "no-such-family"), 20
        )
        assert [f for f, _ in rankings] == ["parabolic"]
        assert any("no-such-family" in rec.getMessage() for rec in caplog.records)

    def test_reference_channel_table_ordering(self, reference_series):
        rankings = selection.rank_families(reference_series)
        assert [f for f, _ in rankings] == ["sinusoidal", "parabolic", "exponential"]

    def test_winner_stable_under_refinement(self, reference_series):
        at_20 = selection.rank_families(reference_series, segment_size=20)
        at_10 = selection.rank_families(reference_series, segment_size=10)
        assert at_20[0][0] == at_10[0][0] == "sinusoidal"

    def test_fitted_exponential_mode(self):
        x = np.arange(60.0)
        y = 5.0 * np.exp(0.03 * x)
        series = make_series(x, y)
        totals = dict(selection.rank_families(series, ("exponential", "scaled-exponential"), 20))
        assert totals["scaled-exponential"].total < totals["exponential"].total

    def test_csv_mirrors_ranking(self, reference_series):
        rankings = selection.rank_families(reference_series)
        text = selection.ranking_csv(rankings)
        lines = text.strip().splitlines()
        assert lines[0] == "family,equation,total_area"
        assert lines[1].startswith("sinusoidal,")
        areas = [float(line.rsplit(",", 1)[1]) for line in lines[1:]]
        assert areas == sorted(areas)


class TestProjectedSine:
    def _model(self, w, y):
        return selection._ProjectedSine(w, np.asarray(y, dtype=float))

    def test_jacobian_equals_central_differences_on_exact_data(self):
        # Kaufman's Jacobian drops a term that vanishes with the residual
        x = np.linspace(0.0, 1.0, 20)
        for w in (0.7, 3.1, 11.0):
            model = self._model(w, 1.3 * np.sin(w * x) - 0.4 * np.cos(w * x))
            v = model.param_vector()
            assert np.abs(model.eval_vec(v, x) - model.y).max() <= 1e-12
            h = 1e-6 * w
            fd = (model.eval_vec(v + h, x) - model.eval_vec(v - h, x)) / (2 * h)
            np.testing.assert_allclose(model.jac_vec(v, x)[:, 0], fd, rtol=1e-6, atol=1e-8)

    def test_jf_is_the_half_gradient_of_chi2_at_any_w(self):
        rng = np.random.default_rng(4)
        x = np.linspace(0.0, 1.0, 20)
        model = self._model(2.0, rng.normal(size=20))
        for w in (0.3, 2.0, 7.5):
            v = np.array([w])
            residual = model.eval_vec(v, x) - model.y
            h = 1e-4 * w
            chi2 = [float(r @ r) for r in (model.eval_vec(v + s * h, x) - model.y for s in (1, -1))]
            half_gradient = (chi2[0] - chi2[1]) / (4 * h)
            assert model.jac_vec(v, x)[:, 0] @ residual == pytest.approx(half_gradient, rel=1e-6)

    def test_a_singular_system_is_non_finite_without_a_warning(self):
        # at w = 0 the sine column is zero; RuntimeWarning is an error in this suite
        model = self._model(0.0, [1.0, 2.0, 4.0])
        x = np.array([0.0, 0.5, 1.0])
        assert not np.isfinite(model.eval_vec(np.zeros(1), x)).any()
        assert not np.isfinite(model.jac_vec(np.zeros(1), x)).any()


def test_projected_fit_is_no_worse_than_the_three_parameter_fit():
    # each sinusoidal reference against solver.fit of the one-term sum of
    # sines from the same start; exact fits of 3 points differ at round-off
    config = solver.SolverConfig(max_iterations=100)
    samples = synth.generate_samples(n_users=1, seed=17, genuine=1, forged=1)
    fits = 0
    for sample in samples:
        for channel in range(1, ingest.N_CHANNELS + 1):
            for seg in selection.segment(ingest.extract_channel(sample, channel), 20):
                unit = seg.on_unit_interval()
                y = unit.ordinate
                if len(seg) >= 6:
                    start = models.initial_guess("sum-of-sines", unit, 1)
                elif len(seg) >= 3:
                    start = models.SumOfSines(((float(np.mean(y)), 1e-3, np.pi / 2.0),))
                else:
                    continue
                three = solver.fit(solver.FitProblem(unit, start), config).chi2
                g = selection.reference_curve("sinusoidal", seg)
                projected = float((g - y) @ (g - y))
                assert projected <= three * (1.0 + 1e-3) + 1e-12 * float(y @ y)
                fits += 1
    assert fits == 273


@pytest.mark.parametrize("n", [41, 42, 43, 45, 46])
def test_short_tail_segments_rank_all_three_candidates(n):
    # tails of 21 (orphan merged), 2 (level sine kept), 3 and 5 (level-sine start), 6 points
    rankings = selection.rank_families(_series_of_length(n))
    assert {f for f, _ in rankings} == set(selection.TABLE_CANDIDATES)
    assert all(np.isfinite(report.total) for _, report in rankings)


def test_a_tail_too_short_to_seed_joins_the_segment_before():
    # U7S5 of the 12-user synth set: 286 points leave a tail of 6, under the
    # 8 points that weibull or a one-term fourier needs to seed
    sample = synth.generate_samples(n_users=7, genuine=5, forged=0)[-1]
    assert (sample.user_id, sample.sample_index, sample.n_points) == ("7", 5, 286)
    candidates = selection.TABLE_CANDIDATES + ("weibull", "fourier", "polynomial")
    for channel in range(1, ingest.N_CHANNELS + 1):
        series = ingest.extract_channel(sample, channel)
        rankings = dict(selection.rank_families(series, candidates))
        assert set(rankings) == set(candidates)
        assert [len(rankings[f].per_segment) for f in candidates] == [15, 15, 15, 14, 14, 15]
        assert all(np.isfinite(report.total) for report in rankings.values())
    # one segment has none before it to join: the candidate is excluded
    rankings = selection.rank_families(_series_of_length(6), ("weibull", "parabolic"))
    assert [f for f, _ in rankings] == ["parabolic"]


def test_every_rank_candidate_has_an_equation_label():
    names = set(selection.TABLE_CANDIDATES) | set(models.FAMILIES)
    assert sorted(names - set(selection.EQUATION_LABELS)) == []
    assert all(label != family for family, label in selection.EQUATION_LABELS.items())


def test_reference_curve_shapes(reference_series):
    seg = selection.segment(reference_series, 20)[3]
    for candidate in ("sinusoidal", "parabolic", "exponential", "sine"):
        g = selection.reference_curve(candidate, seg)
        assert g.shape == (len(seg),)
        assert np.all(np.isfinite(g))
    exp_curve = selection.reference_curve("exponential", seg)
    np.testing.assert_allclose(exp_curve, np.exp(seg.on_unit_interval().abscissa))
