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


def _ranking_with_one_fit_per_segment(series, segment_size):
    """The table ranking, each sinusoidal reference fitted alone by solver.fit."""
    config = solver.SolverConfig(max_iterations=100)
    reports = []
    for candidate in selection.TABLE_CANDIDATES:
        areas = []
        for seg in selection.segment(series, segment_size):
            part = seg.on_unit_interval()
            if candidate != "sinusoidal":
                g = selection.reference_curve(candidate, seg)
            else:
                if len(seg) >= 6:
                    params = models.initial_guess("sum-of-sines", part, 1)
                else:
                    params = models.SumOfSines(((float(np.mean(seg.ordinate)), 1e-3, np.pi / 2.0),))
                if len(seg) >= 3:
                    params = solver.fit(solver.FitProblem(part, params), config).params
                g = models.evaluate(params, part.abscissa)
            areas.append(selection.area_between(seg, seg.ordinate, g))
        reports.append((candidate, selection.AreaReport(candidate, tuple(areas), sum(areas))))
    return sorted(reports, key=lambda item: item[1].total)


def test_lockstep_ranking_equals_one_fit_per_segment():
    samples = synth.generate_samples(n_users=1, seed=17, genuine=1, forged=1)
    for sample in samples:
        for channel in range(1, ingest.N_CHANNELS + 1):
            series = ingest.extract_channel(sample, channel)
            got = selection.ranking_csv(selection.rank_families(series))
            assert got == selection.ranking_csv(_ranking_with_one_fit_per_segment(series, 20))


@pytest.mark.parametrize("n", [41, 42, 43, 45, 46])
def test_lockstep_ranking_with_short_tail_segments(n):
    # tails of 21 (orphan merged), 2 (start kept), 3 and 5 (level-sine start), 6 points
    series = _series_of_length(n)
    got = selection.ranking_csv(selection.rank_families(series))
    assert got == selection.ranking_csv(_ranking_with_one_fit_per_segment(series, 20))


def test_reference_curve_shapes(reference_series):
    seg = selection.segment(reference_series, 20)[3]
    for candidate in ("sinusoidal", "parabolic", "exponential", "sine"):
        g = selection.reference_curve(candidate, seg)
        assert g.shape == (len(seg),)
        assert np.all(np.isfinite(g))
    exp_curve = selection.reference_curve("exponential", seg)
    np.testing.assert_allclose(exp_curve, np.exp(seg.on_unit_interval().abscissa))
