import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sigfit import gof, models, solver
from sigfit.errors import TooFewPointsError
from tests.conftest import make_series


def test_perfect_fit():
    x = np.arange(20.0)
    params = models.Polynomial((1.0, -3.0, 2.0))
    report = gof.gof_report(make_series(x, models.evaluate(params, x)), params)
    assert report.sse == 0.0
    assert report.r_squared == 1.0
    assert report.rmse == 0.0


def test_two_point_hand_computation():
    # y=[0,1] against f=[0,0]: SSE=1, SST=0.5, R^2=-1
    report = gof.gof_report(make_series([0.0, 1.0], [0.0, 1.0]), models.Polynomial((0.0,)))
    assert report.sse == pytest.approx(1.0)
    assert report.r_squared == pytest.approx(-1.0)


def test_constant_model_r_squared_is_exactly_zero():
    rng = np.random.default_rng(4)
    y = rng.normal(10.0, 3.0, 50)
    series = make_series(np.arange(50.0), y)
    report = gof.gof_report(series, models.Polynomial((float(np.mean(y)),)))
    assert report.r_squared == 0.0


def test_fit_worse_than_mean_gives_negative_r_squared():
    x = np.arange(40.0)
    y = 100.0 + 50.0 * np.sin(0.5 * x)
    # a straight line far from the data
    report = gof.gof_report(make_series(x, y), models.Polynomial((10.0, -500.0)))
    assert report.r_squared < 0.0


def test_dof_identity_and_adjusted_relation():
    rng = np.random.default_rng(5)
    for n, degree in [(30, 2), (100, 5), (12, 1), (250, 8)]:
        x = np.linspace(0.0, 4.0, n)
        y = rng.normal(0.0, 1.0, n) + x
        series = make_series(x, y)
        result = solver.fit(
            solver.FitProblem(series, models.initial_guess("polynomial", series, degree))
        )
        report = gof.gof_report(series, result.params)
        p = degree + 1
        assert abs(report.sse / report.rmse**2 - (n - p)) <= 1e-9 * (n - p)
        if n > p + 1:
            assert report.adjusted_r_squared <= report.r_squared


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=5, max_value=120),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_dof_identity_property(n, seed):
    rng = np.random.default_rng(seed)
    x = np.arange(float(n))
    y = rng.normal(size=n)
    series = make_series(x, y)
    params = models.Polynomial((float(rng.normal()), float(rng.normal())))
    report = gof.gof_report(series, params)
    assert abs(report.sse / report.rmse**2 - (n - 2)) <= 1e-9 * (n - 2)
    assert report.sse >= 0.0
    assert report.rmse >= 0.0
    assert report.r_squared <= 1.0


def test_degenerate_variance_flag():
    series = make_series(np.arange(10.0), np.full(10, 3.0))
    report = gof.gof_report(series, models.Polynomial((1.0, 0.0)))
    assert report.degenerate_variance
    assert np.isnan(report.r_squared)
    assert np.isnan(report.adjusted_r_squared)
    assert report.rmse > 0.0


def test_needs_more_points_than_params():
    series = make_series([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(TooFewPointsError):
        gof.gof_report(series, models.Polynomial((1.0, 0.0)))


def test_fit_statistics_match_the_report():
    rng = np.random.default_rng(8)
    x = np.arange(30.0)
    y = 2.0 * x + rng.normal(0.0, 1.5, 30)
    params = models.Polynomial((1.9, 0.3))
    report = gof.gof_report(make_series(x, y), params)
    sse, _, r2, rmse = gof.fit_statistics(y, models.evaluate(params, x), params.n_params)
    assert (sse, r2, rmse) == (report.sse, report.r_squared, report.rmse)


def test_fit_statistics_without_spare_points():
    # stitched per-part fits may use every point: R^2 stays, RMSE has no dof
    y = np.array([1.0, 3.0, 2.0, 5.0])
    f = np.array([1.5, 2.5, 2.5, 4.5])
    sse, sst, r2, rmse = gof.fit_statistics(y, f, 4)
    assert (sse, sst) == (1.0, 8.75)
    assert r2 == 1.0 - 1.0 / 8.75
    assert np.isnan(rmse)
    assert np.isnan(gof.fit_statistics(np.full(4, 2.0), f, 2)[2])  # SST = 0
