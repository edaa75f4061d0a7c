import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sigfit import gof, models, solver
from sigfit.errors import LengthMismatchError
from tests.conftest import make_series


def params_report(x, y, params):
    """The report of ``params`` fitted to (x, y)."""
    return gof.gof_report(y, models.evaluate(params, np.asarray(x, dtype=float)), params.n_params)


def test_perfect_fit():
    x = np.arange(20.0)
    params = models.Polynomial((1.0, -3.0, 2.0))
    report = params_report(x, models.evaluate(params, x), params)
    assert report.sse == 0.0
    assert report.r_squared == 1.0
    assert report.rmse == 0.0


def test_two_point_hand_computation():
    # y=[0,1] against f=[0,0]: SSE=1, SST=0.5, R^2=-1
    report = params_report([0.0, 1.0], [0.0, 1.0], models.Polynomial((0.0,)))
    assert report.sse == pytest.approx(1.0)
    assert report.r_squared == pytest.approx(-1.0)


def test_constant_model_r_squared_is_exactly_zero():
    rng = np.random.default_rng(4)
    y = rng.normal(10.0, 3.0, 50)
    report = params_report(np.arange(50.0), y, models.Polynomial((float(np.mean(y)),)))
    assert report.r_squared == 0.0


def test_fit_worse_than_mean_gives_negative_r_squared():
    x = np.arange(40.0)
    y = 100.0 + 50.0 * np.sin(0.5 * x)
    # a straight line far from the data
    report = params_report(x, y, models.Polynomial((10.0, -500.0)))
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
        report = params_report(x, y, result.params)
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
    params = models.Polynomial((float(rng.normal()), float(rng.normal())))
    report = params_report(x, y, params)
    assert abs(report.sse / report.rmse**2 - (n - 2)) <= 1e-9 * (n - 2)
    assert report.sse >= 0.0
    assert report.rmse >= 0.0
    assert report.r_squared <= 1.0


def test_degenerate_variance_flag():
    report = params_report(np.arange(10.0), np.full(10, 3.0), models.Polynomial((1.0, 0.0)))
    assert report.degenerate_variance
    assert np.isnan(report.r_squared)
    assert np.isnan(report.adjusted_r_squared)
    assert report.rmse > 0.0


def test_needs_more_points_than_params():
    # N <= P is not an error: RMSE and adjusted R^2, which need N - P > 0, are NaN
    for n, params in [(2, models.Polynomial((1.0, 0.0))), (1, models.Polynomial((2.0,)))]:
        report = params_report(np.arange(float(n)), np.arange(float(n)), params)
        assert np.isnan(report.rmse)
        assert np.isnan(report.adjusted_r_squared)
        assert (report.to_dict()["rmse"], report.to_dict()["adjusted_r_squared"]) == (None, None)


def test_stitched_predictions_without_spare_points():
    # stitched per-part fits may use every point: R^2 stays, RMSE has no dof
    y = np.array([1.0, 3.0, 2.0, 5.0])
    f = np.array([1.5, 2.5, 2.5, 4.5])
    report = gof.gof_report(y, f, 4)
    assert report.sse == 1.0
    assert report.r_squared == 1.0 - 1.0 / 8.75  # SST = 8.75
    assert np.isnan(report.rmse)
    assert np.isnan(report.adjusted_r_squared)
    assert np.isnan(gof.gof_report(np.full(4, 2.0), f, 2).r_squared)  # SST = 0


def test_lengths_must_match():
    with pytest.raises(LengthMismatchError):
        gof.gof_report(np.zeros(4), np.zeros(3), 1)

