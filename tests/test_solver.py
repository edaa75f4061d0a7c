from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sigfit import _kernels, models, solver
from sigfit.errors import (
    InvalidParamsError,
    LengthMismatchError,
    NonFiniteValueError,
    TooFewPointsError,
)
from tests.conftest import make_series


def _sse(series, params):
    r = models.evaluate(params, series.abscissa) - np.asarray(series.ordinate, dtype=float)
    return float(r @ r)


def _sse_gradient(series, params):
    """2 J'(f - y): the gradient of the SSE, from the model's Jacobian."""
    f = models.evaluate(params, series.abscissa)
    jac = models.jacobian(params, series.abscissa)
    return 2.0 * (jac.T @ (f - np.asarray(series.ordinate, dtype=float)))


class TestChiSquare:
    # a fit's trace starts at the chi-square of its start: the SSE
    def test_perfect_fit_is_zero(self):
        x = np.arange(10.0)
        params = models.Polynomial((2.0, 1.0))
        series = make_series(x, models.evaluate(params, x))
        assert solver.fit(solver.FitProblem(series, params)).trace[0] == 0.0

    def test_hand_sum(self):
        series = make_series([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        result = solver.fit(solver.FitProblem(series, models.Polynomial((1.0,))))
        assert result.trace[0] == pytest.approx(5.0)

    def test_length_mismatch(self):
        # any object with .abscissa and .ordinate is a series; these two disagree
        series = SimpleNamespace(abscissa=np.arange(3.0), ordinate=np.array([1.0, 2.0]))
        with pytest.raises(LengthMismatchError):
            solver.fit(solver.FitProblem(series, models.Polynomial((1.0,))))


class TestChiSquareGradient:
    def test_zero_at_exact_interpolant(self):
        x = np.arange(12.0)
        params = models.Polynomial((0.5, -1.0, 2.0))
        series = make_series(x, models.evaluate(params, x))
        np.testing.assert_allclose(_sse_gradient(series, params), 0.0, atol=1e-9)

    def test_linear_model_closed_form(self):
        # data y = 2x, model a*x + b: gradient at (2, 0) vanishes; away from
        # the optimum it is -2 * sum(residual * [x, 1])
        x = np.arange(1.0, 6.0)
        series = make_series(x, 2.0 * x)
        at_truth = _sse_gradient(series, models.Polynomial((2.0, 0.0)))
        np.testing.assert_allclose(at_truth, 0.0, atol=1e-10)
        off = _sse_gradient(series, models.Polynomial((0.5, 0.0)))
        np.testing.assert_allclose(off, [-2.0 * np.sum(1.5 * x * x), -2.0 * np.sum(1.5 * x)])

    def test_matches_finite_differences(self):
        # central differences of the SSE itself as the oracle
        rng = np.random.default_rng(3)
        x = np.linspace(0.0, 10.0, 40)
        series = make_series(x, rng.normal(2.0, 1.0, 40))
        for _ in range(20):
            params = models.SumOfSines(
                tuple((rng.uniform(0.5, 2), rng.uniform(0.2, 1), rng.uniform(-2, 2))
                      for _ in range(2))
            )
            grad = _sse_gradient(series, params)
            vec = params.param_vector()
            for i in range(len(vec)):
                h = 1e-6 * max(abs(vec[i]), 1.0)
                up, down = vec.copy(), vec.copy()
                up[i] += h
                down[i] -= h
                fd = (
                    _sse(series, params.with_vector(up)) - _sse(series, params.with_vector(down))
                ) / (2 * h)
                assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-8)


class TestScaledNormalSystem:
    # every algorithm solves in the variables z = s*d, s = sqrt(diag(J'J))
    def test_the_damped_step_is_marquardts(self):
        rng = np.random.default_rng(21)
        jac = rng.normal(size=(3, 30, 5)) * np.array([1.0, 1e3, 1e-2, 10.0, 1e5])
        fvec = rng.normal(size=(3, 30))
        mu = np.array([1e-3, 1.0, 1e3])
        ata = jac.transpose(0, 2, 1) @ jac
        grad = (jac.transpose(0, 2, 1) @ fvec[:, :, None])[:, :, 0]
        ah, gh, s = solver._equilibrate(ata, grad)
        stacked = solver._damped_step(ah, gh, mu) / s
        for k in range(3):
            marquardt = ata[k] + mu[k] * np.diag(ata[k].diagonal())
            expected = np.linalg.solve(marquardt, -grad[k])
            one = solver._equilibrate(ata[k], grad[k])
            np.testing.assert_allclose(solver._damped_step(one[0], one[1], mu[k]) / one[2],
                                       expected, rtol=1e-10)
            np.testing.assert_allclose(stacked[k], expected, rtol=1e-10)

    def test_a_singular_slice_is_solved_alone(self):
        # mu = 0 leaves the second system singular, so the stacked LU fails
        ah = np.array([np.eye(3), np.diag([1.0, 1.0, 0.0])])
        gh = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 0.0]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(ah, gh[:, :, None])
        step = solver._damped_step(ah, gh, np.zeros(2))
        np.testing.assert_allclose(step, [[-1.0, -2.0, -3.0], [-1.0, -2.0, 0.0]], atol=1e-15)

    @pytest.mark.parametrize("algorithm", [solver.LEVENBERG_MARQUARDT, solver.TRUST_REGION])
    def test_zero_jacobian_columns_take_a_zero_step(self, algorithm):
        x = np.arange(60.0)
        series = make_series(x, np.sin(0.2 * x + 0.1))
        problem = solver.FitProblem(series, models.SumOfSines(((0.0, 0.25, 0.3),)))
        # a zero amplitude zeroes the frequency and phase columns
        assert not models.jacobian(problem.initial, x)[:, 1:].any()
        first = solver.fit(problem, solver.SolverConfig(algorithm, max_iterations=1))
        amplitude, frequency, phase = first.params.terms[0]
        assert (first.iterations, frequency, phase) == (1, 0.25, 0.3)
        assert amplitude != 0.0
        result = solver.fit(problem, solver.SolverConfig(algorithm))
        assert result.iterations > 1
        assert result.params.terms[0][1:] != (0.25, 0.3)
        assert result.chi2 < first.chi2


def _perturbed(params, rng, size=0.1):
    vec = params.param_vector()
    return params.with_vector(vec * (1.0 + size * rng.uniform(-1, 1, len(vec))))


class TestFit:
    @pytest.mark.parametrize("algorithm", solver.ALGORITHMS)
    def test_sum_of_sines_recovery(self, algorithm):
        # synthetic-recovery oracle: exact data, start perturbed +-10%.
        # The span keeps a 10% frequency error inside the main lobe
        # (|dB| * N < pi); further out lie sidelobe minima that no local
        # method crosses, and global search is out of scope.
        rng = np.random.default_rng(10)
        x = np.arange(60.0)
        true = models.SumOfSines(((2.0, 0.3, 0.5),))
        y = models.evaluate(true, x)
        series = make_series(x, y)
        result = solver.fit(
            solver.FitProblem(series, _perturbed(true, rng)),
            solver.SolverConfig(algorithm=algorithm),
        )
        rel = np.max(
            np.abs(result.params.param_vector() - true.param_vector())
            / np.abs(true.param_vector())
        )
        assert rel <= 1e-6
        assert result.chi2 <= 1e-12 * float(y @ y)

    def test_kernels_are_looked_up_at_call_time(self, monkeypatch):
        # a wrapper set on a kernel name after import sees the solver's calls
        calls = {"sumsines_eval": 0, "sumsines_jac": 0}
        for name in calls:
            kernel = getattr(_kernels, name)

            def counting(x, p, kernel=kernel, name=name):
                calls[name] += 1
                return kernel(x, p)

            monkeypatch.setattr(_kernels, name, counting)
        x = np.arange(60.0)
        true = models.SumOfSines(((2.0, 0.3, 0.5),))
        series = make_series(x, 2.0 * np.sin(0.3 * x + 0.5))
        result = solver.fit(solver.FitProblem(series, _perturbed(true, np.random.default_rng(3))))
        assert result.iterations > 0
        assert calls["sumsines_eval"] > 0 and calls["sumsines_jac"] > 0

    def test_fourier_recovery(self):
        rng = np.random.default_rng(11)
        x = np.arange(150.0)
        true = models.Fourier(5.0, ((1.2, -0.7), (0.4, 0.9)), 0.21)
        series = make_series(x, models.evaluate(true, x))
        result = solver.fit(solver.FitProblem(series, _perturbed(true, rng)))
        rel = np.max(
            np.abs(result.params.param_vector() - true.param_vector())
            / np.abs(true.param_vector())
        )
        assert rel <= 1e-6

    def test_polynomial_first_acceptance_reaches_optimum(self):
        rng = np.random.default_rng(12)
        x = np.linspace(-5.0, 5.0, 60)
        y = rng.normal(size=60) + 0.5 * x**2
        series = make_series(x, y)
        start = models.Polynomial((10.0, -4.0, 3.0))
        result = solver.fit(solver.FitProblem(series, start))
        design = np.vander(x, 3)
        best, *_ = np.linalg.lstsq(design, y, rcond=None)
        chi2_star = float(np.sum((y - design @ best) ** 2))
        # the first accepted (damped) step lands at the optimum to solve tolerance
        assert result.trace[1] - chi2_star <= 1e-4 * (result.trace[0] - chi2_star)
        assert result.termination == solver.CONVERGED
        assert result.chi2 == pytest.approx(chi2_star, rel=1e-12)

    def test_gauss_newton_one_step_on_linear_family(self):
        rng = np.random.default_rng(13)
        x = np.linspace(0.0, 3.0, 40)
        y = rng.normal(size=40)
        series = make_series(x, y)
        result = solver.fit(
            solver.FitProblem(series, models.Polynomial((5.0, 5.0, 5.0))),
            solver.SolverConfig(algorithm=solver.GAUSS_NEWTON),
        )
        best, *_ = np.linalg.lstsq(np.vander(x, 3), y, rcond=None)
        chi2_star = float(np.sum((y - np.vander(x, 3) @ best) ** 2))
        assert result.trace[1] == pytest.approx(chi2_star, rel=1e-12)
        assert result.termination == solver.CONVERGED

    @pytest.mark.parametrize("algorithm", solver.ALGORITHMS)
    def test_accepted_chi2_non_increasing(self, algorithm, reference_series):
        result = solver.fit_series(
            reference_series, "sum-of-sines", 5, solver.SolverConfig(algorithm=algorithm)
        )
        trace = np.asarray(result.trace)
        assert np.all(np.diff(trace) <= 0.0)

    def test_stationarity_at_convergence(self):
        rng = np.random.default_rng(14)
        x = np.arange(120.0)
        true = models.SumOfSines(((2.0, 0.31, 0.4), (0.7, 0.83, -0.2)))
        y = models.evaluate(true, x) + rng.normal(0, 0.01, 120)
        series = make_series(x, y)
        result = solver.fit(solver.FitProblem(series, _perturbed(true, rng, 0.05)))
        assert result.termination == solver.CONVERGED
        grad = _sse_gradient(series, result.params)
        assert np.linalg.norm(grad) <= 1e-4 * (1.0 + result.chi2)

    def test_perfect_start_converges_immediately(self):
        x = np.arange(30.0)
        params = models.Polynomial((1.5, -2.0))
        series = make_series(x, models.evaluate(params, x))
        result = solver.fit(solver.FitProblem(series, params))
        assert result.termination == solver.CONVERGED
        assert result.chi2 == 0.0

    def test_non_finite_initial_raises(self):
        x = np.arange(0.0, 800.0)
        series = make_series(x, np.ones(800))
        with pytest.raises(NonFiniteValueError):
            solver.fit(solver.FitProblem(series, models.ScaledExponential(1.0, 5.0)))

    def test_too_few_points(self):
        series = make_series([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(TooFewPointsError):
            solver.fit(solver.FitProblem(series, models.Polynomial((1.0, 1.0, 1.0))))

    def test_infeasible_trials_are_rejected_not_fatal(self):
        # a Weibull fit whose trial steps cross gamma/alpha <= 0 must survive
        rng = np.random.default_rng(15)
        x = np.arange(0.0, 60.0)
        y = 40.0 * np.exp(-(((x - 5.0) / 12.0) ** 2)) + rng.normal(0, 0.5, 60)
        series = make_series(x, y)
        guess = models.initial_guess("weibull", series, 4)
        result = solver.fit(solver.FitProblem(series, guess))
        result.params.validate()
        assert np.isfinite(result.chi2)

    def test_gauss_newton_stops_on_a_singular_normal_matrix(self):
        # two equal terms give two equal Jacobian blocks: J'J is singular
        x = np.arange(40.0)
        problem = solver.FitProblem(
            make_series(x, np.sin(x)), models.SumOfSines(((1, 0.3, 0.1), (1, 0.3, 0.1)))
        )
        gn = solver.fit(problem, solver.SolverConfig(algorithm=solver.GAUSS_NEWTON))
        assert (gn.termination, gn.iterations) == (solver.SINGULAR_NORMAL_MATRIX, 0)
        assert gn.params == problem.initial
        for algorithm in (solver.LEVENBERG_MARQUARDT, solver.TRUST_REGION):
            result = solver.fit(problem, solver.SolverConfig(algorithm=algorithm))
            assert result.termination == solver.CONVERGED
            assert result.chi2 < gn.chi2

    def test_fixed_curve_returns_immediately(self):
        x = np.linspace(0.0, 1.0, 10)
        series = make_series(x, np.sin(x))
        result = solver.fit(solver.FitProblem(series, models.Sine()))
        assert result.termination == solver.CONVERGED
        assert result.iterations == 0
        assert result.chi2 == pytest.approx(0.0, abs=1e-20)

    def test_reduced_chi2_uses_dof(self):
        rng = np.random.default_rng(16)
        x = np.arange(50.0)
        series = make_series(x, 3.0 * x + rng.normal(0, 1, 50))
        result = solver.fit(solver.FitProblem(series, models.Polynomial((2.0, 0.0))))
        assert result.reduced_chi2 == pytest.approx(result.chi2 / (50 - 2))

    def test_converged_means_two_small_deltas(self):
        rng = np.random.default_rng(17)
        x = np.arange(80.0)
        series = make_series(x, np.sin(0.2 * x) + rng.normal(0, 0.05, 80))
        result = solver.fit(solver.FitProblem(series, models.SumOfSines(((0.9, 0.21, 0.1),))))
        assert result.termination == solver.CONVERGED
        tail = np.asarray(result.trace[-3:])
        deltas = -np.diff(tail)
        assert np.all(deltas <= solver._CHI2_ABS_TOL + solver._CHI2_REL_TOL * tail[1:])


def _slow_tail_problem():
    """Three sines on a random walk: every algorithm crawls long before the cap."""
    x = np.arange(72.0)
    series = make_series(x, np.random.default_rng(0).normal(0.0, 1.0, 72).cumsum())
    return solver.FitProblem(series, models.initial_guess("sum-of-sines", series, 3))


class TestStallStop:
    @pytest.mark.parametrize("algorithm", solver.ALGORITHMS)
    def test_a_slow_tail_stops_as_stalled(self, algorithm):
        result = solver.fit(_slow_tail_problem(), solver.SolverConfig(algorithm=algorithm))
        assert result.termination == solver.STALLED
        window, tol = solver._STALL_WINDOW, solver._STALL_REL_TOL
        trace = result.trace
        assert window <= result.iterations < solver.SolverConfig().max_iterations
        assert len(trace) == result.iterations + 1
        assert trace[-1 - window] - trace[-1] <= tol * trace[-1]
        # the first iteration that meets the rule is the last one taken
        assert all(trace[k - window] - trace[k] > tol * trace[k]
                   for k in range(window, result.iterations))

    def test_the_rule_is_checked_before_the_cap(self):
        stalled = solver.fit(_slow_tail_problem())
        assert stalled.termination == solver.STALLED
        k = stalled.iterations
        at_cap = solver.fit(_slow_tail_problem(), solver.SolverConfig(max_iterations=k))
        assert _same_fit(at_cap, stalled)
        short = solver.fit(_slow_tail_problem(), solver.SolverConfig(max_iterations=k - 1))
        assert (short.termination, short.trace) == (solver.MAX_ITERATIONS, stalled.trace[:-1])


class TestFitSeries:
    def test_a_non_finite_start_is_retried_once_from_the_rescaled_start(self, monkeypatch):
        # two equal terms overflow together; halved, they are the data exactly
        start = models.SumOfSines(((1.2e308, 2.0, 0.3), (1.2e308, 2.0, 0.3)))
        x = np.linspace(0.0, 1.0, 12)
        series = make_series(x, models.evaluate(start.rescaled(), x))
        with pytest.raises(NonFiniteValueError), np.errstate(over="ignore"):
            solver.fit(solver.FitProblem(series, start))
        monkeypatch.setattr(models, "initial_guess", lambda family, s, n_terms: start)
        fit_calls = []
        _fit = solver.fit

        def counted_fit(problem, config=None):
            fit_calls.append(problem.initial)
            return _fit(problem, config)

        monkeypatch.setattr(solver, "fit", counted_fit)
        with np.errstate(over="ignore"):
            result = solver.fit_series(series, "sum-of-sines", 2)
        assert fit_calls == [start, start.rescaled()]
        assert _same_fit(result, _fit(solver.FitProblem(series, start.rescaled())))
        assert result.termination == solver.CONVERGED

    def test_a_second_failure_raises(self, monkeypatch):
        # exp(5x) and, halved, exp(2.5x) both overflow at x = 799
        start = models.ScaledExponential(1.0, 5.0)
        monkeypatch.setattr(models, "initial_guess", lambda family, s, n_terms: start)
        series = make_series(np.arange(0.0, 800.0), np.ones(800))
        with pytest.raises(NonFiniteValueError):
            solver.fit_series(series, "scaled-exponential")


def _same_fit(a, b):
    return (
        a.params.param_vector().tobytes() == b.params.param_vector().tobytes()
        and (a.chi2, a.reduced_chi2, a.iterations) == (b.chi2, b.reduced_chi2, b.iterations)
        and (a.termination, a.trace) == (b.termination, b.trace)
    )


def _sine_problems(seed, n_problems, n_points):
    """Random one-term problems; some start at the truth (zero or tiny steps)."""
    rng = np.random.default_rng(seed)
    problems = []
    for _ in range(n_problems):
        x = np.linspace(0.0, 1.0, n_points)
        if rng.random() < 0.5:
            x = np.sort(rng.uniform(0.0, 1.0, n_points))
        true = models.SumOfSines(((rng.uniform(-2, 2), rng.uniform(0.5, 9), rng.uniform(-3, 3)),))
        noise = rng.choice([0.0, 1e-13, 0.05, 1.0])
        y = models.evaluate(true, x) + rng.normal(0.0, noise, n_points)
        start = true
        if rng.random() < 0.7:  # a zero amplitude leaves two Jacobian columns zero
            amplitude = rng.choice([0.0, rng.uniform(-3, 3)], p=[0.2, 0.8])
            start = models.SumOfSines(((amplitude, rng.uniform(0.01, 12), rng.uniform(-3, 3)),))
        problems.append(solver.FitProblem(make_series(x, y), start))
    return problems


class TestFitMany:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_problems=st.integers(2, 9),
        n_points=st.integers(3, 25),
        max_iterations=st.integers(1, 60),
        mu_increase=st.sampled_from([10.0, 1e40]),  # 1e40: one rejection ends a fit
    )
    def test_equals_a_loop_of_fit(self, seed, n_problems, n_points, max_iterations, mu_increase):
        config = solver.SolverConfig(max_iterations=max_iterations)
        problems = _sine_problems(seed, n_problems, n_points)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_MU_INCREASE", mu_increase)
            expected = [solver.fit(problem, config) for problem in problems]
            got = solver.fit_many(problems, config)
        assert len(got) == len(expected)
        assert all(_same_fit(a, b) for a, b in zip(got, expected))

    def test_batches_with_mixed_outcomes(self, monkeypatch):
        monkeypatch.setattr(solver, "_MU_INCREASE", 1e40)  # one rejection ends a fit
        config = solver.SolverConfig(max_iterations=8)
        problems = _sine_problems(0, 40, 20)
        expected = [solver.fit(problem, config) for problem in problems]
        assert {r.termination for r in expected} == {
            solver.CONVERGED,
            solver.MAX_ITERATIONS,
            solver.STEP_TOO_SMALL,
        }
        assert all(_same_fit(a, b) for a, b in zip(solver.fit_many(problems, config), expected))

    def test_batches_with_stalled_rows(self, monkeypatch):
        monkeypatch.setattr(solver, "_STALL_WINDOW", 3)
        config = solver.SolverConfig(max_iterations=30)
        problems = _sine_problems(0, 40, 20)
        expected = [solver.fit(problem, config) for problem in problems]
        assert {r.termination for r in expected} == {
            solver.CONVERGED,
            solver.STALLED,
            solver.MAX_ITERATIONS,
        }
        assert all(_same_fit(a, b) for a, b in zip(solver.fit_many(problems, config), expected))

    @pytest.mark.parametrize(
        "start,x_end",
        [((np.inf, 1.0, 0.0), 1.0), ((1e300, 1.0, 0.0), 1e10)],
        ids=["non-finite-start", "non-finite-jacobian"],
    )
    def test_failure_raises_what_fit_raises(self, start, x_end):
        x = np.linspace(0.0, x_end, 12)
        bad = solver.FitProblem(make_series(x, np.zeros(12)), models.SumOfSines((start,)))
        good = _sine_problems(3, 2, 12)
        with pytest.raises(NonFiniteValueError) as expected, np.errstate(all="ignore"):
            solver.fit(bad)
        with pytest.raises(NonFiniteValueError) as got, np.errstate(all="ignore"):
            solver.fit_many([good[0], bad, good[1]])
        assert str(got.value) == str(expected.value)

    def test_a_length_mismatch_raises_what_fit_raises(self):
        x = np.arange(12.0)
        bad = solver.FitProblem(
            SimpleNamespace(abscissa=x[:11], ordinate=np.sin(x)), models.SumOfSines(((1, 1, 0),))
        )
        with pytest.raises(LengthMismatchError):
            solver.fit_many([_sine_problems(5, 1, 12)[0], bad])

    def test_refuses_what_it_cannot_batch(self):
        problems = _sine_problems(4, 2, 10)
        with pytest.raises(InvalidParamsError):
            solver.fit_many(problems, solver.SolverConfig(algorithm=solver.GAUSS_NEWTON))
        x = np.arange(10.0)
        line = solver.FitProblem(make_series(x, x), models.Polynomial((1.0, 0.0)))
        with pytest.raises(InvalidParamsError):
            solver.fit_many([problems[0], line])
        with pytest.raises(LengthMismatchError):
            solver.fit_many(problems + _sine_problems(4, 1, 11))
        with pytest.raises(TooFewPointsError):
            solver.fit_many(_sine_problems(4, 2, 2))
        assert solver.fit_many([]) == []


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(InvalidParamsError):
            solver.SolverConfig(algorithm="newton").validate()
        with pytest.raises(InvalidParamsError):
            solver.SolverConfig(max_iterations=0).validate()
        solver.SolverConfig().validate()
