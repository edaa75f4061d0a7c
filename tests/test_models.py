import json
import re
import warnings

import numpy as np
import pytest

from sigfit import _kernels, models
from sigfit.errors import DomainError, InvalidParamsError, TooFewPointsError
from tests.conftest import make_series


def finite_difference_jacobian(params, x):
    """Central differences with per-parameter step 1e-6 * scale."""
    vec = params.param_vector()
    cols = []
    for i in range(len(vec)):
        h = 1e-6 * max(abs(vec[i]), 1.0)
        up, down = vec.copy(), vec.copy()
        up[i] += h
        down[i] -= h
        f_up = models.evaluate(params.with_vector(up), x)
        f_down = models.evaluate(params.with_vector(down), x)
        cols.append((f_up - f_down) / (2.0 * h))
    return np.column_stack(cols) if cols else np.zeros((len(x), 0))


def max_relative_error(analytic, numeric):
    floor = 1e-6 * (1.0 + np.max(np.abs(analytic), initial=0.0))
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom, initial=0.0))


class TestEvaluate:
    def test_single_sine_at_quarter_period(self):
        params = models.SumOfSines(((1.0, 1.0, 0.0),))
        assert models.evaluate(params, [np.pi / 2]) == pytest.approx(1.0)

    def test_polynomial_direct_substitution(self):
        params = models.Polynomial((2.0, 0.0, 1.0))
        np.testing.assert_allclose(models.evaluate(params, [0.0, 1.0, 2.0]), [1.0, 3.0, 9.0])

    def test_fourier_constant(self):
        params = models.Fourier(4.25, ((0.0, 0.0),), 0.3)
        np.testing.assert_allclose(models.evaluate(params, [0.0, 1.7, 12.0]), 4.25)

    def test_weibull_density_integrates_to_one(self):
        # trapezoid-rule oracle on a dense grid over the support
        params = models.Weibull(1.8, 0.5, 2.0, 1.0)
        x = np.linspace(0.5, 0.5 + 2.0 * 20.0, 400_001)
        mass = np.trapezoid(models.evaluate(params, x), x)
        assert mass == pytest.approx(1.0, abs=1e-4)

    def test_weibull_zero_below_location(self):
        params = models.Weibull(2.0, 3.0, 1.0, 5.0)
        np.testing.assert_array_equal(models.evaluate(params, [0.0, 2.9]), [0.0, 0.0])

    def test_weibull_amp_scales_linearly(self):
        x = np.linspace(0.1, 8.0, 50)
        base = models.evaluate(models.Weibull(2.0, 0.0, 2.0, 1.0), x)
        scaled = models.evaluate(models.Weibull(2.0, 0.0, 2.0, 7.5), x)
        np.testing.assert_allclose(scaled, 7.5 * base, rtol=1e-14)

    def test_fixed_reference_curves(self):
        x = np.array([0.0, 1.0])
        np.testing.assert_allclose(models.evaluate(models.Sine(), x), np.sin(x))
        np.testing.assert_allclose(models.evaluate(models.Exponential(), x), np.exp(x))

    def test_parabola_real_branch(self):
        np.testing.assert_allclose(
            models.evaluate(models.Parabola(2.0), [0.0, 2.0]), [0.0, 4.0]
        )

    def test_parabola_domain_error(self):
        with pytest.raises(DomainError):
            models.evaluate(models.Parabola(1.0), [-1.0])
        with pytest.raises(DomainError):
            models.evaluate(models.Parabola(-2.0), [1.0])

    def test_invariant_violations_raise(self):
        with pytest.raises(InvalidParamsError):
            models.evaluate(models.SumOfSines(()), [0.0])
        with pytest.raises(InvalidParamsError):
            models.evaluate(models.Weibull(-1.0, 0.0, 1.0), [1.0])
        with pytest.raises(InvalidParamsError):
            models.evaluate(models.Polynomial((0.0, 1.0)), [1.0])
        with pytest.raises(InvalidParamsError):
            models.evaluate(models.Fourier(1.0, (), 0.5), [0.0])


def _random_families(rng):
    x_default = np.linspace(0.0, 20.0, 60)
    yield models.SumOfSines(
        tuple(
            (rng.uniform(0.5, 3.0), rng.uniform(0.1, 1.0), rng.uniform(-np.pi, np.pi))
            for _ in range(3)
        )
    ), x_default
    yield models.Fourier(
        rng.uniform(-2, 2),
        tuple((rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)) for _ in range(3)),
        rng.uniform(0.1, 0.8),
    ), x_default
    coeffs = rng.uniform(-2, 2, size=5)
    coeffs[0] = rng.uniform(0.5, 2.0)
    yield models.Polynomial(tuple(coeffs)), np.linspace(-3.0, 3.0, 60)
    yield models.Weibull(
        rng.uniform(1.2, 3.0), rng.uniform(-1.0, -0.2), rng.uniform(0.5, 3.0), rng.uniform(0.5, 5.0)
    ), np.linspace(0.0, 6.0, 80)
    yield models.Weibull2(rng.uniform(0.8, 2.5), rng.uniform(0.3, 2.0)), np.linspace(0.05, 5.0, 60)
    yield models.Parabola(rng.uniform(0.2, 3.0)), np.linspace(0.1, 10.0, 50)
    yield models.ScaledExponential(rng.uniform(0.5, 3.0), rng.uniform(-0.3, 0.3)), x_default


class TestJacobian:
    def test_single_term_closed_form(self):
        a, b, c = 1.7, 0.45, 0.3
        x = np.linspace(0.0, 10.0, 25)
        jac = models.jacobian(models.SumOfSines(((a, b, c),)), x)
        np.testing.assert_allclose(jac[:, 0], np.sin(b * x + c), rtol=1e-14)
        np.testing.assert_allclose(jac[:, 1], a * x * np.cos(b * x + c), rtol=1e-14)
        np.testing.assert_allclose(jac[:, 2], a * np.cos(b * x + c), rtol=1e-14)

    def test_polynomial_rows_are_powers(self):
        x = np.array([2.0, 3.0])
        jac = models.jacobian(models.Polynomial((5.0, -1.0, 2.0)), x)
        np.testing.assert_allclose(jac, [[4.0, 2.0, 1.0], [9.0, 3.0, 1.0]])

    def test_fixed_curves_have_no_columns(self):
        assert models.jacobian(models.Sine(), [0.0, 1.0]).shape == (2, 0)
        assert models.jacobian(models.Exponential(), [0.0, 1.0]).shape == (2, 0)

    def test_analytic_matches_finite_differences_100_draws(self):
        # finite-difference oracle across every fittable family
        rng = np.random.default_rng(1234)
        worst = {}
        for _ in range(100):
            for params, x in _random_families(rng):
                analytic = models.jacobian(params, x)
                numeric = finite_difference_jacobian(params, x)
                err = max_relative_error(analytic, numeric)
                name = params.family
                worst[name] = max(worst.get(name, 0.0), err)
        for family, err in worst.items():
            assert err <= 1e-5, f"{family}: max relative error {err:.3g}"


def _sumsines_jac_reference(x, p):
    """The Jacobian computed from scratch, as the kernel did before its memo."""
    a = p[0::3]
    arg = np.outer(x, p[1::3]) + p[2::3]
    s = np.sin(arg)
    c = np.cos(arg)
    jac = np.empty((x.shape[0], p.shape[0]))
    jac[:, 0::3] = s
    jac[:, 1::3] = a * c * x[:, None]
    jac[:, 2::3] = a * c
    return jac


class TestSumOfSinesMemo:
    """The numpy kernels reuse the sines of the last evaluated point."""

    @staticmethod
    def _point():
        rng = np.random.default_rng(11)
        x = np.arange(300.0)
        p = np.column_stack(
            [rng.uniform(100, 900, 11), rng.uniform(0.005, 0.3, 11), rng.uniform(-3, 3, 11)]
        ).ravel()
        return x, p

    def test_jacobian_after_eval_is_bit_identical_to_fresh(self):
        x, p = self._point()
        f = _kernels.sumsines_eval(x, p)
        memo = _kernels._sines_memo
        jac = _kernels.sumsines_jac(x, p)
        assert _kernels._sines_memo is memo  # the Jacobian took the memo
        np.testing.assert_array_equal(jac, _sumsines_jac_reference(x, p))
        again = _kernels.sumsines_eval(x.copy(), p.copy())  # equal values hit too
        assert _kernels._sines_memo is memo
        np.testing.assert_array_equal(again, f)
        arg = np.outer(x, p[1::3]) + p[2::3]
        np.testing.assert_array_equal(f, np.sin(arg) @ p[0::3])

    def test_in_place_mutation_of_p_recomputes(self):
        x, p = self._point()
        _kernels.sumsines_eval(x, p)
        p[4] += 0.01  # a frequency, changed under the memo's feet
        jac = _kernels.sumsines_jac(x, p)
        np.testing.assert_array_equal(jac, _sumsines_jac_reference(x, p))
        np.testing.assert_array_equal(_kernels._sines_memo[1], p)

    def test_in_place_mutation_of_x_recomputes(self):
        x, p = self._point()
        _kernels.sumsines_eval(x, p)
        x *= 0.5
        f = _kernels.sumsines_eval(x, p)
        np.testing.assert_array_equal(f, np.sin(np.outer(x, p[1::3]) + p[2::3]) @ p[0::3])
        np.testing.assert_array_equal(
            _kernels.sumsines_jac(x, p), _sumsines_jac_reference(x, p)
        )


_FEASIBILITY_CASES = [
    # (params, feasible vector, infeasible vector or None where none exists)
    (models.SumOfSines(((1.0, 0.5, 0.0),)), [2.0, 0.3, 1.0], []),
    (models.Fourier(1.0, ((0.5, 0.2),), 0.3), [1.0, 0.5, 0.2, 0.3], [1.0, 0.3]),
    (models.Polynomial((1.0, 2.0)), [3.0, 1.0], [0.0, 1.0]),
    (models.Weibull(2.0, 0.0, 1.0, 1.0), [1.5, -0.5, 2.0, 3.0], [1.5, -0.5, 0.0, 3.0]),
    (models.Weibull2(1.5, 0.5), [0.8, 2.0], [0.8, -2.0]),
    (models.Parabola(0.5), [-1.0], None),
    (models.ScaledExponential(1.0, 0.1), [2.0, -0.3], None),
    (models.Sine(), [], None),
    (models.Exponential(), [], None),
]


def _validates(params, vec):
    try:
        params.with_vector(vec).validate()
    except InvalidParamsError:
        return False
    return True


@pytest.mark.parametrize(
    "params, good, bad",
    _FEASIBILITY_CASES,
    ids=[p.family for p, _, _ in _FEASIBILITY_CASES],
)
def test_feasible_iff_rebuilt_params_validate(params, good, bad):
    assert {type(p) for p, _, _ in _FEASIBILITY_CASES} == set(models.FAMILIES.values())
    for vec, expected in ((good, True), (bad, False)):
        if vec is None:
            continue
        vec = np.asarray(vec, dtype=float)
        assert _validates(params, vec) is expected
        assert bool(params.feasible(vec)) is expected


@pytest.mark.parametrize(
    "params, bad",
    [(p, bad) for p, _, bad in _FEASIBILITY_CASES if bad is not None],
    ids=[p.family for p, _, bad in _FEASIBILITY_CASES if bad is not None],
)
def test_validate_names_the_family_and_its_rule(params, bad):
    message = re.escape(f"{params.family} requires {params.rule}")
    with pytest.raises(InvalidParamsError, match=message):
        params.with_vector(np.asarray(bad, dtype=float)).validate()


@pytest.mark.parametrize("params", [
    models.SumOfSines(((1.0, 0.5),)),
    models.SumOfSines(((1.0, 0.5, 0.0), (1.0, 0.5, 0.0, 2.0))),
    models.Fourier(1.0, ((0.5, 0.2, 0.1),), 0.3),
], ids=["sum-of-sines-2", "sum-of-sines-4", "fourier-3"])
def test_a_term_of_the_wrong_width_is_refused(params):
    with pytest.raises(InvalidParamsError, match=f"each {params.family} term"):
        params.validate()


class TestInitialGuess:
    def test_pure_sinusoid_lands_within_one_bin(self):
        n = 200
        x = np.arange(n, dtype=float)
        series = make_series(x, 3.0 * np.sin(0.1 * x))
        guess = models.initial_guess("sum-of-sines", series, 1)
        dominant = max(guess.terms, key=lambda t: abs(t[0]))
        bin_width = 2.0 * np.pi / n
        assert abs(dominant[1] - 0.1) <= bin_width

    def test_constant_series_fourier(self):
        series = make_series(np.arange(50.0), np.full(50, 7.25))
        guess = models.initial_guess("fourier", series, 3)
        assert guess.a0 == pytest.approx(7.25)
        assert np.allclose([v for t in guess.terms for v in t], 0.0, atol=1e-9)

    def test_linear_ramp_polynomial_is_exact(self):
        x = np.arange(30.0)
        series = make_series(x, 2.0 * x + 1.0)
        guess = models.initial_guess("polynomial", series, 1)
        np.testing.assert_allclose(guess.param_vector(), [2.0, 1.0], atol=1e-10)

    def test_too_few_points(self):
        series = make_series([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(TooFewPointsError):
            models.initial_guess("sum-of-sines", series, 4)

    def test_guesses_are_feasible(self, reference_series):
        for family in ("sum-of-sines", "fourier", "polynomial", "weibull",
                       "weibull2", "parabola", "scaled-exponential"):
            guess = models.initial_guess(family, reference_series, 3)
            guess.validate()

    def test_unknown_family_is_invalid(self, reference_series):
        with pytest.raises(InvalidParamsError, match="nope"):
            models.initial_guess("nope", reference_series, 1)
        with pytest.raises(InvalidParamsError):
            models.params_from_dict({"family": "nope", "coefficients": []})


class TestRescaled:
    def test_sum_of_sines_halves_only_amplitudes(self):
        params = models.SumOfSines(((4.0, 0.3, -1.0), (-2.0, 0.7, 2.5)))
        assert models.SumOfSines(((2.0, 0.3, -1.0), (-1.0, 0.7, 2.5))) == params.rescaled()

    def test_other_families_halve_every_parameter(self):
        params = models.Weibull(2.0, -1.0, 3.0, 8.0)
        assert params.rescaled() == models.Weibull(1.0, -0.5, 1.5, 4.0)
        assert models.Sine().rescaled() == models.Sine()


class TestHornerPrecision:
    def test_matches_extended_precision(self):
        # mpmath 50-digit oracle; points with catastrophic cancellation
        # (condition > 1e6) are excluded, as no double-precision scheme
        # can carry relative accuracy through them
        import mpmath

        mpmath.mp.dps = 50
        rng = np.random.default_rng(7)
        for degree in (3, 6, 10):
            coeffs = rng.uniform(0.5, 1.5, size=degree + 1)
            params = models.Polynomial(tuple(coeffs))
            x = np.concatenate(
                [
                    rng.uniform(-1e4, 1e4, 10),
                    rng.uniform(-1.0, 1.0, 10),
                    rng.uniform(-1e-2, 1e-2, 5),
                ]
            )
            values = models.evaluate(params, x)
            for xi, vi in zip(x, values):
                exact = mpmath.polyval([mpmath.mpf(c) for c in coeffs], mpmath.mpf(xi))
                magnitude = sum(abs(mpmath.mpf(c) * mpmath.mpf(xi) ** k)
                                for k, c in enumerate(reversed(coeffs)))
                if exact == 0 or magnitude / abs(exact) > 1e6:
                    continue
                rel = abs((mpmath.mpf(vi) - exact) / exact)
                assert rel <= 1e-9


class TestWeibullSurvivalMapping:
    def test_survival_form_evaluates(self):
        params = models.Weibull2(2.0, 0.5)
        x = np.array([0.0, 2.0])
        np.testing.assert_allclose(
            models.evaluate(params, x), [1.0, np.exp(-1.0)], rtol=1e-14
        )

    def test_an_overflowing_power_is_a_zero_survival_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = models.Weibull2(2.0, 1.0).eval_vec(np.array([2.0, 1.0]), np.array([0.0, 1e200]))
        np.testing.assert_array_equal(out, [1.0, 0.0])


class TestCanonicalize:
    def test_curve_preserved_and_normal_form(self):
        rng = np.random.default_rng(99)
        x = np.linspace(0.0, 15.0, 120)
        for _ in range(25):
            terms = tuple(
                (rng.uniform(-3, 3), rng.uniform(-1, 1), rng.uniform(-7, 7)) for _ in range(4)
            )
            params = models.SumOfSines(terms)
            canonical = models.canonicalize(params)
            np.testing.assert_allclose(
                models.evaluate(canonical, x), models.evaluate(params, x), atol=1e-9
            )
            amps = [t[0] for t in canonical.terms]
            freqs = [t[1] for t in canonical.terms]
            phases = [t[2] for t in canonical.terms]
            assert all(a >= 0 for a in amps)
            assert all(b >= 0 for b in freqs)
            assert all(-np.pi <= c <= np.pi for c in phases)
            assert freqs == sorted(freqs)

    def test_other_families_unchanged(self):
        params = models.Polynomial((1.0, 2.0))
        assert models.canonicalize(params) is params


class TestSerialization:
    @pytest.mark.parametrize(
        "params",
        [
            models.SumOfSines(((1.25, 0.3333333333333333, -2.1),)),
            models.Fourier(0.1, ((1.0, -0.5), (0.25, 0.75)), 0.2123456789012345),
            models.Fourier(3.0, ((1.0, 2.0),), 0.4),
            models.Polynomial((1e-17, -3.0, 2.5)),
            models.Weibull(2.0, -0.5, 1.75, 1234.5),
            models.Weibull2(1.5, 0.25),
            models.Parabola(0.123456789),
            models.ScaledExponential(7.0, -0.001),
            models.Sine(),
            models.Exponential(),
        ],
    )
    def test_json_round_trip_is_exact(self, params):
        text = json.dumps(models.params_to_dict(params))
        back = models.params_from_dict(json.loads(text))
        assert type(back) is type(params)
        np.testing.assert_array_equal(back.param_vector(), params.param_vector())
        if isinstance(params, models.Fourier):
            assert back.omega == params.omega

    def test_family_tag_in_json(self):
        payload = json.loads(json.dumps(models.params_to_dict(models.Parabola(2.0))))
        assert payload["family"] == "parabola"
        assert payload["coefficients"] == [2.0]


def test_evaluate_is_pure(reference_series):
    params = models.SumOfSines(((10.0, 0.2, 0.1),))
    first = models.evaluate(params, reference_series.abscissa)
    second = models.evaluate(params, reference_series.abscissa)
    np.testing.assert_array_equal(first, second)
    first *= 0.0  # mutating a result must not affect later calls
    third = models.evaluate(params, reference_series.abscissa)
    np.testing.assert_array_equal(third, second)
