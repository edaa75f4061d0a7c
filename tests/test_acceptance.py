"""Acceptance criteria, one test per criterion.

Each test prints one line with the measured values so a verbose run reads
as a checklist. The reference dataset is the deterministic synthetic
SVC2004-format corpus (12 users x 40 samples, seeded); "reference
channel" means user 1, sample 1, x-coordinate, matching the fit-report
and ranking examples shipped with the package.
"""

import time
from dataclasses import dataclass, replace

import numpy as np
import pytest

from sigfit import cli, gof, ingest, models, pipeline, selection, solver, synth, verify
from sigfit.ingest import ChannelSeries
from sigfit.pipeline import PipelineConfig
from tests.conftest import make_series
from tests.test_models import finite_difference_jacobian, max_relative_error, _random_families

N_USERS = 12
REPORT_FAMILIES = (
    ("sum-of-sines", 11),
    ("fourier", 8),
    ("polynomial", 5),
    ("weibull", 4),
)


@pytest.fixture(scope="module")
def acceptance_samples():
    return synth.generate_samples(n_users=N_USERS)


@pytest.fixture(scope="module")
def reference_channel(acceptance_samples):
    return ingest.extract_channel(acceptance_samples[0], 1)


@pytest.fixture(scope="module")
def fitted_batch(acceptance_samples):
    """One default-config batch shared by the uniformity and EER criteria."""
    return pipeline.uniformize_dataset(acceptance_samples, pipeline.PipelineConfig(), jobs=2)


def _fit_report(series, family, n_terms, algorithm=solver.LEVENBERG_MARQUARDT):
    result = solver.fit_series(series, family, n_terms, solver.SolverConfig(algorithm=algorithm))
    return result, gof.gof_report(series, result.params)


def test_c01_family_ranking_by_fit_quality(reference_channel):
    reports = {}
    for family, n_terms in REPORT_FAMILIES:
        _, reports[family] = _fit_report(reference_channel, family, n_terms)
    rmse = {f: r.rmse for f, r in reports.items()}
    ordering = (
        rmse["sum-of-sines"] < rmse["fourier"] < rmse["polynomial"] < rmse["weibull"]
    )
    ss_r2 = reports["sum-of-sines"].r_squared
    wb_r2 = reports["weibull"].r_squared
    ok = ordering and ss_r2 >= 0.99 and wb_r2 < 0.0
    print(
        f"criterion 01 {'PASS' if ok else 'FAIL'}: RMSE "
        + " < ".join(f"{f}={rmse[f]:.4g}" for f in ("sum-of-sines", "fourier", "polynomial", "weibull"))
        + f"; R2(sum-of-sines)={ss_r2:.4f} >= 0.99; R2(weibull)={wb_r2:.4f} < 0"
    )
    assert ordering, f"RMSE ordering violated: {rmse}"
    assert ss_r2 >= 0.99
    assert wb_r2 < 0.0


def test_c02_area_based_selection_ordering(reference_channel):
    rankings = selection.rank_families(reference_channel)
    order = [family for family, _ in rankings]
    totals = {family: report.total for family, report in rankings}
    ok = order == ["sinusoidal", "parabolic", "exponential"]
    print(
        f"criterion 02 {'PASS' if ok else 'FAIL'}: areas "
        + " < ".join(f"{f}={totals[f]:.4g}" for f in order)
    )
    assert ok, f"selection order was {order}"


def test_c03_vector_uniformity(acceptance_samples, fitted_batch):
    a, b = acceptance_samples[0], acceptance_samples[1]
    assert a.n_points != b.n_points
    va = pipeline.preprocess_sample(a)
    vb = pipeline.preprocess_sample(b)
    lengths = {len(v) for v in fitted_batch.vectors}
    ok = len(va) == len(vb) == 231 and lengths == {231}
    print(
        f"criterion 03 {'PASS' if ok else 'FAIL'}: lengths {a.n_points}/{b.n_points} points "
        f"-> {len(va)}/{len(vb)} coefficients; batch of {len(fitted_batch.vectors)} "
        f"vectors has lengths {sorted(lengths)}"
    )
    assert ok


def test_c04_solver_agreement(reference_channel):
    sse = {}
    for algorithm in solver.ALGORITHMS:
        _, report = _fit_report(reference_channel, "sum-of-sines", 11, algorithm)
        sse[algorithm] = report.sse
    values = sorted(sse.values())
    spread = values[-1] / values[0] - 1.0
    ok = spread < 0.02
    print(
        f"criterion 04 {'PASS' if ok else 'FAIL'}: SSE "
        + ", ".join(f"{a.split('-')[0]}={v:.6g}" for a, v in sse.items())
        + f"; pairwise spread {100 * spread:.3f}% < 2%"
    )
    assert ok, f"SSE spread {spread:.4f} exceeds 2%: {sse}"


def test_c05_synthetic_recovery():
    rng = np.random.default_rng(20)
    x = np.arange(60.0)
    cases = {
        "sum-of-sines": models.SumOfSines(((2.0, 0.3, 0.5), (0.8, 0.9, -0.7))),
        "fourier": models.Fourier(5.0, ((1.2, -0.7), (0.4, 0.9)), 0.21),
        "polynomial": models.Polynomial((0.02, -1.5, 30.0)),
    }
    worst_rel = 0.0
    worst_chi2_ratio = 0.0
    for family, true in cases.items():
        y = models.evaluate(true, x)
        series = make_series(x, y)
        vec = true.param_vector()
        guess = true.with_vector(vec * (1.0 + 0.1 * rng.uniform(-1.0, 1.0, len(vec))))
        result = solver.fit(solver.FitProblem(series, guess))
        rel = float(np.max(np.abs(result.params.param_vector() - vec) / np.abs(vec)))
        worst_rel = max(worst_rel, rel)
        worst_chi2_ratio = max(worst_chi2_ratio, result.chi2 / float(y @ y))
    ok = worst_rel <= 1e-6 and worst_chi2_ratio <= 1e-12
    print(
        f"criterion 05 {'PASS' if ok else 'FAIL'}: worst parameter error {worst_rel:.2e} "
        f"<= 1e-6; worst chi2/sum(y^2) {worst_chi2_ratio:.2e} <= 1e-12"
    )
    assert ok


def test_c06_jacobian_correctness():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(100):
        for params, x in _random_families(rng):
            analytic = models.jacobian(params, x)
            numeric = finite_difference_jacobian(params, x)
            worst = max(worst, max_relative_error(analytic, numeric))
    ok = worst <= 1e-5
    print(
        f"criterion 06 {'PASS' if ok else 'FAIL'}: max relative error vs central "
        f"finite differences {worst:.3g} <= 1e-5 over 100 draws x 7 families"
    )
    assert ok


def test_c07_goodness_of_fit_identities(reference_channel):
    # dof identity on emitted reports
    dof_errors = []
    for family, n_terms in REPORT_FAMILIES:
        _, report = _fit_report(reference_channel, family, n_terms)
        n, p = report.n_points, report.n_params
        dof_errors.append(abs(report.sse / report.rmse**2 - (n - p)) / (n - p))
    # perfect fit
    x = np.arange(40.0)
    params = models.Polynomial((2.0, -1.0))
    perfect = gof.gof_report(make_series(x, models.evaluate(params, x)), params)
    # best constant fit
    rng = np.random.default_rng(2)
    y = rng.normal(5.0, 2.0, 60)
    constant = gof.gof_report(
        make_series(np.arange(60.0), y), models.Polynomial((float(np.mean(y)),))
    )
    ok = (
        max(dof_errors) <= 1e-9
        and perfect.sse == 0.0
        and perfect.r_squared == 1.0
        and constant.r_squared == 0.0
    )
    print(
        f"criterion 07 {'PASS' if ok else 'FAIL'}: worst dof identity error "
        f"{max(dof_errors):.2e} <= 1e-9; perfect fit SSE={perfect.sse}, "
        f"R2={perfect.r_squared}; constant-model R2={constant.r_squared}"
    )
    assert ok


@dataclass(frozen=True)
class ProbeResult:
    timings: tuple  # (size, median seconds) pairs
    slope: float | None  # log-log least squares slope, None for a single size


def runtime_scaling_probe(sizes, config=None, repeats=5, max_iterations=12, seed=7):
    """Median wall time of a capped-iteration fit at each series size.

    Synthetic multi-tone channels keep every run busy for the full
    iteration cap so the probe reflects per-iteration cost. The log-log
    slope estimates the scaling exponent (1.0 = linear in series length).
    """
    probe_config = replace((config or PipelineConfig()).solver, max_iterations=max_iterations)
    rng = np.random.default_rng(seed)
    timings = []
    with pytest.MonkeyPatch.context() as mp:  # restored when the probe ends
        # tolerances no fit can meet: every run goes to the cap
        mp.setattr(solver, "_CHI2_ABS_TOL", 1e-300)
        mp.setattr(solver, "_CHI2_REL_TOL", 1e-300)
        for size in sizes:
            x = np.arange(size, dtype=float)
            y = (
                4000.0
                + 900.0 * np.sin(0.021 * x + 0.3)
                + 350.0 * np.sin(0.143 * x + 1.1)
                + 180.0 * np.sin(0.31 * x + 2.0)
                + rng.normal(0.0, 20.0, size)
            )
            series = ChannelSeries(x, y)
            guess = models.initial_guess("sum-of-sines", series, 11)
            problem = solver.FitProblem(series, guess)
            solver.fit(problem, probe_config)  # warmup: first-call costs
            reps = []
            for _ in range(max(repeats, 1)):
                t0 = time.perf_counter()
                solver.fit(problem, probe_config)
                reps.append(time.perf_counter() - t0)
            timings.append((int(size), float(np.median(reps))))
    distinct = sorted({s for s, _ in timings})
    if len(distinct) < 2:
        return ProbeResult(tuple(timings), None)
    logs = np.log([s for s, _ in timings])
    logt = np.log([t for _, t in timings])
    slope = float(np.polyfit(logs, logt, 1)[0])
    return ProbeResult(tuple(timings), slope)


def test_c08_runtime_scaling():
    probe = runtime_scaling_probe([250, 500, 1000, 2000], repeats=5, max_iterations=12)
    ok = probe.slope is not None and 0.8 <= probe.slope <= 1.3
    timings = ", ".join(f"d={d}: {t * 1e3:.1f}ms" for d, t in probe.timings)
    print(
        f"criterion 08 {'PASS' if ok else 'FAIL'}: {timings}; "
        f"log-log slope {probe.slope:.3f} in [0.8, 1.3]"
    )
    assert ok


class TestRuntimeProbe:
    def test_single_size_has_no_slope(self):
        probe = runtime_scaling_probe([300], repeats=1, max_iterations=2)
        assert probe.slope is None
        assert len(probe.timings) == 1

    def test_timings_positive(self):
        probe = runtime_scaling_probe([200, 400], repeats=2, max_iterations=3)
        assert all(t > 0 for _, t in probe.timings)
        assert probe.slope is not None


def test_c09_eer_direction(acceptance_samples, fitted_batch):
    protocol = verify.Protocol(enroll_size=10, seed=0)
    trials = verify.score_trials(fitted_batch.vectors, protocol)
    _, fitted = verify.roc_and_eer(trials)
    results = verify.compare_preprocessors(
        acceptance_samples, pipeline.PipelineConfig(), protocol, include=("truncate",)
    )
    truncate = results["truncate"]["eer"]
    ok = fitted < truncate
    print(
        f"criterion 09 {'PASS' if ok else 'FAIL'}: EER fitted={fitted:.4f} < "
        f"truncate={truncate:.4f} over {len(trials)} trials, "
        f"{N_USERS} users"
    )
    assert ok, f"EER direction violated: fitted {fitted} vs truncate {truncate}"


def test_c10_preprocess_determinism(tmp_path):
    data = tmp_path / "data"
    assert cli.main(["synth", "--users", "1", "--out", str(data)]) == 0
    first = tmp_path / "first"
    code = cli.main(
        ["preprocess", "--root", str(data), "--out", str(first),
         "--terms", "3", "--max-iterations", "60"]
    )
    assert code == 0
    second = tmp_path / "second"
    assert cli.main(["rerun", str(first / "manifest.json"), "--out", str(second)]) == 0
    identical = (first / "vectors.csv").read_bytes() == (second / "vectors.csv").read_bytes()
    n_rows = len((first / "vectors.csv").read_text().strip().splitlines()) - 1
    print(
        f"criterion 10 {'PASS' if identical else 'FAIL'}: rerun from manifest produced "
        f"byte-identical vectors.csv ({n_rows} rows)"
    )
    assert identical
