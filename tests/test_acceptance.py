"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``.

The heavier Monte Carlo checks pin every size, tolerance and seed; they
take a few minutes in total.
"""

import csv
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import stats

from glmsub import (
    Logistic,
    MetricsRecord,
    ModelSpec,
    MultivariateNormalCovariates,
    Poisson,
    ScenarioConfig,
    WeightedSample,
    build_design,
    draw_with_replacement,
    enumerate_quadratic_models,
    fit_weighted_mle,
    phi_model_robust,
    phi_single,
    run_study,
    two_stage,
    write_metrics_csv,
)
import glmsub._workers
from glmsub.cli import main as cli_main

from conftest import make_logistic_data, make_poisson_data
from oracles import (
    info_matrix_loop,
    irls_glm,
    mean_function,
    phi_model_robust_oracle,
    phi_oracle,
    weighted_loglik,
)

MASTER_SEED = 20260810  # declared up front for every Monte Carlo criterion


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {num:02d} {name}: PASS")


def table2_normal_config(family, theta, cov_scale, r_grid, replicates):
    return ScenarioConfig(
        family=family,
        covariates=MultivariateNormalCovariates(
            mean=np.zeros(2), cov=cov_scale * np.eye(2)
        ),
        data_generating_model=ModelSpec(main_effects=(0, 1)),
        true_theta=np.asarray(theta, dtype=float),
        model_set=enumerate_quadratic_models(2, (0, 1)),
        n_population=10_000,
        r0=100,
        r_grid=r_grid,
        n_replicates=replicates,
        master_seed=MASTER_SEED,
    )


def test_01_probability_oracle_agreement():
    with criterion(1, "probability formulas match direct oracles"):
        start = time.perf_counter()
        rng = np.random.default_rng(MASTER_SEED)
        for kind, family, maker in (
            ("logistic", Logistic(), make_logistic_data),
            ("poisson", Poisson(), make_poisson_data),
        ):
            x, y = maker(50, [0.3, -0.5, 0.4], rng)
            raw = x[:, 1:]
            theta = rng.normal(0, 0.3, size=3)
            for crit in ("mMSE", "mVc"):
                ours = phi_single(crit, family, theta, x, y).probs
                np.testing.assert_allclose(
                    ours, phi_oracle(crit, kind, theta, x, y), atol=1e-12
                )
            models = enumerate_quadratic_models(2, (0, 1))
            thetas = [rng.normal(0, 0.3, size=s.n_params) for s in models.specs]
            designs = [build_design(s, raw) for s in models.specs]
            for crit in ("mMSE", "mVc"):
                robust = phi_model_robust(crit, family, models, thetas, raw, y).probs
                expected = phi_model_robust_oracle(
                    crit, kind, thetas, designs, y, models.alpha
                )
                np.testing.assert_allclose(robust, expected, atol=1e-12)
        assert time.perf_counter() - start < 1.0, "runtime budget exceeded"


def test_02_optimality_of_model_averaged_probabilities():
    with criterion(2, "averaged probabilities minimize the weighted variance traces"):
        start = time.perf_counter()
        rng = np.random.default_rng(MASTER_SEED)
        n = 50
        family = Logistic()
        raw = rng.normal(size=(n, 2))
        y = rng.binomial(1, 0.4, size=n).astype(float)
        models = enumerate_quadratic_models(2, (0,))  # Q = 2
        thetas = [
            np.array([-0.3, 0.5, 0.2]),
            np.array([-0.2, 0.4, 0.1, 0.3]),
        ]  # frozen pilot estimates

        def objective(phi, trace_of):
            # Residuals and J_X from the oracles, not from glmsub's passes.
            total = 0.0
            for a, spec, th in zip(models.alpha, models.specs, thetas):
                design = build_design(spec, raw)
                res = np.abs(y - mean_function(design @ th, "logistic"))
                res2 = np.maximum(res, 1e-6) ** 2  # the default eps, as in phi_oracle
                if trace_of == "variance":
                    info = info_matrix_loop(design, th, "logistic")
                    t = np.linalg.solve(info, design.T)
                    norms2 = np.einsum("ji,ji->i", t, t)
                else:
                    norms2 = np.einsum("ij,ij->i", design, design)
                total += a * float(np.sum(res2 * norms2 / phi)) / n**2
            return total

        random_rng = np.random.default_rng(7)
        for crit, trace_of in (("mMSE", "variance"), ("mVc", "scaled-variance")):
            ours = objective(
                phi_model_robust(crit, family, models, thetas, raw, y).probs, trace_of
            )
            for _ in range(200):
                u = random_rng.random(n) + 1e-12
                other = objective(u / u.sum(), trace_of)
                assert ours <= other + 1e-9
        assert time.perf_counter() - start < 10.0, "runtime budget exceeded"


def test_03_model_robust_reduces_to_single_model():
    with criterion(3, "Q=1 model-robust run is bitwise identical to single-model"):
        rng = np.random.default_rng(MASTER_SEED)
        x, y = make_logistic_data(2000, [-0.5, 0.4, 0.2], rng)
        raw = x[:, 1:]
        models = enumerate_quadratic_models(2, ())  # Q = 1
        for crit in ("mMSE", "mVc"):
            single = two_stage(
                Logistic(), models, raw, y, 50, 120,
                np.random.default_rng(3), criterion=crit, sampling_model=0,
            )
            robust = two_stage(
                Logistic(), models, raw, y, 50, 120,
                np.random.default_rng(3), criterion=crit, sampling_model=None,
            )
            assert np.array_equal(single.stage2_probs.probs, robust.stage2_probs.probs)


def test_04_weighted_mle_matches_irls_and_finite_differences():
    with criterion(4, "weighted MLE matches IRLS oracle and analytic score"):
        rng = np.random.default_rng(MASTER_SEED)
        for kind, family, maker in (
            ("logistic", Logistic(), make_logistic_data),
            ("poisson", Poisson(), make_poisson_data),
        ):
            for _ in range(20):
                theta_true = rng.normal(0, 0.4, size=3)
                n = int(rng.integers(60, 200))
                x, y = maker(n, theta_true, rng)
                fit = fit_weighted_mle(
                    family,
                    WeightedSample(x, y, np.full(n, 1.0 / n)),
                    tol=1e-10,
                )
                oracle = irls_glm(x, y, kind)
                assert np.max(np.abs(fit.theta - oracle)) < 1e-6

            # the score's weights: the fit on unequal probabilities is a
            # stationary point of the oracle weighted log-likelihood
            x, y = maker(80, [0.2, -0.3, 0.5], rng)
            probs = rng.uniform(0.2, 1.0, size=80)
            rng.normal(0, 0.3, size=3)  # drawn only so that the Poisson rows keep their values
            theta = fit_weighted_mle(family, WeightedSample(x, y, probs), tol=1e-10).theta
            h = 1e-6
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                fd = (
                    weighted_loglik(kind, theta + e, x, y, probs)
                    - weighted_loglik(kind, theta - e, x, y, probs)
                ) / (2 * h)
                assert abs(fd) < 1e-8


def test_05_logistic_smse_ordering_at_desk_scale(monkeypatch):
    with criterion(5, "logistic SMSE ordering: optimal <= model-robust, random far worse"):
        start = time.perf_counter()
        config = table2_normal_config(
            Logistic(), [-1.0, 0.5, 0.1], cov_scale=1.5, r_grid=(1400,), replicates=200
        )
        monkeypatch.setattr(glmsub._workers, "_cpu_budget", lambda: 2)
        records = {rec.scenario: rec.smse for rec in run_study(config)}
        opt = records["optimal-1"]  # the data-generating model
        robust = records["model-robust"]
        rand = records["random"]
        assert time.perf_counter() - start < 600.0, "runtime budget exceeded"
        problems = []
        if not opt <= robust:
            problems.append(f"optimal(true)={opt:.6f} > model-robust={robust:.6f}")
        if not robust <= 1.25 * opt:
            problems.append(
                f"model-robust={robust:.6f} exceeds 1.25 x optimal(true)={1.25 * opt:.6f}"
            )
        if not rand >= 1.3 * robust:
            problems.append(
                f"random={rand:.6f} below 1.3 x model-robust={1.3 * robust:.6f}"
            )
        assert not problems, "; ".join(problems)


def test_06_poisson_smse_ordering_at_desk_scale(monkeypatch):
    with criterion(6, "Poisson SMSE: model-robust within 25% of optimal, below random"):
        config = table2_normal_config(
            Poisson(), [1.0, 0.5, 0.1], cov_scale=1.0, r_grid=(1400,), replicates=200
        )
        monkeypatch.setattr(glmsub._workers, "_cpu_budget", lambda: 2)
        records = {rec.scenario: rec.smse for rec in run_study(config)}
        opt = records["optimal-1"]
        robust = records["model-robust"]
        rand = records["random"]
        assert abs(robust - opt) <= 0.25 * opt, (
            f"model-robust={robust:.6f} not within 25% of optimal(true)={opt:.6f}"
        )
        assert robust < rand, f"model-robust={robust:.6f} not below random={rand:.6f}"


def test_07_convergence_rate_slope():
    with criterion(7, "squared distance to full MLE decays like 1/r"):
        family = Logistic()
        data_rng = np.random.default_rng(MASTER_SEED)
        n = 10_000
        raw = data_rng.multivariate_normal([0, 0], 1.5 * np.eye(2), size=n)
        design = np.column_stack([np.ones(n), raw])
        theta_true = np.array([-1.0, 0.5, 0.1])
        y = data_rng.binomial(1, 1 / (1 + np.exp(-design @ theta_true))).astype(float)
        models = enumerate_quadratic_models(2, ())  # the true model only
        mle = irls_glm(design, y, "logistic")

        r_grid = np.arange(100, 1401, 100)
        mean_sq = []
        for j, r in enumerate(r_grid):
            errs = []
            for m in range(100):
                rng = np.random.default_rng(
                    np.random.SeedSequence([MASTER_SEED, m, j])
                )
                res = two_stage(
                    family, models, raw, y, 100, int(r), rng,
                    criterion="mMSE", sampling_model=0,
                )
                errs.append(float(np.sum((res.fits[0].theta - mle) ** 2)))
            mean_sq.append(np.mean(errs))
        slope = float(np.polyfit(np.log(r_grid), np.log(mean_sq), 1)[0])
        assert -1.3 <= slope <= -0.7, f"slope {slope:.3f} outside [-1.3, -0.7]"


def test_08_variance_estimator_tracks_sampling_variance():
    with criterion(8, "sandwich variance matches empirical estimator variance"):
        family = Logistic()
        data_rng = np.random.default_rng(MASTER_SEED)
        n = 5000
        raw = data_rng.multivariate_normal([0, 0], 1.5 * np.eye(2), size=n)
        design = np.column_stack([np.ones(n), raw])
        theta_true = np.array([-1.0, 0.5, 0.1])
        y = data_rng.binomial(1, 1 / (1 + np.exp(-design @ theta_true))).astype(float)
        models = enumerate_quadratic_models(2, ())

        thetas, diags = [], []
        for m in range(500):
            rng = np.random.default_rng(np.random.SeedSequence([MASTER_SEED, m]))
            res = two_stage(
                family, models, raw, y, 100, 500, rng,
                criterion="mMSE", sampling_model=0,
            )
            thetas.append(res.fits[0].theta)
            diags.append(np.diag(res.fits[0].variance))
        empirical = np.var(np.asarray(thetas), axis=0, ddof=1)
        estimated = np.mean(np.asarray(diags), axis=0)
        ratios = empirical / estimated
        assert np.all(ratios < 1.5) and np.all(ratios > 1 / 1.5), (
            f"variance ratios {ratios} outside [1/1.5, 1.5]"
        )


def test_09_alias_sampler_goodness_of_fit():
    with criterion(9, "weighted sampler passes chi-square goodness of fit"):
        rng = np.random.default_rng(MASTER_SEED)
        probs3 = np.array([0.2, 0.3, 0.5])
        counts = np.bincount(draw_with_replacement(probs3, 120_000, rng), minlength=3)
        _, p3 = stats.chisquare(counts, 120_000 * probs3)
        assert p3 > 0.001, f"N=3 fixture p={p3}"

        weights = np.random.default_rng(5).uniform(0.2, 3.0, size=1000)
        probs1000 = weights / weights.sum()
        counts = np.bincount(
            draw_with_replacement(probs1000, 250_000, rng), minlength=1000
        )
        _, p1000 = stats.chisquare(counts, 250_000 * probs1000)
        assert p1000 > 0.001, f"N=1000 fixture p={p1000}"


def test_10_cli_determinism_and_round_trip(tmp_path, monkeypatch):
    with criterion(10, "CLI artifacts are seed-deterministic and re-parseable"):
        config = tmp_path / "run.yaml"
        config.write_text(
            """
mode: simulate
family: logistic
seed: 11
r0: 30
r_grid: [50, 80]
population: 800
replicates: 3
covariates:
  distribution: normal
  dimension: 2
  mean: [0.0, 0.0]
  covariance: [[1.5, 0.0], [0.0, 1.5]]
data_generating:
  quadratic_terms: []
  theta: [-1.0, 0.5, 0.1]
""",
            encoding="utf-8",
        )
        outs = [tmp_path / f"m{i}.csv" for i in range(3)]
        for out, cpus in zip(outs, (2, 2, 1)):  # the last run keeps one process
            monkeypatch.setattr(glmsub._workers, "_cpu_budget", lambda: cpus)
            assert cli_main(["simulate", str(config), "--seed", "9", "--out", str(out)]) == 0
        blobs = [out.read_bytes() for out in outs]
        assert blobs[0] == blobs[1] == blobs[2]

        with open(outs[0], newline="", encoding="utf-8") as fh:
            _, *rows = csv.reader(fh)
        assert len(rows) == 12  # 6 scenarios x 2 subsample sizes
        records = [
            MetricsRecord(s, int(q), int(r), float(v), float(i), int(f))
            for s, q, r, v, i, f in rows
        ]
        rewritten = tmp_path / "rt.csv"
        write_metrics_csv(records, rewritten)
        assert rewritten.read_bytes() == outs[0].read_bytes()
