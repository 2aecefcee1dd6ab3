import concurrent.futures
import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glmsub.realdata
import glmsub.simulate
from glmsub import (
    CovariateColumn,
    Criterion,
    DatasetDescriptor,
    ExponentialCovariates,
    FitResult,
    Logistic,
    MetricsRecord,
    ModelSpec,
    MultivariateNormalCovariates,
    Poisson,
    RealDataConfig,
    ScenarioConfig,
    SingularInformationError,
    UniformCovariates,
    ValidationError,
    enumerate_quadratic_models,
    gen_covariates,
    gen_response,
    model_information,
    run_ssmse_study,
    run_study,
    smse,
    ssmse,
)

from oracles import cofactor_det


class TestGenCovariates:
    def test_exponential_rate_parameterization(self, rng):
        rate = math.sqrt(3)
        dist = ExponentialCovariates(rate=rate, dimension=2)
        x = gen_covariates(dist, 1_000_000, rng)
        mean, sd = 1 / rate, 1 / rate
        bound = 3 * sd / math.sqrt(x.shape[0])
        assert np.all(np.abs(x.mean(axis=0) - mean) < bound)

    def test_normal_covariance(self, rng):
        cov = np.array([[1.5, 0.0], [0.0, 1.5]])
        dist = MultivariateNormalCovariates(mean=np.zeros(2), cov=cov)
        x = gen_covariates(dist, 1_000_000, rng)
        sample_cov = np.cov(x.T)
        n = x.shape[0]
        for i in range(2):
            for j in range(2):
                var = (cov[i, i] * cov[j, j] + cov[i, j] ** 2) / n
                assert abs(sample_cov[i, j] - cov[i, j]) < 3 * math.sqrt(var)

    def test_uniform_bounds(self, rng):
        x = gen_covariates(UniformCovariates(dimension=3), 10_000, rng)
        assert x.min() >= 0.0 and x.max() <= 1.0

    def test_normal_requires_pd(self, rng):
        dist = MultivariateNormalCovariates(
            mean=np.zeros(2), cov=np.array([[1.0, 2.0], [2.0, 1.0]])
        )
        with pytest.raises(ValidationError, match="positive definite"):
            gen_covariates(dist, 10, rng)

    def test_asymmetric_cov_rejected(self):
        with pytest.raises(ValidationError, match="symmetric"):
            MultivariateNormalCovariates(
                mean=np.zeros(2), cov=np.array([[1.0, 0.5], [0.0, 1.0]])
            )

    def test_bad_rate(self):
        with pytest.raises(ValidationError):
            ExponentialCovariates(rate=0.0, dimension=1)


class TestGenResponse:
    def test_logistic_intercept_probability(self, rng):
        # theta = (-1, 0.5, 0.1) at x = (0, 0): P(y=1) = e^-1 / (1 + e^-1).
        theta = np.array([-1.0, 0.5, 0.1])
        design = np.tile([1.0, 0.0, 0.0], (1_000_000, 1))
        y = gen_response(Logistic(), theta, design, rng)
        p = math.exp(-1) / (1 + math.exp(-1))
        assert abs(y.mean() - p) < 3 * math.sqrt(p * (1 - p) / len(y))

    def test_poisson_intercept_mean(self, rng):
        theta = np.array([1.0, 0.5, 0.1])
        design = np.tile([1.0, 0.0, 0.0], (1_000_000, 1))
        y = gen_response(Poisson(), theta, design, rng)
        assert abs(y.mean() - math.e) < 3 * math.sqrt(math.e / len(y))

    def test_zero_slopes_balanced(self, rng):
        design = np.column_stack([np.ones(200_000), rng.normal(size=200_000)])
        y = gen_response(Logistic(), np.zeros(2), design, rng)
        assert abs(y.mean() - 0.5) < 3 * math.sqrt(0.25 / len(y))

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValidationError):
            gen_response(Logistic(), np.zeros(3), np.ones((5, 2)), rng)


class TestSmse:
    def test_zero_when_exact(self):
        est = np.tile([1.0, -2.0], (6, 1))
        assert smse(est, np.array([1.0, -2.0])) == 0.0

    def test_single_value(self):
        assert smse(np.array([[3.0]]), np.array([1.0])) == pytest.approx(4.0)

    def test_two_by_two(self):
        est = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert smse(est, np.zeros(2)) == pytest.approx(1.0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_permutation_invariant_and_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        est = rng.normal(size=(7, 3))
        truth = rng.normal(size=3)
        value = smse(est, truth)
        assert value >= 0.0
        perm = rng.permutation(7)
        assert smse(est[perm], truth) == pytest.approx(value, rel=1e-12)


class TestSsmse:
    def test_single_model_reduces_to_smse(self, rng):
        est = rng.normal(size=(5, 2))
        ref = rng.normal(size=2)
        assert ssmse([est], [ref]) == pytest.approx(smse(est, ref))

    def test_zero_when_equal_to_mle(self):
        est = np.tile([0.5, 0.5], (4, 1))
        assert ssmse([est], [np.array([0.5, 0.5])]) == 0.0

    def test_two_model_composition(self, rng):
        est1, est2 = rng.normal(size=(5, 2)), rng.normal(size=(5, 3))
        ref1, ref2 = rng.normal(size=2), rng.normal(size=3)
        assert ssmse([est1, est2], [ref1, ref2]) == pytest.approx(
            smse(est1, ref1) + smse(est2, ref2)
        )

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            ssmse([np.zeros((2, 1))], [np.zeros(1), np.zeros(1)])


def make_fit(variance):
    variance = np.asarray(variance, dtype=float)
    d = variance.shape[0]
    return FitResult(
        theta=np.zeros(d),
        info_JX=np.eye(d),
        vc=np.eye(d),
        variance=variance,
        iterations=3,
    )


class TestModelInformation:
    def test_identity(self):
        assert model_information(make_fit(np.eye(3))) == pytest.approx(1.0)

    def test_diagonal_half(self):
        assert model_information(make_fit(np.diag([0.5, 0.5]))) == pytest.approx(4.0)

    def test_matches_cofactor_oracle(self, rng):
        a = rng.normal(size=(4, 4))
        spd = a @ a.T + 4 * np.eye(4)
        expected = 1.0 / cofactor_det(spd)
        assert model_information(make_fit(spd)) == pytest.approx(expected, rel=1e-10)


def tiny_config(seed=123, replicates=2, family=None, r_grid=(60,)):
    return ScenarioConfig(
        family=family or Logistic(),
        covariates=MultivariateNormalCovariates(mean=np.zeros(2), cov=1.5 * np.eye(2)),
        data_generating_model=ModelSpec(main_effects=(0, 1)),
        true_theta=np.array([-1.0, 0.5, 0.1]),
        model_set=enumerate_quadratic_models(2, (0, 1)),
        n_population=800,
        r0=40,
        r_grid=r_grid,
        n_replicates=replicates,
        master_seed=seed,
    )


def tiny_real_study():
    """An ssmse config of 3 replicates on a fixed logistic dataset."""
    data_rng = np.random.default_rng(8)
    raw = data_rng.normal(size=(600, 2))
    design = np.column_stack([np.ones(600), raw])
    y = gen_response(Logistic(), np.array([-0.4, 0.8, -0.5]), design, data_rng)
    real = RealDataConfig(
        mode="ssmse",
        family=Logistic(),
        dataset=DatasetDescriptor(
            path="unused.csv", response="y",
            covariates=(CovariateColumn("a"), CovariateColumn("b")),
        ),
        model_set=enumerate_quadratic_models(2, (0, 1)),
        criterion=Criterion.MMSE,
        eps=1e-6,
        master_seed=31,
        r0=40,
        r=None,
        r_grid=(60,),
        n_replicates=3,
        sampling_model=None,
    )
    return real, raw, y


class TestScenarioConfig:
    def test_theta_length_checked(self):
        with pytest.raises(ValidationError):
            ScenarioConfig(
                family=Logistic(),
                covariates=UniformCovariates(dimension=2),
                data_generating_model=ModelSpec(main_effects=(0, 1)),
                true_theta=np.array([1.0, 2.0]),
                model_set=enumerate_quadratic_models(2, ()),
                n_population=100,
                r0=20,
                r_grid=(40,),
                n_replicates=1,
            )

    def test_r_grid_must_ascend(self):
        with pytest.raises(ValidationError):
            tiny_config(r_grid=(100, 50))

    def test_dg_model_must_be_candidate(self):
        with pytest.raises(ValidationError):
            ScenarioConfig(
                family=Logistic(),
                covariates=UniformCovariates(dimension=2),
                data_generating_model=ModelSpec(main_effects=(0,)),
                true_theta=np.array([1.0, 0.5]),
                model_set=enumerate_quadratic_models(2, ()),
                n_population=100,
                r0=20,
                r_grid=(40,),
                n_replicates=1,
            )

    def test_scenario_labels(self):
        config = tiny_config()
        assert glmsub.simulate.scenario_labels(config.model_set) == (
            "random",
            "optimal-1",
            "optimal-2",
            "optimal-3",
            "optimal-4",
            "model-robust",
        )
        assert config.dg_index == 0


class TestRunStudy:
    def test_record_count_six_per_r(self):
        records = run_study(tiny_config(replicates=1))
        assert len(records) == 6
        labels = glmsub.simulate.scenario_labels(tiny_config().model_set)
        assert {rec.scenario for rec in records} == set(labels)
        assert all(isinstance(rec, MetricsRecord) for rec in records)
        assert all(rec.r == 60 for rec in records)
        assert all(rec.estimating_model == 1 for rec in records)

    def test_bitwise_determinism(self):
        a = run_study(tiny_config(seed=77, replicates=3))
        b = run_study(tiny_config(seed=77, replicates=3))
        assert a == b

    def test_threads_do_not_change_results(self):
        config = tiny_config(seed=31, replicates=4)
        assert run_study(config, threads=1) == run_study(config, threads=2)

        # The fixed-dataset path of the same runner.
        real, raw, y = tiny_real_study()
        one = run_ssmse_study(real, raw, y, threads=1)
        assert len(one) == 6
        assert one == run_ssmse_study(real, raw, y, threads=2)

    def test_threads_clamped_to_replicates(self, monkeypatch):
        # A fake pool that starts no process: it records the worker count
        # and runs the initializer and the tasks in this process.
        seen = {}

        class InlineExecutor:
            def __init__(self, max_workers, initializer, initargs):
                seen["max_workers"] = max_workers
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        # run_strategies imports the pool at call time, from this module.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        config = tiny_config(seed=5, replicates=3)
        assert run_study(config, threads=10_000) == run_study(config, threads=1)
        assert seen["max_workers"] <= 3

    def test_cli_import_leaves_the_pool_out(self):
        # Only --threads > 1 uses the process pool, so no command should pay
        # for importing it (multiprocessing, pickle, socket).
        code = "import sys, glmsub.cli; print('concurrent.futures' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        assert out.stdout.strip() == "False"

    def test_failure_accounting(self):
        records = run_study(tiny_config(replicates=3))
        for rec in records:
            assert 0 <= rec.n_failed <= 3
            if rec.n_failed < 3:
                assert np.isfinite(rec.smse) and rec.smse >= 0
                assert rec.mean_model_info > 0

    def test_cells_that_all_fail_give_nan_records(self):
        # Every regenerated response is 0 (P(y = 1) is about 1e-26), so no
        # strategy ever fits: each record counts all replicates as failed.
        config = dataclasses.replace(tiny_config(replicates=2), true_theta=[-60.0, 0.0, 0.0])
        records = run_study(config)
        assert len(records) == 6
        for rec in records:
            assert rec.n_failed == 2
            assert math.isnan(rec.smse) and math.isnan(rec.mean_model_info)

    def test_ssmse_cells_that_all_fail_give_nan_records(self, monkeypatch):
        # The full-data fits succeed; every run then fails in its summary.
        def singular(config, result):
            raise SingularInformationError("information matrix is singular at the optimum")

        monkeypatch.setattr(glmsub.realdata, "_model_estimates", singular)
        real, raw, y = tiny_real_study()
        records = run_ssmse_study(real, raw, y)
        assert len(records) == 6
        for rec in records:
            assert rec.n_failed == 3 and math.isnan(rec.ssmse)

    def test_degenerate_replicates_are_counted_not_fatal(self):
        # A rare-event logistic design at tiny N: many regenerated datasets
        # have no successes at all, which must surface as failed replicates
        # for the two-stage scenarios rather than aborting the study.
        config = ScenarioConfig(
            family=Logistic(),
            covariates=UniformCovariates(dimension=1),
            data_generating_model=ModelSpec(main_effects=(0,)),
            true_theta=np.array([-4.0, 0.5]),
            model_set=enumerate_quadratic_models(1, ()),
            n_population=40,
            r0=10,
            r_grid=(20,),
            n_replicates=10,
            master_seed=99,
        )
        records = run_study(config)
        optimal = next(rec for rec in records if rec.scenario == "optimal-1")
        assert 0 < optimal.n_failed <= 10

    def test_exponential_design_study_runs(self):
        config = ScenarioConfig(
            family=Logistic(),
            covariates=ExponentialCovariates(rate=math.sqrt(3), dimension=2),
            data_generating_model=ModelSpec(main_effects=(0, 1)),
            true_theta=np.array([-2.0, 1.5, 0.3]),
            model_set=enumerate_quadratic_models(2, (0, 1)),
            n_population=800,
            r0=40,
            r_grid=(80,),
            n_replicates=2,
            master_seed=17,
            criterion="mVc",
        )
        records = run_study(config)
        assert len(records) == 6
        assert all(rec.n_failed < 2 for rec in records)

    def test_poisson_study_runs(self):
        config = ScenarioConfig(
            family=Poisson(),
            covariates=MultivariateNormalCovariates(mean=np.zeros(2), cov=np.eye(2)),
            data_generating_model=ModelSpec(main_effects=(0, 1)),
            true_theta=np.array([1.0, 0.5, 0.1]),
            model_set=enumerate_quadratic_models(2, (0, 1)),
            n_population=600,
            r0=40,
            r_grid=(60, 80),
            n_replicates=2,
            master_seed=5,
        )
        records = run_study(config)
        assert len(records) == 12
