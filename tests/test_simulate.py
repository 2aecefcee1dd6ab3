import dataclasses
import math
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glmsub._workers
import glmsub.realdata
import glmsub.simulate
import glmsub.twostage
from glmsub import (
    ConfigError,
    CovariateColumn,
    Criterion,
    DatasetDescriptor,
    ExponentialCovariates,
    FitError,
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
from glmsub._artifacts import write_metrics_csv

from oracles import cofactor_det


def _kill_this_process():
    os.kill(os.getpid(), signal.SIGKILL)


def _usable_cpus(monkeypatch, n):
    monkeypatch.setattr(glmsub._workers, "_cpu_budget", lambda: n)


def _openblas_thread_getter():
    """The thread-count getter of a loaded OpenBLAS, or None: the first of
    the scipy-openblas, 64-bit-integer and plain names that it exports,
    the order in which glmsub._workers looks them up."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                return getter
    return None


def _threads_after_a_gram():
    """This process's OS thread count after a product the shape of ssmse's
    full-data Gram."""
    np.ones((32, 8192)) @ np.ones((8192, 46))
    with open("/proc/self/status", encoding="utf-8") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))


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

    def test_cov_shape_must_match_mean(self):
        with pytest.raises(ConfigError, match=r"shape \(3, 3\) does not match mean length 2") as excinfo:
            MultivariateNormalCovariates(mean=np.zeros(2), cov=np.eye(3))
        assert excinfo.value.key == "covariates.covariance"

    def test_asymmetric_cov_rejected(self):
        with pytest.raises(ValidationError, match="symmetric"):
            MultivariateNormalCovariates(
                mean=np.zeros(2), cov=np.array([[1.0, 0.5], [0.0, 1.0]])
            )

    def test_bad_rate(self):
        with pytest.raises(ValidationError):
            ExponentialCovariates(rate=0.0, dimension=1)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ExponentialCovariates(rate=1.0, dimension=0),
            lambda: UniformCovariates(dimension=0),
            lambda: MultivariateNormalCovariates(mean=np.zeros(0), cov=np.zeros((0, 0))),
        ],
        ids=["exponential", "uniform", "normal"],
    )
    def test_dimension_below_one(self, make):
        with pytest.raises(ConfigError) as excinfo:
            make()
        assert excinfo.value.key == "covariates.dimension"

    @pytest.mark.parametrize(
        "make, key",
        [
            (lambda: ExponentialCovariates(rate=math.nan, dimension=1), "covariates.rate"),
            (lambda: ExponentialCovariates(rate=math.inf, dimension=1), "covariates.rate"),
            (
                lambda: MultivariateNormalCovariates(mean=[0.0, math.nan], cov=np.eye(2)),
                "covariates.mean",
            ),
            (
                lambda: MultivariateNormalCovariates(mean=[0.0, math.inf], cov=np.eye(2)),
                "covariates.mean",
            ),
            (
                lambda: MultivariateNormalCovariates(mean=np.zeros(2), cov=np.diag([1.0, math.nan])),
                "covariates.covariance",
            ),
        ],
        ids=["rate-nan", "rate-inf", "mean-nan", "mean-inf", "covariance-nan"],
    )
    def test_non_finite_parameters_name_their_key(self, make, key):
        # A NaN rate or mean would make NaN covariates, an infinite rate
        # all-zero ones, and a NaN covariance is not "asymmetric".
        with pytest.raises(ConfigError, match="must be finite") as excinfo:
            make()
        assert excinfo.value.key == key

    def test_zero_rows_rejected(self, rng):
        with pytest.raises(ValidationError, match="need n >= 1, got 0"):
            gen_covariates(UniformCovariates(dimension=2), 0, rng)


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

    def test_column_mismatch(self):
        with pytest.raises(ValidationError, match="2 columns but truth has length 3"):
            smse(np.zeros((4, 2)), np.zeros(3))

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

    @pytest.mark.parametrize("diagonal", [[1.0, 0.0], [1.0, -1.0]], ids=["singular", "indefinite"])
    def test_singular_or_indefinite_variance(self, diagonal):
        with pytest.raises(FitError, match="singular or indefinite"):
            model_information(make_fit(np.diag(diagonal)))

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


class TestRealDataConfig:
    @pytest.mark.parametrize(
        "field, value, key",
        [
            ("n_replicates", 0, "replicates"),
            ("master_seed", -1, "seed"),
            ("eps", -1e-6, "eps"),
            ("r_grid", (), "r_grid"),
            ("r_grid", (80, 60), "r_grid"),
            ("r0", 5, "r0"),
            ("r_grid", (39,), "r_grid"),
            ("sampling_model", 4, "sampling_model"),
            ("sampling_model", -1, "sampling_model"),
            ("r", 39, "r"),
            ("criterion", "bogus", "criterion"),
            ("criterion", "uniform", "criterion"),
        ],
        ids=[
            "replicates-zero", "seed-negative", "eps-negative", "r-grid-empty",
            "r-grid-descending", "r0-below-model-size", "r-grid-below-r0",
            "sampling-model-above", "sampling-model-below", "r-below-r0",
            "criterion-unknown", "criterion-not-optimality",
        ],
    )
    def test_run_rules_name_their_key(self, field, value, key):
        # The same rules as ScenarioConfig, from the same function.
        real, _, _ = tiny_real_study()
        with pytest.raises(ConfigError) as excinfo:
            dataclasses.replace(real, **{field: value})
        assert excinfo.value.key == key

    def test_squared_covariates_must_be_continuous(self):
        real, _, _ = tiny_real_study()
        dataset = dataclasses.replace(
            real.dataset, covariates=(CovariateColumn("a"), CovariateColumn("b", continuous=False))
        )
        with pytest.raises(ConfigError, match=r"\['b'\] are not continuous") as excinfo:
            dataclasses.replace(real, dataset=dataset)
        assert excinfo.value.key == "model_set.quadratic_over"


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

    @pytest.mark.parametrize(
        "field, value, key",
        [
            ("n_replicates", 0, "replicates"),
            ("master_seed", -1, "seed"),
            ("eps", 0.0, "eps"),
            ("eps", np.nan, "eps"),
            ("eps", np.inf, "eps"),
            ("r_grid", (), "r_grid"),
            ("r_grid", (60, 60), "r_grid"),
            ("r0", 5, "r0"),
            ("r_grid", (39,), "r_grid"),
            ("n_population", 5, "population"),
            ("criterion", "bogus", "criterion"),
            ("criterion", "uniform", "criterion"),
        ],
        ids=[
            "replicates-zero", "seed-negative", "eps-zero", "eps-nan", "eps-inf", "r-grid-empty",
            "r-grid-repeated", "r0-below-model-size", "r-grid-below-r0", "population-small",
            "criterion-unknown", "criterion-not-optimality",
        ],
    )
    def test_run_rules_name_their_key(self, field, value, key):
        # Four candidates, the largest with 5 parameters: r0 >= 6.
        with pytest.raises(ConfigError) as excinfo:
            dataclasses.replace(tiny_config(), **{field: value})
        assert excinfo.value.key == key

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

    def test_worker_count_does_not_change_results(self, monkeypatch):
        config = tiny_config(seed=31, replicates=4)
        real, raw, y = tiny_real_study()  # the fixed-dataset path of the same runner
        runs = []
        for cpus in (1, 2):
            _usable_cpus(monkeypatch, cpus)
            runs.append((run_study(config), run_ssmse_study(real, raw, y)))
        assert len(runs[0][1]) == 6
        assert runs[0] == runs[1]

    def test_workers_clamped_to_replicates(self, monkeypatch, forks):
        # The runner starts at most one worker per replicate whatever the
        # CPU budget allows, and none when one CPU is usable.
        _usable_cpus(monkeypatch, 64)
        config = tiny_config(seed=5, replicates=3)
        many = run_study(config)
        assert len(forks) == 3
        forks.clear()
        _usable_cpus(monkeypatch, 1)
        assert run_study(config) == many
        assert forks == []

    def test_library_forks_one_worker_per_usable_cpu(self, monkeypatch, forks):
        # The library runs the processes the CLI runs: with 2 usable CPUs,
        # 2 workers take the 3 replicates, and ssmse's full-data fit.
        _usable_cpus(monkeypatch, 2)
        run_study(tiny_config(seed=5, replicates=3))
        assert len(forks) == 2
        forks.clear()
        real, raw, y = tiny_real_study()
        run_ssmse_study(real, raw, y)
        assert len(forks) == 2

    @pytest.mark.parametrize("allowed", [0, 1])
    def test_refused_fork_runs_every_task_here(self, monkeypatch, allowed):
        # The first ``allowed`` forks succeed and the next one fails: the
        # worker already started is stopped and reaped, and the caller runs
        # all replicates itself.
        config = tiny_config(seed=13, replicates=3)
        _usable_cpus(monkeypatch, 1)
        serial = run_study(config)
        fork = os.fork
        calls = []

        def refuse_after_allowed():
            calls.append(1)
            if len(calls) > allowed:
                raise OSError("Resource temporarily unavailable")
            return fork()

        _usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", refuse_after_allowed)
        assert run_study(config) == serial
        assert len(calls) == allowed + 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_worker_error_keeps_its_class_and_key(self, monkeypatch):
        # Every replicate fails to draw its covariates; the worker's
        # ConfigError, whose constructor takes two arguments, reaches the
        # caller as the serial run raises it.
        not_pd = MultivariateNormalCovariates(mean=np.zeros(2), cov=np.array([[1.0, 2.0], [2.0, 1.0]]))
        config = dataclasses.replace(tiny_config(), covariates=not_pd)
        for cpus in (1, 2):
            _usable_cpus(monkeypatch, cpus)
            with pytest.raises(ConfigError, match="positive definite") as info:
                run_study(config)
            assert info.value.key == "covariates.covariance"

    def test_dead_worker_is_reported_at_once(self, monkeypatch):
        # Worker 1 dies while worker 0 still sleeps: the error comes before
        # worker 0 would finish, and worker 0 is stopped and reaped.
        _usable_cpus(monkeypatch, 2)
        started = time.monotonic()
        with pytest.raises(ChildProcessError, match="killed by signal 9"):
            glmsub._workers._fork_map([lambda: time.sleep(2), _kill_this_process])
        assert time.monotonic() - started < 1.0
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_task_maps_its_own_tasks_inline(self, monkeypatch, forks):
        # A replicate that reaches a forked phase (a large parse or robust
        # scoring) runs it in its own process: no grandchildren.
        _usable_cpus(monkeypatch, 2)
        fork_map = glmsub._workers._fork_map

        def task():
            return os.getpid(), fork_map([os.getpid, os.getpid])

        results = fork_map([task, task])
        assert len(forks) == 2
        for pid, inner in results:
            assert pid != os.getpid() and inner == [pid, pid]
        assert results[0][0] != results[1][0]

    def test_workers_run_one_blas_thread_and_the_caller_keeps_its_count(self, monkeypatch):
        # Each worker inherits one OpenBLAS thread and starts no pool; the
        # caller's count is back after a normal return, a worker's exception,
        # a dead worker and a refused fork, whose rerun in the caller runs
        # at the caller's count.
        if not sys.platform.startswith("linux") or (getter := _openblas_thread_getter()) is None:
            pytest.skip("no OpenBLAS thread getter is loaded")
        _usable_cpus(monkeypatch, 2)
        fork_map = glmsub._workers._fork_map
        before = getter()
        assert fork_map([_threads_after_a_gram, _threads_after_a_gram]) == [1, 1]
        assert getter() == before
        with pytest.raises(ZeroDivisionError):
            fork_map([_threads_after_a_gram, lambda: 1 / 0])
        assert getter() == before
        with pytest.raises(ChildProcessError):
            fork_map([_threads_after_a_gram, _kill_this_process])
        assert getter() == before

        def refuse():
            raise OSError("Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", refuse)
        assert fork_map([getter, getter]) == [before, before]
        assert getter() == before

    def test_cli_import_leaves_the_pool_out(self):
        # Every worker process is forked, so no command should pay for
        # importing a pool (multiprocessing, socket) or subprocess.
        code = (
            "import sys, glmsub.cli; "
            "print('concurrent.futures' in sys.modules or 'subprocess' in sys.modules)"
        )
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

    def test_stage1_probabilities_are_built_once_per_replicate(self, monkeypatch, tmp_path):
        # The stage-1 vector and its CDF depend on the responses alone: one
        # build per replicate serves its Q + 1 two-stage strategies, and the
        # metrics bytes are those of each strategy building its own.
        calls = []
        initial = glmsub.twostage.initial_probabilities

        def counted(family, y):
            calls.append(1)
            return initial(family, y)

        monkeypatch.setattr(glmsub.twostage, "initial_probabilities", counted)
        _usable_cpus(monkeypatch, 1)  # the replicates run, and count, here
        config = tiny_config(seed=41, replicates=2)
        write_metrics_csv(run_study(config), tmp_path / "shared.csv")
        assert len(calls) == 2

        # With no prebuilt pair, each strategy's _two_stage builds its own.
        monkeypatch.setattr(glmsub.simulate, "_stage1_sampler", lambda family, y: None)
        calls.clear()
        write_metrics_csv(run_study(config), tmp_path / "rebuilt.csv")
        assert len(calls) == 2 * (len(config.model_set) + 1)
        assert (tmp_path / "shared.csv").read_bytes() == (tmp_path / "rebuilt.csv").read_bytes()

    def test_degenerate_response_fails_each_two_stage_strategy(self, monkeypatch):
        # The stage-1 build raises for an all-zero logistic response inside
        # the failure guard: every two-stage strategy fails in turn, and
        # the random strategy, which needs no stage-1 probabilities, runs.
        builds, randoms = [], []
        sampler = glmsub.simulate._stage1_sampler

        def counted_sampler(family, y):
            builds.append(1)
            return sampler(family, y)

        def random_baseline(*args):
            randoms.append(1)
            return "random result"

        monkeypatch.setattr(glmsub.simulate, "_stage1_sampler", counted_sampler)
        monkeypatch.setattr(glmsub.simulate, "random_sampling_baseline", random_baseline)
        config = tiny_config(r_grid=(60, 80))
        raw = np.random.default_rng(3).normal(size=(800, 2))
        out = glmsub.simulate._run_replicate(
            config, (raw, np.zeros(800)), lambda config, result: result, 0
        )
        labels = glmsub.simulate.scenario_labels(config.model_set)
        assert out == {
            (label, r): "random result" if label == "random" else None
            for r in (60, 80) for label in labels
        }
        assert len(randoms) == 2
        assert len(builds) == 2 * (len(labels) - 1)

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
