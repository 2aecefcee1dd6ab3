import math
import tracemalloc
import warnings

import numpy as np
import pytest

import glmsub.fitting
from glmsub import (
    LazyDesign,
    Logistic,
    NonConvergenceError,
    NumericOverflowError,
    SingularInformationError,
    ValidationError,
    WeightedSample,
    build_design,
    enumerate_quadratic_models,
    fit_weighted_mle,
    fit_weighted_mles,
    full_data_mles,
    full_information,
    phi_single,
    score_and_hessian,
    weighted_loglik,
)

from conftest import make_logistic_data, make_poisson_data
from oracles import info_matrix_loop, irls_glm


def uniform_sample(x, y):
    return WeightedSample(design=x, response=y, probs=np.full(len(y), 1.0 / len(y)))


class CountingLogistic(Logistic):
    """Logistic family that counts its mean evaluations."""

    def __init__(self):
        self.mean_calls = 0

    def mean(self, eta):
        self.mean_calls += 1
        return super().mean(eta)


class TestWeightedSample:
    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            WeightedSample(np.ones((3, 2)), np.zeros(2), np.full(3, 0.5))

    def test_prob_range(self):
        with pytest.raises(ValidationError):
            WeightedSample(np.ones((2, 1)), np.zeros(2), np.array([0.5, 0.0]))
        with pytest.raises(ValidationError):
            WeightedSample(np.ones((2, 1)), np.zeros(2), np.array([0.5, 1.5]))
        with pytest.raises(ValidationError):
            WeightedSample(np.ones((2, 1)), np.zeros(2), np.array([np.nan, np.nan]))


class TestWeightedLoglik:
    def test_logistic_single_row(self, logistic):
        sample = WeightedSample(np.array([[1.0]]), np.array([1.0]), np.array([1.0]))
        assert weighted_loglik(logistic, np.array([0.0]), sample) == pytest.approx(
            -math.log(2), rel=1e-12
        )

    def test_poisson_single_row(self, poisson):
        sample = WeightedSample(np.array([[1.0]]), np.array([0.0]), np.array([1.0]))
        assert weighted_loglik(poisson, np.array([0.0]), sample) == pytest.approx(-1.0)

    def test_dimension_mismatch(self, logistic):
        sample = WeightedSample(np.ones((3, 2)), np.zeros(3), np.full(3, 0.5))
        with pytest.raises(ValidationError):
            weighted_loglik(logistic, np.zeros(3), sample)

    @pytest.mark.parametrize("kind", ["logistic", "poisson"])
    def test_duplication_scaling(self, kind, logistic, poisson, rng):
        # Duplicating every row while halving every probability doubles the
        # objective pointwise, so the maximizer is unchanged.  Checked
        # against a grid-search argmax, independent of any solver.
        family = logistic if kind == "logistic" else poisson
        x = rng.normal(size=(5, 1))
        y = (
            rng.binomial(1, 0.5, size=5).astype(float)
            if kind == "logistic"
            else rng.poisson(1.0, size=5).astype(float)
        )
        probs = rng.uniform(0.1, 0.9, size=5)
        base = WeightedSample(x, y, probs)
        doubled = WeightedSample(
            np.vstack([x, x]), np.concatenate([y, y]), np.concatenate([probs, probs]) / 2
        )
        grid = np.linspace(-3.0, 3.0, 1201)
        vals_base = np.array([weighted_loglik(family, np.array([t]), base) for t in grid])
        vals_doubled = np.array(
            [weighted_loglik(family, np.array([t]), doubled) for t in grid]
        )
        np.testing.assert_allclose(vals_doubled, 2.0 * vals_base, rtol=1e-12)
        assert grid[np.argmax(vals_base)] == grid[np.argmax(vals_doubled)]

    @pytest.mark.parametrize("kind", ["logistic", "poisson"])
    def test_score_matches_finite_differences(self, kind, logistic, poisson, rng):
        family = logistic if kind == "logistic" else poisson
        maker = make_logistic_data if kind == "logistic" else make_poisson_data
        for _ in range(5):
            theta_true = rng.normal(0, 0.4, size=3)
            x, y = maker(40, theta_true, rng)
            probs = rng.uniform(0.2, 1.0, size=40)
            sample = WeightedSample(x, y, probs)
            theta = rng.normal(0, 0.3, size=3)
            g, _ = score_and_hessian(family, theta, sample)
            h = 1e-6
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                fd = (
                    weighted_loglik(family, theta + e, sample)
                    - weighted_loglik(family, theta - e, sample)
                ) / (2 * h)
                # weighted_loglik carries a 1/n factor that the raw score sum
                # does not.
                np.testing.assert_allclose(g[j] / len(y), fd, rtol=1e-5, atol=1e-8)


class TestFitWeightedMle:
    @pytest.mark.parametrize("kind", ["logistic", "poisson"])
    def test_matches_irls_oracle(self, kind, logistic, poisson, rng):
        family = logistic if kind == "logistic" else poisson
        maker = make_logistic_data if kind == "logistic" else make_poisson_data
        x, y = maker(200, [0.3, -0.5, 0.8], rng)
        fit = fit_weighted_mle(family, uniform_sample(x, y), tol=1e-10)
        oracle = irls_glm(x, y, kind)
        assert np.max(np.abs(fit.theta - oracle)) < 1e-6

    def test_matches_irls_on_tiny_dataset(self, logistic):
        # 20 rows, intercept + 1 covariate.
        rng = np.random.default_rng(8)
        x, y = make_logistic_data(20, [0.2, 0.6], rng)
        fit = fit_weighted_mle(logistic, uniform_sample(x, y), tol=1e-10)
        assert np.max(np.abs(fit.theta - irls_glm(x, y, "logistic"))) < 1e-6

    def test_poisson_intercept_only(self, poisson):
        x = np.ones((3, 1))
        y = np.array([2.0, 2.0, 2.0])
        fit = fit_weighted_mle(poisson, uniform_sample(x, y), tol=1e-12)
        np.testing.assert_allclose(fit.theta, [math.log(2)], rtol=1e-10)

    def test_separated_logistic_raises(self, logistic):
        x = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        with pytest.raises(NonConvergenceError) as excinfo:
            fit_weighted_mle(logistic, uniform_sample(x, y))
        assert excinfo.value.theta is not None

    def test_rank_deficient_design_raises(self, logistic, rng):
        col = rng.normal(size=20)
        x = np.column_stack([np.ones(20), col, col])  # duplicated column
        y = rng.binomial(1, 0.5, size=20).astype(float)
        with pytest.raises(SingularInformationError):
            fit_weighted_mle(logistic, uniform_sample(x, y))

    def test_too_few_rows(self, logistic):
        with pytest.raises(ValidationError):
            fit_weighted_mle(
                logistic, WeightedSample(np.ones((1, 2)), np.zeros(1), np.ones(1))
            )

    def test_variance_reproduces_sandwich(self, logistic, rng):
        x, y = make_logistic_data(150, [0.2, 0.7], rng)
        probs = rng.uniform(0.1, 1.0, size=150)
        fit = fit_weighted_mle(logistic, WeightedSample(x, y, probs))
        recomputed = np.linalg.inv(fit.info_JX) @ fit.vc @ np.linalg.inv(fit.info_JX)
        np.testing.assert_allclose(fit.variance, recomputed, rtol=1e-10)
        np.testing.assert_allclose(fit.variance, fit.variance.T, rtol=0, atol=0)

    def test_info_positive_definite_at_optimum(self, poisson, rng):
        x, y = make_poisson_data(120, [0.5, 0.3], rng)
        fit = fit_weighted_mle(poisson, uniform_sample(x, y))
        assert np.all(np.linalg.eigvalsh(fit.info_JX) > 0)

    def test_optimum_is_local_max(self, logistic, rng):
        x, y = make_logistic_data(100, [0.1, -0.4, 0.6], rng)
        probs = rng.uniform(0.3, 1.0, size=100)
        sample = WeightedSample(x, y, probs)
        fit = fit_weighted_mle(logistic, sample, tol=1e-10)
        best = weighted_loglik(logistic, fit.theta, sample)
        for _ in range(100):
            delta = rng.normal(0, 1e-3, size=3)
            assert weighted_loglik(logistic, fit.theta + delta, sample) <= best + 1e-12

    def test_probability_scale_invariance(self, poisson, rng):
        # Multiplying every probability by a constant rescales the
        # objective but not its maximizer.
        x, y = make_poisson_data(80, [0.4, 0.2], rng)
        probs = rng.uniform(0.4, 1.0, size=80)
        fit_a = fit_weighted_mle(poisson, WeightedSample(x, y, probs), tol=1e-10)
        fit_b = fit_weighted_mle(poisson, WeightedSample(x, y, probs / 2), tol=1e-10)
        np.testing.assert_allclose(fit_a.theta, fit_b.theta, rtol=1e-12)

    def test_population_size_normalization(self, logistic, rng):
        # info_JX = 1/(N n) sum w x x^T / p  and  vc = 1/(N^2 n^2)
        # sum (y-mu)^2 x x^T / p^2, checked against an explicit loop.
        n, big_n = 25, 400
        x, y = make_logistic_data(n, [0.2, 0.5], rng)
        probs = rng.uniform(1e-3, 3e-3, size=n)
        fit = fit_weighted_mle(logistic, WeightedSample(x, y, probs), population_size=big_n)
        eta = x @ fit.theta
        mu = 1.0 / (1.0 + np.exp(-eta))
        w = mu * (1 - mu)
        info = np.zeros((2, 2))
        vc = np.zeros((2, 2))
        for i in range(n):
            info += w[i] * np.outer(x[i], x[i]) / probs[i]
            vc += (y[i] - mu[i]) ** 2 * np.outer(x[i], x[i]) / probs[i] ** 2
        np.testing.assert_allclose(fit.info_JX, info / (big_n * n), rtol=1e-12)
        np.testing.assert_allclose(fit.vc, vc / (big_n**2 * n**2), rtol=1e-12)

    def test_variance_free_of_population_size(self, logistic, rng):
        x, y = make_logistic_data(60, [0.2, 0.5], rng)
        probs = rng.uniform(0.001, 0.01, size=60)
        fit_a = fit_weighted_mle(logistic, WeightedSample(x, y, probs), population_size=500)
        fit_b = fit_weighted_mle(logistic, WeightedSample(x, y, probs), population_size=5000)
        np.testing.assert_allclose(fit_a.variance, fit_b.variance, rtol=1e-9)


def lone_fit(family, sample, cols, **kwargs):
    """``fit_weighted_mle`` on one model's columns of a union-design sample."""
    own = WeightedSample(sample.design[:, cols], sample.response, sample.probs)
    return fit_weighted_mle(family, own, **kwargs)


def raised(call):
    with pytest.raises((ValidationError, NonConvergenceError, SingularInformationError)) as excinfo:
        call()
    return excinfo.value


def assert_same_error(batched, alone):
    assert type(batched) is type(alone)
    assert str(batched) == str(alone)
    if isinstance(alone, NonConvergenceError):
        # Diverging iterates agree in length, not in their last digits.
        assert batched.iterations == alone.iterations
        assert batched.theta.shape == alone.theta.shape


class TestBatchedFits:
    """``fit_weighted_mles`` fits every model of a union design in one
    Newton loop; each model must come out as a lone fit on its columns."""

    @staticmethod
    def weighted_sample(kind, rng, n=300):
        # Models of 4 to 7 parameters over three covariates.  Each row's
        # probability is 1/m for a multiplicity m, so the weighted MLE is the
        # unweighted MLE of the data with row l repeated m_l times.
        models = enumerate_quadratic_models(3, [0, 1, 2])
        raw = rng.normal(0.0, 0.7, size=(n, 3))
        eta = 0.3 + raw @ np.array([0.5, -0.4, 0.3]) + 0.2 * raw[:, 0] ** 2
        if kind == "logistic":
            y = rng.binomial(1, 1.0 / (1.0 + np.exp(-eta))).astype(float)
        else:
            y = rng.poisson(np.exp(eta)).astype(float)
        mult = rng.integers(1, 4, size=n)
        sample = WeightedSample(build_design(models.full_spec, raw), y, 1.0 / mult)
        return models, sample, mult

    @pytest.mark.parametrize("kind", ["logistic", "poisson"])
    def test_each_model_matches_a_lone_fit(self, kind, logistic, poisson, rng):
        family = logistic if kind == "logistic" else poisson
        models, sample, mult = self.weighted_sample(kind, rng)
        assert sorted({len(cols) for cols in models.columns}) == [4, 5, 6, 7]
        fits = fit_weighted_mles(family, sample, models.columns, population_size=5000)
        precise = fit_weighted_mles(family, sample, models.columns, tol=1e-10)
        for cols, fit, fine in zip(models.columns, fits, precise):
            alone = lone_fit(family, sample, cols, population_size=5000)
            assert fit.iterations == alone.iterations
            for name in ("theta", "info_JX", "vc", "variance"):
                np.testing.assert_allclose(getattr(fit, name), getattr(alone, name), rtol=1e-10)
            oracle = irls_glm(
                np.repeat(sample.design[:, cols], mult, axis=0),
                np.repeat(sample.response, mult),
                kind,
            )
            assert np.max(np.abs(fine.theta - oracle)) < 1e-6

    def test_row_blocks_sum_to_the_one_block_fit(self, poisson, rng, monkeypatch):
        models, sample, _ = self.weighted_sample("poisson", rng, n=100)
        whole = fit_weighted_mles(poisson, sample, models.columns)
        monkeypatch.setattr(glmsub.fitting, "_BLOCK_ROWS", 16)
        blocked = fit_weighted_mles(poisson, sample, models.columns)
        for a, b in zip(whole, blocked):
            assert a.iterations == b.iterations
            for name in ("theta", "info_JX", "vc", "variance"):
                np.testing.assert_allclose(getattr(a, name), getattr(b, name), rtol=1e-10)

    @pytest.mark.parametrize("block_rows", [16, 8192])
    def test_lazy_design_fits_as_its_array(self, poisson, rng, monkeypatch, block_rows):
        # A LazyDesign sample builds each row block from the raw covariates.
        # Its fits are those of the array sample bit for bit, for all the
        # models and for one model alone (the unused columns dropped).
        models = enumerate_quadratic_models(3, [0, 1, 2])
        raw = rng.normal(0.0, 0.7, size=(100, 3))
        y = rng.poisson(np.exp(0.3 + raw @ np.array([0.5, -0.4, 0.3]))).astype(float)
        probs = rng.uniform(0.2, 1.0, size=100)
        monkeypatch.setattr(glmsub.fitting, "_BLOCK_ROWS", block_rows)
        lazy = WeightedSample(LazyDesign(models.full_spec, raw), y, probs)
        array = WeightedSample(build_design(models.full_spec, raw), y, probs)
        assert (lazy.n_rows, lazy.n_params) == (100, 7)
        for columns in (models.columns, [models.columns[5]]):
            fits = fit_weighted_mles(poisson, lazy, columns, population_size=1000)
            same = fit_weighted_mles(poisson, array, columns, population_size=1000)
            for a, b in zip(fits, same):
                assert a.iterations == b.iterations
                for name in ("theta", "info_JX", "vc", "variance"):
                    assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        theta = fit_weighted_mle(poisson, array).theta
        assert weighted_loglik(poisson, theta, lazy) == weighted_loglik(poisson, theta, array)
        for a, b in zip(score_and_hessian(poisson, theta, lazy), score_and_hessian(poisson, theta, array)):
            np.testing.assert_array_equal(a, b)

    def test_full_data_fits_hold_no_union_design(self, logistic):
        # At N = 200k and Q = 8 the union design is 7 vectors of N floats;
        # the full-data fits walk row blocks of a lazy design instead.
        n = 200_000
        rng = np.random.default_rng(11)
        raw = rng.normal(size=(n, 3))
        y = rng.binomial(1, 0.4, size=n).astype(float)
        models = enumerate_quadratic_models(3, (0, 1, 2))
        tracemalloc.start()
        try:
            thetas = full_data_mles(logistic, models, raw, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(thetas) == 8
        assert peak < n * models.full_spec.n_params * 8

    def test_one_model_is_fit_weighted_mle(self, logistic, rng):
        x, y = make_logistic_data(120, [0.2, -0.6, 0.4], rng)
        sample = WeightedSample(x, y, rng.uniform(0.1, 1.0, size=120))
        (batched,) = fit_weighted_mles(logistic, sample, [np.arange(3)])
        alone = fit_weighted_mle(logistic, sample)
        assert batched.iterations == alone.iterations
        np.testing.assert_array_equal(batched.theta, alone.theta)
        np.testing.assert_array_equal(batched.variance, alone.variance)

    def test_column_order_follows_the_model(self, logistic, rng):
        x, y = make_logistic_data(150, [0.2, -0.6, 0.4], rng)
        sample = uniform_sample(x, y)
        (fit,) = fit_weighted_mles(logistic, sample, [np.array([2, 0])])
        alone = lone_fit(logistic, sample, [2, 0])
        np.testing.assert_allclose(fit.theta, alone.theta, rtol=1e-10)
        np.testing.assert_allclose(fit.variance, alone.variance, rtol=1e-10)

    def test_padding_keeps_the_singular_decision_of_a_small_spectrum(self, poisson):
        # Model 0's information has eigenvalues 1e-3 and 1e-14 (ratio above
        # the cutoff): invertible alone.  Padding its absent column with the
        # identity would add the eigenvalue 1 and call it singular.
        x = np.diag([math.sqrt(1e-3), 1e-7, math.sqrt(1e-3)])
        sample = WeightedSample(x, np.ones(3), np.ones(3))
        columns = [np.array([0, 1]), np.arange(3)]
        fits = fit_weighted_mles(poisson, sample, columns)
        for cols, fit in zip(columns, fits):
            alone = lone_fit(poisson, sample, cols)
            assert fit.iterations == alone.iterations == 1
            np.testing.assert_allclose(fit.variance, alone.variance, rtol=1e-10)

    def test_iteration_limit_as_alone(self, logistic, rng):
        models, sample, _ = self.weighted_sample("logistic", rng)
        batched = raised(lambda: fit_weighted_mles(logistic, sample, models.columns, max_iter=2))
        alone = raised(lambda: lone_fit(logistic, sample, models.columns[0], max_iter=2))
        assert "did not converge in 2 iterations" in str(alone)
        assert_same_error(batched, alone)
        np.testing.assert_allclose(batched.theta, alone.theta, rtol=1e-10)

    def test_bad_column_sets(self, logistic):
        sample = uniform_sample(np.ones((5, 2)), np.array([0.0, 1.0, 0.0, 1.0, 1.0]))
        with pytest.raises(ValidationError, match="repeats a column"):
            fit_weighted_mles(logistic, sample, [np.array([0, 0])])
        with pytest.raises(ValidationError, match="no models"):
            fit_weighted_mles(logistic, sample, [])

    def test_too_few_rows_for_a_later_model(self, logistic, rng):
        # Model 0 fits its 2 parameters on 3 rows; model 1 has 4 parameters.
        x = np.column_stack([np.ones(3), rng.normal(size=(3, 3))])
        sample = uniform_sample(x, np.array([0.0, 1.0, 1.0]))
        columns = [np.array([0, 1]), np.arange(4)]
        batched = raised(lambda: fit_weighted_mles(logistic, sample, columns))
        assert_same_error(batched, raised(lambda: lone_fit(logistic, sample, columns[1])))

    @staticmethod
    def square_separated(rng, n=200, constant_x2=False):
        """Logistic data with y = 1 exactly when |x1| > 1, so only models
        with x1^2 separate; with ``constant_x2`` x2 is +-1, so x2^2 equals
        the intercept."""
        raw = rng.normal(size=(n, 2))
        if constant_x2:
            raw[:, 1] = rng.choice([-1.0, 1.0], size=n)
        y = (np.abs(raw[:, 0]) > 1.0).astype(float)
        return raw, y

    def test_separating_model_fails_as_alone(self, logistic, rng):
        # Models: main effects (converges) and main effects + x1^2 (separates).
        models = enumerate_quadratic_models(2, [0])
        raw, y = self.square_separated(rng)
        sample = uniform_sample(build_design(models.full_spec, raw), y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batched = raised(lambda: fit_weighted_mles(logistic, sample, models.columns))
            alone = raised(lambda: lone_fit(logistic, sample, models.columns[1]))
            (main_only,) = fit_weighted_mles(logistic, sample, models.columns[:1])
        assert isinstance(alone, NonConvergenceError)
        assert_same_error(batched, alone)
        assert main_only.iterations == lone_fit(logistic, sample, models.columns[0]).iterations

    def test_singular_later_model(self, logistic, rng):
        # Models 2 (x2^2) and 3 (x1^2, x2^2) are singular; model 2 wins.
        models = enumerate_quadratic_models(2, [0, 1])
        raw, _ = self.square_separated(rng, constant_x2=True)
        y = rng.binomial(1, 0.4, size=raw.shape[0]).astype(float)
        sample = uniform_sample(build_design(models.full_spec, raw), y)
        batched = raised(lambda: fit_weighted_mles(logistic, sample, models.columns))
        alone = raised(lambda: lone_fit(logistic, sample, models.columns[2]))
        assert isinstance(alone, SingularInformationError)
        assert_same_error(batched, alone)

    def test_first_failing_iteration_ends_the_fit(self, logistic, rng):
        # Model 1 (x1^2) separates and fails after some updates; models 2
        # and 3 are singular at the start.  The first iteration with a
        # failure ends the call, with the lowest failing index in it: model 2.
        models = enumerate_quadratic_models(2, [0, 1])
        raw, y = self.square_separated(rng, constant_x2=True)
        sample = uniform_sample(build_design(models.full_spec, raw), y)
        batched = raised(lambda: fit_weighted_mles(logistic, sample, models.columns))
        later = raised(lambda: lone_fit(logistic, sample, models.columns[1]))
        assert isinstance(later, NonConvergenceError) and later.iterations == 66
        alone = raised(lambda: lone_fit(logistic, sample, models.columns[2]))
        assert "singular at the starting value" in str(alone)
        assert_same_error(batched, alone)

    def test_non_finite_step_fails_as_alone(self, poisson):
        # The Hessian at the start is well conditioned, but the score of the
        # response 1e308 overflows in model 1's column (NumPy warns), so its
        # first step is not finite.  Model 0 steps normally.
        x = np.column_stack([np.ones(6), [-1.0, 0.5, 1.0, 2.0, -0.5, 4.0]])
        sample = WeightedSample(x, np.array([0.0, 1.0, 2.0, 1.0, 0.0, 1e308]), np.ones(6))
        columns = [np.array([0]), np.arange(2)]
        with pytest.warns(RuntimeWarning, match="overflow"):
            batched = raised(lambda: fit_weighted_mles(poisson, sample, columns))
            alone = raised(lambda: lone_fit(poisson, sample, columns[1]))
        assert str(alone) == "Newton step became non-finite after 0 updates"
        assert_same_error(batched, alone)
        np.testing.assert_array_equal(batched.theta, np.zeros(2))

    def test_singular_at_the_optimum_fails_as_alone(self, logistic):
        # Paired rows with y = 0 and 1 make the score vanish at the start, so
        # one zero step converges.  The Hessian diag(4c^2, 4d^2) has the
        # eigenvalue ratio 1e-11, above the cutoff; divided by N n = 4e153,
        # the information keeps 1e-313 but its d entry underflows to zero.
        c, d = 1e-80, 1e-80 * math.sqrt(1e-11)
        x = np.array([[c, d], [c, d], [c, -d], [c, -d]])
        sample = uniform_sample(x, np.array([0.0, 1.0, 0.0, 1.0]))
        columns = [np.array([0]), np.arange(2)]
        fits = fit_weighted_mles(logistic, sample, columns)  # N = n = 4
        assert [fit.iterations for fit in fits] == [1, 1]
        batched = raised(lambda: fit_weighted_mles(logistic, sample, columns, population_size=10**153))
        alone = raised(lambda: lone_fit(logistic, sample, columns[1], population_size=10**153))
        assert str(alone) == "information matrix is singular at the optimum"
        assert_same_error(batched, alone)

    def test_poisson_overflow_names_its_row_past_the_first_block(self, poisson, rng):
        # One extreme row past the first block of 8,192 throws the first
        # update so far that its mean overflows.
        n = glmsub.fitting._BLOCK_ROWS + 100
        models = enumerate_quadratic_models(1, [0])
        raw = rng.uniform(-0.1, 0.1, size=(n, 1))
        y = rng.poisson(1.0, size=n).astype(float)
        raw[8200, 0], y[8200] = 2000.0, 1e6
        sample = uniform_sample(build_design(models.full_spec, raw), y)
        batched = raised(lambda: fit_weighted_mles(poisson, sample, models.columns))
        alone = raised(lambda: lone_fit(poisson, sample, models.columns[0]))
        for exc in (batched, alone):
            assert isinstance(exc, NonConvergenceError) and exc.iterations == 1
            assert "poisson mean overflowed at row 8200 (eta=" in str(exc)
            assert isinstance(exc.__cause__, NumericOverflowError)
            assert exc.__cause__.index == 8200
        # The eta in the message may differ in its last digits.
        assert str(batched).split("(eta=")[0] == str(alone).split("(eta=")[0]
        np.testing.assert_allclose(batched.theta, alone.theta, rtol=1e-10)

    def test_overflow_of_a_later_model_names_that_model(self, poisson, rng):
        # The intercept-only model 0 steps to a finite mean; model 1 throws
        # the extreme row past the overflow.  Its row of the 2-D mean
        # names the model whose iterate the error carries.
        n = glmsub.fitting._BLOCK_ROWS + 100
        x = np.column_stack([np.ones(n), rng.uniform(-0.1, 0.1, size=n)])
        y = rng.poisson(1.0, size=n).astype(float)
        x[8200, 1], y[8200] = 2000.0, 1e6
        sample = uniform_sample(x, y)
        columns = [np.array([0]), np.arange(2)]
        batched = raised(lambda: fit_weighted_mles(poisson, sample, columns))
        alone = raised(lambda: lone_fit(poisson, sample, columns[1]))
        assert batched.__cause__.index == alone.__cause__.index == 8200
        assert (batched.__cause__.model, alone.__cause__.model) == (1, 0)
        assert str(batched).split("(eta=")[0] == str(alone).split("(eta=")[0]
        assert batched.iterations == alone.iterations == 1
        np.testing.assert_allclose(batched.theta, alone.theta, rtol=1e-10)


class TestFullInformation:
    def test_logistic_unit_design(self, logistic):
        design = np.ones((7, 1))
        np.testing.assert_allclose(
            full_information(logistic, np.zeros(1), design), [[0.25]], rtol=1e-15
        )

    def test_poisson_unit_design(self, poisson):
        design = np.ones((4, 1))
        np.testing.assert_allclose(
            full_information(poisson, np.zeros(1), design), [[1.0]], rtol=1e-15
        )

    @pytest.mark.parametrize("kind", ["logistic", "poisson"])
    def test_matches_loop_oracle(self, kind, logistic, poisson, rng):
        family = logistic if kind == "logistic" else poisson
        x = rng.normal(size=(5, 2))
        theta = rng.normal(0, 0.5, size=2)
        np.testing.assert_allclose(
            full_information(family, theta, x),
            info_matrix_loop(x, theta, kind),
            atol=1e-12,
        )

    def test_dimension_mismatch(self, logistic):
        with pytest.raises(ValidationError):
            full_information(logistic, np.zeros(3), np.ones((5, 2)))


class TestMeanEvaluations:
    # The score, Hessian, information and residuals at one theta all come
    # from a single evaluation of the mean.
    def test_fit_evaluates_mean_once_per_iteration_and_at_optimum(self, rng):
        family = CountingLogistic()
        x, y = make_logistic_data(200, [0.3, -0.5, 0.8], rng)
        fit = fit_weighted_mle(family, uniform_sample(x, y))
        assert fit.iterations > 1
        assert family.mean_calls == fit.iterations + 1

    def test_mmse_probabilities_evaluate_mean_once(self, rng):
        family = CountingLogistic()
        x, y = make_logistic_data(200, [0.3, -0.5, 0.8], rng)
        phi_single("mMSE", family, np.array([0.3, -0.5, 0.8]), x, y)
        assert family.mean_calls == 1
