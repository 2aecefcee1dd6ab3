import math

import numpy as np
import pytest

from glmsub import (
    NonConvergenceError,
    SingularInformationError,
    ValidationError,
    WeightedSample,
    fit_weighted_mle,
    full_information,
    score_and_hessian,
    weighted_loglik,
)

from conftest import make_logistic_data, make_poisson_data
from oracles import info_matrix_loop, irls_glm


def uniform_sample(x, y):
    return WeightedSample(design=x, response=y, probs=np.full(len(y), 1.0 / len(y)))


class TestWeightedSample:
    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            WeightedSample(np.ones((3, 2)), np.zeros(2), np.full(3, 0.5))

    def test_prob_range(self):
        with pytest.raises(ValidationError):
            WeightedSample(np.ones((2, 1)), np.zeros(2), np.array([0.5, 0.0]))
        with pytest.raises(ValidationError):
            WeightedSample(np.ones((2, 1)), np.zeros(2), np.array([0.5, 1.5]))


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
