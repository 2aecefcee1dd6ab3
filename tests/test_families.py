import math

import numpy as np
import pytest

from glmsub import Logistic, NumericOverflowError, Poisson, ValidationError, get_family


class TestLogistic:
    def test_mean_at_zero(self, logistic):
        np.testing.assert_allclose(logistic.mean(np.array([0.0])), [0.5], atol=1e-15)

    def test_mean_closed_form(self, logistic):
        expected = math.exp(-1) / (1 + math.exp(-1))
        np.testing.assert_allclose(logistic.mean(np.array([-1.0])), [expected], rtol=1e-14)

    def test_mean_overflow_safe(self, logistic):
        out = logistic.mean(np.array([800.0, -800.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == 1.0 and out[1] == 0.0

    @pytest.mark.parametrize("n", [1_500, 1_000_000])
    def test_mean_bits_match_two_branch_form(self, logistic, n):
        # The two-branch form: 1/(1+exp(-eta)) for eta >= 0, and
        # exp(eta)/(1+exp(eta)) below, each evaluated on its own rows.
        eta = np.random.default_rng(5).normal(0.0, 40.0, size=n)
        eta[:6] = [800.0, -800.0, 0.0, -0.0, 1e-300, -1e-300]
        expected = np.empty(n)
        pos = eta >= 0
        expected[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
        neg = np.exp(eta[~pos])
        expected[~pos] = neg / (1.0 + neg)
        assert logistic.mean(eta).tobytes() == expected.tobytes()

    def test_mean_bounds_and_monotone(self, logistic):
        eta = np.linspace(-30, 30, 2001)
        mu = logistic.mean(eta)
        assert np.all(mu > 0) and np.all(mu < 1)
        assert np.all(np.diff(mu) > 0)

    def test_cumulant_overflow_safe(self, logistic):
        # log(1 + e^eta) -> eta for large eta, 0 for very negative eta.
        out = logistic.cumulant(np.array([800.0, -800.0, 0.0]))
        np.testing.assert_allclose(out, [800.0, 0.0, math.log(2)], atol=1e-12)

    def test_cumulant_gradient_is_mean(self, logistic):
        eta = np.linspace(-5, 5, 41)
        h = 1e-6
        numeric = (logistic.cumulant(eta + h) - logistic.cumulant(eta - h)) / (2 * h)
        np.testing.assert_allclose(numeric, logistic.mean(eta), atol=1e-8)

    def test_variance(self, logistic):
        # The information weight mu (1 - mu) is 0.25 at eta = 0.
        mu = logistic.mean(np.array([0.0]))
        np.testing.assert_allclose(logistic.variance(mu), [0.25], atol=1e-15)

    def test_validate_response(self, logistic):
        logistic.validate_response(np.array([0, 1, 1, 0]))
        with pytest.raises(ValidationError, match="0/1; found 2 at index 2$"):
            logistic.validate_response(np.array([0, 1, 2, 0]))
        with pytest.raises(ValidationError, match="0/1; found inf at index 1$"):
            logistic.validate_response(np.array([0.0, np.inf]))


class TestPoisson:
    def test_mean_at_zero(self, poisson):
        np.testing.assert_allclose(poisson.mean(np.array([0.0])), [1.0], rtol=0)

    def test_mean_positive_monotone(self, poisson):
        eta = np.linspace(-20, 20, 401)
        mu = poisson.mean(eta)
        assert np.all(mu > 0)
        assert np.all(np.diff(mu) > 0)

    def test_variance(self, poisson):
        mu = poisson.mean(np.array([0.0, 1.0]))
        np.testing.assert_allclose(poisson.variance(mu), [1.0, math.e], rtol=1e-15)

    def test_overflow_names_index(self, poisson):
        with pytest.raises(NumericOverflowError, match=r"at index 2 \(eta=800\.0\)$") as excinfo:
            poisson.mean(np.array([0.0, 1.0, 800.0]))
        assert excinfo.value.index == 2

    def test_cumulant_gradient_is_mean(self, poisson):
        eta = np.linspace(-3, 3, 25)
        h = 1e-7
        numeric = (poisson.cumulant(eta + h) - poisson.cumulant(eta - h)) / (2 * h)
        np.testing.assert_allclose(numeric, poisson.mean(eta), rtol=1e-6)

    def test_validate_response(self, poisson):
        poisson.validate_response(np.array([0, 3, 10]))
        with pytest.raises(ValidationError):
            poisson.validate_response(np.array([0, -1]))
        with pytest.raises(ValidationError):
            poisson.validate_response(np.array([0.5]))
        with pytest.raises(ValidationError, match="non-negative integer; found inf at index 1$"):
            poisson.validate_response(np.array([1.0, np.inf]))


def test_get_family():
    assert isinstance(get_family("logistic"), Logistic)
    assert isinstance(get_family("Poisson"), Poisson)
    with pytest.raises(ValidationError):
        get_family("gaussian")


def test_family_equality():
    assert Logistic() == Logistic()
    assert Logistic() != Poisson()
