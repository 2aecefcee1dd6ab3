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

    def test_weight(self, logistic):
        np.testing.assert_allclose(logistic.weight(np.array([0.0])), [0.25], atol=1e-15)

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

    def test_overflow_names_index(self, poisson):
        with pytest.raises(NumericOverflowError) as excinfo:
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
