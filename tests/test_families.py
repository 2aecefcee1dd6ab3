import math

import numpy as np
import pytest

from glmsub import Logistic, NumericOverflowError, Poisson, ValidationError, get_family

from oracles import cumulant_function


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

    @pytest.mark.parametrize("shape", [(40,), (5, 8)])
    def test_mean_bits_match_where_form(self, logistic, shape):
        # The mean picks its numerator with a maximum, not np.where; the
        # bits must be those of the np.where form, NaN and infinities included.
        eta = np.random.default_rng(3).normal(0.0, 30.0, size=40)
        eta[:12] = [0.0, -0.0, np.inf, -np.inf, np.nan, 700.0, -700.0, 800.0, -800.0,
                    1e-300, -1e-300, 5e-324]
        eta = eta.reshape(shape)
        e = np.exp(-np.abs(eta))
        expected = np.where(eta >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        out = logistic.mean(eta)
        assert out.shape == shape
        assert out.tobytes() == expected.tobytes()

    def test_mean_of_scalars(self, logistic):
        assert logistic.mean(0.0) == 0.5
        assert logistic.mean(np.array(-800.0)) == 0.0
        assert float(logistic.mean(np.float64(2.0))) == 1.0 / (1.0 + math.exp(-2.0))

    def test_mean_bounds_and_monotone(self, logistic):
        eta = np.linspace(-30, 30, 2001)
        mu = logistic.mean(eta)
        assert np.all(mu > 0) and np.all(mu < 1)
        assert np.all(np.diff(mu) > 0)

    def test_cumulant_gradient_is_mean(self, logistic):
        eta = np.linspace(-5, 5, 41)
        h = 1e-6
        b = lambda e: cumulant_function(e, "logistic")
        numeric = (b(eta + h) - b(eta - h)) / (2 * h)
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
        # A (models x rows) block is named by its flat index.
        for eta in ([0.0, 1.0, 800.0], [[0.0, 1.0], [800.0, 0.0]]):
            with pytest.raises(NumericOverflowError, match=r"at index 2 \(eta=800\.0\)$") as excinfo:
                poisson.mean(np.array(eta))
            assert excinfo.value.index == 2

    def test_cumulant_gradient_is_mean(self, poisson):
        eta = np.linspace(-3, 3, 25)
        h = 1e-7
        b = lambda e: cumulant_function(e, "poisson")
        numeric = (b(eta + h) - b(eta - h)) / (2 * h)
        np.testing.assert_allclose(numeric, poisson.mean(eta), rtol=1e-6)

    def test_validate_response(self, poisson):
        poisson.validate_response(np.array([0, 3, 10]))
        with pytest.raises(ValidationError):
            poisson.validate_response(np.array([0, -1]))
        with pytest.raises(ValidationError):
            poisson.validate_response(np.array([0.5]))
        with pytest.raises(ValidationError, match="non-negative integer; found inf at index 1$"):
            poisson.validate_response(np.array([1.0, np.inf]))

    # exp(44) is finite but above the largest mean NumPy's sampler accepts.
    @pytest.mark.parametrize("bad", [math.exp(44), math.inf, math.nan])
    def test_unsampleable_mean_is_overflow(self, poisson, rng, bad):
        with pytest.raises(NumericOverflowError, match="^cannot sample Poisson responses: "):
            poisson.sample_response(np.array([1.0, bad]), rng)


def test_get_family():
    assert isinstance(get_family("logistic"), Logistic)
    assert isinstance(get_family("Poisson"), Poisson)
    with pytest.raises(ValidationError):
        get_family("gaussian")


def test_family_equality():
    assert Logistic() == Logistic()
    assert Logistic() != Poisson()
    assert len({Logistic(), Logistic(), Poisson()}) == 2
    assert repr(Poisson()) == "Poisson()"
