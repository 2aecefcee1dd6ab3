import os

import numpy as np
import pytest

from glmsub import Logistic, Poisson


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def forks(monkeypatch):
    """The calls of os.fork, each of which forks."""
    calls = []
    fork = os.fork

    def counted_fork():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return calls


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs, so a forked map of two tasks forks two workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


@pytest.fixture
def logistic():
    return Logistic()


@pytest.fixture
def poisson():
    return Poisson()


def make_logistic_data(n, theta, rng, scale=1.0):
    """Random logistic dataset with an intercept column."""
    theta = np.asarray(theta, dtype=float)
    x = np.column_stack([np.ones(n), rng.normal(0.0, scale, size=(n, len(theta) - 1))])
    prob = 1.0 / (1.0 + np.exp(-(x @ theta)))
    y = rng.binomial(1, prob)
    return x, y


def make_poisson_data(n, theta, rng, scale=0.5):
    theta = np.asarray(theta, dtype=float)
    x = np.column_stack([np.ones(n), rng.normal(0.0, scale, size=(n, len(theta) - 1))])
    lam = np.exp(x @ theta)
    y = rng.poisson(lam)
    return x, y
