"""Exponential-family response distributions with canonical links.

Two families are supported: logistic regression (Bernoulli response,
logit link) and Poisson regression (log link).  Both have dispersion
fixed at one and a canonical link, so the natural parameter equals the
linear predictor eta and each family is fully described by three scalar
functions:

* ``mean(eta)``     -- inverse link, the conditional mean mu of y,
* ``cumulant(eta)`` -- the log-normalizer whose derivative is the mean,
* ``variance(mu)``  -- the variance function var(y) at mean mu, which
  under a canonical link is also the information weight entering
  x x^T sums (``mu (1 - mu)`` for logistic, ``mu`` for Poisson).

Callers evaluate ``mean`` once and derive the weight from its result.
All three operate elementwise on arrays and are overflow-safe where the
naive formula is not.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .errors import NumericOverflowError, ValidationError

__all__ = ["Family", "Logistic", "Poisson", "get_family"]


class Family(ABC):
    """A GLM response family with canonical link."""

    name: str

    @abstractmethod
    def mean(self, eta: np.ndarray) -> np.ndarray:
        """Conditional mean of the response at linear predictor ``eta``."""

    @abstractmethod
    def cumulant(self, eta: np.ndarray) -> np.ndarray:
        """Log-normalizer evaluated at ``eta`` (its gradient is ``mean``)."""

    @abstractmethod
    def variance(self, mu: np.ndarray) -> np.ndarray:
        """Variance function at mean ``mu``: the information weight."""

    @abstractmethod
    def validate_response(self, y: np.ndarray) -> None:
        """Raise :class:`ValidationError` if ``y`` is invalid for the family."""

    @abstractmethod
    def sample_response(self, mu: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Draw responses with conditional means ``mu``."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

    def __eq__(self, other) -> bool:
        return type(self) is type(other)

    def __hash__(self) -> int:
        return hash(type(self))


class Logistic(Family):
    """Bernoulli response with logit link: mean(eta) = 1 / (1 + exp(-eta))."""

    name = "logistic"

    def mean(self, eta: np.ndarray) -> np.ndarray:
        # exp() only sees non-positive arguments, so nothing overflows (the
        # naive formula does near |eta|~700): with e = exp(-|eta|), the mean
        # is 1/(1+e) for eta >= 0 and e/(1+e) below.
        eta = np.asarray(eta, dtype=float)
        e = np.exp(-np.abs(eta))
        denom = 1.0 + e
        return np.where(eta >= 0, 1.0 / denom, e / denom)

    def cumulant(self, eta: np.ndarray) -> np.ndarray:
        # log(1 + exp(eta)), overflow-safe.
        return np.logaddexp(0.0, np.asarray(eta, dtype=float))

    def variance(self, mu: np.ndarray) -> np.ndarray:
        return mu * (1.0 - mu)

    def validate_response(self, y: np.ndarray) -> None:
        y = np.asarray(y)
        bad = ~np.isin(y, (0, 1))
        if np.any(bad):
            idx = int(np.flatnonzero(bad)[0])
            raise ValidationError(
                f"logistic response must be 0/1; found {y.flat[idx].item()!r} at index {idx}"
            )

    def sample_response(self, mu: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return rng.binomial(1, mu)


class Poisson(Family):
    """Poisson response with log link: mean(eta) = exp(eta)."""

    name = "poisson"

    def mean(self, eta: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            lam = np.exp(np.asarray(eta, dtype=float))
        if not np.all(np.isfinite(lam)):
            idx = int(np.flatnonzero(~np.isfinite(np.atleast_1d(lam)))[0])
            raise NumericOverflowError(
                f"Poisson mean overflowed at index {idx} (eta="
                f"{np.atleast_1d(eta)[idx].item()!r})",
                index=idx,
            )
        return lam

    def cumulant(self, eta: np.ndarray) -> np.ndarray:
        # For the log link the cumulant equals the mean.
        return self.mean(eta)

    def variance(self, mu: np.ndarray) -> np.ndarray:
        return mu

    def validate_response(self, y: np.ndarray) -> None:
        y = np.asarray(y)
        bad = ~np.isfinite(y) | (y < 0) | (y != np.floor(y))
        if np.any(bad):
            idx = int(np.flatnonzero(bad)[0])
            raise ValidationError(
                f"Poisson response must be a non-negative integer; found "
                f"{y.flat[idx].item()!r} at index {idx}"
            )

    def sample_response(self, mu: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if not np.all(np.isfinite(mu)):
            raise NumericOverflowError("Poisson response mean is non-finite")
        try:
            return rng.poisson(mu)
        except ValueError as exc:
            # NumPy refuses means whose draws could overflow int64.
            raise NumericOverflowError(f"cannot sample Poisson responses: {exc}") from exc


_FAMILIES = {"logistic": Logistic, "poisson": Poisson}


def get_family(name: str) -> Family:
    """Resolve a family name (``"logistic"`` or ``"poisson"``) to an instance."""
    try:
        return _FAMILIES[name.lower()]()
    except KeyError:
        raise ValidationError(
            f"unknown family {name!r}; expected one of {sorted(_FAMILIES)}"
        ) from None
