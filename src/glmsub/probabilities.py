"""Subsampling probabilities: stage-1 rules and optimality-based rules.

Stage 1 uses simple response-driven probabilities: case-control
proportional sampling for logistic regression (``1/(2 N0)`` for zeros,
``1/(2 N1)`` for ones) and uniform ``1/N`` for Poisson.

Stage 2 targets an optimality criterion, evaluated at a pilot estimate.
With ``res_i = max(|y_i - mean(eta_i)|, eps)`` the A-optimal (mMSE) rule
minimizing the trace of the estimator variance is

    phi_i  propto  res_i * || J_X^-1 x_i ||,

and the L-optimal (mVc) rule minimizing the trace of the information-
scaled variance drops the inverse information factor:

    phi_i  propto  res_i * || x_i ||.

The model-robust variants average the per-model normalized vectors with
the prior model weights alpha, scoring each model on its columns of the
set's union design with the single-model kernel (so Q = 1 gives the
single-model vector bit for bit).  The eps floor keeps every probability
strictly positive so that no row is unreachable.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateResponseError, ValidationError
from .families import Family, Logistic
from .fitting import _checked_inverse, _gram, _linear_predictor
from .models import ModelSet, build_design

__all__ = [
    "Criterion",
    "ProbabilityVector",
    "initial_probabilities",
    "floored_residuals",
    "phi_single",
    "phi_model_robust",
    "DEFAULT_EPS",
]

DEFAULT_EPS = 1e-6
PROB_SUM_TOL = 1e-10


class Criterion(str, Enum):
    """Which rule produced a probability vector."""

    UNIFORM = "uniform"
    PROPORTIONAL = "proportional"
    MMSE = "mMSE"
    MVC = "mVc"
    MODEL_ROBUST_MMSE = "model-robust-mMSE"
    MODEL_ROBUST_MVC = "model-robust-mVc"

    @classmethod
    def optimality(cls, value: "str | Criterion") -> "Criterion":
        """Coerce to one of the two optimality criteria (mMSE / mVc)."""
        crit = cls(value)
        if crit not in (cls.MMSE, cls.MVC):
            raise ValidationError(
                f"expected an optimality criterion (mMSE or mVc), got {crit.value!r}"
            )
        return crit


_ROBUST_LABEL = {
    Criterion.MMSE: Criterion.MODEL_ROBUST_MMSE,
    Criterion.MVC: Criterion.MODEL_ROBUST_MVC,
}


@dataclass(frozen=True)
class ProbabilityVector:
    """Selection probabilities over the N data rows: strictly positive,
    summing to one."""

    probs: np.ndarray
    criterion: Criterion

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float).ravel()
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "criterion", Criterion(self.criterion))
        # Written so that a NaN entry fails both checks.
        total = float(probs.sum())
        if not abs(total - 1.0) <= PROB_SUM_TOL:
            raise ValidationError(f"probabilities sum to {total!r}, expected 1")
        if not np.all((probs > 0.0) & (probs < 1.0)):
            raise ValidationError("every probability must lie strictly in (0, 1)")

    def __len__(self) -> int:
        return self.probs.shape[0]


def initial_probabilities(family: Family, y: np.ndarray) -> ProbabilityVector:
    """Stage-1 probabilities: proportional for logistic, uniform for Poisson."""
    y = np.asarray(y, dtype=float).ravel()
    family.validate_response(y)
    n = y.shape[0]
    if isinstance(family, Logistic):
        n1 = int(y.sum())
        n0 = n - n1
        if n0 == 0 or n1 == 0:
            raise DegenerateResponseError(
                f"logistic response is degenerate: {n0} zeros and {n1} ones"
            )
        probs = np.where(y == 0, 1.0 / (2 * n0), 1.0 / (2 * n1))
        return ProbabilityVector(probs, Criterion.PROPORTIONAL)
    return ProbabilityVector(np.full(n, 1.0 / n), Criterion.UNIFORM)


def _floor(y, mu: np.ndarray, eps: float) -> np.ndarray:
    """``max(|y_i - mu_i|, eps)`` for a positive ``eps``."""
    if eps <= 0:
        raise ValidationError(f"eps must be positive, got {eps}")
    return np.maximum(np.abs(np.asarray(y, dtype=float).ravel() - mu), eps)


def floored_residuals(
    family: Family,
    theta: np.ndarray,
    design: np.ndarray,
    y: np.ndarray,
    eps: float = DEFAULT_EPS,
) -> np.ndarray:
    """Absolute residuals ``|y_i - mean(eta_i)|`` floored at ``eps`` so that
    perfectly fitted rows keep a positive selection probability."""
    design = np.atleast_2d(np.asarray(design, dtype=float))
    return _floor(y, family.mean(_linear_predictor(theta, design)), eps)


def _scores(
    criterion: Criterion, family: Family, theta, design: np.ndarray, cols, y, eps: float
) -> np.ndarray:
    """Normalized probabilities of the model whose design is
    ``design[:, cols]``, with theta and the mMSE inverse information
    zero-padded to the width of ``design`` instead of copying columns.  One
    mean evaluation gives the residuals and the information weights."""
    d = design.shape[1]
    padded = np.zeros(d)
    padded[cols] = theta
    mu = family.mean(design @ padded)
    res = _floor(y, mu, eps)
    if criterion is Criterion.MMSE:
        block = np.ix_(cols, cols)
        info = _gram(design, family.variance(mu), design.shape[0])[block]
        inv = np.zeros((d, d))
        inv[block] = _checked_inverse(
            info, "full-data information matrix is singular; cannot form mMSE probabilities"
        )
        scaled = design @ inv  # row i is (J^-1 x_i)^T over the model's columns
        norms = np.sqrt(np.einsum("ij,ij->i", scaled, scaled))
    else:
        mask = np.isin(np.arange(d), cols)
        norms = np.sqrt(np.einsum("ij,ij,j->i", design, design, mask))
    scores = res * norms
    return scores / scores.sum()


def phi_single(
    criterion: "str | Criterion",
    family: Family,
    theta: np.ndarray,
    design: np.ndarray,
    y: np.ndarray,
    eps: float = DEFAULT_EPS,
) -> ProbabilityVector:
    """Optimal subsampling probabilities under a single assumed model.

    ``theta`` should be the (pilot) MLE for this design; the mMSE rule
    additionally requires the full-data information matrix at ``theta``
    to be invertible.
    """
    criterion = Criterion.optimality(criterion)
    design = np.atleast_2d(np.asarray(design, dtype=float))
    probs = _scores(criterion, family, theta, design, np.arange(design.shape[1]), y, eps)
    return ProbabilityVector(probs, criterion)


def phi_model_robust(
    criterion: "str | Criterion",
    family: Family,
    models: ModelSet,
    thetas: "list[np.ndarray]",
    raw: np.ndarray,
    y: np.ndarray,
    eps: float = DEFAULT_EPS,
) -> ProbabilityVector:
    """Model-robust probabilities: the alpha-weighted average of each
    model's normalized single-model vector.

    ``thetas[q]`` should be the pilot MLE under model ``q``.  Being a
    convex combination of probability vectors, the result is itself a
    probability vector, bounded row-wise by the per-model extremes.
    """
    criterion = Criterion.optimality(criterion)
    if len(thetas) != len(models):
        raise ValidationError(f"{len(models)} models but {len(thetas)} pilot estimates")
    design = build_design(models.full_spec, raw)
    combined = np.zeros(design.shape[0])
    for alpha_q, cols, theta_q in zip(models.alpha, models.columns, thetas):
        combined += alpha_q * _scores(criterion, family, theta_q, design, cols, y, eps)
    return ProbabilityVector(combined, _ROBUST_LABEL[criterion])
