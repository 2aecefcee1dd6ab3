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
the prior model weights alpha, scoring each model with the single-model
kernel (so Q = 1 gives the single-model vector bit for bit).  The eps
floor keeps every probability strictly positive so that no row is
unreachable.

The kernel walks the N rows in the feature-major ``(d, B)`` blocks
``xt`` of ``fitting._row_blocks``: ``eta = theta @ xt``, and the norms
are column sums of squares of ``J_X^-1 @ xt`` (mMSE) or of ``xt`` (mVc).
For mMSE a first pass, ``fitting._information``, stores each row's mean
and accumulates J_X, a second scores the rows; mVc needs one pass.
Memory therefore grows with N only through N-vectors, never through an
N x d array: a :class:`LazyDesign` builds each block straight from the
raw covariates.  :func:`phi_model_robust` scores one model at a time
into an N-vector per share: from ``_workers._SPLIT_ROWS`` rows the
models are shared out by :func:`glmsub._workers._fork_stream`, this
process scoring every W-th model and one forked worker per other usable
CPU the rest, for one more N-vector held per worker.

:func:`draw_with_replacement` draws the row indices of a subsample from
such a vector.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from . import _workers
from .errors import DegenerateResponseError, ValidationError
from .families import Family, Logistic
from .fitting import (
    _block_mean,
    _checked_count,
    _checked_inverse,
    _checked_theta,
    _information,
    _row_blocks,
)
from .models import LazyDesign, ModelSet

__all__ = [
    "Criterion",
    "ProbabilityVector",
    "draw_with_replacement",
    "initial_probabilities",
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
        if value not in (cls.MMSE, cls.MVC):
            raise ValidationError(
                f"expected an optimality criterion (mMSE or mVc), got {getattr(value, 'value', value)!r}"
            )
        return cls(value)


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
        try:
            object.__setattr__(self, "criterion", Criterion(self.criterion))
        except ValueError:
            names = ", ".join(Criterion)
            raise ValidationError(f"expected a criterion ({names}), got {self.criterion!r}") from None
        # Written so that a NaN entry fails both checks.
        total = float(probs.sum())
        if not abs(total - 1.0) <= PROB_SUM_TOL:
            raise ValidationError(f"probabilities sum to {total!r}, expected 1")
        if not np.all((probs > 0.0) & (probs < 1.0)):
            raise ValidationError("every probability must lie strictly in (0, 1)")

    def __len__(self) -> int:
        return self.probs.shape[0]


# Each draw takes r rows out of N, with r much smaller than N.  An alias
# table (Walker 1977; Vose 1991) gives O(1) per index, but only after an
# O(N) build, so it pays off when many draws come from one table.  For a
# single draw, one cumulative sum and a binary search per index do the same
# job in vectorised O(N + r log N).
def draw_with_replacement(probs, r: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``r`` i.i.d. indices with replacement from weights on ``{0, ...,
    N-1}`` (or from anything with a ``probs`` attribute); deterministic
    given the generator state (one ``random`` call).

    ``r`` must be an integer, Python or NumPy.  Weights need not be
    normalized; they must be finite and non-negative with a positive,
    finite sum.  Zero-weight entries are valid and are never drawn.
    """
    r = _checked_count(r, "subsample size")
    weights = np.asarray(getattr(probs, "probs", probs), dtype=float).ravel()
    if weights.size == 0:
        raise ValidationError("cannot draw from zero outcomes")
    if np.any(weights < 0) or not np.all(np.isfinite(weights)):
        raise ValidationError("weights must be finite and non-negative")
    cdf = np.cumsum(weights)
    if cdf[-1] <= 0:
        raise ValidationError("weights must have a positive sum")
    if not np.isfinite(cdf[-1]):
        raise ValidationError("weights must have a finite sum")

    # Dividing by the last entry makes it exactly 1.0, so a uniform u < 1
    # never lands past the last positive-weight row; a zero-weight row
    # repeats its predecessor's value and is skipped.
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(r), side="right")


def initial_probabilities(family: Family, y: np.ndarray) -> ProbabilityVector:
    """Stage-1 probabilities: proportional for logistic, uniform for Poisson."""
    y = np.asarray(y, dtype=float).ravel()
    family.validate_response(y)
    n = y.shape[0]
    if n == 0:
        raise ValidationError("stage-1 probabilities need at least one response")
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
    """``max(|y_i - mu_i|, eps)`` for a positive, finite ``eps``."""
    if not 0 < eps < np.inf:  # NaN too
        raise ValidationError(f"eps must be positive and finite, got {eps}")
    return np.maximum(np.abs(np.asarray(y, dtype=float).ravel() - mu), eps)


def _scores(
    criterion: Criterion, family: Family, theta, design, y: np.ndarray, eps: float, out: np.ndarray
) -> np.ndarray:
    """Normalized probabilities of the model with ``design`` (an array or a
    :class:`LazyDesign`), computed on feature-major row blocks ``xt``
    (d x B) into the N-vector ``out``, which is returned.  Each row's mean
    is evaluated once: mMSE keeps it in ``out`` between its two passes."""
    theta = _checked_theta(theta, design.shape[1])
    if design.shape[0] == 0:
        raise ValidationError("the probabilities need at least one row")
    if y.shape[0] != design.shape[0]:
        raise ValidationError(f"{y.shape[0]} responses for {design.shape[0]} design rows")
    if criterion is Criterion.MMSE:
        inv = _checked_inverse(
            _information(family, theta, design, out),
            "full-data information matrix is singular; cannot form mMSE probabilities",
        )
        # Column i of ``inv @ xt`` is J^-1 x_i.
        blocks = ((rows, out[rows], inv @ xt) for rows, xt in _row_blocks(design))
    else:
        blocks = (
            (rows, _block_mean(family, theta @ xt, rows.start), xt)
            for rows, xt in _row_blocks(design)
        )
    for rows, mu, xt in blocks:
        norms = np.sqrt(np.einsum("ij,ij->j", xt, xt))
        out[rows] = _floor(y[rows], mu, eps) * norms
    out /= out.sum()
    return out


def phi_single(
    criterion: "str | Criterion",
    family: Family,
    theta: np.ndarray,
    design: "np.ndarray | LazyDesign",
    y: np.ndarray,
    eps: float = DEFAULT_EPS,
) -> ProbabilityVector:
    """Optimal subsampling probabilities under a single assumed model.

    ``theta`` should be the (pilot) MLE for this design; the mMSE rule
    additionally requires the full-data information matrix at ``theta``
    to be invertible.  A :class:`LazyDesign` scores the model without
    forming its N-row design.
    """
    criterion = Criterion.optimality(criterion)
    if not isinstance(design, LazyDesign):
        design = np.atleast_2d(np.asarray(design, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    out = np.empty(design.shape[0])
    return ProbabilityVector(_scores(criterion, family, theta, design, y, eps, out), criterion)


def _weighted_scores(out: np.ndarray, alpha_q: float, *args) -> None:
    """Write ``alpha_q`` times one model's :func:`_scores` into ``out``."""
    _scores(*args, out)
    out *= alpha_q


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

    Each model is scored straight into an N-vector, which is added to the
    sum in model order.  From ``_workers._SPLIT_ROWS`` rows the models go
    through :func:`glmsub._workers._fork_stream`: model q runs in share q
    mod W, one share per usable CPU on Linux, this process scoring share 0
    into a heap vector and each forked worker its share into one shared
    vector.  Below it, and on one CPU, this process scores every model
    into one vector.  The bits are the same either way, and the first
    model error in model order is raised.
    """
    criterion = Criterion.optimality(criterion)
    if len(thetas) != len(models):
        raise ValidationError(f"{len(models)} models but {len(thetas)} pilot estimates")
    raw = np.atleast_2d(np.asarray(raw, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    n = raw.shape[0]
    shares = _workers._worker_count(len(models)) if n >= _workers._SPLIT_ROWS else 1
    # Share 0 scores into the heap: a first touch of shared memory costs
    # more, and one-process scoring at N = 1e4-1e5 took 10-20% longer into
    # shared vectors.
    outs = [np.empty(n)] + [_workers._shared_array(n) for _ in range(1, shares)]
    tasks = [
        partial(
            _weighted_scores, outs[q % shares], alpha_q,
            criterion, family, theta_q, LazyDesign(spec, raw), y, eps,
        )
        for q, (alpha_q, spec, theta_q) in enumerate(zip(models.alpha, models.specs, thetas))
    ]
    combined = np.zeros(n)
    # Closed however the loop ends, so that no worker outlives the call.
    with closing(_workers._fork_stream(tasks, shares)) as stream:
        for q, _ in enumerate(stream):
            combined += outs[q % shares]
    return ProbabilityVector(combined, _ROBUST_LABEL[criterion])
