"""Two-stage subsampling drivers.

Stage 1 draws a pilot subsample of size r0 under the response-driven
initial probabilities and fits pilot estimates.  Stage 2 evaluates the
optimality-based probabilities at the pilot estimates, draws r more
rows, combines both subsamples (each row keeping the probability of the
stage that drew it) and fits every candidate model on the combined
sample by weighted maximum likelihood.

``two_stage`` shapes the stage-2 probabilities either under one sampling
model (``sampling_model=q``) or under the whole model set
(``sampling_model=None``, the model-robust rule).  Either way all Q
candidate models are fitted on the final combined sample.
``random_sampling_baseline`` skips the optimality step and reuses the
stage-1 probabilities for stage 2.

Every fit of a row set is one call of :func:`fit_weighted_mles` on a
:class:`LazyDesign` of the rows' raw covariates, which runs one Newton
loop for all the models fitted on them: the Q candidates on the combined
sample's union design, and on the stage-1 pilot rows the models that
shape the stage-2 probabilities (the union design, or under
``sampling_model=q`` that model's own design).  The Newton settings are
fixed at that function's defaults, and a stage-1 draw whose pilot fit
fails (any model's) is redrawn up to ``DEFAULT_STAGE1_ATTEMPTS`` times
before :class:`StageOneError`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitError, NumericOverflowError, StageOneError, ValidationError
from .families import Family
from .fitting import FitResult, WeightedSample, fit_weighted_mles
from .models import LazyDesign, ModelSet
from .probabilities import (
    DEFAULT_EPS,
    Criterion,
    ProbabilityVector,
    draw_with_replacement,
    initial_probabilities,
    phi_model_robust,
    phi_single,
)

__all__ = [
    "TwoStageResult",
    "two_stage",
    "random_sampling_baseline",
    "pilot_probabilities",
]

DEFAULT_STAGE1_ATTEMPTS = 10


@dataclass(frozen=True)
class TwoStageResult:
    """Everything produced by one two-stage run.

    ``fits`` holds one :class:`FitResult` per candidate model, in model-set
    order.  ``combined_sample`` is the sample they were fitted on: the
    union design of the r0 + r selected points, a :class:`LazyDesign` of
    their raw covariate rows (model q's design is its columns
    ``models.columns[q]``), the response values and the stage-specific
    selection probabilities; the drawn row indices of both stages are kept.
    """

    fits: tuple[FitResult, ...]
    combined_sample: WeightedSample
    stage2_probs: ProbabilityVector
    stage1_indices: np.ndarray
    stage2_indices: np.ndarray


def _checked_inputs(
    models: ModelSet,
    raw: np.ndarray,
    y: np.ndarray,
    r0: int,
    r: int,
    sampling_model: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Coerce the data and check the row counts, the subsample sizes and
    the sampling model index shared by every driver."""
    raw = np.atleast_2d(np.asarray(raw, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    n = raw.shape[0]
    if y.shape[0] != n:
        raise ValidationError(f"raw has {n} rows but response has {y.shape[0]}")
    d_max = models.max_params
    if not (r >= r0 >= d_max + 1):
        raise ValidationError(
            f"need r >= r0 >= {d_max + 1} (largest model size + 1), got "
            f"r0={r0}, r={r}"
        )
    if n < d_max + 1:
        raise ValidationError(f"dataset has only {n} rows")
    if sampling_model is not None and not (0 <= sampling_model < len(models)):
        raise ValidationError(
            f"sampling_model must index one of the {len(models)} models"
        )
    return raw, y


def _combine_and_fit(
    family: Family,
    models: ModelSet,
    raw: np.ndarray,
    y: np.ndarray,
    probs1: np.ndarray,
    idx1: np.ndarray,
    stage2: ProbabilityVector,
    idx2: np.ndarray,
) -> TwoStageResult:
    """Combine both stages' rows, each keeping the probability of the stage
    that drew it (``probs1`` for the ``idx1`` rows), and fit every
    candidate model on the combined sample."""
    combined_idx = np.concatenate([idx1, idx2])
    combined_probs = np.concatenate([probs1, stage2.probs[idx2]])
    design = LazyDesign(models.full_spec, raw[combined_idx])
    sample = WeightedSample(design, y[combined_idx], combined_probs)
    fits = fit_weighted_mles(family, sample, models.columns, population_size=raw.shape[0])
    return TwoStageResult(
        fits=fits,
        combined_sample=sample,
        stage2_probs=stage2,
        stage1_indices=idx1,
        stage2_indices=idx2,
    )


def _stage1_and_probabilities(
    family: Family,
    models: ModelSet,
    raw: np.ndarray,
    y: np.ndarray,
    r0: int,
    rng: np.random.Generator,
    criterion: Criterion,
    sampling_model: int | None,
    eps: float,
) -> tuple[np.ndarray, np.ndarray, ProbabilityVector]:
    """Stage 1 plus the stage-2 probability computation.

    Draws stage-1 rows and fits pilot estimates for the models that shape
    the stage-2 probabilities, redrawing on estimation failure (up to
    ``DEFAULT_STAGE1_ATTEMPTS`` fresh draws).  Returns (the stage-1 rows'
    initial probabilities, stage-1 row indices, stage-2 probabilities)."""
    init_probs = initial_probabilities(family, y)
    pilot_spec, pilot_columns = models.full_spec, models.columns
    if sampling_model is not None:
        pilot_spec = models.specs[sampling_model]
        pilot_columns = [np.arange(pilot_spec.n_params)]
    last_error: Exception | None = None
    for _ in range(DEFAULT_STAGE1_ATTEMPTS):
        idx1 = draw_with_replacement(init_probs, r0, rng)
        sample = WeightedSample(LazyDesign(pilot_spec, raw[idx1]), y[idx1], init_probs.probs[idx1])
        try:
            pilots = [fit.theta for fit in fit_weighted_mles(family, sample, pilot_columns)]
            break
        except (FitError, NumericOverflowError) as exc:
            last_error = exc
    else:
        raise StageOneError(DEFAULT_STAGE1_ATTEMPTS, last_error)
    del init_probs  # an N-vector, not held through the N-row scoring

    if sampling_model is None:
        stage2 = phi_model_robust(criterion, family, models, pilots, raw, y, eps)
    else:
        stage2 = phi_single(criterion, family, pilots[0], LazyDesign(pilot_spec, raw), y, eps)
    return sample.probs, idx1, stage2


def pilot_probabilities(
    family: Family,
    models: ModelSet,
    raw: np.ndarray,
    y: np.ndarray,
    r0: int,
    rng: np.random.Generator,
    criterion: "str | Criterion" = Criterion.MMSE,
    sampling_model: int | None = None,
    eps: float = DEFAULT_EPS,
) -> ProbabilityVector:
    """Stage-2 probabilities only: draw a pilot subsample, fit the pilot
    estimate(s) and evaluate the optimality rule over the full data."""
    raw, y = _checked_inputs(models, raw, y, r0, r0, sampling_model)
    criterion = Criterion.optimality(criterion)
    _, _, stage2 = _stage1_and_probabilities(
        family, models, raw, y, r0, rng, criterion, sampling_model, eps
    )
    return stage2


def two_stage(
    family: Family,
    models: ModelSet,
    raw: np.ndarray,
    y: np.ndarray,
    r0: int,
    r: int,
    rng: np.random.Generator,
    criterion: "str | Criterion" = Criterion.MMSE,
    sampling_model: int | None = None,
    eps: float = DEFAULT_EPS,
) -> TwoStageResult:
    """Run the two-stage optimal subsampling procedure.

    Parameters
    ----------
    family : Family
        Response family.
    models : ModelSet
        Candidate models; all are fitted on the combined sample.
    raw, y : ndarray
        Full data: raw covariates (N x p) and responses (N).
    r0, r : int
        Stage-1 and stage-2 subsample sizes, ``r >= r0 >= d_max + 1``.
    rng : numpy.random.Generator
        Source of randomness; results are deterministic given its state.
    criterion : Criterion
        ``mMSE`` (A-optimal) or ``mVc`` (L-optimal).
    sampling_model : int or None
        Index of the model shaping the stage-2 probabilities; ``None``
        averages over the whole set (model-robust sampling).
    eps : float
        Residual floor for the probability formulas.

    Returns
    -------
    TwoStageResult
    """
    raw, y = _checked_inputs(models, raw, y, r0, r, sampling_model)
    criterion = Criterion.optimality(criterion)
    probs1, idx1, stage2 = _stage1_and_probabilities(
        family, models, raw, y, r0, rng, criterion, sampling_model, eps
    )

    idx2 = draw_with_replacement(stage2, r, rng)
    return _combine_and_fit(family, models, raw, y, probs1, idx1, stage2, idx2)


def random_sampling_baseline(
    family: Family,
    models: ModelSet,
    raw: np.ndarray,
    y: np.ndarray,
    r0: int,
    r: int,
    rng: np.random.Generator,
) -> TwoStageResult:
    """Two-stage run without the optimality step: simple random sampling
    with replacement (uniform 1/N in both stages), then every candidate
    model is fitted on the combined sample."""
    raw, y = _checked_inputs(models, raw, y, r0, r)
    family.validate_response(y)
    n = raw.shape[0]
    uniform = ProbabilityVector(np.full(n, 1.0 / n), Criterion.UNIFORM)
    idx1 = draw_with_replacement(uniform, r0, rng)
    idx2 = draw_with_replacement(uniform, r, rng)
    return _combine_and_fit(family, models, raw, y, uniform.probs[idx1], idx1, uniform, idx2)
