"""Monte Carlo study harness: data generation, metrics and the scenario
runner.

A study regenerates the full dataset for every replicate from a known
data-generating model, runs each sampling strategy at each subsample
size, and summarizes estimation quality by the simulated mean squared
error

    SMSE = (1/M) sum_m sum_n (theta_hat[m, n] - theta[n])^2

of the data-generating model's parameter estimates, plus the mean model
information det(V^-1) averaged over all fitted candidate models.

Strategies compared (one record per strategy and subsample size):
``random`` (no optimality step), ``optimal-k`` for each candidate model
k shaping the probabilities (one of which is the data-generating model),
and ``model-robust``.

Reproducibility: every random draw comes from a substream keyed by
``(master_seed, replicate, role)`` through ``numpy.random.SeedSequence``,
so results are bit-identical regardless of execution order or worker
count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Union

import numpy as np

from ._workers import _fork_map
from .errors import (
    ConfigError,
    DegenerateResponseError,
    FitError,
    NumericOverflowError,
    StageOneError,
    ValidationError,
)
from .families import Family
from .fitting import FitResult, _linear_predictor
from .models import ModelSet, ModelSpec, build_design
from .probabilities import DEFAULT_EPS, Criterion
from .twostage import random_sampling_baseline, two_stage

__all__ = [
    "ExponentialCovariates",
    "MultivariateNormalCovariates",
    "UniformCovariates",
    "CovariateDistribution",
    "gen_covariates",
    "gen_response",
    "smse",
    "ssmse",
    "model_information",
    "ScenarioConfig",
    "MetricsRecord",
    "run_study",
]


# ---------------------------------------------------------------------
# Covariate generators
# ---------------------------------------------------------------------


def _at_least(value, low, key: str, why: str = ""):
    """``value``, after checking that it is at least ``low``."""
    if value < low:
        raise ConfigError(key, f"must be at least {low}{why}, got {value}")
    return value


def _check_dimension(dimension: int) -> None:
    """Every covariate distribution has at least one covariate."""
    _at_least(dimension, 1, "covariates.dimension")


@dataclass(frozen=True)
class ExponentialCovariates:
    """i.i.d. exponential covariates with the given rate (mean 1/rate)."""

    rate: float
    dimension: int

    def __post_init__(self):
        _check_dimension(self.dimension)
        if not 0 < self.rate < np.inf:  # NaN fails too
            raise ConfigError("covariates.rate", f"must be finite and positive, got {self.rate}")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.exponential(scale=1.0 / self.rate, size=(n, self.dimension))


@dataclass(frozen=True)
class MultivariateNormalCovariates:
    """Multivariate normal covariates sampled through the Cholesky factor
    of the covariance matrix."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).ravel()
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        _check_dimension(mean.size)
        if cov.shape != (mean.size, mean.size):
            raise ConfigError(
                "covariates.covariance",
                f"shape {cov.shape} does not match mean length {mean.size}",
            )
        for key, values in (("covariates.mean", mean), ("covariates.covariance", cov)):
            if not np.isfinite(values).all():
                raise ConfigError(key, f"must be finite, got {values.tolist()}")
        if not np.allclose(cov, cov.T, rtol=0, atol=1e-12):
            raise ConfigError("covariates.covariance", "must be symmetric")

    @property
    def dimension(self) -> int:
        return self.mean.size

    def cholesky(self) -> np.ndarray:
        """The lower Cholesky factor that :meth:`sample` draws through;
        raises unless the covariance is positive definite."""
        try:
            return np.linalg.cholesky(self.cov)
        except np.linalg.LinAlgError:
            raise ConfigError("covariates.covariance", "must be positive definite") from None

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        chol = self.cholesky()
        z = rng.standard_normal((n, self.dimension))
        return self.mean + z @ chol.T


@dataclass(frozen=True)
class UniformCovariates:
    """i.i.d. uniform covariates on [0, 1]."""

    dimension: int

    def __post_init__(self):
        _check_dimension(self.dimension)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.random((n, self.dimension))


CovariateDistribution = Union[
    ExponentialCovariates, MultivariateNormalCovariates, UniformCovariates
]


def gen_covariates(
    dist: CovariateDistribution, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample an ``n x p`` raw covariate matrix."""
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    return dist.sample(n, rng)


def gen_response(
    family: Family, theta: np.ndarray, design: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Sample responses from the family at mean(design @ theta)."""
    design = np.atleast_2d(np.asarray(design, dtype=float))
    return family.sample_response(family.mean(_linear_predictor(theta, design)), rng)


# ---------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------


def smse(estimates: np.ndarray, truth: np.ndarray) -> float:
    """Simulated MSE: mean over replicates of the squared parameter error
    summed over coordinates."""
    estimates = np.atleast_2d(np.asarray(estimates, dtype=float))
    truth = np.asarray(truth, dtype=float).ravel()
    if estimates.shape[1] != truth.shape[0]:
        raise ValidationError(
            f"estimates have {estimates.shape[1]} columns but truth has "
            f"length {truth.shape[0]}"
        )
    diffs = estimates - truth
    return float(np.mean(np.sum(diffs * diffs, axis=1)))


def ssmse(per_model_estimates, full_data_mle) -> float:
    """Summed SMSE across candidate models, each against its own full-data
    MLE (the real-data analogue of SMSE against the true parameters)."""
    if len(per_model_estimates) != len(full_data_mle):
        raise ValidationError(
            f"{len(per_model_estimates)} estimate blocks but "
            f"{len(full_data_mle)} reference vectors"
        )
    return float(
        sum(smse(est, ref) for est, ref in zip(per_model_estimates, full_data_mle))
    )


def model_information(fit: FitResult) -> float:
    """Determinant of the inverse of the estimated variance matrix; larger
    means a more informative subsample."""
    sign, logdet = np.linalg.slogdet(fit.variance)
    if sign <= 0 or not np.isfinite(logdet):
        raise FitError("estimated variance matrix is singular or indefinite")
    return float(np.exp(-logdet))


# ---------------------------------------------------------------------
# Scenario runner
# ---------------------------------------------------------------------


_LARGEST = " (largest model size + 1)"


def _check_run(config, r: "int | None" = None) -> None:
    """The rules every run config shares: criterion mMSE or mVc, 0 < eps < inf,
    seed >= 0, replicates >= 1, a non-empty strictly ascending ``r_grid``,
    ``r0 >= d_max + 1`` and every stage-2 size (``r`` or each ``r_grid``
    entry) >= ``r0``.  ``criterion`` becomes a :class:`Criterion`."""
    try:
        object.__setattr__(config, "criterion", Criterion.optimality(config.criterion))
    except ValidationError as exc:
        raise ConfigError("criterion", str(exc)) from None
    if not 0 < config.eps < np.inf:  # NaN too
        raise ConfigError("eps", f"must be positive and finite, got {config.eps}")
    if config.master_seed < 0:
        raise ConfigError("seed", f"must be non-negative, got {config.master_seed}")
    if config.n_replicates is not None:
        _at_least(config.n_replicates, 1, "replicates")
    grid, r0 = config.r_grid, config.r0
    if grid is not None and (not grid or any(b <= a for a, b in zip(grid, grid[1:]))):
        raise ConfigError("r_grid", f"must be non-empty and strictly ascending, got {list(grid)}")
    _at_least(r0, config.model_set.max_params + 1, "r0", _LARGEST)
    if r is not None and r < r0:
        raise ConfigError("r", f"must be at least r0 = {r0}, got {r}")
    if grid and grid[0] < r0:
        raise ConfigError("r_grid", f"sizes must be at least r0 = {r0}, got {grid[0]}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one simulation study."""

    family: Family
    covariates: CovariateDistribution
    data_generating_model: ModelSpec
    true_theta: np.ndarray
    model_set: ModelSet
    n_population: int
    r0: int
    r_grid: tuple[int, ...]
    n_replicates: int
    eps: float = DEFAULT_EPS
    master_seed: int = 0
    criterion: Criterion = Criterion.MMSE

    def __post_init__(self):
        object.__setattr__(self, "true_theta", np.asarray(self.true_theta, dtype=float).ravel())
        object.__setattr__(self, "r_grid", tuple(int(r) for r in self.r_grid))
        _check_run(self)
        _at_least(self.n_population, self.model_set.max_params + 1, "population", _LARGEST)
        # The data-generating model must be one of the candidates so the
        # 'correctly specified' strategy exists.
        dg = self.data_generating_model
        if dg not in self.model_set.specs:
            raise ConfigError(
                "data_generating.quadratic_terms",
                "the data-generating model is not a candidate: its squared terms "
                f"{[i + 1 for i in dg.quadratic_terms]} must be in the model set's quadratic_over",
            )
        if self.true_theta.shape[0] != dg.n_params:
            raise ConfigError(
                "data_generating.theta",
                f"expected {dg.n_params} values for intercept + {len(dg.main_effects)} "
                f"main effects + {len(dg.quadratic_terms)} quadratic terms, "
                f"got {self.true_theta.shape[0]}",
            )

    @property
    def dg_index(self) -> int:
        return self.model_set.index_of(self.data_generating_model)


@dataclass(frozen=True)
class MetricsRecord:
    """One aggregated row of study output."""

    scenario: str
    estimating_model: int
    r: int
    smse: float
    mean_model_info: float
    n_failed: int


def _replicate_rng(master_seed: int, m: int, role: int, sub: int = 0):
    return np.random.default_rng(np.random.SeedSequence([master_seed, m, role, sub]))


def scenario_labels(models: ModelSet) -> tuple[str, ...]:
    """Strategy labels in run order: random, optimal-1..Q, model-robust."""
    q = len(models)
    return ("random",) + tuple(f"optimal-{k + 1}" for k in range(q)) + ("model-robust",)


def _run_replicate(config, data, summarize, m: int) -> dict:
    """All strategies at all subsample sizes for replicate ``m``.

    Returns ``{(scenario, r): summary | None}`` where None marks a failed
    run (non-convergent pilot after retries, etc.).
    """
    if data is None:
        data_rng = _replicate_rng(config.master_seed, m, 0)
        raw = gen_covariates(config.covariates, config.n_population, data_rng)
        design_true = build_design(config.data_generating_model, raw)
        y = gen_response(config.family, config.true_theta, design_true, data_rng)
    else:
        raw, y = data

    out: dict = {}
    for j, r in enumerate(config.r_grid):
        for s, label in enumerate(scenario_labels(config.model_set)):
            rng = _replicate_rng(config.master_seed, m, 1 + s, j)
            try:
                if label == "random":
                    result = random_sampling_baseline(
                        config.family, config.model_set, raw, y, config.r0, r, rng
                    )
                else:
                    result = two_stage(
                        config.family,
                        config.model_set,
                        raw,
                        y,
                        config.r0,
                        r,
                        rng,
                        criterion=config.criterion,
                        sampling_model=None if label == "model-robust" else s - 1,
                        eps=config.eps,
                    )
                out[(label, r)] = summarize(config, result)
            except (FitError, StageOneError, NumericOverflowError, DegenerateResponseError):
                out[(label, r)] = None
    return out


def run_strategies(config, data, summarize, extra=None):
    """Run every strategy at every subsample size over all replicates.

    ``config`` is a :class:`ScenarioConfig` or a real-data ssmse config.
    ``data`` is None to regenerate the dataset of replicate m from the
    substream ``[seed, m, 0, 0]``, or a fixed ``(raw, y)`` pair.
    ``summarize(config, result)`` reduces one two-stage result to what the
    metric needs; it runs inside the failure guard.  ``extra``, when given,
    is one more zero-argument task, run first or in a worker beside the
    replicates.
    Returns ``(cells, extra's result or None)``, with one cell
    ``(scenario, r, good summaries, n_failed)`` per strategy and size.

    The tasks run in :func:`_fork_map`'s workers, one per usable CPU,
    which each inherit the caller's OpenBLAS held at one thread; the
    output does not depend on how many run, because each replicate
    consumes only its own seed substreams.
    """
    head = [] if extra is None else [extra]
    ms = range(config.n_replicates)
    tasks = [partial(_run_replicate, config, data, summarize, m) for m in ms]
    results = _fork_map(head + tasks)
    replicates = results[len(head):]
    cells = []
    for label in scenario_labels(config.model_set):
        for r in config.r_grid:
            summaries = [rep[(label, r)] for rep in replicates]
            good = [c for c in summaries if c is not None]
            cells.append((label, r, good, len(summaries) - len(good)))
    return cells, (results[0] if head else None)


def _estimate_and_info(config: ScenarioConfig, result) -> tuple:
    """The data-generating model's estimate and the mean model information
    over all fitted candidates."""
    info = float(np.mean([model_information(f) for f in result.fits]))
    return result.fits[config.dg_index].theta, info


def run_study(config: ScenarioConfig) -> "list[MetricsRecord]":
    """Run the full study and aggregate per (scenario, subsample size)."""
    records = []
    cells, _ = run_strategies(config, None, _estimate_and_info)
    for label, r, good, n_failed in cells:
        if good:
            value = smse(np.array([c[0] for c in good]), config.true_theta)
            mean_info = float(np.mean([c[1] for c in good]))
        else:
            value = float("nan")
            mean_info = float("nan")
        records.append(
            MetricsRecord(
                scenario=label,
                estimating_model=config.dg_index + 1,
                r=r,
                smse=value,
                mean_model_info=mean_info,
                n_failed=n_failed,
            )
        )
    return records
