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

import os
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (
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


@dataclass(frozen=True)
class ExponentialCovariates:
    """i.i.d. exponential covariates with the given rate (mean 1/rate)."""

    rate: float
    dimension: int

    def __post_init__(self):
        if self.rate <= 0:
            raise ValidationError(f"rate must be positive, got {self.rate}")
        if self.dimension < 1:
            raise ValidationError("dimension must be at least 1")

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
        if cov.shape != (mean.size, mean.size):
            raise ValidationError(
                f"covariance shape {cov.shape} does not match mean length {mean.size}"
            )
        if not np.allclose(cov, cov.T, rtol=0, atol=1e-12):
            raise ValidationError("covariance matrix must be symmetric")

    @property
    def dimension(self) -> int:
        return self.mean.size

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        try:
            chol = np.linalg.cholesky(self.cov)
        except np.linalg.LinAlgError as exc:
            raise ValidationError(
                "covariance matrix is not positive definite"
            ) from exc
        z = rng.standard_normal((n, self.dimension))
        return self.mean + z @ chol.T


@dataclass(frozen=True)
class UniformCovariates:
    """i.i.d. uniform covariates on [0, 1]."""

    dimension: int

    def __post_init__(self):
        if self.dimension < 1:
            raise ValidationError("dimension must be at least 1")

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
        object.__setattr__(self, "criterion", Criterion.optimality(self.criterion))
        if self.true_theta.shape[0] != self.data_generating_model.n_params:
            raise ValidationError(
                f"true theta has length {self.true_theta.shape[0]} but the "
                f"data-generating model has "
                f"{self.data_generating_model.n_params} parameters"
            )
        if len(self.r_grid) == 0 or any(
            b <= a for a, b in zip(self.r_grid, self.r_grid[1:])
        ):
            raise ValidationError(f"r_grid must be strictly ascending, got {self.r_grid}")
        if self.n_replicates < 1:
            raise ValidationError("need at least one replicate")
        if self.master_seed < 0:
            raise ValidationError("master seed must be non-negative")
        if self.eps <= 0:
            raise ValidationError(f"eps must be positive, got {self.eps}")
        # The data-generating model must be one of the candidates so the
        # 'correctly specified' strategy exists.
        self.model_set.index_of(self.data_generating_model)

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


# Worker state for process pools: the study, its fixed dataset (if any) and
# the per-run summary are installed once per worker instead of being pickled
# into every task.
_WORKER: dict = {}


def _init_worker(config, data, summarize) -> None:
    _WORKER.update(config=config, data=data, summarize=summarize)


def _run_replicate(m: int) -> dict:
    """All strategies at all subsample sizes for replicate ``m``.

    Returns ``{(scenario, r): summary | None}`` where None marks a failed
    run (non-convergent pilot after retries, etc.).
    """
    config, data, summarize = _WORKER["config"], _WORKER["data"], _WORKER["summarize"]
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


def run_strategies(config, data, summarize, threads: int = 1):
    """Run every strategy at every subsample size over all replicates.

    ``config`` is a :class:`ScenarioConfig` or a real-data ssmse config.
    ``data`` is None to regenerate the dataset of replicate m from the
    substream ``[seed, m, 0, 0]``, or a fixed ``(raw, y)`` pair.
    ``summarize(config, result)`` is a module-level function reducing one
    two-stage result to what the metric needs; it runs inside the failure
    guard.  Yields ``(scenario, r, good summaries, n_failed)`` per cell.

    ``threads`` bounds worker parallelism over replicates; the output is
    identical for any value because each replicate consumes only its own
    seed substreams.  A worker process that dies (killed, or out of
    memory) raises :class:`ChildProcessError`.
    """
    ms = range(config.n_replicates)
    workers = min(threads, config.n_replicates, os.cpu_count() or 1)
    try:
        if workers > 1:
            # Imported here: the pool pulls in multiprocessing, pickle and
            # socket, which no single-process command needs.
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool

            try:
                with ProcessPoolExecutor(
                    max_workers=workers,
                    initializer=_init_worker,
                    initargs=(config, data, summarize),
                ) as pool:
                    replicates = list(pool.map(_run_replicate, ms))
            except BrokenProcessPool as exc:
                # An OSError, so the CLI reports it as a runtime failure.
                raise ChildProcessError(f"a worker process died: {exc}") from exc
        else:
            _init_worker(config, data, summarize)
            replicates = [_run_replicate(m) for m in ms]
    finally:
        _WORKER.clear()

    for label in scenario_labels(config.model_set):
        for r in config.r_grid:
            cells = [rep[(label, r)] for rep in replicates]
            good = [c for c in cells if c is not None]
            yield label, r, good, len(cells) - len(good)


def _estimate_and_info(config: ScenarioConfig, result) -> tuple:
    """The data-generating model's estimate and the mean model information
    over all fitted candidates."""
    info = float(np.mean([model_information(f) for f in result.fits]))
    return result.fits[config.dg_index].theta, info


def run_study(config: ScenarioConfig, threads: int = 1) -> "list[MetricsRecord]":
    """Run the full study and aggregate per (scenario, subsample size)."""
    records = []
    for label, r, good, n_failed in run_strategies(
        config, None, _estimate_and_info, threads
    ):
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
