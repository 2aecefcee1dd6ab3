"""Real-data runs: single subsample fits and the repeated-subsampling
comparison study.

Because the true parameters are unknown on real data, strategies are
compared by the summed SMSE over all candidate models, each measured
against its own full-data MLE and aggregated over repeated subsampling
runs on the fixed dataset.  The full-data MLEs walk the N rows in
feature-major blocks built from the raw covariates, so no N x d design
is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .config import RealDataConfig
from .families import Family
from .fitting import WeightedSample, fit_weighted_mles
from .models import LazyDesign, ModelSet
from .simulate import run_strategies, ssmse
from .twostage import TwoStageResult, two_stage

__all__ = ["SsmseRecord", "full_data_mles", "run_subsample", "run_ssmse_study"]


@dataclass(frozen=True)
class SsmseRecord:
    """Summed SMSE of one strategy at one subsample size."""

    scenario: str
    r: int
    ssmse: float
    n_failed: int


def full_data_mles(family: Family, models: ModelSet, raw: np.ndarray, y: np.ndarray):
    """Unweighted MLE of every candidate model on the whole dataset, all
    fitted in one Newton loop on a lazy union design, whose row blocks the
    loop builds as it walks them."""
    sample = WeightedSample(LazyDesign(models.full_spec, raw), y, np.ones(len(y)))
    return [fit.theta for fit in fit_weighted_mles(family, sample, models.columns, max_iter=200)]


def run_subsample(
    config: RealDataConfig, raw: np.ndarray, y: np.ndarray, rng: np.random.Generator
) -> TwoStageResult:
    """One two-stage run under the configured sampling model (or the
    model-robust rule when none is set)."""
    return two_stage(
        config.family,
        config.model_set,
        raw,
        y,
        config.r0,
        config.r,
        rng,
        criterion=config.criterion,
        sampling_model=config.sampling_model,
        eps=config.eps,
    )


def _model_estimates(config: RealDataConfig, result: TwoStageResult) -> list:
    return [fit.theta for fit in result.fits]


def run_ssmse_study(config: RealDataConfig, raw: np.ndarray, y: np.ndarray) -> "list[SsmseRecord]":
    """Repeated-subsampling comparison on a fixed dataset.

    Every strategy (random, per-model optimal, model-robust) is run
    ``replicates`` times at each subsample size; each run fits all Q
    candidate models and the record aggregates the summed SMSE against
    the full-data MLEs, which the runner fits as one more task, in a worker
    beside the replicates when two or more CPUs are usable.  Output is
    deterministic in the master seed and independent of the worker count.
    """
    full_fit = partial(full_data_mles, config.family, config.model_set, raw, y)
    cells, mles = run_strategies(config, (raw, y), _model_estimates, full_fit)
    records = []
    for label, r, good, n_failed in cells:
        if good:
            total = ssmse([np.array(block) for block in zip(*good)], mles)
        else:
            total = float("nan")
        records.append(
            SsmseRecord(scenario=label, r=r, ssmse=total, n_failed=n_failed)
        )
    return records
