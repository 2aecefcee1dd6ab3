"""YAML run configuration.

One file describes one run.  Common keys::

    mode: simulate            # simulate | subsample | probabilities | ssmse
    family: logistic          # logistic | poisson
    criterion: mMSE           # optional; mMSE (default) or mVc
    eps: 1.0e-6               # optional residual floor (default 1e-6)
    seed: 20260810            # optional master seed (default 0)
    r0: 100                   # stage-1 subsample size

Simulation mode (synthetic data regenerated each replicate)::

    population: 10000         # N
    replicates: 200           # M
    r_grid: [100, 200, 400]   # stage-2 sizes, ascending
    covariates:
      distribution: normal    # normal | exponential | uniform
      dimension: 2
      mean: [0.0, 0.0]        # normal only
      covariance: [[1.5, 0.0], [0.0, 1.5]]
      # rate: 1.732           # exponential only
    model_set:
      quadratic_over: [1, 2]  # 1-based covariate positions; default: all
      # alpha: [0.25, 0.25, 0.25, 0.25]   # default: uniform
    data_generating:
      quadratic_terms: []     # subset of quadratic_over (1-based)
      theta: [-1.0, 0.5, 0.1]

Real-data modes (subsample | probabilities | ssmse) replace the three
synthetic blocks with a dataset block::

    dataset:
      path: skin.csv
      response: is_skin
      covariates: [red, green, blue]
      continuous: [red, green, blue]    # default: all covariates
      scaling:                          # default: none
        red: standardize                # none | standardize | range-to-unit
    model_set:
      quadratic_over: [red, green, blue]  # names; default: all continuous
    sampling_model: model-robust    # or a 1-based model index
    r: 500                    # subsample only
    r_grid: [200, 400]        # ssmse only
    replicates: 100           # ssmse only

The candidate model set is always the full main-effects model plus every
combination of squared terms over the ``quadratic_over`` covariates:
Q = 2^k models for k covariates, with k at most ``MAX_QUADRATIC_TERMS``.
Every stage-2 size (``r`` or each ``r_grid`` entry) must be at least
``r0``, and ``r0`` at least the largest model's parameter count + 1.
Unknown keys anywhere are rejected, with the offending key path reported.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .datasets import CovariateColumn, DatasetDescriptor, Scaling
from .errors import ConfigError, ValidationError
from .families import Family, get_family
from .models import ModelSet, ModelSpec, enumerate_quadratic_models, validate_alpha
from .probabilities import DEFAULT_EPS, Criterion
from .simulate import (
    CovariateDistribution,
    ExponentialCovariates,
    MultivariateNormalCovariates,
    ScenarioConfig,
    UniformCovariates,
)

__all__ = ["RealDataConfig", "parse_config", "MODES"]

MODES = ("simulate", "subsample", "probabilities", "ssmse")

_CRITERIA = {"mmse": Criterion.MMSE, "mvc": Criterion.MVC}

# The candidate set holds Q = 2^k models for k quadratic terms; past this
# k, enumerating and fitting them all would run for hours.
MAX_QUADRATIC_TERMS = 10


@dataclass(frozen=True)
class RealDataConfig:
    """A validated real-data run: which CSV, which models, which sizes."""

    mode: str
    family: Family
    dataset: DatasetDescriptor
    model_set: ModelSet
    criterion: Criterion
    eps: float
    master_seed: int
    r0: int
    r: int | None
    r_grid: tuple[int, ...] | None
    n_replicates: int | None
    sampling_model: int | None  # None means model-robust sampling


_NOUNS = {int: "an integer", float: "a finite number", str: "a string"}


def _checked(value, kind, key: str):
    """``value`` as a ``kind``.  Booleans are not numbers, integers pass as
    floats, and a float must be finite (YAML ``.nan`` and ``.inf`` fail)."""
    allowed = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, allowed) or (
        kind is float and not abs(value) <= sys.float_info.max
    ):
        raise ConfigError(key, f"expected {_NOUNS.get(kind, kind.__name__)}, got {value!r}")
    return float(value) if kind is float else value


_LARGEST = " (largest model size + 1)"


def _at_least(value, low, key: str, why: str = ""):
    """``value``, after checking that it is at least ``low``."""
    if value < low:
        raise ConfigError(key, f"must be at least {low}{why}, got {value}")
    return value


class _Block:
    """A mapping view that tracks key paths and rejects unknown keys."""

    def __init__(self, data: dict, path: str = ""):
        if not isinstance(data, dict):
            raise ConfigError(path or "<root>", f"expected a mapping, got {type(data).__name__}")
        self.data = data
        self.path = path
        self.seen: set[str] = set()

    def _key(self, name: str) -> str:
        return f"{self.path}.{name}" if self.path else name

    def get(self, name: str, kind, required: bool = False, default=None):
        self.seen.add(name)
        if name not in self.data:
            if required:
                raise ConfigError(self._key(name), "required key is missing")
            return default
        return _checked(self.data[name], kind, self._key(name))

    def block(self, name: str, required: bool = False) -> "_Block | None":
        self.seen.add(name)
        if name not in self.data:
            if required:
                raise ConfigError(self._key(name), "required section is missing")
            return None
        return _Block(self.get(name, dict, required=required) or {}, self._key(name))

    def reject_unknown(self):
        unknown = set(self.data) - self.seen
        if unknown:
            raise ConfigError(self._key(sorted(unknown)[0]), "unknown key")

    def list_of(self, name: str, kind, required: bool = False, default=None):
        """The list at ``name``, each entry checked as a ``kind``."""
        value = self.get(name, list, required=required, default=default)
        if value is default and not required:
            return default
        return [_checked(v, kind, f"{self._key(name)}[{i}]") for i, v in enumerate(value)]


def _parse_criterion(root: _Block) -> Criterion:
    text = root.get("criterion", str, default="mMSE")
    try:
        return _CRITERIA[text.lower()]
    except KeyError:
        raise ConfigError("criterion", f"expected mMSE or mVc, got {text!r}") from None


def _parse_covariates(block: _Block) -> CovariateDistribution:
    kind = block.get("distribution", str, required=True).lower()
    dimension = _at_least(block.get("dimension", int, required=True), 1, "covariates.dimension")
    if kind == "exponential":
        rate = block.get("rate", float, required=True)
        block.reject_unknown()
        if rate <= 0:
            raise ConfigError("covariates.rate", f"must be positive, got {rate}")
        return ExponentialCovariates(rate=rate, dimension=dimension)
    if kind == "normal":
        mean = block.list_of("mean", float, required=True)
        cov_rows = block.get("covariance", list, required=True)
        block.reject_unknown()
        if len(mean) != dimension:
            raise ConfigError("covariates.mean", f"expected {dimension} entries, got {len(mean)}")
        cov = []
        for i, row in enumerate(cov_rows):
            key = f"covariates.covariance[{i}]"
            if not isinstance(row, list) or len(row) != dimension:
                raise ConfigError(key, f"expected a row of {dimension} numbers")
            cov.append([_checked(v, float, f"{key}[{j}]") for j, v in enumerate(row)])
        if len(cov) != dimension:
            raise ConfigError("covariates.covariance", f"expected {dimension} rows, got {len(cov)}")
        try:
            dist = MultivariateNormalCovariates(mean=np.array(mean), cov=np.array(cov))
            np.linalg.cholesky(dist.cov)  # the factor sample() draws through
        except ValidationError as exc:
            raise ConfigError("covariates.covariance", str(exc)) from None
        except np.linalg.LinAlgError:
            raise ConfigError("covariates.covariance", "must be positive definite") from None
        return dist
    if kind == "uniform":
        block.reject_unknown()
        return UniformCovariates(dimension=dimension)
    raise ConfigError(
        "covariates.distribution",
        f"expected normal, exponential or uniform, got {kind!r}",
    )


def _as_zero_based(values: "list[int]", limit: int, key: str) -> "tuple[int, ...]":
    out = []
    for v in values:
        if not (1 <= v <= limit):
            raise ConfigError(key, f"covariate position {v} outside 1..{limit}")
        out.append(v - 1)
    return tuple(sorted(set(out)))


def _parse_model_set(
    block: "_Block | None",
    n_main: int,
    default_continuous: "tuple[int, ...]",
    default_key: str,
    covariate_names: "list[str] | None" = None,
) -> ModelSet:
    """Parse ``model_set``.  ``quadratic_over`` lists covariate names when
    ``covariate_names`` is given and 1-based positions otherwise; when it
    is absent, ``default_continuous`` (set by ``default_key``) is used."""
    continuous, key, alpha = default_continuous, default_key, None
    if block is not None:
        if covariate_names is not None:
            listed = block.list_of("quadratic_over", str, default=None)
        else:
            listed = block.list_of("quadratic_over", int, default=None)
        if listed is not None:
            key = f"{block.path}.quadratic_over"
            if covariate_names is None:
                continuous = _as_zero_based(listed, n_main, key)
            else:
                for name in listed:
                    if name not in covariate_names:
                        raise ConfigError(key, f"unknown covariate {name!r}")
                continuous = tuple(sorted({covariate_names.index(name) for name in listed}))
        alpha = block.list_of("alpha", float, default=None)
        block.reject_unknown()
    k = len(continuous)
    if k > MAX_QUADRATIC_TERMS:
        raise ConfigError(
            key,
            f"{k} quadratic terms give Q = 2^{k} = {2**k} candidate models; "
            f"at most {MAX_QUADRATIC_TERMS} terms (Q = {2**MAX_QUADRATIC_TERMS}) are supported",
        )
    model_set = enumerate_quadratic_models(n_main, continuous)
    if alpha is not None:
        if len(alpha) != len(model_set):
            raise ConfigError(
                f"{block.path}.alpha",
                f"expected {len(model_set)} weights, got {len(alpha)}",
            )
        try:
            alpha = validate_alpha(alpha)
        except ValidationError as exc:
            raise ConfigError(f"{block.path}.alpha", str(exc)) from None
        model_set = ModelSet(specs=model_set.specs, alpha=alpha)
    return model_set


def _check_sizes(
    model_set: ModelSet, r0: int, r: "int | None", r_grid: "list[int] | None"
) -> None:
    """Reject subsample sizes that break ``r >= r0 >= d_max + 1`` before
    any data is generated or loaded; ``two_stage`` checks the same
    condition for library callers.  ``r_grid`` is already ascending."""
    _at_least(r0, model_set.max_params + 1, "r0", _LARGEST)
    if r is not None and r < r0:
        raise ConfigError("r", f"must be at least r0 = {r0}, got {r}")
    if r_grid and r_grid[0] < r0:
        raise ConfigError("r_grid", f"sizes must be at least r0 = {r0}, got {r_grid[0]}")


def _parse_simulate(root: _Block, family: Family, criterion: Criterion, eps: float, seed: int) -> ScenarioConfig:
    n_population = root.get("population", int, required=True)
    replicates = _at_least(root.get("replicates", int, required=True), 1, "replicates")
    r0 = root.get("r0", int, required=True)
    r_grid = root.list_of("r_grid", int, required=True)
    if any(b <= a for a, b in zip(r_grid, r_grid[1:])):
        raise ConfigError("r_grid", f"must be strictly ascending, got {r_grid}")

    cov_block = root.block("covariates", required=True)
    covariates = _parse_covariates(cov_block)
    n_main = covariates.dimension

    model_block = root.block("model_set")
    model_set = _parse_model_set(
        model_block, n_main, tuple(range(n_main)), "covariates.dimension"
    )
    _check_sizes(model_set, r0, None, r_grid)
    _at_least(n_population, model_set.max_params + 1, "population", _LARGEST)

    dg_block = root.block("data_generating", required=True)
    listed = dg_block.list_of("quadratic_terms", int, default=[])
    quad = _as_zero_based(listed, n_main, "data_generating.quadratic_terms")
    theta = dg_block.list_of("theta", float, required=True)
    dg_block.reject_unknown()
    bad = set(quad) - set(model_set.full_spec.quadratic_terms)
    if bad:
        raise ConfigError(
            "data_generating.quadratic_terms",
            f"positions {sorted(i + 1 for i in bad)} are not in the model set's quadratic_over",
        )
    dg_model = ModelSpec(main_effects=tuple(range(n_main)), quadratic_terms=quad)
    if len(theta) != dg_model.n_params:
        raise ConfigError(
            "data_generating.theta",
            f"expected {dg_model.n_params} values for intercept + {n_main} main "
            f"effects + {len(quad)} quadratic terms, got {len(theta)}",
        )
    root.reject_unknown()
    return ScenarioConfig(
        family=family,
        covariates=covariates,
        data_generating_model=dg_model,
        true_theta=np.array(theta),
        model_set=model_set,
        n_population=n_population,
        r0=r0,
        r_grid=tuple(r_grid),
        n_replicates=replicates,
        eps=eps,
        master_seed=seed,
        criterion=criterion,
    )


def _parse_dataset(block: _Block) -> DatasetDescriptor:
    path = block.get("path", str, required=True)
    response = block.get("response", str, required=True)
    names = block.list_of("covariates", str, required=True)
    continuous = block.list_of("continuous", str, default=None)
    scaling_block = block.block("scaling")
    block.reject_unknown()

    scaling = {}
    if scaling_block is not None:
        for name in list(scaling_block.data):
            rule = scaling_block.get(name, str)
            if name not in names:
                raise ConfigError(f"dataset.scaling.{name}", "not a covariate")
            try:
                scaling[name] = Scaling(rule)
            except ValueError:
                raise ConfigError(
                    f"dataset.scaling.{name}",
                    f"expected none, standardize or range-to-unit, got {rule!r}",
                ) from None
    if continuous is not None:
        for name in continuous:
            if name not in names:
                raise ConfigError("dataset.continuous", f"unknown covariate {name!r}")
    continuous_set = set(names if continuous is None else continuous)
    columns = tuple(
        CovariateColumn(
            name=name,
            continuous=name in continuous_set,
            scaling=scaling.get(name, Scaling.NONE),
        )
        for name in names
    )
    return DatasetDescriptor(path=path, response=response, covariates=columns)


def _parse_real_data(
    mode: str, root: _Block, family: Family, criterion: Criterion, eps: float, seed: int
) -> RealDataConfig:
    dataset = _parse_dataset(root.block("dataset", required=True))
    names = dataset.covariate_names
    model_block = root.block("model_set")
    model_set = _parse_model_set(
        model_block,
        len(names),
        dataset.continuous_indices,
        "dataset.continuous",
        covariate_names=names,
    )
    non_continuous = set(model_set.full_spec.quadratic_terms) - set(dataset.continuous_indices)
    if non_continuous:
        raise ConfigError(
            "model_set.quadratic_over",
            f"covariates {[names[i] for i in sorted(non_continuous)]} are not continuous",
        )

    r0 = root.get("r0", int, required=True)
    r = root.get("r", int, required=True) if mode == "subsample" else None
    r_grid = root.list_of("r_grid", int, required=True) if mode == "ssmse" else None
    replicates = None
    if mode == "ssmse":
        replicates = _at_least(root.get("replicates", int, required=True), 1, "replicates")
    if r_grid is not None and any(b <= a for a, b in zip(r_grid, r_grid[1:])):
        raise ConfigError("r_grid", f"must be strictly ascending, got {r_grid}")
    _check_sizes(model_set, r0, r, r_grid)

    root.seen.add("sampling_model")
    value = root.data.get("sampling_model", "model-robust")
    sampling_model: int | None = None
    if isinstance(value, int) and not isinstance(value, bool):
        if not (1 <= value <= len(model_set)):
            raise ConfigError("sampling_model", f"model index {value} outside 1..{len(model_set)}")
        sampling_model = value - 1
    elif value != "model-robust":
        raise ConfigError(
            "sampling_model",
            f"expected 'model-robust' or a 1-based model index, got {value!r}",
        )
    root.reject_unknown()
    return RealDataConfig(
        mode=mode,
        family=family,
        dataset=dataset,
        model_set=model_set,
        criterion=criterion,
        eps=eps,
        master_seed=seed,
        r0=r0,
        r=r,
        r_grid=None if r_grid is None else tuple(r_grid),
        n_replicates=replicates,
        sampling_model=sampling_model,
    )


def parse_config(path: "str | Path") -> "ScenarioConfig | RealDataConfig":
    """Parse and validate a run configuration file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(str(path), "config file not found")
    with open(path, encoding="utf-8") as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(str(path), f"invalid YAML: {exc}") from None
    root = _Block(data if data is not None else {})

    mode = root.get("mode", str, required=True)
    if mode not in MODES:
        raise ConfigError("mode", f"expected one of {MODES}, got {mode!r}")
    family = get_family(root.get("family", str, required=True))
    criterion = _parse_criterion(root)
    eps = root.get("eps", float, default=DEFAULT_EPS)
    if eps <= 0:
        raise ConfigError("eps", f"must be positive, got {eps}")
    seed = root.get("seed", int, default=0)
    if seed < 0:
        raise ConfigError("seed", f"must be non-negative, got {seed}")

    if mode == "simulate":
        return _parse_simulate(root, family, criterion, eps, seed)
    return _parse_real_data(mode, root, family, criterion, eps, seed)
