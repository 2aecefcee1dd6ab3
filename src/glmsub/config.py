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
    r_grid: [100, 200, 400]   # stage-2 sizes: non-empty, strictly ascending
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
      path: skin.csv          # relative to the working directory, not the config's
      response: is_skin
      covariates: [red, green, blue]
      continuous: [red, green, blue]    # default: all covariates
      scaling:                          # default: none
        red: standardize                # none | standardize | range-to-unit
    model_set:
      quadratic_over: [red, green, blue]  # names; default: all continuous
    sampling_model: model-robust    # or a 1-based model index; ssmse ignores it
    r: 500                    # subsample only
    r_grid: [200, 400]        # ssmse only
    replicates: 100           # ssmse only

``ssmse`` accepts and checks ``sampling_model`` but does not read it: it
runs every strategy (random, each single-model optimal one and
model-robust) whatever the key says, so its output does not depend on it.

The candidate model set is always the full main-effects model plus every
combination of squared terms over the ``quadratic_over`` covariates:
Q = 2^k models for k covariates, with k at most ``MAX_QUADRATIC_TERMS``.
Every stage-2 size (``r`` or each ``r_grid`` entry) must be at least
``r0``, and ``r0`` at least the largest model's parameter count + 1.

The dataset must be a regular file (a pipe or FIFO exits 1); the config
may be a pipe, which the CLI reads once and echoes into its sidecars, when
``--out`` names the output.

``parse_config`` only parses.  It checks types and required and unknown
keys (each reported with its key path), maps names and 1-based positions
to indices, checks ``covariates.dimension`` before it sizes the lists and
the length of each covariance row, caps the quadratic terms, and checks
that the covariance is positive definite before the run starts.  The
dataclasses it builds check the values and raise :class:`ConfigError` on
the YAML key, for library callers and the CLI's ``--seed`` too.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .datasets import CovariateColumn, DatasetDescriptor
from .errors import ConfigError, ValidationError
from .families import Family, get_family
from .models import ModelSet, ModelSpec, enumerate_quadratic_models
from .probabilities import DEFAULT_EPS, Criterion
from .simulate import (
    CovariateDistribution,
    ExponentialCovariates,
    MultivariateNormalCovariates,
    ScenarioConfig,
    UniformCovariates,
    _check_dimension,
    _check_run,
)

__all__ = ["RealDataConfig", "parse_config"]

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

    def __post_init__(self):
        _check_run(self, self.r)
        names = self.dataset.covariate_names
        squared = set(self.model_set.full_spec.quadratic_terms)
        non_continuous = sorted(squared - set(self.dataset.continuous_indices))
        if non_continuous:
            raise ConfigError(
                "model_set.quadratic_over",
                f"covariates {[names[i] for i in non_continuous]} are not continuous",
            )
        q = len(self.model_set)
        if self.sampling_model is not None and not 0 <= self.sampling_model < q:
            raise ConfigError(
                "sampling_model", f"model index {self.sampling_model + 1} outside 1..{q}"
            )


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


class _Block:
    """A mapping view that tracks key paths and rejects unknown keys."""

    def __init__(self, data: dict, path: str = ""):
        if not isinstance(data, dict):
            raise ConfigError(path or "<root>", f"expected a mapping, got {type(data).__name__}")
        self.data = data
        self.path = path
        self.seen: set[str] = set()

    def _key(self, name) -> str:
        return f"{self.path}.{name}" if self.path else str(name)

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
            raise ConfigError(self._key(sorted(unknown, key=str)[0]), "unknown key")

    def list_of(self, name: str, kind, required: bool = False, default=None):
        """The list at ``name``, each entry checked as a ``kind``."""
        value = self.get(name, list, required=required, default=default)
        if value is default and not required:
            return default
        return [_checked(v, kind, f"{self._key(name)}[{i}]") for i, v in enumerate(value)]


def _parse_covariates(block: _Block) -> CovariateDistribution:
    kind = block.get("distribution", str, required=True).lower()
    dimension = block.get("dimension", int, required=True)
    if kind == "exponential":
        rate = block.get("rate", float, required=True)
        block.reject_unknown()
        return ExponentialCovariates(rate=rate, dimension=dimension)
    if kind == "normal":
        _check_dimension(dimension)  # it sizes the lists below
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
        dist = MultivariateNormalCovariates(mean=np.array(mean), cov=np.array(cov))
        dist.cholesky()
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
    specs = enumerate_quadratic_models(n_main, continuous).specs
    try:
        return ModelSet(specs, alpha)
    except ValidationError as exc:
        raise ConfigError(f"{block.path}.alpha", str(exc)) from None


def _parse_simulate(root: _Block, common: dict) -> ScenarioConfig:
    n_population = root.get("population", int, required=True)
    replicates = root.get("replicates", int, required=True)
    r_grid = root.list_of("r_grid", int, required=True)

    cov_block = root.block("covariates", required=True)
    covariates = _parse_covariates(cov_block)
    n_main = covariates.dimension

    model_block = root.block("model_set")
    model_set = _parse_model_set(
        model_block, n_main, tuple(range(n_main)), "covariates.dimension"
    )

    dg_block = root.block("data_generating", required=True)
    listed = dg_block.list_of("quadratic_terms", int, default=[])
    quad = _as_zero_based(listed, n_main, "data_generating.quadratic_terms")
    theta = dg_block.list_of("theta", float, required=True)
    dg_block.reject_unknown()
    root.reject_unknown()
    return ScenarioConfig(
        covariates=covariates,
        data_generating_model=ModelSpec(main_effects=tuple(range(n_main)), quadratic_terms=quad),
        true_theta=np.array(theta),
        model_set=model_set,
        n_population=n_population,
        r_grid=r_grid,
        n_replicates=replicates,
        **common,
    )


def _parse_dataset(block: _Block) -> DatasetDescriptor:
    path = block.get("path", str, required=True)
    response = block.get("response", str, required=True)
    names = block.list_of("covariates", str, required=True)
    continuous = block.list_of("continuous", str, default=None)
    scaling_block = block.block("scaling")
    block.reject_unknown()

    rules = {}
    if scaling_block is not None:
        for name in list(scaling_block.data):
            rules[name] = scaling_block.get(name, str)
            if name not in names:
                raise ConfigError(f"dataset.scaling.{name}", "not a covariate")
    if continuous is not None:
        for name in continuous:
            if name not in names:
                raise ConfigError("dataset.continuous", f"unknown covariate {name!r}")
    continuous_set = set(names if continuous is None else continuous)
    columns = []
    try:
        for name in names:
            columns.append(CovariateColumn(name, name in continuous_set, rules.get(name, "none")))
    except ValidationError as exc:
        raise ConfigError(f"dataset.scaling.{name}", str(exc)) from None
    try:
        return DatasetDescriptor(path=path, response=response, covariates=columns)
    except ValidationError as exc:
        raise ConfigError("dataset.covariates", str(exc)) from None


def _parse_real_data(mode: str, root: _Block, common: dict) -> RealDataConfig:
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
    r = root.get("r", int, required=True) if mode == "subsample" else None
    r_grid = tuple(root.list_of("r_grid", int, required=True)) if mode == "ssmse" else None
    replicates = root.get("replicates", int, required=True) if mode == "ssmse" else None

    root.seen.add("sampling_model")
    value = root.data.get("sampling_model", "model-robust")
    sampling_model: int | None = None
    if isinstance(value, int) and not isinstance(value, bool):
        sampling_model = value - 1
    elif value != "model-robust":
        raise ConfigError(
            "sampling_model",
            f"expected 'model-robust' or a 1-based model index, got {value!r}",
        )
    root.reject_unknown()
    return RealDataConfig(
        mode=mode,
        dataset=dataset,
        model_set=model_set,
        r=r,
        r_grid=r_grid,
        n_replicates=replicates,
        sampling_model=sampling_model,
        **common,
    )


def parse_config(path: "str | Path") -> "ScenarioConfig | RealDataConfig":
    """Parse a run configuration file into the config it describes; the
    config's constructor checks the values."""
    return _parse_mapping(_read_config(path))


def _read_config(path: "str | Path"):
    """The YAML document in the file.  The CLI reads it once, to parse it
    and to echo it, so that a config read from a pipe is echoed too."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(str(path), "config file not found")
    if path.is_dir():
        raise ConfigError(str(path), "is a directory, not a config file")
    with open(path, encoding="utf-8") as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(str(path), f"invalid YAML: {exc}") from None
        except UnicodeDecodeError as exc:
            bad = exc.object[exc.start]
            raise ConfigError(str(path), f"not UTF-8: byte 0x{bad:02x} ({exc.reason})") from None
    return data


def _parse_mapping(data) -> "ScenarioConfig | RealDataConfig":
    """The config described by a YAML document, which this leaves as it is."""
    root = _Block(data if data is not None else {})

    mode = root.get("mode", str, required=True)
    if mode not in MODES:
        raise ConfigError("mode", f"expected one of {MODES}, got {mode!r}")
    criterion = root.get("criterion", str, default="mMSE")
    common = dict(  # the keys every mode reads
        family=get_family(root.get("family", str, required=True)),
        criterion=_CRITERIA.get(criterion.lower(), criterion),  # any case; the config checks it
        eps=root.get("eps", float, default=DEFAULT_EPS),
        master_seed=root.get("seed", int, default=0),
        r0=root.get("r0", int, required=True),
    )
    if mode == "simulate":
        return _parse_simulate(root, common)
    return _parse_real_data(mode, root, common)
