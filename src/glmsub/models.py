"""Candidate model specifications and design-matrix construction.

A model is a feature map from raw covariates to a design matrix with a
fixed column order: intercept, then main effects in their input order,
then squared terms in subset order.  A model set bundles several such
maps with prior weights that sum to one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import ValidationError

__all__ = [
    "ModelSpec",
    "ModelSet",
    "build_design",
    "enumerate_quadratic_models",
    "validate_alpha",
]

ALPHA_SUM_TOL = 1e-12


@dataclass(frozen=True)
class ModelSpec:
    """Feature map: intercept + main effects + squared continuous terms.

    Indices are 0-based positions into the raw covariate matrix.
    ``quadratic_terms`` must be a subset of ``main_effects``.
    """

    main_effects: tuple[int, ...]
    quadratic_terms: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "main_effects", tuple(int(i) for i in self.main_effects))
        object.__setattr__(self, "quadratic_terms", tuple(int(i) for i in self.quadratic_terms))
        if len(set(self.main_effects)) != len(self.main_effects):
            raise ValidationError(f"duplicate main effect in {self.main_effects}")
        if len(set(self.quadratic_terms)) != len(self.quadratic_terms):
            raise ValidationError(f"duplicate quadratic term in {self.quadratic_terms}")
        extra = set(self.quadratic_terms) - set(self.main_effects)
        if extra:
            raise ValidationError(
                f"quadratic terms {sorted(extra)} are not among main effects "
                f"{self.main_effects}"
            )
        if any(i < 0 for i in self.main_effects):
            raise ValidationError("covariate indices must be non-negative")

    @property
    def n_params(self) -> int:
        return 1 + len(self.main_effects) + len(self.quadratic_terms)

    def term_labels(self, names: list[str] | None = None) -> list[str]:
        """Column labels for the design matrix, using covariate names when
        given and ``x<j+1>`` placeholders otherwise."""
        def name(i: int) -> str:
            return names[i] if names is not None else f"x{i + 1}"

        labels = ["intercept"]
        labels += [name(i) for i in self.main_effects]
        labels += [f"{name(i)}^2" for i in self.quadratic_terms]
        return labels


def build_design(spec: ModelSpec, raw: np.ndarray) -> np.ndarray:
    """Build the design matrix ``[1 | x_main | x_quad^2]`` for a model."""
    raw = np.atleast_2d(np.asarray(raw, dtype=float))
    needed = max(spec.main_effects, default=-1)
    if needed >= raw.shape[1]:
        raise ValidationError(
            f"model references covariate index {needed} but raw data has "
            f"{raw.shape[1]} columns"
        )
    cols = [np.ones(raw.shape[0])]
    cols += [raw[:, i] for i in spec.main_effects]
    cols += [raw[:, i] ** 2 for i in spec.quadratic_terms]
    return np.column_stack(cols)


def validate_alpha(alpha) -> np.ndarray:
    """Check that prior model weights lie in [0, 1] and sum to one."""
    alpha = np.asarray(alpha, dtype=float).ravel()
    if alpha.size < 1:
        raise ValidationError("alpha must have at least one entry")
    bad = ~((alpha >= 0.0) & (alpha <= 1.0))  # NaN is bad too
    if np.any(bad):
        idx = int(np.flatnonzero(bad)[0])
        raise ValidationError(f"alpha[{idx}] = {alpha[idx]} is outside [0, 1]")
    total = float(alpha.sum())
    if not abs(total - 1.0) <= ALPHA_SUM_TOL:
        raise ValidationError(f"alpha sums to {total!r}, expected 1")
    return alpha


@dataclass(frozen=True)
class ModelSet:
    """An ordered set of candidate models with prior weights alpha.

    ``full_spec`` holds the sorted unions of main and quadratic terms, and
    model q's design is ``build_design(full_spec, raw)[:, columns[q]]``."""

    specs: tuple[ModelSpec, ...]
    alpha: np.ndarray = field(default=None)  # type: ignore[assignment]
    full_spec: ModelSpec = field(init=False, repr=False, compare=False)
    columns: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "specs", tuple(self.specs))
        if len(self.specs) == 0:
            raise ValidationError("model set must contain at least one model")
        alpha = self.alpha
        if alpha is None:
            alpha = np.full(len(self.specs), 1.0 / len(self.specs))
        alpha = validate_alpha(alpha)
        if alpha.size != len(self.specs):
            raise ValidationError(
                f"{len(self.specs)} models but {alpha.size} alpha weights"
            )
        object.__setattr__(self, "alpha", alpha)
        full = ModelSpec(
            main_effects=sorted({i for spec in self.specs for i in spec.main_effects}),
            quadratic_terms=sorted({i for spec in self.specs for i in spec.quadratic_terms}),
        )
        position = {label: j for j, label in enumerate(full.term_labels())}
        columns = [np.array([position[t] for t in spec.term_labels()]) for spec in self.specs]
        object.__setattr__(self, "full_spec", full)
        object.__setattr__(self, "columns", tuple(columns))

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    @property
    def max_params(self) -> int:
        return max(spec.n_params for spec in self.specs)

    def index_of(self, spec: ModelSpec) -> int:
        """Position of a model in the set."""
        try:
            return self.specs.index(spec)
        except ValueError:
            raise ValidationError(f"model {spec} is not in the model set") from None


def enumerate_quadratic_models(n_main: int, continuous: tuple[int, ...] | list[int]) -> ModelSet:
    """All models formed by adding subsets of squared continuous covariates
    to the full main-effects model.

    Yields ``2^len(continuous)`` models ordered by subset size then
    lexicographically, starting with the main-effects-only model, with
    uniform prior weights.
    """
    continuous = tuple(sorted(set(int(i) for i in continuous)))
    if any(i < 0 or i >= n_main for i in continuous):
        raise ValidationError(
            f"continuous indices {continuous} out of range for {n_main} covariates"
        )
    mains = tuple(range(n_main))
    specs = []
    for size in range(len(continuous) + 1):
        for subset in combinations(continuous, size):
            specs.append(ModelSpec(main_effects=mains, quadratic_terms=subset))
    return ModelSet(specs=tuple(specs))
