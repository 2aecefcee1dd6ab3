"""Weighted maximum-likelihood estimation for GLM subsamples.

A subsample drawn with selection probabilities ``phi`` is fitted by
maximizing the inverse-probability-weighted log-likelihood

    (1/n) sum_l [ y_l eta_l - psi(eta_l) ] / phi_l,     eta_l = theta^T x_l,

which corrects the selection bias of unequal-probability sampling
(Hansen-Hurwitz weighting).  Newton-Raphson is used with score and
Hessian

    g(theta) = sum_l (y_l - mean(eta_l)) x_l / phi_l,
    H(theta) = sum_l weight(eta_l) x_l x_l^T / phi_l.

After convergence the estimator's variance is estimated by the sandwich
form ``V = J^-1 Vc J^-1`` where, for a subsample of size n drawn from a
population of N rows,

    J  = 1/(N n)     sum_l weight(eta_l) x_l x_l^T / phi_l,
    Vc = 1/(N^2 n^2) sum_l (y_l - mean(eta_l))^2 x_l x_l^T / phi_l^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NonConvergenceError,
    NumericOverflowError,
    SingularInformationError,
    ValidationError,
)
from .families import Family

__all__ = [
    "WeightedSample",
    "FitResult",
    "weighted_loglik",
    "score_and_hessian",
    "fit_weighted_mle",
    "full_information",
]

DEFAULT_TOL = 1e-4
DEFAULT_MAX_ITER = 100

# Relative eigenvalue cutoff below which a symmetric information matrix is
# treated as singular.  LU solves alone do not detect numerical rank
# deficiency reliably (the pivot is rounding noise, not exactly zero).
_RCOND = 1e-12


def _is_singular(matrix: np.ndarray) -> bool:
    try:
        evals = np.linalg.eigvalsh(matrix)
    except np.linalg.LinAlgError:
        return True
    return not (evals[-1] > 0 and evals[0] > evals[-1] * _RCOND)


@dataclass(frozen=True)
class WeightedSample:
    """Rows selected by a sampling step: design, response and the
    probability under which each row was drawn.

    Probabilities must be strictly positive (and at most one); rows keep
    the probability of the stage that drew them when stages are combined.
    """

    design: np.ndarray
    response: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "design", np.atleast_2d(np.asarray(self.design, dtype=float)))
        object.__setattr__(self, "response", np.asarray(self.response, dtype=float).ravel())
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float).ravel())
        n = self.design.shape[0]
        if self.response.shape[0] != n or self.probs.shape[0] != n:
            raise ValidationError(
                f"sample dimensions disagree: design has {n} rows, response "
                f"{self.response.shape[0]}, probs {self.probs.shape[0]}"
            )
        if np.any(self.probs <= 0.0) or np.any(self.probs > 1.0):
            raise ValidationError("selection probabilities must lie in (0, 1]")

    @property
    def n_rows(self) -> int:
        return self.design.shape[0]

    @property
    def n_params(self) -> int:
        return self.design.shape[1]


@dataclass(frozen=True)
class FitResult:
    """A fitted weighted MLE with its estimated information and variance.

    ``variance`` is the sandwich estimate ``info_JX^-1 @ vc @ info_JX^-1``
    computed from the stored factors.
    """

    theta: np.ndarray
    info_JX: np.ndarray
    vc: np.ndarray
    variance: np.ndarray
    iterations: int

    @property
    def std_errors(self) -> np.ndarray:
        return np.sqrt(np.diag(self.variance))


def weighted_loglik(family: Family, theta: np.ndarray, sample: WeightedSample) -> float:
    """Inverse-probability-weighted log-likelihood (additive constants in y
    dropped), averaged over the sample size."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape[0] != sample.n_params:
        raise ValidationError(
            f"theta has length {theta.shape[0]} but design has "
            f"{sample.n_params} columns"
        )
    eta = sample.design @ theta
    terms = (sample.response * eta - family.cumulant(eta)) / sample.probs
    return float(terms.sum() / sample.n_rows)


def score_and_hessian(
    family: Family, theta: np.ndarray, sample: WeightedSample
) -> tuple[np.ndarray, np.ndarray]:
    """Score vector and (positive) Hessian of the weighted log-likelihood,
    both unnormalized sums over the sample."""
    x = sample.design
    eta = x @ np.asarray(theta, dtype=float)
    mu = family.mean(eta)
    w = family.weight(eta)
    g = x.T @ ((sample.response - mu) / sample.probs)
    h = (x * (w / sample.probs)[:, None]).T @ x
    return g, 0.5 * (h + h.T)


def fit_weighted_mle(
    family: Family,
    sample: WeightedSample,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    population_size: int | None = None,
) -> FitResult:
    """Fit a GLM to a weighted sample by Newton-Raphson from the zero
    vector.

    Parameters
    ----------
    family : Family
        Response family (logistic or Poisson).
    sample : WeightedSample
        Rows with their selection probabilities.
    tol : float
        Stop when the Euclidean norm of the Newton step falls below this.
    max_iter : int
        Maximum number of Newton updates.
    population_size : int, optional
        Number of rows N in the population the sample was drawn from;
        enters the normalization of ``info_JX`` and ``vc``.  Defaults to
        the sample size, which is exact for whole-data fits.

    Returns
    -------
    FitResult

    Raises
    ------
    SingularInformationError
        The Hessian is singular at the starting value (rank-deficient
        design).
    NonConvergenceError
        ``max_iter`` exceeded, or the iterates diverged (e.g. separated
        logistic data, where the MLE does not exist).  Carries the last
        iterate.
    """
    n, d = sample.design.shape
    if n < d:
        raise ValidationError(f"need at least {d} rows to fit {d} parameters, got {n}")
    family.validate_response(sample.response)

    theta = np.zeros(d)
    for t in range(max_iter):
        try:
            g, h = score_and_hessian(family, theta, sample)
        except NumericOverflowError as exc:
            raise NonConvergenceError(
                f"iterates diverged after {t} updates: {exc}",
                theta=theta,
                iterations=t,
            ) from exc
        if _is_singular(h):
            if t == 0:
                raise SingularInformationError(
                    "information matrix is singular at the starting value "
                    "(rank-deficient design?)"
                )
            # Weights underflowed mid-iteration: the iterates diverged, as
            # happens for separated logistic data where no MLE exists.
            raise NonConvergenceError(
                f"information matrix became singular after {t} updates",
                theta=theta,
                iterations=t,
            )
        step = np.linalg.solve(h, g)
        if not np.all(np.isfinite(step)):
            raise NonConvergenceError(
                f"Newton step became non-finite after {t} updates",
                theta=theta,
                iterations=t,
            )
        theta = theta + step
        if float(np.linalg.norm(step)) < tol:
            break
    else:
        raise NonConvergenceError(
            f"Newton-Raphson did not converge in {max_iter} iterations",
            theta=theta,
            iterations=max_iter,
        )

    big_n = n if population_size is None else int(population_size)
    x = sample.design
    eta = x @ theta
    mu = family.mean(eta)
    w = family.weight(eta)
    info = (x * (w / sample.probs)[:, None]).T @ x / (big_n * n)
    info = 0.5 * (info + info.T)
    resid_sq = (sample.response - mu) ** 2
    vc = (x * (resid_sq / sample.probs**2)[:, None]).T @ x / (big_n**2 * n**2)
    vc = 0.5 * (vc + vc.T)
    if _is_singular(info):
        raise SingularInformationError("information matrix is singular at the optimum")
    info_inv = np.linalg.inv(info)
    variance = info_inv @ vc @ info_inv
    variance = 0.5 * (variance + variance.T)
    return FitResult(
        theta=theta,
        info_JX=info,
        vc=vc,
        variance=variance,
        iterations=t + 1,
    )


def full_information(family: Family, theta: np.ndarray, design: np.ndarray) -> np.ndarray:
    """Observed information of the full data, ``(1/N) sum_i weight(eta_i)
    x_i x_i^T``, at the given parameter value."""
    design = np.atleast_2d(np.asarray(design, dtype=float))
    theta = np.asarray(theta, dtype=float)
    if theta.shape[0] != design.shape[1]:
        raise ValidationError(
            f"theta has length {theta.shape[0]} but design has "
            f"{design.shape[1]} columns"
        )
    w = family.weight(design @ theta)
    info = (design * w[:, None]).T @ design / design.shape[0]
    return 0.5 * (info + info.T)
