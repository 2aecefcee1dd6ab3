"""Weighted maximum-likelihood estimation for GLM subsamples.

A subsample drawn with selection probabilities ``phi`` is fitted by
maximizing the inverse-probability-weighted log-likelihood

    (1/n) sum_l [ y_l eta_l - psi(eta_l) ] / phi_l,     eta_l = theta^T x_l,

which corrects the selection bias of unequal-probability sampling
(Hansen-Hurwitz weighting).  Newton-Raphson is used with score and
Hessian

    g(theta) = sum_l (y_l - mean(eta_l)) x_l / phi_l,
    H(theta) = sum_l variance(mean(eta_l)) x_l x_l^T / phi_l.

After convergence the estimator's variance is estimated by the sandwich
form ``V = J^-1 Vc J^-1`` where, for a subsample of size n drawn from a
population of N rows,

    J  = 1/(N n)     sum_l variance(mean(eta_l)) x_l x_l^T / phi_l,
    Vc = 1/(N^2 n^2) sum_l (y_l - mean(eta_l))^2 x_l x_l^T / phi_l^2.

Every candidate model is fitted on the same rows, so
:func:`fit_weighted_mles` fits them all in one Newton loop over the
sample's union design, each model a column index into it.  The parameters
form a ``(Q, D)`` block that is zero outside each model's columns.  The
loop walks the rows in feature-major blocks ``xt`` (D x B) of
``_BLOCK_ROWS`` rows: one matmul gives the linear predictors of every
still-running model, the mean is evaluated once for all of them, and
their weighted Gram matrices come from one matmul of the block's pair
products ``x_j x_k`` (j <= k) against the weight matrix.  A sample whose
design is a :class:`LazyDesign` has each block built from its raw
covariates, so the full-data fits hold no N x D array.  A model leaves
the loop when it converges, after the same number of iterations as it
would alone and with results equal up to rounding.  Every caller treats
one model's failure as the failure of the row set, so the first iteration
in which any model fails ends the call with the error a lone fit of that
model would raise; :func:`fit_weighted_mle` is the one-model call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    NonConvergenceError,
    NumericOverflowError,
    SingularInformationError,
    ValidationError,
)
from .families import Family
from .models import LazyDesign, _design_block

__all__ = [
    "WeightedSample",
    "FitResult",
    "weighted_loglik",
    "score_and_hessian",
    "fit_weighted_mle",
    "fit_weighted_mles",
    "full_information",
]

DEFAULT_TOL = 1e-4
DEFAULT_MAX_ITER = 100

# Relative eigenvalue cutoff below which a symmetric information matrix is
# treated as singular.  LU solves alone do not detect numerical rank
# deficiency reliably (the pivot is rounding noise, not exactly zero).
_RCOND = 1e-12

# Rows per block of every pass over a sample or the full data.  Model-robust
# mMSE probabilities at N = 1e6, Q = 8 on a 2-vCPU VM: 0.71 s at 8k rows,
# 0.77 s at 16k, 1.05 s at 32k and 1.32 s at 64k.
_BLOCK_ROWS = 8192


def _singular(stack: np.ndarray) -> np.ndarray:
    """Which matrices of an ``(A, d, d)`` symmetric stack are singular: a
    smallest eigenvalue not above ``_RCOND`` times the largest (so also
    every matrix whose largest eigenvalue is not positive), or no
    eigenvalues at all (NaN entries)."""
    try:
        evals = np.linalg.eigvalsh(stack)
    except np.linalg.LinAlgError:
        if len(stack) == 1:
            return np.ones(1, dtype=bool)
        return np.concatenate([_singular(matrix[None]) for matrix in stack])
    return ~(evals[:, 0] > evals[:, -1] * _RCOND)


def _checked_inverse(matrix: np.ndarray, message: str) -> np.ndarray:
    """Inverse of an information matrix; ``message`` says why it is singular."""
    if _singular(matrix[None])[0]:
        raise SingularInformationError(message)
    return np.linalg.inv(matrix)


def _gram(xt: np.ndarray, v: np.ndarray, scale) -> np.ndarray:
    """Symmetrized weighted Gram matrix ``sum_i v_i x_i x_i^T / scale`` of
    the feature-major columns ``xt`` (d x B)."""
    g = (xt * v) @ xt.T / scale
    return 0.5 * (g + g.T)


def _checked_theta(theta, n_params: int) -> np.ndarray:
    """``theta`` as floats, after checking that it has ``n_params`` entries."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape[0] != n_params:
        raise ValidationError(
            f"theta has length {theta.shape[0]} but design has {n_params} columns"
        )
    return theta


def _linear_predictor(theta, design: np.ndarray) -> np.ndarray:
    """``design @ theta``, after checking that the lengths agree."""
    return design @ _checked_theta(theta, design.shape[1])


def _block_mean(family: Family, eta: np.ndarray, start: int) -> np.ndarray:
    """The mean of the linear predictors ``eta`` of a row block starting at
    row ``start``, one row of ``eta`` per model when it is 2-D.  An overflow
    names its row in the data, not its flat index in the block, and its
    ``model`` attribute is the row of ``eta`` it was found in."""
    try:
        return family.mean(eta)
    except NumericOverflowError as exc:
        model, column = divmod(exc.index, eta.shape[-1])
        row = start + column
        error = NumericOverflowError(
            f"{family.name} mean overflowed at row {row} (eta={eta.flat[exc.index].item()!r})",
            index=row,
        )
        error.model = model
        raise error from None


@dataclass(frozen=True)
class WeightedSample:
    """Rows selected by a sampling step: design, response and the
    probability under which each row was drawn.

    The design is an array or a :class:`LazyDesign`, whose rows the fits
    build block by block.  Probabilities must be strictly positive (and
    at most one); rows keep the probability of the stage that drew them
    when stages are combined.
    """

    design: "np.ndarray | LazyDesign"
    response: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        if not isinstance(self.design, LazyDesign):
            design = np.atleast_2d(np.asarray(self.design, dtype=float))
            object.__setattr__(self, "design", design)
        object.__setattr__(self, "response", np.asarray(self.response, dtype=float).ravel())
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float).ravel())
        n = self.design.shape[0]
        if self.response.shape[0] != n or self.probs.shape[0] != n:
            raise ValidationError(
                f"sample dimensions disagree: design has {n} rows, response "
                f"{self.response.shape[0]}, probs {self.probs.shape[0]}"
            )
        if not np.all((self.probs > 0.0) & (self.probs <= 1.0)):  # NaN fails too
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
    eta = _linear_predictor(theta, sample.design[:])
    terms = (sample.response * eta - family.cumulant(eta)) / sample.probs
    return float(terms.sum() / sample.n_rows)


def score_and_hessian(
    family: Family, theta: np.ndarray, sample: WeightedSample
) -> tuple[np.ndarray, np.ndarray]:
    """Score vector and (positive) Hessian of the weighted log-likelihood,
    both unnormalized sums over the sample."""
    x = sample.design[:]
    mu = family.mean(_linear_predictor(theta, x))
    g = x.T @ ((sample.response - mu) / sample.probs)
    return g, _gram(x.T, family.variance(mu) / sample.probs, 1)


def fit_weighted_mle(
    family: Family,
    sample: WeightedSample,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    population_size: int | None = None,
) -> FitResult:
    """Fit a GLM to a weighted sample by Newton-Raphson from the zero
    vector: :func:`fit_weighted_mles` with one model using every column.

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
        design) or the information at the optimum.
    NonConvergenceError
        ``max_iter`` exceeded, or the iterates diverged (e.g. separated
        logistic data, where the MLE does not exist).  Carries the last
        iterate.
    """
    columns = [np.arange(sample.n_params)]
    return fit_weighted_mles(family, sample, columns, population_size, tol, max_iter)[0]


def _pair_block(design, rows, used, buffer) -> tuple[np.ndarray, np.ndarray]:
    """A row block of the design as feature-major columns ``xt`` (D x B),
    keeping the columns ``used`` (all when None), and its pair products:
    rows ``x_j * x_k`` for j <= k in ``np.triu_indices`` order, then a row
    of zeros.  The packed Gram matrices of the weight rows ``W`` (A x B)
    are ``W @ pairs.T``, and their last column is zero.  The products are
    written into ``buffer`` (P + 1 rows, at least B columns).

    Models run along the first axis of every (A, B) array, so elementwise
    work on them loops over the rows of the block, not over the models.
    """
    xt = _design_block(design, rows)
    if used is not None:
        xt = xt[used]
    dim = xt.shape[0]
    pairs = buffer[:, : xt.shape[1]]
    start = 0
    for j in range(dim):
        np.multiply(xt[j], xt[j:], out=pairs[start : start + dim - j])
        start += dim - j
    pairs[start] = 0.0
    return xt, pairs


def _pad_absent(stack: np.ndarray, absent: np.ndarray) -> np.ndarray:
    """Set, in place, each matrix's diagonal outside its model's columns
    (where the matrix is zero) to its largest diagonal entry.

    A diagonal entry lies inside the spectrum of the model's own block, so
    the padded matrix has that block's extreme eigenvalues and its solution
    on the model's columns; an identity pad would add the eigenvalue 1,
    which changes the singular check of a block whose spectrum lies below 1.
    """
    i = np.arange(stack.shape[1])
    diag = stack[:, i, i]
    stack[:, i, i] = np.where(absent, diag.max(axis=1, keepdims=True), diag)
    return stack


def _block_terms(family: Family, block, y, p, theta, start: int, at_optimum):
    """One row block's share of :func:`_block_sums`; ``block`` is its
    :func:`_pair_block`.  Its arrays are freed on return, before the
    next block's are made."""
    xt, pairs = block
    mu = _block_mean(family, theta @ xt, start)
    models = len(theta)
    w = np.empty((2 * models if at_optimum else models, len(p)))  # the weight rows
    np.divide(family.variance(mu), p, out=w[:models])
    resid = np.subtract(y, mu, out=mu)  # the mean is not needed again
    if at_optimum:
        np.divide(np.square(resid, out=resid), p**2, out=w[models:])
        return None, w @ pairs.T
    return np.divide(resid, p, out=resid) @ xt.T, w @ pairs.T


def _block_sums(family: Family, block_of, y, probs, theta, blocks, at_optimum):
    """One pass over the row blocks at the ``(A, D)`` parameter block;
    ``block_of(rows)`` gives a block's :func:`_pair_block`.

    In a Newton pass, returns the scores ``(y - mu) / phi @ X`` (A x D) and
    the packed Grams of ``variance(mu) / phi`` (A x P).  At the optimum the
    first value is None and the Grams also hold those of
    ``(y - mu)^2 / phi^2`` (2A x P).  An overflowing mean raises the
    :class:`NumericOverflowError` of :func:`_block_mean`.
    """
    scores = None if at_optimum else 0.0
    grams = 0.0
    for rows in blocks:
        block_scores, block_grams = _block_terms(
            family, block_of(rows), y[rows], probs[rows], theta, rows.start, at_optimum
        )
        if not at_optimum:
            scores = scores + block_scores
        grams = grams + block_grams
    return scores, grams


@functools.lru_cache(maxsize=256)
def _column_layout(n_params: int, columns: tuple) -> tuple:
    """What :func:`fit_weighted_mles` derives from the column sets alone,
    once per distinct sets (tuples of ints) of a design with ``n_params``
    columns.

    The columns no model uses are dropped (``used`` keeps the others, or
    is None when every column is used).  Model k's entries of the
    ``(Q, D)`` parameter block are then ``present[k]``, at positions
    ``columns[k]``; where some model lacks a column, its matrices are
    padded.  ``gather[k]`` picks model k's D x D matrix out of packed
    Grams: the pair row of each entry, or the trailing zero row outside
    its columns.  ``extract[k]`` indexes model k's own d x d block of a
    D x D matrix.  Every array is read-only, as all callers share it.
    """
    columns = [np.array(cols, dtype=np.intp) for cols in columns]
    present = np.zeros((len(columns), n_params), dtype=bool)
    for k, cols in enumerate(columns):
        present[k, cols] = True
        if present[k].sum() != cols.size:
            raise ValidationError(f"model {k} repeats a column: {cols.tolist()}")
    used = present.any(axis=0)
    position = np.cumsum(used) - 1
    columns = tuple(position[cols] for cols in columns)
    present = present[:, used]
    dim = present.shape[1]
    i = np.arange(dim)
    low, high = np.minimum.outer(i, i), np.maximum.outer(i, i)
    pair_of = low * dim - low * (low - 1) // 2 + high - low
    gather = np.where(present[:, :, None] & present[:, None, :], pair_of, dim * (dim + 1) // 2)
    extract = tuple(np.ix_(cols, cols) for cols in columns)
    used = None if used.all() else used
    for array in (used, present, gather, *columns, *(a for ix in extract for a in ix)):
        if array is not None:
            array.flags.writeable = False
    return used, columns, present, gather, extract


def fit_weighted_mles(
    family: Family,
    sample: WeightedSample,
    columns,
    population_size: int | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[FitResult, ...]:
    """Fit every model ``design[:, columns[q]]`` of a weighted sample in
    one Newton loop.

    ``sample.design`` is the union design of the models and ``columns``
    their column indices in it (``ModelSet.columns``).  Each model's
    result and iteration count are those of :func:`fit_weighted_mle` on
    ``design[:, columns[q]]`` alone; the parameters are as in that
    function.

    Returns
    -------
    tuple of FitResult
        One per model, in the order of ``columns``.

    Raises
    ------
    ValidationError, SingularInformationError, NonConvergenceError,
    NumericOverflowError
        At the first Newton iteration (or the pass at the optimum) in which
        any model fails, the error that a lone fit of the lowest-index
        model failing in it would raise: the same class, message, ``theta``
        and ``iterations``.  A mean that overflows stops the pass at its
        row block, and the error names the model and the row that the
        block's mean reports first.  The other models' fits are dropped.
    """
    n = sample.n_rows
    key = tuple(tuple(np.asarray(cols, dtype=np.intp).tolist()) for cols in columns)
    if not key:
        raise ValidationError("no models to fit")
    used, columns, present, gather, extract = _column_layout(sample.n_params, key)
    n_models, dim = present.shape
    sparse = not present.all()

    oversized = [cols.size for cols in columns if cols.size > n]
    if columns[0].size <= n:  # else model 0 fails on its size first
        family.validate_response(sample.response)
    if oversized:
        raise ValidationError(
            f"need at least {oversized[0]} rows to fit {oversized[0]} parameters, got {n}"
        )

    design, y, probs = sample.design, sample.response, sample.probs
    blocks = [slice(start, start + _BLOCK_ROWS) for start in range(0, n, _BLOCK_ROWS)]
    # Every block's pair products go to one buffer: made afresh (3 MB per
    # block at D = 9), they can cost a page fault per page whenever the
    # allocator hands the freed memory back to the system.
    buffer = np.empty((dim * (dim + 1) // 2 + 1, min(n, _BLOCK_ROWS)))
    if len(blocks) == 1:  # every pass reuses the one block
        cached = _pair_block(design, blocks[0], used, buffer)
        block_of = lambda rows: cached
    else:
        block_of = lambda rows: _pair_block(design, rows, used, buffer)

    theta = np.zeros((n_models, dim))
    iterations = np.zeros(n_models, dtype=int)
    active = np.arange(n_models)
    th = theta[active]  # the iterates of the active models
    changed = True
    for t in range(max_iter):
        if active.size == 0:
            break
        if changed:
            absent = ~present[active]
            picks = np.arange(active.size)[:, None, None], gather[active]
        try:
            rhs, grams = _block_sums(family, block_of, y, probs, th, blocks, at_optimum=False)
        except NumericOverflowError as exc:
            a = exc.model
            raise NonConvergenceError(
                f"iterates diverged after {t} updates: {exc}",
                theta=th[a, columns[active[a]]],
                iterations=t,
            ) from exc
        hess = grams[picks]
        if sparse:
            _pad_absent(hess, absent)
            rhs = np.where(absent, 0.0, rhs)
        singular = _singular(hess)
        hess[singular] = np.eye(dim)  # keep the stacked solve clear of them
        step = np.linalg.solve(hess, rhs[..., None])[..., 0]
        bad = singular | ~np.isfinite(step).all(axis=1)
        if bad.any():
            a = np.flatnonzero(bad)[0]
            if singular[a] and t == 0:
                raise SingularInformationError(
                    "information matrix is singular at the starting value "
                    "(rank-deficient design?)"
                )
            if singular[a]:
                # Weights underflowed mid-iteration: the iterates diverged,
                # as happens for separated logistic data where no MLE exists.
                message = f"information matrix became singular after {t} updates"
            else:
                message = f"Newton step became non-finite after {t} updates"
            raise NonConvergenceError(message, theta=th[a, columns[active[a]]], iterations=t)
        th += step
        done = np.sqrt(np.einsum("ad,ad->a", step, step)) < tol
        changed = done.any()
        if changed:
            theta[active[done]] = th[done]
            iterations[active[done]] = t + 1
            active, th = active[~done], th[~done]
    if active.size:
        raise NonConvergenceError(
            f"Newton-Raphson did not converge in {max_iter} iterations",
            theta=th[0, columns[active[0]]],
            iterations=max_iter,
        )

    _, grams = _block_sums(family, block_of, y, probs, theta, blocks, at_optimum=True)
    big_n = n if population_size is None else int(population_size)
    model = np.arange(n_models)[:, None, None]
    info = grams[model, gather] / (big_n * n)
    vc = grams[n_models + model, gather] / (big_n**2 * n**2)
    padded = _pad_absent(info.copy(), ~present) if sparse else info
    if _singular(padded).any():
        raise SingularInformationError("information matrix is singular at the optimum")
    info_inv = np.linalg.inv(padded)
    variance = info_inv @ vc @ info_inv
    variance = 0.5 * (variance + variance.transpose(0, 2, 1))
    return tuple(
        FitResult(
            theta=theta[k, cols],
            info_JX=info[k][block],
            vc=vc[k][block],
            variance=variance[k][block],
            iterations=int(iterations[k]),
        )
        for k, (cols, block) in enumerate(zip(columns, extract))
    )


def full_information(family: Family, theta: np.ndarray, design: np.ndarray) -> np.ndarray:
    """Observed information of the full data, ``(1/N) sum_i
    variance(mean(eta_i)) x_i x_i^T``, at the given parameter value."""
    design = np.atleast_2d(np.asarray(design, dtype=float))
    mu = family.mean(_linear_predictor(theta, design))
    return _gram(design.T, family.variance(mu), design.shape[0])
