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
form a ``(Q, D)`` block that is zero outside each model's columns.  Every
pass over N rows, here and in the stage-2 probabilities (whose full-data
information is :func:`_information`), walks the feature-major blocks
``xt`` (D x B) of ``_BLOCK_ROWS`` rows that :func:`_row_blocks` yields; a
:class:`LazyDesign` has each built from its raw covariates, so no pass
holds an N x D array.  Per block one matmul gives the linear predictors
of every still-running model, the mean is evaluated once for all of them,
and their weighted Gram matrices come from one matmul of the block's pair
products ``x_j x_k`` (j <= k) against the weight matrix.  A model leaves
the loop when it converges, after the same number of iterations as it
would alone and with results equal up to rounding.  Every caller treats
one model's failure as the failure of the row set, so the first iteration
in which any model fails ends the call with the error a lone fit of that
model would raise; :func:`fit_weighted_mle` is the one-model call.

A study fits the same column sets hundreds of times on small samples, where
a fit's fixed cost is most of its time.  So what depends on the column sets
alone (:func:`_column_layout`: the index arrays that pick each model's
matrices out of the packed Grams, with the checks of the column sets) is
built once per column set and cached, and the Newton loop redoes its
per-model bookkeeping only in a pass after which some model has left.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    NonConvergenceError,
    NumericOverflowError,
    SingularInformationError,
    ValidationError,
)
from .families import Family
from .models import LazyDesign, _feature_rows

__all__ = [
    "WeightedSample",
    "FitResult",
    "fit_weighted_mle",
    "fit_weighted_mles",
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


def _row_blocks(design: "np.ndarray | LazyDesign"):
    """Yield ``(rows, xt)`` for each ``_BLOCK_ROWS`` block of an N x d
    design array or a :class:`LazyDesign`: the slice of its rows and the
    block as a C-contiguous feature-major ``(d, B)`` array.  The block may
    share memory with an array design, so callers do not write to it."""
    for start in range(0, design.shape[0], _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        if isinstance(design, LazyDesign):
            yield rows, _feature_rows(design.spec, design.raw, rows)
        else:
            yield rows, np.ascontiguousarray(design[rows].T)


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


def _checked_theta(theta, n_params: int) -> np.ndarray:
    """``theta`` as floats, after checking that it has ``n_params`` entries."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape[0] != n_params:
        raise ValidationError(
            f"theta has length {theta.shape[0]} but design has {n_params} columns"
        )
    return theta


def _checked_count(value, what: str) -> int:
    """``value`` as an int, after checking that it is an integer (Python
    or NumPy) of at least 1; ``what`` names it in the error."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValidationError(f"{what} must be an integer, got {value!r}") from None
    if value < 1:
        raise ValidationError(f"{what} must be at least 1, got {value}")
    return value


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
        the sample size, which is exact for whole-data fits.  Any integer
        of at least 1, NumPy integers included; a float, a string or a
        smaller value raises :class:`ValidationError`.

    Returns
    -------
    FitResult

    Raises
    ------
    ValidationError
        ``population_size`` is not an integer of at least 1, the response
        is invalid for the family, or the sample has fewer rows than the
        model has parameters.  In :func:`fit_weighted_mles` also: no
        models, or a column set that is empty, not one-dimensional,
        repeats a column or names one outside the design; the error names
        the first such model.
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


def _pair_block(xt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A row block ``xt`` (D x B) of :func:`_row_blocks` with its pair
    products: rows ``x_j * x_k`` for j <= k in ``np.triu_indices`` order,
    then a row of zeros.  The packed Gram matrices of the weight rows ``W``
    (A x B) are ``W @ pairs.T``, and their last column is zero.

    Models run along the first axis of every (A, B) array, so elementwise
    work on them loops over the rows of the block, not over the models.
    """
    dim = xt.shape[0]
    pairs = np.empty((dim * (dim + 1) // 2 + 1, xt.shape[1]))
    start = 0
    for j in range(dim):
        np.multiply(xt[j], xt[j:], out=pairs[start : start + dim - j])
        start += dim - j
    pairs[start] = 0.0
    return xt, pairs


def _pair_walk(sample: WeightedSample):
    """The ``walk`` of :func:`_block_sums` over the sample's row blocks.
    A sample of one block has its pair products built once, for every
    pass: building them again in each pass took sim-desk's run_s from
    0.239 to 0.306 s on a 2-vCPU VM (medians of 12 alternating pairs, the
    cached version lower in 11)."""
    walk = lambda: ((rows, _pair_block(xt)) for rows, xt in _row_blocks(sample.design))
    if sample.n_rows > _BLOCK_ROWS:
        return walk
    cached = list(walk())
    return lambda: cached


def _pad_absent(stack: np.ndarray, absent: np.ndarray) -> None:
    """Set, in place, each matrix's diagonal outside its model's columns
    (where the matrix is zero) to its largest diagonal entry.

    A diagonal entry lies inside the spectrum of the model's own block, so
    the padded matrix has that block's extreme eigenvalues and its solution
    on the model's columns; an identity pad would add the eigenvalue 1,
    which changes the singular check of a block whose spectrum lies below 1.
    """
    dim = stack.shape[1]
    diag = stack.reshape(len(stack), dim * dim)[:, :: dim + 1]  # a view
    np.copyto(diag, diag.max(axis=1, keepdims=True), where=absent)


def _block_terms(family: Family, block, y, p, theta, start: int, at_optimum):
    """One row block's share of :func:`_block_sums`; ``block`` is its
    :func:`_pair_block`, and ``p`` is None for unit probabilities, which
    skips divisions that would leave every bit as it is."""
    xt, pairs = block
    mu = _block_mean(family, theta @ xt, start)
    w = family.variance(mu)
    resid = y - mu
    if p is not None:
        w = w / p
    if at_optimum:
        squares = resid**2 if p is None else resid**2 / p**2
        return None, np.concatenate([w, squares]) @ pairs.T
    # A score that overflows makes the Newton step non-finite, which the
    # loop reports as the fit's error; NumPy's warning would only precede it.
    with np.errstate(over="ignore"):
        scores = (resid if p is None else resid / p) @ xt.T
    return scores, w @ pairs.T


def _block_sums(family: Family, walk, y, probs, theta, at_optimum):
    """One pass over the row blocks at the ``(A, D)`` parameter block;
    ``walk()`` yields each block's rows and :func:`_pair_block`.

    In a Newton pass, returns the scores ``(y - mu) / phi @ X`` (A x D) and
    the packed Grams of ``variance(mu) / phi`` (A x P).  At the optimum the
    first value is None and the Grams also hold those of
    ``(y - mu)^2 / phi^2`` (2A x P).  ``probs`` None stands for all ones.
    An overflowing mean raises the :class:`NumericOverflowError` of
    :func:`_block_mean`.
    """
    scores = grams = None
    for rows, block in walk():
        p = None if probs is None else probs[rows]
        block_scores, block_grams = _block_terms(
            family, block, y[rows], p, theta, rows.start, at_optimum
        )
        if grams is None:  # a fresh array of the first block's terms
            scores, grams = block_scores, block_grams
            continue
        if not at_optimum:
            scores += block_scores
        grams += block_grams
    return scores, grams


@dataclass(frozen=True)
class _Layout:
    """What :func:`fit_weighted_mles` derives from the column sets alone,
    for a design with D columns; every array is read-only.

    Model k's entries of the ``(Q, D)`` parameter block are at positions
    ``columns[k]``.  ``absent[k]`` marks the columns that model k lacks;
    only if some model lacks one (``padded``) are the matrices padded and
    the scores masked.  ``gather[k]`` picks model k's D x D matrix out of
    its row of packed Grams (P entries): the pair entry of each element, or
    the trailing zero entry outside its columns.  ``picks`` is ``gather``
    offset into the flattened ``(Q, P)`` Grams of all Q models at once.
    ``extract[k]`` indexes model k's own d x d block of a flattened D x D
    matrix.
    """

    columns: tuple
    absent: np.ndarray
    padded: bool
    gather: np.ndarray
    picks: np.ndarray
    extract: tuple


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@lru_cache(maxsize=64)
def _column_layout(n_params: int, columns: tuple) -> _Layout:
    """The :class:`_Layout` of the column sets ``columns``, each given as
    the bytes of an ``intp`` index array, in a design of ``n_params``
    columns.

    The layout is built once per column set and cached, keyed on the
    contents: a study fits the same models (``ModelSet.columns``) and the
    same one-model pilots (``[np.arange(d)]``) hundreds of times, and
    building it took 55-105 us of a fit of about 1 ms on a 2-vCPU VM (a
    cache hit takes 1.5-3.5 us).  Its arrays are read-only, as every fit
    shares them.  The column sets are checked here,
    so also once: at least one model, and each with at least one column,
    inside the design and none repeated.
    """
    if not columns:
        raise ValidationError("no models to fit")
    columns = tuple(np.frombuffer(cols, dtype=np.intp) for cols in columns)  # read-only
    present = np.zeros((len(columns), n_params), dtype=bool)
    for k, cols in enumerate(columns):
        if not cols.size:
            raise ValidationError(f"model {k} has no columns")
        if cols.min() < 0 or cols.max() >= n_params:
            raise ValidationError(
                f"model {k} has a column outside the design's {n_params} columns: {cols.tolist()}"
            )
        present[k, cols] = True
        if present[k].sum() != cols.size:
            raise ValidationError(f"model {k} repeats a column: {cols.tolist()}")
    i = np.arange(n_params)
    low, high = np.minimum.outer(i, i), np.maximum.outer(i, i)
    pair_of = low * n_params - low * (low - 1) // 2 + high - low
    n_packed = pair_of.max() + 2  # the pairs, then the zero entry
    gather = np.where(present[:, :, None] & present[:, None, :], pair_of, n_packed - 1)
    picks = gather + (np.arange(len(columns)) * n_packed)[:, None, None]
    absent = ~present
    return _Layout(
        columns=columns,
        absent=_read_only(absent),
        padded=bool(absent.any()),
        gather=_read_only(gather),
        picks=_read_only(picks),
        extract=tuple(_read_only(cols[:, None] * n_params + cols) for cols in columns),
    )


def _layout_of(n_params: int, columns) -> _Layout:
    """The cached :func:`_column_layout` of column index sets given as
    arrays or sequences, keyed on their contents."""
    key = []
    for k, cols in enumerate(columns):
        cols = np.asarray(cols, dtype=np.intp)
        if cols.ndim != 1:
            raise ValidationError(f"model {k}'s columns are not a 1-D index array")
        key.append(cols.tobytes())
    return _column_layout(n_params, tuple(key))


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
    function.  Each column set is a non-empty 1-D sequence of distinct
    column indices of the design, read once: the fit keys its cached
    layout on the contents, so a caller may reuse or change the array
    afterwards.

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
    layout = _layout_of(sample.n_params, columns)
    columns = layout.columns
    n_models, dim = len(columns), sample.n_params
    big_n = n if population_size is None else _checked_count(population_size, "population size")

    oversized = [cols.size for cols in columns if cols.size > n]
    if columns[0].size <= n:  # else model 0 fails on its size first
        family.validate_response(sample.response)
    if oversized:
        raise ValidationError(
            f"need at least {oversized[0]} rows to fit {oversized[0]} parameters, got {n}"
        )

    y, probs = sample.response, sample.probs
    if (probs == 1.0).all():  # a full-data fit: x / 1.0 is x
        probs = None
    walk = _pair_walk(sample)
    theta = np.zeros((n_models, dim))
    iterations = np.zeros(n_models, dtype=int)
    # The iterates of the active models, their absent columns and their
    # picks; rebuilt only in a pass after which some model has left.
    active = np.arange(n_models)
    th = theta.copy()
    absent, padded, picks = layout.absent, layout.padded, layout.picks
    for t in range(max_iter):
        try:
            rhs, grams = _block_sums(family, walk, y, probs, th, at_optimum=False)
        except NumericOverflowError as exc:
            a = exc.model
            raise NonConvergenceError(
                f"iterates diverged after {t} updates: {exc}",
                theta=th[a, columns[active[a]]],
                iterations=t,
            ) from exc
        hess = grams.take(picks)
        if padded:
            _pad_absent(hess, absent)
            rhs = np.where(absent, 0.0, rhs)
        singular = _singular(hess)
        if singular.any():
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
        if done.any():
            theta[active[done]] = th[done]
            iterations[active[done]] = t + 1
            left = ~done
            active, th, absent = active[left], th[left], absent[left]
            if not active.size:
                break
            padded = absent.any()
            picks = layout.gather[active] + (np.arange(active.size) * grams.shape[1])[:, None, None]
    if active.size:
        raise NonConvergenceError(
            f"Newton-Raphson did not converge in {max_iter} iterations",
            theta=th[0, columns[active[0]]],
            iterations=max_iter,
        )

    _, grams = _block_sums(family, walk, y, probs, theta, at_optimum=True)
    info = grams.take(layout.picks) / (big_n * n)
    vc = grams.take(layout.picks + n_models * grams.shape[1]) / (big_n**2 * n**2)
    if layout.padded:  # outside the blocks that the results take
        _pad_absent(info, layout.absent)
    if _singular(info).any():
        raise SingularInformationError("information matrix is singular at the optimum")
    info_inv = np.linalg.inv(info)
    variance = info_inv @ vc @ info_inv
    variance = 0.5 * (variance + variance.transpose(0, 2, 1))
    return tuple(
        FitResult(
            theta=theta[k, cols],
            info_JX=info[k].take(block),
            vc=vc[k].take(block),
            variance=variance[k].take(block),
            iterations=int(iterations[k]),
        )
        for k, (cols, block) in enumerate(zip(columns, layout.extract))
    )


def _information(family: Family, theta: np.ndarray, design, means: np.ndarray) -> np.ndarray:
    """``(1/N) sum_i variance(mean(eta_i)) x_i x_i^T`` over the row blocks
    of ``design`` at ``theta`` (floats, one per column), each block's term
    symmetrized; each row's mean is written into the N-vector ``means``."""
    info = 0.0
    for rows, xt in _row_blocks(design):
        means[rows] = mu = _block_mean(family, theta @ xt, rows.start)
        g = (xt * family.variance(mu)) @ xt.T / design.shape[0]
        info += 0.5 * (g + g.T)
    return info
