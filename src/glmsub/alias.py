"""Weighted sampling with replacement by inverse-CDF search.

Each draw here takes r rows out of N, with r much smaller than N.  An
alias table (Walker 1977; Vose 1991) gives O(1) per index, but only after
an O(N) build, so it pays off when many draws come from one table.  For a
single draw, one cumulative sum and a binary search per index do the same
job in vectorised O(N + r log N).
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import ValidationError

__all__ = ["draw_with_replacement"]


def draw_with_replacement(probs, r: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``r`` i.i.d. indices with replacement from weights on ``{0, ...,
    N-1}`` (or from anything with a ``probs`` attribute); deterministic
    given the generator state (one ``random`` call).

    ``r`` must be an integer, Python or NumPy.  Weights need not be
    normalized; they must be finite and non-negative with a positive,
    finite sum.  Zero-weight entries are valid and are never drawn.
    """
    try:
        r = operator.index(r)
    except TypeError:
        raise ValidationError(f"subsample size must be an integer, got {r!r}") from None
    if r < 1:
        raise ValidationError(f"subsample size must be at least 1, got {r}")
    weights = np.asarray(getattr(probs, "probs", probs), dtype=float).ravel()
    if weights.size == 0:
        raise ValidationError("cannot draw from zero outcomes")
    if np.any(weights < 0) or not np.all(np.isfinite(weights)):
        raise ValidationError("weights must be finite and non-negative")
    cdf = np.cumsum(weights)
    if cdf[-1] <= 0:
        raise ValidationError("weights must have a positive sum")
    if not np.isfinite(cdf[-1]):
        raise ValidationError("weights must have a finite sum")

    # Dividing by the last entry makes it exactly 1.0, so a uniform u < 1
    # never lands past the last positive-weight row; a zero-weight row
    # repeats its predecessor's value and is skipped.
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(r), side="right")
