"""Weighted sampling with replacement by inverse-CDF search.

Each sampler here serves one draw of r rows out of N, with r much smaller
than N.  An alias table (Walker 1977; Vose 1991) gives O(1) per draw, but
only after an O(N) build, so it pays off when many draws come from one
table.  For a single draw, one cumulative sum and a binary search per
index do the same job in vectorised O(N + r log N).
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

__all__ = ["AliasSampler", "draw_with_replacement"]


class AliasSampler:
    """Sampler over a discrete distribution on ``{0, ..., N-1}``.

    Weights need not be normalized; they must be finite and non-negative
    with a positive, finite sum.  Zero-weight entries are valid and are never drawn.
    """

    def __init__(self, weights):
        weights = getattr(weights, "probs", weights)
        weights = np.asarray(weights, dtype=float).ravel()
        if weights.size == 0:
            raise ValidationError("cannot build a sampler over zero outcomes")
        if np.any(weights < 0) or not np.all(np.isfinite(weights)):
            raise ValidationError("weights must be finite and non-negative")
        cdf = np.cumsum(weights)
        if cdf[-1] <= 0:
            raise ValidationError("weights must have a positive sum")
        if not np.isfinite(cdf[-1]):
            raise ValidationError("weights must have a finite sum")

        # Dividing by the last entry makes it exactly 1.0, so a uniform
        # u < 1 never lands past the last positive-weight row; a
        # zero-weight row repeats its predecessor's value and is skipped.
        cdf /= cdf[-1]
        self._cdf = cdf
        self.n = weights.size

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` i.i.d. indices; deterministic given the generator
        state (one ``random`` call)."""
        return self._cdf.searchsorted(rng.random(size), side="right")


def draw_with_replacement(probs, r: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``r`` indices i.i.d. from a probability vector (or anything with
    a ``probs`` attribute) with replacement."""
    if r < 1:
        raise ValidationError(f"subsample size must be at least 1, got {r}")
    return AliasSampler(probs).draw(rng, int(r))
