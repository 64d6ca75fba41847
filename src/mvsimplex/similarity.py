"""Locally scaled similarities, one set per view, kept in condensed form.

A view's similarity is s_ij = exp(-||y_i - y_j|| / b_ij) with bandwidth
b_ij = sqrt(sigma_i * sigma_j), where sigma_i is a low quantile of row i's
off-diagonal distances.  Off-diagonal entries are clamped away from {0, 1}
so every log-odds downstream is finite.  similarity_matrix returns one
view's dense (n, n) matrix, its diagonal set to the upper clamp; the model
reads only the strictly lower triangle, so SimilarityTensor stores each
view's log-odds over the n(n-1)/2 pairs of pair_indices as one row, and
no dense matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

DEFAULT_QUANTILE = 0.1
CLAMP = (1e-6, 1.0 - 1e-6)


def pairwise_distances(y: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix of the rows of a 2-d float array.

    The squared differences are added one coordinate at a time, in column
    order, as pdist adds them, so each distance has pdist's bits.
    (a - b)^2 equals (b - a)^2 exactly, so the result is exactly symmetric
    with a zero diagonal.  Rejects non-finite input naming the row.
    """
    bad = ~np.isfinite(y)
    if bad.any():
        row = int(np.nonzero(bad.any(axis=1))[0][0])
        raise ValueError(f"non-finite value in row {row}")
    n = y.shape[0]
    dist = np.zeros((n, n))
    diff = np.empty_like(dist)
    for col in y.T:
        np.subtract.outer(col, col, out=diff)
        diff *= diff
        dist += diff
    return np.sqrt(dist, out=dist)


def local_bandwidths(dist: np.ndarray, q: float = DEFAULT_QUANTILE) -> np.ndarray:
    """Per-item scale sigma_i: the q-quantile of row i's off-diagonal distances.

    Quantiles use linear interpolation on the sorted values, in the
    arithmetic of np.quantile's "linear" method, so sigma has its bits.
    One partition of a copy of dist whose diagonal is -inf finds both order
    statistics: the diagonal sorts first, so off-diagonal statistic k sits
    at column k + 1.  A zero quantile falls back to the smallest strictly
    positive entry of the row; a row whose off-diagonal distances are all
    zero is an error.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must lie in (0, 1), got {q}")
    n = dist.shape[0]
    if n < 2:
        raise ValueError("need at least two items for bandwidths")
    pos = (n - 2) * q
    lo = int(pos)   # pos >= 0, so int() is its floor
    hi = min(lo + 1, n - 2)
    t = pos - lo
    rows = dist.copy()
    np.fill_diagonal(rows, -np.inf)
    rows.partition(hi + 1, axis=1)
    # columns up to hi + 1 hold the smallest values, so the largest of
    # those up to lo + 1 is statistic lo (hi = lo only when n = 2)
    a, b = rows[:, :lo + 2].max(axis=1), rows[:, hi + 1]
    sigma = b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t
    for i in np.nonzero(sigma <= 0.0)[0]:
        positive = rows[i][rows[i] > 0.0]
        if positive.size == 0:
            raise ValueError(f"row {i}: all off-diagonal distances are zero")
        sigma[i] = positive.min()
    return sigma


def similarity_matrix(y: np.ndarray, q: float = DEFAULT_QUANTILE) -> np.ndarray:
    """Locally scaled similarities of the rows of a 2-d float array (one
    view), clamped into CLAMP."""
    s_min, s_max = CLAMP
    dist = pairwise_distances(y)
    sigma = local_bandwidths(dist, q)
    # s = exp(-dist / sqrt(sigma_i sigma_j)), built in one buffer
    s = np.multiply.outer(sigma, sigma)
    np.sqrt(s, out=s)
    np.divide(dist, s, out=s)
    np.negative(s, out=s)
    np.exp(s, out=s)
    np.clip(s, s_min, s_max, out=s)
    np.fill_diagonal(s, s_max)
    return s


def pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical (i, j) index arrays for the strictly lower triangle.

    Pairs are ordered column-major by j: j=0 pairs first (i=1..n-1), then
    j=1, and so on.  Every flattened pair vector in the package uses this
    ordering.
    """
    jj, ii = np.triu_indices(n, k=1)
    return ii, jj


def _to_log_odds(s: np.ndarray, log1m: np.ndarray) -> None:
    """Turn the similarities s into log(s / (1 - s)) in place and write
    log(1 - s) into log1m."""
    np.negative(s, out=log1m)
    np.log1p(log1m, out=log1m)
    np.log(s, out=s)
    s -= log1m


@dataclass
class SimilarityTensor:
    """Every view's similarities in condensed form.

    logit is (V, n(n-1)/2), C order: row v holds view v's
    log(s / (1 - s)) over the pairs in pair_indices order.  log1m_sum is
    (V,): per view, the sum of log(1 - s) over the same pairs.
    """

    logit: np.ndarray
    log1m_sum: np.ndarray
    n_items: int

    @property
    def n_views(self) -> int:
        return self.logit.shape[0]

    @classmethod
    def from_views(cls, views: Sequence, q: float = DEFAULT_QUANTILE) -> "SimilarityTensor":
        """Build the tensor of views given as arrays of items by variables,
        a 1-d array being one variable.  A ValueError about one view names
        it by its 1-based position k, as "view k: ...".

        One view's dense similarities are built at a time; only its pairs
        are kept, in its row of logit, and that row is turned into
        log-odds, so the peak holds the (V, npairs) log-odds, one view's
        dense matrix and a row of log(1 - s), and no (V, n, n) array."""
        if len(views) == 0:
            raise ValueError("no views given")
        n = len(views[0]) if np.ndim(views[0]) else 0  # a 0-d view fails in the loop
        ii, jj = pair_indices(n)
        flat = ii * n + jj
        logit = np.empty((len(views), ii.size))
        log1m_sum = np.empty(len(views))
        log1m = np.empty(ii.size)
        for k, view in enumerate(views):
            row = logit[k]
            try:
                y = np.asarray(view, dtype=float)
                y = y[:, None] if y.ndim == 1 else y
                if y.ndim != 2:
                    raise ValueError(f"values must be 2-d, got shape {y.shape}")
                if y.shape[0] != n:
                    raise ValueError(f"{y.shape[0]} items where view 1 has {n}")
                np.take(similarity_matrix(y, q), flat, out=row)
            except ValueError as err:
                raise ValueError(f"view {k + 1}: {err}") from err
            _to_log_odds(row, log1m)
            log1m_sum[k] = log1m.sum()
        return cls(logit, log1m_sum, n)
