"""Clustering and matrix-recovery metrics."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


def _label_codes(x: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense codes of the labels and their number, what
    np.unique(x, return_inverse=True) gives.  Integer labels in
    [0, x.size), such as canonical partition rows, are ranked by a bincount
    of the labels that occur, and are their own codes when none is missing;
    other labels are sorted."""
    if x.dtype.kind in "iu" and x.min() >= 0 and x.max() < x.size:
        seen = np.bincount(x) > 0
        k = np.count_nonzero(seen)
        return (x if k == seen.size else (np.cumsum(seen) - 1)[x]), k
    uniq, codes = np.unique(x, return_inverse=True)
    return codes, uniq.size


class Labeling(NamedTuple):
    """One side of an NMI pair, summarized once: dense label codes, their
    number k, the marginal p = bincount(codes) / n and its entropy h."""

    codes: np.ndarray
    k: int
    p: np.ndarray
    h: float


def labeling(x) -> Labeling:
    """The per-labeling half of nmi, for a caller that scores one labeling
    against many."""
    x = np.asarray(x).ravel()
    if x.size == 0:
        raise ValueError("empty label vectors")
    codes, k = _label_codes(x)
    # the codes are dense, so every marginal is positive
    p = np.bincount(codes) / x.size
    return Labeling(codes, k, p, -np.sum(p * np.log(p)))


def nmi(a, b) -> float:
    """Normalized mutual information, 2*I / (H(a) + H(b)), natural logs.

    a and b are label vectors or their labelings (labeling(x)); a vector is
    summarized by labeling first, so both forms give the same bits.  The
    pair step counts the contingency table with one bincount of
    ai * kb + bi.  nmi is not bit-symmetric: the table's transpose sums in
    another order.

    Degenerate conventions: two single-cluster labelings are identical as
    partitions and score 1; if exactly one side is single-cluster the score
    is 0; an ordinary contingency table is scored by the formula.
    """
    la = a if isinstance(a, Labeling) else labeling(a)
    lb = b if isinstance(b, Labeling) else labeling(b)
    n = la.codes.size
    if lb.codes.size != n:
        raise ValueError(f"label vectors differ in length: {n} vs {lb.codes.size}")
    if la.h <= 0.0 and lb.h <= 0.0:
        return 1.0
    if la.h <= 0.0 or lb.h <= 0.0:
        return 0.0
    pj = np.bincount(la.codes * lb.k + lb.codes, minlength=la.k * lb.k).reshape(la.k, lb.k) / n
    terms = pj * np.log(pj / np.multiply.outer(la.p, lb.p), where=pj > 0, out=np.zeros_like(pj))
    return float(2.0 * terms.sum() / (la.h + lb.h))


def mad(a: np.ndarray, b: np.ndarray) -> float:
    """Median absolute deviation between two square matrices over the
    strictly lower triangle (the diagonal never participates), so each
    needs at least 2 rows."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 2:
        raise ValueError(f"need two square matrices of equal shape with at least 2 rows, "
                         f"got {a.shape} and {b.shape}")
    ii, jj = np.tril_indices(a.shape[0], k=-1)
    return float(np.median(np.abs(a[ii, jj] - b[ii, jj])))
