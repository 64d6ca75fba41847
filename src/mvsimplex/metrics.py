"""Clustering and matrix-recovery metrics."""

from __future__ import annotations

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


def nmi(a, b) -> float:
    """Normalized mutual information, 2*I / (H(a) + H(b)), natural logs.

    Degenerate conventions: two single-cluster labelings are identical as
    partitions and score 1; if exactly one side is single-cluster the score
    is 0; an ordinary contingency table is scored by the formula.
    """
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    if a.shape != b.shape:
        raise ValueError(f"label vectors differ in length: {a.size} vs {b.size}")
    if a.size == 0:
        raise ValueError("empty label vectors")
    ai, ka = _label_codes(a)
    bi, kb = _label_codes(b)
    n = a.size
    cont = np.zeros((ka, kb), dtype=float)
    np.add.at(cont, (ai, bi), 1.0)
    # the codes are dense, so every marginal is positive
    pa = cont.sum(axis=1) / n
    pb = cont.sum(axis=0) / n
    ha = -np.sum(pa * np.log(pa))
    hb = -np.sum(pb * np.log(pb))
    if ha <= 0.0 and hb <= 0.0:
        return 1.0
    if ha <= 0.0 or hb <= 0.0:
        return 0.0
    pj = cont / n
    terms = pj * np.log(pj / np.multiply.outer(pa, pb), where=pj > 0, out=np.zeros_like(pj))
    info = terms.sum()
    return float(2.0 * info / (ha + hb))


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
