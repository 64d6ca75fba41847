"""Random partitions, partition risks, and the oracle-inequality check.

A partition is a row of cluster labels.  The sampler grows a partition
sequentially: items arrive in random order, try existing clusters in
creation order, and join the first cluster whose first-processed member
accepts them by a Bernoulli draw on the matching co-assignment probability;
joining puts an item in one cluster only, so every sampled co-assignment
graph is transitive by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import nmi
from .model import kl_bernoulli
from .similarity import pair_indices


def _check_probability_matrix(P: np.ndarray) -> np.ndarray:
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError(f"P must be square, got shape {P.shape}")
    if np.any(P < 0.0) or np.any(P > 1.0):
        raise ValueError("P entries must lie in [0, 1]")
    return P


def sample_partition_labels(P: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """Batch of `size` draws of the sequential process, returned as label rows.

    Vectorized across draws: each step draws one uniform per existing
    cluster slot and joins the first accepting cluster, which has the same
    law as stopping at the first acceptance.
    """
    P = _check_probability_matrix(P)
    n = P.shape[0]
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    p_flat = P.ravel()
    perm = rng.permuted(np.tile(np.arange(n), (size, 1)), axis=1)
    rows = np.arange(size)
    row_off = rows * n
    lab = np.empty(size * n, dtype=np.int64)
    lab[row_off + perm[:, 0]] = 0
    # slot k of a draw holds rep * n, rep the first member of its cluster k;
    # slots at or past the draw's cluster count are masked out
    rep_off = np.zeros((n, size), dtype=np.int64)
    rep_off[0] = perm[:, 0] * n
    ncl = np.ones(size, dtype=np.int64)
    for t in range(1, n):
        j = perm[:, t]
        u = rng.random((size, t))
        joined = ncl.copy()
        for k in range(t - 1, -1, -1):
            np.putmask(joined, (u[:, k] < p_flat[rep_off[k] + j]) & (k < ncl), k)
        lab[row_off + j] = joined
        rep_off[ncl, rows] = j * n
        ncl += joined == ncl
    return lab.reshape(size, n)


def canonicalize_labels(lab: np.ndarray) -> np.ndarray:
    """Relabel each row so cluster ids appear in first-occurrence order."""
    lab = np.asarray(lab)
    single = lab.ndim == 1
    if single:
        lab = lab[None, :]
    t, n = lab.shape
    if lab.min() < 0 or lab.max() >= n:
        # per-row dense ranks of the values, which lie in [0, n)
        order = np.argsort(lab, axis=1)
        srt = np.take_along_axis(lab, order, axis=1)
        steps = np.zeros((t, n), dtype=np.int64)
        steps[:, 1:] = srt[:, 1:] != srt[:, :-1]
        lab = np.empty_like(steps)
        np.put_along_axis(lab, order, np.cumsum(steps, axis=1), axis=1)
    # left to right, a label seen for the first time in its row takes the
    # row's next id; seen[row * n + label] is the id it took
    row_off = np.arange(t) * n
    seen = np.full(t * n, -1, dtype=np.int64)
    count = np.zeros(t, dtype=np.int64)
    canon = np.empty((t, n), dtype=np.int64)
    for k in range(n):
        key = row_off + lab[:, k]
        ids = seen[key]
        new = ids < 0
        ids[new] = count[new]
        seen[key] = ids
        count += new
        canon[:, k] = ids
    return canon[0] if single else canon


_KEY_MAX = np.iinfo(np.int64).max


def _unique_rows(rows: np.ndarray,
                 counts: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """What np.unique(rows, axis=0, return_counts=True) returns, the unique
    rows of an integer array whose values fit in int64, in lexicographic
    order, and their counts.

    With `counts`, row r stands for counts[r] copies of itself, so rows
    that were already deduped and counted merge by summing their counts.

    Each row becomes one order-preserving int64 key, built column by column
    as key * span + (col - lo); one sort of the keys then finds the unique
    rows.  When the next column could overflow the key, the keys are
    replaced by their ranks, which keep their order and are fewer than the
    rows; a column with more values than there are rows is replaced by its
    ranks too.  So the keys are exact for any width and label range.
    """
    t = rows.shape[0]
    key = np.zeros(t, dtype=np.int64)
    bound = 1  # keys lie in [0, bound)
    for col in rows.T:
        lo = int(col.min())
        span = int(col.max()) - lo + 1
        if span > t:
            vals, col = np.unique(col, return_inverse=True)
            lo, span = 0, vals.size
        if bound > _KEY_MAX // span:
            ranked, key = np.unique(key, return_inverse=True)
            bound = ranked.size
        key *= span
        key += col.astype(np.int64, copy=False)
        key -= lo
        bound *= span
    order = np.argsort(key)  # equal keys are equal rows, so any order among them will do
    srt = key[order]
    new = np.empty(t, dtype=bool)
    new[:1] = True
    np.not_equal(srt[1:], srt[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    if counts is None:
        sums = np.diff(np.append(starts, t))
    else:
        sums = np.add.reduceat(counts[order], starts)
    return rows[order[starts]], sums


def _distinct_partitions(P: np.ndarray, size: int,
                         rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The distinct canonical partitions of `size` draws and their counts,
    what _unique_rows(canonicalize_labels(draws)) returns.  Draws repeat a
    few label rows many times, so the raw rows are deduped first and only
    the distinct ones canonicalized; rows that canonicalize alike then
    merge with their counts summed."""
    raw, raw_counts = _unique_rows(sample_partition_labels(P, size, rng))
    return _unique_rows(canonicalize_labels(raw), raw_counts)


def bound_rhs(P: np.ndarray, s_list, M: int, delta: float) -> float:
    """Right-hand side of the risk bound:

    (1/M) [ sum_v sum_{j<i} kl(p_ij, s_ij^(v)) / M
            + log(exp(1/(12M)) sqrt(pi M / 2) + 2) - log(delta) ]
    """
    if M < 2:
        raise ValueError(f"M must be >= 2, got {M}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if len(s_list) != M:
        raise ValueError(f"expected {M} similarity matrices, got {len(s_list)}")
    P = _check_probability_matrix(P)
    ii, jj = pair_indices(P.shape[0])
    p_flat = P[ii, jj]
    kl_sum = 0.0
    for s in s_list:
        s = np.asarray(s, dtype=float)
        kl_sum += float(kl_bernoulli(p_flat, s[ii, jj]).sum())
    slack = np.log(np.exp(1.0 / (12.0 * M)) * np.sqrt(np.pi * M / 2.0) + 2.0)
    return float((kl_sum / M + slack - np.log(delta)) / M)


@dataclass
class BoundReport:
    """Aggregated outcome of repeated bound checks."""

    M: int
    delta: float
    replications: int
    evaluated: int
    skipped: int
    rhs: float
    lhs: np.ndarray          # per replication; NaN where skipped
    holds_each: np.ndarray   # per replication; False where skipped
    skipped_mask: np.ndarray
    holds_fraction: float
    holds: bool


class _LossTable:
    """Memoized partition losses between interned canonical label rows.

    Losses live in a dense matrix over row ids, NaN where not yet computed;
    it grows geometrically as rows are interned.
    """

    def __init__(self):
        self.ids: dict[bytes, int] = {}
        self.rows: list[np.ndarray] = []
        self.mat = np.full((0, 0), np.nan)

    def intern(self, canon_rows: np.ndarray) -> np.ndarray:
        out = np.empty(canon_rows.shape[0], dtype=np.int64)
        for r, row in enumerate(canon_rows):
            key = row.astype(np.int64).tobytes()
            idx = self.ids.get(key)
            if idx is None:
                idx = len(self.rows)
                self.ids[key] = idx
                self.rows.append(row.astype(np.int64))
            out[r] = idx
        cap = self.mat.shape[0]
        if len(self.rows) > cap:
            grown = np.full((max(len(self.rows), 2 * cap),) * 2, np.nan)
            grown[:cap, :cap] = self.mat
            self.mat = grown
        return out

    def loss_vector(self, a_ids: np.ndarray, b_id: int) -> np.ndarray:
        vec = self.mat[a_ids, b_id]
        for k in np.flatnonzero(np.isnan(vec)):
            a = int(a_ids[k])
            lo, hi = min(a, b_id), max(a, b_id)
            vec[k] = self.mat[a, b_id] = self.mat[b_id, a] = 1.0 - nmi(self.rows[lo], self.rows[hi])
        return vec


def verify_theorem(
    P: np.ndarray,
    s_list,
    M: int,
    delta: float,
    replications: int,
    seed,
    empirical_draws: int = 2000,
    generalization_draws: int = 10_000,
    mc_slack: float = 0.03,
) -> BoundReport:
    """Replicated check of the risk bound.

    Each replication draws M ground-truth partitions from the sampler on P,
    estimates the view-averaged empirical risk and the generalization risk
    against the same sampler by shared Monte-Carlo draws
    (generalization_draws fresh ground truths), and
    compares KL(generalization risk || empirical risk) with the bound.
    Both batches of draws enter the risks as their distinct partitions and
    counts: each batch is deduped as raw label rows, only the distinct rows
    are canonicalized, and the canonical rows are deduped again.  The
    result, and so every risk, is what canonicalizing every draw would give.
    Replications whose risks land outside (0, 1) fall outside the bound's
    own precondition; they are skipped and counted.
    """
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    rhs = bound_rhs(P, s_list, M, delta)
    table = _LossTable()
    lhs = np.full(replications, np.nan)
    holds_each = np.zeros(replications, dtype=bool)
    skipped_mask = np.zeros(replications, dtype=bool)
    for r, child in enumerate(np.random.SeedSequence(seed).spawn(replications)):
        rng = np.random.default_rng(child)
        z0_ids = table.intern(canonicalize_labels(sample_partition_labels(P, M, rng)))
        phi_uniq, phi_counts = _distinct_partitions(P, empirical_draws, rng)
        phi_ids = table.intern(phi_uniq)
        phi_freq = phi_counts / phi_counts.sum()
        gen_uniq, gen_counts = _distinct_partitions(P, generalization_draws, rng)
        gen_ids = table.intern(gen_uniq)
        gen_freq = gen_counts / gen_counts.sum()

        emp_risk = float(np.mean([phi_freq @ table.loss_vector(phi_ids, z) for z in z0_ids]))
        gen_risk = float(gen_freq @ np.array(
            [phi_freq @ table.loss_vector(phi_ids, g) for g in gen_ids]))

        if not (0.0 < emp_risk < 1.0) or not (0.0 < gen_risk < 1.0):
            skipped_mask[r] = True
            continue
        lhs[r] = kl_bernoulli(gen_risk, emp_risk)
        holds_each[r] = lhs[r] <= rhs

    evaluated = int((~skipped_mask).sum())
    fraction = float(holds_each[~skipped_mask].mean()) if evaluated > 0 else 0.0
    return BoundReport(
        M=M, delta=delta, replications=replications, evaluated=evaluated,
        skipped=int(skipped_mask.sum()), rhs=rhs, lhs=lhs, holds_each=holds_each,
        skipped_mask=skipped_mask, holds_fraction=fraction,
        holds=fraction >= 1.0 - delta - mc_slack,
    )
