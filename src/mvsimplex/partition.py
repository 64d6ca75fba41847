"""Random partitions, partition risks, and the oracle-inequality check.

A cluster graph is the binary co-assignment matrix of a partition.  The
sampler grows a partition sequentially: items arrive in random order, try
existing clusters in creation order, and join the first cluster whose
first-processed member accepts them by a Bernoulli draw on the matching
co-assignment probability; joining forces 1-edges to the whole cluster and
0-edges elsewhere, so every sampled graph is transitive by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import nmi
from .model import kl_bernoulli, pair_indices


@dataclass
class ClusterGraph:
    """Symmetric 0/1 co-assignment matrix with a zero diagonal (an item's
    self-edge is implied by convention)."""

    z: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z)
        if z.ndim != 2 or z.shape[0] != z.shape[1]:
            raise ValueError(f"z must be square, got shape {z.shape}")
        self.z = (z != 0).astype(np.uint8)
        np.fill_diagonal(self.z, 0)

    @classmethod
    def from_labels(cls, labels) -> "ClusterGraph":
        labels = np.asarray(labels)
        z = (labels[:, None] == labels[None, :]).astype(np.uint8)
        np.fill_diagonal(z, 0)
        return cls(z)

    @property
    def n_items(self) -> int:
        return self.z.shape[0]

    def labels(self) -> np.ndarray:
        """Cluster labels numbered by first occurrence."""
        n = self.n_items
        lab = np.full(n, -1, dtype=int)
        nxt = 0
        for i in range(n):
            if lab[i] < 0:
                lab[i] = nxt
                lab[self.z[i] != 0] = nxt
                nxt += 1
        return lab

    def is_valid(self) -> bool:
        """True when the graph is a disjoint union of cliques.  With
        B = z + I this is exactly pattern(B @ B) == pattern(B), which checks
        every triple at once."""
        b = self.z.astype(np.int64) + np.eye(self.n_items, dtype=np.int64)
        if not np.array_equal(b, b.T):
            return False
        return bool(np.array_equal((b @ b) > 0, b > 0))


def _check_probability_matrix(P: np.ndarray) -> np.ndarray:
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError(f"P must be square, got shape {P.shape}")
    if np.any(P < 0.0) or np.any(P > 1.0):
        raise ValueError("P entries must lie in [0, 1]")
    return P


def sample_partition(P: np.ndarray, seed) -> ClusterGraph:
    """One draw of the sequential partition process (reference version)."""
    P = _check_probability_matrix(P)
    n = P.shape[0]
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    clusters: list[list[int]] = [[int(order[0])]]
    for j in order[1:]:
        j = int(j)
        for members in clusters:
            if rng.random() < P[members[0], j]:
                members.append(j)
                break
        else:
            clusters.append([j])
    lab = np.empty(n, dtype=int)
    for cid, members in enumerate(clusters):
        lab[members] = cid
    return ClusterGraph.from_labels(lab)


def sample_partition_labels(P: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """Batch of `size` draws of the same process, returned as label rows.

    Vectorized across draws: each step draws one uniform per existing
    cluster slot and joins the first accepting cluster, which has the same
    law as stopping at the first acceptance.
    """
    P = _check_probability_matrix(P)
    n = P.shape[0]
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    perm = rng.permuted(np.tile(np.arange(n), (size, 1)), axis=1)
    lab = np.full((size, n), -1, dtype=np.int64)
    reps = np.full((size, n), -1, dtype=np.int64)
    ncl = np.ones(size, dtype=np.int64)
    rows = np.arange(size)
    lab[rows, perm[:, 0]] = 0
    reps[:, 0] = perm[:, 0]
    for t in range(1, n):
        j = perm[:, t]
        u = rng.random((size, t))
        repmat = reps[:, :t]
        pvals = P[np.where(repmat >= 0, repmat, 0), j[:, None]]
        join = (u < pvals) & (np.arange(t)[None, :] < ncl[:, None])
        any_join = join.any(axis=1)
        lab[rows, j] = np.where(any_join, join.argmax(axis=1), ncl)
        started = ~any_join
        reps[rows[started], ncl[started]] = j[started]
        ncl += started
    return lab


def canonicalize_labels(lab: np.ndarray) -> np.ndarray:
    """Relabel each row so cluster ids appear in first-occurrence order."""
    lab = np.asarray(lab)
    single = lab.ndim == 1
    if single:
        lab = lab[None, :]
    t, n = lab.shape
    if lab.min() < 0 or lab.max() >= n:
        _, lab = np.unique(lab, return_inverse=True)
        lab = lab.reshape(t, n)
    first = np.full((t, n), n, dtype=np.int64)
    np.minimum.at(first, (np.repeat(np.arange(t), n), lab.ravel()), np.tile(np.arange(n), t))
    order = np.argsort(first, axis=1, kind="stable")
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.broadcast_to(np.arange(n), (t, n)).copy(), axis=1)
    canon = np.take_along_axis(rank, lab, axis=1)
    return canon[0] if single else canon


def partition_loss(a: ClusterGraph, b: ClusterGraph) -> float:
    """1 - NMI between two partitions; zero exactly on equal partitions."""
    return 1.0 - nmi(a.labels(), b.labels())


def empirical_risk(views: list[ClusterGraph], P: np.ndarray, samples: int, seed) -> float:
    """Monte-Carlo view-averaged risk: the mean over sampled partitions of
    the partition loss, averaged over the ground-truth views."""
    if len(views) == 0:
        raise ValueError("need at least one view")
    rng = np.random.default_rng(seed)
    draws = canonicalize_labels(sample_partition_labels(P, samples, rng))
    uniq, counts = np.unique(draws, axis=0, return_counts=True)
    freq = counts / counts.sum()
    total = 0.0
    for view in views:
        ref = view.labels()
        losses = np.array([1.0 - nmi(ref, row) for row in uniq])
        total += float(freq @ losses)
    return total / len(views)


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
class PartitionSampler:
    """A sampleable partition distribution: the sequential process run on a
    fixed co-assignment probability matrix."""

    P: np.ndarray

    def __post_init__(self):
        self.P = _check_probability_matrix(self.P)

    def sample_labels(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return sample_partition_labels(self.P, size, rng)


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
    """Memoized partition-loss lookups keyed by canonical label rows."""

    def __init__(self):
        self.ids: dict[bytes, int] = {}
        self.rows: list[np.ndarray] = []
        self.cache: dict[tuple[int, int], float] = {}

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
        return out

    def loss(self, a: int, b: int) -> float:
        key = (a, b) if a <= b else (b, a)
        val = self.cache.get(key)
        if val is None:
            val = 1.0 - nmi(self.rows[key[0]], self.rows[key[1]])
            self.cache[key] = val
        return val

    def loss_vector(self, a_ids: np.ndarray, b_id: int) -> np.ndarray:
        return np.array([self.loss(int(a), b_id) for a in a_ids])


def verify_theorem(
    generator,
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

    Each replication draws M ground-truth partitions from the generator
    (anything with sample_labels(rng, size)), estimates the view-averaged
    empirical risk and the generalization risk against the sampler on P by
    shared Monte-Carlo draws (generalization_draws fresh ground truths), and
    compares KL(generalization risk || empirical risk) with the bound.
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
        z0_ids = table.intern(canonicalize_labels(generator.sample_labels(rng, M)))
        phi_uniq, phi_counts = np.unique(
            canonicalize_labels(sample_partition_labels(P, empirical_draws, rng)),
            axis=0, return_counts=True)
        phi_ids = table.intern(phi_uniq)
        phi_freq = phi_counts / phi_counts.sum()
        gen_uniq, gen_counts = np.unique(
            canonicalize_labels(generator.sample_labels(rng, generalization_draws)),
            axis=0, return_counts=True)
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
