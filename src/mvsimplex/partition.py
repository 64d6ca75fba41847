"""Random partitions, partition risks, and the oracle-inequality check.

A partition is a row of cluster labels.  The sampler grows a partition
sequentially: items arrive in random order, try existing clusters in
creation order, and join the first cluster whose first-processed member
accepts them by a Bernoulli draw on the matching co-assignment probability;
joining puts an item in one cluster only, so every sampled co-assignment
graph is transitive by construction.

For n <= 6 items the law of that process is computed exactly (B(n)
partitions, B(6) = 203), and the bound check takes its risks from it; for
more items it estimates them from partitions the sampler draws.  The
sampler takes one random stream or many, a slice of rows each, so at
every n the bound check draws the ground truths of many replications in
one vectorized pass while each replication keeps its own stream.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .metrics import Labeling, labeling, nmi
from .model import kl_bernoulli
from .similarity import pair_indices


def _check_probability_matrix(P: np.ndarray) -> np.ndarray:
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError(f"P must be square, got shape {P.shape}")
    if P.shape[0] == 0:
        raise ValueError("P must have at least one item, got shape (0, 0)")
    if not np.all((P >= 0.0) & (P <= 1.0)):  # also rejects NaN
        raise ValueError("P entries must lie in [0, 1]")
    return P


def _check_label_range(rows: np.ndarray) -> None:
    n = rows.shape[1]
    if rows.min() < 0 or rows.max() >= n:
        raise ValueError(f"labels must lie in [0, {n}), the row length")


def sample_partition_labels(P: np.ndarray, size: int, rng) -> np.ndarray:
    """Batch of `size` draws of the sequential process, returned as label rows.

    `rng` is one stream, or a list or tuple of streams that draw
    size // len(rng) consecutive rows each; a stream is a Generator or a
    seed, passed through np.random.default_rng.  A stream makes the calls
    it would make alone, in the same order, into its own slice of the
    batch, so its rows and its state afterwards are bit-identical to a call
    with that stream alone.

    Vectorized across draws: each step draws one uniform per existing
    cluster slot and joins the first accepting cluster, which has the same
    law as stopping at the first acceptance.  P, a square float array of
    probabilities, is not checked here; verify_theorem checks it once.
    """
    n = P.shape[0]
    streams = [np.random.default_rng(s) for s in (rng if isinstance(rng, (list, tuple)) else [rng])]
    if not streams:
        raise ValueError("rng must hold at least one stream, got an empty sequence")
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    if size % len(streams):
        raise ValueError(f"size must be a multiple of the {len(streams)} streams, got {size}")
    each = size // len(streams)
    p_flat = P.ravel()
    perm = np.tile(np.arange(n), (size, 1))
    for g, part in zip(streams, perm.reshape(-1, each, n)):
        g.permuted(part, axis=1, out=part)
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
        u = np.empty((size, t))
        for g, part in zip(streams, u.reshape(-1, each, t)):
            g.random(out=part)
        joined = ncl.copy()
        for k in range(t - 1, -1, -1):
            np.putmask(joined, (u[:, k] < p_flat[rep_off[k] + j]) & (k < ncl), k)
        lab[row_off + j] = joined
        rep_off[ncl, rows] = j * n
        ncl += joined == ncl
    return lab.reshape(size, n)


def canonicalize_labels(lab: np.ndarray) -> np.ndarray:
    """Relabel each row of a 2-d label array so cluster ids appear in
    first-occurrence order.  Labels must lie in [0, n), n the row length."""
    t, n = lab.shape
    _check_label_range(lab)
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
    return canon


_KEY_MAX = np.iinfo(np.int64).max


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """What np.unique(rows, axis=0, return_counts=True) returns, the unique
    rows of a label array, whose values lie in [0, n) for rows of length n,
    in lexicographic order, and their counts.

    Each row becomes one order-preserving int64 key, built column by column
    as key * n + col; one sort of the keys then finds the unique rows.
    When the next column could overflow the key, the keys are replaced by
    their ranks, which keep their order and are fewer than the rows, so the
    keys are exact for any row length.
    """
    _check_label_range(rows)
    t, n = rows.shape
    key = np.zeros(t, dtype=np.int64)
    bound = 1  # keys lie in [0, bound)
    for col in rows.T:
        if bound > _KEY_MAX // n:
            ranked, key = np.unique(key, return_inverse=True)
            bound = ranked.size
        key *= n
        key += col
        bound *= n
    order = np.argsort(key)  # equal keys are equal rows, so any order among them will do
    srt = key[order]
    new = np.empty(t, dtype=bool)
    new[:1] = True
    np.not_equal(srt[1:], srt[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    return rows[order[starts]], np.diff(np.append(starts, t))


# Largest n whose exact law verify_theorem computes.  On two_block_matrix(n,
# 0.9, 0.1) the law took 0.008 s at n = 5, 0.12 s at n = 6, 1.7 s at n = 7
# and 41 s at n = 8 (2-core Xeon host), 14-24x more per item.  Its exact
# risks need all B(n)^2 losses: 1,378 nmi calls at n = 5, 20,706 at n = 6.
_EXACT_LAW_MAX_N = 6

# Most ground-truth rows verify_theorem draws in one sampler pass.  A pass
# holds a seed and a generator per replication (past n = 6 until the block's
# replications have drawn their batches) and an interning key per row:
# 100,000 replications of M = 5 on two_block_matrix(5, 0.9, 0.1) peaked at
# 229 MB of process RSS in one pass, at 47 MB in passes of this many rows
# and at 76 MB one replication at a time.  The default run of 500
# replications is one pass.
_SAMPLE_ROWS_MAX = 16_384


def _partition_law(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact law of the sequential process on P: every canonical partition
    of the n items, as label rows in lexicographic order (the order
    np.unique gives), and its probability.

    A dynamic program over arrival states.  A state is the clusters in
    creation order, each its first member and its member bitmask; the
    items not yet arrived come next uniformly at random, so the states
    after t arrivals give those after t + 1, and states reached twice merge
    by key.  Every partition is reached, with probability 0 if P rules it
    out, so there are B(n) rows.
    """
    n = P.shape[0]
    p = P.tolist()
    states = {((i, 1 << i),): 1.0 / n for i in range(n)}
    for t in range(1, n):
        share = 1.0 / (n - t)
        reached = defaultdict(float)
        for clusters, prob in states.items():
            arrived = 0
            for _, members in clusters:
                arrived |= members
            for j in range(n):
                if arrived >> j & 1:
                    continue
                reject = prob * share
                for c, (rep, members) in enumerate(clusters):
                    join = p[rep][j]
                    grown = clusters[:c] + ((rep, members | 1 << j),) + clusters[c + 1:]
                    reached[grown] += reject * join
                    reject *= 1.0 - join
                reached[clusters + ((j, 1 << j),)] += reject
        states = reached
    law = defaultdict(float)
    for clusters, prob in states.items():
        # canonical ids follow each cluster's lowest member
        labels = [0] * n
        for c, (_, members) in enumerate(sorted(clusters, key=lambda cl: cl[1] & -cl[1])):
            for i in range(n):
                if members >> i & 1:
                    labels[i] = c
        law[tuple(labels)] += prob
    rows = sorted(law)
    return np.array(rows, dtype=np.int64), np.array([law[row] for row in rows])


def bound_rhs(P: np.ndarray, s_list, delta: float) -> float:
    """Right-hand side of the risk bound over the M = len(s_list) views:

    (1/M) [ sum_v sum_{j<i} kl(p_ij, s_ij^(v)) / M
            + log(exp(1/(12M)) sqrt(pi M / 2) + 2) - log(delta) ]
    """
    M = len(s_list)
    if M < 2:
        raise ValueError(f"M must be >= 2, got {M}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    P = _check_probability_matrix(P)
    ii, jj = pair_indices(P.shape[0])
    p_flat = P[ii, jj]
    kl_sum = 0.0
    for v, s in enumerate(s_list):
        s = np.asarray(s, dtype=float)
        if s.shape != P.shape:
            raise ValueError(f"s_list[{v}] has shape {s.shape}, expected {P.shape}")
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
    target_fraction: float   # holds when holds_fraction reaches it
    holds: bool


class _LossTable:
    """Memoized partition losses between interned canonical label rows.

    Losses live in a dense matrix over row ids, NaN where not yet computed;
    it grows geometrically as rows are interned.  A lookup reads a block,
    some ids by others, and computes only its new pairs.

    Each row's labeling (metrics.labeling: codes, marginal, entropy) is
    built once, when the row is interned, so a new pair costs only nmi's
    pair step.  Each pair's loss is 1 - nmi(labs[lo], labs[hi]) with
    lo < hi by id and is stored in both of its cells.  nmi is not
    bit-symmetric: swapping its arguments changed the last bit on 122 of
    the 1,326 pairs of the 52 partitions at n = 5, and on 2,683 pairs at
    n = 6.
    """

    def __init__(self):
        self.ids: dict[bytes, int] = {}
        self.labs: list[Labeling] = []
        self.mat = np.full((0, 0), np.nan)

    def intern(self, canon_rows: np.ndarray) -> np.ndarray:
        rows = canon_rows.astype(np.int64)
        # one bytes key per row, from a view of each row as one void item
        keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().tolist()
        out = []
        for r, key in enumerate(keys):
            idx = self.ids.get(key)
            if idx is None:
                idx = self.ids[key] = len(self.labs)
                self.labs.append(labeling(rows[r]))
            out.append(idx)
        cap = self.mat.shape[0]
        if len(self.labs) > cap:
            grown = np.full((max(len(self.labs), 2 * cap),) * 2, np.nan)
            grown[:cap, :cap] = self.mat
            self.mat = grown
        return np.array(out, dtype=np.int64)

    def loss_vector(self, a_ids: np.ndarray, b_ids: np.ndarray) -> np.ndarray:
        """The C-ordered block of losses between ids a_ids (rows) and b_ids
        (columns), each new pair computed once."""
        block = self.mat[a_ids[:, None], b_ids]
        missing = np.isnan(block)
        if not missing.any():
            return block
        for i, j in zip(*np.nonzero(missing)):
            a, b = int(a_ids[i]), int(b_ids[j])
            loss = self.mat[a, b]
            if np.isnan(loss):  # not filled by an earlier cell of this block
                lo, hi = min(a, b), max(a, b)
                loss = self.mat[a, b] = self.mat[b, a] = 1.0 - nmi(self.labs[lo], self.labs[hi])
            block[i, j] = loss
        return block


def _risks(freq: np.ndarray, block: np.ndarray) -> np.ndarray:
    """freq @ row for each row of a C-ordered block, as one stacked product.

    np.matmul over (1, k) @ (k, 1) stacks takes the same dot product per
    row as freq @ row, so the bits match that loop: none of 61,997 random
    rows of length 1-60, nor of 5,772 rows of length 61-5,000, differed.
    One gemv (block @ freq) sums in another order and differed in the last
    bits on 29,967 of those 61,997 rows (OpenBLAS, one thread).
    """
    return np.matmul(block[:, None, :], freq[:, None])[:, 0, 0]


def _interned_batch(table: _LossTable, P: np.ndarray, size: int,
                    rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """`size` sampler draws as the table ids of their distinct canonical
    partitions, in lexicographic order, and their frequencies."""
    rows, counts = _unique_rows(canonicalize_labels(sample_partition_labels(P, size, rng)))
    return table.intern(rows), counts / counts.sum()


def verify_theorem(
    P: np.ndarray,
    s_list,
    delta: float,
    replications: int,
    seed,
    empirical_draws: int = 2000,
    generalization_draws: int = 10_000,
    mc_slack: float = 0.03,
) -> BoundReport:
    """Replicated check of the risk bound.

    Each replication draws M = len(s_list) ground-truth partitions from the
    sampler on P, from its own stream (child r of SeedSequence(seed)), and
    compares KL(generalization risk || empirical risk) with the bound.  A
    partition's risk is its expected loss against a partition drawn from
    the same law; the empirical risk is the ground truths' mean risk, and
    the generalization risk the law's mean risk.
    The ground truths of up to _SAMPLE_ROWS_MAX // M replications come
    from one sampler pass, one stream per replication, with the bits of one
    sampler call per replication, and are canonicalized once.
    For n <= 6 items both risks are exact, from the law (_partition_law) and
    the risks of its B(n) partitions, computed once per call.  The draw
    counts change no result there but are still checked: the CLI passes its
    resolved defaults, so a count the user set cannot be told apart.
    For more items the risks are Monte-Carlo estimates: each replication
    goes on drawing from its own stream, empirical_draws partitions that
    stand in for the law, then generalization_draws fresh ones for the
    generalization mean.  Each batch is canonicalized and deduped once
    (_interned_batch).  The losses come from one lazy table (_LossTable),
    read as blocks, and each risk row is one dot product (_risks).
    Replications whose risks land outside (0, 1) fall outside the bound's
    own precondition; they are skipped, their lhs NaN, and counted.  The
    bound holds when the fraction of evaluated replications within it
    reaches 1 - delta - mc_slack, 0 <= mc_slack < 1 - delta, at every n;
    for n <= 6 the slack covers the noise of finitely many replications.
    """
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    for name, draws in (("empirical_draws", empirical_draws),
                        ("generalization_draws", generalization_draws)):
        if draws < 1:
            raise ValueError(f"{name} must be >= 1, got {draws}")
    rhs = bound_rhs(P, s_list, delta)  # checks P and delta, once for all the draws
    if not 0.0 <= mc_slack < 1.0 - delta:
        raise ValueError(f"mc_slack must lie in [0, 1 - delta) = [0, {1.0 - delta:g}), "
                         f"got {mc_slack}")
    P = np.asarray(P, dtype=float)
    M = len(s_list)
    table = _LossTable()
    risks = np.empty((2, replications))  # empirical, generalization
    root = np.random.SeedSequence(seed)  # replication r draws from its child r
    exact = P.shape[0] <= _EXACT_LAW_MAX_N
    if exact:
        rows, probs = _partition_law(P)
        ids = table.intern(rows)  # so a row's id is its law index
        law_risks = _risks(probs, table.loss_vector(ids, ids))
        risks[1] = probs @ law_risks
    per_block = max(1, _SAMPLE_ROWS_MAX // M)
    for lo in range(0, replications, per_block):
        # successive spawns continue the children's numbering; past n = 6 a
        # replication goes on drawing from its Generator, at n <= 6 the
        # sampler's own Generators are freed when it returns
        block = root.spawn(min(per_block, replications - lo))
        streams = block if exact else [np.random.default_rng(child) for child in block]
        z0 = canonicalize_labels(sample_partition_labels(P, len(block) * M, streams))
        if exact:
            risks[0, lo:lo + len(block)] = law_risks[table.intern(z0).reshape(-1, M)].mean(axis=1)
            continue
        for r, rng in enumerate(streams):
            # a replication interns its ground truths before its batches, as
            # it would alone, so every nmi call keeps its argument order
            z0_ids = table.intern(z0[r * M:(r + 1) * M])
            phi_ids, phi_freq = _interned_batch(table, P, empirical_draws, rng)
            gen_ids, gen_freq = _interned_batch(table, P, generalization_draws, rng)
            risks[0, lo + r] = np.mean(_risks(phi_freq, table.loss_vector(z0_ids, phi_ids)))
            risks[1, lo + r] = gen_freq @ _risks(phi_freq, table.loss_vector(gen_ids, phi_ids))

    emp_risk, gen_risk = risks
    evaluated_mask = (0.0 < emp_risk) & (emp_risk < 1.0) & (0.0 < gen_risk) & (gen_risk < 1.0)
    lhs = np.full(replications, np.nan)
    lhs[evaluated_mask] = kl_bernoulli(gen_risk[evaluated_mask], emp_risk[evaluated_mask])

    skipped_mask = ~evaluated_mask
    holds_each = lhs <= rhs  # False where lhs is NaN
    evaluated = int(evaluated_mask.sum())
    fraction = float(holds_each[evaluated_mask].mean()) if evaluated > 0 else 0.0
    target = 1.0 - delta - mc_slack
    return BoundReport(
        M=M, delta=delta, replications=replications, evaluated=evaluated,
        skipped=replications - evaluated, rhs=rhs, lhs=lhs, holds_each=holds_each,
        skipped_mask=skipped_mask, holds_fraction=fraction, target_fraction=target,
        holds=fraction >= target,
    )
