"""Independent reference implementations used only by the tests.

Everything here is written in the most literal way possible (plain loops,
dict counters, sympy-free closed forms) so that agreement with the library
is meaningful.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


def nmi_reference(a, b) -> float:
    """Normalized mutual information, 2 I / (H(a) + H(b)), via dict counting."""
    a = [int(x) for x in np.asarray(a).ravel()]
    b = [int(x) for x in np.asarray(b).ravel()]
    assert len(a) == len(b)
    n = len(a)
    ca: dict = defaultdict(int)
    cb: dict = defaultdict(int)
    cab: dict = defaultdict(int)
    for x, y in zip(a, b):
        ca[x] += 1
        cb[y] += 1
        cab[(x, y)] += 1
    ha = -sum((c / n) * math.log(c / n) for c in ca.values())
    hb = -sum((c / n) * math.log(c / n) for c in cb.values())
    info = 0.0
    for (x, y), c in cab.items():
        info += (c / n) * math.log((c / n) / ((ca[x] / n) * (cb[y] / n)))
    if ha + hb == 0.0:
        return 1.0
    return 2.0 * info / (ha + hb)


def nmi_np_unique(a, b) -> float:
    """The library's nmi with the labels coded by np.unique(return_inverse=True)
    and the same float operations in the same order, so that the library
    must match it bit for bit."""
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    n = a.size
    cont = np.zeros((ai.max() + 1, bi.max() + 1), dtype=float)
    np.add.at(cont, (ai, bi), 1.0)
    pa = cont.sum(axis=1) / n
    pb = cont.sum(axis=0) / n
    ha = -np.sum(pa * np.log(pa, where=pa > 0, out=np.zeros_like(pa)))
    hb = -np.sum(pb * np.log(pb, where=pb > 0, out=np.zeros_like(pb)))
    if ha <= 0.0 and hb <= 0.0:
        return 1.0
    if ha <= 0.0 or hb <= 0.0:
        return 0.0
    pj = cont / n
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = pj / (pa[:, None] * pb[None, :])
        terms = np.where(pj > 0, pj * np.log(ratio), 0.0)
    return float(2.0 * terms.sum() / (ha + hb))


def kl_bernoulli_reference(p: float, s: float) -> float:
    """Scalar Bernoulli KL with explicit 0 log 0 = 0 handling."""
    total = 0.0
    if p > 0.0:
        total += p * math.log(p / s)
    if p < 1.0:
        total += (1.0 - p) * math.log((1.0 - p) / (1.0 - s))
    return total


def similarity_reference(points, q: float):
    """Scalar-loop version of the locally scaled similarity matrix,
    without clamping."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            dist[i, j] = math.sqrt(sum((pts[i, t] - pts[j, t]) ** 2 for t in range(pts.shape[1])))
    sigma = np.zeros(n)
    for i in range(n):
        row = sorted(dist[i, j] for j in range(n) if j != i)
        # linear-interpolation quantile on the sorted off-diagonal row
        h = (len(row) - 1) * q
        lo = math.floor(h)
        hi = min(lo + 1, len(row) - 1)
        val = row[lo] + (h - lo) * (row[hi] - row[lo])
        if val <= 0.0:
            val = min(x for x in row if x > 0.0)
        sigma[i] = val
    s = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            s[i, j] = math.exp(-dist[i, j] / math.sqrt(sigma[i] * sigma[j]))
    return s


def local_bandwidths_reference(dist, q: float):
    """Per-row q-quantile of the off-diagonal distances by np.quantile's
    linear method, with the smallest positive distance for a zero one."""
    n = dist.shape[0]
    rows = dist[~np.eye(n, dtype=bool)].reshape(n, n - 1)
    sigma = np.quantile(rows, q, axis=1, method="linear")
    for i in np.nonzero(sigma <= 0.0)[0]:
        sigma[i] = rows[i][rows[i] > 0.0].min()
    return sigma


def reg_loss_reference(weights, lam, eta, s_matrices, epsilon, n_reg, alpha) -> float:
    """Triple-loop objective: data divergences + column penalty + mixture
    penalty, the penalties over the entries with lam > 0 only.  weights is
    (d, n, g); s_matrices is (V, n, n)."""
    d, n, g = weights.shape
    V = s_matrices.shape[0]
    total = 0.0
    for v in range(V):
        for l in range(d):
            acc = 0.0
            for i in range(1, n):
                for j in range(i):
                    p = float(np.dot(weights[l, i], weights[l, j]))
                    p = min(max(p, 1e-300), 1.0 - 1e-12)
                    acc += kl_bernoulli_reference(p, float(s_matrices[v, i, j]))
            total += eta[v, l] * acc
    smoothing = 1e-12
    for l in range(d):
        if lam[l] == 0.0:
            continue
        for k in range(g):
            ssq = 0.0
            for i in range(n):
                h = math.log(weights[l, i, k] / epsilon)
                if h > 0.0:
                    ssq += h * h
            total += n_reg * (math.sqrt(smoothing + ssq) - math.sqrt(smoothing))
        total += (1.0 - alpha) * math.log(lam[l])
    return total


def exact_partition_distribution(P) -> dict:
    """Exact law of the sequential partition process on P, as a dict from
    canonical label tuples to probabilities.

    Enumerates every processing order and every join/reject outcome; the
    canonical labeling is by first occurrence over items 0..n-1.
    """
    P = np.asarray(P, dtype=float)
    n = P.shape[0]
    out: dict = defaultdict(float)
    perm_weight = 1.0 / math.factorial(n)
    for perm in itertools.permutations(range(n)):
        # stack entries: (next position, clusters as tuple of tuples, prob)
        stack = [(1, ((perm[0],),), 1.0)]
        while stack:
            t, clusters, pr = stack.pop()
            if t == n:
                labels = [0] * n
                for c, members in enumerate(clusters):
                    for m in members:
                        labels[m] = c
                out[canonical_tuple(labels)] += pr * perm_weight
                continue
            j = perm[t]
            reject = 1.0
            for c, members in enumerate(clusters):
                p_join = float(P[members[0], j])
                joined = clusters[:c] + (members + (j,),) + clusters[c + 1:]
                stack.append((t + 1, joined, pr * reject * p_join))
                reject *= 1.0 - p_join
            stack.append((t + 1, clusters + ((j,),), pr * reject))
    return dict(out)


def canonical_tuple(labels) -> tuple:
    """Relabel by order of first appearance: (1,1,0,2) -> (0,0,1,2)."""
    mapping: dict = {}
    out = []
    for x in labels:
        x = int(x)
        if x not in mapping:
            mapping[x] = len(mapping)
        out.append(mapping[x])
    return tuple(out)


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


def sample_partition(P, seed) -> ClusterGraph:
    """One draw of the sequential partition process, item by item."""
    from mvsimplex.partition import _check_probability_matrix

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


def partition_loss(a: ClusterGraph, b: ClusterGraph) -> float:
    """1 - NMI between two partitions; zero exactly on equal partitions."""
    from mvsimplex.metrics import nmi

    return 1.0 - nmi(a.labels(), b.labels())


def empirical_risk(views: list, P, samples: int, seed) -> float:
    """Monte-Carlo view-averaged risk: the mean over sampled partitions of
    the partition loss, averaged over the ground-truth views."""
    from mvsimplex.metrics import nmi
    from mvsimplex.partition import canonicalize_labels, sample_partition_labels

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


def sample_partition_labels_reference(P, size: int, rng):
    """The batch sampler with 2-d (draw, slot) arrays: one uniform per
    existing cluster slot, join the first accepting one.  The library makes
    the same generator calls in the same order, so equal seeds must give
    equal labels."""
    P = np.asarray(P, dtype=float)
    n = P.shape[0]
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


def canonicalize_labels_reference(lab):
    """First-occurrence relabelling by the first position of each label
    (np.minimum.at) and a stable argsort of those positions."""
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


class LossTableReference:
    """Partition losses memoized in a dict keyed by the ordered id pair."""

    def __init__(self):
        self.ids: dict = {}
        self.rows: list = []
        self.cache: dict = {}

    def intern(self, canon_rows):
        out = np.empty(canon_rows.shape[0], dtype=np.int64)
        for r, row in enumerate(canon_rows):
            key = row.astype(np.int64).tobytes()
            if key not in self.ids:
                self.ids[key] = len(self.rows)
                self.rows.append(row.astype(np.int64))
            out[r] = self.ids[key]
        return out

    def loss(self, a: int, b: int) -> float:
        from mvsimplex.metrics import nmi

        key = (a, b) if a <= b else (b, a)
        if key not in self.cache:
            self.cache[key] = 1.0 - nmi(self.rows[key[0]], self.rows[key[1]])
        return self.cache[key]

    def loss_vector(self, a_ids, b_id: int):
        return np.array([self.loss(int(a), b_id) for a in a_ids])


def risks_reference(freq, block):
    """One dot product per row of the loss block, the risks' reference bits."""
    return np.array([freq @ row for row in block])


def verify_theorem_reference(P, s_list, delta: float, replications: int, seed,
                             empirical_draws: int = 2000, generalization_draws: int = 10_000):
    """The replicated bound check with np.unique(axis=0) dedupe of every
    draw, the dict loss table and the reference canonicalizer, skipping a
    replication as soon as its risks leave (0, 1).  Draws come from the
    reference sampler.  For n <= 6 the risks are exact instead: the
    library's law rows are interned first, so a row's id is its law index,
    and each partition's risk is one dot of the law's probabilities with
    its loss column.  Returns (lhs, holds_each, skipped_mask); the library
    must match them bit for bit."""
    from mvsimplex.partition import _EXACT_LAW_MAX_N, _partition_law, bound_rhs
    from mvsimplex.model import kl_bernoulli

    P = np.asarray(P, dtype=float)
    M = len(s_list)
    rhs = bound_rhs(P, s_list, delta)
    table = LossTableReference()
    law_risks = None
    if P.shape[0] <= _EXACT_LAW_MAX_N:
        rows, probs = _partition_law(P)
        law_ids = table.intern(rows)
        law_risks = np.array([probs @ table.loss_vector(law_ids, z) for z in law_ids])

    def batch_risks(rng, z0_ids):
        phi_uniq, phi_counts = np.unique(
            canonicalize_labels_reference(sample_partition_labels_reference(
                P, empirical_draws, rng)), axis=0, return_counts=True)
        phi_ids = table.intern(phi_uniq)
        phi_freq = phi_counts / phi_counts.sum()
        gen_uniq, gen_counts = np.unique(
            canonicalize_labels_reference(sample_partition_labels_reference(
                P, generalization_draws, rng)), axis=0, return_counts=True)
        gen_ids = table.intern(gen_uniq)
        gen_freq = gen_counts / gen_counts.sum()
        emp_risk = float(np.mean([phi_freq @ table.loss_vector(phi_ids, z) for z in z0_ids]))
        gen_risk = float(gen_freq @ np.array(
            [phi_freq @ table.loss_vector(phi_ids, g) for g in gen_ids]))
        return emp_risk, gen_risk

    lhs = np.full(replications, np.nan)
    holds_each = np.zeros(replications, dtype=bool)
    skipped_mask = np.zeros(replications, dtype=bool)
    for r, child in enumerate(np.random.SeedSequence(seed).spawn(replications)):
        rng = np.random.default_rng(child)
        z0_ids = table.intern(
            canonicalize_labels_reference(sample_partition_labels_reference(P, M, rng)))
        if law_risks is None:
            emp_risk, gen_risk = batch_risks(rng, z0_ids)
        else:
            emp_risk = float(np.mean([law_risks[z] for z in z0_ids]))
            gen_risk = float(probs @ law_risks)

        if not (0.0 < emp_risk < 1.0) or not (0.0 < gen_risk < 1.0):
            skipped_mask[r] = True
            continue
        lhs[r] = kl_bernoulli(gen_risk, emp_risk)
        holds_each[r] = lhs[r] <= rhs
    return lhs, holds_each, skipped_mask


def chi_square_pvalue(observed_counts, probabilities) -> float:
    """Goodness-of-fit p-value; cells must align."""
    from scipy.stats import chi2

    obs = np.asarray(observed_counts, dtype=float)
    expected = np.asarray(probabilities, dtype=float) * obs.sum()
    stat = ((obs - expected) ** 2 / expected).sum()
    return float(chi2.sf(stat, df=len(obs) - 1))


def numeric_gradient(func, x, step: float = 1e-5):
    """Central finite differences of a scalar function of an array."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for idx in range(flat.size):
        orig = flat[idx]
        flat[idx] = orig + step
        hi = func(x)
        flat[idx] = orig - step
        lo = func(x)
        flat[idx] = orig
        gflat[idx] = (hi - lo) / (2.0 * step)
    return grad


def kmeans_pp_reference(points, k: int, seed):
    """K-means++ with the whole-array formulas: row norms by einsum,
    Lloyd distances from (2 * points) @ centers.T, and cluster means as
    the product of the one-hot label matrix with the points, divided by
    the cluster counts.  The library's labels must equal these."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    points = np.asarray(points, dtype=float)
    m = points.shape[0]
    n_trials = 2 + int(np.log(k))

    def sq_dists_to(idx):
        d2 = sq_norms - 2.0 * (points @ points[idx]) + sq_norms[idx]
        return np.maximum(d2, 0.0, out=d2)

    sq_norms = np.einsum("ij,ij->i", points, points)
    chosen = [int(rng.integers(m))]
    min_d2 = sq_dists_to(chosen[0])
    for _ in range(1, k):
        total = min_d2.sum()
        if total > 0.0:
            probs = np.maximum(min_d2, 0.0) / total
            probs /= probs.sum()
            candidates = rng.choice(m, size=n_trials, p=probs)
        else:
            candidates = rng.integers(m, size=n_trials)
        best_pot, best_idx, best_min = np.inf, int(candidates[0]), None
        for idx in candidates:
            cand_min = np.minimum(min_d2, sq_dists_to(int(idx)))
            pot = cand_min.sum()
            if pot < best_pot:
                best_pot, best_idx, best_min = pot, int(idx), cand_min
        chosen.append(best_idx)
        min_d2 = best_min
    centers = points[chosen].copy()

    labels = np.zeros(m, dtype=int)
    prev_obj = np.inf
    for _ in range(100):
        d2 = sq_norms[:, None] - 2.0 * points @ centers.T + (centers * centers).sum(axis=1)[None, :]
        np.maximum(d2, 0.0, out=d2)
        labels = d2.argmin(axis=1)
        assign_d2 = d2[np.arange(m), labels]
        for empty in np.nonzero(np.bincount(labels, minlength=k) == 0)[0]:
            far = int(assign_d2.argmax())
            centers[empty] = points[far]
            labels[far] = empty
            assign_d2[far] = 0.0
        obj = float(assign_d2.sum())
        one_hot = np.zeros((k, m))
        one_hot[labels, np.arange(m)] = 1.0
        sums = one_hot @ points
        for c in range(k):
            count = int((labels == c).sum())
            if count:
                centers[c] = sums[c] / count
        if prev_obj - obj <= 1e-6 * max(abs(prev_obj), 1.0):
            break
        prev_obj = obj
    return labels


def full_kappa(precomp) -> np.ndarray:
    """The (d, n, n) kappa of every catalog entry: KappaGamma stores the
    live entries' alone, and a dead entry's is the zero matrix."""
    d = precomp.gamma.size
    kappa = np.zeros((d,) + precomp.kappa.shape[1:])
    kappa[precomp.live] = precomp.kappa
    return kappa


def expected_loss_gradient_reference(logits, precomp, epsilon, n_reg):
    """The descent gradient of every catalog entry, dead ones included: a
    dead entry (zero kappa and gamma) gets the group-penalty gradient
    alone.  The library takes the live entries' rows only; on those rows
    the two must agree bit for bit."""
    from mvsimplex.model import _P_HI, _P_LO, GROUP_SMOOTHING, row_softmax

    W = row_softmax(logits)
    P = np.clip(W @ W.transpose(0, 2, 1), _P_LO, _P_HI)
    G = full_kappa(precomp) + precomp.gamma[:, None, None] * np.log(P / (1 - P))
    idx = np.arange(W.shape[1])
    G[:, idx, idx] = 0.0
    grad_w = G @ W
    h = np.maximum(0.0, np.log(W) - np.log(epsilon))
    col_norm = np.sqrt(GROUP_SMOOTHING + (h * h).sum(axis=1, keepdims=True))
    grad_w += n_reg * h / (W * col_norm)
    inner = (grad_w * W).sum(axis=2, keepdims=True)
    return W * (grad_w - inner)


def loss_gradient(logits, precomp, epsilon, n_reg):
    """The library's expected_loss_gradient, given a new pair of
    (live, n, n) work arrays."""
    from mvsimplex import model

    live, n, _ = logits.shape
    work = np.empty((live, n, n)), np.empty((live, n, n))
    return model.expected_loss_gradient(logits, precomp, epsilon, n_reg, work)


def adam_descend_reference(logits, precomp, config, n_reg):
    """The M-step Adam loop in its textbook form, with fresh moment and
    bias-corrected arrays on every step, on the live entries' rows
    (precomp.live) alone.  The library updates in place in the same
    operation order, which must not move a bit of the result."""
    out = logits.copy()
    out[precomp.live] = _textbook_adam(
        logits[precomp.live], config,
        lambda x: loss_gradient(x, precomp, config.epsilon, n_reg))
    return out


def adam_descend_every_entry(logits, precomp, config, n_reg):
    """The M step that descends every catalog entry, dead ones (gamma_l = 0)
    included, on the full-catalog gradient: a dead entry moves under its
    group penalty alone.  The library freezes dead entries, which must not
    move a bit of a live entry's trajectory."""
    return _textbook_adam(
        logits.copy(), config,
        lambda x: expected_loss_gradient_reference(x, precomp, config.epsilon, n_reg))


def _textbook_adam(x, config, gradient):
    from mvsimplex import model

    m = np.zeros_like(x)
    v = np.zeros_like(x)
    for t in range(1, config.m_iters + 1):
        grad = gradient(x)
        if not np.all(np.isfinite(grad)):
            raise model.FitDivergedError("non-finite gradient during descent")
        m = model.ADAM_BETA1 * m + (1.0 - model.ADAM_BETA1) * grad
        v = model.ADAM_BETA2 * v + (1.0 - model.ADAM_BETA2) * grad * grad
        m_hat = m / (1.0 - model.ADAM_BETA1 ** t)
        v_hat = v / (1.0 - model.ADAM_BETA2 ** t)
        x -= config.step_size * m_hat / (np.sqrt(v_hat) + model.ADAM_EPS)
    return x


def merge_columns_full_loss_reference(state, S, n_reg: float) -> bool:
    """The column-merge step that scores trials on the entry's share of the
    loss but keeps the best one only after the full reg_loss of the merged
    state, recomputed from a fresh E-step divergence matrix, falls below
    the last kept loss.  The library keeps the best trial on the entry's
    share alone, which changes by the same amount; on the same fit the two
    must keep the same merges."""
    from dataclasses import replace

    from mvsimplex.model import (
        _entry_loss,
        _merged_logits,
        _reg_loss_from_divergences,
        pair_workspace,
        row_softmax,
        view_divergences,
    )

    eps = state.config.epsilon
    ws = pair_workspace(S)
    loss = state.loss_history[-1]
    kept = False
    for l in np.nonzero(state.lam > 0.0)[0]:
        kappa_flat = -(state.eta[:, l] @ ws.logit_flat)
        gamma = float(state.eta[:, l].sum())
        while True:
            current = _entry_loss(state.logits[l], kappa_flat, gamma, ws, eps, n_reg)
            live = np.nonzero(row_softmax(state.logits[l]).max(axis=0) > eps)[0]
            if live.size < 2:
                break
            best, best_loss = None, current
            for k in live:
                others = live[live != k]
                runner_up = others[state.logits[l][:, others].argmax(axis=1)]
                targets = [runner_up] + [np.full(state.n_items, j) for j in others[others < k]]
                for t in targets:
                    trial = _merged_logits(state.logits[l], k, t, eps)
                    trial_loss = _entry_loss(trial, kappa_flat, gamma, ws, eps, n_reg)
                    if trial_loss < best_loss:
                        best, best_loss = trial, trial_loss
            if best is None:
                break
            logits = state.logits.copy()
            logits[l] = best
            new_loss = _reg_loss_from_divergences(
                replace(state, logits=logits), view_divergences(logits, S))
            if not new_loss < loss:
                break
            state.logits, loss, kept = logits, new_loss, True
    return kept


def bound_rhs_reference(P, s_list, M: int, delta: float) -> float:
    """Literal transcription of the bound's right-hand side."""
    P = np.asarray(P, dtype=float)
    n = P.shape[0]
    kl_sum = 0.0
    for s in s_list:
        s = np.asarray(s, dtype=float)
        for i in range(1, n):
            for j in range(i):
                kl_sum += kl_bernoulli_reference(float(P[i, j]), float(s[i, j]))
    slack = math.log(math.exp(1.0 / (12.0 * M)) * math.sqrt(math.pi * M / 2.0) + 2.0)
    return (kl_sum / M + slack - math.log(delta)) / M


# Generating mixtures of the two structured views of consensus_views:
# (component means, component weights), unit-variance Gaussians.
CONSENSUS_VIEW_MIXTURES = (
    ((0.0, 2.0), (1.0 / 3.0, 2.0 / 3.0)),
    ((0.0, 1.0, 2.0), (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)),
)


def consensus_oracle_nmi(views, truth, n_groups: int = 3, seed=0) -> float:
    """NMI against truth of the oracle consensus of consensus_views.

    The oracle consensus is the mean of the oracle co-assignment matrices of
    views 1 and 2 under their generating mixtures; it is labelled by the
    same spectral rule that labels a fitted consensus matrix.
    """
    from mvsimplex.metrics import nmi
    from mvsimplex.postprocess import spectral_labels

    def gauss(mean):
        return lambda y: -0.5 * math.log(2.0 * math.pi) - 0.5 * (y[:, 0] - mean) ** 2

    mats = [
        oracle_coassignment(view, [gauss(m) for m in means], weights)
        for view, (means, weights) in zip(views, CONSENSUS_VIEW_MIXTURES)
    ]
    return nmi(spectral_labels(np.mean(mats, axis=0), n_groups, seed), truth)


def data_fit_loss(p_stars, s_matrices, eta) -> float:
    """Expected data-fit loss, the direct triple sum
    sum_{v,l} eta_vl sum_{j<i} kl(p*_ij^(l), s_ij^(v)), on dense (d, n, n)
    co-assignments and dense (V, n, n) similarities."""
    from mvsimplex.model import kl_bernoulli
    from mvsimplex.similarity import pair_indices

    p_stars = np.asarray(p_stars, dtype=float)
    if p_stars.ndim == 2:
        p_stars = p_stars[None, :, :]
    ii, jj = pair_indices(p_stars.shape[1])
    s_flat = np.asarray(s_matrices, dtype=float)[:, ii, jj]
    total = 0.0
    for l in range(p_stars.shape[0]):
        p_flat = p_stars[l, ii, jj]
        kl = kl_bernoulli(p_flat[None, :], s_flat).sum(axis=1)
        total += float(eta[:, l] @ kl)
    return total


def refactored_data_loss(logits, precomp) -> float:
    """Expected data-fit loss in kappa/gamma form (the constant
    -sum log(1 - s) dropped):
    sum_l sum_{j<i} kappa_ij p*_ij + gamma_l [p* logit(p*) + log(1 - p*)]."""
    from mvsimplex.model import _coassignment_flat, _entropy_part
    from mvsimplex.similarity import pair_indices

    ii, jj = pair_indices(logits.shape[1])
    pf = _coassignment_flat(logits, ii, jj)
    kappa_flat = full_kappa(precomp)[:, ii, jj]
    return float((kappa_flat * pf).sum() + precomp.gamma @ _entropy_part(pf))


def descent_objective(logits, precomp, epsilon: float, n_reg: float) -> float:
    """The quantity the M-step descends: refactored data loss plus the
    group penalties (the Dirichlet term is constant in the logits)."""
    from mvsimplex.model import group_regularizer, row_softmax

    W = row_softmax(logits)
    reg = sum(group_regularizer(W[l], epsilon) for l in range(W.shape[0]))
    return refactored_data_loss(logits, precomp) + n_reg * reg


def consensus_reference(p_hats, u):
    """The consensus average over a (V, n, n) stack: u-weighted when any
    u_v is nonzero, the plain mean otherwise."""
    stack = np.stack(p_hats)
    if u.sum() > 0.0:
        return (u[:, None, None] * stack).sum(axis=0) / u.sum()
    return stack.mean(axis=0)


def _gauss_logpdf(mean: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    def logpdf(y):
        diff = y - mean[None, :]
        return -np.log(2.0 * np.pi) - 0.5 * (diff * diff).sum(axis=1)
    return logpdf


def _shifted_exp_logpdf(rates: np.ndarray, shifts: np.ndarray, signs: np.ndarray):
    """Componentwise density of sign * Exp(rate) + shift."""
    def logpdf(y):
        t = (y - shifts[None, :]) * signs[None, :]
        ok = (t >= 0.0).all(axis=1)
        val = (np.log(rates)[None, :] - rates[None, :] * t).sum(axis=1)
        return np.where(ok, val, -np.inf)
    return logpdf


def _cauchy_logpdf(shift: float) -> Callable[[np.ndarray], np.ndarray]:
    def logpdf(y):
        t = y - shift
        return -(np.log(np.pi) + np.log1p(t * t)).sum(axis=1)
    return logpdf


def mixture_log_densities(setting: str):
    """(log_densities, weights) of a setting's generating mixture, for the
    oracle co-assignment matrix."""
    ones = np.ones(2)
    if setting == "a":
        comps = [_gauss_logpdf(np.zeros(2)), _gauss_logpdf(np.full(2, 10.0))]
    elif setting == "b":
        comps = [_gauss_logpdf(np.zeros(2)), _gauss_logpdf(np.full(2, 3.0))]
    elif setting == "c":
        comps = [_gauss_logpdf(np.zeros(2)), _gauss_logpdf(np.full(2, 2.0))]
    elif setting == "d":
        comps = [
            _shifted_exp_logpdf(ones, np.full(2, -4.0), ones),
            _shifted_exp_logpdf(ones, np.zeros(2), -ones),
        ]
    elif setting == "e":
        rates = np.array([1.0, 10.0])
        comps = [
            _shifted_exp_logpdf(rates, np.zeros(2), ones),
            _shifted_exp_logpdf(rates, np.array([2.0, 15.0]), ones),
        ]
    elif setting == "f":
        comps = [_cauchy_logpdf(0.0), _cauchy_logpdf(3.0)]
    else:
        raise ValueError(f"unknown setting {setting!r}")
    return comps, np.array([0.5, 0.5])


def oracle_coassignment(
    points: np.ndarray,
    log_densities: Sequence[Callable[[np.ndarray], np.ndarray]],
    weights: Sequence[float],
) -> np.ndarray:
    """Ground-truth co-assignment probabilities under a known mixture.

    p_ij = sum_k tau_k(y_i) tau_k(y_j) with tau_k the posterior component
    probability pi_k f_k(y) / sum_m pi_m f_m(y).  log_densities maps an
    (n, p) array to n per-item log densities; -inf marks points outside a
    component's support.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    weights = np.asarray(weights, dtype=float)
    if len(log_densities) != weights.size:
        raise ValueError("one weight per component required")
    if np.any(weights <= 0) or not np.isclose(weights.sum(), 1.0):
        raise ValueError("component weights must be positive and sum to 1")
    logpost = np.stack([np.log(w) + f(points) for w, f in zip(weights, log_densities)], axis=1)
    top = logpost.max(axis=1, keepdims=True)
    if not np.all(np.isfinite(top)):
        raise ValueError("a point has zero density under every component")
    tau = np.exp(logpost - top)
    tau /= tau.sum(axis=1, keepdims=True)
    return tau @ tau.T
