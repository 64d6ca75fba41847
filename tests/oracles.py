"""Independent reference implementations used only by the tests.

Everything here is written in the most literal way possible (plain loops,
dict counters, sympy-free closed forms) so that agreement with the library
is meaningful.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict

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


def reg_loss_reference(weights, lam, eta, s_matrices, epsilon, n_reg, alpha) -> float:
    """Triple-loop objective: data divergences + column penalty + mixture
    penalty.  weights is (d, n, g); s_matrices is (V, n, n)."""
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
        for k in range(g):
            ssq = 0.0
            for i in range(n):
                h = math.log(weights[l, i, k] / epsilon)
                if h > 0.0:
                    ssq += h * h
            total += n_reg * (math.sqrt(smoothing + ssq) - math.sqrt(smoothing))
    for l in range(d):
        total += (1.0 - alpha) * math.log(max(lam[l], 1e-12))
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


def expected_loss_gradient_reference(logits, precomp, epsilon, n_reg):
    """The descent gradient with the data term G W computed for every
    catalog entry, dead ones included.  The library skips the entries with
    zero gamma, which must not move a bit of the result."""
    from mvsimplex.model import _P_HI, _P_LO, GROUP_SMOOTHING, row_softmax

    W = row_softmax(logits)
    P = np.clip(W @ W.transpose(0, 2, 1), _P_LO, _P_HI)
    G = precomp.kappa + precomp.gamma[:, None, None] * (np.log(P) - np.log1p(-P))
    idx = np.arange(W.shape[1])
    G[:, idx, idx] = 0.0
    grad_w = G @ W
    h = np.maximum(0.0, np.log(W) - np.log(epsilon))
    col_norm = np.sqrt(GROUP_SMOOTHING + (h * h).sum(axis=1, keepdims=True))
    grad_w += n_reg * h / (W * col_norm)
    inner = (grad_w * W).sum(axis=2, keepdims=True)
    return W * (grad_w - inner)


def adam_descend_reference(logits, precomp, config, n_reg):
    """The M-step Adam loop in its textbook form, with fresh moment and
    bias-corrected arrays on every step.  The library updates in place in
    the same operation order, which must not move a bit of the result."""
    from mvsimplex import model

    x = logits.copy()
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    for t in range(1, config.m_iters + 1):
        grad = model.expected_loss_gradient(x, precomp, config.epsilon, n_reg)
        if not np.all(np.isfinite(grad)):
            raise model.FitDivergedError("non-finite gradient during descent")
        m = config.beta1 * m + (1.0 - config.beta1) * grad
        v = config.beta2 * v + (1.0 - config.beta2) * grad * grad
        m_hat = m / (1.0 - config.beta1 ** t)
        v_hat = v / (1.0 - config.beta2 ** t)
        x -= config.step_size * m_hat / (np.sqrt(v_hat) + config.adam_eps)
    return x


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
    from mvsimplex.metrics import nmi, oracle_coassignment
    from mvsimplex.postprocess import spectral_labels

    def gauss(mean):
        return lambda y: -0.5 * math.log(2.0 * math.pi) - 0.5 * (y[:, 0] - mean) ** 2

    mats = [
        oracle_coassignment(view.values, [gauss(m) for m in means], weights)
        for view, (means, weights) in zip(views, CONSENSUS_VIEW_MIXTURES)
    ]
    return nmi(spectral_labels(np.mean(mats, axis=0), n_groups, seed), truth)
