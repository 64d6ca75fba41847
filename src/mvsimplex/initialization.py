"""Initialization: K-means on log-odds similarity features.

Views are vectorized into the strictly-lower-triangular log-odds of their
similarity matrices, grouped by K-means (K = d) with K-means++ seeding, and
each group's weight matrix is pre-fit with one M step while lambda stays
uniform.
"""

from __future__ import annotations

import numpy as np

from .model import (
    INIT_NOISE,
    FitState,
    ModelConfig,
    m_step,
    pair_workspace,
    precompute_kappa_gamma,
    reg_loss,
)
from .similarity import SimilarityTensor

KMEANS_MAX_ITERS = 100
KMEANS_REL_TOL = 1e-6


def _sq_dists_to(points: np.ndarray, sq_norms: np.ndarray, idx: int) -> np.ndarray:
    """Squared distances from every point to point idx, in the
    |x|^2 - 2 x.c + |c|^2 form of Lloyd's loop, clamped at 0."""
    d2 = sq_norms - 2.0 * (points @ points[idx]) + sq_norms[idx]
    return np.maximum(d2, 0.0, out=d2)


def kmeans_pp(points: np.ndarray, k: int, seed) -> np.ndarray:
    """(m,) cluster labels of the points by Lloyd's algorithm with greedy
    K-means++ seeding.

    Each seeding step samples 2 + floor(log k) candidates from the
    squared-distance distribution and keeps the one with the lowest
    resulting potential.  Deterministic given the seed.  Ties in
    assignment go to the lowest center index; a cluster that empties is
    re-seeded at the point farthest from its assigned center.

    Row norms come from one einsum and cluster means from one one-hot
    (k, m) @ points product divided by the counts, so no temporary as
    large as points is made.
    """
    points = np.asarray(points, dtype=float)
    m = points.shape[0]
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > m:
        raise ValueError(f"k = {k} exceeds the number of points ({m})")
    rng = np.random.default_rng(seed)
    n_trials = 2 + int(np.log(k))

    sq_norms = np.einsum("ij,ij->i", points, points)
    chosen = [int(rng.integers(m))]
    min_d2 = _sq_dists_to(points, sq_norms, chosen[0])
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
            cand_min = np.minimum(min_d2, _sq_dists_to(points, sq_norms, int(idx)))
            pot = cand_min.sum()
            if pot < best_pot:
                best_pot, best_idx, best_min = pot, int(idx), cand_min
        chosen.append(best_idx)
        min_d2 = best_min
    centers = points[chosen].copy()

    prev_obj = np.inf
    for _ in range(KMEANS_MAX_ITERS):
        d2 = sq_norms[:, None] - 2.0 * (points @ centers.T) + (centers * centers).sum(axis=1)[None, :]
        np.maximum(d2, 0.0, out=d2)
        labels = d2.argmin(axis=1)
        assign_d2 = d2[np.arange(m), labels]
        for empty in np.nonzero(np.bincount(labels, minlength=k) == 0)[0]:
            far = int(assign_d2.argmax())
            centers[empty] = points[far]
            labels[far] = empty
            assign_d2[far] = 0.0
        obj = float(assign_d2.sum())
        one_hot = (labels == np.arange(k)[:, None]).astype(float)
        counts = one_hot.sum(axis=1)
        filled = counts > 0.0
        centers[filled] = (one_hot @ points)[filled] / counts[filled, None]
        if prev_obj - obj <= KMEANS_REL_TOL * max(abs(prev_obj), 1.0):
            break
        prev_obj = obj
    return labels


def init_assignment(S: SimilarityTensor, d: int, seed) -> np.ndarray:
    """(V,) K-means labels of the views' log-odds rows, d groups."""
    if d > S.n_views:
        raise ValueError(f"d = {d} exceeds the number of views ({S.n_views})")
    return kmeans_pp(pair_workspace(S).logit_flat, d, seed)


def initialize(S: SimilarityTensor, config: ModelConfig, seed) -> FitState:
    """Initial FitState: one-hot eta from K-means, uniform lambda, logits at
    small uniform noise refined by one lambda-preserving M step."""
    rng = np.random.default_rng(seed)
    labels = init_assignment(S, config.d, rng)
    logits = rng.uniform(-INIT_NOISE, INIT_NOISE, size=(config.d, S.n_items, config.g))
    state = FitState(config=config, logits=logits, lam=np.full(config.d, 1.0 / config.d),
                     eta=np.eye(config.d)[labels], init_assignment=labels)
    precomp = precompute_kappa_gamma(S, state.eta)
    state.logits, state.lam = m_step(state, precomp, config.reg_multiplier(S.n_items),
                                     update_lambda=False)
    state.loss_history = [reg_loss(state, S)]
    return state
