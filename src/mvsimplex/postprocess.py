"""Point estimates from a fitted state: each view's catalog entry, each
fitted entry's cluster labels and co-assignment matrix, and the consensus
across structured views."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .initialization import kmeans_pp
from .model import FitState, coassignment_matrix


def pointwise_labels(weights: np.ndarray, epsilon: float | None = None) -> np.ndarray:
    """Row-wise argmax labels of one W (ties to the lowest column).

    With epsilon given, columns whose entries all sit at or below epsilon are
    zeroed first, so fully shrunk columns can never label an item.
    """
    w = np.asarray(weights, dtype=float)
    if epsilon is not None:
        w = w.copy()
        w[:, w.max(axis=0) <= epsilon] = 0.0
    return w.argmax(axis=1)


def spectral_labels(P: np.ndarray, g: int, seed) -> np.ndarray:
    """Cluster labels from the degree-normalized affinity D^-1/2 P D^-1/2.

    The top g eigenvectors (descending eigenvalue, each sign-fixed so its
    largest-magnitude component is positive) are row-normalized and grouped
    by K-means++.  g = 1 short-circuits to a single cluster; zero-degree
    items become their own singleton clusters after the rest are labeled.
    """
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError(f"P must be square, got shape {P.shape}")
    n = P.shape[0]
    if g < 1:
        raise ValueError(f"g must be >= 1, got {g}")
    labels = np.zeros(n, dtype=int)
    if g == 1:
        return labels
    deg = P.sum(axis=1)
    core = np.nonzero(deg > 0.0)[0]
    isolated = np.nonzero(deg <= 0.0)[0]
    g_core = min(g, core.size)
    if core.size > 0:
        inv_root = 1.0 / np.sqrt(deg[core])
        A = P[np.ix_(core, core)] * inv_root[:, None] * inv_root[None, :]
        A = (A + A.T) / 2.0
        eigvals, eigvecs = np.linalg.eigh(A)
        U = eigvecs[:, ::-1][:, :g_core].copy()
        for k in range(U.shape[1]):
            col = U[:, k]
            if col[np.abs(col).argmax()] < 0.0:
                U[:, k] = -col
        norms = np.linalg.norm(U, axis=1)
        U[norms > 0.0] /= norms[norms > 0.0, None]
        labels[core] = kmeans_pp(U, g_core, seed).labels
    labels[isolated] = g_core + np.arange(isolated.size)
    return labels


@dataclass
class EntryEstimate:
    """Point estimates of one fitted catalog entry, shared by every view
    whose x_hat is that entry."""

    p_hat: np.ndarray
    g_hat: int                   # distinct pointwise label count
    labels_pointwise: np.ndarray
    labels_joint: np.ndarray     # spectral labels on p_hat with g_hat groups
    structured: bool             # > 1 pointwise label once columns <= epsilon are zeroed


def view_estimates(state: FitState, seed=0) -> tuple[np.ndarray, dict[int, EntryEstimate]]:
    """(x_hat, estimates): each view's most probable entry (ties to the
    lowest index) and, in ascending entry order, one EntryEstimate for
    every entry in x_hat.

    Entry x's spectral K-means seed is SeedSequence(seed).spawn(d)[x].
    """
    x_hat = state.eta.argmax(axis=1)
    weights = state.weights
    eps = state.config.epsilon
    children = np.random.SeedSequence(seed).spawn(weights.shape[0])
    estimates = {}
    for x in np.unique(x_hat).tolist():
        w = weights[x]
        p_hat = coassignment_matrix(w)
        pointwise = pointwise_labels(w)
        g_hat = int(np.unique(pointwise).size)
        estimates[x] = EntryEstimate(
            p_hat=p_hat, g_hat=g_hat, labels_pointwise=pointwise,
            labels_joint=spectral_labels(p_hat, g_hat, children[x]),
            structured=np.unique(pointwise_labels(w, eps)).size > 1)
    return x_hat, estimates


@dataclass
class ConsensusResult:
    matrix: np.ndarray
    weights: np.ndarray          # (V,) 0/1 structure indicators
    plain_average: bool          # True when no view had structure


def consensus_matrix(x_hat: np.ndarray, estimates: dict[int, EntryEstimate]) -> ConsensusResult:
    """Structure-weighted average of the per-view co-assignment matrices,
    view v contributing the p_hat of its entry x_hat[v].

    A view counts only if its entry is structured (all-in-one-column W
    matrices carry no structure).  If no view counts, the plain average is
    returned and flagged.  Each view's weighted p_hat is added in view
    order into one (n, n) accumulator.
    """
    views = [estimates[x] for x in x_hat]
    u = np.array([est.structured for est in views], dtype=float)
    plain = not u.any()
    weights = np.ones_like(u) if plain else u
    matrix = np.zeros_like(views[0].p_hat)
    for w, est in zip(weights, views):
        matrix += w * est.p_hat
    matrix /= weights.sum()
    return ConsensusResult(matrix=matrix, weights=u, plain_average=plain)
