"""Point estimates from a fitted state: per-view parameterizations, cluster
labels, co-assignment matrices, and the consensus across structured views."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .initialization import kmeans_pp
from .model import FitState, coassignment_matrix


def param_assignments(eta: np.ndarray) -> np.ndarray:
    """Most probable parameterization per view (ties to the lowest index)."""
    return eta.argmax(axis=1)


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


def effective_counts(state: FitState) -> tuple[int, np.ndarray]:
    """(d_hat, g_hat per view): the number of distinct fitted
    parameterizations and each view's distinct pointwise label count."""
    x_hat = param_assignments(state.eta)
    d_hat = int(np.unique(x_hat).size)
    weights = state.weights
    g_hats = np.array([np.unique(pointwise_labels(weights[x])).size for x in x_hat])
    return d_hat, g_hats


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
class ViewEstimate:
    """Per-view point estimates."""

    view: int                    # 0-based view index
    x_hat: int                   # fitted parameterization index
    g_hat: int                   # distinct pointwise label count
    labels_pointwise: np.ndarray
    labels_joint: np.ndarray     # spectral labels on p_hat with g_hat groups
    p_hat: np.ndarray


def view_estimates(state: FitState, seed=0) -> list[ViewEstimate]:
    """Point estimates for every view.

    Views sharing a parameterization share the same p_hat and labels; the
    spectral K-means seed is derived per parameterization, so equal inputs
    give equal outputs.
    """
    x_hat = param_assignments(state.eta)
    weights = state.weights
    children = np.random.SeedSequence(seed).spawn(weights.shape[0])
    per_param: dict[int, tuple] = {}
    out = []
    for v, x in enumerate(x_hat):
        x = int(x)
        if x not in per_param:
            w = weights[x]
            p_hat = coassignment_matrix(w)
            pointwise = pointwise_labels(w)
            g_hat = int(np.unique(pointwise).size)
            joint = spectral_labels(p_hat, g_hat, children[x])
            per_param[x] = (p_hat, pointwise, g_hat, joint)
        p_hat, pointwise, g_hat, joint = per_param[x]
        out.append(ViewEstimate(view=v, x_hat=x, g_hat=g_hat,
                                labels_pointwise=pointwise.copy(),
                                labels_joint=joint.copy(), p_hat=p_hat))
    return out


@dataclass
class ConsensusResult:
    matrix: np.ndarray
    weights: np.ndarray          # (V,) 0/1 structure indicators
    plain_average: bool          # True when no view had structure


def structure_cluster_count(weights: np.ndarray, epsilon: float) -> int:
    """Distinct pointwise labels after zeroing fully shrunk columns."""
    return int(np.unique(pointwise_labels(weights, epsilon)).size)


def consensus_matrix(state: FitState, estimates: list[ViewEstimate]) -> ConsensusResult:
    """Structure-weighted average of the per-view co-assignment matrices.

    A view counts only if its parameterization clusters the items into more
    than one group (all-in-one-column W matrices carry no structure).  If no
    view counts, the plain average is returned and flagged.  Each view's
    weighted p_hat is added in view order into one (n, n) accumulator.
    """
    eps = state.config.epsilon
    w3 = state.weights
    u = np.array([1.0 if structure_cluster_count(w3[est.x_hat], eps) > 1 else 0.0
                  for est in estimates])
    plain = not u.any()
    weights = np.ones_like(u) if plain else u
    matrix = np.zeros_like(estimates[0].p_hat)
    for w, est in zip(weights, estimates):
        matrix += w * est.p_hat
    matrix /= weights.sum()
    return ConsensusResult(matrix=matrix, weights=u, plain_average=plain)
