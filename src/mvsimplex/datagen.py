"""Synthetic data generators and the variable screening rule."""

from __future__ import annotations

import numpy as np

SINGLE_VIEW_SETTINGS = ("a", "b", "c", "d", "e", "f")


def _two_gaussians(rng, n, z, shift):
    y = rng.standard_normal((n, 2))
    y[z == 1] += shift
    return y


def single_view(setting: str, n: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """One two-component 2-d mixture view, an (n, 2) array, plus its item
    labels.

    Settings: (a), (b), (c) unit Gaussians centered at (0,0) against
    (10,10), (3,3), (2,2); (d) componentwise Exp(1)-4 against -Exp(1);
    (e) [Exp(1), Exp(rate 10)] against the same shifted by (2, 15);
    (f) independent standard Cauchy components against a (3,3) shift.
    Labels are iid fair coin flips.
    """
    if setting not in SINGLE_VIEW_SETTINGS:
        raise ValueError(f"unknown setting {setting!r}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    rng = np.random.default_rng(seed)
    z = rng.integers(0, 2, size=n)
    if setting == "a":
        y = _two_gaussians(rng, n, z, np.array([10.0, 10.0]))
    elif setting == "b":
        y = _two_gaussians(rng, n, z, np.array([3.0, 3.0]))
    elif setting == "c":
        y = _two_gaussians(rng, n, z, np.array([2.0, 2.0]))
    elif setting == "d":
        y = rng.exponential(1.0, size=(n, 2))
        y[z == 0] -= 4.0
        y[z == 1] *= -1.0
    elif setting == "e":
        y = np.column_stack([rng.exponential(1.0, size=n), rng.exponential(0.1, size=n)])
        y[z == 1] += np.array([2.0, 15.0])
    else:
        y = rng.standard_cauchy(size=(n, 2))
        y[z == 1] += 3.0
    return y, z


DEFAULT_PATTERN_MEANS = np.array([[0.0, 0.0], [2.0, 2.0], [-2.0, -2.0]])


def multi_view(
    n: int,
    v: int,
    d0: int = 5,
    g0: int = 3,
    dirichlet_alpha: float = 0.5,
    means: np.ndarray | None = None,
    seed=0,
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """V two-dimensional views sharing d0 clustering patterns.

    Each pattern is an n x g0 matrix of Dirichlet(dirichlet_alpha) rows;
    views pick a pattern uniformly, draw per-item labels from the pattern's
    rows, and emit unit Gaussians at the label's mean.  Returns
    (views, each an (n, 2) array, pattern index per view, labels (V, n)).
    """
    if means is None:
        if g0 != 3:
            raise ValueError(
                f"only g0 = 3 has default means; means must be given for g0 = {g0}")
        means = DEFAULT_PATTERN_MEANS
    means = np.asarray(means, dtype=float)
    if means.shape != (g0, 2):
        raise ValueError(f"means must have shape ({g0}, 2), got {means.shape}")
    rng = np.random.default_rng(seed)
    patterns = rng.dirichlet(np.full(g0, dirichlet_alpha), size=(d0, n))
    x0 = rng.integers(0, d0, size=v)
    labels = np.empty((v, n), dtype=int)
    views = []
    for view in range(v):
        cum = patterns[x0[view]].cumsum(axis=1)
        lab = (rng.random(n)[:, None] > cum).sum(axis=1)
        labels[view] = lab
        views.append(means[lab] + rng.standard_normal((n, 2)))
    return views, x0, labels


def consensus_views(n: int, seed=0) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Ten 1-d views over one shared 3-group truth.

    View 1 sees unit Gaussians at (0, 2, 2), so it carries two clusters;
    view 2 sees (0, 1, 2), three clusters one noise sd apart that overlap
    heavily (Bayes labels from view 2 alone reach NMI 0.24 against z at
    n=200, seed 0); views 3-10 are pure N(0, 1) noise.  Returns (views,
    each an (n, 1) array, per-view truth labels (10, n), structure flags).
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    rng = np.random.default_rng(seed)
    z = rng.integers(0, 3, size=n)
    means1 = np.array([0.0, 2.0, 2.0])
    means2 = np.array([0.0, 1.0, 2.0])
    views = [means1[z] + rng.standard_normal(n), means2[z] + rng.standard_normal(n)]
    views += [rng.standard_normal(n) for _ in range(8)]
    views = [y[:, None] for y in views]
    labels = np.zeros((10, n), dtype=int)
    labels[0] = (z > 0).astype(int)
    labels[1] = z
    structured = np.array([True, True] + [False] * 8)
    return views, labels, structured


def screen_columns(data: np.ndarray, top_v: int) -> np.ndarray:
    """Indices of the top_v columns by sd / median, descending.

    Columns with a zero median rank last; ties keep the original column
    order.  top_v is truncated to the column count.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ValueError(f"data must be 2-d, got shape {data.shape}")
    if top_v < 1:
        raise ValueError(f"top_v must be >= 1, got {top_v}")
    sd = data.std(axis=0, ddof=1) if data.shape[0] > 1 else np.zeros(data.shape[1])
    med = np.median(data, axis=0)
    nonzero = np.nonzero(med != 0.0)[0]
    zero = np.nonzero(med == 0.0)[0]
    ratio = sd[nonzero] / med[nonzero]
    ranked = nonzero[np.argsort(-ratio, kind="stable")]
    order = np.concatenate([ranked, zero]).astype(int)
    return order[: min(top_v, data.shape[1])]
