import numpy as np
import pytest

from mvsimplex.model import ModelConfig, fit
from mvsimplex.similarity import SimilarityTensor, similarity_matrix


def make_views(seed: int, n_views: int = 3, n: int = 15, p: int = 2) -> list[np.ndarray]:
    """Random-data views for algebra tests."""
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(n, p)) for _ in range(n_views)]


def make_tensor(seed: int, n_views: int = 3, n: int = 15, p: int = 2) -> SimilarityTensor:
    """Similarity tensor of make_views(seed, n_views, n, p)."""
    return SimilarityTensor.from_views(make_views(seed, n_views, n, p))


def make_dense(seed: int, n_views: int = 3, n: int = 15, p: int = 2) -> np.ndarray:
    """Dense (V, n, n) similarities of the same views as make_tensor."""
    return np.stack([similarity_matrix(v) for v in make_views(seed, n_views, n, p)])


def make_blobs(seed: int, n_per: int = 20, centers=((0.0, 0.0), (8.0, 8.0))):
    """Well-separated Gaussian blobs with labels."""
    rng = np.random.default_rng(seed)
    pts = []
    labels = []
    for k, c in enumerate(centers):
        pts.append(rng.normal(size=(n_per, len(c))) + np.asarray(c))
        labels.extend([k] * n_per)
    return np.vstack(pts), np.array(labels)


@pytest.fixture(scope="session")
def two_blob_fit():
    """One shared small fit on clean 2-cluster data (d=1, g=2)."""
    pts, labels = make_blobs(0)
    S = SimilarityTensor.from_views([pts])
    state = fit(S, ModelConfig(d=1, g=2, seed=0))
    return S, state, labels
