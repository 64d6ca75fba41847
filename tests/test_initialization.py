import tracemalloc

import numpy as np
import pytest

from mvsimplex.initialization import (
    init_assignment,
    initialize,
    kmeans_pp,
    pair_workspace,
)
from mvsimplex.metrics import nmi
from mvsimplex.model import ModelConfig, reg_loss
from mvsimplex.similarity import SimilarityTensor, pair_indices
from conftest import make_blobs, make_dense, make_tensor
from oracles import kmeans_pp_reference


def test_init_features_are_the_pair_log_odds():
    # init_assignment clusters these rows: per view, the log-odds of the
    # similarities in pair_indices order
    S = make_tensor(0, n_views=2, n=6)
    feats = pair_workspace(S).logit_flat
    ii, jj = pair_indices(6)
    s = make_dense(0, n_views=2, n=6)[:, ii, jj]
    np.testing.assert_allclose(feats, np.log(s) - np.log1p(-s), rtol=1e-12)
    assert feats.shape == (2, 15)


def test_kmeans_recovers_separated_blobs():
    pts, labels = make_blobs(1, n_per=25)
    assert nmi(kmeans_pp(pts, 2, seed=0), labels) == pytest.approx(1.0)


def test_kmeans_deterministic_given_seed():
    pts, _ = make_blobs(2, n_per=10)
    np.testing.assert_array_equal(kmeans_pp(pts, 3, seed=5), kmeans_pp(pts, 3, seed=5))


def test_kmeans_k_equals_n_gives_singletons():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(6, 2)) * 10
    labels = kmeans_pp(pts, 6, seed=0)
    assert labels.shape == (6,)
    assert np.unique(labels).size == 6


def test_kmeans_single_cluster():
    pts = np.arange(10.0)[:, None]
    assert np.all(kmeans_pp(pts, 1, seed=0) == 0)


def test_kmeans_duplicate_points_all_identical_seeding():
    # degenerate D^2 seeding: every point identical, and the cluster that
    # the ties leave empty is re-seeded, so both clusters keep a point
    labels = kmeans_pp(np.ones((8, 3)), 2, seed=0)
    assert np.bincount(labels, minlength=2).min() >= 1


@pytest.mark.parametrize("n_views", [None, 50, 64])
def test_kmeans_matches_whole_array_reference_bitwise(n_views):
    # None keeps the five-view tensor, where k = 5 gives every view its own
    # center; 50 and 64 views give Lloyd's steps points to move between centers
    feats = pair_workspace(make_tensor(12, n_views=n_views or 5, n=10)).logit_flat
    blobs, _ = make_blobs(13, n_per=15, centers=((0.0, 0.0, 0.0), (6.0, 6.0, 0.0), (0.0, 6.0, 6.0)))
    cases = [(feats, k, seed) for k in (1, 2, 3, 5) for seed in range(4)]
    cases += [(blobs, k, seed) for k in (1, 3, 7) for seed in range(3)]
    cases += [(np.asfortranarray(blobs), 3, 0), (np.ones((8, 3)), 2, 0)]
    for points, k, seed in cases:
        assert np.array_equal(kmeans_pp(points, k, seed), kmeans_pp_reference(points, k, seed))


def test_kmeans_memory_stays_below_the_points():
    # V = 200 views of n = 100 items: no temporary as large as the points
    rng = np.random.default_rng(0)
    points = np.asfortranarray(rng.normal(size=(200, 100 * 99 // 2)))
    tracemalloc.start()
    try:
        kmeans_pp(points, 5, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * points.nbytes


def test_kmeans_validation():
    pts = np.zeros((4, 2))
    with pytest.raises(ValueError):
        kmeans_pp(pts, 0, seed=0)
    with pytest.raises(ValueError):
        kmeans_pp(pts, 5, seed=0)


def test_init_assignment_groups_views_by_pattern():
    # views 0-2 see one blob layout, views 3-5 a different one
    pts_a, _ = make_blobs(4, n_per=12, centers=((0.0, 0.0), (9.0, 9.0)))
    pts_b, _ = make_blobs(5, n_per=12, centers=((0.0, 9.0), (9.0, 0.0)))
    rng = np.random.default_rng(6)
    views = []
    for v in range(6):
        base = pts_a if v < 3 else pts_b
        views.append(base + rng.normal(scale=0.05, size=base.shape))
    S = SimilarityTensor.from_views(views)
    labels = init_assignment(S, 2, seed=0)
    truth = np.array([0, 0, 0, 1, 1, 1])
    assert nmi(labels, truth) == pytest.approx(1.0)
    # initialize starts from one-hot rows of eta at its K-means labels and
    # a uniform lambda, which initialize keeps
    state = initialize(S, ModelConfig(d=2, g=2, seed=0), seed=0)
    assert nmi(state.init_assignment, truth) == pytest.approx(1.0)
    np.testing.assert_array_equal(state.eta, np.eye(2)[state.init_assignment])
    np.testing.assert_array_equal(state.lam, [0.5, 0.5])


def test_init_assignment_rejects_d_above_view_count():
    S = make_tensor(7, n_views=2, n=8)
    with pytest.raises(ValueError, match="exceeds the number of views"):
        init_assignment(S, 3, seed=0)


def test_initialize_state_shape_and_conventions():
    S = make_tensor(8, n_views=3, n=10)
    cfg = ModelConfig(d=2, g=3, seed=0)
    state = initialize(S, cfg, seed=0)
    assert state.logits.shape == (2, 10, 3)
    assert state.eta.shape == (3, 2)
    # eta stays the one-hot K-means assignment, lambda stays uniform
    assert set(np.unique(state.eta)) <= {0.0, 1.0}
    np.testing.assert_array_equal(state.lam, [0.5, 0.5])
    assert len(state.loss_history) == 1
    assert state.loss_history[0] == pytest.approx(reg_loss(state, S), rel=1e-12)


def test_initialize_is_deterministic():
    S1 = make_tensor(9, n_views=2, n=9)
    S2 = make_tensor(9, n_views=2, n=9)
    cfg = ModelConfig(d=2, g=2, seed=0)
    a = initialize(S1, cfg, seed=3)
    b = initialize(S2, cfg, seed=3)
    np.testing.assert_array_equal(a.logits, b.logits)
    np.testing.assert_array_equal(a.eta, b.eta)
