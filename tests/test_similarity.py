import tracemalloc

import numpy as np
import pytest

from mvsimplex.model import precompute_kappa_gamma, view_divergences
from mvsimplex.similarity import (
    CLAMP,
    SimilarityTensor,
    local_bandwidths,
    pair_indices,
    pairwise_distances,
    similarity_matrix,
)
from oracles import local_bandwidths_reference, similarity_reference


def test_distance_345_triangle():
    view = np.array([[0.0, 0.0], [3.0, 4.0]])
    dist = pairwise_distances(view)
    assert dist[0, 1] == dist[1, 0] == 5.0
    assert dist[0, 0] == dist[1, 1] == 0.0


def test_distance_1d_absolute_difference():
    view = np.array([[1.0], [-2.0]])
    assert pairwise_distances(view)[0, 1] == 3.0


def test_distance_has_the_bits_of_pdist():
    # scipy is a test-only dependency; pdist adds the coordinates in order
    from scipy.spatial.distance import pdist, squareform

    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(2, 81))
        p = int(rng.integers(1, 301))
        scale = 10.0 ** rng.uniform(-3, 3)
        offset = rng.uniform(-1e4, 1e4)
        y = offset + scale * rng.standard_normal((n, p))
        dist = pairwise_distances(y)
        assert np.array_equal(dist, squareform(pdist(y)))
        assert np.array_equal(dist, dist.T)
        assert not np.diag(dist).any()


def test_identical_rows_zero_distance():
    view = np.array([[2.0, 2.0], [2.0, 2.0], [0.0, 1.0]])
    assert pairwise_distances(view)[0, 1] == 0.0


def test_distance_rejects_nonfinite_with_location():
    # the distance names the row, and from_views adds the view's position
    rng = np.random.default_rng(0)
    views = [rng.normal(size=(4, 2)) for _ in range(7)]
    views[6][2, 1] = np.nan
    with pytest.raises(ValueError, match="^non-finite value in row 2$"):
        pairwise_distances(views[6])
    with pytest.raises(ValueError, match="^view 7: non-finite value in row 2$"):
        SimilarityTensor.from_views(views)


def test_bandwidth_median_of_four():
    # row distances {1,2,3,4} at q=0.5 -> 2.5 by linear interpolation
    dist = np.array([
        [0.0, 1.0, 2.0, 3.0, 4.0],
        [1.0, 0.0, 1.0, 1.0, 1.0],
        [2.0, 1.0, 0.0, 1.0, 1.0],
        [3.0, 1.0, 1.0, 0.0, 1.0],
        [4.0, 1.0, 1.0, 1.0, 0.0],
    ])
    sigma = local_bandwidths(dist, q=0.5)
    assert sigma[0] == 2.5


@pytest.mark.parametrize("n", [2, 3, 11, 150])
def test_bandwidth_has_the_bits_of_np_quantile(n):
    # continuous data, and points on a small grid for tied and zero
    # distances; q = 0.5 puts the interpolation weight on 0.5 for odd n
    rng = np.random.default_rng(n)
    qs = (0.01, 0.1, 0.25, 0.3, 0.5, 0.75, 0.9, 0.99, float(rng.uniform()))
    for trial in range(12):
        if trial % 2:
            y = rng.integers(0, 3, size=(n, 2)).astype(float)
        else:
            y = rng.normal(size=(n, 3))
        dist = pairwise_distances(y)
        for q in qs:
            if (dist.max(axis=1) == 0.0).any():
                with pytest.raises(ValueError, match="all off-diagonal distances are zero"):
                    local_bandwidths(dist, q)
            else:
                assert np.array_equal(local_bandwidths(dist, q), local_bandwidths_reference(dist, q))


def test_bandwidth_ignores_the_diagonal():
    # the diagonal sorts below every distance whatever it holds, and the
    # caller's matrix is left as it was
    rng = np.random.default_rng(7)
    for n in (2, 3, 12):
        dist = pairwise_distances(rng.normal(size=(n, 2)))
        for q in (0.1, 0.5, 0.9):
            want = local_bandwidths(dist, q)
            for diag in (5.0, dist.max() / 2, -1.0):
                marked = dist.copy()
                np.fill_diagonal(marked, diag)
                assert np.array_equal(local_bandwidths(marked, q), want)
                assert np.all(np.diag(marked) == diag)


def test_bandwidth_constant_rows_any_quantile():
    dist = np.full((6, 6), 3.7)
    np.fill_diagonal(dist, 0.0)
    for q in (0.05, 0.33, 0.9):
        assert np.all(local_bandwidths(dist, q) == 3.7)


def test_bandwidth_zero_quantile_falls_back_to_smallest_positive():
    # three coincident points and one at 5: row 0 off-diagonals are {0,0,5}
    view = np.array([[0.0], [0.0], [0.0], [5.0]])
    dist = pairwise_distances(view)
    sigma = local_bandwidths(dist, q=0.1)
    assert sigma[0] == 5.0


def test_bandwidth_all_zero_row_rejected():
    view = np.zeros((3, 2))
    with pytest.raises(ValueError, match="row 0"):
        local_bandwidths(pairwise_distances(view))


def test_similarity_error_names_the_view():
    # an all-zero view fails in its bandwidths; from_views names it by
    # its 1-based position
    rng = np.random.default_rng(1)
    views = [rng.normal(size=(3, 2)) for _ in range(5)]
    views[3] = np.zeros((3, 2))
    with pytest.raises(ValueError, match="^row 0: all off-diagonal"):
        similarity_matrix(views[3])
    with pytest.raises(ValueError, match="^view 4: row 0: all off-diagonal"):
        SimilarityTensor.from_views(views)


def test_bandwidth_quantile_domain():
    dist = pairwise_distances(np.arange(4.0)[:, None])
    for q in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError):
            local_bandwidths(dist, q)


def test_similarity_exact_symmetry_and_diagonal():
    rng = np.random.default_rng(3)
    s = similarity_matrix(rng.normal(size=(40, 3)))
    assert np.array_equal(s, s.T)
    assert np.all(np.diag(s) == CLAMP[1])
    off = s[~np.eye(40, dtype=bool)]
    assert off.min() >= CLAMP[0] and off.max() <= CLAMP[1]
    logit = np.log(s / (1.0 - s))
    assert np.all(np.isfinite(logit))


def test_similarity_unit_distance_gives_exp_minus_one():
    # two points at distance 1: each row has a single off-diagonal
    # distance, so both bandwidths are 1 regardless of the quantile
    view = np.array([[0.0], [1.0]])
    s = similarity_matrix(view, q=0.5)
    assert s[0, 1] == pytest.approx(np.exp(-1.0), rel=1e-12)


def test_similarity_matches_scalar_reference():
    rng = np.random.default_rng(11)
    # p = 9 is wide enough for the order of the per-coordinate additions
    # in a distance to matter
    for p in (2, 9):
        pts = rng.normal(size=(12, p))
        expected = np.clip(similarity_reference(pts, 0.1), *CLAMP)
        np.fill_diagonal(expected, CLAMP[1])
        got = similarity_matrix(pts)
        np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_similarity_three_point_hand_case():
    got = similarity_matrix(np.array([[0.0], [0.1], [10.0]]), q=0.5)
    expected = np.clip(similarity_reference(np.array([[0.0], [0.1], [10.0]]), 0.5), *CLAMP)
    np.fill_diagonal(expected, CLAMP[1])
    np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_similarity_rigid_motion_invariance():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(25, 2))
    theta = 0.73
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    moved = pts @ rot.T + np.array([4.0, -7.0])
    s1 = similarity_matrix(pts)
    s2 = similarity_matrix(moved)
    np.testing.assert_allclose(s1, s2, atol=1e-12)


def test_similarity_global_scale_invariance():
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(20, 3))
    s1 = similarity_matrix(pts)
    s2 = similarity_matrix(pts * 37.0)
    np.testing.assert_allclose(s1, s2, rtol=1e-10)


def test_from_views_promotes_1d_and_rejects_3d():
    # a 1-d view is one column: its tensor is that of the (n, 1) array,
    # given as a list or as an array
    y = np.random.default_rng(2).normal(size=6)
    want = SimilarityTensor.from_views([y[:, None], y[:, None]])
    for view in (y, y.tolist()):
        got = SimilarityTensor.from_views([y[:, None], view])
        assert np.array_equal(got.logit, want.logit)
        assert np.array_equal(got.log1m_sum, want.log1m_sum)
    with pytest.raises(ValueError, match=r"^view 2: values must be 2-d, got shape \(6, 2, 2\)"):
        SimilarityTensor.from_views([y, np.zeros((6, 2, 2))])
    with pytest.raises(ValueError, match=r"^view 1: values must be 2-d, got shape \(\)"):
        SimilarityTensor.from_views([1.0, y])


def test_tensor_from_views_checks_item_counts():
    a = np.arange(4.0)
    b = np.arange(5.0)
    with pytest.raises(ValueError, match="^view 2: 5 items where view 1 has 4$"):
        SimilarityTensor.from_views([a, b])
    with pytest.raises(ValueError, match="no views given"):
        SimilarityTensor.from_views([])


def test_tensor_build_memory_stays_condensed():
    # V = 200 views of n = 100 items: the (V, n(n-1)/2) log-odds and one
    # view's pairs fit the bound; a second array of their size does not
    rng = np.random.default_rng(0)
    n_views, n = 200, 100
    views = [rng.normal(size=(n, 2)) for _ in range(n_views)]
    tracemalloc.start()
    try:
        S = SimilarityTensor.from_views(views)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    npairs = n * (n - 1) // 2
    assert S.logit.shape == (n_views, npairs) and S.log1m_sum.shape == (n_views,)
    assert S.n_views == n_views and S.n_items == n
    assert peak < 1.25 * n_views * npairs * 8


def test_view_axis_products_copy_no_log_odds():
    # the log-odds are one C-order row per view, and the E step and the
    # kappa product read them in place: neither makes a temporary of a
    # quarter of their size
    rng = np.random.default_rng(1)
    n_views, n, d = 200, 100, 5
    S = SimilarityTensor.from_views([rng.normal(size=(n, 2)) for _ in range(n_views)])
    assert S.logit.flags.c_contiguous
    logits = rng.normal(size=(d, n, 3))
    eta = rng.dirichlet(np.ones(d), size=n_views)
    for call in (lambda: view_divergences(logits, S), lambda: precompute_kappa_gamma(S, eta)):
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < S.logit.nbytes / 4


@pytest.mark.parametrize("n_views", [1, 2, 4])
@pytest.mark.parametrize("n", [2, 3, 5, 6, 7, 11])
def test_tensor_build_is_bitwise_the_whole_array_formulas(n_views, n):
    # row k of logit and log1m_sum[k] are view k's log-odds and its sum of
    # log(1 - s) over the pairs, as the whole-array formulas give them
    views = [np.random.default_rng(v).normal(size=(n, 2)) for v in range(n_views)]
    S = SimilarityTensor.from_views(views)
    ii, jj = pair_indices(n)
    s = np.stack([similarity_matrix(v)[ii, jj] for v in views])
    assert np.array_equal(S.log1m_sum, [np.log1p(-s[k]).sum() for k in range(n_views)])
    assert np.array_equal(S.logit, np.log(s) - np.log1p(-s))
    assert S.logit.flags.c_contiguous


def test_tensor_build_is_bitwise_at_full_block_size():
    # larger views: 60 views of 80 items (3160 pairs each) and one view of
    # 600 items (179,700 pairs)
    for n_views, n in ((60, 80), (1, 600)):
        views = [np.random.default_rng(v).normal(size=(n, 2)) for v in range(n_views)]
        ii, jj = pair_indices(n)
        s = np.stack([similarity_matrix(v)[ii, jj] for v in views])
        S = SimilarityTensor.from_views(views)
        assert np.array_equal(S.log1m_sum, [np.log1p(-s[k]).sum() for k in range(n_views)])
        assert np.array_equal(S.logit, np.log(s) - np.log1p(-s))
