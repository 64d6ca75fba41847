"""Synthetic generators: label laws, component supports, screening rule."""

import numpy as np
import pytest

from mvsimplex.datagen import (
    DEFAULT_PATTERN_MEANS,
    SINGLE_VIEW_SETTINGS,
    consensus_views,
    multi_view,
    screen_columns,
    single_view,
)
from mvsimplex.similarity import SimilarityTensor
from oracles import mixture_log_densities


class TestSingleView:
    @pytest.mark.parametrize("setting", SINGLE_VIEW_SETTINGS)
    def test_shapes_and_labels(self, setting):
        view, z = single_view(setting, 50, seed=1)
        assert isinstance(view, np.ndarray) and view.dtype == float
        assert view.shape == (50, 2)
        assert z.shape == (50,)
        assert set(np.unique(z)) <= {0, 1}

    def test_deterministic(self):
        v1, z1 = single_view("b", 30, seed=9)
        v2, z2 = single_view("b", 30, seed=9)
        np.testing.assert_array_equal(v1, v2)
        np.testing.assert_array_equal(z1, z2)

    def test_labels_roughly_balanced(self):
        _, z = single_view("a", 4000, seed=0)
        assert 0.45 < z.mean() < 0.55

    def test_gaussian_separation_orders_settings(self):
        # cluster-mean gaps shrink from (a) to (c)
        gaps = []
        for setting in ("a", "b", "c"):
            view, z = single_view(setting, 2000, seed=3)
            gaps.append(np.linalg.norm(
                view[z == 1].mean(axis=0) - view[z == 0].mean(axis=0)))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_setting_d_supports(self):
        y, z = single_view("d", 3000, seed=5)
        assert (y[z == 0] >= -4.0).all()       # Exp(1) - 4 componentwise
        assert (y[z == 1] <= 0.0).all()        # -Exp(1) componentwise
        assert y[z == 0].max() > 0.0           # exponential tail crosses zero

    def test_setting_e_supports(self):
        y, z = single_view("e", 3000, seed=6)
        assert (y[z == 0] >= 0.0).all()
        assert (y[z == 1, 0] >= 2.0).all()
        assert (y[z == 1, 1] >= 15.0).all()
        # second coordinate is the fast-decaying exponential
        assert y[z == 0, 1].mean() < y[z == 0, 0].mean()

    def test_setting_f_heavy_tails(self):
        view, _ = single_view("f", 3000, seed=7)
        spread = np.abs(view).max()
        assert spread > 50.0                   # Cauchy draws produce far outliers

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown setting"):
            single_view("q", 10, seed=0)
        with pytest.raises(ValueError, match="n must be"):
            single_view("a", 1, seed=0)


class TestMixtureLogDensities:
    @pytest.mark.parametrize("setting", SINGLE_VIEW_SETTINGS)
    def test_density_integrates_to_one_on_grid(self, setting):
        # crude 2-d Riemann check over a wide box; Cauchy mass leaks a bit,
        # and (e) needs a fine grid for its rate-10 coordinate
        comps, weights = mixture_log_densities(setting)
        if setting == "e":
            lo, hi, step, tol = -0.5, 30.0, 0.01, 0.03
        else:
            lo, hi, step, tol = -40.0, 40.0, 0.08, 0.05 if setting == "f" else 0.01
        ax = np.arange(lo, hi, step) + step / 2
        xx, yy = np.meshgrid(ax, ax)
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        dens = np.zeros(len(pts))
        for w, f in zip(weights, comps):
            lp = f(pts)
            dens += w * np.where(np.isfinite(lp), np.exp(lp), 0.0)
        mass = dens.sum() * step * step
        assert mass == pytest.approx(1.0, abs=tol)

    def test_out_of_support_is_minus_inf(self):
        comps, _ = mixture_log_densities("d")
        below = np.array([[-5.0, 0.0]])        # below the -4 shift
        assert comps[0](below)[0] == -np.inf
        positive = np.array([[0.5, -1.0]])     # first coordinate above 0
        assert comps[1](positive)[0] == -np.inf

    def test_gaussian_logpdf_value(self):
        comps, _ = mixture_log_densities("a")
        got = comps[0](np.zeros((1, 2)))[0]
        assert got == pytest.approx(-np.log(2 * np.pi))

    def test_weights_are_half_half(self):
        _, weights = mixture_log_densities("c")
        assert weights.tolist() == [0.5, 0.5]

    def test_unknown_setting(self):
        with pytest.raises(ValueError, match="unknown setting"):
            mixture_log_densities("z")


class TestMultiView:
    def test_shapes(self):
        views, x0, labels = multi_view(n=40, v=12, d0=4, g0=3, seed=2)
        assert len(views) == 12
        assert all(v.shape == (40, 2) for v in views)
        assert x0.shape == (12,)
        assert labels.shape == (12, 40)
        assert x0.min() >= 0 and x0.max() < 4
        assert labels.min() >= 0 and labels.max() < 3

    def test_views_sharing_pattern_share_label_law(self):
        # two views with equal x0 draw labels from the same row distributions
        views, x0, labels = multi_view(n=2000, v=6, d0=2, g0=3, seed=4)
        same = np.nonzero(x0 == x0[0])[0]
        if len(same) >= 2:
            a, b = labels[same[0]], labels[same[1]]
            # per-item marginals agree in aggregate: mean label gap is small
            assert abs(a.mean() - b.mean()) < 0.1

    def test_view_ids_are_one_based(self):
        # a view is named by its 1-based position in the list
        views, _, _ = multi_view(n=10, v=3, seed=0)
        views[2][4, 0] = np.inf
        with pytest.raises(ValueError, match="^view 3: non-finite value in row 4$"):
            SimilarityTensor.from_views(views)

    def test_cluster_means_drive_geometry(self):
        views, x0, labels = multi_view(n=300, v=2, d0=1, g0=3, seed=8)
        y, lab = views[0], labels[0]
        for k in range(3):
            if (lab == k).sum() > 10:
                center = y[lab == k].mean(axis=0)
                assert np.linalg.norm(center - DEFAULT_PATTERN_MEANS[k]) < 0.6

    def test_custom_means_required_when_g0_not_3(self):
        with pytest.raises(ValueError, match="means must be given"):
            multi_view(n=10, v=2, g0=4, seed=0)
        views, _, labels = multi_view(n=10, v=2, g0=2,
                                      means=np.array([[0.0, 0.0], [5.0, 5.0]]), seed=0)
        assert labels.max() < 2

    def test_means_shape_validated(self):
        with pytest.raises(ValueError, match="shape"):
            multi_view(n=10, v=2, g0=3, means=np.zeros((2, 2)), seed=0)

    def test_deterministic(self):
        a = multi_view(n=15, v=4, seed=11)
        b = multi_view(n=15, v=4, seed=11)
        np.testing.assert_array_equal(a[1], b[1])
        np.testing.assert_array_equal(a[0][2], b[0][2])


class TestConsensusViews:
    def test_shapes_and_flags(self):
        views, labels, structured = consensus_views(80, seed=1)
        assert len(views) == 10
        assert all(v.shape == (80, 1) for v in views)
        assert labels.shape == (10, 80)
        assert structured.tolist() == [True, True] + [False] * 8

    def test_view1_merges_upper_groups(self):
        views, labels, _ = consensus_views(500, seed=3)
        # view 1 truth is binary: group 0 against groups 1 and 2
        assert set(np.unique(labels[0])) == {0, 1}
        assert set(np.unique(labels[1])) == {0, 1, 2}
        merged = (labels[1] > 0).astype(int)
        np.testing.assert_array_equal(labels[0], merged)

    def test_structured_views_carry_signal(self):
        views, labels, _ = consensus_views(2000, seed=5)
        # view 2 group means sit near 0, 1, 2
        y = views[1]
        for k, m in enumerate((0.0, 1.0, 2.0)):
            assert abs(y[labels[1] == k].mean() - m) < 0.15
        # noise views have no mean structure
        y3 = views[4]
        assert abs(y3.mean()) < 0.1

    def test_validation(self):
        with pytest.raises(ValueError, match="n must be"):
            consensus_views(1, seed=0)


class TestScreenColumns:
    def test_hand_case_orders_by_dispersion_ratio(self):
        # col0: sd 0 ratio 0; col1: high ratio; col2: moderate ratio
        data = np.array([[1.0, 1.0, 10.0],
                         [1.0, 9.0, 12.0],
                         [1.0, 2.0, 14.0]])
        order = screen_columns(data, 3)
        sd = data.std(axis=0, ddof=1)
        med = np.median(data, axis=0)
        ratios = sd / med
        assert order.tolist() == np.argsort(-ratios, kind="stable").tolist()
        assert order[0] == 1

    def test_top_v_truncates(self):
        data = np.random.default_rng(0).uniform(1, 2, size=(20, 6))
        assert len(screen_columns(data, 4)) == 4
        assert len(screen_columns(data, 60)) == 6

    def test_zero_median_columns_rank_last(self):
        data = np.array([[0.0, 5.0], [0.0, 6.0], [0.0, 7.0]])
        order = screen_columns(data, 2)
        assert order.tolist() == [1, 0]

    def test_constant_nonzero_column_ranks_low(self):
        data = np.array([[2.0, 1.0], [2.0, 5.0], [2.0, 9.0]])
        # constant column has ratio 0, varying column wins
        assert screen_columns(data, 1).tolist() == [1]

    def test_stable_tie_order(self):
        data = np.tile(np.array([[1.0], [3.0], [5.0]]), (1, 4))
        assert screen_columns(data, 4).tolist() == [0, 1, 2, 3]

    def test_validation(self):
        with pytest.raises(ValueError, match="2-d"):
            screen_columns(np.zeros(5), 1)
        with pytest.raises(ValueError, match="top_v"):
            screen_columns(np.zeros((3, 3)), 0)
