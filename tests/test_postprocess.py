"""Point-estimate extraction: label rules, spectral grouping, consensus."""

import numpy as np
import pytest

from mvsimplex.datagen import single_view
from mvsimplex.metrics import nmi
from mvsimplex.model import FitState, ModelConfig, coassignment_matrix, fit
from mvsimplex.postprocess import (
    ConsensusResult,
    consensus_matrix,
    pointwise_labels,
    spectral_labels,
    view_estimates,
)
from mvsimplex.similarity import SimilarityTensor, ViewData
from oracles import consensus_reference


def logits_for(weights):
    # exact softmax preimage (rows of weights must be positive)
    return np.log(np.asarray(weights, dtype=float))


def state_from_weights(weights, eta, lam=None, g=None):
    """Hand-built FitState around given per-parameterization weight rows."""
    weights = np.asarray(weights, dtype=float)
    eta = np.asarray(eta, dtype=float)
    d, n, g_cols = weights.shape
    if lam is None:
        lam = np.full(d, 1.0 / d)
    cfg = ModelConfig(d=d, g=g_cols if g is None else g, seed=0)
    return FitState(config=cfg, logits=logits_for(weights), lam=np.asarray(lam, float),
                    eta=eta)


def x_hat_of(eta):
    """view_estimates' x_hat for eta over d = eta.shape[1] two-block entries."""
    eta = np.asarray(eta, dtype=float)
    w = np.array([[0.9, 0.1], [0.1, 0.9]])
    x_hat, _ = view_estimates(state_from_weights([w] * eta.shape[1], eta), seed=0)
    return x_hat


class TestParamAssignments:
    def test_argmax_rows(self):
        eta = np.array([[0.1, 0.7, 0.2], [0.6, 0.3, 0.1]])
        assert x_hat_of(eta).tolist() == [1, 0]

    def test_tie_goes_to_lowest_index(self):
        eta = np.array([[0.4, 0.4, 0.2]])
        assert x_hat_of(eta).tolist() == [0]

    def test_most_probable_param_matches(self):
        eta = np.array([[0.2, 0.8], [0.9, 0.1]])
        assert x_hat_of(eta)[0] == 1
        assert x_hat_of(eta)[1] == 0


class TestPointwiseLabels:
    def test_plain_argmax(self):
        w = np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.3, 0.3, 0.4]])
        assert pointwise_labels(w).tolist() == [0, 1, 2]

    def test_epsilon_zeroes_shrunk_columns(self):
        # column 2 peaks above every row's column 0, but sits below epsilon
        w = np.array([[4e-4, 0.9996 - 9e-4, 5e-4],
                      [3e-4, 0.9996 - 7e-4, 4e-4]])
        assert pointwise_labels(w, epsilon=1e-3).tolist() == [1, 1]
        # without the threshold the same matrix keeps column 2 in play
        w2 = np.array([[0.4, 0.1, 0.5], [0.3, 0.2, 0.5]])
        assert pointwise_labels(w2, epsilon=1e-3).tolist() == [2, 2]

    def test_threshold_is_inclusive(self):
        w = np.array([[0.5, 0.5], [0.4, 0.6]])
        # a column whose max equals epsilon exactly is dropped
        assert pointwise_labels(w, epsilon=0.5).tolist() == [1, 1]

    def test_input_not_mutated(self):
        w = np.array([[0.9, 1e-4], [0.8, 2e-4]])
        before = w.copy()
        pointwise_labels(w, epsilon=1e-3)
        np.testing.assert_array_equal(w, before)


class TestEffectiveCounts:
    def test_hand_built_state(self):
        # two parameterizations; views 0 and 2 pick the first, view 1 the second
        w0 = np.array([[0.98, 0.01, 0.01], [0.01, 0.98, 0.01], [0.01, 0.98, 0.01]])
        w1 = np.array([[0.98, 0.01, 0.01], [0.98, 0.01, 0.01], [0.98, 0.01, 0.01]])
        eta = np.array([[0.9, 0.1], [0.2, 0.8], [0.7, 0.3]])
        st = state_from_weights([w0, w1], eta)
        x_hat, ests = view_estimates(st, seed=0)
        assert len(ests) == 2
        assert [ests[x].g_hat for x in x_hat] == [2, 1, 2]

    def test_unused_param_not_counted(self):
        w = np.array([[0.9, 0.1], [0.1, 0.9]])
        eta = np.array([[0.8, 0.2], [0.7, 0.3]])  # nobody picks param 1
        st = state_from_weights([w, w[::-1]], eta)
        x_hat, ests = view_estimates(st, seed=0)
        assert list(ests) == [0]
        assert len(x_hat) == 2


def two_block_p(n, p_in=0.95, p_out=0.03):
    half = n // 2
    z = np.array([0] * half + [1] * (n - half))
    P = np.where(z[:, None] == z[None, :], p_in, p_out)
    np.fill_diagonal(P, 1.0)
    return P, z


class TestSpectralLabels:
    def test_two_blocks_recovered(self):
        P, z = two_block_p(20)
        labels = spectral_labels(P, 2, seed=0)
        assert nmi(labels, z) == pytest.approx(1.0)

    def test_noisy_blocks_recovered(self):
        rng = np.random.default_rng(3)
        P, z = two_block_p(24, 0.9, 0.05)
        noise = rng.uniform(-0.04, 0.04, P.shape)
        noise = (noise + noise.T) / 2
        np.fill_diagonal(noise, 0.0)
        labels = spectral_labels(P + noise, 2, seed=1)
        assert nmi(labels, z) == pytest.approx(1.0)

    def test_g_one_short_circuits(self):
        P, _ = two_block_p(10)
        assert spectral_labels(P, 1, seed=0).tolist() == [0] * 10

    def test_row_permutation_consistency(self):
        P, z = two_block_p(16)
        perm = np.random.default_rng(5).permutation(16)
        labels = spectral_labels(P[np.ix_(perm, perm)], 2, seed=0)
        assert nmi(labels, z[perm]) == pytest.approx(1.0)

    def test_zero_degree_rows_become_singletons(self):
        P, z = two_block_p(12)
        P[10, :] = 0.0
        P[:, 10] = 0.0
        P[11, :] = 0.0
        P[:, 11] = 0.0
        P[10, 10] = 0.0
        P[11, 11] = 0.0
        labels = spectral_labels(P, 2, seed=0)
        # isolated items get fresh labels beyond the core clustering
        assert labels[10] != labels[11]
        assert {labels[10], labels[11]} == {2, 3}
        assert nmi(labels[:10], z[:10]) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="square"):
            spectral_labels(np.zeros((3, 4)), 2, seed=0)
        with pytest.raises(ValueError, match="g must be"):
            spectral_labels(np.eye(3), 0, seed=0)

    def test_deterministic_in_seed(self):
        P, _ = two_block_p(14, 0.8, 0.2)
        a = spectral_labels(P, 2, seed=7)
        b = spectral_labels(P, 2, seed=7)
        np.testing.assert_array_equal(a, b)


class TestViewEstimates:
    def test_shared_param_shares_estimates(self):
        w0 = np.array([[0.9, 0.1], [0.1, 0.9], [0.85, 0.15]])
        w1 = np.array([[0.5, 0.5], [0.6, 0.4], [0.5, 0.5]])
        eta = np.array([[0.9, 0.1], [0.8, 0.2], [0.1, 0.9]])
        st = state_from_weights([w0, w1], eta)
        x_hat, ests = view_estimates(st, seed=0)
        assert x_hat.tolist() == [0, 0, 1]
        assert list(ests) == [0, 1]
        assert ests[x_hat[0]] is ests[x_hat[1]]
        np.testing.assert_allclose(ests[0].p_hat, coassignment_matrix(w0), rtol=1e-12)
        np.testing.assert_allclose(ests[1].p_hat, coassignment_matrix(w1), rtol=1e-12)

    def test_g_hat_counts_distinct_labels(self):
        w = np.array([[0.9, 0.05, 0.05], [0.05, 0.9, 0.05], [0.9, 0.05, 0.05]])
        eta = np.array([[1.0]])
        st = state_from_weights([w], eta[:, :1])
        _, ests = view_estimates(st, seed=0)
        est = ests[0]
        assert est.g_hat == 2
        assert len(np.unique(est.labels_joint)) == 2


class TestConsensus:
    def make_state(self):
        # param 0: two real clusters; param 1: everything in one column
        w0 = np.array([[0.97, 0.03], [0.96, 0.04], [0.04, 0.96], [0.03, 0.97]])
        flat = np.array([[1.0 - 1e-4, 1e-4]] * 4)
        eta = np.array([[0.9, 0.1], [0.85, 0.15], [0.1, 0.9]])
        return state_from_weights([w0, flat], eta)

    def test_unstructured_views_excluded(self):
        st = self.make_state()
        x_hat, ests = view_estimates(st, seed=0)
        res = consensus_matrix(x_hat, ests)
        assert isinstance(res, ConsensusResult)
        assert res.weights.tolist() == [1.0, 1.0, 0.0]
        assert not res.plain_average
        # consensus averages only the two structured views, both on param 0
        np.testing.assert_allclose(res.matrix, ests[0].p_hat)

    def test_all_unstructured_falls_back_to_plain_average(self):
        flat = np.array([[1.0 - 1e-4, 1e-4]] * 3)
        eta = np.array([[0.6, 0.4], [0.3, 0.7]])
        st = state_from_weights([flat, flat.copy()], eta)
        res = consensus_matrix(*view_estimates(st, seed=0))
        assert res.plain_average
        assert res.weights.tolist() == [0.0, 0.0]
        stack = [coassignment_matrix(st.weights[0]), coassignment_matrix(st.weights[1])]
        np.testing.assert_allclose(res.matrix, np.mean(stack, axis=0))

    def test_matches_stack_formulas_bitwise(self):
        # mixed structure flags, then none: adding view by view must give
        # the bits of the weighted sum and of the mean over a (V, n, n) stack
        n, g, d, n_views = 9, 3, 4, 12
        flat = np.full((n, g), 1e-5)
        flat[:, 0] = 1.0 - (g - 1) * 1e-5
        for seed in range(10):
            rng = np.random.default_rng(seed)
            for n_structured in (2, 0):
                weights = [rng.dirichlet(np.ones(g), size=n) for _ in range(n_structured)]
                weights += [flat] * (d - n_structured)
                st = state_from_weights(weights, rng.dirichlet(np.ones(d), size=n_views))
                x_hat, ests = view_estimates(st, seed=0)
                res = consensus_matrix(x_hat, ests)
                if n_structured:
                    assert 0.0 < res.weights.sum() < n_views
                else:
                    assert res.plain_average
                want = consensus_reference([ests[x].p_hat for x in x_hat], res.weights)
                assert np.array_equal(res.matrix, want)

    def test_consensus_is_convex_combination(self):
        st = self.make_state()
        res = consensus_matrix(*view_estimates(st, seed=0))
        assert res.matrix.min() >= 0.0
        assert res.matrix.max() <= 1.0
        np.testing.assert_allclose(res.matrix, res.matrix.T)

    def test_structure_cluster_count(self):
        # at ModelConfig's default epsilon = 1e-3, w's second column is
        # fully shrunk, so w has one label; w2 keeps two
        w = np.array([[0.999, 5e-4], [0.9995, 1e-4]])
        w2 = np.array([[0.9, 0.1], [0.1, 0.9]])
        st = state_from_weights([w, w2], np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert st.config.epsilon == 1e-3
        _, ests = view_estimates(st, seed=0)
        assert not ests[0].structured
        assert ests[1].structured


class TestShrinkageMonotonicity:
    def test_g_hat_never_grows_with_stronger_penalty(self):
        # three well separated clusters, overfitted g; the fitted number of
        # occupied columns must not increase as the penalty multiplier grows
        rng = np.random.default_rng(0)
        centers = np.array([[0.0, 0.0], [6.0, 6.0], [-6.0, 6.0]])
        z = np.repeat([0, 1, 2], 10)
        y = centers[z] + rng.standard_normal((30, 2))
        S = SimilarityTensor.from_views([ViewData(y)], q=0.1)
        counts = []
        for mult in (0.25, 1.0, 16.0):
            st = fit(S, ModelConfig(d=1, g=6, seed=0, n_reg_multiplier=mult))
            x_hat, ests = view_estimates(st, seed=0)
            counts.append(ests[x_hat[0]].g_hat)
        assert counts[0] >= counts[1] >= counts[2]
        assert counts[2] < counts[0]
