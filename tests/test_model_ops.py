import numpy as np
import pytest

from mvsimplex.model import (
    KappaGamma,
    ModelConfig,
    coassignment_matrix,
    dirichlet_penalty,
    eta_from_divergences,
    group_regularizer,
    kl_bernoulli,
    lambda_mode_update,
    precompute_kappa_gamma,
    row_softmax,
    view_divergences,
)
from mvsimplex.similarity import pair_indices
from conftest import make_dense, make_tensor
from oracles import data_fit_loss, kl_bernoulli_reference, refactored_data_loss


def test_pair_indices_canonical_order():
    ii, jj = pair_indices(4)
    # column-major by j: all pairs with j=0 first, then j=1, ...
    np.testing.assert_array_equal(ii, [1, 2, 3, 2, 3, 3])
    np.testing.assert_array_equal(jj, [0, 0, 0, 1, 1, 2])


def test_row_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    w = row_softmax(rng.normal(size=(2, 5, 3)) * 10)
    assert w.shape == (2, 5, 3)
    np.testing.assert_allclose(w.sum(axis=-1), 1.0, rtol=1e-12)
    assert w.min() > 0.0


def test_row_softmax_two_value_case():
    w = row_softmax(np.array([[np.log(3.0), 0.0]]))
    np.testing.assert_allclose(w, [[0.75, 0.25]], rtol=1e-12)


def test_kl_bernoulli_known_values():
    assert kl_bernoulli(0.5, 0.25) == pytest.approx(0.14384, abs=1e-5)
    assert kl_bernoulli(0.0, 0.5) == pytest.approx(np.log(2.0), rel=1e-12)
    assert kl_bernoulli(1.0, 0.5) == pytest.approx(np.log(2.0), rel=1e-12)
    assert kl_bernoulli(0.3, 0.3) == 0.0


def test_kl_bernoulli_matches_scalar_reference():
    rng = np.random.default_rng(4)
    for _ in range(50):
        p = float(rng.uniform(0, 1))
        s = float(rng.uniform(0.01, 0.99))
        assert kl_bernoulli(p, s) == pytest.approx(kl_bernoulli_reference(p, s), abs=1e-13)


def test_kl_bernoulli_is_nonnegative_and_vectorized():
    rng = np.random.default_rng(9)
    p = rng.uniform(0, 1, size=(3, 7))
    s = rng.uniform(0.05, 0.95, size=(3, 7))
    val = kl_bernoulli(p, s)
    assert val.shape == (3, 7)
    assert np.all(val >= 0.0)


def test_kl_bernoulli_domain_validation():
    with pytest.raises(ValueError):
        kl_bernoulli(-0.1, 0.5)
    with pytest.raises(ValueError):
        kl_bernoulli(1.1, 0.5)
    with pytest.raises(ValueError):
        kl_bernoulli(0.5, 0.0)
    with pytest.raises(ValueError):
        kl_bernoulli(0.5, 1.0)


def test_coassignment_one_hot_rows():
    w = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    P = coassignment_matrix(w)
    assert P[0, 1] == 1.0 and P[0, 2] == 0.0
    np.testing.assert_array_equal(P, P.T)


def test_group_regularizer_zero_at_epsilon():
    w = np.full((6, 3), 1e-3)
    assert group_regularizer(w, epsilon=1e-3) == pytest.approx(0.0, abs=1e-9)


def test_group_regularizer_single_entry_value():
    w = np.full((4, 2), 1e-3)
    w[2, 1] = 0.5
    # one active entry: column norm is |log(0.5/1e-3)| up to smoothing
    assert group_regularizer(w, epsilon=1e-3) == pytest.approx(np.log(500.0), rel=1e-6)


def test_group_regularizer_monotone_in_entries():
    lo = group_regularizer(np.full((5, 2), 0.01), epsilon=1e-3)
    hi = group_regularizer(np.full((5, 2), 0.5), epsilon=1e-3)
    assert hi > lo > 0.0


def test_dirichlet_penalty():
    assert dirichlet_penalty(np.array([0.3, 0.7]), alpha=1.0) == 0.0
    lam = np.array([0.5, 0.5])
    assert dirichlet_penalty(lam, alpha=0.5) == pytest.approx(0.5 * 2 * np.log(0.5))
    # floor keeps zero weights finite
    assert np.isfinite(dirichlet_penalty(np.array([1.0, 0.0]), alpha=0.5))


def test_view_divergences_match_direct_pair_sums():
    S = make_tensor(1, n_views=3, n=12)
    s = make_dense(1, n_views=3, n=12)
    rng = np.random.default_rng(2)
    logits = rng.normal(size=(2, 12, 3))
    D = view_divergences(logits, S)
    W = row_softmax(logits)
    ii, jj = pair_indices(12)
    for v in range(3):
        for l in range(2):
            P = np.clip(W[l] @ W[l].T, 1e-300, 1 - 1e-12)
            direct = kl_bernoulli(P[ii, jj], s[v][ii, jj]).sum()
            assert D[v, l] == pytest.approx(direct, rel=1e-12)


def test_kappa_gamma_single_view_unit_eta():
    S = make_tensor(3, n_views=1, n=8)
    eta = np.ones((1, 1))
    pc = precompute_kappa_gamma(S, eta)
    s = make_dense(3, n_views=1, n=8)[0]
    expected = -(np.log(s) - np.log1p(-s))
    ii, jj = pair_indices(8)
    np.testing.assert_allclose(pc.kappa[0][ii, jj], expected[ii, jj], rtol=1e-12)
    np.testing.assert_allclose(pc.kappa[0], pc.kappa[0].T)
    assert pc.gamma[0] == 1.0
    assert np.array_equal(pc.live, [0]) and pc.kappa.shape == (1, 8, 8)
    assert np.all(np.diag(pc.kappa[0]) == 0.0)


def test_refactored_loss_equals_direct_up_to_constant():
    # the criterion-level identity: direct = refactored + C
    for seed in range(8):
        rng = np.random.default_rng(seed)
        n_views, n, d, g = 3, 14, 2, 3
        S = make_tensor(seed + 100, n_views=n_views, n=n)
        logits = rng.normal(size=(d, n, g)) * 2
        eta = rng.uniform(0.1, 1.0, size=(n_views, d))
        eta /= eta.sum(axis=1, keepdims=True)
        pc = precompute_kappa_gamma(S, eta)
        W = row_softmax(logits)
        p_stars = np.clip(np.einsum("lik,ljk->lij", W, W), 1e-300, 1 - 1e-12)
        direct = data_fit_loss(p_stars, make_dense(seed + 100, n_views=n_views, n=n), eta)
        refact = refactored_data_loss(logits, pc) - S.log1m_sum.sum()
        assert abs(direct - refact) <= 1e-10 * max(1.0, abs(direct))


def test_eta_rows_sum_to_one_and_follow_divergences():
    D = np.array([[1.0, 2.0], [5.0, 1.0]])
    lam = np.array([0.5, 0.5])
    eta = eta_from_divergences(D, lam)
    np.testing.assert_allclose(eta.sum(axis=1), 1.0, rtol=1e-12)
    # direct softmax of log(lam) - D
    expected = np.exp(-D) * lam
    expected /= expected.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(eta, expected, rtol=1e-12)


def test_eta_zero_lambda_column_is_exactly_zero():
    D = np.zeros((3, 2))
    eta = eta_from_divergences(D, np.array([1.0, 0.0]))
    np.testing.assert_array_equal(eta[:, 1], 0.0)
    np.testing.assert_array_equal(eta[:, 0], 1.0)


def test_eta_survives_huge_divergence_gaps():
    D = np.array([[0.0, 1e6], [1e6, 0.0]])
    eta = eta_from_divergences(D, np.array([0.5, 0.5]))
    assert np.all(np.isfinite(eta))
    np.testing.assert_allclose(eta, [[1.0, 0.0], [0.0, 1.0]], atol=1e-300)


def test_eta_all_dead_lambda_rejected():
    with pytest.raises(ValueError):
        eta_from_divergences(np.zeros((2, 2)), np.zeros(2))


def test_lambda_mode_flat_prior():
    eta = np.array([[1.0, 0.0], [0.5, 0.5]])  # column sums 1.5, 0.5
    lam = lambda_mode_update(eta, alpha=1.0)
    np.testing.assert_allclose(lam, [0.75, 0.25], rtol=1e-12)


def test_lambda_mode_sparsifying_prior():
    eta = np.array([[0.2, 0.1]])
    lam = lambda_mode_update(eta, alpha=0.5)
    np.testing.assert_array_equal(lam, [1.0, 0.0])


def test_lambda_mode_all_zero_fallback_uniform_over_ties():
    eta = np.array([[0.1, 0.1, 0.05]])
    lam = lambda_mode_update(eta, alpha=0.5)
    np.testing.assert_allclose(lam, [0.5, 0.5, 0.0])


def test_model_config_validation_and_defaults():
    cfg = ModelConfig(d=4, g=3)
    assert cfg.alpha == pytest.approx(0.25)
    assert cfg.reg_multiplier(100) == 100.0
    assert ModelConfig(d=4, g=3, n_reg_multiplier=2.0).reg_multiplier(100) == 200.0
    assert ModelConfig(d=4, g=3, alpha_lambda=1.0).alpha == 1.0
    for bad in (dict(d=0, g=2), dict(d=1, g=0), dict(d=1, g=2, restarts=0),
                dict(d=1, g=2, epsilon=0.0), dict(d=1, g=2, alpha_lambda=-1.0),
                dict(d=1, g=2, m_iters=0), dict(d=1, g=2, step_size=0.0),
                dict(d=1, g=2, step_size=-0.01), dict(d=1, g=2, step_size=np.inf),
                dict(d=1, g=2, step_size=np.nan), dict(d=1, g=2, rel_tol=-1.0),
                dict(d=1, g=2, rel_tol=np.nan), dict(d=1, g=2, rel_tol=np.inf),
                dict(d=1, g=2, n_reg_multiplier=-1.0),
                dict(d=1, g=2, n_reg_multiplier=np.nan),
                dict(d=1, g=2, n_reg_multiplier=np.inf)):
        with pytest.raises(ValueError):
            ModelConfig(**bad)
    # the boundary values stay valid
    assert ModelConfig(d=1, g=2, rel_tol=0.0, n_reg_multiplier=0.0).rel_tol == 0.0

