import tracemalloc

import numpy as np

from mvsimplex.model import (
    expected_loss_gradient,
    pair_workspace,
    precompute_kappa_gamma,
    row_softmax,
)
from conftest import make_tensor
from oracles import (
    descent_objective,
    expected_loss_gradient_reference,
    full_kappa,
    loss_gradient,
    numeric_gradient,
)

FD_STEP = 1e-5
REL_TOL = 1e-5


def _random_instance(seed):
    rng = np.random.default_rng(seed)
    n_views = int(rng.integers(1, 4))
    n = int(rng.integers(6, 11))
    d = int(rng.integers(1, 4))
    g = int(rng.integers(2, 5))
    S = make_tensor(seed + 1000, n_views=n_views, n=n)
    logits = rng.normal(size=(d, n, g))
    eta = rng.uniform(0.05, 1.0, size=(n_views, d))
    eta /= eta.sum(axis=1, keepdims=True)
    return S, logits, eta, n


def test_gradient_matches_finite_differences_on_20_instances():
    worst = 0.0
    for seed in range(20):
        S, logits, eta, n = _random_instance(seed)
        pc = precompute_kappa_gamma(S, eta)
        epsilon = 1e-3
        n_reg = float(n)
        analytic = loss_gradient(logits, pc, epsilon, n_reg)
        numeric = numeric_gradient(
            lambda x: descent_objective(x, pc, epsilon, n_reg), logits, step=FD_STEP
        )
        denom = max(np.abs(numeric).max(), 1e-12)
        rel = np.abs(analytic - numeric).max() / denom
        worst = max(worst, rel)
        assert rel < REL_TOL, f"instance {seed}: relative error {rel:.3e}"
    assert worst < REL_TOL


def test_gradient_zero_for_single_column_model():
    # g=1 softmax is constant, so nothing can move
    S = make_tensor(7, n_views=1, n=8)
    eta = np.ones((1, 1))
    pc = precompute_kappa_gamma(S, eta)
    grad = loss_gradient(np.zeros((1, 8, 1)), pc, 1e-3, 8.0)
    np.testing.assert_array_equal(grad, 0.0)


def test_gradient_descends_the_objective():
    S, logits, eta, n = _random_instance(42)
    pc = precompute_kappa_gamma(S, eta)
    grad = loss_gradient(logits, pc, 1e-3, float(n))
    before = descent_objective(logits, pc, 1e-3, float(n))
    after = descent_objective(logits - 1e-4 * grad, pc, 1e-3, float(n))
    assert after < before


def test_gradient_shape_matches_logits():
    S, logits, eta, n = _random_instance(3)
    pc = precompute_kappa_gamma(S, eta)
    grad = loss_gradient(logits, pc, 1e-3, float(n))
    assert grad.shape == logits.shape
    assert np.all(np.isfinite(grad))
    # softmax chain rule: per-row gradients are orthogonal to the all-ones
    # direction only in weight space, but logit-space rows must sum to 0
    np.testing.assert_allclose(grad.sum(axis=2), 0.0, atol=1e-10)


def _eta_with_dead_entries(rng, n_views, d, n_dead):
    eta = rng.uniform(0.05, 1.0, size=(n_views, d))
    eta[:, rng.permutation(d)[:n_dead]] = 0.0
    eta /= eta.sum(axis=1, keepdims=True)
    return eta


def test_gradient_equals_full_catalog_kernel_with_dead_entries():
    # the gradient takes the live entries' rows only; on those rows the
    # full-catalog kernel must agree bit for bit, with none, some and all
    # but one of the entries dead
    n_views, n, d, g = 4, 12, 5, 3
    for seed in range(10):
        rng = np.random.default_rng(seed)
        S = make_tensor(seed + 2000, n_views=n_views, n=n)
        logits = 3.0 * rng.normal(size=(d, n, g))  # some weights under epsilon
        for n_dead in (0, 2, d - 1):
            pc = precompute_kappa_gamma(S, _eta_with_dead_entries(rng, n_views, d, n_dead))
            assert pc.live.size == d - n_dead
            got = loss_gradient(logits[pc.live], pc, 1e-3, float(n))
            want = expected_loss_gradient_reference(logits, pc, 1e-3, float(n))[pc.live]
            assert np.array_equal(got, want), f"seed {seed}, {n_dead} dead entries"


def test_gradient_with_reused_pair_work_is_bitwise_the_same():
    # one, some and all entries live; the workspace starts as NaN and
    # keeps the previous call's values, and neither may reach the result
    n_views, n, d, g = 4, 12, 5, 3
    for seed in range(5):
        rng = np.random.default_rng(seed)
        S = make_tensor(seed + 3000, n_views=n_views, n=n)
        logits = 3.0 * rng.normal(size=(d, n, g))
        for n_dead in (d - 1, 2, 0):
            pc = precompute_kappa_gamma(S, _eta_with_dead_entries(rng, n_views, d, n_dead))
            work = np.full((pc.live.size, n, n), np.nan), np.full((pc.live.size, n, n), np.nan)
            for x in (logits[pc.live], 0.5 * logits[pc.live]):
                got = expected_loss_gradient(x, pc, 1e-3, float(n), work)
                want = loss_gradient(x, pc, 1e-3, float(n))
                assert np.array_equal(got, want), f"seed {seed}, {n_dead} dead entries"


def test_gradient_with_pair_work_allocates_no_pair_array():
    n_views, n, d, g = 3, 60, 4, 3
    rng = np.random.default_rng(0)
    pc = precompute_kappa_gamma(make_tensor(3100, n_views=n_views, n=n),
                                _eta_with_dead_entries(rng, n_views, d, 0))
    logits = rng.normal(size=(d, n, g))
    work = np.empty((d, n, n)), np.empty((d, n, n))
    tracemalloc.start()
    try:
        expected_loss_gradient(logits, pc, 1e-3, float(n), work)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < work[0].nbytes  # one (live, n, n) array


def test_kappa_fills_live_entries_only():
    n_views, n, d = 4, 12, 5
    S = make_tensor(2100, n_views=n_views, n=n)
    ws = pair_workspace(S)
    rng = np.random.default_rng(0)
    for n_dead in (0, 2, d - 1):
        eta = _eta_with_dead_entries(rng, n_views, d, n_dead)
        pc = precompute_kappa_gamma(S, eta)
        full = -(eta.T @ ws.logit_flat)
        live = eta.sum(axis=0) > 0.0
        assert np.array_equal(pc.live, np.nonzero(live)[0])
        assert pc.kappa.shape == (live.sum(), n, n)
        assert np.array_equal(pc.kappa[:, ws.ii, ws.jj], full[live])
        assert np.array_equal(pc.kappa[:, ws.jj, ws.ii], full[live])
        assert np.all(pc.kappa[:, np.arange(n), np.arange(n)] == 0.0)
        # a dead entry's kappa is not stored; the full catalog's is zero
        assert np.all(full_kappa(pc)[~live] == 0.0)
