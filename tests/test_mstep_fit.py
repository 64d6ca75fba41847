import io
import json
from dataclasses import replace

import numpy as np
import pytest

from mvsimplex import model
from mvsimplex.datagen import multi_view
from mvsimplex.metrics import nmi
from mvsimplex.model import (
    FitState,
    ModelConfig,
    eta_from_divergences,
    fit,
    group_regularizer,
    load_fit_state,
    m_step,
    precompute_kappa_gamma,
    reg_loss,
    save_fit_state,
    view_divergences,
)
from mvsimplex.postprocess import view_estimates
from mvsimplex.similarity import SimilarityTensor
from conftest import make_blobs, make_dense, make_tensor
from oracles import (
    adam_descend_every_entry,
    adam_descend_reference,
    descent_objective,
    merge_columns_full_loss_reference,
    reg_loss_reference,
)


def _manual_state(seed, n_views=2, n=12, d=2, g=3):
    rng = np.random.default_rng(seed)
    S = make_tensor(seed + 50, n_views=n_views, n=n)
    logits = rng.normal(size=(d, n, g))
    eta = rng.uniform(0.1, 1.0, size=(n_views, d))
    eta /= eta.sum(axis=1, keepdims=True)
    lam = rng.dirichlet(np.ones(d))
    cfg = ModelConfig(d=d, g=g, seed=seed)
    return S, FitState(config=cfg, logits=logits, lam=lam, eta=eta)


def _with_dead_entry(S, state, l):
    """state with lambda_l = 0 and the eta of the E step that follows."""
    lam = state.lam.copy()
    lam[l] = 0.0
    lam /= lam.sum()
    eta = eta_from_divergences(view_divergences(state.logits, S), lam)
    return FitState(config=state.config, logits=state.logits, lam=lam, eta=eta)


def test_reg_loss_matches_triple_loop_reference():
    S, state = _manual_state(0, d=3)
    for st in (state, _with_dead_entry(S, state, 1)):
        got = reg_loss(st, S)
        expected = reg_loss_reference(
            st.weights, st.lam, st.eta, make_dense(50, n_views=2, n=12),
            epsilon=st.config.epsilon,
            n_reg=st.config.reg_multiplier(S.n_items),
            alpha=st.config.alpha,
        )
        assert got == pytest.approx(expected, rel=1e-10)


def test_reg_loss_ignores_the_logits_of_entries_with_zero_lambda():
    # an entry with lambda_l = 0 (and so eta_vl = 0) is out of the model:
    # its logits change no bit of the loss
    S, state = _manual_state(2, d=3)
    state = _with_dead_entry(S, state, 2)
    assert np.all(state.eta[:, 2] == 0.0)
    before = reg_loss(state, S)
    logits = state.logits.copy()
    logits[2] = np.random.default_rng(3).normal(size=logits[2].shape) * 5
    assert reg_loss(replace(state, logits=logits), S) == before


def test_m_step_descends_and_updates_lambda():
    S, state = _manual_state(1)
    pc = precompute_kappa_gamma(S, state.eta)
    n_reg = state.config.reg_multiplier(S.n_items)
    before = descent_objective(state.logits, pc, state.config.epsilon, n_reg)
    logits, lam = m_step(state, pc, n_reg)
    after = descent_objective(logits, pc, state.config.epsilon, n_reg)
    assert after < before
    assert lam.sum() == pytest.approx(1.0)
    # the input state must not change
    assert not np.array_equal(logits, state.logits)


def test_m_step_can_freeze_lambda():
    S, state = _manual_state(2)
    pc = precompute_kappa_gamma(S, state.eta)
    n_reg = state.config.reg_multiplier(S.n_items)
    _, lam = m_step(state, pc, n_reg, update_lambda=False)
    np.testing.assert_array_equal(lam, state.lam)


def test_e_step_single_parameterization_is_trivial():
    S, state = _manual_state(3, d=1, g=2)
    state.lam = np.array([1.0])
    eta = eta_from_divergences(view_divergences(state.logits, S), state.lam)
    np.testing.assert_array_equal(eta, np.ones((2, 1)))


def test_fit_trivial_model_stops_stationary():
    # d=1, g=1: the only weight matrix is a single all-ones column, the
    # gradient vanishes, and the loss cannot move after the first iteration
    S = make_tensor(4, n_views=1, n=10)
    state = fit(S, ModelConfig(d=1, g=1, seed=0))
    assert state.converged
    assert state.converged_by == "stationary"
    assert state.iterations == 1
    np.testing.assert_allclose(state.weights, 1.0)


def _three_blobs():
    # the data of TestShrinkageMonotonicity: with g=6, descent alone stops
    # with the three blobs split over six occupied columns (pointwise NMI
    # 0.73); the merge step joins them back
    rng = np.random.default_rng(0)
    centers = np.array([[0.0, 0.0], [6.0, 6.0], [-6.0, 6.0]])
    z = np.repeat([0, 1, 2], 10)
    y = centers[z] + rng.standard_normal((30, 2))
    return SimilarityTensor.from_views([y], q=0.1), z


def _relative_decreases(history):
    h = np.asarray(history)
    return (h[:-1] - h[1:]) / np.abs(h[:-1])


def test_fit_merges_split_columns_on_three_blobs():
    S, z = _three_blobs()
    state = fit(S, ModelConfig(d=1, g=6, seed=0))
    _, ests = view_estimates(state)
    est = ests[0]
    assert est.g_hat == 3
    assert nmi(est.labels_pointwise, z) == pytest.approx(1.0)
    assert state.loss_history[-1] == reg_loss(state, S)


def _recording(descend, calls):
    """descend, appending (input logits, gamma) of every M step to calls."""
    def wrapped(logits, precomp, config, n_reg):
        calls.append((logits.copy(), precomp.gamma.copy()))
        return descend(logits, precomp, config, n_reg)
    return wrapped


def test_fit_with_dying_entries_matches_full_catalog_gradient(monkeypatch):
    # d=4 over 6 random views: entries die at EM iterations 4 and 6 and one
    # is left live.  The M step descends the live entries only; under the
    # cap, the live logits, eta and lambda must equal, bit for bit, those
    # of a fit whose M step descends every entry, and each dead entry keeps
    # the logits it had at the M step where its gamma first reached 0.
    # The cap stops both fits before any column merge.
    S = make_tensor(0, n_views=6, n=10)
    config = ModelConfig(d=4, g=3, seed=0, m_iters=10, max_iters=12)
    state = fit(S, config)
    assert state.converged_by == "cap"
    live = state.lam > 0.0
    assert int(live.sum()) == 1
    calls = []
    monkeypatch.setattr(model, "_adam_descend", _recording(adam_descend_every_entry, calls))
    reference = fit(S, config)
    assert reference.converged_by == "cap"
    np.testing.assert_array_equal(state.logits[live], reference.logits[live])
    np.testing.assert_array_equal(state.eta, reference.eta)
    np.testing.assert_array_equal(state.lam, reference.lam)
    for l in np.nonzero(~live)[0]:
        died = next(logits for logits, gamma in calls if gamma[l] == 0.0)
        np.testing.assert_array_equal(state.logits[l], died[l])
        assert not np.array_equal(reference.logits[l], died[l])  # the oracle moved it


def _two_structure_views():
    # two views of two blobs and two of three blobs: with d=2 each group
    # keeps its own catalog entry through the fit
    three = ((0.0, 0.0), (6.0, 6.0), (-6.0, 6.0))
    views = [make_blobs(s, n_per=15)[0] for s in (0, 1)]
    views += [make_blobs(s, n_per=10, centers=three)[0] for s in (2, 3)]
    return SimilarityTensor.from_views(views, q=0.1)


def test_fit_without_dead_entries_equals_every_entry_descent(monkeypatch):
    # when no entry loses all its mass the live-only M step is the full
    # one: a d=1 fit (with a kept merge) and a d=2 fit whose entries both
    # keep gamma > 0 equal, bit for bit, the fits that descend every entry
    cases = [
        (_three_blobs()[0], ModelConfig(d=1, g=6, seed=0)),
        (_two_structure_views(), ModelConfig(d=2, g=4, seed=0)),
    ]
    states = []
    for S, config in cases:
        calls = []
        monkeypatch.setattr(model, "_adam_descend", _recording(model._adam_descend, calls))
        states.append(fit(S, config))
        monkeypatch.undo()
        assert all(np.all(gamma > 0.0) for _, gamma in calls)
    monkeypatch.setattr(model, "_adam_descend", adam_descend_every_entry)
    for (S, config), state in zip(cases, states):
        reference = fit(S, config)
        assert state.converged
        assert state.loss_history == reference.loss_history
        np.testing.assert_array_equal(state.logits, reference.logits)
        np.testing.assert_array_equal(state.eta, reference.eta)
        np.testing.assert_array_equal(state.lam, reference.lam)


def test_fit_stops_after_first_step_below_the_rate():
    # EM stops after the first iteration whose relative decrease is below
    # rel_tol
    S = make_tensor(5, n_views=2, n=10)
    config = ModelConfig(d=1, g=2, seed=0)
    state = fit(S, config)
    assert state.converged_by == "rate"
    steps = _relative_decreases(state.loss_history)
    assert np.all(steps[:-1] >= config.rel_tol)
    assert steps[-1] < config.rel_tol


def test_fit_resumed_em_after_a_kept_merge_stops_within_window():
    # the first convergence is followed by a kept merge; EM resumes from
    # the merged state and stops again at its first step below rel_tol,
    # without the pre-merge losses holding it
    S, _ = _three_blobs()
    config = ModelConfig(d=1, g=6, seed=0)
    state = fit(S, config)
    rate = config.rel_tol
    steps = _relative_decreases(state.loss_history)
    first_stop = int(np.argmax(steps < rate)) + 1
    assert steps[first_stop - 1] < rate
    assert state.iterations > first_stop  # a merge was kept and EM resumed
    assert state.converged_by == "rate"
    assert steps[first_stop] > rate  # the merge lowered the loss
    assert np.all(steps[first_stop:-1] >= rate)
    assert steps[-1] < rate


def test_fit_in_place_adam_matches_textbook_loop(monkeypatch):
    # one fit where entries die and merges are kept, one where a merge is
    # kept and EM resumes; both must equal, bit for bit, the fit whose M
    # step runs the textbook Adam loop
    cases = [
        (make_tensor(0, n_views=6, n=10), ModelConfig(d=4, g=3, seed=0, m_iters=10)),
        (_three_blobs()[0], ModelConfig(d=1, g=6, seed=0)),
    ]
    states = [fit(S, config) for S, config in cases]
    monkeypatch.setattr(model, "_adam_descend", adam_descend_reference)
    for (S, config), state in zip(cases, states):
        reference = fit(S, config)
        assert state.loss_history == reference.loss_history
        np.testing.assert_array_equal(state.logits, reference.logits)
        np.testing.assert_array_equal(state.eta, reference.eta)


def _merge_cases():
    # _three_blobs keeps a merge at d=1; the d=4 fit over 6 random views
    # keeps merges while entries die
    return [
        (_three_blobs()[0], ModelConfig(d=1, g=6, seed=0)),
        (make_tensor(0, n_views=6, n=10), ModelConfig(d=4, g=3, seed=0, m_iters=10)),
    ]


def test_fit_merges_equal_the_full_loss_merge_rule(monkeypatch):
    # the merge step keeps its best trial on the entry's share of reg_loss;
    # the rule that recomputes the full reg_loss before it keeps a trial
    # must give the same fits, bit for bit
    cases = _merge_cases()
    states = [fit(S, config) for S, config in cases]
    monkeypatch.setattr(model, "_merge_columns", merge_columns_full_loss_reference)
    for (S, config), state in zip(cases, states):
        reference = fit(S, config)
        assert state.loss_history == reference.loss_history
        np.testing.assert_array_equal(state.logits, reference.logits)
        np.testing.assert_array_equal(state.eta, reference.eta)


def _recording_merges(merge, trails):
    """merge, appending per call the reg_loss of the state it starts from
    and the reg_loss after each merge it keeps (eta and lambda held).  A
    kept merge is an item assignment to state.logits, which an ndarray
    subclass reports."""
    def wrapped(state, S, n_reg):
        class Logits(np.ndarray):
            def __setitem__(self, key, value):
                super().__setitem__(key, value)
                if self is state.logits:
                    trail.append(reg_loss(replace(state, logits=np.asarray(self)), S))

        trail = [reg_loss(state, S)]
        state.logits = state.logits.view(Logits)
        try:
            return merge(state, S, n_reg)
        finally:
            state.logits = np.asarray(state.logits)
            trails.append(trail)
    return wrapped


def test_each_kept_merge_lowers_reg_loss(monkeypatch):
    merge = model._merge_columns
    for S, config in _merge_cases():
        trails = []
        monkeypatch.setattr(model, "_merge_columns", _recording_merges(merge, trails))
        fit(S, config)
        assert any(len(trail) > 1 for trail in trails)
        for trail in trails:
            assert all(after < before for before, after in zip(trail, trail[1:]))


def test_fit_iteration_cap_reports_nonconvergence():
    S = make_tensor(6, n_views=2, n=10)
    state = fit(S, ModelConfig(d=2, g=3, seed=0, max_iters=3))
    assert state.iterations == 3
    assert not state.converged
    assert state.converged_by == "cap"
    assert len(state.loss_history) == 4  # init loss + one per iteration


def test_fit_loss_history_is_finite_and_mostly_decreasing():
    S = make_tensor(7, n_views=3, n=12)
    state = fit(S, ModelConfig(d=2, g=2, seed=1, max_iters=40))
    h = np.asarray(state.loss_history)
    assert np.all(np.isfinite(h))
    assert h[-1] < h[0]


def test_fit_two_blobs_perfect_labels(two_blob_fit):
    S, state, labels = two_blob_fit
    _, ests = view_estimates(state)
    est = ests[0]
    assert nmi(est.labels_joint, labels) == pytest.approx(1.0)
    assert est.g_hat == 2


def test_fit_is_deterministic_given_seed():
    S1 = make_tensor(8, n_views=2, n=10)
    S2 = make_tensor(8, n_views=2, n=10)
    cfg = ModelConfig(d=2, g=2, seed=9, max_iters=15)
    a = fit(S1, cfg)
    b = fit(S2, cfg)
    np.testing.assert_array_equal(a.logits, b.logits)
    np.testing.assert_array_equal(a.eta, b.eta)
    assert a.loss_history == b.loss_history


def test_fit_restarts_never_worse_than_single():
    S = make_tensor(9, n_views=2, n=12)
    single = fit(S, ModelConfig(d=2, g=3, seed=3, max_iters=30))
    multi = fit(S, ModelConfig(d=2, g=3, seed=3, max_iters=30, restarts=3))
    assert multi.loss_history[-1] <= single.loss_history[-1] + 1e-9


def test_restart_choice_leaves_out_frozen_penalties_of_dead_entries():
    # fit keeps the restart with the lowest final loss, and that loss is
    # the live one: the group and Dirichlet penalties of the entries with
    # lambda > 0 only.  Restart 1 wins here, and it would lose if its
    # lambda = 0 entries kept their group penalties.
    views, _, _ = multi_view(n=30, v=8, d0=2, g0=3, seed=0)
    S = SimilarityTensor.from_views(views, q=0.1)
    cfg = ModelConfig(d=6, g=3, seed=0, restarts=2)
    n_reg = cfg.reg_multiplier(S.n_items)
    runs = [model._fit_single(S, cfg, child, n_reg)
            for child in np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)]

    def live_loss(st, penalized):
        W = st.weights
        data = float((st.eta * view_divergences(st.logits, S)).sum())
        reg = sum(group_regularizer(W[l], cfg.epsilon) for l in np.nonzero(penalized)[0])
        mix = (1.0 - cfg.alpha) * np.log(st.lam[st.lam > 0.0]).sum()
        return data + n_reg * reg + mix

    for st in runs:
        assert st.loss_history[-1] == pytest.approx(live_loss(st, st.lam > 0.0), rel=1e-12)
    assert np.argmin([st.loss_history[-1] for st in runs]) == 1
    assert np.argmin([live_loss(st, np.ones(cfg.d, bool)) for st in runs]) == 0
    best = fit(S, cfg)
    np.testing.assert_array_equal(best.logits, runs[1].logits)
    assert best.loss_history == runs[1].loss_history


def test_divergence_matrix_shape():
    S, state = _manual_state(10, n_views=3, d=2)
    D = view_divergences(state.logits, S)
    assert D.shape == (3, 2)
    assert np.all(D >= 0.0)


def test_save_load_roundtrip(tmp_path, two_blob_fit):
    _, state, _ = two_blob_fit
    path = tmp_path / "state.json"
    save_fit_state(state, path)
    back = load_fit_state(path)
    np.testing.assert_array_equal(back.logits, state.logits)
    np.testing.assert_array_equal(back.lam, state.lam)
    np.testing.assert_array_equal(back.eta, state.eta)
    assert back.loss_history == state.loss_history
    assert back.config == state.config
    assert back.converged == state.converged
    assert back.converged_by == state.converged_by
    assert back.iterations == state.iterations


def test_saved_bytes_are_json_dump_bytes(tmp_path, two_blob_fit):
    # one json.dumps call (the C encoder) writes what json.dump's streaming
    # encoder writes for the same payload
    _, state, _ = two_blob_fit
    path = tmp_path / "state.json"
    save_fit_state(state, path)
    buf = io.StringIO()
    json.dump(json.loads(path.read_text(encoding="utf-8")), buf, sort_keys=True)
    buf.write("\n")
    assert path.read_bytes() == buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("key, value", [("iterations", 0), ("converged", False)])
def test_load_rejects_stored_counts_that_disagree_with_the_trail(tmp_path, two_blob_fit,
                                                                 key, value):
    # iterations and converged are derived from loss_history and
    # converged_by; a file whose stored copies disagree is rejected
    _, state, _ = two_blob_fit
    assert state.converged and state.iterations > 0
    path = tmp_path / "state.json"
    save_fit_state(state, path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload[key] = value
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValueError, match=f"stored {key}"):
        load_fit_state(path)


def test_load_rejects_version_1_file(tmp_path, two_blob_fit):
    _, state, _ = two_blob_fit
    path = tmp_path / "state.json"
    save_fit_state(state, path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["version"] = 1
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValueError, match="unsupported fit-state version 1"):
        load_fit_state(path)


def test_load_rejects_foreign_json(tmp_path):
    path = tmp_path / "bogus.json"
    path.write_text('{"hello": 1}', encoding="utf-8")
    with pytest.raises(ValueError, match="not a fit-state file"):
        load_fit_state(path)


def test_fit_on_clean_single_view_is_stable_across_restart_seeds():
    pts, labels = make_blobs(3, n_per=15)
    S = SimilarityTensor.from_views([pts])
    for seed in (0, 1):
        state = fit(S, ModelConfig(d=1, g=2, seed=seed))
        _, ests = view_estimates(state)
        est = ests[0]
        assert nmi(est.labels_pointwise, labels) == pytest.approx(1.0)
