"""Core model: simplex-factorized co-assignment probabilities fit by EM.

Each of d parameterizations carries an n x g weight matrix whose rows live on
the simplex (stored as unconstrained logits, materialized by a row softmax).
A parameterization's co-assignment matrix is P* = W W^T.  Views are soft-
assigned to parameterizations (E step); logits descend an Adam-driven
expected loss and the mixture weights move to their posterior mode (M step).

The fitted objective is

    reg_loss = sum_{v,l} eta_vl sum_{j<i} kl(p*_ij^(l), s_ij^(v))
             + sum_{l: lambda_l > 0} [n_reg R(W^(l)) + (1 - alpha) log(lambda_l)]

with kl the Bernoulli Kullback-Leibler divergence, R a column-wise group
penalty on log(w/epsilon) excesses, and alpha the Dirichlet concentration.
An entry with lambda_l = 0 is out of the model and adds no penalty.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field, asdict
from typing import NamedTuple

import numpy as np

from .similarity import SimilarityTensor, pair_indices

GROUP_SMOOTHING = 1e-12
INIT_NOISE = 1e-2
MERGE_DROP = 1.0
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
_P_LO = 1e-300
_P_HI = 1.0 - 1e-12


class FitDivergedError(RuntimeError):
    """Raised when a descent produces a non-finite loss or gradient."""


@dataclass
class ModelConfig:
    """Fit hyperparameters.  alpha_lambda defaults to 1/d and the group
    penalty multiplier defaults to the item count n, both resolved lazily.

    EM stops after the first iteration whose relative loss decrease is
    below rel_tol, or at max_iters iterations."""

    d: int
    g: int
    alpha_lambda: float | None = None
    epsilon: float = 1e-3
    n_reg_multiplier: float | None = None
    step_size: float = 0.01
    m_iters: int = 50
    max_iters: int = 2000
    rel_tol: float = 1e-4
    restarts: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if self.g < 1:
            raise ValueError(f"g must be >= 1, got {self.g}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.m_iters < 1 or self.max_iters < 1:
            raise ValueError("iteration counts must be >= 1")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.alpha_lambda is not None and self.alpha_lambda <= 0.0:
            raise ValueError(f"alpha_lambda must be positive, got {self.alpha_lambda}")
        if not 0.0 < self.step_size < np.inf:
            raise ValueError(f"step_size must be positive and finite, got {self.step_size}")
        if not 0.0 <= self.rel_tol < np.inf:
            raise ValueError(f"rel_tol must be >= 0 and finite, got {self.rel_tol}")
        if self.n_reg_multiplier is not None and not 0.0 <= self.n_reg_multiplier < np.inf:
            raise ValueError(f"n_reg_multiplier must be >= 0 and finite, got {self.n_reg_multiplier}")

    @property
    def alpha(self) -> float:
        return self.alpha_lambda if self.alpha_lambda is not None else 1.0 / self.d

    def reg_multiplier(self, n_items: int) -> float:
        scale = self.n_reg_multiplier if self.n_reg_multiplier is not None else 1.0
        return float(scale) * float(n_items)


@dataclass
class FitState:
    """Everything the EM loop carries: logits (d, n, g), mixture weights
    lambda (d,), responsibilities eta (V, d), and the loss trail.  The
    iteration count and the convergence flag are read off the trail and
    converged_by ("stationary", "rate", "cap", or "" before any EM)."""

    config: ModelConfig
    logits: np.ndarray
    lam: np.ndarray
    eta: np.ndarray
    loss_history: list = field(default_factory=list)
    converged_by: str = ""
    init_assignment: np.ndarray | None = None  # K-means view labels the fit started from

    @property
    def iterations(self) -> int:
        return len(self.loss_history) - 1

    @property
    def converged(self) -> bool:
        return self.converged_by in ("stationary", "rate")

    @property
    def weights(self) -> np.ndarray:
        return row_softmax(self.logits)

    @property
    def n_items(self) -> int:
        return self.logits.shape[1]


def row_softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, shifted by the row max for stability."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    w = np.exp(shifted)
    w /= w.sum(axis=-1, keepdims=True)
    return w


def kl_bernoulli(p, s):
    """Bernoulli KL divergence kl(p || s) with the 0 log 0 = 0 convention.

    p may touch {0, 1}; s must stay strictly inside (0, 1).
    """
    p = np.asarray(p, dtype=float)
    s = np.asarray(s, dtype=float)
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("p must lie in [0, 1]")
    if np.any(s <= 0.0) or np.any(s >= 1.0):
        raise ValueError("s must lie strictly inside (0, 1)")
    q = 1.0 - p
    with np.errstate(divide="ignore", invalid="ignore"):
        val = (np.where(p > 0.0, p * np.log(p / s), 0.0)
               + np.where(q > 0.0, q * np.log(q / (1.0 - s)), 0.0))
    if val.ndim == 0:
        return float(val)
    return val


def coassignment_matrix(weights: np.ndarray) -> np.ndarray:
    """P* = W W^T for one simplex weight matrix (n, g)."""
    return weights @ weights.T


def group_regularizer(weights: np.ndarray, epsilon: float) -> float:
    """Column-wise group penalty on one W.

    R(W) = sum_k [ sqrt(GROUP_SMOOTHING + sum_i max(0, log(w_ik / epsilon))^2)
                   - sqrt(GROUP_SMOOTHING) ]

    Zero exactly when every entry is at or below epsilon; the smoothing term
    keeps the gradient finite at fully shrunk columns.
    """
    h = np.maximum(0.0, np.log(weights) - np.log(epsilon))
    col_norms = np.sqrt(GROUP_SMOOTHING + (h * h).sum(axis=0))
    return float(col_norms.sum() - weights.shape[1] * np.sqrt(GROUP_SMOOTHING))


def dirichlet_penalty(lam: np.ndarray, alpha: float) -> float:
    """Negative log Dirichlet(alpha) kernel over the entries in the model,
    sum_{l: lambda_l > 0} (1 - alpha) log(lambda_l)."""
    lam = np.asarray(lam, dtype=float)
    return float((1.0 - alpha) * np.log(lam[lam > 0.0]).sum())


class PairWorkspace(NamedTuple):
    ii: np.ndarray
    jj: np.ndarray
    logit_flat: np.ndarray   # (V, npairs) log-odds of the similarities
    log1m_sum: np.ndarray    # (V,) sum over pairs of log(1 - s)


def pair_workspace(S: SimilarityTensor) -> PairWorkspace:
    """The pair indices of S's items next to its condensed log-odds."""
    ii, jj = pair_indices(S.n_items)
    return PairWorkspace(ii, jj, S.logit, S.log1m_sum)


def _coassignment_flat(logits: np.ndarray, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
    W = row_softmax(logits)
    P = W @ W.transpose(0, 2, 1)
    np.clip(P, _P_LO, _P_HI, out=P)
    return P[:, ii, jj]


def _entropy_part(pf: np.ndarray) -> np.ndarray:
    """Per parameterization, sum over pairs of p log(p / (1 - p)) + log(1 - p),
    the s-free part of sum kl(p, s)."""
    log1m_p = np.log1p(-pf)
    logit_p = np.log(pf) - log1m_p
    return (pf * logit_p + log1m_p).sum(axis=1)


def view_divergences(logits: np.ndarray, S: SimilarityTensor) -> np.ndarray:
    """Matrix D with D[v, l] = sum_{j<i} kl(p*_ij^(l), s_ij^(v)).

    The product with the log-odds runs as pf @ logit.T, which reads the
    rows of S.logit in place and is faster than logit @ pf.T."""
    ws = pair_workspace(S)
    pf = _coassignment_flat(logits, ws.ii, ws.jj)
    return _entropy_part(pf)[None, :] - (pf @ ws.logit_flat.T).T - ws.log1m_sum[:, None]


class KappaGamma(NamedTuple):
    """Per-parameterization sufficient statistics of the M-step objective:
    gamma (d,) responsibility masses, live the indices of the entries with
    gamma_l > 0, and kappa (live.size, n, n) their pair coefficients,
    kappa[r] for entry live[r], symmetric with a zero diagonal.  A dead
    entry's kappa is zero and is not stored; the M step leaves its logits.
    The data-fit loss is sum_l sum_{j<i} kappa_ij p*_ij
    + gamma_l [p* logit(p*) + log(1 - p*)] plus the eta-independent constant
    -sum_v sum_{j<i} log(1 - s^(v)) = -S.log1m_sum.sum()."""

    kappa: np.ndarray
    gamma: np.ndarray
    live: np.ndarray


def precompute_kappa_gamma(S: SimilarityTensor, eta: np.ndarray) -> KappaGamma:
    """kappa^(l) = -sum_v eta_vl logit(s^(v)) and gamma_l = sum_v eta_vl.

    kappa is built for the live entries (gamma_l > 0) only; a dead entry's
    kappa is the zero matrix, which its all-zero eta column gives anyway.
    The product eta.T @ S.logit reads the log-odds rows in place and
    covers the whole catalog: over the live columns of eta alone it has
    another shape, for which BLAS may pick another kernel and change the
    last bits."""
    ws = pair_workspace(S)
    n = S.n_items
    gamma = eta.sum(axis=0)
    live = np.nonzero(gamma > 0.0)[0]
    kappa_flat = -(eta.T @ ws.logit_flat)[live]
    kappa = np.zeros((live.size, n, n))
    kappa[:, ws.ii, ws.jj] = kappa_flat
    kappa[:, ws.jj, ws.ii] = kappa_flat
    return KappaGamma(kappa, gamma, live)


def expected_loss_gradient(logits: np.ndarray, precomp: KappaGamma, epsilon: float, n_reg: float,
                           pair_work: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Analytic gradient, with respect to the logits (live.size, n, g) of
    the entries precomp.live, the only ones the M step moves, of the
    kappa/gamma data loss plus n_reg times the group penalties (the
    Dirichlet term is constant in the logits).

    Per pair the data derivative is kappa + gamma * logit(p*), with
    logit(p*) = log(p* / (1 - p*)); chaining through P* = W W^T gives G W
    per parameterization, and the softmax rows map weight-space gradients
    u to w * (u - <u, w>).  pair_work, two (live.size, n, n) arrays,
    holds P* and G; a caller that passes the same pair on every call
    saves their allocation, and without it the call makes its own.
    """
    W = row_softmax(logits)
    h = np.log(W)
    h -= np.log(epsilon)
    np.maximum(0.0, h, out=h)
    col_norm = np.sqrt(GROUP_SMOOTHING + (h * h).sum(axis=1, keepdims=True))
    grad_w = np.multiply(n_reg, h, out=h)
    grad_w /= W * col_norm
    if pair_work is None:
        live, n, _ = W.shape
        pair_work = np.empty((live, n, n)), np.empty((live, n, n))
    P, G = pair_work
    np.matmul(W, W.transpose(0, 2, 1), out=P)
    np.clip(P, _P_LO, _P_HI, out=P)
    np.subtract(1.0, P, out=G)
    np.divide(P, G, out=G)
    np.log(G, out=G)
    G *= precomp.gamma[precomp.live, None, None]
    G += precomp.kappa
    idx = np.arange(W.shape[1])
    G[:, idx, idx] = 0.0
    grad_w += G @ W
    inner = (grad_w * W).sum(axis=2, keepdims=True)
    grad_w -= inner
    grad_w *= W
    return grad_w


def _adam_descend(logits: np.ndarray, precomp: KappaGamma, config: ModelConfig, n_reg: float) -> np.ndarray:
    """config.m_iters Adam iterations on the rows precomp.live (gamma_l > 0)
    jointly; the others come back unchanged (frozen for good under
    alpha <= 1, where lambda_l = 0; with alpha > 1 a row whose gamma
    underflows to 0 keeps lambda_l > 0 and can regain mass).  Moments
    start at zero for every call.

    The update runs in place, in the operation order of the textbook form
    m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g,
    x -= step (m / c1) / (sqrt(v / c2) + eps), so it gives the same bits
    (b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS).  Every gradient
    call reuses one pair workspace."""
    x = logits[precomp.live]
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    buf = np.empty_like(x)
    live, n, _ = x.shape
    pair_work = np.empty((live, n, n)), np.empty((live, n, n))
    for t in range(1, config.m_iters + 1):
        grad = expected_loss_gradient(x, precomp, config.epsilon, n_reg, pair_work)
        if not np.all(np.isfinite(grad)):
            raise FitDivergedError("non-finite gradient during descent")
        np.multiply(grad, 1.0 - ADAM_BETA2, out=buf)
        buf *= grad
        v *= ADAM_BETA2
        v += buf
        grad *= 1.0 - ADAM_BETA1
        m *= ADAM_BETA1
        m += grad
        np.divide(v, 1.0 - ADAM_BETA2 ** t, out=buf)
        np.sqrt(buf, out=buf)
        buf += ADAM_EPS
        np.divide(m, 1.0 - ADAM_BETA1 ** t, out=grad)
        grad *= config.step_size
        grad /= buf
        x -= grad
    out = logits.copy()
    out[precomp.live] = x
    return out


def lambda_mode_update(eta: np.ndarray, alpha: float) -> np.ndarray:
    """Posterior-mode mixture weights, lambda_l proportional to
    max(0, alpha - 1 + sum_v eta_vl).

    When every numerator vanishes the mass goes uniformly to the
    parameterizations with the largest responsibility column sum.
    """
    col = eta.sum(axis=0)
    raw = np.maximum(0.0, alpha - 1.0 + col)
    total = raw.sum()
    if total > 0.0:
        return raw / total
    winners = col == col.max()
    lam = np.zeros_like(col)
    lam[winners] = 1.0 / winners.sum()
    return lam


def m_step(state: FitState, precomp: KappaGamma, n_reg: float,
           update_lambda: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """One M step: Adam descent on the live logits against the expected
    loss plus n_reg times the group penalties, then the mode update for
    lambda.  Returns (logits, lambda) without mutating the state."""
    logits = _adam_descend(state.logits, precomp, state.config, n_reg)
    lam = lambda_mode_update(state.eta, state.config.alpha) if update_lambda else state.lam.copy()
    return logits, lam


def eta_from_divergences(divergences: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Responsibilities eta_vl proportional to lambda_l exp(-D_vl), computed
    in log space with a per-view max subtraction.  A zero lambda (log -inf)
    gives an exact zero column."""
    lam = np.asarray(lam, dtype=float)
    if not (lam > 0.0).any():
        raise ValueError("all mixture weights are zero")
    with np.errstate(divide="ignore"):
        log_eta = np.log(lam)[None, :] - divergences
    log_eta -= log_eta.max(axis=1, keepdims=True)
    eta = np.exp(log_eta)
    eta /= eta.sum(axis=1, keepdims=True)
    return eta


def reg_loss(state: FitState, S: SimilarityTensor) -> float:
    """Expected data-fit loss plus the group and Dirichlet penalties of the
    entries with lambda_l > 0; the quantity tracked for convergence and
    compared across restarts."""
    divergences = view_divergences(state.logits, S)
    return _reg_loss_from_divergences(state, divergences)


def _reg_loss_from_divergences(state: FitState, divergences: np.ndarray) -> float:
    cfg = state.config
    n_reg = cfg.reg_multiplier(state.n_items)
    W = state.weights
    reg = sum(group_regularizer(W[l], cfg.epsilon) for l in np.nonzero(state.lam > 0.0)[0])
    data = float((state.eta * divergences).sum())
    return data + n_reg * reg + dirichlet_penalty(state.lam, cfg.alpha)


def fit(S: SimilarityTensor, config: ModelConfig) -> FitState:
    """Full EM fit with restarts.

    Each restart initializes from its own derived seed, then alternates
    E step / kappa-gamma precompute / M step, recording reg_loss after every
    EM iteration.  An M step moves only the entries with gamma_l > 0; the
    others keep their logits (with alpha > 1, gamma can underflow to 0
    while lambda stays > 0, and the entry can regain mass).  An entry with
    lambda_l = 0 adds no penalty to reg_loss.  Convergence fires when two
    consecutive losses are bit-equal (nothing left to move, "stationary"),
    or after the first iteration whose relative decrease
    (prev - loss) / |prev| is below rel_tol ("rate"; a rise counts too);
    the cap is non-convergence ("cap").

    Descent alone can stop with a true cluster split over several near
    one-hot columns, which the objective scores well above the joined
    state.  So a converged EM run is followed by a column-merge step on
    every catalog entry with lambda > 0.  A trial folds a live column k
    (max weight above epsilon) into another live column j, w_j + w_k for
    every item, or into each item's runner-up live column, and drops
    column k below epsilon.  The best trial is kept if it lowers the
    entry's share of reg_loss, its data term plus its group penalty; with
    eta and lambda held, reg_loss changes by the same amount (see
    _merge_columns).  The step repeats until no trial lowers it.  After a
    kept merge EM resumes under the same stop rule, within the same
    max_iters budget, and the merge step follows its next convergence;
    if the resumed run ends above the loss it started from, the state
    from before the merges is returned.  loss_history keeps one entry per
    EM iteration.  The restart with the lowest final reg_loss wins.
    """
    children = np.random.SeedSequence(config.seed).spawn(config.restarts)
    n_reg = config.reg_multiplier(S.n_items)
    best: FitState | None = None
    last_error: Exception | None = None
    for child in children:
        try:
            state = _fit_single(S, config, child, n_reg)
        except FitDivergedError as err:
            last_error = err
            continue
        if best is None or state.loss_history[-1] < best.loss_history[-1]:
            best = state
    if best is None:
        raise FitDivergedError(f"every restart diverged; last error: {last_error}")
    return best


def _fit_single(S: SimilarityTensor, config: ModelConfig, seed, n_reg: float) -> FitState:
    from .initialization import initialize

    state = initialize(S, config, seed)
    _run_em(state, S, config, n_reg)
    while state.converged and state.iterations < config.max_iters:
        before = copy.deepcopy(state)
        if not _merge_columns(state, S, n_reg):
            break
        _run_em(state, S, config, n_reg)
        if state.loss_history[-1] > before.loss_history[-1]:
            return before
    return state


def _run_em(state: FitState, S: SimilarityTensor, config: ModelConfig, n_reg: float) -> None:
    """EM iterations on the state until the stop rule fires or the total
    count reaches max_iters.

    The stop rule (see fit) looks at the last step only.  After a kept
    merge, the first resumed step is measured from the last loss before
    the merge, so the merge's own gain counts in that step.

    Only entries with gamma_l > 0 move, and only entries with lambda_l > 0
    carry penalties (see fit).  Each E step reads every view's log-odds
    row once (view_divergences) and covers the whole catalog: over the
    live entries alone its product has another shape, for which BLAS may
    pick another kernel and change the loss."""
    history = state.loss_history
    divergences = view_divergences(state.logits, S)
    for _ in range(config.max_iters - (len(history) - 1)):
        state.eta = eta_from_divergences(divergences, state.lam)
        precomp = precompute_kappa_gamma(S, state.eta)
        state.logits, state.lam = m_step(state, precomp, n_reg)
        divergences = view_divergences(state.logits, S)
        loss = _reg_loss_from_divergences(state, divergences)
        if not np.isfinite(loss):
            raise FitDivergedError("non-finite loss during descent")
        history.append(loss)
        if history[-1] == history[-2]:
            state.converged_by = "stationary"
            break
        decrease = (history[-2] - history[-1]) / max(abs(history[-2]), 1e-300)
        if decrease < config.rel_tol:
            state.converged_by = "rate"
            break
    else:
        state.converged_by = "cap"


def _merged_logits(logits: np.ndarray, k: int, targets: np.ndarray, epsilon: float) -> np.ndarray:
    """One entry's (n, g) logits with column k folded into column targets[i]
    of each row i (weights w_t + w_k).  Column k is then set to the row
    minimum plus log(epsilon) - MERGE_DROP, which puts its weights under
    epsilon / e."""
    out = logits.copy()
    rows = np.arange(out.shape[0])
    floor = out.min(axis=1)
    out[rows, targets] = np.logaddexp(out[rows, targets], out[:, k])
    out[:, k] = floor + np.log(epsilon) - MERGE_DROP
    return out


def _entry_loss(logits: np.ndarray, kappa_flat: np.ndarray, gamma: float,
                ws: PairWorkspace, epsilon: float, n_reg: float) -> float:
    """One catalog entry's share of reg_loss, up to a constant in its logits:
    the data term in kappa/gamma form (see KappaGamma) plus the entry's
    group penalty."""
    pf = _coassignment_flat(logits[None], ws.ii, ws.jj)
    data = kappa_flat @ pf[0] + gamma * _entropy_part(pf)[0]
    return float(data) + n_reg * group_regularizer(row_softmax(logits), epsilon)


def _merge_columns(state: FitState, S: SimilarityTensor, n_reg: float) -> bool:
    """Greedy column merges on every catalog entry with lambda > 0, eta and
    lambda held fixed.  A trial is scored on _entry_loss alone: with eta
    and lambda held, sum_v eta_vl D_vl is gamma_l ent(p_l) + kappa_l . p_l
    minus the constant sum_v eta_vl log1m_sum_v, so the entry's loss and
    reg_loss change by the same amount.  The best trial is kept when it
    lowers the entry's loss, in place in state.logits.  Returns whether
    any merge was kept."""
    eps = state.config.epsilon
    ws = pair_workspace(S)
    kept = False
    for l in np.nonzero(state.lam > 0.0)[0]:
        kappa_flat = -(state.eta[:, l] @ ws.logit_flat)
        gamma = float(state.eta[:, l].sum())
        while True:
            current = _entry_loss(state.logits[l], kappa_flat, gamma, ws, eps, n_reg)
            live = np.nonzero(row_softmax(state.logits[l]).max(axis=0) > eps)[0]
            if live.size < 2:
                break
            best, best_loss = None, current
            for k in live:
                others = live[live != k]
                runner_up = others[state.logits[l][:, others].argmax(axis=1)]
                targets = [runner_up] + [np.full(state.n_items, j) for j in others[others < k]]
                for t in targets:
                    trial = _merged_logits(state.logits[l], k, t, eps)
                    trial_loss = _entry_loss(trial, kappa_flat, gamma, ws, eps, n_reg)
                    if trial_loss < best_loss:
                        best, best_loss = trial, trial_loss
            if best is None:
                break
            state.logits[l] = best
            kept = True
    return kept


FIT_STATE_FORMAT = "mvsimplex-fit-state"
FIT_STATE_VERSION = 2


def save_fit_state(state: FitState, path) -> None:
    payload = {
        "format": FIT_STATE_FORMAT,
        "version": FIT_STATE_VERSION,
        "config": asdict(state.config),
        "logits": state.logits.tolist(),
        "lambda": state.lam.tolist(),
        "eta": state.eta.tolist(),
        "loss_history": [float(x) for x in state.loss_history],
        "iterations": state.iterations,
        "converged": state.converged,
        "converged_by": state.converged_by,
        "init_assignment": None if state.init_assignment is None
        else [int(x) for x in state.init_assignment],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def load_fit_state(path) -> FitState:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != FIT_STATE_FORMAT:
        raise ValueError(f"{path}: not a fit-state file")
    if payload.get("version") != FIT_STATE_VERSION:
        raise ValueError(f"{path}: unsupported fit-state version {payload.get('version')}")
    state = FitState(
        config=ModelConfig(**payload["config"]),
        logits=np.asarray(payload["logits"], dtype=float),
        lam=np.asarray(payload["lambda"], dtype=float),
        eta=np.asarray(payload["eta"], dtype=float),
        loss_history=[float(x) for x in payload["loss_history"]],
        converged_by=str(payload["converged_by"]),
        init_assignment=None if payload.get("init_assignment") is None
        else np.asarray(payload["init_assignment"], dtype=int),
    )
    for key in ("iterations", "converged"):
        if payload[key] != getattr(state, key):
            raise ValueError(f"{path}: stored {key} = {payload[key]!r} disagrees with "
                             f"loss_history and converged_by ({getattr(state, key)!r})")
    return state
