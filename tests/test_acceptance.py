"""Acceptance suite: one test per shipping criterion.

Every test prints a single PASS/FAIL line with the measured numbers
(visible under `pytest -s`); the assertion message carries the same text.
Criteria that the implementation cannot meet are asserted at their stated
tolerance anyway and fail honestly; the analysis lives in the project
notes, not here.

The heavyweight fixtures (full fits) are module-scoped and shared between
criteria, so the whole file runs in a few minutes on a desktop CPU.
"""

import time

import numpy as np
import pytest

from mvsimplex.cli import main, two_block_matrix
from mvsimplex.datagen import consensus_views, multi_view, single_view
from mvsimplex.metrics import mad, nmi
from mvsimplex.model import (
    ModelConfig,
    expected_loss_gradient,
    fit,
    precompute_kappa_gamma,
    row_softmax,
)
from mvsimplex.partition import (
    canonicalize_labels,
    sample_partition_labels,
    verify_theorem,
)
from mvsimplex.postprocess import consensus_matrix, spectral_labels, view_estimates
from mvsimplex.similarity import SimilarityTensor, ViewData, similarity_matrix

from conftest import make_dense, make_tensor
from oracles import (
    ClusterGraph,
    chi_square_pvalue,
    consensus_oracle_nmi,
    data_fit_loss,
    descent_objective,
    exact_partition_distribution,
    mixture_log_densities,
    numeric_gradient,
    oracle_coassignment,
    refactored_data_loss,
)

pytestmark = pytest.mark.acceptance

SEEDS = range(5)


def report(num: int, ok: bool, detail: str) -> None:
    line = "%s criterion %02d: %s" % ("PASS" if ok else "FAIL", num, detail)
    print(line)
    assert ok, line


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def table_runs():
    """Fits for the six two-cluster settings, five seeds each.

    Returns per-setting lists of pointwise-label NMI, MAD against the
    oracle co-assignment, spectral-on-S NMI, plus the wall time of the
    (a)-(c) block.
    """
    out = {}
    elapsed_abc = 0.0
    for setting in "abcdef":
        logps, wts = mixture_log_densities(setting)
        rows = {"nmi": [], "mad": [], "spectral": []}
        t0 = time.time()
        for seed in SEEDS:
            view, z = single_view(setting, 400, seed)
            S = SimilarityTensor.from_views([view], q=0.1)
            state = fit(S, ModelConfig(d=1, g=2, seed=seed))
            _, ests = view_estimates(state, seed=seed)
            est = ests[0]
            rows["nmi"].append(nmi(est.labels_pointwise, z))
            rows["mad"].append(mad(est.p_hat, oracle_coassignment(view.values, logps, wts)))
            rows["spectral"].append(nmi(spectral_labels(similarity_matrix(view, q=0.1), 2, seed), z))
        if setting in "abc":
            elapsed_abc += time.time() - t0
        out[setting] = rows
    out["elapsed_abc"] = elapsed_abc
    return out


@pytest.fixture(scope="module")
def multiview_runs():
    """Reduced-scale multi-view recovery fits, five seeds."""
    rows = []
    t0 = time.time()
    for seed in SEEDS:
        views, x0, _ = multi_view(n=150, v=500, d0=5, g0=3, seed=seed)
        S = SimilarityTensor.from_views(views, q=0.1)
        state = fit(S, ModelConfig(d=10, g=10, seed=seed))
        rows.append({
            "init_nmi": nmi(state.init_assignment, x0),
            "final_nmi": nmi(view_estimates(state, seed=seed)[0], x0),
            "active": int((state.lam > 0.01).sum()),
        })
    return {"rows": rows, "elapsed": time.time() - t0}


# ---------------------------------------------------------------- criteria


def test_criterion_01_two_cluster_nmi_bands(table_runs):
    means = {s: float(np.mean(table_runs[s]["nmi"])) for s in "abc"}
    ok = (
        means["a"] >= 0.95
        and abs(means["b"] - 0.89) <= 0.10
        and abs(means["c"] - 0.70) <= 0.10
        and table_runs["elapsed_abc"] < 300.0
    )
    report(1, ok, "5-seed mean NMI a=%.4f (>=0.95) b=%.4f (0.89+-0.10) "
                  "c=%.4f (0.70+-0.10), %.0fs (<300s)"
           % (means["a"], means["b"], means["c"], table_runs["elapsed_abc"]))


def test_criterion_02_heavy_tail_robustness(table_runs):
    lsp = float(np.mean(table_runs["f"]["nmi"]))
    spec = float(np.mean(table_runs["f"]["spectral"]))
    ok = lsp >= 0.25 and spec <= 0.1
    report(2, ok, "heavy-tail NMI model=%.4f (>=0.25) spectral-on-S=%.4f (<=0.1)"
           % (lsp, spec))


def test_criterion_03_coassignment_calibration(table_runs):
    means = {s: float(np.mean(table_runs[s]["mad"])) for s in "abcdef"}
    ok = all(v <= 0.10 for v in means.values())
    report(3, ok, "5-seed mean MAD vs oracle (<=0.10 each): " +
           " ".join("%s=%.4f" % kv for kv in sorted(means.items())))


def test_criterion_04_overfitted_cluster_count():
    hits = []
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        centers = np.array([[0.0, 0.0], [8.0, 8.0], [-8.0, 8.0]])
        z = np.repeat([0, 1, 2], 34)[:100]
        y = centers[z] + rng.standard_normal((100, 2))
        S = SimilarityTensor.from_views([ViewData(y)], q=0.1)
        state = fit(S, ModelConfig(d=1, g=10, seed=seed))
        _, ests = view_estimates(state, seed=seed)
        hits.append(ests[0].g_hat)
    ok = sum(g == 3 for g in hits) >= 4
    report(4, ok, "fitted cluster counts with g=10 on 3-cluster data: %s "
                  "(need g_hat=3 on >=4/5 seeds)" % hits)


def test_criterion_05_multiview_recovery(multiview_runs):
    rows = multiview_runs["rows"]
    good = sum(
        r["init_nmi"] >= 0.7 and r["active"] == 5 and r["final_nmi"] >= 0.9
        for r in rows
    )
    ok = good >= 4 and multiview_runs["elapsed"] < 900.0
    report(5, ok, "seeds passing init>=0.7 & active==5 & final>=0.9: %d/5 "
                  "(init %s, active %s, final %s), %.0fs (<900s)"
           % (good,
              [round(r["init_nmi"], 3) for r in rows],
              [r["active"] for r in rows],
              [round(r["final_nmi"], 3) for r in rows],
              multiview_runs["elapsed"]))


def test_criterion_06_consensus_structure():
    views, labels, _ = consensus_views(200, seed=0)
    S = SimilarityTensor.from_views(views, q=0.1)
    state = fit(S, ModelConfig(d=10, g=10, seed=0))
    cons = consensus_matrix(*view_estimates(state))
    u = cons.weights.astype(int)
    val = nmi(spectral_labels(cons.matrix, 3, seed=0), labels[1])
    # the groups overlap at unit noise: the consensus of the two structured
    # views' oracle co-assignments is the reachable reference, with the
    # +-0.10 width of criterion 01's bands
    ref = consensus_oracle_nmi(views[:2], labels[1])
    ok = bool((u[2:] == 0).all()) and val >= ref - 0.10
    report(6, ok, "structure flags u=%s (views 3-10 need 0), consensus NMI "
                  "vs 3-cluster truth %.4f (>= oracle consensus %.4f - 0.10)"
           % (u.tolist(), val, ref))


def test_criterion_07_gradient_check():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n_views = int(rng.integers(1, 4))
        n = int(rng.integers(6, 11))
        d = int(rng.integers(1, 4))
        g = int(rng.integers(2, 5))
        S = make_tensor(seed + 1000, n_views=n_views, n=n)
        logits = rng.normal(size=(d, n, g))
        eta = rng.uniform(0.05, 1.0, size=(n_views, d))
        eta /= eta.sum(axis=1, keepdims=True)
        pc = precompute_kappa_gamma(S, eta)
        analytic = expected_loss_gradient(logits, pc, 1e-3, float(n))
        numeric = numeric_gradient(
            lambda x: descent_objective(x, pc, 1e-3, float(n)), logits, step=1e-5
        )
        rel = np.abs(analytic - numeric).max() / max(np.abs(numeric).max(), 1e-12)
        worst = max(worst, rel)
    ok = worst < 1e-5
    report(7, ok, "max relative gradient error over 20 instances %.3e (<1e-5)" % worst)


def test_criterion_08_loss_refactoring_equivalence():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        S = make_tensor(seed + 100, n_views=3, n=14)
        logits = rng.normal(size=(2, 14, 3)) * 2
        eta = rng.uniform(0.1, 1.0, size=(3, 2))
        eta /= eta.sum(axis=1, keepdims=True)
        pc = precompute_kappa_gamma(S, eta)
        W = row_softmax(logits)
        p = np.clip(np.einsum("lik,ljk->lij", W, W), 1e-300, 1 - 1e-12)
        direct = data_fit_loss(p, make_dense(seed + 100, n_views=3, n=14), eta)
        refact = refactored_data_loss(logits, pc) - S.log1m_sum.sum()
        worst = max(worst, abs(direct - refact) / max(1.0, abs(direct)))
    ok = worst <= 1e-10
    report(8, ok, "max |direct - (refactored + constant)| relative gap %.3e (<=1e-10)"
           % worst)


def test_criterion_09_risk_bound_holds():
    P = two_block_matrix(5, 0.9, 0.1)
    rep = verify_theorem(P, [P] * 5, 5, 0.2, 500, seed=0)
    ok = rep.holds_fraction >= 0.77
    report(9, ok, "bound holds on %.4f of %d evaluated replications (>=0.77, "
                  "%d skipped)" % (rep.holds_fraction, rep.evaluated, rep.skipped))


def test_criterion_10_partition_sampler_validity():
    rng = np.random.default_rng(0)
    P8 = two_block_matrix(8, 0.9, 0.1)
    labels = sample_partition_labels(P8, 10_000, rng)
    transitive = labels.min() >= 0 and all(
        ClusterGraph.from_labels(labels[i]).is_valid() for i in range(labels.shape[0])
    )

    P3 = np.array([[1.0, 0.7, 0.2], [0.7, 1.0, 0.4], [0.2, 0.4, 1.0]])
    exact = exact_partition_distribution(P3)
    keys = sorted(exact)
    draws = canonicalize_labels(sample_partition_labels(P3, 10_000, rng))
    counts = np.array([
        int((draws == np.array(k)).all(axis=1).sum()) for k in keys
    ])
    pval = chi_square_pvalue(counts, np.array([exact[k] for k in keys]))
    ok = transitive and pval > 0.01
    report(10, ok, "10^4 n=8 draws all transitive: %s; n=3 law vs enumeration "
                   "chi-square p=%.4f (>0.01)" % (transitive, pval))


def test_criterion_11_byte_identical_reruns(tmp_path):
    rng = np.random.default_rng(5)
    pts = np.vstack([rng.normal(0, 1, (12, 2)), rng.normal(6, 1, (12, 2))])
    data = tmp_path / "data.csv"
    np.savetxt(data, pts, delimiter=",")

    def run(cmd: list, out: str):
        outdir = tmp_path / out
        assert main(cmd + ["--out", str(outdir)]) == 0
        return {
            p.name: p.read_bytes()
            for p in sorted(outdir.iterdir())
            if p.suffix in (".csv", ".json")
        }

    fit_cmd = ["fit", "--data", str(data), "--d", "1", "--g", "3", "--seed", "7"]
    ver_cmd = ["verify-bound", "--n", "4", "--m", "3", "--replications", "40",
               "--seed", "3"]
    sim_cmd = ["simulate", "--kind", "single", "--setting", "b", "--n", "30",
               "--seed", "2"]
    same = (
        run(fit_cmd, "f1") == run(fit_cmd, "f2")
        and run(ver_cmd, "v1") == run(ver_cmd, "v2")
        and run(sim_cmd, "s1") == run(sim_cmd, "s2")
    )
    report(11, same, "fit/verify-bound/simulate reruns byte-identical: %s" % same)
