"""Which program functions the traced run wraps, and the per-layer metrics
computed from the spans.

Each function is wrapped in every namespace that callers look it up in:
``initialization`` imported ``pair_workspace``, ``precompute_kappa_gamma``
and ``m_step`` by name, the CLI imported ``fit``, ``view_estimates``,
``consensus_matrix`` and ``verify_theorem``, and ``partition`` imported
``nmi``.  Wrapping only the defining module would miss those calls.
``postprocess.kmeans_pp`` (spectral labelling) is left unwrapped so that
``initialization.kmeans_s`` counts only the K-means++ start of the fit.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path

from tracing import Span, Tracer, percentile, self_times

# (module of mvsimplex, attribute path in it, span name)
WRAPS = [
    ("cli", "_load_data", "cli.load"),
    ("cli", "save_fit_state", "cli.write"),
    ("cli", "_save_csv", "cli.write"),
    ("cli", "_write_kv", "cli.write"),
    ("cli", "_write_manifest", "cli.write"),
    ("similarity", "similarity_matrix", "similarity.build"),
    ("model", "pair_workspace", "model.pair_workspace"),
    ("initialization", "pair_workspace", "model.pair_workspace"),
    ("initialization", "initialize", "initialization.initialize"),
    ("initialization", "kmeans_pp", "initialization.kmeans"),
    ("model", "view_divergences", "model.e_step"),
    ("model", "precompute_kappa_gamma", "model.kappa"),
    ("initialization", "precompute_kappa_gamma", "model.kappa"),
    ("model", "m_step", "model.m_step"),
    ("initialization", "m_step", "model.m_step"),
    ("model", "expected_loss_gradient", "model.grad"),
    ("model", "_reg_loss_from_divergences", "model.loss"),
    ("cli", "view_estimates", "postprocess.view_estimates"),
    ("postprocess", "spectral_labels", "postprocess.spectral"),
    ("cli", "consensus_matrix", "postprocess.consensus"),
    ("cli", "verify_theorem", "partition.verify"),
    ("partition", "sample_partition_labels", "partition.sample"),
    ("partition", "canonicalize_labels", "partition.canon"),
    ("partition", "_LossTable.loss_vector", "partition.loss"),
    ("partition", "nmi", "metrics.nmi"),
]


def _draws(args, kwargs):
    return "partition.draws", args[1] if len(args) > 1 else kwargs["size"]


def _lookups(args, kwargs):
    return "partition.loss_lookups", len(args[1] if len(args) > 1 else kwargs["a_ids"])


COUNTERS = {"partition.sample": _draws, "partition.loss": _lookups}

# name -> (unit, better); BENCHMARK.json lists the same names in this order.
PER_LAYER = {
    "cli.load_s": ("s", "lower"),
    "cli.write_s": ("s", "lower"),
    "similarity.build_s": ("s", "lower"),
    "similarity.calls": ("count", "lower"),
    "model.pair_workspace_s": ("s", "lower"),
    "initialization.kmeans_s": ("s", "lower"),
    "initialization.initialize_s": ("s", "lower"),
    "model.e_step_s": ("s", "lower"),
    "model.e_step_calls": ("count", "lower"),
    "model.kappa_s": ("s", "lower"),
    "model.m_step_s": ("s", "lower"),
    "model.m_step_calls": ("count", "lower"),
    "model.adam_self_s": ("s", "lower"),
    "model.grad_s": ("s", "lower"),
    "model.grad_calls": ("count", "lower"),
    "model.grad_ms_p50": ("ms", "lower"),
    "model.grad_ms_p99": ("ms", "lower"),
    "model.loss_s": ("s", "lower"),
    "model.em_iters": ("count", "lower"),
    "model.iters_after_flat": ("count", "lower"),
    "postprocess.view_estimates_s": ("s", "lower"),
    "postprocess.spectral_s": ("s", "lower"),
    "postprocess.spectral_calls": ("count", "lower"),
    "postprocess.consensus_s": ("s", "lower"),
    "partition.verify_s": ("s", "lower"),
    "partition.verify_self_s": ("s", "lower"),
    "partition.sample_s": ("s", "lower"),
    "partition.draws": ("count", "lower"),
    "partition.canon_s": ("s", "lower"),
    "partition.loss_s": ("s", "lower"),
    "partition.loss_lookups": ("count", "lower"),
    "partition.loss_hit_ratio": ("1", "higher"),
    "metrics.nmi_s": ("s", "lower"),
    "metrics.nmi_calls": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

FLAT_REL_DECREASE = 1e-5


def install(tracer: Tracer) -> None:
    """Wrap every function in WRAPS; ``tracer.close()`` undoes it."""
    for mod_name, path, span_name in WRAPS:
        owner = importlib.import_module(f"mvsimplex.{mod_name}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        tracer.wrap(owner, attr, span_name, COUNTERS.get(span_name))


def iters_after_flat(history: list[float], tol: float = FLAT_REL_DECREASE) -> int:
    """EM iterations run after the relative loss decrease first fell below tol."""
    for k in range(1, len(history)):
        prev = history[k - 1]
        if (prev - history[k]) / max(abs(prev), 1e-300) < tol:
            return len(history) - 1 - k
    return 0


def fit_counts(outdir: Path) -> tuple[int, int]:
    """(EM iterations, iterations after the loss went flat) of a fit's artifacts."""
    state = json.loads((outdir / "fit_state.json").read_text(encoding="utf-8"))
    return int(state["iterations"]), iters_after_flat(state["loss_history"])


def layer_metrics(spans: list[Span], counters: dict[str, int],
                  fit_iters: tuple[int, int] | None) -> dict[str, float]:
    """Per-layer numbers of one traced operation (every name in PER_LAYER
    except trace.overhead_s, which needs the untraced time)."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    own = self_times(spans)

    def total(name):
        return sum(s.duration for s in by_name.get(name, []))

    def calls(name):
        return len(by_name.get(name, []))

    def self_total(name):
        return sum(own[s.span_id] for s in by_name.get(name, []))

    grad_ms = [1e3 * s.duration for s in by_name.get("model.grad", [])]
    lookups = counters.get("partition.loss_lookups", 0)
    em_iters, after_flat = fit_iters if fit_iters is not None else (0, 0)
    return {
        "cli.load_s": total("cli.load"),
        "cli.write_s": total("cli.write"),
        "similarity.build_s": total("similarity.build"),
        "similarity.calls": calls("similarity.build"),
        "model.pair_workspace_s": total("model.pair_workspace"),
        "initialization.kmeans_s": total("initialization.kmeans"),
        "initialization.initialize_s": total("initialization.initialize"),
        "model.e_step_s": total("model.e_step"),
        "model.e_step_calls": calls("model.e_step"),
        "model.kappa_s": total("model.kappa"),
        "model.m_step_s": total("model.m_step"),
        "model.m_step_calls": calls("model.m_step"),
        "model.adam_self_s": self_total("model.m_step"),
        "model.grad_s": total("model.grad"),
        "model.grad_calls": calls("model.grad"),
        "model.grad_ms_p50": percentile(grad_ms, 50),
        "model.grad_ms_p99": percentile(grad_ms, 99),
        "model.loss_s": total("model.loss"),
        "model.em_iters": em_iters,
        "model.iters_after_flat": after_flat,
        "postprocess.view_estimates_s": total("postprocess.view_estimates"),
        "postprocess.spectral_s": total("postprocess.spectral"),
        "postprocess.spectral_calls": calls("postprocess.spectral"),
        "postprocess.consensus_s": total("postprocess.consensus"),
        "partition.verify_s": total("partition.verify"),
        "partition.verify_self_s": self_total("partition.verify"),
        "partition.sample_s": total("partition.sample"),
        "partition.draws": counters.get("partition.draws", 0),
        "partition.canon_s": total("partition.canon"),
        "partition.loss_s": total("partition.loss"),
        "partition.loss_lookups": lookups,
        "partition.loss_hit_ratio": 1.0 - calls("metrics.nmi") / lookups if lookups else 0.0,
        "metrics.nmi_s": total("metrics.nmi"),
        "metrics.nmi_calls": calls("metrics.nmi"),
    }
