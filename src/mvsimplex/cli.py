"""Command line entry points: simulate, fit, verify-bound, metrics, screen.

Artifacts are plain CSV/JSON/text with fixed float formatting and no
timestamps, so rerunning a command with the same inputs and seed rewrites
byte-identical files.  Options can come from flags or from a ``--config``
file of ``key = value`` lines; flags win.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .datagen import consensus_views, multi_view, screen_columns, single_view
from .metrics import mad, nmi
from .model import ModelConfig, fit, save_fit_state
from .partition import verify_theorem
from .postprocess import consensus_matrix, view_estimates
from .similarity import DEFAULT_QUANTILE, SimilarityTensor, ViewData

FLOAT_FMT = "%.17g"

# (name, converter, default); None default means "must be supplied" for
# d/g/top_v, and for the other ModelConfig fields "ModelConfig's default"
SIM_OPTS = [
    ("kind", str, "single"),
    ("setting", str, "c"),
    ("n", int, 400),
    ("v", int, 500),
    ("d0", int, 5),
    ("g0", int, 3),
    ("dirichlet_alpha", float, 0.5),
    ("seed", int, 0),
]

FIT_OPTS = [
    ("views", str, "cols"),
    ("d", int, None),
    ("g", int, None),
    ("alpha_lambda", float, None),
    ("epsilon", float, None),
    ("quantile", float, DEFAULT_QUANTILE),
    ("step_size", float, None),
    ("m_iters", int, None),
    ("max_iters", int, None),
    ("rel_tol", float, None),
    ("restarts", int, None),
    ("seed", int, None),
]

VERIFY_OPTS = [
    ("n", int, 5),
    ("m", int, 5),
    ("delta", float, 0.2),
    ("replications", int, 500),
    ("p_in", float, 0.9),
    ("p_out", float, 0.1),
    ("empirical_draws", int, 2000),
    ("generalization_draws", int, 10000),
    ("mc_slack", float, 0.03),
    ("seed", int, 0),
]

SCREEN_OPTS = [
    ("top_v", int, None),
    ("seed", int, 0),
]


def parse_config_file(path) -> dict[str, str]:
    out = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def resolve_options(args, table) -> dict:
    cfg = parse_config_file(args.config) if getattr(args, "config", None) else {}
    allowed = {name for name, _, _ in table}
    unknown = sorted(set(cfg) - allowed)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    out = {}
    for name, conv, default in table:
        value = getattr(args, name)
        if value is None and name in cfg:
            value = conv(cfg[name])
        if value is None:
            value = default
        out[name] = value
    return out


def _spec_int(token: str, part: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(
            f"bad views spec {part!r}: expected 'cols', 'width:K', "
            f"or column ranges like '0-1,2-5,6'"
        ) from None


def parse_view_groups(spec: str, n_cols: int) -> list[np.ndarray]:
    """Column groups from a --views spec: 'cols', 'width:K', or '0-1,2-5,6'."""
    if spec == "cols":
        return [np.array([j]) for j in range(n_cols)]
    if spec.startswith("width:"):
        width = _spec_int(spec[len("width:"):], spec)
        if width < 1:
            raise ValueError(f"view width must be >= 1, got {width}")
        if n_cols % width != 0:
            raise ValueError(f"{n_cols} columns do not split into blocks of {width}")
        return [np.arange(j, j + width) for j in range(0, n_cols, width)]
    groups = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            raise ValueError(f"empty entry in views spec {spec!r}")
        if "-" in part:
            lo_s, _, hi_s = part.partition("-")
            lo, hi = _spec_int(lo_s, part), _spec_int(hi_s, part)
            if lo > hi:
                raise ValueError(f"bad column range {part!r}")
            groups.append(np.arange(lo, hi + 1))
        else:
            groups.append(np.array([_spec_int(part, part)]))
    for grp in groups:
        if grp.min() < 0 or grp.max() >= n_cols:
            raise ValueError(f"views spec {spec!r} exceeds the {n_cols} data columns")
    return groups


def _load_data(path) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the empty-file warning; we raise instead
        data = np.loadtxt(path, delimiter=",", ndmin=2)
    if data.size == 0:
        raise ValueError(f"{path}: empty input file")
    return data


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _save_csv(outdir: Path, name: str, arr, fmt: str, names: list) -> None:
    np.savetxt(outdir / name, np.asarray(arr), delimiter=",", fmt=fmt)
    names.append(name)


def _write_kv(outdir: Path, name: str, pairs, names: list) -> None:
    text = "".join(f"{key} = {value}\n" for key, value in pairs)
    (outdir / name).write_text(text, encoding="utf-8")
    names.append(name)


def _write_manifest(outdir: Path, names: list, seed: int) -> None:
    lines = ["artifact,seed"] + [f"{name},{seed}" for name in names]
    (outdir / "manifest.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_simulate(args) -> None:
    opts = resolve_options(args, SIM_OPTS)
    outdir = _outdir(args)
    kind, seed = opts["kind"], opts["seed"]
    names: list = []
    if kind == "single":
        view, z = single_view(opts["setting"], opts["n"], seed)
        _save_csv(outdir, "data.csv", view.values, FLOAT_FMT, names)
        _save_csv(outdir, "labels_true.csv", z, "%d", names)
        echo = [("kind", kind), ("setting", opts["setting"]), ("n", opts["n"]), ("seed", seed)]
    elif kind == "multi":
        views, x0, labels = multi_view(
            opts["n"], opts["v"], d0=opts["d0"], g0=opts["g0"],
            dirichlet_alpha=opts["dirichlet_alpha"], seed=seed,
        )
        _save_csv(outdir, "data.csv", np.hstack([v.values for v in views]), FLOAT_FMT, names)
        _save_csv(outdir, "labels_true.csv", labels, "%d", names)
        _save_csv(outdir, "x_true.csv", x0, "%d", names)
        echo = [("kind", kind), ("n", opts["n"]), ("v", opts["v"]), ("d0", opts["d0"]),
                ("g0", opts["g0"]), ("dirichlet_alpha", opts["dirichlet_alpha"]), ("seed", seed)]
    elif kind == "consensus":
        views, labels, structured = consensus_views(opts["n"], seed)
        data = np.column_stack([v.values.ravel() for v in views])
        _save_csv(outdir, "data.csv", data, FLOAT_FMT, names)
        _save_csv(outdir, "labels_true.csv", labels, "%d", names)
        _save_csv(outdir, "structured.csv", structured.astype(int), "%d", names)
        echo = [("kind", kind), ("n", opts["n"]), ("seed", seed)]
    else:
        raise ValueError(f"unknown simulate kind {kind!r} (single, multi, consensus)")
    _write_kv(outdir, "sim_config.txt", echo, names)
    _write_manifest(outdir, names, seed)


def cmd_fit(args) -> None:
    opts = resolve_options(args, FIT_OPTS)
    if opts["d"] is None or opts["g"] is None:
        raise ValueError("fit needs both d and g (flag or config file)")
    data = _load_data(args.data)
    groups = parse_view_groups(opts["views"], data.shape[1])
    views = [ViewData(values=data[:, grp], view_id=i + 1) for i, grp in enumerate(groups)]
    S = SimilarityTensor.from_views(views, q=opts["quantile"])
    model_keys = {f.name for f in fields(ModelConfig)}
    config = ModelConfig(**{k: v for k, v in opts.items() if k in model_keys and v is not None})
    state = fit(S, config)
    x_hat, estimates = view_estimates(state, seed=config.seed)
    cons = consensus_matrix(x_hat, estimates)
    views = [estimates[x] for x in x_hat]

    outdir = _outdir(args)
    names: list = []
    save_fit_state(state, outdir / "fit_state.json")
    names.append("fit_state.json")
    _save_csv(outdir, "x_hat.csv", x_hat, "%d", names)
    _save_csv(outdir, "g_hat.csv", np.array([est.g_hat for est in views]), "%d", names)
    _save_csv(outdir, "labels_joint.csv", np.stack([est.labels_joint for est in views]), "%d", names)
    _save_csv(outdir, "labels_pointwise.csv", np.stack([est.labels_pointwise for est in views]), "%d", names)
    _save_csv(outdir, "lambda.csv", state.lam, FLOAT_FMT, names)
    _save_csv(outdir, "eta.csv", state.eta, FLOAT_FMT, names)
    _save_csv(outdir, "loss_history.csv", np.asarray(state.loss_history), FLOAT_FMT, names)
    for x, est in estimates.items():
        _save_csv(outdir, f"p_hat_param_{x}.csv", est.p_hat, FLOAT_FMT, names)
    _save_csv(outdir, "p_bar.csv", cons.matrix, FLOAT_FMT, names)
    _save_csv(outdir, "consensus_weights.csv", cons.weights.astype(int), "%d", names)
    summary = [
        ("n_items", S.n_items),
        ("n_views", S.n_views),
        ("d", config.d),
        ("g", config.g),
        ("d_hat", len(estimates)),
        ("iterations", state.iterations),
        ("converged", str(state.converged).lower()),
        ("converged_by", state.converged_by),
        ("final_loss", FLOAT_FMT % state.loss_history[-1]),
        ("plain_average_consensus", str(cons.plain_average).lower()),
    ]
    _write_kv(outdir, "summary.txt", summary, names)
    resolved = {**opts, **asdict(config)}
    echo = [("data", args.data)] + [(name, resolved[name]) for name, _, _ in FIT_OPTS]
    _write_kv(outdir, "config_used.txt", echo, names)
    _write_manifest(outdir, names, config.seed)


def two_block_matrix(n: int, p_in: float, p_out: float) -> np.ndarray:
    """Co-assignment probabilities for two planted blocks of size n//2 and
    n - n//2."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    for name, p in (("p_in", p_in), ("p_out", p_out)):
        if not 0.0 < p < 1.0:
            raise ValueError(f"{name} must lie in (0, 1), got {p}")
    half = n // 2
    P = np.full((n, n), p_out)
    P[:half, :half] = p_in
    P[half:, half:] = p_in
    np.fill_diagonal(P, 1.0)
    return P


def cmd_verify_bound(args) -> None:
    opts = resolve_options(args, VERIFY_OPTS)
    P = two_block_matrix(opts["n"], opts["p_in"], opts["p_out"])
    report = verify_theorem(
        P, [P] * opts["m"], opts["m"], opts["delta"],
        opts["replications"], opts["seed"],
        empirical_draws=opts["empirical_draws"],
        generalization_draws=opts["generalization_draws"],
        mc_slack=opts["mc_slack"],
    )
    outdir = _outdir(args)
    names: list = []
    rows = np.column_stack([
        np.arange(report.replications),
        report.lhs,
        report.holds_each.astype(int),
        report.skipped_mask.astype(int),
    ])
    np.savetxt(outdir / "bound_per_replication.csv", rows, delimiter=",",
               fmt=["%d", FLOAT_FMT, "%d", "%d"],
               header="replication,lhs,holds,skipped", comments="")
    names.append("bound_per_replication.csv")
    summary = [
        ("m", report.M),
        ("delta", report.delta),
        ("replications", report.replications),
        ("evaluated", report.evaluated),
        ("skipped", report.skipped),
        ("rhs", FLOAT_FMT % report.rhs),
        ("holds_fraction", FLOAT_FMT % report.holds_fraction),
        ("target_fraction", FLOAT_FMT % (1.0 - report.delta - opts["mc_slack"])),
        ("holds", str(report.holds).lower()),
    ]
    _write_kv(outdir, "bound_summary.txt", summary, names)
    echo = [(name, opts[name]) for name, _, _ in VERIFY_OPTS]
    _write_kv(outdir, "config_used.txt", echo, names)
    _write_manifest(outdir, names, opts["seed"])


def cmd_metrics(args) -> None:
    a = _load_data(args.a)
    b = _load_data(args.b)
    if args.kind == "nmi":
        value = nmi(a.ravel(), b.ravel())
    else:
        value = mad(a, b)
    print(FLOAT_FMT % value)


def cmd_screen(args) -> None:
    opts = resolve_options(args, SCREEN_OPTS)
    if opts["top_v"] is None:
        raise ValueError("screen needs top_v (flag or config file)")
    data = _load_data(args.data)
    idx = screen_columns(data, opts["top_v"])
    outdir = _outdir(args)
    names: list = []
    _save_csv(outdir, "selected_columns.csv", idx, "%d", names)
    _save_csv(outdir, "screened.csv", data[:, idx], FLOAT_FMT, names)
    _write_manifest(outdir, names, opts["seed"])


def _add_table_flags(sub, table) -> None:
    for name, conv, _ in table:
        sub.add_argument("--" + name.replace("_", "-"), dest=name, type=conv, default=None)
    sub.add_argument("--config", default=None, help="key = value file; flags override it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvsimplex",
        description="Multi-view clustering with simplex-factorized co-assignment probabilities.",
    )
    parser.add_argument("--debug", action="store_true",
                        help="raise errors with their traceback instead of one 'error:' line")
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="write a synthetic dataset")
    _add_table_flags(sim, SIM_OPTS)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)

    fit_p = subs.add_parser("fit", help="fit the model to a CSV of stacked view columns")
    fit_p.add_argument("--data", required=True)
    _add_table_flags(fit_p, FIT_OPTS)
    fit_p.add_argument("--out", required=True)
    fit_p.set_defaults(func=cmd_fit)

    ver = subs.add_parser("verify-bound", help="Monte-Carlo check of the risk bound")
    _add_table_flags(ver, VERIFY_OPTS)
    ver.add_argument("--out", required=True)
    ver.set_defaults(func=cmd_verify_bound)

    met = subs.add_parser("metrics", help="compare two CSV files cell by cell")
    met.add_argument(
        "--kind", required=True, choices=("nmi", "mad"),
        help="nmi flattens both files into label vectors; mad is the median |a - b| "
        "over the strictly lower triangle of two square matrices",
    )
    met.add_argument("--a", required=True)
    met.add_argument("--b", required=True)
    met.set_defaults(func=cmd_metrics)

    scr = subs.add_parser("screen", help="keep the most variable columns")
    scr.add_argument("--data", required=True)
    _add_table_flags(scr, SCREEN_OPTS)
    scr.add_argument("--out", required=True)
    scr.set_defaults(func=cmd_screen)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except Exception as exc:
        if args.debug:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
