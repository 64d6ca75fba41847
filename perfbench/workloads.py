"""The benchmark's workloads: inputs, the CLI operation, output checks and
quality numbers.

Each workload has a full size (what the benchmark times) and a tiny size
(the warm-up operation of every run, and the smoke tests).  Inputs come
from the package's own ``simulate`` command, seeded by the workload seed;
the operation then receives only the written files and the same seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Tolerance for p_bar symmetry and its [0, 1] range: it is an average of
# W W^T products whose rows lie on the simplex, exact up to rounding.
P_BAR_TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str              # "multi" or "bound"
    full: dict
    tiny: dict

    def sizes(self, tiny: bool) -> dict:
        return self.tiny if tiny else self.full


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "multi_v500",
            "criterion-05 fit, 500 views of n=150, d=g=10: the gradient takes 70% of the "
            "time, the view axis (similarity, K-means++, E step) a fifth, the dense tensor "
            "sets the memory peak",
            "multi", full={"n": 150, "v": 500, "d": 10, "g": 10},
            tiny={"n": 30, "v": 12, "d": 3, "g": 4},
        ),
        Workload(
            "bound_n5",
            "criterion-09 verify-bound, no fit: the only workload of partition and metrics, "
            "and the no-change control for every fit layer",
            "bound", full={},
            tiny={"replications": 5, "empirical_draws": 200, "generalization_draws": 500},
        ),
    ]
}


def simulate_argv(w: Workload, seed: int, tiny: bool, indir: Path) -> list[str] | None:
    """``simulate`` arguments that write the workload's input, or None."""
    size = w.sizes(tiny)
    if w.kind == "multi":
        return ["simulate", "--kind", "multi", "--n", str(size["n"]), "--v", str(size["v"]),
                "--d0", "5", "--g0", "3", "--seed", str(seed), "--out", str(indir)]
    return None


def operation_argv(w: Workload, seed: int, tiny: bool, indir: Path, outdir: Path) -> list[str]:
    size = w.sizes(tiny)
    if w.kind == "multi":
        return ["fit", "--data", str(indir / "data.csv"), "--d", str(size["d"]),
                "--g", str(size["g"]), "--views", "width:2", "--seed", str(seed),
                "--out", str(outdir)]
    argv = ["verify-bound", "--seed", str(seed), "--out", str(outdir)]
    for key, value in size.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    return argv


def expected_shape(w: Workload, tiny: bool) -> dict:
    """n_items, n_views, d and g that a fit of this workload must report."""
    size = w.sizes(tiny)
    return {"n_items": size["n"], "n_views": size["v"], "d": size["d"], "g": size["g"]}


def read_kv(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _load(path: Path, dtype=float, ndmin=2) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", dtype=dtype, ndmin=ndmin)


def _check_fit(outdir: Path, shape: dict) -> list[str]:
    fails = []
    summary = read_kv(outdir / "summary.txt")
    for key in ("n_items", "n_views"):
        if summary.get(key) != str(shape[key]):
            fails.append(f"summary.txt {key} = {summary.get(key)}, expected {shape[key]}")
    n, v = shape["n_items"], shape["n_views"]
    for name in ("labels_pointwise.csv", "labels_joint.csv"):
        lab = _load(outdir / name, dtype=int)
        if lab.shape != (v, n):
            fails.append(f"{name} has shape {lab.shape}, expected {(v, n)}")
        elif lab.min() < 0 or lab.max() >= shape["g"]:
            fails.append(f"{name} labels outside [0, {shape['g']})")
    x_hat = _load(outdir / "x_hat.csv", dtype=int, ndmin=1)
    if x_hat.shape != (v,) or x_hat.min() < 0 or x_hat.max() >= shape["d"]:
        fails.append(f"x_hat.csv is not {v} entries in [0, {shape['d']})")
    p_bar = _load(outdir / "p_bar.csv")
    if p_bar.shape != (n, n):
        fails.append(f"p_bar.csv has shape {p_bar.shape}, expected {(n, n)}")
    elif not np.all(np.isfinite(p_bar)) or np.abs(p_bar - p_bar.T).max() > P_BAR_TOL:
        fails.append("p_bar.csv is not a finite symmetric matrix")
    elif p_bar.min() < -P_BAR_TOL or p_bar.max() > 1.0 + P_BAR_TOL:
        fails.append("p_bar.csv has entries outside [0, 1]")
    return fails


def _check_bound(outdir: Path) -> list[str]:
    summary = read_kv(outdir / "bound_summary.txt")
    if summary.get("holds") != "true":
        return [f"bound_summary.txt holds = {summary.get('holds')}, expected true"]
    return []


def check_outputs(w: Workload, tiny: bool, outdir: Path, exit_code: int) -> list[str]:
    """Reasons the operation failed; empty when its outputs pass every check."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        if w.kind == "bound":
            return _check_bound(outdir)
        return _check_fit(outdir, expected_shape(w, tiny))
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]


def artifact_digests(outdir: Path) -> dict[str, str]:
    """sha256 of every .csv, .json and .txt artifact, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.iterdir()) if p.suffix in (".csv", ".json", ".txt")}


def digest_mismatch(first: dict[str, str], other: dict[str, str]) -> list[str]:
    if first == other:
        return []
    names = sorted(k for k in set(first) | set(other) if first.get(k) != other.get(k))
    return ["artifacts differ from the first operation with the same seed: " + ", ".join(names)]


def quality(w: Workload, indir: Path | None, outdir: Path) -> dict[str, float]:
    """Accuracy numbers of one operation's outputs.

    ``quality`` is the workload's headline number: the NMI of the fitted
    pattern per view against the true one (multi), or the fraction of
    replications where the bound held (bound).
    """
    from mvsimplex.metrics import nmi

    if w.kind == "bound":
        frac = float(read_kv(outdir / "bound_summary.txt")["holds_fraction"])
        return {"quality": frac, "holds_fraction": frac}
    value = nmi(_load(outdir / "x_hat.csv", dtype=int, ndmin=1),
                _load(indir / "x_true.csv", dtype=int, ndmin=1))
    return {"quality": value, "nmi": value}
