"""Tests of the benchmark itself: tiny runs of every workload, the output
checks, the span arithmetic, and agreement with BENCHMARK.json.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

from layers import PER_LAYER, install, iters_after_flat  # noqa: E402
from spec import END_TO_END, benchmark_spec  # noqa: E402
from tracing import Span, Tracer, percentile, self_times  # noqa: E402
from workloads import WORKLOADS, check_outputs, operation_argv, simulate_argv  # noqa: E402


def span(span_id, parent, start, end, name="x"):
    return Span(span_id, parent, 1, name, start, end)


def test_self_time_subtracts_children():
    spans = [span(0, None, 0.0, 10.0), span(1, 0, 1.0, 3.0), span(2, 0, 4.0, 8.0),
             span(3, 2, 5.0, 6.0)]
    own = self_times(spans)
    assert own == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0}


def test_self_time_counts_overlapping_and_overhanging_children_once():
    spans = [span(0, None, 0.0, 10.0), span(1, 0, 2.0, 6.0), span(2, 0, 4.0, 7.0),
             span(3, 0, 9.0, 12.0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_percentile_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50) == 50.0
    assert percentile(values, 99) == 99.0
    assert percentile([7.0], 99) == 7.0
    assert percentile([], 50) == 0.0


def test_iters_after_flat():
    assert iters_after_flat([100.0, 50.0, 49.9999999, 49.9999998, 49.9999997]) == 2
    assert iters_after_flat([100.0, 50.0, 25.0]) == 0


def test_tracer_restores_wrapped_functions():
    from mvsimplex import model, partition

    before = model.expected_loss_gradient, partition._LossTable.loss_vector
    tracer = Tracer()
    install(tracer)
    assert model.expected_loss_gradient is not before[0]
    tracer.close()
    assert (model.expected_loss_gradient, partition._LossTable.loss_vector) == before


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_traced_run_of_every_workload(name, tmp_path):
    record = run.run(name, seed=0, seconds=0, trace=True, tiny=True, setup_samples=1,
                     state=tmp_path)
    assert record["failures"] == []
    # two warm-up operations, one measured, one traced
    assert (record["attempted"], record["failed"]) == (4, 0)
    assert set(record["per_layer"]) == set(PER_LAYER)
    result = run.result_line(record)
    assert result["correct"] is True
    assert set(result["metrics"]) == set(PER_LAYER)
    untraced = run.result_line({**record, "trace": 0})
    assert set(untraced["metrics"]) == set(END_TO_END)
    assert all(untraced["metrics"][k]["value"] > 0 for k in ("wall_s", "setup_s", "peak_rss_mb"))
    if WORKLOADS[name].kind == "bound":
        assert record["per_layer"]["partition.draws"] > 0
        assert record["per_layer"]["model.grad_calls"] == 0
    else:
        assert record["per_layer"]["model.grad_calls"] > 0
        assert record["per_layer"]["partition.draws"] == 0
    assert list((tmp_path / "work").iterdir()) == []


def _tiny_fit(tmp_path, views: str | None = None, d: str | None = None):
    from mvsimplex.cli import main

    w = WORKLOADS["multi_v500"]
    indir, outdir = tmp_path / "in", tmp_path / "out"
    assert main(simulate_argv(w, 0, True, indir)) == 0
    argv = operation_argv(w, 0, True, indir, outdir)
    if views is not None:
        argv[argv.index("--views") + 1] = views
    if d is not None:
        argv[argv.index("--d") + 1] = d
    return w, outdir, main(argv)


def test_checks_accept_the_workload_operation(tmp_path):
    w, outdir, code = _tiny_fit(tmp_path)
    assert check_outputs(w, True, outdir, code) == []


def test_checks_reject_wrong_view_count(tmp_path):
    # the default --views cols splits each 2-column view into two 1-column views
    w, outdir, code = _tiny_fit(tmp_path, views="cols")
    assert code == 0
    fails = check_outputs(w, True, outdir, code)
    assert any("n_views = 24" in msg for msg in fails)


def test_checks_reject_nonzero_exit(tmp_path):
    w, outdir, code = _tiny_fit(tmp_path, d="30")  # more catalog entries than views
    assert code != 0
    assert check_outputs(w, True, outdir, code) == [f"exit code {code}"]


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec == benchmark_spec()


def test_fails_without_sources(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "bound_n5",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
