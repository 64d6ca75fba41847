#!/usr/bin/env python3
"""Benchmark of the mvsimplex command line.

    python3 perfbench/run.py --workload bound_n5 --seed 1 --seconds 55 --trace 0

One run, from the root of a source checkout:

1. set-up time: a fresh interpreter imports ``mvsimplex.cli`` (one warm
   import, then the median of SETUP_SAMPLES timed ones);
2. inputs: ``simulate`` writes the workload's data from ``--seed``;
3. warm-up: the workload's tiny operation runs twice and must write
   byte-identical artifacts (determinism check on every run);
4. measurement: the full operation runs back to back, closed loop, in this
   process through ``mvsimplex.cli.main``, while the next one is expected to
   finish within ``--seconds`` (always at least one);
5. with ``--trace 1``: one more full operation with every layer function
   wrapped (see layers.py), whose artifacts must equal the untraced ones.

Every operation's outputs are checked (workloads.check_outputs).  The last
line of standard output is the JSON result; the lines before it repeat each
metric with its unit and the environment.  Results and spans are also
written under ``.perfbench/results`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import envinfo

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_SAMPLES = 21

IMPORT_PROBE = ("import time; t = time.perf_counter(); import mvsimplex.cli; "
                "d = time.perf_counter() - t; import mvsimplex; print(mvsimplex.__file__); print(d)")


class BenchError(RuntimeError):
    """The benchmark cannot run here (no sources, or input generation failed)."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _under_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def measure_setup(samples: int = SETUP_SAMPLES) -> list[float]:
    """Seconds a fresh interpreter spends importing mvsimplex.cli, after one
    untimed import that fills the bytecode and file caches."""
    times = []
    for i in range(samples + 1):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=_child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) != 2 or not _under_src(lines[0]):
            raise BenchError(f"importing mvsimplex.cli from {SRC} failed: {proc.stderr.strip()}")
        if i:
            times.append(float(lines[1]))
    return times


class Runner:
    """One benchmark run of one workload: operations, checks and counts."""

    def __init__(self, workload, seed: int, work: Path, tiny: bool = False):
        from mvsimplex import cli

        self.w = workload
        self.seed = seed
        self.work = work
        self.tiny = tiny
        self.cli = cli
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0

    def make_input(self, tiny: bool, indir: Path) -> Path | None:
        from workloads import simulate_argv

        argv = simulate_argv(self.w, self.seed, tiny, indir)
        if argv is None:
            return None
        if self.cli.main(argv) != 0:
            raise BenchError(f"simulate {' '.join(argv)} failed")
        return indir

    def operation(self, tiny: bool, indir: Path | None, outdir: Path,
                  first: dict | None) -> tuple[float, dict | None]:
        """Run one CLI operation, check it, and return (seconds, artifact digests).

        ``first`` holds the digests of an earlier operation with the same
        seed and size; the artifacts must match it byte for byte.
        """
        from workloads import artifact_digests, check_outputs, digest_mismatch, operation_argv

        shutil.rmtree(outdir, ignore_errors=True)
        argv = operation_argv(self.w, self.seed, tiny, indir, outdir)
        gc.collect()
        start = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 1
        seconds = time.perf_counter() - start
        fails = check_outputs(self.w, tiny, outdir, code)
        digests = None if fails else artifact_digests(outdir)
        if digests is not None and first is not None:
            fails = digest_mismatch(first, digests)
        self.attempted += 1
        if fails:
            self.failed += 1
            self.failures += [f"{' '.join(argv)}: {msg}" for msg in fails]
        return seconds, digests

    def measure(self, seconds: float) -> tuple[list[float], float, dict | None, Path | None, Path]:
        """Warm up, then run full operations while the next one is expected
        to end within ``seconds`` (at least one).  Returns (walls, peak RSS
        in MB up to the end of the first full operation, digests of that
        operation, input directory, output directory)."""
        tiny_in = self.make_input(True, self.work / "warm-in")
        _, tiny_digests = self.operation(True, tiny_in, self.work / "warm-1", None)
        self.operation(True, tiny_in, self.work / "warm-2", tiny_digests)

        indir = self.make_input(self.tiny, self.work / "in")
        outdir = self.work / "out"
        walls: list[float] = []
        digests = None
        start = time.perf_counter()
        while True:
            wall, got = self.operation(self.tiny, indir, outdir, digests)
            if not walls:
                # Later operations add a few MB of heap growth, and how many
                # run depends on the host's speed; the first one does not.
                peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            digests = digests or got
            walls.append(wall)
            if time.perf_counter() - start + wall > seconds:
                return walls, peak_mb, digests, indir, outdir

    def traced(self, indir: Path | None, first: dict | None):
        """One operation with every layer function wrapped; returns
        (wall, artifact digests, tracer, output directory)."""
        from layers import install
        from tracing import Tracer

        tracer = Tracer()
        install(tracer)
        outdir = self.work / "out-traced"
        try:
            tracer.op = 1
            wall, digests = self.operation(self.tiny, indir, outdir, first)
        finally:
            tracer.close()
        return wall, digests, tracer, outdir


def run(workload_name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        setup_samples: int = SETUP_SAMPLES, state: Path = STATE) -> dict:
    """Run one workload and return its record; work files go under ``state``
    and are removed, spans of a traced run are written to ``state/results``."""
    from workloads import WORKLOADS, quality

    w = WORKLOADS[workload_name]
    setup = measure_setup(setup_samples)
    work = state / "work" / f"{w.name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        runner = Runner(w, seed, work, tiny)
        walls, peak_mb, digests, indir, outdir = runner.measure(seconds)
        record = {
            "workload": w.name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "env": envinfo.collect(ROOT, SRC, w.name, seed),
            "walls_s": walls, "setup_samples_s": setup,
            "peak_rss_mb": peak_mb,
            "quality": quality(w, indir, outdir) if digests is not None else {},
        }
        if trace:
            from layers import fit_counts, layer_metrics

            wall, traced_digests, tracer, traced_out = runner.traced(indir, digests)
            fit_iters = fit_counts(traced_out) if w.kind != "bound" and traced_digests else None
            per_layer = layer_metrics(tracer.spans, tracer.counters, fit_iters)
            per_layer["trace.overhead_s"] = wall - statistics.median(walls)
            record.update(traced_wall_s=wall, per_layer=per_layer, spans=len(tracer.spans))
            tracer.write_jsonl(state / "results" / f"{w.name}-seed{seed}-spans.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record.update(attempted=runner.attempted, failed=runner.failed, failures=runner.failures)
    return record


def result_line(record: dict) -> dict:
    from layers import PER_LAYER
    from spec import END_TO_END

    if record["trace"]:
        metrics = {name: {"value": record["per_layer"][name], "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
    else:
        values = {
            "wall_s": statistics.median(record["walls_s"]),
            "setup_s": statistics.median(record["setup_samples_s"]),
            "peak_rss_mb": record["peak_rss_mb"],
            "quality": record["quality"].get("quality", 0.0),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _, _) in END_TO_END.items()}
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def report_lines(record: dict, result: dict) -> list[str]:
    lines = [f"perfbench {record['workload']} seed={record['seed']} "
             f"seconds={record['seconds']} trace={record['trace']}",
             "env " + json.dumps(record["env"], sort_keys=True)]
    walls = record["walls_s"]
    lines.append(f"wall_s = {statistics.median(walls):.4f} s (median of {len(walls)} operations, "
                 f"min {min(walls):.4f}, max {max(walls):.4f})")
    lines.append(f"setup_s = {statistics.median(record['setup_samples_s']):.4f} s "
                 f"(median of {len(record['setup_samples_s'])} fresh imports)")
    lines.append(f"peak_rss_mb = {record['peak_rss_mb']:.1f} MB")
    lines.append(f"error_rate = {record['failed'] / record['attempted']:.4f} ratio "
                 f"({record['failed']} failed of {record['attempted']} operations)")
    for name, value in record["quality"].items():
        lines.append(f"{name} = {value:.6f} 1")
    if record["trace"]:
        lines.append(f"traced wall_s = {record['traced_wall_s']:.4f} s, "
                     f"{record['spans']} spans")
        for name, metric in result["metrics"].items():
            lines.append(f"{name} = {metric['value']:.6g} {metric['unit']}")
    lines += [f"FAILED {msg}" for msg in record["failures"]]
    return lines


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "mvsimplex" / "cli.py").is_file():
        print(f"perfbench: no mvsimplex sources under {SRC}", file=sys.stderr)
        return 2
    # Pin BLAS pools before numpy loads: one closed-loop client, one thread.
    for var in envinfo.BLAS_THREAD_VARS:
        os.environ[var] = str(envinfo.BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import mvsimplex

    if not _under_src(mvsimplex.__file__):
        print(f"perfbench: mvsimplex imported from {mvsimplex.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    args = parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    result = result_line(record)
    out = STATE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({**record, "result": result}, indent=1) + "\n",
                   encoding="utf-8")
    print("\n".join(report_lines(record, result)))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
