"""The benchmark's contract, from which BENCHMARK.json is written.

Bounds are the share of the parent commit's median by which a metric may
worsen before a change counts as a regression.  The timing bounds are wide
because the shared host they were set on changes speed by up to a third
from one minute to the next; the memory and quality bounds are tight because
those metrics barely move between runs.  README.md gives the measured spreads.
"""

from __future__ import annotations

from layers import PER_LAYER
from workloads import WORKLOADS

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]

# A run times operations back to back while the next one is expected to
# end within this: one multi_v500 fit (23-34 s; two when the first is under
# 27.5 s) or two bound_n5 checks (16-25 s each).  A faster program gets more operations per run,
# not a longer run.
RUN_SECONDS = 55

# name -> (unit, better, bound).  Peak RSS spreads by at most 0.0064 over
# ten seeds, so 0.02 is three times that and still catches any growth of the
# 372 MB multi_v500 peak above 7.5 MB.  Quality is fixed per seed (NMI 1.0 on
# nine of ten multi_v500 seeds, holds_fraction 1.0), so its median moves only
# when a change costs accuracy on several seeds: 0.01 lets no such change
# through.
END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.02),
    "quality": ("1", "higher", 0.01),
}


def benchmark_spec() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": name, "unit": unit, "better": better, "bound": bound}
                       for name, (unit, better, bound) in END_TO_END.items()],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, (unit, better) in PER_LAYER.items()],
    }
