"""Machine and software facts recorded with every result (stdlib only)."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path

# Environment variables that set BLAS/OpenMP thread pools.  The benchmark
# pins all of them to BLAS_THREADS before numpy is imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict[str, str]:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def _openblas_threads() -> int | None:
    """Thread count OpenBLAS reports, found through the loaded library."""
    try:
        maps = Path("/proc/self/maps").read_text(encoding="utf-8").splitlines()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps if "openblas" in line.split()[-1]}
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def _blas() -> dict:
    import numpy as np

    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": info.get("name"), "version": info.get("version")}
    except (KeyError, TypeError, ValueError):
        return {"name": "unknown", "version": "unknown"}


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree (git is
    not asked then, so it never searches the directories above root)."""
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest(src: Path) -> str:
    """sha256 over the package sources, identifying the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def collect(root: Path, src: Path, workload: str, seed: int) -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "blas_threads_in_effect": _openblas_threads(),
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(src),
        "workload": workload,
        "seed": seed,
    }
