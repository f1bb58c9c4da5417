"""Host fingerprint and noise record attached to every benchmark result.

The benchmark sets no BLAS/OpenMP thread variable and pins nothing: the
variables are recorded exactly as found, so oversubscription between SPMD
ranks and their threaded BLAS stays visible in the numbers.
"""

from __future__ import annotations

import os
import platform
import re
import sys
from pathlib import Path

THREAD_ENV = re.compile(r"^(OPENBLAS|OMP|MKL|BLIS|GOTO|VECLIB|NUMEXPR|SCIPY_OPENBLAS)_")


def steal_ticks() -> int | None:
    """Cumulative ``steal`` ticks of the aggregate ``cpu`` line of /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if len(fields) > 8 and fields[0] == "cpu" else None


def noise_sample() -> dict:
    return {"loadavg": list(os.getloadavg()), "steal_ticks": steal_ticks()}


def git_commit(root: Path) -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.exists():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def blas_info() -> dict:
    import numpy as np
    import scipy

    info = {"numpy": np.__version__, "scipy": scipy.__version__}
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
        info["numpy_blas"] = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, AttributeError):  # older NumPy without mode="dicts"
        info["numpy_blas"] = "unknown"
    return info


def fingerprint(root: Path) -> dict:
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except AttributeError:
        cpus = list(range(os.cpu_count() or 1))
    return {
        "affinity_cpus": cpus,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        **blas_info(),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if THREAD_ENV.match(k)},
        "python_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("PYTHON")},
        "git_commit": git_commit(root),
    }
