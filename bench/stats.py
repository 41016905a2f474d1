"""Percentiles and the environment record reported with every result."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from importlib import metadata
from pathlib import Path

MIN_BEYOND = 10


def _rank(q: int, n: int) -> int:
    # 1-based nearest rank, ceil(q n / 100) in integers
    return max(1, -(-q * n // 100))


def percentile(samples, q: int) -> float | None:
    """Nearest-rank q-th percentile, or None unless MIN_BEYOND samples lie beyond it."""
    ordered = sorted(samples)
    rank = _rank(q, len(ordered))
    if len(ordered) - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]


def min_samples(q: int) -> int:
    """Smallest sample count for which percentile(q) is reported."""
    n = MIN_BEYOND
    while n - _rank(q, n) < MIN_BEYOND:
        n += 1
    return n


def environment(root: Path) -> dict:
    """Recorded, not gated: interpreter, numpy, CPUs, load, commit, src size."""
    src = sorted((root / "src" / "twostate").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg()[0],
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": lines,
    }
