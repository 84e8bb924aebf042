"""The run context printed beside every result.

Wall-clock figures only compare between runs on the same kind of host, so
each result carries what they depend on: core count, interpreter and numpy
versions, BLAS thread settings, cache sizes, the workload seed and which
source tree ran.
"""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path
from typing import Dict, Optional

#: Thread-count variables of the common BLAS / OpenMP runtimes.
THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

_CPU_CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")


def cache_sizes() -> Dict[str, str]:
    """Per-core L2 and last-level cache sizes as the kernel reports them."""
    sizes: Dict[str, str] = {}
    levels = []
    for index in sorted(_CPU_CACHE_DIR.glob("index*")):
        try:
            level = int((index / "level").read_text().strip())
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if kind != "Instruction":
            levels.append((level, size))
    for level, size in levels:
        if level == 2:
            sizes["l2"] = size
    if levels:
        sizes["llc"] = max(levels)[1]
    return sizes


def _git_commit(root: Path) -> Optional[str]:
    """HEAD's commit, read from ``.git`` without running git (None if absent)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        return None
    return None


def source_digest(root: Path) -> str:
    """A short hash over every ``.py`` file under ``src/`` (path and bytes).

    Identifies the tree that ran even in a checkout that is not a git
    repository.
    """
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_context(root: Path, workload: str, seed: int, seconds: float) -> Dict[str, object]:
    import numpy as np

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_env": {name: os.environ[name] for name in THREAD_ENV_VARS if name in os.environ},
        **cache_sizes(),
        "git_commit": _git_commit(root) or "unknown",
        "source_sha256": source_digest(root),
    }
