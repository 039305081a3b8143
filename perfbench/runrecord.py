"""What a run needs to be compared with another: host, software, threads,
source and inputs."""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path

# Pinned to one thread before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints instead
        return {"name": "unknown", "version": "unknown"}
    return {"name": deps.get("name"), "version": deps.get("version")}


def _git_commit(root: Path):
    """HEAD of a git checkout, read from its files; None outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def host_record(root: Path) -> dict:
    import numpy as np

    affinity = sorted(os.sched_getaffinity(0))
    return {
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(affinity),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root / "src"),
    }
