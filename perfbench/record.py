"""Run records: an environment fingerprint and an append-only trajectory."""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from typing import Iterator

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRAJECTORY = os.path.join(HERE, "trajectory.jsonl")


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30, check=True
    ).stdout.strip()


def fingerprint() -> dict:
    """Where a record was measured: code version, interpreter and host shape."""
    sha, dirty = "unknown", None
    # Only ask git inside a checkout that is itself a repository (``.git``
    # is a file in a worktree or submodule), so git never walks up into
    # directories around it.
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = _git("rev-parse", "HEAD")
            dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def append(record: dict, path: str = TRAJECTORY) -> None:
    """Add one record as a JSON line; earlier lines are never rewritten."""
    record = {"time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), **record}
    with open(path, "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


def read(path: str) -> Iterator[dict]:
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield json.loads(line)
