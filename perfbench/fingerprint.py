"""Host fingerprint stamped into every benchmark result.

Thread counts are *read*, never set: the benchmark measures whatever
thread budget the program itself chooses.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.backend.cnative import build
from repro.backend.cnative.lib import load_kernels

_OPENBLAS_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads",
)


def openblas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, or ``None``."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("lib*openblas*.so*")):
        try:
            handle = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in _OPENBLAS_GETTERS:
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def cnative_build() -> dict:
    """Compiler, flags, cache key and thread count of ``cnative``."""
    kernels = load_kernels()
    key = kernels.library_path.stem.removeprefix("repro_cnative_")
    compiler = build.find_compiler()
    source = build.source_path().read_bytes()
    flags = None
    # Private helpers of the build step; the fingerprint degrades to
    # ``None`` flags if they are renamed.
    flag_sets = getattr(build, "_FLAG_SETS", ())
    cache_key = getattr(build, "_cache_key", None)
    for candidate in flag_sets:
        if cache_key is not None and cache_key(
            source, compiler, candidate
        ) == key:
            flags = " ".join(candidate)
    return {
        "compiler": compiler,
        "flags": flags,
        "cache_key": key,
        "threads": kernels.threads,
        "has_sgemm": kernels.has_sgemm,
    }


def cpu_steal_s() -> float | None:
    """CPU time the hypervisor gave to other guests, host-wide, so far.

    A shared host that steals CPU during a run slows every timing; the
    run reports how much was stolen while it measured.
    """
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
    except OSError:
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def source_digest(root: Path) -> str:
    """Digest of every file under ``src/`` (identifies untracked trees)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha(root: Path) -> str | None:
    """HEAD commit of the checkout, or ``None`` outside a git tree."""
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def host_fingerprint(root: Path, backend: str, load_at_start) -> dict:
    """Everything needed to say under what configuration a run was made."""
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "openblas_threads": openblas_threads(),
        "thread_env": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "REPRO_CNATIVE_THREADS")
        },
        "backend": backend,
        "cnative": cnative_build(),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "machine": platform.machine(),
        "git_sha": git_sha(root),
        "src_digest": source_digest(root),
        "load_avg_at_start": list(load_at_start),
    }
