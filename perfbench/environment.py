"""The environment a result was measured in, printed with every result."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np

from deviatoric import counts_row

_BLAS_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def blas_threads() -> int | None:
    """Threads of the OpenBLAS library numpy loaded, when it can be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libraries = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libraries):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_QUERIES:
            query = getattr(lib, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                query.argtypes = []
                return int(query())
    return None


def cache_sizes() -> dict[str, int]:
    """Data and unified cache sizes of CPU 0 in bytes, by level."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        kind = (index / "type").read_text().strip()
        if kind == "Instruction":
            continue
        text = (index / "size").read_text().strip()
        scale = {"K": 1024, "M": 1024**2}.get(text[-1], 1)
        sizes[f"L{(index / 'level').read_text().strip()}_bytes"] = int(text.rstrip("KM")) * scale
    return sizes


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` in the checkout only."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = root / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def describe(root: Path, order: int) -> dict:
    """Versions, threads, caches and the computed working sets of ``order``."""
    parts = sum(counts_row(order))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(root),
        **cache_sizes(),
        "order": order,
        "computed_image_cache_bytes": 9**order * 8,
        "computed_embedded_bytes_per_result": parts * 3**order * 8,
    }
