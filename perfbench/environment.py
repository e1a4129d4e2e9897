"""Facts about the machine and the checkout for the run record."""

from __future__ import annotations

import ctypes
import glob
import os
from pathlib import Path


def git_sha(root: Path) -> str:
    """HEAD's commit id read from ``.git`` without running git; 'unknown' outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads() -> int | str:
    """Threads in NumPy's OpenBLAS pool, asked of the library itself."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                func = getattr(lib, symbol)
                func.restype = ctypes.c_int
                return func()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def cache_sizes() -> dict[str, str]:
    """CPU cache sizes by level and type, as the kernel reports them for cpu0."""
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            sizes[f"L{level}-{kind}"] = Path(index, "size").read_text().strip()
        except OSError:
            continue
    return sizes


def source_lines(package: Path) -> int:
    return sum(len(path.read_text(encoding="utf-8").splitlines()) for path in package.glob("*.py"))
