"""Process settings shared by the benchmark's entry points.

Call :func:`prepare` before anything imports numpy: it pins every native
thread pool (OpenBLAS, OpenMP, MKL) to one thread, so that all load comes
from the one benchmark process, and it puts the checkout's ``src`` first on
the import path, so the package is run from source.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".isdbench-out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def import_package():
    """Import the package under test and refuse any copy outside ``src``."""
    import isdtest

    where = Path(isdtest.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"isdtest was imported from {where}, not from {SRC}")
    return isdtest
