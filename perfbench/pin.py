"""Process set-up shared by the benchmark scripts; imports nothing heavy.

BLAS reads its thread variables once, when numpy first loads it, so they are
set here before anything imports numpy.  The package is imported from the
``src`` directory of the checkout this file sits in, never from an installed
copy.
"""

import os
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def pin_threads_and_path() -> None:
    """Pin BLAS to one thread and put the checkout's sources first on the path.

    Raises SystemExit when the checkout holds no sources, so a benchmark
    copied without the program fails at once instead of measuring nothing.
    """
    if "numpy" in sys.modules:
        raise SystemExit("numpy was imported before the BLAS threads were pinned")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "streamst" / "__init__.py").is_file():
        raise SystemExit("no program sources at %s" % (SRC / "streamst"))
    sys.path.insert(0, str(SRC))
