"""Process set-up shared by the benchmark's entry points.

Imported before numpy: the BLAS thread pools are sized when numpy loads, and
the benchmark runs every workload on one thread.
"""

import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
for _path in (str(BENCH), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)


def have_sources() -> bool:
    return (ROOT / "src" / "wkorient" / "__init__.py").is_file()
