"""``python -m repro`` entry point.

For ``serve`` it sets ``OPENBLAS_NUM_THREADS`` to
:data:`~repro.runtime.blas.SERVE_BLAS_THREADS`, unless the operator has
set it, before ``repro.cli`` loads numpy: OpenBLAS reads the variable
only then, so neither the serve process nor the fleet workers it forks
start a thread pool (:mod:`repro.runtime.blas`).  The offline
subcommands keep the library's default pool.
"""

import os
import sys

from repro.runtime.blas import SERVE_BLAS_THREADS

if sys.argv[1:2] == ["serve"]:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", str(SERVE_BLAS_THREADS))

from repro.cli import main  # noqa: E402 (after the pin, by design)

if __name__ == "__main__":
    sys.exit(main())
