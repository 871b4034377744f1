"""Process-wide BLAS thread control for the serve loop.

numpy's matmuls run on OpenBLAS, which starts one thread per core and
keeps them spinning between calls.  A serve tick's matmuls are small
(one tick of windows through two recurrent layers), so the extra
threads buy little: on a 2-core host they double CPU per message, and
under ``serve --shards 2`` the two worker processes' pools fight over
the cores until two shards drain slower than one.  A serve process
therefore runs on :data:`SERVE_BLAS_THREADS`, in two layers:

* at load: OpenBLAS reads ``OPENBLAS_NUM_THREADS`` once, when numpy
  loads it, and starts its pool then.  ``python -m repro serve`` sets
  the variable in ``repro.__main__`` before it imports anything that
  loads numpy, unless the operator has set it, so neither the serve
  process nor the fleet workers it forks ever start a pool (on a
  2-core host its idle thread spun for about 0.07–0.1 s of CPU in every
  process before it slept);
* at run time: every :class:`~repro.runtime.session.ServeSession`
  holds :func:`limited_blas_threads` while it is open.  That covers
  sessions opened in a process that loaded numpy first (tests,
  benchmarks, library use), and limits a serve whose operator set the
  variable.  The count goes through the library's own
  ``openblas_set_num_threads``, looked up in the shared objects this
  process has mapped.

Where there is no such library (an MKL or Accelerate numpy) or no
``/proc/self/maps`` to find it in, the run-time controls change
nothing and report ``None``.  The thread count never changes a score:
OpenBLAS splits a product's output among threads, not its sums, so
float64 results are bitwise the same at any count.

Importing this module loads neither numpy nor any other runtime
module, so ``repro.__main__`` reads :data:`SERVE_BLAS_THREADS` before
numpy loads.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from typing import Callable, Iterator, NamedTuple, Optional

#: BLAS threads a serve process runs on: a tick's matmuls are too
#: small to repay a second thread's spinning, and fleet workers'
#: default pools would fight over the cores.
SERVE_BLAS_THREADS = 1

#: How OpenBLAS builds name their thread controls: numpy wheels bundle
#: ``scipy_openblas`` with a ``64_`` suffix on the ILP64 interface;
#: distribution packages export the bare names.
_SYMBOL_STEMS = tuple(
    f"{prefix}openblas_%s_num_threads{suffix}"
    for prefix in ("scipy_", "")
    for suffix in ("64_", "")
)


class _Controls(NamedTuple):
    get: Callable[[], int]
    set: Callable[[int], None]


def _mapped_openblas() -> Iterator[str]:
    """Paths of the OpenBLAS shared objects mapped into this process."""
    try:
        with open("/proc/self/maps") as maps:
            lines = maps.readlines()
    except OSError:
        return
    paths = {
        fields[5].strip()
        for fields in (line.split(maxsplit=5) for line in lines)
        if len(fields) == 6 and "openblas" in fields[5].lower()
    }
    yield from sorted(paths)


@functools.lru_cache(maxsize=None)
def _controls() -> Optional[_Controls]:
    """OpenBLAS's get/set thread-count functions, if numpy uses it."""
    # Loads the BLAS library these controls look for.
    import numpy  # noqa: F401

    for path in _mapped_openblas():
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for stem in _SYMBOL_STEMS:
            getter = getattr(library, stem % "get", None)
            setter = getattr(library, stem % "set", None)
            if getter is not None and setter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                return _Controls(getter, setter)
    return None


def blas_threads() -> Optional[int]:
    """The BLAS library's current thread count (``None``: unknown)."""
    controls = _controls()
    return None if controls is None else int(controls.get())


@contextlib.contextmanager
def limited_blas_threads(threads: int) -> Iterator[Optional[int]]:
    """Run a block on ``threads`` BLAS threads, then restore the
    previous count.  Yields the count in force inside the block
    (``None``, and nothing changes, where it cannot be set)."""
    controls = _controls()
    if controls is None:
        yield None
        return
    previous = controls.get()
    controls.set(threads)
    try:
        yield int(controls.get())
    finally:
        controls.set(previous)


__all__ = ["SERVE_BLAS_THREADS", "blas_threads", "limited_blas_threads"]
