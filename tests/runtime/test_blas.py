"""Tests for repro.runtime.blas (the serve loop's BLAS thread control).

Where numpy does not run on OpenBLAS the controls report ``None``;
that case is pinned by faking the library away, and the tests that
need a real thread count skip.  The load-time pin of ``python -m repro
serve`` is tested in fresh interpreters, since OpenBLAS reads
``OPENBLAS_NUM_THREADS`` only when numpy loads it.
"""

import json
import os
import sys

import numpy as np
import pytest

from repro.runtime import blas
from repro.runtime.blas import blas_threads, limited_blas_threads
from tests.runtime.test_service import (  # noqa: F401 (fixtures)
    cyclic_stream,
    detector,
)
from tests.test_import_graph import fresh_interpreter

needs_openblas = pytest.mark.skipif(
    blas_threads() is None, reason="numpy does not run on OpenBLAS here"
)


@needs_openblas
class TestLimit:
    def test_limit_holds_inside_and_restores(self):
        before = blas_threads()
        with limited_blas_threads(1) as inside:
            assert inside == 1 == blas_threads()
        assert blas_threads() == before

    def test_limit_restores_on_error(self):
        before = blas_threads()
        with pytest.raises(RuntimeError):
            with limited_blas_threads(1):
                raise RuntimeError("boom")
        assert blas_threads() == before

    def test_thread_count_changes_no_float64_bit(self, detector):
        # Large enough that OpenBLAS splits the product among threads.
        rng = np.random.default_rng(3)
        a = rng.standard_normal((512, 384))
        b = rng.standard_normal((384, 512))
        stream = cyclic_stream(2000)
        with limited_blas_threads(1):
            product = a @ b
            scores = detector.score(stream).scores
        assert np.array_equal(product, a @ b)
        assert np.array_equal(
            scores, detector.score(stream).scores, equal_nan=True
        )


def test_without_openblas_nothing_changes(monkeypatch):
    monkeypatch.setattr(blas, "_controls", lambda: None)
    assert blas_threads() is None
    with limited_blas_threads(1) as inside:
        assert inside is None


#: Imports ``repro.__main__`` under ``sys.argv[1:] == [<command>]``, as
#: ``python -m repro <command>`` runs it short of calling ``main``, and
#: reports what OpenBLAS started.
_ENTRY_PROBE = """
import json, os
import repro.__main__
from repro.runtime.blas import blas_threads
tasks = "/proc/self/task"
print(json.dumps({
    "threads": blas_threads(),
    "tasks": len(os.listdir(tasks)) if os.path.isdir(tasks) else None,
    "variable": os.environ.get("OPENBLAS_NUM_THREADS"),
}))
"""


def probe(script, *args, **env):
    """Run ``script`` in a fresh interpreter whose environment lacks
    ``OPENBLAS_NUM_THREADS`` unless ``env`` sets it; returns its JSON."""
    environ = {
        name: value
        for name, value in os.environ.items()
        if name != "OPENBLAS_NUM_THREADS"
    }
    out = fresh_interpreter(script, *args, environ={**environ, **env})
    return json.loads(out.splitlines()[-1])


@pytest.fixture(scope="module")
def default_pool():
    """The library's own thread count in a fresh process."""
    threads = probe(
        "import json, numpy\n"
        "from repro.runtime.blas import blas_threads\n"
        "print(json.dumps(blas_threads()))\n"
    )
    if threads is None:
        pytest.skip("numpy does not run on OpenBLAS here")
    if threads < 2:
        pytest.skip("one core: the default pool is one thread already")
    return threads


class TestServePin:
    def test_serve_never_starts_a_pool(self, default_pool):
        loaded = probe(_ENTRY_PROBE, "serve")
        assert loaded["threads"] == 1
        assert loaded["variable"] == "1"
        if sys.platform.startswith("linux"):
            assert loaded["tasks"] == 1

    def test_operator_value_is_kept(self, default_pool):
        loaded = probe(_ENTRY_PROBE, "serve", OPENBLAS_NUM_THREADS="3")
        assert loaded["variable"] == "3"
        assert loaded["threads"] > 1

    def test_offline_commands_keep_the_default_pool(self, default_pool):
        loaded = probe(_ENTRY_PROBE, "train")
        assert loaded["threads"] == default_pool
        assert loaded["variable"] is None
