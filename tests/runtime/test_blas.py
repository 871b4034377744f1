"""Tests for repro.runtime.blas (the serve loop's BLAS thread control).

Where numpy does not run on OpenBLAS the controls report ``None``;
that case is pinned by faking the library away, and the tests that
need a real thread count skip.
"""

import numpy as np
import pytest

from repro.runtime import blas
from repro.runtime.blas import blas_threads, limited_blas_threads
from tests.runtime.test_service import (  # noqa: F401 (fixtures)
    cyclic_stream,
    detector,
)

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
