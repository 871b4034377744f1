"""Tests for repro.runtime.session.AdaptiveTicker (backpressure sizing).

The ticker only resizes after ``hysteresis`` *consecutive* readings
beyond a watermark — one bursty tick must not thrash the size — and
always publishes the live size to the ``stream.tick_size`` gauge.
Bitwise adaptive-vs-fixed score parity is pinned where the ticker is
used, by ``test_adaptive_drain_matches_fixed_scores`` in
``tests/runtime/test_service.py``.
"""

import pytest

from repro import telemetry
from repro.runtime.session import AdaptiveTicker, adaptive_ticker


class TestResizing:
    def test_grows_only_after_consecutive_overloads(self):
        ticker = AdaptiveTicker(initial=1024, hysteresis=3)
        assert ticker.update(4096) == 1024
        assert ticker.update(4096) == 1024
        assert ticker.update(4096) == 2048

    def test_burst_does_not_thrash(self):
        ticker = AdaptiveTicker(initial=1024, hysteresis=3)
        ticker.update(4096)
        ticker.update(4096)
        ticker.update(1024)  # mid-band reading resets the streak
        assert ticker.update(4096) == 1024
        assert ticker.update(4096) == 1024
        assert ticker.update(4096) == 2048

    def test_shrinks_after_consecutive_idle_ticks(self):
        ticker = AdaptiveTicker(initial=1024, hysteresis=2)
        assert ticker.update(0) == 1024
        assert ticker.update(0) == 512

    def test_resize_needs_a_fresh_streak(self):
        ticker = AdaptiveTicker(initial=64, hysteresis=2)
        ticker.update(100_000)
        ticker.update(100_000)
        assert ticker.size == 128
        ticker.update(100_000)
        assert ticker.size == 128
        ticker.update(100_000)
        assert ticker.size == 256

    def test_clamped_to_bounds(self):
        ticker = AdaptiveTicker(
            initial=128, min_size=64, max_size=256, hysteresis=1
        )
        assert ticker.update(10_000) == 256
        assert ticker.update(10_000) == 256  # pinned at max
        assert ticker.update(0) == 128
        assert ticker.update(0) == 64
        assert ticker.update(0) == 64  # pinned at min

    def test_publishes_tick_size_gauge(self):
        registry = telemetry.MetricsRegistry()
        with telemetry.use(registry):
            ticker = AdaptiveTicker(initial=256, hysteresis=1)
            ticker.update(0)
        assert registry.gauge("stream.tick_size").value == 128


class TestValidation:
    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError, match="min_size"):
            AdaptiveTicker(min_size=0)
        with pytest.raises(ValueError, match="min_size"):
            AdaptiveTicker(initial=512, min_size=512, max_size=256)

    def test_rejects_initial_outside_bounds(self):
        with pytest.raises(ValueError, match="outside"):
            AdaptiveTicker(initial=32, min_size=64)

    def test_rejects_bad_watermarks(self):
        with pytest.raises(ValueError, match="watermark"):
            AdaptiveTicker(low_watermark=2.0, high_watermark=1.0)
        with pytest.raises(ValueError, match="watermark"):
            AdaptiveTicker(low_watermark=-0.1)

    def test_rejects_bad_hysteresis(self):
        with pytest.raises(ValueError, match="hysteresis"):
            AdaptiveTicker(hysteresis=0)

    def test_rejects_negative_backlog(self):
        with pytest.raises(ValueError, match="negative backlog"):
            AdaptiveTicker().update(-1)


class TestServeBounds:
    def test_serve_ticker_bounds(self):
        ticker = adaptive_ticker(256)
        assert (ticker.size, ticker.min_size, ticker.max_size) == (
            256, 64, 8192,
        )

    def test_bounds_stretch_to_cover_the_tick_size(self):
        small = adaptive_ticker(16)
        assert (small.min_size, small.max_size) == (16, 8192)
        large = adaptive_ticker(10_000)
        assert (large.min_size, large.max_size) == (64, 10_000)
