"""Runtime observability: metrics registry, timers and exporters.

The paper's system is judged operationally — false alarms per day,
anomalies per predictive period, month-over-month drift in the template
distribution (Fig. 3, section 5.3) — so the reproduction needs the same
continuously exported health signals, not just offline scores.  This
module is the dependency-free instrumentation layer the hot paths
(mining, training, streaming, adaptation) report into:

* :class:`Counter` — monotonically increasing event counts;
* :class:`Gauge` — last-written values (e.g. the drift similarity);
* :class:`Histogram` — fixed-bucket distributions (latencies, scores);
* :meth:`MetricsRegistry.timed` — a context manager that records
  wall-clock durations into a histogram;
* JSON and Prometheus text exporters.

A process-wide default registry backs the convenience functions
(:func:`counter`, :func:`gauge`, :func:`histogram`, :func:`timed`);
tests and benchmarks swap it with :func:`use` or
:func:`set_default_registry`.  :class:`NullRegistry` is the no-op
implementation the overhead benchmark compares against.

Counters are plain Python int adds behind one dict lookup — cheap
enough for per-tick accounting (the streaming engine publishes once
per micro-batch, never per message), and safe without locks under the
GIL-per-tick design: no instrumented path mutates a metric from two
threads concurrently.
"""

from __future__ import annotations

import contextlib
import json
import re
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

#: Default histogram buckets for durations in seconds.
TIME_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)

#: Default buckets for anomaly scores (negative log-likelihoods).
SCORE_BUCKETS: Tuple[float, ...] = (
    0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0,
)

#: Default buckets for batch/tick sizes.
SIZE_BUCKETS: Tuple[float, ...] = (
    1.0, 8.0, 64.0, 256.0, 1024.0, 4096.0,
)


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (got {amount})"
            )
        self.value += amount


class Gauge:
    """A last-written value (e.g. a similarity, a rate, a size)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge with ``value``."""
        self.value = float(value)


class Histogram:
    """A fixed-bucket histogram with Prometheus ``le`` semantics.

    Bucket ``i`` counts observations ``v`` with
    ``edges[i-1] < v <= edges[i]``; one implicit overflow bucket
    (``+Inf``) catches everything beyond the last edge.
    """

    __slots__ = ("name", "edges", "counts", "sum", "count")

    def __init__(
        self, name: str, edges: Sequence[float] = TIME_BUCKETS
    ) -> None:
        if not edges or list(edges) != sorted(edges):
            raise ValueError(
                f"histogram {name!r} needs ascending bucket edges"
            )
        self.name = name
        self.edges: Tuple[float, ...] = tuple(float(e) for e in edges)
        self.counts: List[int] = [0] * (len(self.edges) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        index = int(np.searchsorted(self.edges, value, side="left"))
        self.counts[index] += 1
        self.sum += value
        self.count += 1

    def observe_array(self, values: np.ndarray) -> None:
        """Record a whole array in one vectorized pass."""
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        if values.size == 0:
            return
        indices = np.searchsorted(self.edges, values, side="left")
        binned = np.bincount(indices, minlength=len(self.counts))
        for i, n in enumerate(binned):
            self.counts[i] += int(n)
        self.sum += float(values.sum())
        self.count += int(values.size)


class _Timed:
    """Context manager recording a block's duration in a histogram.

    The registry is resolved when the block exits, so :func:`timed`
    reports into whatever registry is active then.
    """

    def __init__(
        self,
        name: str,
        registry: Optional["MetricsRegistry"] = None,
        edges: Sequence[float] = TIME_BUCKETS,
    ) -> None:
        self._name = name
        self._registry = registry
        self._edges = edges
        self._start = 0.0

    def __enter__(self) -> "_Timed":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        registry = self._registry or default_registry()
        registry.histogram(self._name, edges=self._edges).observe(
            time.perf_counter() - self._start
        )


class MetricsRegistry:
    """A named collection of counters, gauges and histograms.

    Metrics are created on first access and live for the registry's
    lifetime; names are unique across kinds (asking for a counter
    named like an existing gauge raises).
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- access -----------------------------------------------------------

    def _check_kind(self, name: str, kind: Dict) -> None:
        for other in (self._counters, self._gauges, self._histograms):
            if other is not kind and name in other:
                raise ValueError(
                    f"metric {name!r} already exists with another kind"
                )

    def counter(self, name: str) -> Counter:
        """The counter named ``name``, created on first access."""
        metric = self._counters.get(name)
        if metric is None:
            self._check_kind(name, self._counters)
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name``, created on first access."""
        metric = self._gauges.get(name)
        if metric is None:
            self._check_kind(name, self._gauges)
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(
        self, name: str, edges: Sequence[float] = TIME_BUCKETS
    ) -> Histogram:
        """The histogram named ``name``, created on first access."""
        metric = self._histograms.get(name)
        if metric is None:
            self._check_kind(name, self._histograms)
            metric = self._histograms[name] = Histogram(name, edges)
        return metric

    def timed(
        self, name: str, edges: Sequence[float] = TIME_BUCKETS
    ) -> _Timed:
        """Time a ``with`` block."""
        return _Timed(name, registry=self, edges=edges)

    def merge(self, snapshots: Sequence[Dict]) -> "MetricsRegistry":
        """Fold :meth:`snapshot` dicts into this registry, in order.

        The fleet coordinator uses this to aggregate per-shard worker
        registries into one fleet view; ``repro telemetry --merge``
        exposes the same fold for multi-run aggregation.  Semantics per
        kind: counters *sum* (event counts are additive across shards),
        gauges are *last write wins* (later snapshots overwrite), and
        histograms merge *bucket-wise* (their edges must agree — there
        is no meaningful rebinning between different bucket layouts).

        Returns this registry, so merges chain.
        """
        for snap in snapshots:
            for name, value in snap.get("counters", {}).items():
                self.counter(name).inc(int(value))
            for name, value in snap.get("gauges", {}).items():
                self.gauge(name).set(float(value))
            for name, data in snap.get("histograms", {}).items():
                edges = [float(e) for e in data["edges"]]
                metric = self.histogram(name, edges=edges)
                if list(metric.edges) != edges:
                    raise ValueError(
                        f"histogram {name!r} bucket edges differ "
                        "between snapshots; cannot merge bucket-wise"
                    )
                for index, count in enumerate(data["counts"]):
                    metric.counts[index] += int(count)
                metric.sum += float(data["sum"])
                metric.count += int(data["count"])
        return self

    # -- exporters --------------------------------------------------------

    def snapshot(self) -> Dict:
        """A JSON-ready dict of every metric's current state."""
        return {
            "counters": {
                name: metric.value
                for name, metric in sorted(self._counters.items())
            },
            "gauges": {
                name: metric.value
                for name, metric in sorted(self._gauges.items())
            },
            "histograms": {
                name: {
                    "edges": list(metric.edges),
                    "counts": list(metric.counts),
                    "sum": metric.sum,
                    "count": metric.count,
                }
                for name, metric in sorted(self._histograms.items())
            },
        }

    def to_json(self, indent: int = 2) -> str:
        """The snapshot as a JSON document."""
        return json.dumps(self.snapshot(), indent=indent)

    def to_prometheus(self) -> str:
        """The registry in the Prometheus text exposition format.

        The ``# HELP`` line carries the registry's dotted metric name.
        """
        lines: List[str] = []
        for name, metric in sorted(self._counters.items()):
            prom = _prom_name(name)
            lines.append(f"# HELP {prom} {name}")
            lines.append(f"# TYPE {prom} counter")
            lines.append(f"{prom} {_format_value(metric.value)}")
        for name, metric in sorted(self._gauges.items()):
            prom = _prom_name(name)
            lines.append(f"# HELP {prom} {name}")
            lines.append(f"# TYPE {prom} gauge")
            lines.append(f"{prom} {_format_value(metric.value)}")
        for name, metric in sorted(self._histograms.items()):
            prom = _prom_name(name)
            lines.append(f"# HELP {prom} {name}")
            lines.append(f"# TYPE {prom} histogram")
            cumulative = 0
            for edge, count in zip(metric.edges, metric.counts):
                cumulative += count
                lines.append(
                    f'{prom}_bucket{{le="{_format_value(edge)}"}} '
                    f"{cumulative}"
                )
            lines.append(
                f'{prom}_bucket{{le="+Inf"}} {metric.count}'
            )
            lines.append(f"{prom}_sum {_format_value(metric.sum)}")
            lines.append(f"{prom}_count {metric.count}")
        return "\n".join(lines) + "\n"


def _prom_name(name: str) -> str:
    """Sanitize a dotted metric name for Prometheus exposition."""
    return "repro_" + re.sub(r"[^a-zA-Z0-9_]", "_", name)


def _format_value(value: float) -> str:
    """Format a sample value: integral values without a fraction."""
    if isinstance(value, int):
        return str(value)
    as_float = float(value)
    if as_float == int(as_float) and abs(as_float) < 1e16:
        return str(int(as_float))
    return repr(as_float)


# -- no-op implementation (overhead baseline) ---------------------------


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass

    def observe_array(self, values: np.ndarray) -> None:
        pass


class NullRegistry(MetricsRegistry):
    """A registry whose metrics discard every write.

    The overhead baseline: running the instrumented hot paths under a
    ``NullRegistry`` measures the cost of the *calls*, under a real
    :class:`MetricsRegistry` the cost of calls plus accounting — the
    streaming perf suite pins their difference below 3%.
    """

    def __init__(self) -> None:
        super().__init__()
        self._null_counter = _NullCounter("null")
        self._null_gauge = _NullGauge("null")
        self._null_histogram = _NullHistogram("null", (1.0,))

    def counter(self, name: str) -> Counter:
        """The shared no-op counter (every write is discarded)."""
        return self._null_counter

    def gauge(self, name: str) -> Gauge:
        """The shared no-op gauge (every write is discarded)."""
        return self._null_gauge

    def histogram(
        self, name: str, edges: Sequence[float] = TIME_BUCKETS
    ) -> Histogram:
        """The shared no-op histogram (every write is discarded)."""
        return self._null_histogram

    def snapshot(self) -> Dict:
        """An empty snapshot: null metrics record nothing."""
        return {"counters": {}, "gauges": {}, "histograms": {}}


# -- process-wide default registry --------------------------------------

_default_registry = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide registry instrumented code reports into."""
    return _default_registry


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the default registry, returning the previous one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous


@contextlib.contextmanager
def use(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Scope the default registry to a block (tests, benchmarks)."""
    previous = set_default_registry(registry)
    try:
        yield registry
    finally:
        set_default_registry(previous)


def counter(name: str) -> Counter:
    """``default_registry().counter(name)``."""
    return _default_registry.counter(name)


def gauge(name: str) -> Gauge:
    """``default_registry().gauge(name)``."""
    return _default_registry.gauge(name)


def histogram(
    name: str, edges: Sequence[float] = TIME_BUCKETS
) -> Histogram:
    """``default_registry().histogram(name, edges)``."""
    return _default_registry.histogram(name, edges)


def timed(
    name: str, edges: Sequence[float] = TIME_BUCKETS
) -> _Timed:
    """Time a ``with`` block against the *current* default registry."""
    return _Timed(name, registry=None, edges=edges)
