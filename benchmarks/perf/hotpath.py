"""Hot-path microbenchmarks: before/after numbers for the fast path.

Three benchmarks, each timing the frozen pre-optimization reference
(:mod:`legacy`) against the live implementation on identical inputs:

* ``lstm`` — LSTM layer forward+backward throughput (timesteps/s);
* ``template`` — ``TemplateStore.transform`` throughput (messages/s),
  the seed's regex signature-tree walk vs. the dispatch map;
* ``fit_score`` — end-to-end ``LSTMAnomalyDetector.fit`` + ``score``
  wall time on a simulated syslog stream.

``run(scale)`` executes all three and returns a JSON-ready record;
``run.py`` appends it to ``BENCH_hotpath.json`` at the repo root so
every later optimization PR has a trajectory to beat.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

import legacy
from repro.core.detector import LSTMAnomalyDetector
from repro.logs.templates import TemplateStore
from repro.nn.lstm import LSTM
from repro.synthesis import FleetSimulator, SimulationConfig


@dataclass(frozen=True)
class Scale:
    """One benchmark operating point.

    The default models the paper's deployment shape in miniature: the
    per-detector message volume dwarfs the (capped) training-sample
    count, so end-to-end ``fit`` is a template-matching + windowing +
    training mix rather than a pure training loop.
    """

    name: str
    lstm_batch: int = 64
    lstm_steps: int = 10
    lstm_features: int = 28
    lstm_hidden: int = 32
    lstm_iters: int = 30
    n_vpes: int = 6
    n_months: int = 1
    rate_per_hour: float = 40.0
    store_fit_messages: int = 6000
    transform_messages: int = 30000
    transform_repeats: int = 1
    fit_samples: int = 8000
    fit_epochs: int = 2
    fit_window: int = 10
    fit_hidden: int = 24


SCALES: Dict[str, Scale] = {
    # The reference operating point BENCH_hotpath.json records.
    "default": Scale(name="default"),
    # Small enough for CI / the perf-marked pytest smoke run (<60 s
    # including the slow legacy side).
    "reduced": Scale(
        name="reduced",
        lstm_iters=8,
        n_vpes=2,
        rate_per_hour=12.0,
        store_fit_messages=2000,
        transform_messages=6000,
        fit_samples=1500,
        fit_epochs=1,
        fit_window=8,
        fit_hidden=12,
    ),
}


def _best_of(fn: Callable[[], None], repeats: int = 3) -> float:
    """Wall time of ``fn`` — best of ``repeats`` to damp scheduler noise."""
    times: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def _speedup(before: float, after: float) -> float:
    return before / after if after > 0 else float("inf")


def simulate_messages(scale: Scale):
    """One vPE-merged normal message stream from the fleet simulator."""
    config = SimulationConfig(
        n_vpes=scale.n_vpes,
        n_months=scale.n_months,
        seed=23,
        base_rate_per_hour=scale.rate_per_hour,
        update_month=None,
        n_fleet_events=0,
    )
    dataset = FleetSimulator(config).run()
    messages = dataset.aggregate_messages(normal_only=True)
    streams = [
        dataset.normal_messages(vpe, dataset.start, dataset.end, 0.0)
        for vpe in dataset.vpe_names
    ]
    return messages, streams


def bench_lstm(scale: Scale) -> Dict[str, float]:
    """Forward+backward timestep throughput, legacy vs fused."""
    rng = np.random.default_rng(5)
    x = rng.standard_normal(
        (scale.lstm_batch, scale.lstm_steps, scale.lstm_features)
    )
    grad = rng.standard_normal((scale.lstm_batch, scale.lstm_hidden))
    total_steps = scale.lstm_iters * scale.lstm_batch * scale.lstm_steps

    def make(layer_cls):
        layer = layer_cls(scale.lstm_hidden)
        layer.build(
            (scale.lstm_steps, scale.lstm_features),
            np.random.default_rng(9),
        )
        return layer

    def loop(layer):
        def body():
            for _ in range(scale.lstm_iters):
                layer.zero_grads()
                layer.forward(x)
                layer.backward(grad)
        return body

    before = _best_of(loop(make(legacy.LegacyLSTM)))
    after = _best_of(loop(make(LSTM)))
    return {
        "before_steps_per_s": total_steps / before,
        "after_steps_per_s": total_steps / after,
        "before_s": before,
        "after_s": after,
        "speedup": _speedup(before, after),
    }


def bench_template(scale: Scale, messages) -> Dict[str, float]:
    """``TemplateStore.transform`` throughput, the seed's per-token
    regex sweep vs the dispatch map."""
    store = TemplateStore()
    store.fit(messages[: scale.store_fit_messages])
    stream = messages[: scale.transform_messages]
    seed = legacy.uncached_store(store)

    def loop(target):
        def body():
            for _ in range(scale.transform_repeats):
                target.transform(stream)
        return body

    # The dispatch map is built by ``fit``, so there is nothing to
    # warm: every pass costs one split, one probe and one tuple compare
    # per message.  ``hit_rate`` is the share whose first token found
    # their leaf; the rest had a variable first token or no leaf.
    before = _best_of(loop(seed))
    after = _best_of(loop(store))
    n = len(stream) * scale.transform_repeats
    hits, misses = store.memo_stats
    return {
        "before_msgs_per_s": n / before,
        "after_msgs_per_s": n / after,
        "before_s": before,
        "after_s": after,
        "hit_rate": hits / max(hits + misses, 1),
        "speedup": _speedup(before, after),
    }


def bench_fit_score(scale: Scale, messages, streams) -> Dict[str, float]:
    """End-to-end detector ``fit`` + ``score``, legacy stack vs live.

    Three sides: ``before`` is the frozen seed stack (float64, the
    only precision it had); ``after`` is the live fast path (fused
    kernels, memoized matching, ``dtype=float32``); ``after_f64`` is
    the live stack at the bitwise-reproducible float64 default.  The
    headline speedups compare before to the fast path.
    """
    store = TemplateStore()
    store.fit(messages[: scale.store_fit_messages])
    kwargs = dict(
        vocabulary_capacity=256,
        window=scale.fit_window,
        hidden=(scale.fit_hidden, scale.fit_hidden),
        id_dim=16,
        epochs=scale.fit_epochs,
        oversample_rounds=1,
        max_train_samples=scale.fit_samples,
        seed=3,
    )
    score_stream = streams[0]

    results = {}
    sides = (
        ("before", lambda: legacy.legacy_detector(store, **kwargs)),
        (
            "after",
            lambda: LSTMAnomalyDetector(
                store, dtype=np.float32, **kwargs
            ),
        ),
        ("after_f64", lambda: LSTMAnomalyDetector(store, **kwargs)),
    )
    # Interleave the sides across repeats (fresh detector each time)
    # so scheduler/thermal drift hits all of them equally.
    for _ in range(2):
        for side, factory in sides:
            detector = factory()
            start = time.perf_counter()
            detector.fit_streams(streams)
            fit_s = time.perf_counter() - start
            start = time.perf_counter()
            scored = detector.score(score_stream)
            score_s = time.perf_counter() - start
            results[f"{side}_fit_s"] = min(
                results.get(f"{side}_fit_s", fit_s), fit_s
            )
            results[f"{side}_score_s"] = min(
                results.get(f"{side}_score_s", score_s), score_s
            )
            results[f"{side}_scored_messages"] = int(len(scored))
    results["fit_speedup"] = _speedup(
        results["before_fit_s"], results["after_fit_s"]
    )
    results["score_speedup"] = _speedup(
        results["before_score_s"], results["after_score_s"]
    )
    results["fit_speedup_f64"] = _speedup(
        results["before_fit_s"], results["after_f64_fit_s"]
    )
    results["score_speedup_f64"] = _speedup(
        results["before_score_s"], results["after_f64_score_s"]
    )
    return results


def run(scale_name: str = "default") -> Dict:
    """Run every microbenchmark at the named scale."""
    scale = SCALES[scale_name]
    messages, streams = simulate_messages(scale)
    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "scale": scale.name,
        "benchmarks": {
            "lstm_step_throughput": bench_lstm(scale),
            "template_transform": bench_template(scale, messages),
            "detector_fit_score": bench_fit_score(
                scale, messages, streams
            ),
        },
    }
    return record
