"""Tests for repro.core.online (streaming monitor)."""

import numpy as np
import pytest

from repro.core.detector import LSTMAnomalyDetector
from repro.core.online import OnlineMonitor
from repro.logs.templates import TemplateStore
from repro.timeutil import MINUTE, TRACE_START
from tests.conftest import make_message

TEXTS = [
    "ALPHA: phase one complete",
    "BRAVO: phase two complete",
    "CHARLIE: phase three complete",
    "DELTA: phase four complete",
]
ANOMALY_TEXT = "ZULU: catastrophic meltdown imminent now"


def cyclic_stream(n=600, start=TRACE_START, period=10.0, host="vpe00"):
    return [
        make_message(
            timestamp=start + i * period,
            host=host,
            text=TEXTS[i % len(TEXTS)],
        )
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def detector():
    train = cyclic_stream()
    store = TemplateStore().fit(train)
    model = LSTMAnomalyDetector(
        store,
        vocabulary_capacity=16,
        window=4,
        hidden=(12, 12),
        id_dim=8,
        epochs=6,
        oversample_rounds=0,
        seed=0,
    ).fit(train)
    return model


@pytest.fixture()
def threshold(detector):
    scores = detector.score(cyclic_stream(300)).scores
    return float(np.quantile(scores, 0.999)) + 0.5


class TestObserve:
    def test_quiet_on_normal_stream(self, detector, threshold):
        monitor = OnlineMonitor(detector, threshold)
        warnings = monitor.run(cyclic_stream(300))
        assert warnings == []
        assert monitor.n_observed == 300

    def test_burst_raises_exactly_one_warning(self, detector,
                                              threshold):
        monitor = OnlineMonitor(
            detector, threshold, cooldown=30 * MINUTE
        )
        stream = cyclic_stream(200)
        burst_at = 100
        for offset in range(4):
            index = burst_at + offset
            stream[index] = make_message(
                timestamp=stream[index].timestamp, text=ANOMALY_TEXT
            )
        warnings = monitor.run(stream)
        assert len(warnings) == 1
        warning = warnings[0]
        assert warning.vpe == "vpe00"
        assert warning.n_anomalies >= 2
        assert (
            stream[burst_at].timestamp
            <= warning.time
            <= stream[burst_at + 4].timestamp
        )
        assert warning.peak_score > threshold

    def test_cooldown_expires(self, detector, threshold):
        monitor = OnlineMonitor(
            detector, threshold, cooldown=10 * MINUTE
        )
        stream = cyclic_stream(1000)
        # two bursts two hours apart (period 10s -> 720 steps = 2h)
        for start in (100, 100 + 720):
            for offset in range(4):
                index = start + offset
                stream[index] = make_message(
                    timestamp=stream[index].timestamp,
                    text=ANOMALY_TEXT,
                )
        warnings = monitor.run(stream)
        assert len(warnings) == 2

    def test_singleton_anomaly_no_warning(self, detector, threshold):
        monitor = OnlineMonitor(detector, threshold,
                                cluster_min_size=2)
        stream = cyclic_stream(200)
        stream[100] = make_message(
            timestamp=stream[100].timestamp, text=ANOMALY_TEXT
        )
        assert monitor.run(stream) == []
        assert monitor.n_anomalies >= 1

    def test_devices_isolated(self, detector, threshold):
        monitor = OnlineMonitor(detector, threshold)
        a = cyclic_stream(120, host="vpe00")
        b = cyclic_stream(120, host="vpe01")
        # anomalies split across devices never cluster
        a[60] = make_message(
            timestamp=a[60].timestamp, host="vpe00",
            text=ANOMALY_TEXT,
        )
        b[60] = make_message(
            timestamp=b[60].timestamp, host="vpe01",
            text=ANOMALY_TEXT,
        )
        merged = sorted(a + b, key=lambda m: m.timestamp)
        assert monitor.run(merged) == []

    def test_out_of_order_rejected(self, detector, threshold):
        """A message older than its device's newest is not ingested:
        unscored, unobserved, and counted as reordered."""
        monitor = OnlineMonitor(detector, threshold)
        monitor.observe_batch([make_message(timestamp=TRACE_START + 100)])
        monitor.observe_batch([make_message(timestamp=TRACE_START)])
        assert not monitor.last_batch.kept[0]
        assert np.isnan(monitor.last_batch.scores[0])
        assert monitor.n_observed == 1
        assert monitor.n_reordered == 1

    def test_invalid_params(self, detector, threshold):
        with pytest.raises(ValueError):
            OnlineMonitor(detector, threshold, cluster_min_size=0)
        with pytest.raises(ValueError):
            OnlineMonitor(detector, threshold, cluster_max_gap=0)


class TestOnlineOfflineConsistency:
    def test_scores_match_offline(self, detector, threshold):
        """The streaming scorer must reproduce the offline scores."""
        stream = cyclic_stream(100)
        offline = detector.score(stream)
        monitor = OnlineMonitor(detector, threshold=float("inf"))
        online_scores = []
        for message in stream:
            monitor.observe_batch([message])
            score = monitor.last_batch.scores[0]
            if not np.isnan(score):
                online_scores.append(score)
        # offline skips the first `window` messages; the online path
        # scores exactly the same suffix with identical values
        assert len(online_scores) == len(offline)
        assert np.allclose(
            online_scores, offline.scores, atol=1e-9
        )

    def test_replay_matches_offline_bitwise(self, detector):
        """At float64, a replayed stream scores bitwise equal to
        ``detector.score`` — message-at-a-time and micro-batched."""
        stream = cyclic_stream(120)
        offline = detector.score(stream).scores
        one = OnlineMonitor(detector, threshold=float("inf"))
        per_message = np.concatenate(
            [
                one.scorer.observe_batch([m]).scores
                for m in stream
            ]
        )
        batched_monitor = OnlineMonitor(
            detector, threshold=float("inf")
        )
        batched = batched_monitor.scorer.observe_batch(stream).scores
        assert np.array_equal(per_message, batched, equal_nan=True)
        scored = batched[~np.isnan(batched)]
        assert np.array_equal(scored, offline)

    def test_multi_device_interleaved_bitwise(self, detector):
        """Interleaved devices, scored in ticks, must match each
        device's offline scores bitwise at float64."""
        streams = {
            host: cyclic_stream(
                80, host=host, start=TRACE_START + offset
            )
            for offset, host in enumerate(
                ["vpe00", "vpe01", "vpe02"]
            )
        }
        merged = sorted(
            (m for s in streams.values() for m in s),
            key=lambda m: m.timestamp,
        )
        monitor = OnlineMonitor(detector, threshold=float("inf"))
        scores = np.concatenate(
            [
                monitor.scorer.observe_batch(merged[i:i + 33]).scores
                for i in range(0, len(merged), 33)
            ]
        )
        hosts = np.array([m.host for m in merged])
        for host, stream in streams.items():
            offline = detector.score(stream).scores
            got = scores[hosts == host]
            got = got[~np.isnan(got)]
            assert np.array_equal(got, offline), host

    def test_run_warnings_match_observe_loop(self, detector,
                                             threshold):
        """Micro-batched run() emits exactly the warnings of a
        message-at-a-time observe_batch() loop."""
        stream = cyclic_stream(300)
        for start in (80, 200):
            for offset in range(4):
                index = start + offset
                stream[index] = make_message(
                    timestamp=stream[index].timestamp,
                    text=ANOMALY_TEXT,
                )
        loop_monitor = OnlineMonitor(
            detector, threshold, cooldown=10 * MINUTE
        )
        loop_warnings = [
            w
            for w in (loop_monitor.observe_batch([m])[0] for m in stream)
            if w is not None
        ]
        run_monitor = OnlineMonitor(
            detector, threshold, cooldown=10 * MINUTE
        )
        run_warnings = run_monitor.run(stream, tick_size=64)
        assert run_warnings == loop_warnings
        assert run_monitor.n_observed == loop_monitor.n_observed
        assert run_monitor.n_anomalies == loop_monitor.n_anomalies


class TestStrictOrder:
    """Per-device timestamp order holds by dropping late arrivals."""

    def test_default_counts_nothing(self, detector, threshold):
        monitor = OnlineMonitor(detector, threshold)
        monitor.run(cyclic_stream(50))
        assert monitor.n_reordered == 0

    def test_drop_mode_survives_misordered(self, detector,
                                           threshold):
        monitor = OnlineMonitor(detector, threshold)
        stream = cyclic_stream(60)
        stale = make_message(
            timestamp=TRACE_START, text=TEXTS[0]
        )
        dirty = stream[:30] + [stale] + stream[30:]
        monitor.run(dirty, tick_size=16)
        assert monitor.n_reordered == 1
        assert monitor.n_observed == 60  # dropped one not counted
        # dropped arrivals never reach the warning logic
        reference = OnlineMonitor(detector, threshold)
        reference.run(stream)
        assert (
            monitor.last_batch.scores[-1]
            == reference.last_batch.scores[-1]
        )

    def test_observe_returns_none_for_dropped(self, detector,
                                              threshold):
        monitor = OnlineMonitor(detector, threshold)
        monitor.observe_batch([make_message(timestamp=TRACE_START + 100)])
        late = make_message(timestamp=TRACE_START)
        assert monitor.observe_batch([late]) == [None]
        assert monitor.n_reordered == 1


class TestStateDict:
    def test_roundtrip_warning_parity(self, detector, threshold):
        """Restore mid-incident: the warning cluster must survive."""
        normal = cyclic_stream(120)
        burst = [
            make_message(
                timestamp=TRACE_START + 1200.0 + t,
                text=ANOMALY_TEXT,
            )
            for t in (0.0, 30.0, 60.0)
        ]
        stream = sorted(normal + burst, key=lambda m: m.timestamp)
        cut = next(
            i
            for i, m in enumerate(stream)
            if m.text == ANOMALY_TEXT
        ) + 1  # split right after the first anomaly of the cluster

        straight = OnlineMonitor(detector, threshold)
        expected = straight.run(stream)

        source = OnlineMonitor(detector, threshold)
        head_warnings = source.run(stream[:cut])
        restored = OnlineMonitor(detector, threshold)
        restored.load_state_dict(source.state_dict())
        tail_warnings = restored.run(stream[cut:])

        assert head_warnings + tail_warnings == expected
        assert expected, "fixture must actually emit a warning"
        assert restored.n_observed == straight.n_observed
        assert restored.n_anomalies == straight.n_anomalies

    def test_state_is_json_safe_except_scorer_arrays(
        self, detector, threshold
    ):
        import json

        monitor = OnlineMonitor(detector, threshold)
        monitor.run(cyclic_stream(40))
        state = monitor.state_dict()
        scorer_state = state.pop("scorer")
        json.dumps(state)  # must not raise
        json.dumps(
            {
                k: v
                for k, v in scorer_state.items()
                if not isinstance(v, np.ndarray)
            }
        )

    def test_version_validated(self, detector, threshold):
        monitor = OnlineMonitor(detector, threshold)
        state = monitor.state_dict()
        state["version"] = 99
        with pytest.raises(ValueError, match="version"):
            OnlineMonitor(detector, threshold).load_state_dict(state)
