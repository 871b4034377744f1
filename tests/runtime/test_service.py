"""Tests for repro.runtime.service (the durable supervisor).

The crash tests use the service's fault hook to die at the exact
points a real process could die — after a WAL append, before a
checkpoint — then restart and assert the recovered run is bitwise
identical to an uninterrupted one: same float64 scores, same
warnings, every message scored exactly once.
"""

import json

import numpy as np
import pytest

from repro.core.detector import LSTMAnomalyDetector
from repro.logs.templates import TemplateStore
from repro.runtime.adapt import fine_tune
from repro.runtime.codec import TickEncoder
from repro.runtime.service import (
    FAULT_AFTER_WAL_APPEND,
    FAULT_BEFORE_CHECKPOINT,
    MonitorService,
    ServiceConfig,
    ServiceError,
    detector_from_release,
    stage_release,
)
from repro.runtime.session import AdaptiveTicker
from repro.runtime.store import ArtifactStore
from repro.timeutil import TRACE_START
from tests.conftest import make_message

TEXTS = [
    "ALPHA: phase one complete",
    "BRAVO: phase two complete",
    "CHARLIE: phase three complete",
    "DELTA: phase four complete",
]
ANOMALY_TEXT = "ZULU: catastrophic meltdown imminent now"


def cyclic_stream(n, start=TRACE_START, period=10.0, host="vpe00"):
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
    train = cyclic_stream(600)
    store = TemplateStore().fit(train)
    return LSTMAnomalyDetector(
        store,
        vocabulary_capacity=16,
        window=4,
        hidden=(12, 12),
        id_dim=8,
        epochs=6,
        oversample_rounds=0,
        seed=0,
    ).fit(train)


@pytest.fixture(scope="module")
def threshold(detector):
    scores = detector.score(cyclic_stream(300)).scores
    return float(np.nanquantile(scores, 0.999)) + 0.25


@pytest.fixture(scope="module")
def ticks(detector):
    """16 eight-message ticks over two devices, with two anomaly
    bursts close enough to cluster into warnings."""
    feed = cyclic_stream(60, start=TRACE_START + 7000.0)
    feed += cyclic_stream(
        60, start=TRACE_START + 7003.0, host="vpe01"
    )
    feed += [
        make_message(
            timestamp=TRACE_START + 7000.0 + t,
            host="vpe00",
            text=ANOMALY_TEXT,
        )
        for t in (151.0, 152.0, 403.0, 404.0)
    ]
    feed.sort(key=lambda m: m.timestamp)
    feed = feed[:128]
    return [feed[i:i + 8] for i in range(0, len(feed), 8)]


def make_service(tmp_path, detector, threshold, name="svc", **kwargs):
    config = ServiceConfig(
        data_dir=tmp_path / name,
        checkpoint_every=kwargs.pop("checkpoint_every", 3),
        **kwargs,
    )
    store = ArtifactStore(
        config.store_dir, keep_releases=config.keep_releases
    )
    stage_release(store, detector, threshold)
    return config


def crash_at(service, n_appends):
    """Install a hook that dies on the Nth WAL append from now."""
    state = {"appends": 0}

    def hook(point, sequence):
        if point == FAULT_AFTER_WAL_APPEND:
            state["appends"] += 1
            if state["appends"] >= n_appends:
                raise RuntimeError("injected crash")

    service.fault_hook = hook


def flatten(results):
    scores = np.concatenate([r.scores for r in results])
    warnings = [w for r in results for w in r.warnings]
    return scores, warnings


def run_with_crash_and_recover(config, ticks, crash_tick):
    """Crash at tick index ``crash_tick``; restart, replay, finish.

    Returns the merged tick results with the replayed ticks replacing
    their (bitwise-asserted-identical) pre-crash duplicates.
    """
    service = MonitorService.open(config)
    live = []
    for index, tick in enumerate(ticks):
        if index == crash_tick:
            crash_at(service, 1)
            with pytest.raises(RuntimeError, match="injected crash"):
                service.process_tick(tick)
            break
        live.append(service.process_tick(tick))
    # no close(): the process died. Reopen from disk.
    revived = MonitorService.open(config)
    report = revived.recover()
    overlap = report.ticks_replayed - 1  # crash tick was never scored
    if overlap:
        for before, after in zip(live[-overlap:], report.results):
            assert np.array_equal(
                before.scores, after.scores, equal_nan=True
            )
            assert before.warnings == after.warnings
        live = live[:-overlap]
    results = live + list(report.results)
    for tick in ticks[crash_tick + 1:]:
        results.append(revived.process_tick(tick))
    revived.close()
    return results, report


class TestOpen:
    def test_open_empty_store_fails(self, tmp_path):
        config = ServiceConfig(data_dir=tmp_path / "empty")
        with pytest.raises(ServiceError, match="no release"):
            MonitorService.open(config)

    def test_release_roundtrip_scores_identically(
        self, tmp_path, detector, threshold
    ):
        config = make_service(tmp_path, detector, threshold)
        store = ArtifactStore(config.store_dir)
        rebuilt, restored_threshold = detector_from_release(store, 1)
        assert restored_threshold == threshold
        probe = cyclic_stream(64, start=TRACE_START + 9000.0)
        assert np.array_equal(
            detector.score(probe).scores,
            rebuilt.score(probe).scores,
            equal_nan=True,
        )

    def test_closed_service_rejects_ticks(
        self, tmp_path, detector, threshold, ticks
    ):
        config = make_service(tmp_path, detector, threshold)
        service = MonitorService.open(config)
        service.process_tick(ticks[0])
        service.close()
        with pytest.raises(ServiceError, match="closed"):
            service.process_tick(ticks[1])


class TestCrashRecovery:
    def test_uninterrupted_run_emits_warnings(
        self, tmp_path, detector, threshold, ticks
    ):
        config = make_service(tmp_path, detector, threshold)
        with MonitorService.open(config) as service:
            results = [service.process_tick(t) for t in ticks]
        _, warnings = flatten(results)
        assert warnings, "fixture must produce warnings to compare"

    @pytest.mark.parametrize("crash_tick", [1, 7, 15])
    def test_crash_replay_parity(
        self, tmp_path, detector, threshold, ticks, crash_tick
    ):
        base_config = make_service(tmp_path, detector, threshold, "a")
        with MonitorService.open(base_config) as service:
            base = [service.process_tick(t) for t in ticks]
        base_scores, base_warnings = flatten(base)

        crash_config = make_service(tmp_path, detector, threshold, "b")
        results, report = run_with_crash_and_recover(
            crash_config, ticks, crash_tick
        )
        scores, warnings = flatten(results)
        assert np.array_equal(base_scores, scores, equal_nan=True)
        assert base_warnings == warnings
        assert scores.size == sum(len(t) for t in ticks)
        assert report.records_replayed >= 1

    def test_crash_before_checkpoint_keeps_previous(
        self, tmp_path, detector, threshold, ticks
    ):
        config = make_service(tmp_path, detector, threshold)
        service = MonitorService.open(config)

        def hook(point, sequence):
            if point == FAULT_BEFORE_CHECKPOINT and sequence > 4:
                raise RuntimeError("died before checkpoint")

        for tick in ticks[:3]:  # cadence 3: checkpoint after tick 3
            service.process_tick(tick)
        service.fault_hook = hook
        with pytest.raises(RuntimeError, match="before checkpoint"):
            for tick in ticks[3:6]:
                service.process_tick(tick)
        revived = MonitorService.open(config)
        report = revived.recover()
        # the earlier checkpoint survived; only newer ticks replay
        assert report.checkpoint_cursor > 0
        assert report.ticks_replayed >= 1
        revived.process_tick(ticks[6])
        revived.close()

    def test_wal_pruned_behind_checkpoints(
        self, tmp_path, detector, threshold, ticks
    ):
        config = make_service(
            tmp_path, detector, threshold, segment_bytes=4096
        )
        with MonitorService.open(config) as service:
            for tick in ticks:
                service.process_tick(tick)
            assert len(service.wal.segments()) <= 2

    def test_recover_on_fresh_service_is_noop(
        self, tmp_path, detector, threshold
    ):
        config = make_service(tmp_path, detector, threshold)
        with MonitorService.open(config) as service:
            report = service.recover()
        assert report.records_replayed == 0
        assert report.checkpoint_cursor == 0


class TestHotSwap:
    def stage_variant(self, config, threshold):
        """Publish release 2 (same shape, scaled weights) as a swap
        candidate, leaving release 1 current for open()."""
        store = ArtifactStore(config.store_dir)
        variant, _ = detector_from_release(store, 1)
        variant.model.set_weights(
            {
                name: w * 1.05
                for name, w in variant.model.get_weights().items()
            }
        )
        release = stage_release(store, variant, threshold + 0.1)
        store.rollback()
        return store, release

    def test_swap_applies_at_tick_boundary(
        self, tmp_path, detector, threshold, ticks
    ):
        config = make_service(tmp_path, detector, threshold)
        _, release = self.stage_variant(config, threshold)
        with MonitorService.open(config) as service:
            before = [service.process_tick(t) for t in ticks[:4]]
            service.request_swap(release.release_id)
            after = [service.process_tick(t) for t in ticks[4:]]
        assert all(r.swapped_release is None for r in before)
        assert after[0].swapped_release == release.release_id
        assert all(r.swapped_release is None for r in after[1:])
        assert service.active_release == release.release_id
        # exactly once: every fed message has exactly one score
        total = sum(len(t) for t in ticks)
        scores, _ = flatten(before + after)
        assert scores.size == total

    def test_swap_changes_scores(
        self, tmp_path, detector, threshold, ticks
    ):
        plain = make_service(tmp_path, detector, threshold, "plain")
        with MonitorService.open(plain) as service:
            base = [service.process_tick(t) for t in ticks]
        swapped = make_service(tmp_path, detector, threshold, "swap")
        _, release = self.stage_variant(swapped, threshold)
        with MonitorService.open(swapped) as service:
            head = [service.process_tick(t) for t in ticks[:4]]
            service.request_swap(release.release_id)
            tail = [service.process_tick(t) for t in ticks[4:]]
        base_scores, _ = flatten(base)
        swap_scores, _ = flatten(head + tail)
        head_len = sum(len(t) for t in ticks[:4])
        assert np.array_equal(
            base_scores[:head_len],
            swap_scores[:head_len],
            equal_nan=True,
        )
        finite = np.isfinite(base_scores[head_len:]) & np.isfinite(
            swap_scores[head_len:]
        )
        assert not np.array_equal(
            base_scores[head_len:][finite],
            swap_scores[head_len:][finite],
        )

    def test_crash_between_swap_journal_and_apply(
        self, tmp_path, detector, threshold, ticks
    ):
        """A journaled-but-unapplied swap is re-applied on recovery,
        at the same boundary, with bitwise-identical scores."""
        base_cfg = make_service(tmp_path, detector, threshold, "a")
        _, release_a = self.stage_variant(base_cfg, threshold)
        with MonitorService.open(base_cfg) as service:
            base = [service.process_tick(t) for t in ticks[:4]]
            service.request_swap(release_a.release_id)
            base += [service.process_tick(t) for t in ticks[4:]]
        base_scores, base_warnings = flatten(base)

        crash_cfg = make_service(tmp_path, detector, threshold, "b")
        _, release_b = self.stage_variant(crash_cfg, threshold)
        service = MonitorService.open(crash_cfg)
        live = [service.process_tick(t) for t in ticks[:4]]
        service.request_swap(release_b.release_id)
        crash_at(service, 1)  # dies appending the swap record
        with pytest.raises(RuntimeError, match="injected crash"):
            service.process_tick(ticks[4])
        revived = MonitorService.open(crash_cfg)
        report = revived.recover()
        assert report.swaps_replayed == 1
        assert revived.active_release == release_b.release_id
        overlap = report.ticks_replayed
        if overlap:
            for before, after in zip(
                live[-overlap:], report.results
            ):
                assert np.array_equal(
                    before.scores, after.scores, equal_nan=True
                )
            live = live[:-overlap]
        results = live + list(report.results)
        results += [revived.process_tick(t) for t in ticks[4:]]
        revived.close()
        scores, warnings = flatten(results)
        assert np.array_equal(base_scores, scores, equal_nan=True)
        assert base_warnings == warnings

    def test_incompatible_swap_rejected(
        self, tmp_path, detector, threshold
    ):
        config = make_service(tmp_path, detector, threshold)
        store = ArtifactStore(config.store_dir)
        bad_config = json.loads(store.read(1, "config.json"))
        bad_config["window"] = bad_config["window"] + 1
        store.publish(
            {
                "weights.npz": store.read(1, "weights.npz"),
                "templates.json": store.read(1, "templates.json"),
                "config.json": json.dumps(bad_config).encode(),
            }
        )
        store.rollback()  # open() must come up on release 1
        with MonitorService.open(config) as service:
            with pytest.raises(ServiceError, match="window"):
                service.request_swap(2)

    def test_rollback_at_boundary_scores_exactly_once(
        self, tmp_path, detector, threshold, ticks
    ):
        """service.rollback() — the one code path behind both
        ``serve --rollback`` and the probation guard — journals the
        swap at a tick boundary: every message is scored exactly
        once, and a crash right after the rollback replays to
        bitwise-identical scores instead of re-scoring ticks under
        the abandoned model."""

        def run(name, crash_tick=None):
            config = make_service(tmp_path, detector, threshold, name)
            service = MonitorService.open(config)
            results = [service.process_tick(t) for t in ticks[:2]]
            # publish mid-run, like the adaptation loop does: the
            # store's CURRENT moves to 2 so rollback() can return it
            # to 1.
            variant, _ = detector_from_release(service.store, 1)
            variant.model.set_weights(
                {
                    name_: w * 1.05
                    for name_, w in variant.model.get_weights().items()
                }
            )
            release = stage_release(
                service.store, variant, threshold + 0.1
            )
            service.request_swap(release.release_id)
            results += [service.process_tick(t) for t in ticks[2:6]]
            assert service.active_release == release.release_id
            rolled_to = service.rollback()
            assert rolled_to == 1
            assert service.active_release == 1
            remaining = ticks[6:]
            if crash_tick is None:
                results += [
                    service.process_tick(t) for t in remaining
                ]
                service.close()
                return results
            for index, tick in enumerate(remaining):
                if index == crash_tick:
                    crash_at(service, 1)
                    with pytest.raises(
                        RuntimeError, match="injected crash"
                    ):
                        service.process_tick(tick)
                    break
                results.append(service.process_tick(tick))
            revived = MonitorService.open(config)
            report = revived.recover()
            assert revived.active_release == 1
            overlap = report.ticks_replayed - 1
            if overlap > 0:
                for before, after in zip(
                    results[-overlap:], report.results
                ):
                    assert np.array_equal(
                        before.scores, after.scores, equal_nan=True
                    )
                results = results[:-overlap]
            results += list(report.results)
            results += [
                revived.process_tick(t)
                for t in remaining[crash_tick + 1:]
            ]
            revived.close()
            return results

        base = run("base")
        crashed = run("crashed", crash_tick=1)
        total = sum(len(t) for t in ticks)
        base_scores, base_warnings = flatten(base)
        crash_scores, crash_warnings = flatten(crashed)
        assert base_scores.size == total
        assert crash_scores.size == total
        assert np.array_equal(
            base_scores, crash_scores, equal_nan=True
        )
        assert base_warnings == crash_warnings

    def test_adapt_publishes_and_stages(
        self, tmp_path, detector, threshold, ticks
    ):
        config = make_service(tmp_path, detector, threshold)
        with MonitorService.open(config) as service:
            for tick in ticks[:2]:
                service.process_tick(tick)
            fresh = cyclic_stream(80, start=TRACE_START + 20000.0)
            release = fine_tune(
                service.store,
                service.monitor.detector,
                [bytes(TickEncoder().encode(fresh))],
                service.monitor.threshold,
                epochs=1,
                poison=False,
                metadata={},
            )
            service.request_swap(release)
            assert release == 2
            assert service.pending_release == 2
            result = service.process_tick(ticks[2])
            assert result.swapped_release == 2
            assert service.active_release == 2
        store = ArtifactStore(config.store_dir)
        assert store.current_id() == 2


class TestJournalCompat:
    """Replay accepts binary tick records and JSON swap records only."""

    def test_unrecognized_journal_record_refused(
        self, tmp_path, detector, threshold, ticks
    ):
        cases = [
            (b"\x99mystery bytes", "unrecognized journal record"),
            # JSON records other than swaps are refused, never
            # silently skipped.
            (
                b'{"kind":"tick","messages":[]}',
                "unknown journal record kind 'tick'",
            ),
        ]
        for index, (payload, match) in enumerate(cases):
            config = make_service(
                tmp_path, detector, threshold, name=f"svc{index}"
            )
            service = MonitorService.open(config)
            service.recover()
            service.process_tick(ticks[0])
            service.wal.append(3, payload)
            service.close()
            revived = MonitorService.open(config)
            with pytest.raises(ServiceError, match=match):
                revived.recover()
            revived.wal.close()
            revived.lock.release()


class TestDrain:
    def _feed(self, ticks, n):
        return [message for tick in ticks[:n] for message in tick]

    def test_fixed_drain_resumes_at_tick_boundary(
        self, tmp_path, detector, threshold, ticks
    ):
        feed = self._feed(ticks, 8)
        config = make_service(tmp_path, detector, threshold)
        service = MonitorService.open(config)
        service.recover()
        first = list(service.drain(feed, tick_size=8, max_ticks=3))
        assert len(first) == 3
        assert service.n_ticks == 3
        rest = list(service.drain(feed, tick_size=8))
        service.close()
        assert len(first) + len(rest) == len(feed) // 8
        scores = np.concatenate(
            [r.scores for r in first + rest]
        )
        assert scores.shape[0] == len(feed)

    def test_adaptive_drain_resumes_from_message_cursor(
        self, tmp_path, detector, threshold, ticks
    ):
        feed = self._feed(ticks, 8)
        config = make_service(tmp_path, detector, threshold)
        service = MonitorService.open(config)
        service.recover()
        ticker = AdaptiveTicker(
            initial=8, min_size=4, max_size=32, hysteresis=1
        )
        first = list(
            service.drain(feed, ticker=ticker, max_ticks=2)
        )
        consumed = sum(len(r.scores) for r in first)
        assert service.n_messages == consumed
        rest = list(service.drain(feed, ticker=ticker))
        service.close()
        total = sum(len(r.scores) for r in first + rest)
        assert total == len(feed)

    def test_adaptive_drain_matches_fixed_scores(
        self, tmp_path, detector, threshold, ticks
    ):
        feed = self._feed(ticks, 8)
        fixed_config = make_service(
            tmp_path, detector, threshold, name="fixed"
        )
        with MonitorService.open(fixed_config) as fixed:
            fixed.recover()
            fixed_scores = np.concatenate(
                [r.scores for r in fixed.drain(feed, tick_size=8)]
            )
        adaptive_config = make_service(
            tmp_path, detector, threshold, name="adaptive"
        )
        with MonitorService.open(adaptive_config) as adaptive:
            adaptive.recover()
            adaptive_scores = np.concatenate(
                [
                    r.scores
                    for r in adaptive.drain(
                        feed,
                        ticker=AdaptiveTicker(
                            initial=4,
                            min_size=4,
                            max_size=16,
                            hysteresis=1,
                        ),
                    )
                ]
            )
        assert np.array_equal(
            fixed_scores, adaptive_scores, equal_nan=True
        )
