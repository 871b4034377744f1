"""Tests for repro.runtime.adapt (closed-loop drift adaptation).

The integration tests run a real MonitorService with a controller
attached and drive it with a stream that switches template mix
mid-feed: the drift watcher must trigger, the fine-tune must publish
a release, the swap must land at a tick boundary, and a poisoned
student must be rolled back by the probation guard.  Crash tests
assert the whole loop replays bitwise-identically from the journal.
"""

import json

import numpy as np
import pytest

from repro import telemetry
from repro.core.adaptation import count_distribution_shift
from repro.core.detector import LSTMAnomalyDetector
from repro.logs.templates import TemplateStore
from repro.runtime.adapt import (
    AUTO_ADAPT_ORIGIN,
    AdaptConfig,
    AdaptationController,
    PHASE_COOLDOWN,
    PHASE_PROBATION,
    PHASE_TRIGGERED,
    PHASE_TUNING,
    PHASE_WATCHING,
    poison_detector,
)
from repro.runtime.checkpoint import read_checkpoint
from repro.runtime.service import MonitorService, ServiceConfig
from repro.runtime.service import stage_release
from repro.runtime.store import ArtifactStore
from repro.timeutil import TRACE_START
from tests.conftest import make_message

NORMAL_TEXTS = [
    "ALPHA: phase one complete",
    "BRAVO: phase two complete",
    "CHARLIE: phase three complete",
    "DELTA: phase four complete",
]
DRIFT_TEXTS = [
    "ECHO: updated daemon came online",
    "FOXTROT: updated daemon heartbeat",
    "GOLF: updated daemon sync done",
    "HOTEL: updated daemon cache warm",
]

TICK = 8


def stream(texts, n, start=TRACE_START, period=10.0):
    return [
        make_message(
            timestamp=start + i * period,
            host="vpe00",
            text=texts[i % len(texts)],
        )
        for i in range(n)
    ]


def ticks_of(texts, n_ticks, start):
    feed = stream(texts, n_ticks * TICK, start=start)
    return [feed[i:i + TICK] for i in range(0, len(feed), TICK)]


@pytest.fixture(scope="module")
def detector():
    """Fitted on both mixes: the drift trigger is count-based (the
    template-id distribution shifts to disjoint ids, cosine -> 0)
    while scoring stays calm either side of the switch, so the
    probation verdict is decided purely by the fine-tune's health —
    a sane student passes, a poisoned one saturates the alarm rate."""
    normal = stream(NORMAL_TEXTS, 600)
    drifted = stream(DRIFT_TEXTS, 400, start=TRACE_START + 50000.0)
    store = TemplateStore().fit(normal + drifted)
    return LSTMAnomalyDetector(
        store,
        vocabulary_capacity=16,
        window=4,
        hidden=(12, 12),
        id_dim=8,
        epochs=6,
        oversample_rounds=0,
        seed=0,
    ).fit(normal + drifted)


@pytest.fixture(scope="module")
def threshold(detector):
    scores = detector.score(stream(NORMAL_TEXTS, 300)).scores
    return float(np.nanquantile(scores, 0.999)) + 0.25


def fast_config(**overrides):
    base = dict(
        drift_threshold=0.5,
        drift_checks=2,
        check_every_ticks=1,
        reference_ticks=2,
        recent_ticks=2,
        replay_ticks=6,
        probation_ticks=4,
        rollback_ratio=3.0,
        epochs=1,
        cooldown_ticks=2,
        inline=True,
    )
    base.update(overrides)
    return AdaptConfig(**base)


def make_service(tmp_path, detector, threshold, name="svc"):
    config = ServiceConfig(
        data_dir=tmp_path / name, checkpoint_every=3
    )
    store = ArtifactStore(
        config.store_dir, keep_releases=config.keep_releases
    )
    stage_release(store, detector, threshold)
    return config


def open_with_controller(config, adapt_config):
    service = MonitorService.open(config)
    service.controller = AdaptationController(adapt_config)
    service.recover()
    return service


def drift_feed(n_normal=4, n_drift=12):
    """Normal ticks, then drifted ticks (timestamps keep advancing)."""
    head = ticks_of(NORMAL_TEXTS, n_normal, TRACE_START + 7000.0)
    tail = ticks_of(
        DRIFT_TEXTS,
        n_drift,
        TRACE_START + 7000.0 + n_normal * TICK * 10.0,
    )
    return head + tail


class TestConfig:
    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError, match="drift_threshold"):
            AdaptConfig(drift_threshold=1.5)

    def test_rejects_non_positive_windows(self):
        with pytest.raises(ValueError, match="probation_ticks"):
            AdaptConfig(probation_ticks=0)

    def test_min_probation_floor(self):
        assert AdaptConfig(probation_ticks=4).min_probation_ticks == 2
        assert AdaptConfig(probation_ticks=40).min_probation_ticks == 10


class TestDriftSignal:
    def test_identical_distributions_similar(self):
        with telemetry.use(telemetry.MetricsRegistry()) as registry:
            value = count_distribution_shift([4, 4, 4], [8, 8, 8])
            assert value == pytest.approx(1.0)
            assert registry.snapshot()["counters"][
                "adapt.drift_checks"
            ] == 1

    def test_disjoint_distributions_drift(self):
        with telemetry.use(telemetry.MetricsRegistry()):
            value = count_distribution_shift(
                [4, 4, 0, 0], [0, 0, 4, 4]
            )
        assert value == pytest.approx(0.0)

    def test_poison_reverses_output_weights(self, detector):
        import copy

        victim = copy.deepcopy(detector)
        before = {
            k: v.copy()
            for k, v in victim.model.get_weights().items()
            if k.startswith("output.")
        }
        with telemetry.use(telemetry.MetricsRegistry()):
            poison_detector(victim)
        after = victim.model.get_weights()
        for key, weights in before.items():
            assert np.array_equal(after[key], -weights)


class TestAdaptLoop:
    def test_drift_triggers_swap_and_probation(
        self, tmp_path, detector, threshold
    ):
        config = make_service(tmp_path, detector, threshold)
        feed = drift_feed()
        with telemetry.use(telemetry.MetricsRegistry()) as registry:
            service = open_with_controller(config, fast_config())
            results = [service.process_tick(t) for t in feed]
            controller = service.controller
            assert controller.swaps == 1
            assert controller.rollbacks == 0
            assert service.active_release == 2
            service.close()
        swapped = [
            r.swapped_release
            for r in results
            if r.swapped_release is not None
        ]
        assert swapped == [2]
        counters = registry.snapshot()["counters"]
        assert counters["adapt.trigger.fired"] == 1
        assert counters["adapt.fine_tune.completed"] == 1
        assert counters["adapt.swap.applied"] == 1
        store = ArtifactStore(config.store_dir)
        release = store.manifest(2)
        assert release.metadata["origin"] == AUTO_ADAPT_ORIGIN
        assert release.metadata["teacher"] == 1
        # every message scored exactly once across the swap
        total = sum(len(t) for t in feed)
        scores = np.concatenate([r.scores for r in results])
        assert scores.size == total

    def test_probation_passes_into_cooldown(
        self, tmp_path, detector, threshold
    ):
        config = make_service(tmp_path, detector, threshold)
        # enough post-trigger ticks to serve out probation + cooldown
        feed = drift_feed(n_normal=4, n_drift=16)
        with telemetry.use(telemetry.MetricsRegistry()) as registry:
            service = open_with_controller(config, fast_config())
            for tick in feed:
                service.process_tick(tick)
            phase = service.controller.phase
            service.close()
        assert phase in (PHASE_COOLDOWN, PHASE_WATCHING)
        counters = registry.snapshot()["counters"]
        assert counters["adapt.probation.passed"] == 1
        assert "adapt.rollback.applied" not in counters

    def test_poisoned_swap_rolls_back(
        self, tmp_path, detector, threshold
    ):
        config = make_service(tmp_path, detector, threshold)
        feed = drift_feed(n_normal=4, n_drift=16)
        with telemetry.use(telemetry.MetricsRegistry()) as registry:
            service = open_with_controller(
                config, fast_config(poison=True)
            )
            results = [service.process_tick(t) for t in feed]
            controller = service.controller
            assert controller.swaps == 1
            assert controller.rollbacks == 1
            assert service.active_release == 1
            service.close()
        counters = registry.snapshot()["counters"]
        assert counters["adapt.poisoned_releases"] == 1
        assert counters["adapt.rollback.applied"] == 1
        assert "adapt.probation.passed" not in counters
        store = ArtifactStore(config.store_dir)
        assert store.current_id() == 1
        # exactly-once scoring holds across swap + rollback
        total = sum(len(t) for t in feed)
        scores = np.concatenate([r.scores for r in results])
        assert scores.size == total

    def test_background_worker_publishes_and_swaps(
        self, tmp_path, detector, threshold
    ):
        import time

        config = make_service(tmp_path, detector, threshold)
        feed = drift_feed(n_normal=4, n_drift=8)
        with telemetry.use(telemetry.MetricsRegistry()) as registry:
            service = open_with_controller(
                config, fast_config(inline=False)
            )
            controller = service.controller
            for tick in feed:
                service.process_tick(tick)
            # keep feeding boundaries until the (niced, deliberately
            # low-priority) worker's release lands
            deadline = time.monotonic() + 120.0
            index = 0
            while not controller.swaps:
                assert time.monotonic() < deadline, (
                    "fine-tune worker never delivered a release"
                )
                service.process_tick(
                    ticks_of(
                        DRIFT_TEXTS,
                        1,
                        TRACE_START
                        + 7000.0
                        + (20 + index) * TICK * 10.0,
                    )[0]
                )
                index += 1
            assert controller.swaps == 1
            assert service.active_release == 2
            service.close()
        counters = registry.snapshot()["counters"]
        assert counters["adapt.fine_tune.completed"] == 1
        # the child's telemetry snapshot was merged into the parent
        assert counters["adapt.fine_tune_events"] == 1
        store = ArtifactStore(config.store_dir)
        assert store.manifest(2).metadata["origin"] == AUTO_ADAPT_ORIGIN


    def test_close_abandons_a_running_fine_tune(
        self, tmp_path, detector, threshold
    ):
        """A fine-tune still running at shutdown is counted, and the
        checkpoint keeps the trigger so ``--replay`` relaunches it."""
        config = make_service(tmp_path, detector, threshold)
        with telemetry.use(telemetry.MetricsRegistry()) as registry:
            service = open_with_controller(
                config, fast_config(inline=False)
            )
            controller = service.controller
            for tick in drift_feed(n_normal=4, n_drift=8):
                service.process_tick(tick)
                if controller.phase == PHASE_TUNING:
                    break
            assert controller.phase == PHASE_TUNING
            service.close()
        assert controller.abandoned == 1
        counters = registry.snapshot()["counters"]
        assert counters["adapt.fine_tune.abandoned"] == 1
        adapt_state = read_checkpoint(config.checkpoint_path).extra["adapt"]
        assert adapt_state["phase"] == PHASE_TRIGGERED
        with telemetry.use(telemetry.MetricsRegistry()):
            revived = open_with_controller(config, fast_config())
            assert revived.controller.phase == PHASE_TRIGGERED
            revived.close()


class TestCrashReplay:
    def run_to_crash(self, config, adapt_config, feed, crash_tick):
        from tests.runtime.test_service import crash_at

        service = open_with_controller(config, adapt_config)
        live = []
        for index, tick in enumerate(feed):
            if index == crash_tick:
                crash_at(service, 1)
                with pytest.raises(
                    RuntimeError, match="injected crash"
                ):
                    service.process_tick(tick)
                break
            live.append(service.process_tick(tick))
        return live

    @pytest.mark.parametrize("crash_tick", [5, 9, 14])
    def test_crash_replay_parity_with_controller(
        self, tmp_path, detector, threshold, crash_tick
    ):
        """Crashing anywhere around the adapt cycle (pre-trigger,
        during probation, after it) replays to bitwise-identical
        scores and the same controller verdict."""
        feed = drift_feed(n_normal=4, n_drift=14)
        base_cfg = make_service(tmp_path, detector, threshold, "a")
        with telemetry.use(telemetry.MetricsRegistry()):
            base_service = open_with_controller(
                base_cfg, fast_config()
            )
            base = [base_service.process_tick(t) for t in feed]
            base_swaps = base_service.controller.swaps
            base_service.close()

        crash_cfg = make_service(tmp_path, detector, threshold, "b")
        with telemetry.use(telemetry.MetricsRegistry()):
            live = self.run_to_crash(
                crash_cfg, fast_config(), feed, crash_tick
            )
            revived = open_with_controller(crash_cfg, fast_config())
            report = revived.recover()
            overlap = report.ticks_replayed - 1
            if overlap > 0:
                for before, after in zip(
                    live[-overlap:], report.results
                ):
                    assert np.array_equal(
                        before.scores, after.scores, equal_nan=True
                    )
                live = live[:-overlap]
            results = live + list(report.results)
            results += [
                revived.process_tick(t) for t in feed[crash_tick + 1:]
            ]
            crash_swaps = revived.controller.swaps
            revived.close()

        base_scores = np.concatenate([r.scores for r in base])
        scores = np.concatenate([r.scores for r in results])
        assert np.array_equal(base_scores, scores, equal_nan=True)
        base_warnings = [w for r in base for w in r.warnings]
        warnings = [w for r in results for w in r.warnings]
        assert base_warnings == warnings
        assert crash_swaps == base_swaps

    def test_state_dict_json_roundtrip(self, tmp_path):
        controller = AdaptationController(fast_config())
        controller.phase = PHASE_PROBATION
        controller.swaps = 2
        controller._probation_release = 3
        controller._rollback_to = 2
        controller._baseline_rate = 0.05
        controller._reference = np.asarray([1, 2, 3], dtype=np.int64)
        state = json.loads(json.dumps(controller.state_dict()))
        restored = AdaptationController(fast_config())
        restored.load_state_dict(state)
        assert restored.phase == PHASE_PROBATION
        assert restored.swaps == 2
        assert restored._probation_release == 3
        assert restored._rollback_to == 2
        assert restored._baseline_rate == 0.05
        assert np.array_equal(restored._reference, [1, 2, 3])
        assert restored.state_dict() == controller.state_dict()

    def test_tuning_checkpoints_as_triggered(self):
        controller = AdaptationController(fast_config())
        controller.phase = "tuning"
        assert controller.state_dict()["phase"] == PHASE_TRIGGERED

    def test_state_version_mismatch_rejected(self):
        controller = AdaptationController(fast_config())
        state = controller.state_dict()
        state["version"] = 99
        with pytest.raises(ValueError, match="version"):
            controller.load_state_dict(state)
