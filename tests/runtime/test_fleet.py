"""Fleet coordinator tests: routing, drain, crash drill, membership.

Everything here runs the real worker processes (fork/spawn via
``multiprocessing``) against tiny fitted detectors, so the suite
exercises the actual pipe protocol — binary tick frames, JSON acks,
hello cursors, graceful close — not mocks of it.
"""

import json

import numpy as np
import pytest

from repro import telemetry
from repro.core.detector import LSTMAnomalyDetector
from repro.logs.templates import TemplateStore
from repro.runtime.fleet import (
    FleetConfig,
    FleetCoordinator,
    FleetError,
    bootstrap_fleet,
    fleet_has_state,
    load_ring,
)
from repro.runtime.ring import HashRing
from repro.timeutil import TRACE_START
from tests.conftest import make_message

TEXTS = [
    "ALPHA: phase one complete",
    "BRAVO: phase two complete",
    "CHARLIE: phase three complete",
]


def stream(n, hosts=("vpe00",), start=TRACE_START, period=10.0):
    """``n`` messages round-robined over ``hosts``, time-ordered."""
    return [
        make_message(
            timestamp=start + i * period,
            host=hosts[i % len(hosts)],
            text=TEXTS[i % len(TEXTS)],
        )
        for i in range(n)
    ]


HOSTS = tuple(f"vpe{i:02d}" for i in range(8))


@pytest.fixture(scope="module")
def detector():
    train = stream(400)
    store = TemplateStore().fit(train)
    return LSTMAnomalyDetector(
        store,
        vocabulary_capacity=8,
        window=4,
        hidden=(6, 6),
        id_dim=4,
        epochs=2,
        oversample_rounds=0,
        seed=0,
    ).fit(train)


@pytest.fixture(scope="module")
def feed():
    return stream(640, hosts=HOSTS, start=TRACE_START + 8000.0)


def make_fleet(tmp_path, detector, name="fleet", **kwargs):
    config = FleetConfig(
        data_dir=tmp_path / name,
        shards=kwargs.pop("shards", 3),
        checkpoint_every=kwargs.pop("checkpoint_every", 4),
        scores_out=kwargs.pop(
            "scores_out", str(tmp_path / f"{name}-scores.csv")
        ),
        **kwargs,
    )
    bootstrap_fleet(config, detector, float("inf"))
    return config


def read_rows(config):
    import pathlib

    base = pathlib.Path(config.scores_out)
    rows = []
    for shard_path in sorted(base.parent.glob(base.name + ".shard*")):
        rows.extend(shard_path.read_text().splitlines())
    return rows


class TestFleetConfig:
    def test_rejects_zero_shards(self, tmp_path):
        with pytest.raises(ValueError, match="shards"):
            FleetConfig(data_dir=tmp_path, shards=0)

    def test_rejects_zero_inflight(self, tmp_path):
        with pytest.raises(ValueError, match="max_inflight"):
            FleetConfig(data_dir=tmp_path, max_inflight=0)

    def test_kill_knobs_must_pair(self, tmp_path):
        with pytest.raises(ValueError, match="together"):
            FleetConfig(data_dir=tmp_path, kill_shard=1)
        with pytest.raises(ValueError, match="together"):
            FleetConfig(data_dir=tmp_path, kill_after_ticks=3)

    def test_shard_paths(self, tmp_path):
        config = FleetConfig(
            data_dir=tmp_path, scores_out=str(tmp_path / "s.csv")
        )
        assert config.shard_dir(7).name == "shard-07"
        spec = config.shard_spec(7)
        assert spec.shard == 7
        assert spec.service.data_dir == config.shard_dir(7)
        assert spec.scores_path.endswith("s.csv.shard07")
        assert spec.warnings_path is None


class TestRingJournal:
    def test_fresh_dir_journals_init(self, tmp_path):
        config = FleetConfig(data_dir=tmp_path / "f", shards=3)
        ring = load_ring(config)
        assert ring.shards == (0, 1, 2)
        events = [
            json.loads(line)
            for line in config.ring_path.read_text().splitlines()
        ]
        assert events == [
            {"event": "init", "shards": [0, 1, 2], "replicas": 64}
        ]

    def test_reload_ignores_config_shards(self, tmp_path):
        first = FleetConfig(data_dir=tmp_path / "f", shards=3)
        load_ring(first)
        # journal wins: a different shards= on reload changes nothing
        again = FleetConfig(data_dir=tmp_path / "f", shards=5)
        assert load_ring(again).shards == (0, 1, 2)

    def test_replay_matches_live_assignments(self, tmp_path, detector):
        config = make_fleet(tmp_path, detector, shards=3)
        devices = [f"vpe{i:03d}" for i in range(100)]
        with telemetry.use(telemetry.MetricsRegistry()):
            with FleetCoordinator.open(config) as coordinator:
                live = {d: coordinator.assign(d) for d in devices}
        replayed = load_ring(config)
        assert {d: replayed.assign(d) for d in devices} == live

    @pytest.mark.parametrize(
        "lines, match",
        [
            (
                ['{"event":"init","shards":[0],"replicas":4}'] * 2,
                "duplicate ring init",
            ),
            (['{"event":"join","shard":1}'], "join before init"),
            (['{"event":"leave","shard":1}'], "leave before init"),
            (['{"event":"what"}'], "unknown ring event"),
            ([], "no ring init"),
            (
                [
                    '{"event":"init","shards":[0],"replicas":4}',
                    '{"event":"jo',
                ],
                r"ring\.jsonl:2: malformed ring event",
            ),
            (
                [
                    '{"event":"init","shards":[0],"replicas":4}',
                    '{"event":"join"}',
                ],
                "malformed ring event",
            ),
        ],
    )
    def test_corrupt_journal_refused(self, tmp_path, lines, match):
        config = FleetConfig(data_dir=tmp_path / "f")
        config.ring_path.parent.mkdir(parents=True, exist_ok=True)
        config.ring_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FleetError, match=match):
            load_ring(config)


class TestOpenClose:
    def test_open_shard_mismatch_refused(self, tmp_path, detector):
        config = make_fleet(tmp_path, detector, shards=2)
        load_ring(config)
        wrong = FleetConfig(
            data_dir=config.data_dir,
            shards=4,
            scores_out=config.scores_out,
        )
        with pytest.raises(FleetError, match="records 2 shards"):
            FleetCoordinator.open(wrong)

    def test_open_without_bootstrap_aborts_cleanly(self, tmp_path):
        config = FleetConfig(data_dir=tmp_path / "cold", shards=2)
        with telemetry.use(telemetry.MetricsRegistry()):
            with pytest.raises(
                FleetError, match="failed to start: .*holds no release"
            ):
                FleetCoordinator.open(config)
        # the failed open must not leave its lock behind
        assert not config.lock_path.exists()

    def test_drain_after_close_refused(self, tmp_path, detector, feed):
        config = make_fleet(tmp_path, detector)
        with telemetry.use(telemetry.MetricsRegistry()):
            coordinator = FleetCoordinator.open(config)
            coordinator.close()
            with pytest.raises(FleetError, match="closed"):
                coordinator.drain(feed)


class TestDrain:
    def test_partition_preserves_order_and_coverage(
        self, tmp_path, detector, feed
    ):
        config = make_fleet(tmp_path, detector)
        with telemetry.use(telemetry.MetricsRegistry()):
            with FleetCoordinator.open(config) as coordinator:
                parts = coordinator.partition(feed)
        assert sum(len(p) for p in parts.values()) == len(feed)
        ring = load_ring(config)
        for shard, part in parts.items():
            assert all(ring.assign(m.host) == shard for m in part)
            times = [m.timestamp for m in part]
            assert times == sorted(times)

    def test_drain_scores_every_message_once(
        self, tmp_path, detector, feed
    ):
        config = make_fleet(tmp_path, detector)
        registry = telemetry.MetricsRegistry()
        with telemetry.use(registry):
            with FleetCoordinator.open(config) as coordinator:
                report = coordinator.drain(feed, tick_size=32)
        assert report.dead_shards == ()
        assert report.messages == len(feed)
        assert report.msgs_per_s > 0
        assert sum(
            s.messages for s in report.per_shard.values()
        ) == len(feed)
        assert all(
            s.backlog == 0 for s in report.per_shard.values()
        )
        rows = read_rows(config)
        assert len(rows) == len(feed)
        snapshot = registry.snapshot()
        # worker registries merged on close: fleet-total tick count
        assert snapshot["counters"]["fleet.messages_routed"] == len(feed)
        assert snapshot["counters"]["runtime.ticks"] == report.ticks
        assert snapshot["gauges"]["fleet.aggregate_msgs_per_s"] > 0

    def test_adaptive_drain_scores_everything(
        self, tmp_path, detector, feed
    ):
        config = make_fleet(tmp_path, detector, name="adaptive")
        with telemetry.use(telemetry.MetricsRegistry()):
            with FleetCoordinator.open(config) as coordinator:
                report = coordinator.drain(
                    feed, tick_size=64, adaptive=True
                )
        assert report.messages == len(feed)
        assert len(read_rows(config)) == len(feed)

    def test_reopened_fleet_resumes_at_cursor(
        self, tmp_path, detector, feed
    ):
        config = make_fleet(tmp_path, detector, name="resume")
        with telemetry.use(telemetry.MetricsRegistry()):
            with FleetCoordinator.open(config) as coordinator:
                first = coordinator.drain(
                    feed, tick_size=16, max_ticks=6
                )
            assert 0 < first.messages < len(feed)
            assert fleet_has_state(config)
            with FleetCoordinator.open(config) as coordinator:
                second = coordinator.drain(feed, tick_size=16)
        assert first.messages + second.messages == len(feed)
        # every message scored exactly once across both sessions
        assert len(read_rows(config)) == len(feed)


class TestKillDrill:
    def test_crash_restart_replay_parity(
        self, tmp_path, detector, feed
    ):
        # Kill the busiest shard so the drill always hits a loaded
        # worker (the ring leaves small fleets lumpy).
        ring = HashRing(shards=(0, 1, 2))
        loads = {shard: 0 for shard in ring.shards}
        for host in HOSTS:
            loads[ring.assign(host)] += 1
        victim = max(loads, key=loads.get)
        config = make_fleet(
            tmp_path,
            detector,
            name="drill",
            checkpoint_every=3,
            kill_shard=victim,
            kill_after_ticks=2,
        )
        with telemetry.use(telemetry.MetricsRegistry()) as registry:
            with FleetCoordinator.open(config) as coordinator:
                parts = coordinator.partition(feed)
                assert len(parts[victim]) > 0, (
                    "drill victim must own devices"
                )
                crashed = coordinator.drain(feed, tick_size=16)
                assert crashed.dead_shards == (victim,)
                assert crashed.per_shard[victim].dead
                # survivors finished their whole backlog regardless
                for shard, share in crashed.per_shard.items():
                    if shard != victim:
                        assert share.backlog == 0
                        assert share.messages == len(parts[shard])
                replayed = coordinator.restart_shard(victim)
                assert replayed >= 1
                assert coordinator.dead_shards == ()
                resumed = coordinator.drain(feed, tick_size=16)
                assert resumed.dead_shards == ()
            snapshot = registry.snapshot()
        assert snapshot["counters"]["fleet.shard_deaths"] == 1
        # The crashed tick was journaled but never acknowledged: its
        # messages reach the CSV via replay, not via either drain.
        assert crashed.messages + resumed.messages <= len(feed)
        # CSV rows: the replayed tick re-lands bitwise-identically,
        # so unique rows == messages even though raw rows may exceed.
        rows = read_rows(config)
        assert len(set(rows)) == len(feed)

    def test_restart_live_shard_refused(self, tmp_path, detector):
        config = make_fleet(tmp_path, detector, name="live")
        with telemetry.use(telemetry.MetricsRegistry()):
            with FleetCoordinator.open(config) as coordinator:
                with pytest.raises(FleetError, match="alive"):
                    coordinator.restart_shard(0)

    def test_restart_unknown_shard_refused(self, tmp_path, detector):
        config = make_fleet(tmp_path, detector, name="unknown")
        with telemetry.use(telemetry.MetricsRegistry()):
            with FleetCoordinator.open(config) as coordinator:
                with pytest.raises(FleetError, match="not in"):
                    coordinator.restart_shard(9)


class TestMembership:
    def test_add_shard_journals_and_routes(
        self, tmp_path, detector, feed
    ):
        config = make_fleet(tmp_path, detector, name="grow", shards=2)
        # bootstrap the joiner's store before it can serve
        from repro.runtime.service import stage_release
        from repro.runtime.store import ArtifactStore

        store = ArtifactStore(
            config.shard_config(2).store_dir,
            keep_releases=config.keep_releases,
        )
        stage_release(store, detector, float("inf"))
        with telemetry.use(telemetry.MetricsRegistry()):
            with FleetCoordinator.open(config) as coordinator:
                before = {
                    m.host: coordinator.assign(m.host) for m in feed
                }
                coordinator.add_shard(2)
                assert coordinator.ring.shards == (0, 1, 2)
                after = {
                    host: coordinator.ring.assign(host)
                    for host in before
                }
                # movement only onto the joiner
                assert all(
                    after[h] == 2
                    for h in before
                    if after[h] != before[h]
                )
                report = coordinator.drain(feed, tick_size=32)
                assert report.messages == len(feed)
        # the join is durable: a replayed ring carries shard 2
        assert load_ring(config).shards == (0, 1, 2)

    def test_add_existing_shard_refused(self, tmp_path, detector):
        config = make_fleet(tmp_path, detector, name="dup", shards=2)
        with telemetry.use(telemetry.MetricsRegistry()):
            with FleetCoordinator.open(config) as coordinator:
                with pytest.raises(FleetError, match="already"):
                    coordinator.add_shard(1)

    def test_remove_shard_journals_leave(self, tmp_path, detector):
        config = make_fleet(tmp_path, detector, name="shrink")
        with telemetry.use(telemetry.MetricsRegistry()):
            with FleetCoordinator.open(config) as coordinator:
                coordinator.remove_shard(2)
                assert coordinator.ring.shards == (0, 1)
        assert load_ring(config).shards == (0, 1)
        events = [
            json.loads(line)["event"]
            for line in config.ring_path.read_text().splitlines()
        ]
        assert events == ["init", "leave"]

    def test_remove_unknown_shard_refused(self, tmp_path, detector):
        config = make_fleet(tmp_path, detector, name="noshard")
        with telemetry.use(telemetry.MetricsRegistry()):
            with FleetCoordinator.open(config) as coordinator:
                with pytest.raises(FleetError, match="not in"):
                    coordinator.remove_shard(9)


class TestSingleShardParity:
    def test_one_shard_fleet_matches_ring(self, tmp_path, detector):
        """A 1-shard fleet routes everything to shard 0 (sanity for
        the benchmark's 1-shard baseline)."""
        config = make_fleet(tmp_path, detector, name="solo", shards=1)
        ring = load_ring(config)
        assert isinstance(ring, HashRing)
        assert all(
            ring.assign(host) == 0 for host in HOSTS
        )

    def test_scores_are_float64_reprs(self, tmp_path, detector, feed):
        config = make_fleet(tmp_path, detector, name="repr", shards=1)
        with telemetry.use(telemetry.MetricsRegistry()):
            with FleetCoordinator.open(config) as coordinator:
                coordinator.drain(feed, tick_size=64)
        rows = read_rows(config)
        for row in rows[:32]:
            score = row.split(",")[3]
            value = float(score)
            assert repr(value) == score
            assert np.isfinite(value) or np.isnan(value)
