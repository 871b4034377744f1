"""Fleet tests: the host split, the shard count, startup, drain, drills.

Everything here runs the real worker processes (fork/spawn via
``multiprocessing``) against tiny fitted detectors over a trace
directory, so the suite exercises the actual fleet — workers reading
their own vPE files, the ready barrier, outcome and telemetry frames,
joins — not mocks of it.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro import telemetry
from repro.core.detector import LSTMAnomalyDetector
from repro.logs.templates import TemplateStore
from repro.logs.trace import read_feed, write_streams
from repro.runtime.fleet import (
    FleetError,
    record_shards,
    serve_fleet,
    shard_spec,
)
from repro.runtime.ring import shard_of
from repro.runtime.service import ServiceConfig, stage_release
from repro.runtime.session import ServeJob, SessionSpec, serve_shard
from repro.runtime.store import ArtifactStore
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


@pytest.fixture(scope="module")
def trace(tmp_path_factory, feed):
    """``feed`` as a trace directory, one file per host."""
    root = tmp_path_factory.mktemp("trace")
    streams = {h: [m for m in feed if m.host == h] for h in HOSTS}
    write_streams(root, {"vpes": list(HOSTS)}, streams)
    return root


def make_fleet(tmp_path, detector, name="fleet", shards=3, **kwargs):
    """Bootstrapped shard specs of a fresh fleet directory."""
    base = SessionSpec(
        service=ServiceConfig(
            data_dir=tmp_path / name,
            checkpoint_every=kwargs.pop("checkpoint_every", 4),
        ),
        scores_path=str(tmp_path / f"{name}-scores.csv"),
        **kwargs,
    )
    record_shards(base.service.data_dir, shards)
    specs = [shard_spec(base, k) for k in range(shards)]
    for spec in specs:
        store = ArtifactStore(spec.service.store_dir)
        stage_release(store, detector, float("inf"))
    return specs


def read_rows(specs):
    rows = []
    for spec in specs:
        with open(spec.scores_path) as handle:
            rows.extend(handle.read().splitlines())
    return rows


def serve(specs, trace, **job):
    with telemetry.use(telemetry.MetricsRegistry()) as registry:
        outcomes = serve_fleet(
            specs[0].service.data_dir.parent, specs,
            ServeJob(trace=str(trace), **job),
        )
    return outcomes, registry.snapshot()


class TestFleetConfig:
    def test_rejects_zero_shards(self, tmp_path):
        with pytest.raises(ValueError, match="shards"):
            record_shards(tmp_path, 0)

    def test_shard_paths(self, tmp_path):
        base = SessionSpec(
            service=ServiceConfig(data_dir=tmp_path),
            scores_path=str(tmp_path / "s.csv"),
            kill_after_ticks=5,
        )
        spec = shard_spec(base, 7)
        assert spec.shard == 7
        assert spec.service.data_dir == tmp_path / "shard-07"
        assert spec.scores_path.endswith("s.csv.shard07")
        assert spec.warnings_path is None
        assert spec.kill_after_ticks == 5


class TestShardCount:
    def test_fresh_dir_records_count(self, tmp_path):
        record_shards(tmp_path / "f", 3)
        assert (tmp_path / "f" / "SHARDS").read_text() == "3\n"
        record_shards(tmp_path / "f", 3)  # reopening agrees
        assert sorted(p.name for p in (tmp_path / "f").iterdir()) == [
            "SHARDS"
        ]

    @pytest.mark.parametrize(
        "text", ["", "3\x00", "three\n"], ids=["empty", "nul", "word"]
    )
    def test_malformed_count_refused(self, tmp_path, text):
        (tmp_path / "SHARDS").write_text(text)
        with pytest.raises(FleetError, match="SHARDS: malformed shard count"):
            record_shards(tmp_path, 3)

    def test_shard_dirs_without_count_refused(self, tmp_path):
        (tmp_path / "shard-00").mkdir()
        with pytest.raises(FleetError, match="shard-00 but no SHARDS"):
            record_shards(tmp_path, 2)
        assert not (tmp_path / "SHARDS").exists()


class TestOpenClose:
    def test_open_shard_mismatch_refused(self, tmp_path):
        record_shards(tmp_path, 2)
        with pytest.raises(FleetError, match="records 2 shards"):
            record_shards(tmp_path, 4)

    def test_open_without_bootstrap_aborts_cleanly(self, tmp_path, trace):
        base = SessionSpec(service=ServiceConfig(data_dir=tmp_path / "cold"))
        specs = [shard_spec(base, k) for k in range(2)]
        with pytest.raises(
            FleetError, match="failed to start: .*holds no release"
        ):
            serve(specs, trace)
        # the failed open must not leave its lock behind
        assert not (tmp_path / "cold" / "LOCK").exists()

    def test_startup_error_leaves_every_shard_untouched(
        self, tmp_path, detector, trace
    ):
        """All or nothing: while one shard cannot open, no other shard
        journals a tick or writes a row."""
        specs = make_fleet(tmp_path, detector)
        (specs[1].service.store_dir / "CURRENT").unlink()
        with pytest.raises(FleetError, match="shard 1 failed to start"):
            serve(specs, trace)
        for spec in specs:
            assert not spec.service.checkpoint_path.exists()
            wal = spec.service.wal_dir
            assert not wal.exists() or not any(
                p.stat().st_size for p in wal.iterdir()
            )
        assert read_rows([specs[0], specs[2]]) == []


class TestDrain:
    def test_partition_preserves_order_and_coverage(self, trace, feed):
        """Each shard's own files, stable-sorted, are exactly its
        subsequence of the whole trace's sorted feed."""
        whole = read_feed(trace)
        assert list(whole) == feed
        for shard in range(3):
            part = read_feed(
                trace, lambda vpe, shard=shard: shard_of(vpe, 3) == shard
            )
            assert list(part) == [m for m in whole if shard_of(m.host, 3) == shard]

    def test_drain_scores_every_message_once(
        self, tmp_path, detector, trace, feed
    ):
        specs = make_fleet(tmp_path, detector)
        outcomes, snapshot = serve(specs, trace, tick_size=32)
        assert [o.exit_code for o in outcomes] == [0, 0, 0]
        assert len(read_rows(specs)) == len(feed)
        # worker registries merged on close: fleet-total tick count
        assert snapshot["counters"]["runtime.ticks"] == sum(
            o.live_ticks for o in outcomes
        )
        assert snapshot["gauges"]["fleet.shards"] == 3

    def test_reopened_fleet_resumes_at_cursor(
        self, tmp_path, detector, trace, feed
    ):
        specs = make_fleet(tmp_path, detector, name="resume")
        first, _ = serve(specs, trace, tick_size=16, max_ticks=3)
        assert all(o.live_ticks <= 3 for o in first)
        assert 0 < len(read_rows(specs)) < len(feed)
        with pytest.raises(FleetError, match="--replay"):
            serve(specs, trace, tick_size=16)
        serve(specs, trace, tick_size=16, replay=True)
        # every message scored exactly once across both runs
        assert len(read_rows(specs)) == len(feed)

    def test_shard_rows_equal_a_single_shard_serve(
        self, tmp_path, detector, trace
    ):
        """Shard k is single-shard ``serve`` over shard k's vPE files,
        with the shard column prepended."""
        specs = make_fleet(tmp_path, detector, name="split")
        serve(specs, trace, tick_size=16)
        for spec in specs:
            owned = [h for h in HOSTS if shard_of(h, 3) == spec.shard]
            alone = tmp_path / f"alone-{spec.shard}"
            sub_trace = alone / "trace"
            sub_trace.mkdir(parents=True)
            (sub_trace / "meta.json").write_text(json.dumps({"vpes": owned}))
            for host in owned:
                (sub_trace / f"{host}.jsonl").write_bytes(
                    (trace / f"{host}.jsonl").read_bytes()
                )
            single = SessionSpec(
                service=dataclasses.replace(
                    spec.service, data_dir=alone / "svc"
                ),
                scores_path=str(alone / "scores.csv"),
            )
            stage_release(
                ArtifactStore(single.service.store_dir), detector,
                float("inf"),
            )
            with telemetry.use(telemetry.MetricsRegistry()):
                serve_shard(single, ServeJob(trace=str(sub_trace), tick_size=16))
            expected = [
                f"{spec.shard},{row}"
                for row in (alone / "scores.csv").read_text().splitlines()
            ]
            assert read_rows([spec]) == expected


class TestKillDrill:
    def test_crash_restart_replay_parity(
        self, tmp_path, detector, trace, feed
    ):
        # Kill the busiest shard so the drill always hits a loaded
        # worker (small fleets split lumpily).
        loads = {k: sum(shard_of(h, 3) == k for h in HOSTS) for k in range(3)}
        victim = max(loads, key=loads.get)
        specs = make_fleet(
            tmp_path, detector, name="drill", checkpoint_every=3
        )
        specs[victim] = dataclasses.replace(specs[victim], kill_after_ticks=2)
        crashed, snapshot = serve(specs, trace, tick_size=16)
        assert [o.exit_code == 3 for o in crashed] == [
            k == victim for k in range(3)
        ]
        assert crashed[victim].crashed_at is not None
        assert snapshot["counters"]["fleet.shard_deaths"] == 1
        # survivors finished their whole feed regardless
        per_shard = {
            spec.shard: len(read_rows([spec])) for spec in specs
        }
        for shard, rows in per_shard.items():
            if shard != victim:
                owned = sum(shard_of(m.host, 3) == shard for m in feed)
                assert rows == owned
        specs[victim] = dataclasses.replace(
            specs[victim], kill_after_ticks=None
        )
        resumed, _ = serve(specs, trace, tick_size=16, replay=True)
        assert [o.exit_code for o in resumed] == [0, 0, 0]
        assert resumed[victim].recovered["ticks"] >= 1
        # The crashed tick was journaled but never acknowledged: it
        # re-lands via replay, bitwise-identically, so unique rows ==
        # messages even though raw rows may exceed them.
        rows = read_rows(specs)
        assert len(set(rows)) == len(feed)

    def test_restart_live_shard_refused(self, tmp_path, detector, trace):
        """A shard whose owner process is still alive is not restarted
        under it: its lock refuses the whole fleet before any ingest."""
        import os

        specs = make_fleet(tmp_path, detector, name="live")
        (specs[0].service.data_dir / "LOCK").write_text(f"{os.getppid()}\n")
        with pytest.raises(FleetError, match="held by live pid"):
            serve(specs, trace)
        assert read_rows(specs[1:]) == []


class TestSingleShardParity:
    def test_one_shard_fleet_matches_ring(self):
        """A 1-shard fleet owns every host (sanity for the benchmark's
        1-shard baseline)."""
        assert all(shard_of(host, 1) == 0 for host in HOSTS)

    def test_scores_are_float64_reprs(self, tmp_path, detector, trace):
        specs = make_fleet(tmp_path, detector, name="repr", shards=1)
        serve(specs, trace, tick_size=64)
        rows = read_rows(specs)
        for row in rows[:32]:
            score = row.split(",")[3]
            value = float(score)
            assert repr(value) == score
            assert np.isfinite(value) or np.isnan(value)
