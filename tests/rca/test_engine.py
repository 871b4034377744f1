"""Unit tests for the streaming RCA engine.

The clustering/attribution edge cases the subsystem must get right:
singleton incidents, simultaneous independent outages that must not
merge, a device joining an incident across a checkpoint restore, and
the empty-topology per-device fallback — plus the durability and
telemetry contracts the service relies on.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.logs.message import Severity, SyslogMessage
from repro.rca import (
    DEFAULT_CLUSTER_GAP,
    INCIDENT_CSV_COLUMNS,
    RCA_STATE_VERSION,
    RcaEngine,
    incident_row,
)
from repro.topology import (
    KIND_CIRCUIT,
    KIND_DEVICE,
    FleetTopology,
)


@pytest.fixture()
def topology():
    """Two fully disjoint subtrees plus one cross-cohort device.

    ``a1``/``a2`` share circuit/site/cable/software; so do ``b1``/
    ``b2`` on the other side.  ``m`` rides the b-side circuit but
    runs the a-side software image, bridging the subtrees.
    """
    return FleetTopology(
        device_circuit={
            "a1": "circ-a", "a2": "circ-a",
            "b1": "circ-b", "b2": "circ-b", "m": "circ-b",
        },
        circuit_site={"circ-a": "site-a", "circ-b": "site-b"},
        site_cable={"site-a": "cable-a", "site-b": "cable-b"},
        device_software={
            "a1": "sw-a", "a2": "sw-a",
            "b1": "sw-b", "b2": "sw-b", "m": "sw-a",
        },
    )


def close_all(engine):
    reports = engine.flush()
    assert not engine.open_incidents
    return reports


class TestClustering:
    def test_singleton_incident_blames_the_device(self, topology):
        """One lone anomaly: the LCA chain bottoms out at the device
        itself (it covers exactly one device, confidence 1)."""
        engine = RcaEngine(topology=topology)
        engine.ingest("a1", 100.0, 5.0)
        (report,) = engine.advance(100.0 + DEFAULT_CLUSTER_GAP + 1)
        cause = report.incident.cause
        assert report.incident.devices == ["a1"]
        assert cause.kind == KIND_DEVICE
        assert cause.element == "a1"
        assert cause.confidence == 1.0

    def test_shared_circuit_devices_merge(self, topology):
        engine = RcaEngine(topology=topology)
        engine.ingest("a1", 0.0, 5.0)
        engine.ingest("a2", 100.0, 6.0)
        (report,) = close_all(engine)
        cause = report.incident.cause
        assert report.incident.devices == ["a1", "a2"]
        assert cause.kind == KIND_CIRCUIT
        assert cause.element == "circ-a"
        assert cause.confidence == 1.0

    def test_independent_simultaneous_outages_do_not_merge(
        self, topology
    ):
        """Two outages in disjoint subtrees, interleaved in time,
        must close as two incidents with their own causes."""
        engine = RcaEngine(topology=topology)
        engine.ingest("a1", 0.0, 5.0)
        engine.ingest("b1", 5.0, 5.0)
        engine.ingest("a2", 10.0, 5.0)
        engine.ingest("b2", 15.0, 5.0)
        assert len(engine.open_incidents) == 2
        reports = close_all(engine)
        assert sorted(r.incident.devices for r in reports) == [
            ["a1", "a2"], ["b1", "b2"],
        ]
        causes = {r.incident.cause.element for r in reports}
        # The b-side blames its software cohort, not circ-b: ``m``
        # also rides circ-b, so sw-b is the tighter covering element.
        assert causes == {"circ-a", "sw-b"}

    def test_two_eligible_incidents_fold_oldest_first(self, topology):
        """``m`` shares elements with both open incidents; the scan
        is oldest-first, so it deterministically joins the first."""
        engine = RcaEngine(topology=topology)
        engine.ingest("a1", 0.0, 5.0)
        engine.ingest("b1", 10.0, 5.0)
        engine.ingest("m", 20.0, 5.0)
        first_id = engine.open_incidents[0]
        reports = {r.incident_id: r for r in close_all(engine)}
        assert reports[first_id].incident.devices == ["a1", "m"]

    def test_quiet_gap_splits_same_device(self, topology):
        engine = RcaEngine(topology=topology, cluster_gap=60.0)
        engine.ingest("a1", 0.0, 5.0)
        engine.ingest("a1", 1000.0, 5.0)
        assert len(engine.open_incidents) == 2

    def test_unknown_device_clusters_alone(self, topology):
        """A device the topology has never heard of gets no shared
        elements, so it never joins (or attracts) an incident."""
        engine = RcaEngine(topology=topology)
        engine.ingest("ghost", 0.0, 9.0)
        engine.ingest("a1", 1.0, 5.0)
        assert len(engine.open_incidents) == 2
        by_devices = {
            tuple(r.incident.devices): r.incident.cause
            for r in close_all(engine)
        }
        ghost = by_devices[("ghost",)]
        assert ghost.kind == KIND_DEVICE
        assert ghost.element == "ghost"

    def test_empty_topology_falls_back_to_per_device(self):
        """No topology at all: every device is its own incident and
        its own cause."""
        engine = RcaEngine(topology=None)
        engine.ingest("a1", 0.0, 5.0)
        engine.ingest("a2", 0.0, 7.0)
        assert len(engine.open_incidents) == 2
        for report in close_all(engine):
            cause = report.incident.cause
            (device,) = report.incident.devices
            assert cause.kind == KIND_DEVICE
            assert cause.element == device
            assert cause.confidence == 1.0

    def test_merged_without_common_element_blames_loudest(
        self, topology
    ):
        """A chain of pairwise overlaps can merge devices that share
        nothing fleet-wide; attribution degrades to the loudest
        device with diluted confidence."""
        engine = RcaEngine(topology=topology)
        engine.ingest("a1", 0.0, 5.0)
        engine.ingest("m", 10.0, 9.0)  # joins via sw-a
        engine.ingest("b1", 20.0, 5.0)  # joins via circ-b
        assert len(engine.open_incidents) == 1
        (report,) = close_all(engine)
        cause = report.incident.cause
        assert cause.kind == KIND_DEVICE
        assert cause.element == "m"
        assert cause.confidence == pytest.approx(1 / 3)


class TestAdvance:
    def test_closed_at_is_logical_not_observed(self, topology):
        """A watermark jump days past the last anomaly must stamp
        ``closed_at`` at last anomaly + gap, not at the jump."""
        engine = RcaEngine(topology=topology, cluster_gap=60.0)
        engine.ingest("a1", 100.0, 5.0)
        (report,) = engine.advance(1e6)
        assert report.closed_at == 160.0

    def test_watermark_is_monotonic(self, topology):
        engine = RcaEngine(topology=topology)
        engine.advance(50.0)
        engine.advance(10.0)
        assert engine.watermark == 50.0

    def test_close_stride_independent(self, topology):
        """Advancing in one jump or many small steps must close the
        same incidents with identical rows (the replay contract)."""
        rows = []
        for strides in ([5000.0], [1000.0, 2000.0, 3500.0, 5000.0]):
            engine = RcaEngine(topology=topology, cluster_gap=60.0)
            engine.ingest("a1", 0.0, 5.0)
            engine.ingest("a2", 30.0, 6.0)
            reports = []
            for mark in strides:
                reports.extend(engine.advance(mark))
            rows.append([incident_row(r) for r in reports])
        assert rows[0] == rows[1]

    def test_drain_closed_pops_once(self, topology):
        engine = RcaEngine(topology=topology)
        engine.ingest("a1", 0.0, 5.0)
        engine.advance(1e6)
        assert len(engine.drain_closed()) == 1
        assert engine.drain_closed() == []

    def test_cluster_gap_must_be_positive(self):
        with pytest.raises(ValueError):
            RcaEngine(cluster_gap=0.0)


class TestDurability:
    def test_device_joins_mid_incident_after_restart(self, topology):
        """The shard-restart drill: an incident opened before the
        checkpoint keeps accreting devices after a restore, and the
        restored run emits the same report an uninterrupted one
        would."""
        live = RcaEngine(topology=topology)
        live.ingest("a1", 0.0, 5.0)
        state = live.state_dict()

        restored = RcaEngine(topology=topology)
        restored.load_state_dict(state)
        restored.ingest("a2", 100.0, 6.0)
        assert len(restored.open_incidents) == 1
        (report,) = close_all(restored)
        assert report.incident.devices == ["a1", "a2"]
        assert report.incident.cause.element == "circ-a"

        live.ingest("a2", 100.0, 6.0)
        (baseline,) = close_all(live)
        assert incident_row(report) == incident_row(baseline)

    def test_state_round_trips(self, topology):
        engine = RcaEngine(topology=topology)
        engine.ingest("a1", 0.0, 5.0)
        engine.ingest("b1", 10.0, 7.0)
        engine.advance(20.0)
        state = engine.state_dict()
        restored = RcaEngine(topology=topology)
        restored.load_state_dict(state)
        assert restored.state_dict() == state
        assert restored.open_incidents == engine.open_incidents
        assert restored.watermark == engine.watermark

    def test_incident_ids_continue_after_restore(self, topology):
        engine = RcaEngine(topology=topology)
        engine.ingest("a1", 0.0, 5.0)
        restored = RcaEngine(topology=topology)
        restored.load_state_dict(engine.state_dict())
        restored.ingest("b1", 0.0, 5.0)
        assert restored.open_incidents == (1, 2)

    def test_version_mismatch_refused(self, topology):
        engine = RcaEngine(topology=topology)
        state = engine.state_dict()
        state["version"] = RCA_STATE_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            RcaEngine(topology=topology).load_state_dict(state)


class TestObserveTick:
    @staticmethod
    def tick(hosts_times):
        return [
            SyslogMessage(
                timestamp=time,
                host=host,
                process="rpd",
                text="RPD_TEST: boom",
                severity=Severity.ERROR,
            )
            for host, time in hosts_times
        ]

    def test_anomalies_ingested_and_watermark_advanced(self, topology):
        engine = RcaEngine(topology=topology, cluster_gap=60.0)
        messages = self.tick([("a1", 0.0), ("a2", 10.0), ("b1", 20.0)])
        scores = np.array([5.0, 0.1, 6.0])
        kept = np.array([True, True, True])
        engine.observe_tick(messages, scores, kept, 1.0)
        assert engine.watermark == 20.0
        reports = close_all(engine)
        # a2 scored below threshold; a1 and b1 share nothing, so the
        # tick opened exactly two singleton incidents.
        devices = {d for r in reports for d in r.incident.devices}
        assert devices == {"a1", "b1"}

    def test_nan_scores_never_qualify(self, topology):
        engine = RcaEngine(topology=topology)
        messages = self.tick([("a1", 0.0), ("a2", 10.0)])
        scores = np.array([np.nan, np.nan])
        kept = np.array([True, True])
        engine.observe_tick(messages, scores, kept, 1.0)
        assert not engine.open_incidents
        assert engine.watermark == 10.0

    def test_dropped_messages_never_qualify(self, topology):
        engine = RcaEngine(topology=topology)
        messages = self.tick([("a1", 0.0)])
        engine.observe_tick(
            messages, np.array([9.0]), np.array([False]), 1.0
        )
        assert not engine.open_incidents

    def test_quiet_tick_still_closes_stale_incidents(self, topology):
        """A tick with no anomalies still advances the watermark and
        closes incidents gone quiet; a fully empty tick is a no-op."""
        engine = RcaEngine(topology=topology, cluster_gap=60.0)
        engine.observe_tick(
            self.tick([("a1", 0.0)]),
            np.array([9.0]),
            np.array([True]),
            1.0,
        )
        closed = engine.observe_tick(
            self.tick([("b1", 1000.0)]),
            np.array([0.1]),
            np.array([True]),
            1.0,
        )
        assert len(closed) == 1
        assert engine.observe_tick(
            [], np.empty(0), np.empty(0, dtype=bool), 1.0
        ) == []


class TestReporting:
    def test_incident_row_shape_and_float_repr(self, topology):
        engine = RcaEngine(topology=topology)
        engine.ingest("a1", 0.125, 5.5)
        (report,) = close_all(engine)
        row = incident_row(report)
        fields = row.rstrip("\n").split(",")
        assert len(fields) == len(INCIDENT_CSV_COLUMNS)
        assert fields[1] == repr(0.125)
        assert float(fields[6]) == 5.5

    def test_telemetry_published_at_boundaries(self, topology):
        registry = telemetry.MetricsRegistry()
        with telemetry.use(registry):
            engine = RcaEngine(topology=topology, cluster_gap=60.0)
            engine.ingest("a1", 0.0, 5.0)
            engine.ingest("b1", 0.0, 5.0)
            engine.advance(10.0)
            assert registry.counter("rca.incidents_opened").value == 2
            assert registry.gauge("rca.incidents_open").value == 2
            engine.advance(1e6)
            assert registry.counter("rca.incidents_closed").value == 2
            assert registry.gauge("rca.incidents_open").value == 0
        snapshot = registry.snapshot()
        assert "rca.incident_devices" in snapshot["histograms"]
        assert "rca.attribution_seconds" in snapshot["histograms"]
