"""The streaming root-cause analysis engine.

:class:`RcaEngine` consumes per-device anomaly decisions at tick
boundaries — from a :class:`~repro.runtime.service.MonitorService`'s
scored batches, or from any time-ordered event feed — and groups
temporally co-occurring anomalies into fleet **incidents**:

* a new anomalous device joins an open incident iff it arrives within
  ``cluster_gap`` of the incident's newest anomaly *and* shares a
  covering :class:`~repro.topology.FleetTopology` element with a
  device already in it (same circuit, site, cable or software
  cohort); without a topology every device gets its own incident;
* an incident **closes** once the stream watermark moves more than
  ``cluster_gap`` past its newest anomaly, at which point the engine
  walks the topology to the lowest common ancestor of the incident's
  devices and attaches a ranked :class:`~repro.core.incident.
  CauseHypothesis` — ``confidence`` is the fraction of the blamed
  element's covered devices that actually joined the incident, and
  ties break toward the nearest (lowest) element;
* everything the engine holds between ticks is JSON-safe
  (:meth:`RcaEngine.state_dict`), so it rides service checkpoints and
  WAL replay reproduces the exact incident stream of an
  uninterrupted run — closed-incident CSV rows carry ``repr(float)``
  fields precisely so ``sort -u`` collapses replayed duplicates.

The per-event path is allocation-light by design: ancestry element
sets are cached per device and membership checks use
``frozenset.isdisjoint``, so a tick's anomaly loop does no per-event
container builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.core.incident import CauseHypothesis, Incident
from repro.logs.message import MessageBatch, SyslogMessage
from repro.topology.graph import FleetTopology, KIND_DEVICE

#: Version key stamped into :meth:`RcaEngine.state_dict`; bumped on
#: incompatible layout changes.
RCA_STATE_VERSION = 2

#: Default quiet gap (seconds of stream time) after which an open
#: incident closes and is attributed.
DEFAULT_CLUSTER_GAP = 3600.0

#: Histogram bucket edges for incident device counts.
_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

#: Histogram bucket edges for onset-to-attribution stream seconds.
_LATENCY_BUCKETS = (
    60.0,
    300.0,
    900.0,
    1800.0,
    3600.0,
    7200.0,
    21600.0,
    86400.0,
)

#: Column order of one closed-incident CSV row (no header is written:
#: rows must stay ``sort -u``-collapsible across replayed runs).
INCIDENT_CSV_COLUMNS = (
    "incident_id",
    "first_time",
    "last_time",
    "closed_at",
    "devices",
    "n_anomalies",
    "peak_score",
    "cause_kind",
    "cause_element",
    "confidence",
)


@dataclass(frozen=True)
class IncidentReport:
    """One closed, attributed incident.

    Attributes:
        incident_id: engine-assigned id, stable across crash replay.
        incident: the incident body, ``cause`` attached.
        closed_at: stream watermark when the incident closed.
    """

    incident_id: int
    incident: Incident
    closed_at: float


def incident_row(report: IncidentReport) -> str:
    """One CSV line for a closed incident (see ``INCIDENT_CSV_COLUMNS``).

    Floats are rendered with ``repr`` so a replayed incident produces
    a bitwise-identical row and ``sort -u`` over concatenated run
    outputs collapses the duplicates — the same parity contract the
    runtime's score CSVs follow.
    """
    incident = report.incident
    cause = incident.cause
    assert cause is not None
    return (
        f"{report.incident_id},{incident.first_time!r},"
        f"{incident.last_time!r},{report.closed_at!r},"
        f"{';'.join(incident.devices)},{incident.n_anomalies},"
        f"{incident.peak_score!r},{cause.kind},{cause.element},"
        f"{cause.confidence!r}\n"
    )


class RcaEngine:
    """Streaming incident clustering and root-cause attribution.

    Args:
        topology: the fleet graph to cluster and attribute over;
            ``None`` degrades to per-device incidents blamed on the
            device itself.
        cluster_gap: quiet seconds (stream time) that end an incident;
            also the max spacing for a device to join one.

    Feed it either through :meth:`observe_tick` (service-shaped: a
    scored batch plus the live threshold) or :meth:`ingest` /
    :meth:`advance` directly (event-shaped).  Events must arrive in
    the service's deterministic tick order for replay to reproduce
    identical incidents.
    """

    def __init__(
        self,
        topology: Optional[FleetTopology] = None,
        cluster_gap: float = DEFAULT_CLUSTER_GAP,
    ) -> None:
        if cluster_gap <= 0:
            raise ValueError("cluster_gap must be positive")
        self.topology = topology
        self.cluster_gap = float(cluster_gap)
        self._open: Dict[int, Incident] = {}
        self._open_elements: Dict[int, set] = {}
        self._device_incident: Dict[str, int] = {}
        self._ancestry: Dict[str, frozenset] = {}
        self._next_id = 1
        self._watermark: Optional[float] = None
        self._opened_unpublished = 0
        self._drained: List[IncidentReport] = []

    # -- introspection ---------------------------------------------------

    @property
    def open_incidents(self) -> Tuple[int, ...]:
        """Ids of currently open incidents, oldest first."""
        return tuple(self._open)

    @property
    def watermark(self) -> Optional[float]:
        """Newest stream time observed (``None`` before any event)."""
        return self._watermark

    def _ancestry_set(self, device: str) -> frozenset:
        """Cached non-device covering elements of ``device``.

        Empty for devices the topology does not know (or with no
        topology at all), which disables shared-element joins for
        them — they cluster alone.
        """
        cached = self._ancestry.get(device)
        if cached is not None:
            return cached
        if self.topology is None or device not in self.topology:
            elements: frozenset = frozenset()
        else:
            elements = frozenset(self.topology.ancestry(device)[1:])
        self._ancestry[device] = elements
        return elements

    # -- the streaming path ----------------------------------------------

    def ingest(self, device: str, time: float, score: float) -> None:
        """Fold one anomaly decision into the open incident set."""
        elements = self._ancestry_set(device)
        incident_id = self._device_incident.get(device)
        if incident_id is not None:
            incident = self._open.get(incident_id)
            if (
                incident is not None
                and incident.last_time is not None
                and time - incident.last_time <= self.cluster_gap
            ):
                incident.record(device, time, score)
                self._open_elements[incident_id].update(elements)
                return
        if elements:
            # Oldest-first scan: a device joining two eligible
            # incidents folds into the earlier one, deterministically.
            for candidate_id, incident in self._open.items():
                if (
                    incident.last_time is not None
                    and time - incident.last_time <= self.cluster_gap
                    and not elements.isdisjoint(
                        self._open_elements[candidate_id]
                    )
                ):
                    incident.record(device, time, score)
                    self._open_elements[candidate_id].update(elements)
                    self._device_incident[device] = candidate_id
                    return
        incident = Incident()
        incident.record(device, time, score)
        incident_id = self._next_id
        self._next_id += 1
        self._open[incident_id] = incident
        self._open_elements[incident_id] = set(elements)
        self._device_incident[device] = incident_id
        self._opened_unpublished += 1

    def advance(self, watermark: float) -> List[IncidentReport]:
        """Move stream time forward; close and attribute quiet incidents.

        Returns the incidents closed by this call (also retained for
        :meth:`drain_closed`).  The watermark is monotonic: passing an
        older time is a no-op on it.  A closed incident's ``closed_at``
        is the *logical* close time — last anomaly plus the quiet gap
        — not the watermark that noticed it, so sparse streams don't
        inflate attribution latency (and replays that advance in
        different strides stamp identical rows).
        """
        if self._watermark is None or watermark > self._watermark:
            self._watermark = watermark
        mark = self._watermark
        closed: List[IncidentReport] = []
        for incident_id in list(self._open):
            incident = self._open[incident_id]
            last = incident.last_time
            if last is not None and mark - last > self.cluster_gap:
                closed.append(
                    self._close(incident_id, last + self.cluster_gap)
                )
        if closed or self._opened_unpublished:
            self._publish(closed)
        return closed

    def flush(self) -> List[IncidentReport]:
        """Close every open incident (graceful shutdown)."""
        closed = []
        for incident_id in list(self._open):
            incident = self._open[incident_id]
            mark = incident.last_time or 0.0
            if self._watermark is not None:
                mark = max(mark, self._watermark)
            closed.append(self._close(incident_id, mark))
        if closed:
            self._publish(closed)
        return closed

    def drain_closed(self) -> List[IncidentReport]:
        """Pop every report closed since the previous drain."""
        drained = self._drained
        self._drained = []
        return drained

    def _close(
        self, incident_id: int, closed_at: float
    ) -> IncidentReport:
        incident = self._open.pop(incident_id)
        self._open_elements.pop(incident_id)
        for device in incident.devices:
            if self._device_incident.get(device) == incident_id:
                del self._device_incident[device]
        incident.cause = self._attribute(incident)
        report = IncidentReport(
            incident_id=incident_id,
            incident=incident,
            closed_at=float(closed_at),
        )
        self._drained.append(report)
        return report

    # -- attribution -----------------------------------------------------

    def _attribute(self, incident: Incident) -> CauseHypothesis:
        """The lowest-common-ancestor cause hypothesis for an incident."""
        devices = incident.devices
        topology = self.topology
        known = topology is not None and all(
            device in topology for device in devices
        )
        if known:
            assert topology is not None
            candidates = topology.common_elements(devices)
            best: Optional[str] = None
            best_confidence = 0.0
            for element in candidates:
                confidence = len(devices) / len(
                    topology.covered(element)
                )
                # Strict > keeps the nearest element on ties: the
                # candidate chain is already lowest-first.
                if confidence > best_confidence:
                    best = element
                    best_confidence = confidence
            if best is not None:
                return CauseHypothesis(
                    kind=topology.kind(best),
                    element=best,
                    confidence=best_confidence,
                )
        # Per-device fallback: no topology, unknown devices, or no
        # common element (independent bursts that merged through a
        # chain of pairwise overlaps).  Blame the loudest device.
        loudest = min(
            devices,
            key=lambda device: (-incident.scores[device], device),
        )
        return CauseHypothesis(
            kind=KIND_DEVICE,
            element=loudest,
            confidence=1.0 / len(devices),
        )

    # -- the service adapter ---------------------------------------------

    def observe_tick(
        self,
        messages: Sequence[SyslogMessage],
        scores: np.ndarray,
        kept: np.ndarray,
        threshold: float,
    ) -> List[IncidentReport]:
        """Fold one scored service tick; returns incidents it closed.

        ``messages`` is read as a
        :class:`~repro.logs.message.MessageBatch` (converted once if it
        is not one); ``scores``/``kept`` align with it (the
        :class:`~repro.core.stream.StreamBatch` layout).  An anomaly is
        a kept message scoring strictly above ``threshold`` (NaN
        warm-up scores never qualify).  The tick's last message stamps
        the watermark — ticks arrive time-ordered, and the watermark's
        own monotonicity absorbs any intra-tick disorder at the cost
        of a close deferred by at most one tick.
        """
        batch = MessageBatch.of(messages)
        if len(batch):
            anomalous = np.flatnonzero(kept & (scores > threshold))
            times = batch.times[anomalous]
            watermark = float(batch.times[-1])
            if times.size:
                watermark = max(watermark, float(times.max()))
            hosts = batch.hosts
            for host_id, time, score in zip(  # repro: hot-path
                batch.host_ids[anomalous].tolist(),
                times.tolist(),
                scores[anomalous].tolist(),
            ):
                self.ingest(hosts[host_id], time, score)
            return self.advance(watermark)
        if self._watermark is not None:
            return self.advance(self._watermark)
        return []

    # -- telemetry -------------------------------------------------------

    def _publish(self, closed: Sequence[IncidentReport]) -> None:
        """Batch-boundary telemetry: open/close deltas, close shapes."""
        registry = telemetry.default_registry()
        registry.counter("rca.incidents_opened").inc(
            self._opened_unpublished
        )
        self._opened_unpublished = 0
        registry.gauge("rca.incidents_open").set(len(self._open))
        if not closed:
            return
        registry.counter("rca.incidents_closed").inc(len(closed))
        sizes = np.fromiter(
            (len(report.incident.devices) for report in closed),
            dtype=np.float64,
            count=len(closed),
        )
        registry.histogram(
            "rca.incident_devices", edges=_SIZE_BUCKETS
        ).observe_array(sizes)
        latencies = np.fromiter(
            (
                report.closed_at - (report.incident.first_time or 0.0)
                for report in closed
            ),
            dtype=np.float64,
            count=len(closed),
        )
        registry.histogram(
            "rca.attribution_seconds", edges=_LATENCY_BUCKETS
        ).observe_array(latencies)

    # -- durability ------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """JSON-safe snapshot riding the service checkpoint."""
        return {
            "version": RCA_STATE_VERSION,
            "next_id": self._next_id,
            "watermark": self._watermark,
            "open": [
                [incident_id, incident.to_state()]
                for incident_id, incident in self._open.items()
            ],
            "device_incident": dict(self._device_incident),
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`state_dict` snapshot (element sets rebuilt)."""
        version = state.get("version")
        if version != RCA_STATE_VERSION:
            raise ValueError(
                f"rca state version {version!r} is not supported "
                f"(expected {RCA_STATE_VERSION})"
            )
        self._open = {}
        self._open_elements = {}
        for incident_id, raw in state["open"]:
            incident = Incident.from_state(raw)
            self._open[int(incident_id)] = incident
            elements: set = set()
            for device in incident.devices:
                elements.update(self._ancestry_set(device))
            self._open_elements[int(incident_id)] = elements
        self._device_incident = {
            str(device): int(incident_id)
            for device, incident_id in state["device_incident"].items()
        }
        self._next_id = int(state["next_id"])
        raw_watermark = state.get("watermark")
        self._watermark = (
            None if raw_watermark is None else float(raw_watermark)
        )
        self._opened_unpublished = 0
        self._drained = []


__all__ = [
    "DEFAULT_CLUSTER_GAP",
    "INCIDENT_CSV_COLUMNS",
    "IncidentReport",
    "RCA_STATE_VERSION",
    "RcaEngine",
    "incident_row",
]
