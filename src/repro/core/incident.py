"""Incidents: the fleet-level records of root-cause analysis.

:class:`~repro.rca.RcaEngine` groups temporally co-occurring anomalies
across devices into an :class:`Incident` — its device set, anomaly
time span, per-device peak scores and anomaly count — and attaches a
:class:`CauseHypothesis` when the incident closes.  Both are plain
JSON-serializable data (:meth:`Incident.to_state` /
:meth:`Incident.from_state`), so open incidents ride service
checkpoints unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["CauseHypothesis", "Incident"]


@dataclass(frozen=True)
class CauseHypothesis:
    """One ranked root-cause attribution for an incident.

    Attributes:
        kind: cause taxonomy label (one of the
            :class:`~repro.tickets.RootCause` values, e.g.
            ``"circuit"``).
        element: identifier of the blamed topology element (or the
            device itself for per-device attribution).
        confidence: attribution confidence in ``[0, 1]``.
    """

    kind: str
    element: str
    confidence: float

    def to_state(self) -> Dict[str, object]:
        """JSON-safe snapshot (checkpoints, journals)."""
        return {
            "kind": self.kind,
            "element": self.element,
            "confidence": float(self.confidence),
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "CauseHypothesis":
        """Rebuild from a :meth:`to_state` snapshot."""
        return cls(
            kind=str(state["kind"]),
            element=str(state["element"]),
            confidence=float(state["confidence"]),
        )


@dataclass
class Incident:
    """A burst of anomalies across devices, with its attribution.

    Attributes:
        devices: devices touched, in first-anomaly order.
        scores: per-device peak anomaly score.
        first_time: timestamp of the first recorded anomaly.
        last_time: timestamp of the newest recorded anomaly.
        n_anomalies: anomalies recorded.
        cause: the attributed root cause, once assigned.
    """

    devices: List[str] = field(default_factory=list)
    scores: Dict[str, float] = field(default_factory=dict)
    first_time: Optional[float] = None
    last_time: Optional[float] = None
    n_anomalies: int = 0
    cause: Optional[CauseHypothesis] = None

    @property
    def peak_score(self) -> float:
        """Highest per-device peak, ``0.0`` while empty."""
        if not self.scores:
            return 0.0
        return max(self.scores.values())

    def record(self, device: str, time: float, score: float) -> None:
        """Fold one anomaly into the incident."""
        if device not in self.scores:
            self.devices.append(device)
            self.scores[device] = float(score)
        elif score > self.scores[device]:
            self.scores[device] = float(score)
        if self.first_time is None:
            self.first_time = float(time)
        self.last_time = float(time)
        self.n_anomalies += 1

    def to_state(self) -> Dict[str, object]:
        """JSON-safe snapshot for checkpoints."""
        return {
            "devices": list(self.devices),
            "scores": {
                key: float(value) for key, value in self.scores.items()
            },
            "first_time": self.first_time,
            "last_time": self.last_time,
            "n_anomalies": int(self.n_anomalies),
            "cause": (
                None if self.cause is None else self.cause.to_state()
            ),
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "Incident":
        """Rebuild from a :meth:`to_state` snapshot."""
        cause = state.get("cause")
        first, last = state["first_time"], state["last_time"]
        return cls(
            devices=[str(d) for d in state["devices"]],
            scores={
                str(key): float(value)
                for key, value in state["scores"].items()
            },
            first_time=None if first is None else float(first),
            last_time=None if last is None else float(last),
            n_anomalies=int(state["n_anomalies"]),
            cause=(
                None
                if cause is None
                else CauseHypothesis.from_state(cause)
            ),
        )
