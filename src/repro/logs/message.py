"""Syslog message data model.

A :class:`SyslogMessage` is one line of router log output, as produced
by a vPE (or, in this reproduction, by the fleet simulator).  The model
follows the classic BSD syslog structure: a facility, a severity, an
originating host, a reporting process, and free-form text.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np


class Severity(enum.IntEnum):
    """BSD syslog severity levels (RFC 3164 section 4.1.1)."""

    EMERGENCY = 0
    ALERT = 1
    CRITICAL = 2
    ERROR = 3
    WARNING = 4
    NOTICE = 5
    INFO = 6
    DEBUG = 7

    @property
    def is_actionable(self) -> bool:
        """Severities at WARNING or worse usually feed ticket rules."""
        return self <= Severity.WARNING


class Facility(enum.IntEnum):
    """A subset of syslog facilities relevant to router logs."""

    KERNEL = 0
    USER = 1
    DAEMON = 3
    AUTH = 4
    SYSLOG = 5
    NTP = 12
    LOCAL0 = 16
    LOCAL1 = 17
    LOCAL2 = 18
    LOCAL3 = 19
    LOCAL4 = 20
    LOCAL5 = 21
    LOCAL6 = 22
    LOCAL7 = 23


def encode_priority(facility: Facility, severity: Severity) -> int:
    """Combine facility and severity into the RFC 3164 PRI value."""
    return int(facility) * 8 + int(severity)


def decode_priority(priority: int) -> "tuple[Facility, Severity]":
    """Split an RFC 3164 PRI value back into facility and severity."""
    if not 0 <= priority <= 191:
        raise ValueError(f"PRI must be in [0, 191], got {priority}")
    return Facility(priority // 8), Severity(priority % 8)


@dataclass(frozen=True)
class SyslogMessage:
    """One syslog line.

    Attributes:
        timestamp: POSIX seconds when the message was emitted.
        host: originating device name, e.g. ``"vpe07"``.
        process: reporting daemon, e.g. ``"rpd"`` or ``"chassisd"``.
        text: the free-form message body.
        severity: syslog severity.
        facility: syslog facility.
        template_id: once template mining has run, the id of the mined
            template this message matches; ``None`` for raw messages.
    """

    timestamp: float
    host: str
    process: str
    text: str
    severity: Severity = Severity.INFO
    facility: Facility = Facility.DAEMON
    template_id: Optional[int] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.timestamp < 0:
            raise ValueError(f"negative timestamp: {self.timestamp}")
        if not self.host:
            raise ValueError("host must be non-empty")
        if not self.process:
            raise ValueError("process must be non-empty")

    @property
    def priority(self) -> int:
        """The RFC 3164 PRI value for this message."""
        return encode_priority(self.facility, self.severity)

    def with_template(self, template_id: int) -> "SyslogMessage":
        """Return a copy annotated with a mined template id."""
        return SyslogMessage(
            timestamp=self.timestamp,
            host=self.host,
            process=self.process,
            text=self.text,
            severity=self.severity,
            facility=self.facility,
            template_id=template_id,
        )

    def __str__(self) -> str:
        return (
            f"<{self.priority}> {self.host} {self.process}: {self.text}"
        )


def message_to_dict(message: SyslogMessage) -> dict:
    """A JSON-ready dict for one message (trace files).

    The key set matches the ``trace/<vpe>.jsonl`` line format written
    by the CLI.  The runtime journals ticks with the binary codec of
    :mod:`repro.runtime.codec` instead.
    """
    return {
        "ts": message.timestamp,
        "host": message.host,
        "proc": message.process,
        "sev": int(message.severity),
        "fac": int(message.facility),
        "text": message.text,
    }


def message_from_dict(raw: dict) -> SyslogMessage:
    """Rebuild a message from :func:`message_to_dict` output."""
    return SyslogMessage(
        timestamp=raw["ts"],
        host=raw["host"],
        process=raw["proc"],
        text=raw["text"],
        severity=Severity(raw["sev"]),
        facility=Facility(raw["fac"]),
    )


def message_columns(
    messages: "Sequence[SyslogMessage]",
) -> "Tuple[np.ndarray, List[str]]":
    """Column-major ``(timestamps, hosts)`` for one batch of messages.

    The single array build shared by the streaming scorer's tick
    ingest and the runtime WAL's arena tick codec: one float64 pass
    over the timestamps plus the host list, instead of each consumer
    re-walking the message objects field by field.
    """
    n = len(messages)
    times = np.fromiter(
        (message.timestamp for message in messages),
        dtype=np.float64,
        count=n,
    )
    hosts = [message.host for message in messages]
    return times, hosts
