"""Syslog message data model.

A :class:`SyslogMessage` is one line of router log output, as produced
by a vPE (or, in this reproduction, by the fleet simulator).  The model
follows the classic BSD syslog structure: a facility, a severity, an
originating host, a reporting process, and free-form text.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Tuple, Union

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
        if not 0 <= self.timestamp < math.inf:
            raise ValueError(
                f"timestamp is not finite and >= 0: {self.timestamp}"
            )
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


@dataclass(eq=False, repr=False)
class MessageBatch(Sequence[SyslogMessage]):
    """Syslog messages stored column-major: one array or sequence per field.

    The serve path's one message representation, from the trace file to
    the score: the trace reader fills one batch per vPE file, ``serve``
    merges them into its feed, each tick is a slice of that feed, and
    the WAL journals and replays exactly these columns.  ``host_ids``
    index the sorted ``hosts``, so grouping a tick by device is an
    integer ``np.unique`` whose runs come out in host-name order.
    Slicing returns a batch; indexing with an int or iterating builds
    :class:`SyslogMessage` objects, for the callers at the edges
    (mining, training) that want them.

    Attributes:
        times: float64 POSIX seconds.
        severities, facilities: uint8 :class:`Severity` and
            :class:`Facility` values.
        host_ids: int32 indices into ``hosts``, which slices share.
    """

    times: np.ndarray
    severities: np.ndarray
    facilities: np.ndarray
    host_ids: np.ndarray
    hosts: Tuple[str, ...]
    processes: Sequence[str]
    texts: Sequence[str]

    @classmethod
    def of(cls, messages: Iterable[SyslogMessage]) -> MessageBatch:
        """``messages`` as a batch, for an entry point that also takes
        message objects: converted once, or returned as it is."""
        if isinstance(messages, MessageBatch):
            return messages
        messages = list(messages)
        hosts = tuple(sorted({message.host for message in messages}))
        index = {host: i for i, host in enumerate(hosts)}
        return cls(
            np.array([m.timestamp for m in messages], dtype=np.float64),
            np.array([m.severity for m in messages], dtype=np.uint8),
            np.array([m.facility for m in messages], dtype=np.uint8),
            np.array([index[m.host] for m in messages], dtype=np.int32),
            hosts,
            [message.process for message in messages],
            [message.text for message in messages],
        )

    def __len__(self) -> int:
        return len(self.texts)

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[SyslogMessage, MessageBatch]:
        if isinstance(index, slice):
            return MessageBatch(
                self.times[index],
                self.severities[index],
                self.facilities[index],
                self.host_ids[index],
                self.hosts,
                self.processes[index],
                self.texts[index],
            )
        return SyslogMessage(
            timestamp=float(self.times[index]),
            host=self.hosts[self.host_ids[index]],
            process=self.processes[index],
            text=self.texts[index],
            severity=Severity(int(self.severities[index])),
            facility=Facility(int(self.facilities[index])),
        )
