"""Arena-backed binary tick codec for the write-ahead log.

The service journals every ingested tick before scoring it, so the
encoder sits directly on the ingest hot path.  A tick is a
:class:`~repro.logs.message.MessageBatch`, already column-major, and
the record is those columns packed into one preallocated, grow-only
arena:

* numpy bulk writes for the fixed-width columns (timestamps,
  severities, facilities),
* a single UTF-8 blob per string column (hosts, processes, texts)
  prefixed by a ``u32`` length vector; an all-ASCII column is encoded
  with one ``str.join`` and one ``encode`` call,

so a tick costs one WAL ``append`` and one CRC regardless of message
count, and the encoder performs zero per-tick arena allocations at
steady state.  :func:`decode_tick` rebuilds the same columns, so a
replayed tick is the batch the live run scored.

Record layout (all integers little-endian)::

    u8  magic (0xB1)       -- never 0x7B ('{'), so tick records are
    u8  codec version         distinguishable from JSON swap records
    u32 message count n
    f64 timestamps[n]
    u8  severities[n]
    u8  facilities[n]
    u32 host lengths[n]   | joined UTF-8 hosts
    u32 proc lengths[n]   | joined UTF-8 processes
    u32 text lengths[n]   | joined UTF-8 texts

Decoding reproduces the exact float64 timestamps (raw IEEE bytes, no
text round-trip), so journal replay after a crash stays bitwise
identical to the original run.
"""

from __future__ import annotations

import struct
from typing import List, Sequence, Tuple

import numpy as np

from repro.logs.message import MessageBatch, SyslogMessage

#: First payload byte of a binary tick record.  Any value other than
#: ``0x7B`` (``{``) works; the service dispatches its JSON swap records
#: by that opening brace.
TICK_MAGIC = 0xB1

#: Bumped on incompatible layout changes.
CODEC_VERSION = 1

_PREFIX = struct.Struct("<BBI")

#: Initial arena size; the arena grows geometrically and never
#: shrinks, so steady-state ticks reuse one allocation.
_INITIAL_ARENA_BYTES = 64 * 1024


def _utf8(strings: Sequence[str]) -> Tuple[np.ndarray, bytes]:
    """Each string's UTF-8 byte length, and the strings' joined UTF-8."""
    joined = "".join(strings)
    blob = joined.encode("utf-8")
    if len(blob) == len(joined):
        # All ASCII: every character is one byte.
        return np.fromiter(map(len, strings), np.uint32, len(strings)), blob
    lengths = [len(string.encode("utf-8")) for string in strings]
    return np.array(lengths, dtype=np.uint32), blob


class TickEncoder:
    """Encode ticks into a reusable arena buffer.

    One encoder instance belongs to one service: :meth:`encode`
    returns a memoryview over the arena's prefix, which the caller
    must consume (CRC + write) before the next ``encode`` call
    overwrites it.  That is exactly the WAL append contract.
    """

    def __init__(self) -> None:
        self._arena = bytearray(_INITIAL_ARENA_BYTES)

    def _reserve(self, total: int) -> None:
        if len(self._arena) < total:
            self._arena = bytearray(
                max(total, 2 * len(self._arena))
            )

    def encode(
        self, messages: "Sequence[SyslogMessage]"
    ) -> memoryview:
        """Pack one tick; returns a view valid until the next call.

        ``messages`` is read as a :class:`MessageBatch` (converted once
        if it is not one).
        """
        batch = MessageBatch.of(messages)
        n = len(batch)
        hosts = _utf8(
            np.array(batch.hosts, dtype=object)[batch.host_ids].tolist()
        )
        processes = _utf8(batch.processes)
        texts = _utf8(batch.texts)
        total = (
            _PREFIX.size
            + 10 * n  # f64 time + u8 severity + u8 facility
            + 3 * 4 * n  # three u32 length vectors
            + len(hosts[1])
            + len(processes[1])
            + len(texts[1])
        )
        self._reserve(total)
        arena = self._arena
        _PREFIX.pack_into(arena, 0, TICK_MAGIC, CODEC_VERSION, n)
        offset = _PREFIX.size
        for column, dtype in (
            (batch.times, np.float64),
            (batch.severities, np.uint8),
            (batch.facilities, np.uint8),
        ):
            view = np.frombuffer(arena, dtype, n, offset)
            view[:] = column
            offset += view.nbytes
        for lengths, blob in (hosts, processes, texts):
            np.frombuffer(arena, np.uint32, n, offset)[:] = lengths
            offset += 4 * n
            arena[offset:offset + len(blob)] = blob
            offset += len(blob)
        return memoryview(arena)[:total]


def _split_strings(
    buffer: memoryview, offset: int, n: int
) -> "tuple[List[str], int]":
    lengths = np.frombuffer(buffer, np.uint32, n, offset)
    offset += 4 * n
    total = int(lengths.sum()) if n else 0
    if offset + total > len(buffer):
        raise ValueError(
            "tick record truncated inside a string section"
        )
    blob = bytes(buffer[offset:offset + total])
    stops = np.cumsum(lengths)
    starts = stops - lengths
    strings = [
        blob[int(start):int(stop)].decode("utf-8")
        for start, stop in zip(starts, stops)
    ]
    return strings, offset + total


def decode_tick(payload: bytes) -> MessageBatch:
    """Rebuild the batch of one :meth:`TickEncoder.encode` record.

    Timestamps come back as the original float64 bit patterns, so
    replaying a decoded tick scores bitwise-identically.
    """
    buffer = memoryview(payload)
    if len(buffer) < _PREFIX.size:
        raise ValueError(
            f"tick record too short: {len(buffer)} bytes"
        )
    magic, version, n = _PREFIX.unpack_from(buffer, 0)
    if magic != TICK_MAGIC:
        raise ValueError(
            f"bad tick record magic 0x{magic:02X} "
            f"(expected 0x{TICK_MAGIC:02X})"
        )
    if version != CODEC_VERSION:
        raise ValueError(
            f"unsupported tick codec version {version} "
            f"(expected {CODEC_VERSION})"
        )
    offset = _PREFIX.size
    expected_fixed = offset + 10 * n + 12 * n
    if len(buffer) < expected_fixed:
        raise ValueError(
            f"tick record truncated: {len(buffer)} bytes for "
            f"{n} messages"
        )
    times = np.frombuffer(buffer, np.float64, n, offset).copy()
    offset += 8 * n
    severities = np.frombuffer(buffer, np.uint8, n, offset).copy()
    offset += n
    facilities = np.frombuffer(buffer, np.uint8, n, offset).copy()
    offset += n
    hosts, offset = _split_strings(buffer, offset, n)
    procs, offset = _split_strings(buffer, offset, n)
    texts, offset = _split_strings(buffer, offset, n)
    names = sorted(set(hosts))
    index = {host: i for i, host in enumerate(names)}
    host_ids = np.fromiter(map(index.__getitem__, hosts), np.int32, n)
    return MessageBatch(
        times, severities, facilities, host_ids, tuple(names), procs, texts
    )


__all__ = [
    "CODEC_VERSION",
    "TICK_MAGIC",
    "TickEncoder",
    "decode_tick",
]
