"""Tests for repro.runtime.codec (binary tick record codec).

The encoder writes into a persistent arena, so alongside the usual
roundtrip/validation cases the suite pins the two properties the
service depends on: re-encoding does not disturb a previously returned
payload *once copied into the WAL*, and a JSON swap record in the same
journal is never mistaken for a tick.
"""

import json

import numpy as np
import pytest

from repro.logs.message import Facility, MessageBatch, Severity, SyslogMessage
from repro.runtime.codec import (
    CODEC_VERSION,
    TICK_MAGIC,
    TickEncoder,
    decode_tick,
)
from tests.conftest import make_message


def sample_tick():
    return [
        make_message(timestamp=100.0, host="vpe00", text="ALPHA: one"),
        SyslogMessage(
            timestamp=100.25,
            host="vpe01",
            process="chassisd",
            text="BRAVO: two",
            severity=Severity.ERROR,
            facility=Facility.KERNEL,
        ),
        make_message(timestamp=101.5, host="vpe00", text="CHARLIE: 3"),
    ]


class TestRoundtrip:
    def test_messages_roundtrip_exactly(self):
        tick = sample_tick()
        decoded = decode_tick(bytes(TickEncoder().encode(tick)))
        assert list(decoded) == tick
        for original, copy in zip(tick, decoded):
            assert copy.timestamp == original.timestamp  # exact f64
            assert copy.severity is original.severity
            assert copy.facility is original.facility

    def test_empty_tick_roundtrips(self):
        assert list(decode_tick(bytes(TickEncoder().encode([])))) == []

    def test_unicode_and_empty_strings_roundtrip(self):
        tick = [
            make_message(text="Schrödinger's vPE ✓"),
            make_message(text=""),
        ]
        assert list(decode_tick(bytes(TickEncoder().encode(tick)))) == tick

    def test_payload_starts_with_magic_not_json(self):
        payload = bytes(TickEncoder().encode(sample_tick()))
        assert payload[0] == TICK_MAGIC
        assert payload[:1] != b"{"
        assert payload[1] == CODEC_VERSION


class TestArena:
    def test_encoder_reuses_its_arena(self):
        encoder = TickEncoder()
        tick = sample_tick()
        first = encoder.encode(tick)
        buffer = first.obj
        copied = bytes(first)
        second = encoder.encode(sample_tick())
        assert second.obj is buffer  # no regrowth at steady state
        assert bytes(second) == copied

    def test_arena_grows_for_large_ticks(self):
        encoder = TickEncoder()
        tick = [
            make_message(timestamp=100.0 + i, text="X" * 4096)
            for i in range(64)
        ]
        payload = bytes(encoder.encode(tick))
        assert list(decode_tick(payload)) == tick

    def test_reencode_invalidates_prior_view_not_prior_copy(self):
        encoder = TickEncoder()
        copied = bytes(encoder.encode(sample_tick()))
        encoder.encode([make_message(text="overwrites the arena")])
        assert list(decode_tick(copied)) == sample_tick()


class TestValidation:
    def test_rejects_bad_magic(self):
        payload = bytearray(TickEncoder().encode(sample_tick()))
        payload[0] = 0x7C
        with pytest.raises(ValueError, match="magic"):
            decode_tick(bytes(payload))

    def test_rejects_unknown_version(self):
        payload = bytearray(TickEncoder().encode(sample_tick()))
        payload[1] = CODEC_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            decode_tick(bytes(payload))

    def test_rejects_truncated_payload(self):
        payload = bytes(TickEncoder().encode(sample_tick()))
        for cut in (len(payload) // 2, len(payload) - 1):
            with pytest.raises(ValueError, match="truncat"):
                decode_tick(payload[:cut])

    def test_rejects_payload_shorter_than_prefix(self):
        with pytest.raises(ValueError, match="too short"):
            decode_tick(b"")
        with pytest.raises(ValueError, match="too short"):
            decode_tick(bytes([TICK_MAGIC, CODEC_VERSION]))


class TestLegacyJson:
    def test_json_records_are_not_mistaken_for_ticks(self):
        swap = json.dumps({"kind": "swap", "release": 1}).encode()
        assert swap[:1] == b"{"
        with pytest.raises(ValueError, match="magic"):
            decode_tick(swap)


class TestGoldenRecord:
    """The record bytes are the journal's on-disk format: WALs written
    by earlier builds must keep replaying, so the encoder must keep
    writing exactly these bytes for this tick."""

    GOLDEN = bytes.fromhex(
        "b10103000000000010805e92d641000020805e92d641000040805e92d6410304"
        "0603001705000000050000000500000076706530317670653030767065303103"
        "0000000800000003000000727064636861737369736472706416000000190000"
        "000000000042475020706565722031302e302e302e3120646f776e54656d70c3"
        "a972617475726520c3a96c6576c3a96520e29c93"
    )

    @staticmethod
    def tick():
        return [
            SyslogMessage(
                timestamp=1514764800.25, host="vpe01", process="rpd",
                text="BGP peer 10.0.0.1 down", severity=Severity.ERROR,
                facility=Facility.DAEMON,
            ),
            SyslogMessage(
                timestamp=1514764800.5, host="vpe00", process="chassisd",
                text="Température élevée ✓", severity=Severity.WARNING,
                facility=Facility.KERNEL,
            ),
            SyslogMessage(
                timestamp=1514764801.0, host="vpe01", process="rpd",
                text="", severity=Severity.INFO, facility=Facility.LOCAL7,
            ),
        ]

    def test_batch_encodes_to_the_golden_bytes(self):
        batch = MessageBatch.of(self.tick())
        assert bytes(TickEncoder().encode(batch)) == self.GOLDEN
        # A slice of a wider batch (shared host vocabulary) too.
        wider = MessageBatch.of([make_message(host="vpe02"), *self.tick()])
        assert bytes(TickEncoder().encode(wider[1:])) == self.GOLDEN

    def test_golden_bytes_decode_to_the_tick(self):
        decoded = decode_tick(self.GOLDEN)
        assert list(decoded) == self.tick()
        assert decoded.hosts == ("vpe00", "vpe01")
        assert decoded.host_ids.tolist() == [1, 0, 1]
        assert decoded.times.dtype == np.float64
        assert bytes(TickEncoder().encode(decoded)) == self.GOLDEN
