"""Tests for repro.runtime.checkpoint (snapshot/restore).

The load-bearing property: restoring a checkpoint into a freshly
constructed monitor and continuing the stream is bitwise identical to
never having snapshotted — scores, warnings and counters alike.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.detector import LSTMAnomalyDetector
from repro.core.online import OnlineMonitor
from repro.logs.templates import TemplateStore
from repro.runtime.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    read_checkpoint,
    write_checkpoint,
)
from repro.timeutil import TRACE_START
from tests.conftest import make_message

TEXTS = [
    "ALPHA: phase one complete",
    "BRAVO: phase two complete",
    "CHARLIE: phase three complete",
    "DELTA: phase four complete",
]


def cyclic_stream(n, start=TRACE_START, period=10.0, host="vpe00"):
    return [
        make_message(
            timestamp=start + i * period,
            host=host,
            text=TEXTS[i % len(TEXTS)],
        )
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def detector():
    train = cyclic_stream(600)
    store = TemplateStore().fit(train)
    return LSTMAnomalyDetector(
        store,
        vocabulary_capacity=16,
        window=4,
        hidden=(12, 12),
        id_dim=8,
        epochs=6,
        oversample_rounds=0,
        seed=0,
    ).fit(train)


def fresh_monitor(detector, threshold=4.0):
    return OnlineMonitor(detector, threshold)


def assert_states_equal(a, b):
    """Exact (bitwise for arrays, == for scalars) state equality."""
    assert a.keys() == b.keys()
    for key, value in a.items():
        if isinstance(value, dict):
            assert_states_equal(value, b[key])
        elif isinstance(value, np.ndarray):
            assert value.dtype == b[key].dtype
            assert np.array_equal(value, b[key], equal_nan=True)
        else:
            assert value == b[key], key


class TestRoundTrip:
    def test_file_roundtrip_exact(self, detector, tmp_path):
        monitor = fresh_monitor(detector)
        monitor.run(cyclic_stream(100), tick_size=16)
        path = tmp_path / "checkpoint.npz"
        write_checkpoint(path, monitor, cursor=7, extra={"n_ticks": 9})
        checkpoint = read_checkpoint(path)
        assert checkpoint.cursor == 7
        assert checkpoint.extra == {"n_ticks": 9}
        restored = fresh_monitor(detector)
        checkpoint.restore(restored)
        assert_states_equal(
            monitor.state_dict(), restored.state_dict()
        )

    def test_continuation_parity(self, detector, tmp_path):
        """Snapshot-restore-continue == never snapshotted, bitwise."""
        stream = cyclic_stream(160, host="vpe00") + cyclic_stream(
            160, start=TRACE_START + 5.0, host="vpe01"
        )
        stream.sort(key=lambda m: m.timestamp)
        head, tail = stream[:200], stream[200:]

        straight = fresh_monitor(detector)
        straight.run(head, tick_size=32)
        base_batch = straight.scorer.observe_batch(tail)

        snapshotted = fresh_monitor(detector)
        snapshotted.run(head, tick_size=32)
        path = tmp_path / "checkpoint.npz"
        write_checkpoint(path, snapshotted, cursor=0)
        restored = fresh_monitor(detector)
        read_checkpoint(path).restore(restored)
        new_batch = restored.scorer.observe_batch(tail)

        assert np.array_equal(
            base_batch.scores, new_batch.scores, equal_nan=True
        )
        assert np.array_equal(base_batch.kept, new_batch.kept)

    def test_overwrite_is_atomic_replace(self, detector, tmp_path):
        monitor = fresh_monitor(detector)
        monitor.run(cyclic_stream(40), tick_size=8)
        path = tmp_path / "checkpoint.npz"
        write_checkpoint(path, monitor, cursor=1)
        monitor.run(cyclic_stream(40, start=TRACE_START + 500.0))
        write_checkpoint(path, monitor, cursor=2)
        assert not path.with_name(path.name + ".tmp").exists()
        assert read_checkpoint(path).cursor == 2

    def test_version_rejected(self, detector, tmp_path):
        monitor = fresh_monitor(detector)
        path = tmp_path / "checkpoint.npz"
        write_checkpoint(path, monitor, cursor=0)
        data = np.load(path)
        meta = json.loads(data["meta"].tobytes())
        meta["checkpoint_version"] = CHECKPOINT_VERSION + 1
        arrays = {
            key: data[key] for key in data.files if key != "meta"
        }
        np.savez(
            path,
            meta=np.frombuffer(json.dumps(meta).encode(), np.uint8),
            **arrays,
        )
        with pytest.raises(CheckpointError, match="version"):
            read_checkpoint(path)

    def test_meta_is_utf8_json(self, detector, tmp_path):
        path = tmp_path / "checkpoint.npz"
        write_checkpoint(path, fresh_monitor(detector), cursor=3)
        with np.load(path) as data:
            assert data["meta"].dtype == np.uint8
            meta = json.loads(data["meta"].tobytes().decode("utf-8"))
        assert meta["checkpoint_version"] == CHECKPOINT_VERSION

    def test_layout_1_refused(self, detector, tmp_path):
        """The first layout stored its JSON as a numpy unicode scalar;
        it is refused by version, never half-loaded."""
        path = tmp_path / "checkpoint.npz"
        write_checkpoint(path, fresh_monitor(detector), cursor=0)
        with np.load(path) as data:
            meta = json.loads(data["meta"].tobytes())
            arrays = {k: data[k] for k in data.files if k != "meta"}
        meta["checkpoint_version"] = 1
        np.savez(path, meta=np.array(json.dumps(meta)), **arrays)
        with pytest.raises(CheckpointError, match="version 1 is not"):
            read_checkpoint(path)

    @pytest.mark.parametrize("damage", ["truncated", "no-meta", "garbage"])
    def test_unreadable_file_is_a_checkpoint_error(
        self, detector, tmp_path, damage
    ):
        path = tmp_path / "checkpoint.npz"
        write_checkpoint(path, fresh_monitor(detector), cursor=0)
        if damage == "truncated":
            path.write_bytes(path.read_bytes()[:200])
        elif damage == "no-meta":
            with np.load(path) as data:
                arrays = {k: data[k] for k in data.files if k != "meta"}
            np.savez(path, **arrays)
        else:
            path.write_bytes(b"not a checkpoint")
        with pytest.raises(CheckpointError, match=str(path)):
            read_checkpoint(path)


class TestStateProperty:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        offsets=st.lists(
            st.floats(min_value=0.0, max_value=3600.0,
                      allow_nan=False),
            min_size=1,
            max_size=40,
        ),
        hosts=st.lists(
            st.sampled_from(["vpe00", "vpe01", "vpe02"]),
            min_size=1,
            max_size=40,
        ),
    )
    def test_arbitrary_state_roundtrips(
        self, detector, tmp_path, offsets, hosts
    ):
        """Any reachable monitor state survives the npz round-trip."""
        monitor = fresh_monitor(detector, threshold=0.5)
        messages = [
            make_message(
                timestamp=TRACE_START + offset,
                host=host,
                text=TEXTS[i % len(TEXTS)],
            )
            for i, (offset, host) in enumerate(zip(offsets, hosts))
        ]
        messages.sort(key=lambda m: m.timestamp)
        monitor.run(messages, tick_size=8)
        path = tmp_path / "checkpoint.npz"
        write_checkpoint(path, monitor, cursor=len(messages))
        restored = fresh_monitor(detector, threshold=0.5)
        read_checkpoint(path).restore(restored)
        assert_states_equal(
            monitor.state_dict(), restored.state_dict()
        )
