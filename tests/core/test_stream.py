"""Tests for repro.core.stream (the vectorized streaming engine)."""

import numpy as np
import pytest

from repro.core.base import clamp_template_ids
from repro.core.detector import LSTMAnomalyDetector
from repro.core.stream import StreamScorer
from repro.logs.sequences import N_GAP_BUCKETS, gap_bucket
from repro.logs.templates import TemplateStore
from repro.nn.model import Sequential
from repro.timeutil import TRACE_START
from tests.conftest import make_message

TEXTS = [
    "ALPHA: phase one complete",
    "BRAVO: phase two complete",
    "CHARLIE: phase three complete",
    "DELTA: phase four complete",
]

WINDOW = 4


def cyclic_stream(n, host="vpe00", start=TRACE_START, period=10.0,
                  phase=0):
    return [
        make_message(
            timestamp=start + i * period,
            host=host,
            text=TEXTS[(i + phase) % len(TEXTS)],
        )
        for i in range(n)
    ]


def build_detector():
    train = cyclic_stream(600)
    store = TemplateStore().fit(train)
    return LSTMAnomalyDetector(
        store,
        vocabulary_capacity=16,
        window=WINDOW,
        hidden=(12, 12),
        id_dim=8,
        epochs=2,
        oversample_rounds=0,
        seed=0,
    ).fit(train)


@pytest.fixture(scope="module")
def detector():
    return build_detector()


def test_scoring_runs_through_sequential_predict(detector, monkeypatch):
    """A serve tick and offline scoring both reach
    ``Sequential.predict``, the name the e2e ledger wraps to time
    inference (``nn.predict``)."""
    calls = []
    predict = Sequential.predict

    def counted(model, x, *args, **kwargs):
        calls.append(len(x))
        return predict(model, x, *args, **kwargs)

    monkeypatch.setattr(Sequential, "predict", counted)
    stream = cyclic_stream(40)
    StreamScorer(detector).observe_batch(stream)
    assert calls == [40 - WINDOW]
    detector.score(stream)
    assert calls == [40 - WINDOW, 40 - WINDOW]


def interleaved_streams(n_devices, per_device=60):
    """Per-device cyclic streams merged into one time-sorted stream."""
    streams = {
        f"vpe{d:02d}": cyclic_stream(
            per_device,
            host=f"vpe{d:02d}",
            start=TRACE_START + 0.5 * d,
            phase=d,
        )
        for d in range(n_devices)
    }
    merged = sorted(
        (m for s in streams.values() for m in s),
        key=lambda m: m.timestamp,
    )
    return streams, merged


def context_of(scorer, host):
    """A device's ring contents, oldest first, read from state_dict()."""
    state = scorer.state_dict()
    row = state["hosts"].index(host)
    fill, window = int(state["fill"][row]), state["window"]
    if fill < window:
        return state["contexts"][row, :fill]
    order = (state["pos"][row] + np.arange(window)) % window
    return state["contexts"][row, order]


class TestRingBuffer:
    def test_warmup_then_scores(self, detector):
        scorer = StreamScorer(detector)
        stream = cyclic_stream(WINDOW + 3)
        result = scorer.observe_batch(stream)
        assert np.isnan(result.scores[:WINDOW]).all()
        assert not np.isnan(result.scores[WINDOW:]).any()
        assert result.scores.size == WINDOW + 3

    def test_context_matches_reference(self, detector):
        """After wraparound the ring holds the last `window` tuples."""
        scorer = StreamScorer(detector)
        stream = cyclic_stream(11)  # > 2 * window: full wraparound
        scorer.observe_batch(stream)
        ids = detector.store.match_ids(stream)
        clamp_template_ids(ids, detector.vocabulary_capacity)
        expected = []
        for i in range(len(stream) - WINDOW, len(stream)):
            gap = (
                N_GAP_BUCKETS - 1
                if i == 0
                else gap_bucket(
                    stream[i].timestamp - stream[i - 1].timestamp
                )
            )
            expected.append((ids[i], gap))
        assert np.array_equal(
            context_of(scorer, "vpe00"), np.array(expected)
        )

    def test_partial_context_visible(self, detector):
        scorer = StreamScorer(detector)
        scorer.observe_batch(cyclic_stream(2))
        context = context_of(scorer, "vpe00")
        assert context.shape == (2, 2)
        # first-ever message gets the largest gap bucket
        assert context[0, 1] == N_GAP_BUCKETS - 1

    def test_device_table_grows(self, detector):
        scorer = StreamScorer(detector, initial_devices=1)
        _, merged = interleaved_streams(7, per_device=8)
        scorer.observe_batch(merged)
        assert scorer.n_devices == 7
        assert scorer._contexts.shape[0] >= 7

    def test_empty_batch(self, detector):
        scorer = StreamScorer(detector)
        result = scorer.observe_batch([])
        assert result.scores.shape == (0,)
        assert result.kept.shape == (0,)


class TestBitwiseParity:
    """Micro-batched scores == per-message scores == offline scores.

    All comparisons are bitwise at the float64 default: batching must
    not change a single bit of any score.
    """

    def test_single_device_all_paths(self, detector):
        stream = cyclic_stream(150)
        offline = detector.score(stream).scores

        per_message = StreamScorer(detector)
        one_at_a_time = np.concatenate(
            [per_message.observe_batch([m]).scores for m in stream]
        )
        batched = StreamScorer(detector).observe_batch(stream).scores

        assert np.array_equal(
            one_at_a_time, batched, equal_nan=True
        )
        scored = batched[~np.isnan(batched)]
        assert scored.shape == offline.shape
        assert np.array_equal(scored, offline)

    @pytest.mark.parametrize("tick", [1, 7, 64, 1000])
    def test_multi_device_interleaved(self, detector, tick):
        streams, merged = interleaved_streams(5, per_device=40)
        scorer = StreamScorer(detector)
        scores = np.concatenate(
            [
                scorer.observe_batch(merged[i:i + tick]).scores
                for i in range(0, len(merged), tick)
            ]
        )
        hosts = np.array([m.host for m in merged])
        for host, stream in streams.items():
            offline = detector.score(stream).scores
            device_scores = scores[hosts == host]
            device_scores = device_scores[~np.isnan(device_scores)]
            assert np.array_equal(device_scores, offline), host


class TestOrdering:
    def test_late_tick_leaves_ring_untouched(self, detector):
        scorer = StreamScorer(detector)
        scorer.observe_batch(cyclic_stream(6))
        before = context_of(scorer, "vpe00")
        bad = cyclic_stream(3, start=TRACE_START)  # goes backwards
        result = scorer.observe_batch(bad)
        # every late arrival is dropped and the ring is unchanged
        assert not result.kept.any()
        assert np.array_equal(context_of(scorer, "vpe00"), before)
        assert scorer.n_reordered == 3

    def test_drop_mode_counts_and_preserves_scores(self, detector):
        clean = cyclic_stream(40)
        # Inject stale duplicates (old timestamps) mid-stream.
        stale = [
            make_message(timestamp=TRACE_START, text=TEXTS[0]),
            make_message(timestamp=TRACE_START + 5.0, text=TEXTS[1]),
        ]
        dirty = clean[:20] + stale + clean[20:]
        scorer = StreamScorer(detector)
        result = scorer.observe_batch(dirty)
        assert scorer.n_reordered == 2
        assert not result.kept[20] and not result.kept[21]
        assert np.isnan(result.scores[20:22]).all()
        # kept arrivals score exactly as if the stale ones never came
        reference = (
            StreamScorer(detector).observe_batch(clean).scores
        )
        kept_scores = result.scores[result.kept]
        assert np.array_equal(
            kept_scores, reference, equal_nan=True
        )

    def test_equal_timestamps_accepted(self, detector):
        scorer = StreamScorer(detector)
        messages = [
            make_message(timestamp=TRACE_START, text=TEXTS[0]),
            make_message(timestamp=TRACE_START, text=TEXTS[1]),
        ]
        result = scorer.observe_batch(messages)
        assert result.kept.all()
        assert scorer.n_reordered == 0


class TestUnknownTemplateClamp:
    def test_ids_beyond_capacity_fold_to_unknown(self):
        """A store that grew past the model's capacity must score
        through the unknown id on both the offline and streaming
        paths — identically."""
        detector = build_detector()  # private store: it gets mutated
        store = detector.store
        # Distinct alphabetic keywords: digit-bearing tokens would be
        # collapsed as template variables and mine into one template.
        words = [
            "QU" + chr(ord("A") + a) + chr(ord("A") + b)
            for a in range(6)
            for b in range(5)
        ]
        novel = [
            make_message(
                timestamp=TRACE_START + j,
                text=f"{word}: {word} subsystem failure detected",
            )
            for j, word in enumerate(words)
        ]
        store.extend(novel)
        assert store.vocabulary_size > detector.vocabulary_capacity
        stream = cyclic_stream(20) + [
            make_message(
                timestamp=TRACE_START + 20 * 10.0,
                text=f"{words[-1]}: {words[-1]} subsystem failure "
                "detected",
            )
        ]
        matched = store.match_ids(stream)
        assert matched.max() >= detector.vocabulary_capacity
        offline = detector.score(stream).scores
        streamed = StreamScorer(detector).observe_batch(stream).scores
        assert np.array_equal(
            streamed[~np.isnan(streamed)], offline
        )

    def test_clamp_helper_in_place(self):
        ids = np.array([0, 3, 15, 16, 250])
        out = clamp_template_ids(ids, 16)
        assert out is ids
        assert np.array_equal(ids, [0, 3, 15, 0, 0])


class TestStateDict:
    def test_roundtrip_continuation_is_bitwise(self, detector):
        _, merged = interleaved_streams(3, per_device=40)
        head, tail = merged[:60], merged[60:]

        straight = StreamScorer(detector)
        straight.observe_batch(head)
        expected = straight.observe_batch(tail)

        source = StreamScorer(detector)
        source.observe_batch(head)
        restored = StreamScorer(detector)
        restored.load_state_dict(source.state_dict())
        got = restored.observe_batch(tail)

        assert np.array_equal(
            expected.scores, got.scores, equal_nan=True
        )
        assert np.array_equal(expected.kept, got.kept)

    def test_snapshot_is_immune_to_later_ingest(self, detector):
        scorer = StreamScorer(detector)
        scorer.observe_batch(cyclic_stream(10))
        state = scorer.state_dict()
        fills_before = state["fill"].copy()
        scorer.observe_batch(
            cyclic_stream(10, start=TRACE_START + 1000.0)
        )
        assert np.array_equal(state["fill"], fills_before)

    def test_version_and_window_validated(self, detector):
        scorer = StreamScorer(detector)
        state = scorer.state_dict()
        bad = dict(state, version=99)
        with pytest.raises(ValueError, match="version"):
            StreamScorer(detector).load_state_dict(bad)
        bad = dict(state, window=WINDOW + 1)
        with pytest.raises(ValueError, match="window"):
            StreamScorer(detector).load_state_dict(bad)

    def test_shape_mismatch_rejected(self, detector):
        scorer = StreamScorer(detector)
        scorer.observe_batch(cyclic_stream(6))
        state = scorer.state_dict()
        state["contexts"] = state["contexts"][:, :2, :]
        with pytest.raises(ValueError, match="shape"):
            StreamScorer(detector).load_state_dict(state)
