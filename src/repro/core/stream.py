"""Vectorized streaming inference engine.

:class:`StreamScorer` is the fleet-scale counterpart of scoring one
message at a time: it keeps every device's sliding context in one
preallocated numpy ring buffer, ingests arrivals in *ticks* (batches),
and scores all devices' ready windows in a single fused forward pass
through the model's inference-only path — so the matmul cost of a
forward is amortized over the whole fleet instead of paid per message.

Within a tick, each device's history plus its accepted arrivals are
laid out as one contiguous *virtual sequence* in a per-tick buffer,
so every ready window of the whole tick is a contiguous slice of
that buffer.  All windows are gathered with one fancy index and
scored in a single batched forward through the model's
inference-only path, while per-device sequential semantics (each
arrival scored against the context *before* it) are preserved
exactly — the window for a device's ``r``-th arrival contains the
device's previous ``window`` tuples whether they came from the ring
or from earlier arrivals in the same tick.  At float64 the scores
are bitwise identical to feeding the same stream one message at a
time: :meth:`Sequential.infer` results are row-wise independent of
batch composition (single-row batches are padded), which makes the
batch shape — per message, per round, or per tick — irrelevant to
the bits.

An opt-in ``quantized=True`` scorer swaps the fused forward for the
int8 engine (:class:`repro.nn.quant.QuantizedModel`), rebuilt
automatically whenever the detector's weights version moves (hot
swap, checkpoint restore).  Quantized scores are approximate — the
contract is anomaly-decision agreement, not bitwise parity.

An arrival older than its device's newest accepted timestamp is
dropped and counted in :attr:`n_reordered`, so one misordered message
cannot kill a long-running monitor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

#: Version of the dict layout produced by
#: :meth:`StreamScorer.state_dict`; bumped on incompatible changes so
#: stale checkpoints fail loudly instead of half-loading.
SCORER_STATE_VERSION = 2

import numpy as np

from repro import telemetry
from repro.core.base import clamp_template_ids
from repro.core.detector import LSTMAnomalyDetector
from repro.logs.message import MessageBatch, SyslogMessage
from repro.logs.sequences import GAP_BUCKET_EDGES
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.quant import QuantizedModel


@dataclass(frozen=True)
class StreamBatch:
    """Per-message results of one ingested tick.

    Attributes:
        scores: anomaly score per input message (NaN while a device's
            context is still warming up, and for dropped messages).
        kept: False where an out-of-order arrival was dropped.
        ids: template id per input message, clamped to the detector's
            vocabulary capacity (dropped messages included).
    """

    scores: np.ndarray
    kept: np.ndarray
    ids: np.ndarray


class StreamScorer:
    """Micro-batched per-arrival scoring across a fleet of devices.

    Args:
        detector: a fitted :class:`LSTMAnomalyDetector`.
        initial_devices: ring-buffer rows to preallocate; the table
            doubles automatically as new hosts appear.
        quantized: when True, score through the int8 engine
            (:class:`repro.nn.quant.QuantizedModel`) instead of the
            bitwise float path; the engine is rebuilt whenever the
            detector model's ``weights_version`` changes.
    """

    def __init__(
        self,
        detector: LSTMAnomalyDetector,
        initial_devices: int = 16,
        quantized: bool = False,
    ) -> None:
        if initial_devices < 1:
            raise ValueError("initial_devices must be >= 1")
        self.detector = detector
        self.window = int(detector.windower.window)
        self.quantized = bool(quantized)
        self._qmodel: "QuantizedModel | None" = None
        self._qmodel_version = -1
        self.n_reordered = 0
        self._index: Dict[str, int] = {}
        self._hosts: List[str] = []
        # Ring buffers: row d holds device d's last `window` context
        # tuples; _pos[d] is the oldest slot (= the next to overwrite),
        # so the time-ordered window is contexts[d, (pos + k) % window].
        self._contexts = np.zeros(
            (initial_devices, self.window, 2), dtype=np.int64
        )
        self._pos = np.zeros(initial_devices, dtype=np.int64)
        self._fill = np.zeros(initial_devices, dtype=np.int64)
        self._last_time = np.full(initial_devices, np.nan)

    # -- device table ---------------------------------------------------

    @property
    def n_devices(self) -> int:
        """Number of devices holding ring-buffer state."""
        return len(self._hosts)

    def _grow(self, need: int) -> None:
        old = self._contexts.shape[0]
        new = max(need, 2 * old)
        contexts = np.zeros((new, self.window, 2), dtype=np.int64)
        contexts[:old] = self._contexts
        self._contexts = contexts
        self._pos = np.concatenate(
            [self._pos, np.zeros(new - old, dtype=np.int64)]
        )
        self._fill = np.concatenate(
            [self._fill, np.zeros(new - old, dtype=np.int64)]
        )
        self._last_time = np.concatenate(
            [self._last_time, np.full(new - old, np.nan)]
        )

    def _rows(
        self, batch: MessageBatch
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Group a tick's messages into device runs; grow the table.

        Returns ``(run_of, run_rows)``: per-message run index and, per
        run, the ring-buffer row.  Runs follow host-name order, since
        host ids do.  The Python work left is one dict probe per
        *distinct* host in the tick, not per message.
        """
        unique, run_of = np.unique(batch.host_ids, return_inverse=True)
        run_rows = np.empty(unique.size, dtype=np.int64)
        index = self._index
        for u, host_id in enumerate(unique.tolist()):
            host = batch.hosts[host_id]
            row = index.get(host)
            if row is None:
                row = len(self._hosts)
                if row >= self._contexts.shape[0]:
                    # Amortized doubling: allocates only when the
                    # device table is full, not per iteration.
                    self._grow(row + 1)  # repro: noqa[RPR201]
                index[host] = row
                self._hosts.append(host)
            run_rows[u] = row
        return run_of, run_rows

    def _quantized_model(self) -> "QuantizedModel":
        """The int8 engine for the current weights (cached per version)."""
        model = self.detector.model
        version = model.weights_version
        if self._qmodel is None or self._qmodel_version != version:
            self._qmodel = QuantizedModel.from_model(model)
            self._qmodel_version = version
        return self._qmodel

    # -- checkpointable state -------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Every mutable field needed to reconstruct the scorer.

        The returned arrays are copies trimmed to the live device
        count, so a snapshot is immune to later ingests and does not
        drag preallocated-but-unused ring rows into checkpoints.
        Restore with :meth:`load_state_dict`; round-tripping is exact
        (scores after restore are bitwise identical to never having
        snapshotted).
        """
        n = len(self._hosts)
        return {
            "version": SCORER_STATE_VERSION,
            "window": self.window,
            "hosts": list(self._hosts),
            "contexts": self._contexts[:n].copy(),
            "pos": self._pos[:n].copy(),
            "fill": self._fill[:n].copy(),
            "last_time": self._last_time[:n].copy(),
            "n_reordered": int(self.n_reordered),
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore a snapshot taken by :meth:`state_dict`.

        The scorer must have been built against a detector with the
        same context window; the device table, ring buffers, ordering
        cursors and reorder count are replaced by the snapshot, while
        constructor configuration (quantization) stays.
        """
        version = state.get("version")
        if version != SCORER_STATE_VERSION:
            raise ValueError(
                f"scorer state version {version!r} is not supported "
                f"(expected {SCORER_STATE_VERSION})"
            )
        window = int(state["window"])
        if window != self.window:
            raise ValueError(
                f"snapshot window {window} does not match the "
                f"detector's window {self.window}"
            )
        hosts = list(state["hosts"])
        n = len(hosts)
        contexts = np.asarray(state["contexts"], dtype=np.int64)
        if contexts.shape != (n, window, 2):
            raise ValueError(
                f"snapshot contexts shape {contexts.shape} does not "
                f"match {(n, window, 2)}"
            )
        self._hosts = hosts
        self._index = {host: row for row, host in enumerate(hosts)}
        capacity = max(n, 1)
        self._contexts = np.zeros(
            (capacity, window, 2), dtype=np.int64
        )
        self._contexts[:n] = contexts
        self._pos = np.zeros(capacity, dtype=np.int64)
        self._pos[:n] = np.asarray(state["pos"], dtype=np.int64)
        self._fill = np.zeros(capacity, dtype=np.int64)
        self._fill[:n] = np.asarray(state["fill"], dtype=np.int64)
        self._last_time = np.full(capacity, np.nan)
        self._last_time[:n] = np.asarray(
            state["last_time"], dtype=np.float64
        )
        self.n_reordered = int(state["n_reordered"])

    # -- ingest ---------------------------------------------------------

    def observe_batch(
        self, messages: Sequence[SyslogMessage]
    ) -> StreamBatch:
        """Ingest one tick of arrivals; score every ready window.

        ``messages`` is read as a :class:`MessageBatch` (converted once
        if it is not one).  Messages may interleave devices
        arbitrarily; per-device order within the tick is the sequence
        order.  An out-of-order arrival is dropped (``kept`` False,
        score NaN) and counted in :attr:`n_reordered`.
        """
        batch = MessageBatch.of(messages)
        n = len(batch)
        scores = np.full(n, np.nan)
        kept = np.ones(n, dtype=bool)
        if n == 0:
            return StreamBatch(scores, kept, np.zeros(0, dtype=np.int64))
        detector = self.detector
        ids = detector.store.match_ids(batch)
        n_clamped = int(
            np.count_nonzero(ids >= detector.vocabulary_capacity)
        )
        clamp_template_ids(ids, detector.vocabulary_capacity)
        times = batch.times
        run_of, run_rows = self._rows(batch)
        n_runs = run_rows.size

        # Group arrivals by device run (stable: per-device order kept).
        order = np.argsort(run_of, kind="stable")
        g_sorted = run_of[order]
        sorted_times = times[order]
        counts_all = np.bincount(run_of, minlength=n_runs)
        starts = np.zeros(n_runs, dtype=np.int64)
        np.cumsum(counts_all[:-1], out=starts[1:])
        last_run = self._last_time[run_rows]

        # Ordering fast path: when every arrival is >= its immediate
        # predecessor (and the device's stored newest timestamp), the
        # whole tick is in order — one vectorized compare, no per-run
        # loop.  NaN "last" (fresh device) must not poison the compare,
        # so it is floored to -inf for ordering only.
        prev = np.empty(n, dtype=np.float64)
        prev[1:] = sorted_times[:-1]
        prev[starts] = last_run
        in_order = sorted_times >= np.where(
            np.isnan(prev), -np.inf, prev
        )
        if in_order.all():
            keep_sorted = in_order
        else:
            # Fallback for the violating runs only: an arrival is in
            # order iff it is >= every accepted timestamp before it,
            # and the running max over *all* prior arrivals equals the
            # one over accepted arrivals only, because a dropped
            # arrival never raised the max.
            keep_sorted = in_order.copy()
            bad_runs = np.unique(g_sorted[~in_order])
            for g in bad_runs:
                start = int(starts[g])
                stop = start + int(counts_all[g])
                t_run = sorted_times[start:stop]
                last = last_run[g]
                lower = -np.inf if np.isnan(last) else last
                floor = np.maximum.accumulate(
                    # Amortized: one allocation per *violating* run,
                    # not per message; the in-order fast path above
                    # never reaches this loop.
                    np.concatenate(([lower], t_run[:-1]))  # repro: noqa[RPR201]
                )
                keep_sorted[start:stop] = t_run >= floor

        kept[order] = keep_sorted
        n_dropped = int(n - np.count_nonzero(keep_sorted))
        self.n_reordered += n_dropped

        kept_idx = np.flatnonzero(keep_sorted)
        if not kept_idx.size:
            self._publish_tick(n, n_dropped, 0, n_clamped, scores)
            return StreamBatch(scores, kept, ids)

        # Per kept arrival (still grouped by run, arrival order within
        # each run): its run, original position, rank within the run,
        # and gap bucket to the previous accepted arrival.  The
        # device's first ever message follows "nothing" (stored last
        # is NaN) and searchsorted sends the NaN delta to the largest
        # bucket.
        g_of = g_sorted[kept_idx]
        t_kept = sorted_times[kept_idx]
        orig = order[kept_idx]
        m = kept_idx.size
        counts = np.bincount(g_of, minlength=n_runs)
        kstarts = np.zeros(n_runs, dtype=np.int64)
        np.cumsum(counts[:-1], out=kstarts[1:])
        r_of = np.arange(m) - kstarts[g_of]
        prev_kept = np.empty(m, dtype=np.float64)
        prev_kept[1:] = t_kept[:-1]
        first_of_run = r_of == 0
        prev_kept[first_of_run] = last_run[g_of[first_of_run]]
        gaps = np.searchsorted(
            GAP_BUCKET_EDGES, t_kept - prev_kept, side="right"
        )

        # Virtual-sequence buffer: per active run, `window` history
        # columns then that run's kept arrivals, contiguously.  A
        # still-warming device (fill < window, where the ring invariant
        # guarantees pos == fill and data in slots [0, fill)) places
        # history at [0, fill) — columns [fill, window) hold garbage
        # that no window ever reads, because arrival r only becomes
        # ready once fill + r >= window.
        window = self.window
        active = np.flatnonzero(counts)
        n_act = active.size
        slot_of_run = np.zeros(n_runs, dtype=np.int64)
        slot_of_run[active] = np.arange(n_act)
        a_of = slot_of_run[g_of]
        act_rows = run_rows[active]
        counts_act = counts[active]
        fills = self._fill[act_rows]
        poss = self._pos[act_rows]
        max_count = int(counts_act.max())
        arange_w = np.arange(window)
        buf = np.empty((n_act, window + max_count, 2), dtype=np.int64)
        history_base = np.where(fills == window, poss, 0)
        gather = (history_base[:, None] + arange_w[None, :]) % window
        buf[:, :window] = self._contexts[act_rows[:, None], gather]
        tids_kept = ids[orig]
        vpos = fills[a_of] + r_of
        buf[a_of, vpos, 0] = tids_kept
        buf[a_of, vpos, 1] = gaps

        # Score every ready window of the tick in one batched forward:
        # arrival r of a run is ready when window prior tuples exist
        # (history fill plus earlier same-tick arrivals).
        ready = vpos >= window
        n_ready = int(np.count_nonzero(ready))
        if n_ready:
            ready_runs = a_of[ready]
            wstart = vpos[ready] - window
            windows = buf[
                ready_runs[:, None], wstart[:, None] + arange_w[None, :]
            ]
            if self.quantized:
                logits = self._quantized_model().infer(windows)
            else:
                # predict() == chunked infer(): the same batching the
                # offline scorer uses, and infer results are row-wise
                # independent of batch composition — bitwise parity.
                logits = detector.model.predict(windows)
            likelihoods = SoftmaxCrossEntropy.log_likelihoods(
                logits, tids_kept[ready]
            )
            scores[orig[ready]] = -likelihoods

        # Write the rings back: the final min(window, fill + count)
        # tuples of each virtual sequence, at ring slots starting from
        # the new oldest position.  Rewriting unchanged history slots
        # is idempotent, so one masked scatter covers full, warming
        # and newly-filled devices alike.
        ends = fills + counts_act
        new_fill = np.minimum(ends, window)
        full_after = ends >= window
        new_pos = (poss + counts_act) % window
        base = np.where(full_after, new_pos, 0)
        col_mask = arange_w[None, :] < new_fill[:, None]
        slots = (base[:, None] + arange_w[None, :]) % window
        srccol = (ends - new_fill)[:, None] + arange_w[None, :]
        vals = buf[np.arange(n_act)[:, None], srccol]
        row_idx = np.broadcast_to(
            act_rows[:, None], col_mask.shape
        )[col_mask]
        self._contexts[row_idx, slots[col_mask]] = vals[col_mask]
        self._pos[act_rows] = new_pos
        self._fill[act_rows] = new_fill
        self._last_time[act_rows] = t_kept[
            kstarts[active] + counts_act - 1
        ]
        self._publish_tick(
            n, n_dropped, n_ready, n_clamped, scores
        )
        return StreamBatch(scores, kept, ids)

    def _publish_tick(
        self,
        n_ingested: int,
        n_dropped: int,
        scored: int,
        n_clamped: int,
        scores: np.ndarray,
    ) -> None:
        """Publish one tick's accounting to the telemetry registry.

        One call per tick, a handful of dict lookups plus a vectorized
        histogram pass over the tick's scores — the streaming perf
        suite pins the total at under 3% of scoring cost.
        """
        registry = telemetry.default_registry()
        registry.counter("stream.ticks").inc()
        registry.counter("stream.messages_ingested").inc(n_ingested)
        # Created even when zero so exported snapshots always carry the
        # full schema (the CI gate asserts on these by name).
        registry.counter("stream.messages_scored").inc(scored)
        registry.counter("stream.n_reordered").inc(n_dropped)
        registry.counter("stream.unknown_clamped").inc(n_clamped)
        registry.histogram(
            "stream.tick_messages", edges=telemetry.SIZE_BUCKETS
        ).observe(n_ingested)
        finite = scores[~np.isnan(scores)]
        if finite.size:
            registry.histogram(
                "stream.scores", edges=telemetry.SCORE_BUCKETS
            ).observe_array(finite)
