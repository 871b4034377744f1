"""Atomic snapshot/restore of the online monitoring state.

A checkpoint captures everything the service must not lose across a
restart: the :class:`~repro.core.stream.StreamScorer` ring buffers,
the :class:`~repro.core.online.OnlineMonitor` device/warning-cluster
state, and the *tick cursor* (the last tick fully scored when the
snapshot was taken).  Restoring a checkpoint and replaying the WAL
ticks after its cursor reproduces the uninterrupted run bitwise.

On disk a checkpoint is one ``.npz`` file: the scorer's numpy arrays
are stored natively (exact int64/float64 round-trip, NaNs included)
and the JSON-safe remainder rides along as one UTF-8 JSON document
(a ``uint8`` array).  Writes go to a same-directory temp file and
``os.replace`` onto the final name, so a crash mid-write never
clobbers the previous checkpoint.  A file this build cannot load is
refused with :class:`CheckpointError`.
"""

from __future__ import annotations

import json
import os
import pathlib
import zipfile
from dataclasses import dataclass, field
from typing import Dict, Optional, Union

import numpy as np

from repro import telemetry
from repro.core.online import OnlineMonitor

#: Version of the on-disk checkpoint layout.
CHECKPOINT_VERSION = 2

#: The scorer-state keys stored as native numpy arrays.
_ARRAY_KEYS = ("contexts", "pos", "fill", "last_time")


class CheckpointError(ValueError):
    """A checkpoint this build cannot load: unreadable, missing an
    entry, or in a layout version (its own or a sub-state's) that this
    build does not read."""


@dataclass(frozen=True)
class Checkpoint:
    """A loaded checkpoint: tick cursor, monitor state, extras.

    Attributes:
        cursor: journal sequence of the last record applied before
            the snapshot.
        monitor_state: the full :meth:`OnlineMonitor.state_dict`.
        extra: caller-supplied JSON-safe scalars (the service stores
            its lifetime tick count and active release id here).
    """

    cursor: int
    monitor_state: Dict[str, object]
    extra: Dict[str, object] = field(default_factory=dict)

    def restore(self, monitor: OnlineMonitor) -> None:
        """Load this snapshot into a compatibly-configured monitor."""
        monitor.load_state_dict(self.monitor_state)


def write_checkpoint(
    path: Union[str, pathlib.Path],
    monitor: OnlineMonitor,
    cursor: int,
    extra: Optional[Dict[str, object]] = None,
) -> int:
    """Atomically snapshot ``monitor`` at tick ``cursor``.

    Returns the checkpoint's size in bytes.  The write is atomic: the
    previous checkpoint at ``path`` survives any crash before the
    final rename.
    """
    path = pathlib.Path(path)
    state = monitor.state_dict()
    scorer_state = dict(state["scorer"])
    arrays = {
        f"scorer.{key}": np.ascontiguousarray(scorer_state.pop(key))
        for key in _ARRAY_KEYS
    }
    meta = {
        "checkpoint_version": CHECKPOINT_VERSION,
        "cursor": int(cursor),
        "extra": dict(extra or {}),
        "monitor": {
            key: value
            for key, value in state.items()
            if key != "scorer"
        },
        "scorer": scorer_state,
    }
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        np.savez(
            handle,
            meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
            **arrays,
        )
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    size = path.stat().st_size
    registry = telemetry.default_registry()
    registry.counter("runtime.checkpoint.writes").inc()
    registry.gauge("runtime.checkpoint.bytes").set(size)
    registry.gauge("runtime.checkpoint.cursor").set(cursor)
    return size


def read_checkpoint(path: Union[str, pathlib.Path]) -> Checkpoint:
    """Load a checkpoint written by :func:`write_checkpoint`.

    Raises :class:`CheckpointError` when the file is unreadable, lacks
    an entry or has another layout version.
    """
    path = pathlib.Path(path)
    try:
        with np.load(path) as archive:
            raw = archive["meta"]
            arrays = {
                key: archive[f"scorer.{key}"].copy()
                for key in _ARRAY_KEYS
            }
        # Layout 1 stored the JSON as a numpy unicode scalar.
        meta = json.loads(
            raw.tobytes() if raw.dtype == np.uint8 else str(raw)
        )
        version = meta.get("checkpoint_version")
        if version == CHECKPOINT_VERSION:
            return Checkpoint(
                cursor=int(meta["cursor"]),
                monitor_state=dict(
                    meta["monitor"], scorer=dict(meta["scorer"], **arrays)
                ),
                extra=dict(meta["extra"]),
            )
    except KeyError as error:
        raise CheckpointError(
            f"{path}: checkpoint has no entry {error}"
        ) from None
    except (
        AttributeError, EOFError, OSError, TypeError, ValueError,
        zipfile.BadZipFile,
    ) as error:
        raise CheckpointError(
            f"{path}: unreadable checkpoint ({error})"
        ) from None
    raise CheckpointError(
        f"{path}: checkpoint version {version!r} is not supported "
        f"(expected {CHECKPOINT_VERSION})"
    )


__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointError",
    "read_checkpoint",
    "write_checkpoint",
]
