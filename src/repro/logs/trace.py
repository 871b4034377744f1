"""A trace directory's per-vPE syslog streams, on disk.

A trace (``python -m repro simulate --out trace/``) holds
``meta.json``, whose ``vpes`` list names the devices, and one
``<vpe>.jsonl`` file per device with one JSON message per line.  Every
consumer reads messages through this module: the offline commands, and
``serve`` in both modes, where each fleet shard reads only its own
vPEs' files.  Each file is parsed once into a
:class:`~repro.logs.message.MessageBatch` of columns.  A file that does
not parse, or that holds another device's lines or a timestamp that is
not finite and >= 0, raises :class:`TraceError` naming the file and
line.
"""

from __future__ import annotations

import json
import operator
import pathlib
import sys
from itertools import chain
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.logs.message import (
    Facility,
    MessageBatch,
    Severity,
    SyslogMessage,
    message_from_dict,
    message_to_dict,
)

#: A trace line's six fields, in :class:`MessageBatch` column order.
_FIELDS = operator.itemgetter("ts", "host", "proc", "sev", "fac", "text")
_SEVERITIES = frozenset(int(severity) for severity in Severity)
_FACILITIES = frozenset(int(facility) for facility in Facility)


class TraceError(ValueError):
    """A trace directory that cannot be read as written by ``simulate``."""


def _read_meta(trace_dir: pathlib.Path) -> dict:
    path = trace_dir / "meta.json"
    try:
        meta = json.loads(path.read_text())
        if not isinstance(meta["vpes"], list):
            raise TypeError("'vpes' is not a list")
    except OSError as error:
        raise TraceError(f"{path}: cannot read ({error.strerror})") from None
    except (KeyError, TypeError, ValueError) as error:
        raise TraceError(f"{path}: malformed trace metadata ({error!r})") from None
    return meta


def _read_lines(path: pathlib.Path, vpe: str) -> List[SyslogMessage]:
    """The file parsed line by line, naming the first line that is not
    a message, or else the first of another vPE."""
    messages = []
    with open(path, "rb") as handle:
        for line_no, raw in enumerate(handle, start=1):
            where = f"{path}:{line_no}"
            try:
                record = json.loads(raw.decode())
            except UnicodeDecodeError:
                raise TraceError(f"{where}: line is not UTF-8") from None
            except ValueError as error:
                raise TraceError(f"{where}: malformed JSON ({error})") from None
            try:
                messages.append(message_from_dict(record))
                float(record["ts"])  # an integer too large for a float64
            except KeyError as error:
                raise TraceError(
                    f"{where}: record has no {error.args[0]!r} field"
                ) from None
            except (TypeError, ValueError, OverflowError) as error:
                raise TraceError(f"{where}: bad record ({error})") from None
    for line_no, message in enumerate(messages, start=1):
        if message.host != vpe:
            raise TraceError(
                f"{path}:{line_no}: host {message.host!r} is not this "
                f"file's vPE {vpe!r}"
            )
    return messages


def _parse_columns(text: str, vpe: str) -> Optional[MessageBatch]:
    """``text``'s records as columns, parsed by one ``json.loads`` over
    its lines joined into an array, or ``None`` where that parse might
    differ from :func:`_read_lines`'.

    The two agree when every line but the last ends in ``}`` and every
    record is an object holding exactly the six fields, each a scalar.
    The joiner keeps each newline, and no JSON string may hold one, so
    such a ``}`` closes a record and the comma after it separates two
    array elements; with as many records as lines, each line is then
    exactly one record.
    """
    body = text[:-1] if text.endswith("\n") else text
    joined = body.replace("\n", ",\n")
    breaks = len(joined) - len(body)
    if body.count("}\n") != breaks:
        return None
    records = json.loads("[" + joined + "]")
    if len(records) != breaks + 1:  # an empty file too: one line, no record
        return None
    times, hosts, processes, severities, facilities, texts = zip(*map(_FIELDS, records))
    names = set(processes)
    if (
        set(map(len, records)) != {6}
        or set(hosts) != {vpe}
        or not set(map(type, times)) <= {int, float}
        or set(map(type, names)) != {str}
        or "" in names
        or set(map(type, texts)) != {str}
        or not set(severities) <= _SEVERITIES
        or not set(facilities) <= _FACILITIES
    ):
        return None
    times = np.array(times, dtype=np.float64)
    if not (np.isfinite(times) & (times >= 0)).all():
        return None
    return MessageBatch(
        times,
        np.array(severities, dtype=np.uint8),
        np.array(facilities, dtype=np.uint8),
        np.zeros(len(records), dtype=np.int32),
        (vpe,),
        tuple(map(sys.intern, processes)),
        texts,
    )


def _read_stream(path: pathlib.Path, vpe: str) -> MessageBatch:
    """One vPE file as columns.  A file :func:`_parse_columns` cannot
    vouch for is parsed line by line, which accepts exactly what the
    line format allows and otherwise names the first bad line."""
    try:
        with open(path, encoding="utf-8") as handle:
            batch = _parse_columns(handle.read(), vpe)
    except (KeyError, TypeError, ValueError, OverflowError):
        batch = None
    return MessageBatch.of(_read_lines(path, vpe)) if batch is None else batch


def read_streams(
    trace_dir: Union[str, pathlib.Path],
    owns: Optional[Callable[[str], bool]] = None,
) -> Tuple[dict, Dict[str, MessageBatch]]:
    """The trace's ``meta.json`` and each listed vPE's message stream.

    With ``owns``, only the vPEs it accepts are read.  Streams keep
    ``meta.json``'s vPE order.
    """
    trace_dir = pathlib.Path(trace_dir)
    meta = _read_meta(trace_dir)
    streams: Dict[str, MessageBatch] = {}
    for vpe in meta["vpes"]:
        if owns is not None and not owns(vpe):
            continue
        path = trace_dir / f"{vpe}.jsonl"
        if not path.is_file():
            raise TraceError(
                f"{trace_dir / 'meta.json'}: vPE {vpe!r} has no file {path.name}"
            )
        streams[vpe] = _read_stream(path, vpe)
    return meta, streams


def merge_streams(
    streams: Mapping[str, Sequence[SyslogMessage]],
) -> MessageBatch:
    """The streams merged into one arrival order.

    The sort is stable, so messages with equal timestamps keep the
    streams' (``meta.json``'s vPE) order: the fleet shard that reads a
    subset of the vPEs sees exactly its subsequence of the whole
    trace's feed.
    """
    # The empty batch types every concatenation when no stream is read.
    batches = [MessageBatch.of(())]
    batches += [MessageBatch.of(stream) for stream in streams.values()]
    hosts = tuple(sorted(set(chain.from_iterable(b.hosts for b in batches))))
    index = {host: i for i, host in enumerate(hosts)}
    times = np.concatenate([batch.times for batch in batches])
    order = np.argsort(times, kind="stable")

    def merged(columns: Iterable[np.ndarray]) -> np.ndarray:
        return np.concatenate(list(columns))[order]

    def merged_strings(columns: Iterable[Sequence[str]]) -> List[str]:
        flat = np.empty(order.size, dtype=object)
        flat[:] = list(chain.from_iterable(columns))
        return flat[order].tolist()

    return MessageBatch(
        times[order],
        merged(batch.severities for batch in batches),
        merged(batch.facilities for batch in batches),
        merged(
            np.array([index[host] for host in batch.hosts], dtype=np.int32)[
                batch.host_ids
            ]
            for batch in batches
        ),
        hosts,
        merged_strings(batch.processes for batch in batches),
        merged_strings(batch.texts for batch in batches),
    )


def read_feed(
    trace_dir: Union[str, pathlib.Path],
    owns: Optional[Callable[[str], bool]] = None,
) -> MessageBatch:
    """The (owned) vPE streams in one arrival order (see
    :func:`merge_streams`)."""
    return merge_streams(read_streams(trace_dir, owns)[1])


def write_streams(
    trace_dir: pathlib.Path,
    meta: Mapping[str, object],
    streams: Mapping[str, Sequence[SyslogMessage]],
) -> None:
    """Write ``meta.json`` (which must list ``vpes``) and each stream's
    ``<vpe>.jsonl`` file: the layout :func:`read_streams` reads."""
    trace_dir = pathlib.Path(trace_dir)
    trace_dir.mkdir(parents=True, exist_ok=True)
    for vpe, stream in streams.items():
        with open(trace_dir / f"{vpe}.jsonl", "w") as handle:
            for message in stream:
                handle.write(json.dumps(message_to_dict(message)) + "\n")
    (trace_dir / "meta.json").write_text(json.dumps(meta, indent=2))


__all__ = [
    "TraceError",
    "merge_streams",
    "read_feed",
    "read_streams",
    "write_streams",
]
