"""A trace directory's per-vPE syslog streams, on disk.

A trace (``python -m repro simulate --out trace/``) holds
``meta.json``, whose ``vpes`` list names the devices, and one
``<vpe>.jsonl`` file per device with one JSON message per line.  Every
consumer reads messages through this module: the offline commands, and
``serve`` in both modes, where each fleet shard reads only its own
vPEs' files.  A file that does not parse, or that holds another
device's lines, raises :class:`TraceError` naming the file and line.
"""

from __future__ import annotations

import json
import pathlib
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.logs.message import SyslogMessage, message_from_dict, message_to_dict


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


def _bad_line(path: pathlib.Path) -> TraceError:
    """The error for the first line of ``path`` that is not a message."""
    with open(path, "rb") as handle:
        for line_no, raw in enumerate(handle, start=1):
            where = f"{path}:{line_no}"
            try:
                record = json.loads(raw.decode())
            except UnicodeDecodeError:
                return TraceError(f"{where}: line is not UTF-8")
            except ValueError as error:
                return TraceError(f"{where}: malformed JSON ({error})")
            try:
                message_from_dict(record)
            except KeyError as error:
                return TraceError(f"{where}: record has no {error.args[0]!r} field")
            except (TypeError, ValueError) as error:
                return TraceError(f"{where}: bad record ({error})")
    return TraceError(f"{path}: unreadable")


def _read_stream(path: pathlib.Path, vpe: str) -> List[SyslogMessage]:
    try:
        with open(path) as handle:
            messages = [message_from_dict(json.loads(line)) for line in handle]
    except (KeyError, TypeError, ValueError):
        # The fast path parses without counting lines; only a failure
        # pays for a second pass that finds and names the line.
        raise _bad_line(path) from None
    for line_no, message in enumerate(messages, start=1):
        if message.host != vpe:
            raise TraceError(
                f"{path}:{line_no}: host {message.host!r} is not this "
                f"file's vPE {vpe!r}"
            )
    return messages


def read_streams(
    trace_dir: Union[str, pathlib.Path],
    owns: Optional[Callable[[str], bool]] = None,
) -> Tuple[dict, Dict[str, List[SyslogMessage]]]:
    """The trace's ``meta.json`` and each listed vPE's message stream.

    With ``owns``, only the vPEs it accepts are read.  Streams keep
    ``meta.json``'s vPE order.
    """
    trace_dir = pathlib.Path(trace_dir)
    meta = _read_meta(trace_dir)
    streams: Dict[str, List[SyslogMessage]] = {}
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
) -> List[SyslogMessage]:
    """The streams merged into one arrival order.

    The sort is stable, so messages with equal timestamps keep the
    streams' (``meta.json``'s vPE) order: the fleet shard that reads a
    subset of the vPEs sees exactly its subsequence of the whole
    trace's feed.
    """
    feed = [message for stream in streams.values() for message in stream]
    feed.sort(key=lambda message: message.timestamp)
    return feed


def read_feed(
    trace_dir: Union[str, pathlib.Path],
    owns: Optional[Callable[[str], bool]] = None,
) -> List[SyslogMessage]:
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
