"""Tests for repro.logs.trace: the columnar reader against the
line-by-line parse and sort it replaced.

The reference below is that reader: ``json.loads`` and
``message_from_dict`` per line, a second pass naming the first bad
line, then one stable sort of all streams by timestamp.  The columnar
reader must refuse exactly what it refuses, naming the same line, and
otherwise return the same columns in the same order.  The one intended
difference is a timestamp that is not finite: the reference's own
message type now refuses it too.
"""

from __future__ import annotations

import json
import pathlib
import tempfile
from typing import List

from hypothesis import given, settings, strategies as st

from repro.logs.message import (
    Facility,
    MessageBatch,
    Severity,
    SyslogMessage,
    message_from_dict,
)
from repro.logs.trace import TraceError, read_feed, write_streams

# -- the reference ----------------------------------------------------------


def _bad_line_reference(path: pathlib.Path) -> TraceError:
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


def _read_stream_reference(path: pathlib.Path, vpe: str) -> List[SyslogMessage]:
    try:
        with open(path) as handle:
            messages = [message_from_dict(json.loads(line)) for line in handle]
    except (KeyError, TypeError, ValueError):
        raise _bad_line_reference(path) from None
    for line_no, message in enumerate(messages, start=1):
        if message.host != vpe:
            raise TraceError(
                f"{path}:{line_no}: host {message.host!r} is not this "
                f"file's vPE {vpe!r}"
            )
    return messages


def read_feed_reference(trace_dir: pathlib.Path, owns=None) -> List[SyslogMessage]:
    meta = json.loads((trace_dir / "meta.json").read_text())
    feed = [
        message
        for vpe in meta["vpes"]
        if owns is None or owns(vpe)
        for message in _read_stream_reference(trace_dir / f"{vpe}.jsonl", vpe)
    ]
    feed.sort(key=lambda message: message.timestamp)
    return feed


# -- helpers -----------------------------------------------------------------


def columns(messages) -> tuple:
    """Every field of every message, column by column, in feed order."""
    batch = MessageBatch.of(messages)
    return (
        batch.times.tolist(),
        batch.severities.tolist(),
        batch.facilities.tolist(),
        [batch.hosts[i] for i in batch.host_ids],
        list(batch.processes),
        list(batch.texts),
    )


def outcome(read, trace_dir: pathlib.Path) -> tuple:
    """``("ok", columns)`` or ``("error", message)`` of one reader."""
    try:
        return "ok", columns(read(trace_dir))
    except TraceError as error:
        return "error", str(error)


def message(host: str, time: float, text: str, **fields) -> SyslogMessage:
    return SyslogMessage(
        timestamp=time, host=host, process=fields.get("process", "rpd"),
        text=text, severity=fields.get("severity", Severity.INFO),
        facility=fields.get("facility", Facility.DAEMON),
    )


#: Three vPEs, listed out of name order, with equal timestamps across
#: files and within one file.
STREAMS = {
    "vpe02": [
        message("vpe02", 5.0, "c1"),
        message("vpe02", 5.0, "c2 Température ✓", process="chassisd"),
        message("vpe02", 7.0, "c3", severity=Severity.ERROR),
    ],
    "vpe00": [
        message("vpe00", 5.0, "a1", facility=Facility.LOCAL7),
        message("vpe00", 6.0, 'a2 {"nested": [1, 2]}'),
    ],
    "vpe01": [
        message("vpe01", 4.0, "b1"),
        message("vpe01", 5.0, "b2", process="mib2d"),
        message("vpe01", 5.0, "b3"),
        message("vpe01", 8.5, ""),
    ],
}


def write_trace(trace_dir: pathlib.Path) -> None:
    write_streams(trace_dir, {"vpes": list(STREAMS)}, STREAMS)


class TestOrder:
    def test_ties_keep_file_order_then_meta_order(self, tmp_path):
        write_trace(tmp_path)
        feed = read_feed(tmp_path)
        assert columns(feed) == columns(read_feed_reference(tmp_path))
        texts = [text.split()[0] if text else "" for text in feed.texts]
        assert texts == ["b1", "c1", "c2", "a1", "b2", "b3", "a2", "c3", ""]

    def test_owned_subset_is_the_subsequence(self, tmp_path):
        write_trace(tmp_path)

        def owns(vpe):
            return vpe != "vpe00"

        part = read_feed(tmp_path, owns)
        assert columns(part) == columns(read_feed_reference(tmp_path, owns))
        assert part.hosts == ("vpe01", "vpe02")


# -- one mutated line ---------------------------------------------------------

#: Lines that are valid JSON but not a message object.
_NON_OBJECTS = ["[1, 2]", '"text"', "42", "null", "[{}]"]


@st.composite
def mutations(draw):
    vpe = draw(st.sampled_from(sorted(STREAMS)))
    line = draw(st.integers(0, len(STREAMS[vpe]) - 1))
    kind = draw(st.sampled_from([
        "torn-last", "blank", "two-values", "non-object", "missing-field",
        "wrong-host", "padded", "extra-field",
    ]))
    detail = draw(st.integers(0, 1000))
    return vpe, line, kind, detail


def mutate(trace_dir: pathlib.Path, vpe: str, line: int, kind: str, detail: int) -> None:
    path = trace_dir / f"{vpe}.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    record = json.loads(lines[line])
    if kind == "torn-last":
        last = lines[-1]
        lines[-1] = last[: detail % len(last)]
    elif kind == "blank":
        blank = ["\n", "  \n"][detail % 2]
        if detail % 3:
            lines[line] = blank
        else:
            lines.insert(line + 1, blank)  # after the last: a trailing blank line
    elif kind == "two-values":
        joiner = ["", " ", ",", ", ", "\t"][detail % 5]
        lines[line] = lines[line].rstrip("\n") + joiner + lines[line]
    elif kind == "non-object":
        text = _NON_OBJECTS[detail % len(_NON_OBJECTS)]
        if detail % 2:
            text = f"[{json.dumps(record)}]"  # a list holding the record
        lines[line] = text + "\n"
    elif kind == "missing-field":
        del record[sorted(record)[detail % len(record)]]
        lines[line] = json.dumps(record) + "\n"
    elif kind == "wrong-host":
        record["host"] = [other for other in sorted(STREAMS) if other != vpe][detail % 2]
        lines[line] = json.dumps(record) + "\n"
    elif kind == "padded":
        lines[line] = " " * (detail % 3) + lines[line].rstrip("\n") + "  \n"
    else:  # extra-field: tolerated by the line format
        record["tag"] = [detail]
        lines[line] = json.dumps(record) + "\n"
    path.write_text("".join(lines))


class TestMutatedLine:
    @settings(max_examples=200, deadline=None)
    @given(mutations())
    def test_refuses_exactly_what_the_line_parse_refuses(self, mutation):
        with tempfile.TemporaryDirectory() as tmp:
            trace_dir = pathlib.Path(tmp)
            write_trace(trace_dir)
            mutate(trace_dir, *mutation)
            assert outcome(read_feed, trace_dir) == outcome(
                read_feed_reference, trace_dir
            )


class TestJoinedParse:
    """Lines the array-joined parse alone would read as whole records,
    though a line holds a record and a half: the reader must refuse
    them as the line-by-line parse does."""

    A = '{"ts": 1.0, "host": "vpe00", "proc": "rpd", "sev": 6, "fac": 3, "text": "a"}'
    REST = '"proc": "rpd", "sev": 6, "fac": 3, "text": "b"}'

    def test_line_ending_inside_a_record(self, tmp_path):
        lines = [self.A + ', {"ts": 2.0, "host": "vpe00"', self.REST]
        self.check(tmp_path, lines)

    def test_line_ending_inside_a_nested_value(self, tmp_path):
        lines = [
            self.A + ', {"ts": 2.0, "host": "vpe00", "x": [{}', "{}], " + self.REST,
        ]
        self.check(tmp_path, lines)

    @staticmethod
    def check(trace_dir: pathlib.Path, lines: List[str]) -> None:
        (trace_dir / "meta.json").write_text(json.dumps({"vpes": ["vpe00"]}))
        (trace_dir / "vpe00.jsonl").write_text("\n".join(lines) + "\n")
        expected = outcome(read_feed_reference, trace_dir)
        assert expected[0] == "error"
        assert expected[1].startswith(f"{trace_dir / 'vpe00.jsonl'}:1: malformed JSON")
        assert outcome(read_feed, trace_dir) == expected


class TestNonFiniteTimestamp:
    def test_nan_and_infinity_name_the_line(self, tmp_path):
        for value in ("NaN", "Infinity", "-Infinity"):
            write_trace(tmp_path)
            path = tmp_path / "vpe01.jsonl"
            lines = path.read_text().splitlines(keepends=True)
            lines[2] = lines[2].replace('"ts": 5.0', f'"ts": {value}')
            path.write_text("".join(lines))
            error = outcome(read_feed, tmp_path)
            assert error[0] == "error"
            assert error[1].startswith(f"{path}:3: bad record (timestamp is not finite")

    def test_integer_beyond_float64_names_the_line(self, tmp_path):
        write_trace(tmp_path)
        path = tmp_path / "vpe01.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = lines[1].replace('"ts": 5.0', '"ts": 1' + "0" * 400)
        path.write_text("".join(lines))
        assert outcome(read_feed, tmp_path) == (
            "error", f"{path}:2: bad record (int too large to convert to float)"
        )
