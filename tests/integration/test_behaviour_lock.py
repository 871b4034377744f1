"""The behaviour lock: ``mine``, ``detect`` and ``serve`` over a fixed
fixture must reproduce the outputs recorded in
``tests/integration/lock/expected/``.

Templates and every non-float field must match exactly.  Scores, peaks
and confidences may differ by 1e-12 relative, the room a BLAS library
with another summation order needs; no recorded score lies within 1e-9
of the threshold, so such a difference cannot flip a decision.  To
re-record after an intended behaviour change, run
``scripts/behaviour_lock.py``.
"""

from __future__ import annotations

import csv
import importlib.util
import math
import pathlib

_ROOT = pathlib.Path(__file__).resolve().parents[2]
_SPEC = importlib.util.spec_from_file_location(
    "behaviour_lock", _ROOT / "scripts" / "behaviour_lock.py"
)
lock = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(lock)

#: Float columns compared to 1e-12 relative, per CSV kind (indices
#: without the shard column that ``--shards`` output leads with).
FLOAT_COLUMNS = {
    "scores": (2,),
    "warnings": (5,),
    "incidents": (6, 9),
}


def rows(path: pathlib.Path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def close(got: str, want: str, rel: float = 1e-12) -> bool:
    a, b = float(got), float(want)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rel * max(abs(a), abs(b))


def compare_csv(got: pathlib.Path, want: pathlib.Path) -> None:
    kind = want.name.split(".")[0]
    shift = 1 if ".shard" in want.name else 0
    floats = {column + shift for column in FLOAT_COLUMNS[kind]}
    got_rows, want_rows = rows(got), rows(want)
    assert len(got_rows) == len(want_rows), want.name
    for number, (g, w) in enumerate(zip(got_rows, want_rows), 1):
        assert len(g) == len(w), f"{want.name}:{number}"
        for column, (a, b) in enumerate(zip(g, w)):
            ok = close(a, b) if column in floats else a == b
            assert ok, f"{want.name}:{number} column {column}: {a} != {b}"


def test_outputs_match_the_recorded_lock(tmp_path):
    out = tmp_path / "out"
    lock.run(out, tmp_path / "work")
    expected = lock.EXPECTED_DIR
    names = sorted(
        str(path.relative_to(expected))
        for path in expected.rglob("*") if path.is_file()
    )
    produced = sorted(
        str(path.relative_to(out)) for path in out.rglob("*") if path.is_file()
    )
    assert produced == names
    assert (out / "templates.json").read_bytes() == (
        expected / "templates.json"
    ).read_bytes()

    # detect prints four decimals: a last-bit score difference may
    # move the last digit, nothing else may change.
    got, want = rows(out / "anomalies.csv"), rows(expected / "anomalies.csv")
    assert [row[:2] for row in got] == [row[:2] for row in want]
    for g, w in zip(got[1:], want[1:]):
        assert abs(float(g[2]) - float(w[2])) <= 1e-4

    for name in names:
        if name.startswith("serve-"):
            compare_csv(out / name, expected / name)

    threshold = float(lock.THRESHOLD)
    scores = [
        float(row[2]) for row in rows(expected / "serve-1" / "scores.csv")
    ]
    assert sum(score > threshold for score in scores) > 100
    assert min(
        abs(score - threshold) for score in scores if not math.isnan(score)
    ) > 1e-9
