"""The JSON report format is a stable, versioned contract.

CI uploads these reports as artifacts; downstream tooling parses them,
so the shape asserted here is load-bearing: bump
``JSON_SCHEMA_VERSION`` when it changes.
"""

import json

from repro.devtools.analyzer import Analyzer
from repro.devtools.diagnostics import (
    JSON_SCHEMA_VERSION,
    Diagnostic,
    diagnostics_to_json,
)

BAD_SOURCE = (
    '"""Doc."""\n'
    "import time\n\n\n"
    "def now() -> float:\n"
    '    """Doc."""\n'
    "    return time.time()\n"
)


def _report():
    report = Analyzer().check_source("bad.py", BAD_SOURCE)
    return json.loads(
        diagnostics_to_json(
            report.diagnostics, n_files=1, n_suppressed=report.n_suppressed
        )
    )


class TestSchema:
    def test_top_level_shape(self):
        payload = _report()
        assert set(payload) == {"version", "counts", "diagnostics"}
        assert payload["version"] == JSON_SCHEMA_VERSION

    def test_counts_block(self):
        counts = _report()["counts"]
        assert set(counts) == {
            "files", "diagnostics", "suppressed", "by_code",
        }
        assert counts["files"] == 1
        assert counts["diagnostics"] == 1
        assert counts["suppressed"] == 0
        assert counts["by_code"] == {"RPR104": 1}

    def test_diagnostic_entry_shape(self):
        (entry,) = _report()["diagnostics"]
        assert set(entry) == {"path", "line", "col", "code", "message"}
        assert entry["path"] == "bad.py"
        assert entry["code"] == "RPR104"
        assert isinstance(entry["line"], int)
        assert isinstance(entry["col"], int)

    def test_clean_report(self):
        payload = json.loads(
            diagnostics_to_json([], n_files=3, n_suppressed=2)
        )
        assert payload["counts"] == {
            "files": 3,
            "diagnostics": 0,
            "suppressed": 2,
            "by_code": {},
        }
        assert payload["diagnostics"] == []

    def test_entries_are_sorted(self):
        diagnostics = [
            Diagnostic(path="b.py", line=1, col=0, code="RPR104", message="x"),
            Diagnostic(path="a.py", line=9, col=0, code="RPR104", message="x"),
            Diagnostic(path="a.py", line=2, col=0, code="RPR104", message="x"),
        ]
        payload = json.loads(
            diagnostics_to_json(
                sorted(diagnostics), n_files=2, n_suppressed=0
            )
        )
        keys = [(e["path"], e["line"]) for e in payload["diagnostics"]]
        assert keys == [("a.py", 2), ("a.py", 9), ("b.py", 1)]
