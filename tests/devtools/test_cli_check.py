"""End-to-end CLI behavior of ``python -m repro check``.

The exit-code contract (0 clean, 1 diagnostics, 2 usage error) is what
CI's ``invariant-check`` job relies on, and the final test is the
repository's own gate: the tree must check clean.
"""

import json
import pathlib
import subprocess
import sys

import pytest

from repro.devtools.cli import code_rationales

ROOT = pathlib.Path(__file__).resolve().parents[2]

BAD_SOURCE = (
    '"""Doc."""\n'
    "import time\n\n\n"
    "def now() -> float:\n"
    '    """Doc."""\n'
    "    return time.time()\n"
)


def run_check(*argv, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, "-m", "repro", "check", *argv],
        capture_output=True,
        text=True,
        cwd=str(cwd),
        env={
            "PYTHONPATH": str(ROOT / "src"),
            "PATH": "/usr/bin:/bin",
            **(env or {}),
        },
    )


@pytest.fixture
def bad_tree(tmp_path):
    (tmp_path / "bad.py").write_text(BAD_SOURCE)
    return tmp_path


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path):
        (tmp_path / "ok.py").write_text('"""Doc."""\n\nVALUE = 1\n')
        assert run_check(str(tmp_path)).returncode == 0

    def test_diagnostics_exit_one(self, bad_tree):
        result = run_check(str(bad_tree))
        assert result.returncode == 1
        assert "RPR104" in result.stdout

    def test_missing_path_exits_two(self, tmp_path):
        result = run_check(str(tmp_path / "missing"))
        assert result.returncode == 2

    def test_bad_code_filter_exits_two(self):
        result = run_check("--select", "E501", "src")
        assert result.returncode == 2

    @pytest.mark.parametrize(
        "argv", [["--no-cache"], ["--format", "sarif"]]
    )
    def test_retired_options_exit_two(self, bad_tree, argv):
        result = run_check(str(bad_tree), *argv)
        assert result.returncode == 2
        assert "usage:" in result.stderr


class TestFilters:
    def test_ignore_silences_family(self, bad_tree):
        result = run_check("--ignore", "RPR104", str(bad_tree))
        assert result.returncode == 0

    def test_select_narrows_to_family(self, bad_tree):
        result = run_check("--select", "RPR2", str(bad_tree))
        assert result.returncode == 0


class TestJsonOutput:
    def test_json_report_written(self, bad_tree, tmp_path):
        out = tmp_path / "report.json"
        result = run_check(
            str(bad_tree), "--format", "json", "--out", str(out)
        )
        assert result.returncode == 1
        payload = json.loads(out.read_text())
        assert payload["counts"]["diagnostics"] == 1
        assert payload["counts"]["by_code"] == {"RPR104": 1}


class TestNoCache:
    def test_no_cache_writes_nothing(self, bad_tree, tmp_path):
        """A run writes its ``--out`` report and nothing else: not
        under HOME, not in the checked tree, not in the cwd."""
        home = tmp_path / "home"
        home.mkdir()
        out = tmp_path / "report.json"
        before = sorted(tmp_path.rglob("*"))
        result = run_check(
            str(bad_tree), "--format", "json", "--out", str(out),
            cwd=tmp_path,
            env={"HOME": str(home), "REPRO_CHECK_CACHE_DIR": str(home)},
        )
        assert result.returncode == 1
        assert sorted(tmp_path.rglob("*")) == sorted([*before, out])
        assert not any(home.iterdir())


class TestListCodes:
    def test_list_prints_every_code(self):
        result = run_check("--list")
        assert result.returncode == 0
        for code, rationale in code_rationales().items():
            assert code in result.stdout
            assert rationale.split(";")[0] in result.stdout

    def test_meta_codes_listed(self):
        stdout = run_check("--list").stdout
        for code in ("RPR000", "RPR001", "RPR002"):
            assert code in stdout


class TestRepositoryGate:
    def test_src_checks_clean(self):
        """The repository's own source must satisfy its invariants."""
        result = run_check("src")
        assert result.returncode == 0, result.stdout + result.stderr
