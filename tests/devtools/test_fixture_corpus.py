"""Fixture-driven coverage of every RPR diagnostic code.

Each file in ``fixtures/`` is named ``<code>_<verdict>_<slug>.py``.
A ``bad`` fixture must trigger at least one diagnostic of its code
(and anchors the check's behavior); a ``good`` fixture is the minimal
compliant counterpart and must be clean for that code.  The corpus
doubles as executable documentation: ``--list`` names the rules, the
fixtures show them.
"""

import pathlib
import re

import pytest

from repro.devtools.analyzer import Analyzer
from repro.devtools.base import registered_codes
from repro.devtools.config import CheckConfig

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
_NAME_RE = re.compile(r"^(RPR\d{3})_(bad|good)_?\w*\.py$")


def _fixture_cases():
    cases = []
    for path in sorted(FIXTURES.glob("*.py")):
        match = _NAME_RE.match(path.name)
        assert match, f"fixture {path.name} does not follow naming"
        cases.append((path, match.group(1), match.group(2)))
    return cases


CASES = _fixture_cases()


def _check_one(path, code):
    analyzer = Analyzer(CheckConfig(), select=(code,))
    return analyzer.check_file(path).diagnostics


class TestCorpusShape:
    def test_every_code_has_two_bad_and_one_good(self):
        """The ISSUE floor: >=2 bad and >=1 good fixture per code."""
        by_code = {}
        for _, code, verdict in CASES:
            by_code.setdefault(code, []).append(verdict)
        assert set(by_code) == set(registered_codes())
        for code, verdicts in by_code.items():
            assert verdicts.count("bad") >= 2, code
            assert verdicts.count("good") >= 1, code


@pytest.mark.parametrize(
    "path,code,verdict",
    CASES,
    ids=[p.name for p, _, _ in CASES],
)
def test_fixture(path, code, verdict):
    diagnostics = _check_one(path, code)
    if verdict == "bad":
        assert diagnostics, f"{path.name} should trigger {code}"
        assert {d.code for d in diagnostics} == {code}
    else:
        assert not diagnostics, [d.format() for d in diagnostics]


def test_bad_fixtures_quiet_for_other_files(tmp_path):
    """A bad fixture's violation stays put under path-based configs."""
    source = (FIXTURES / "RPR201_bad_alloc_in_for.py").read_text()
    stripped = source.replace("# repro: hot-path\n", "")
    plain = tmp_path / "not_hot.py"
    plain.write_text(stripped)
    assert not _check_one(plain, "RPR201")
