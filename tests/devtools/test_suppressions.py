"""Suppression semantics: coded noqa, bare noqa, stale noqa.

The contract from the module docstring of :mod:`repro.devtools.suppress`:
a suppression silences only the named codes on its own line; a bare
``# repro: noqa`` is RPR001; one that silences nothing is RPR002.
"""

import textwrap

from repro.devtools.analyzer import Analyzer
from repro.devtools.suppress import scan_suppressions

HOT = "# repro: hot-path\n"


def check(source, **kwargs):
    analyzer = Analyzer(**kwargs)
    return analyzer.check_source("fixture.py", textwrap.dedent(source))


BAD_LOOP = '''\
"""Module doc."""
import numpy as np


def f(items: list) -> None:
    """Doc."""
    for item in items:
        _ = np.zeros(3){noqa}
'''


class TestCodedSuppression:
    def test_coded_noqa_silences_and_counts(self):
        source = HOT + BAD_LOOP.format(noqa="  # repro: noqa[RPR201]")
        report = check(source)
        assert report.diagnostics == []
        assert report.n_suppressed == 1

    def test_unsuppressed_violation_reported(self):
        report = check(HOT + BAD_LOOP.format(noqa=""))
        assert [d.code for d in report.diagnostics] == ["RPR201"]
        assert report.n_suppressed == 0

    def test_wrong_code_does_not_silence(self):
        source = HOT + BAD_LOOP.format(noqa="  # repro: noqa[RPR202]")
        codes = {d.code for d in check(source).diagnostics}
        # The violation survives and the suppression is stale.
        assert codes == {"RPR002", "RPR201"}

    def test_multi_code_suppression(self):
        source = HOT + (
            '"""Module doc."""\n'
            "import numpy as np\n\n\n"
            "def f(items: list) -> None:\n"
            '    """Doc."""\n'
            "    for item in items:\n"
            "        _ = np.array([x for x in item])"
            "  # repro: noqa[RPR201, RPR202]\n"
        )
        report = check(source)
        assert report.diagnostics == []
        assert report.n_suppressed == 2

    def test_case_insensitive_directive(self):
        source = HOT + BAD_LOOP.format(noqa="  # REPRO: NOQA[rpr201]")
        assert check(source).diagnostics == []

    def test_only_same_line_is_silenced(self):
        source = HOT + (
            '"""Module doc."""\n'
            "import numpy as np\n\n\n"
            "def f(items: list) -> None:\n"
            '    """Doc."""\n'
            "    for item in items:\n"
            "        # repro: noqa[RPR201]\n"
            "        _ = np.zeros(3)\n"
        )
        codes = [d.code for d in check(source).diagnostics]
        # Comment-line suppression does not cover the next line; it is
        # itself stale.
        assert codes == ["RPR002", "RPR201"]


class TestMetaDiagnostics:
    def test_bare_noqa_is_rpr001(self):
        source = HOT + BAD_LOOP.format(noqa="  # repro: noqa")
        codes = {d.code for d in check(source).diagnostics}
        assert codes == {"RPR001", "RPR201"}

    def test_malformed_code_list_is_rpr001(self):
        source = HOT + BAD_LOOP.format(noqa="  # repro: noqa[banana]")
        codes = {d.code for d in check(source).diagnostics}
        assert codes == {"RPR001", "RPR201"}

    def test_stale_noqa_is_rpr002(self):
        source = (
            '"""Module doc."""\n\n'
            "VALUE = 1  # repro: noqa[RPR104]\n"
        )
        report = check(source)
        assert [d.code for d in report.diagnostics] == ["RPR002"]
        assert "RPR104" in report.diagnostics[0].message

    def test_syntax_error_is_rpr000(self):
        report = check("def broken(:\n    pass\n")
        assert [d.code for d in report.diagnostics] == ["RPR000"]

    def test_docstring_prose_is_not_a_directive(self):
        source = (
            '"""Mentions # repro: noqa[RPR201] in prose only."""\n\n'
            "VALUE = 1\n"
        )
        assert check(source).diagnostics == []
        assert scan_suppressions(source) == []
