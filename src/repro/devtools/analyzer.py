"""The analyzer: parse once, run every enabled check, apply noqa.

One :class:`FileContext` is built per file and shared by all per-file
checks, so the cost per file is one ``ast.parse`` plus linear walks.
The same parse also feeds :func:`summarize_module`, whose summaries
assemble into the :class:`ProjectIndex` the whole-program checks
(RPR5xx/6xx/7xx, interprocedural RPR201/202) query after every file
has been scanned.  Suppression accounting happens here rather than in
the checks: a check never sees noqa comments, and the analyzer owns
the two meta-diagnostics (RPR001 malformed suppression, RPR002 stale
suppression) that keep the suppression inventory from rotting.
Project diagnostics anchor at the flagged file's own lines, so the
same per-line suppressions silence them.
"""

from __future__ import annotations

import ast
import pathlib
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.devtools.base import (
    Check,
    FileContext,
    ProjectCheck,
    all_checks,
    all_project_checks,
)
from repro.devtools.config import CheckConfig
from repro.devtools.diagnostics import Diagnostic
from repro.devtools.project import ModuleSummary, ProjectIndex, summarize_module
from repro.devtools.suppress import Suppression, scan_suppressions

#: Codes the analyzer emits itself (not backed by a Check subclass).
META_RATIONALES = {
    "RPR000": (
        "a file the checker cannot parse is a file whose invariants "
        "nobody is enforcing"
    ),
    "RPR001": (
        "suppressions must name a code: bare '# repro: noqa' hides "
        "future violations indiscriminately"
    ),
    "RPR002": (
        "a suppression that no longer silences anything is stale and "
        "must be removed"
    ),
}


class FileReport(NamedTuple):
    """Outcome of checking one file."""

    path: str
    diagnostics: List[Diagnostic]
    n_suppressed: int


class FileScan(NamedTuple):
    """Per-file scan products, before any cross-file phase runs."""

    suppressions: List[Suppression]
    diagnostics: List[Diagnostic]
    summary: Optional[ModuleSummary]


class CheckReport(NamedTuple):
    """Outcome of a whole run."""

    diagnostics: List[Diagnostic]
    n_files: int
    n_suppressed: int


def _code_matches(code: str, patterns: Sequence[str]) -> bool:
    """Prefix matching: ``RPR1`` selects every RPR1xx code."""
    return any(code.startswith(pattern) for pattern in patterns)


class Analyzer:
    """Run the registered checks over files with select/ignore filters.

    Args:
        config: where each check family applies.
        select: code prefixes to enable (default: all registered).
        ignore: code prefixes to disable (applied after ``select``).
    """

    def __init__(
        self,
        config: Optional[CheckConfig] = None,
        select: Optional[Sequence[str]] = None,
        ignore: Optional[Sequence[str]] = None,
    ) -> None:
        self.config = config or CheckConfig()
        self.select = tuple(select) if select else ("RPR",)
        self.ignore = tuple(ignore) if ignore else ()
        self.checks: List[Check] = [
            check_class()
            for check_class in all_checks()
            if self._enabled(check_class.code)
        ]
        self.project_checks: List[ProjectCheck] = [
            check_class()
            for check_class in all_project_checks()
            if self._enabled(check_class.code)
        ]

    def _enabled(self, code: str) -> bool:
        return _code_matches(code, self.select) and not _code_matches(
            code, self.ignore
        )

    # -- single file ----------------------------------------------------

    def scan_source(self, path: str, source: str) -> FileScan:
        """Scan one file: suppressions, per-file diagnostics, summary.

        No cross-file knowledge enters.  Diagnostics come back
        *pre-suppression*: project diagnostics join them before the
        file's suppressions apply.
        """
        suppressions = scan_suppressions(source)
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as error:
            line = error.lineno or 1
            col = (error.offset or 1) - 1
            return FileScan(
                suppressions,
                [
                    Diagnostic(
                        path=path,
                        line=line,
                        col=max(col, 0),
                        code="RPR000",
                        message=f"syntax error: {error.msg}",
                    )
                ],
                None,
            )
        context = FileContext(path, source, tree, self.config)
        raw: List[Diagnostic] = []
        for check in self.checks:
            raw.extend(check.run(context))
        summary = summarize_module(path, source, tree, self.config)
        return FileScan(suppressions, raw, summary)

    def run_project_checks(self, index: ProjectIndex) -> List[Diagnostic]:
        """All whole-program diagnostics over an assembled index."""
        diagnostics: List[Diagnostic] = []
        for check in self.project_checks:
            diagnostics.extend(check.run(index))
        return diagnostics

    def check_source(self, path: str, source: str) -> FileReport:
        """Check one in-memory source blob (the unit the tests drive).

        Project checks run against a single-module index, so the
        cross-module codes still fire on self-contained fixtures.
        """
        scan = self.scan_source(path, source)
        raw = list(scan.diagnostics)
        if scan.summary is not None:
            index = ProjectIndex(self.config)
            index.add(scan.summary)
            raw.extend(self.run_project_checks(index))
        kept, n_suppressed = _apply_suppressions(raw, scan.suppressions)
        kept.extend(self._meta_diagnostics(path, scan.suppressions))
        return FileReport(path, sorted(kept), n_suppressed)

    def check_file(self, path: pathlib.Path) -> FileReport:
        """Check one file on disk."""
        return self.check_source(str(path), path.read_text())

    def _meta_diagnostics(
        self, path: str, suppressions: List[Suppression]
    ) -> Iterator[Diagnostic]:
        for suppression in suppressions:
            if suppression.malformed and self._enabled("RPR001"):
                yield Diagnostic(
                    path=path,
                    line=suppression.line,
                    col=suppression.col,
                    code="RPR001",
                    message=(
                        "suppression must name its code(s): "
                        "# repro: noqa[RPRnnn]"
                    ),
                )
            elif (
                not suppression.malformed
                and not suppression.used
                and self._enabled("RPR002")
            ):
                yield Diagnostic(
                    path=path,
                    line=suppression.line,
                    col=suppression.col,
                    code="RPR002",
                    message=(
                        "stale suppression: "
                        f"[{', '.join(sorted(suppression.codes))}] "
                        "silences nothing on this line"
                    ),
                )


def _apply_suppressions(
    diagnostics: List[Diagnostic], suppressions: List[Suppression]
) -> Tuple[List[Diagnostic], int]:
    kept: List[Diagnostic] = []
    n_suppressed = 0
    for diagnostic in diagnostics:
        silenced = False
        for suppression in suppressions:
            if suppression.suppresses(diagnostic.line, diagnostic.code):
                suppression.used = True
                silenced = True
        if silenced:
            n_suppressed += 1
        else:
            kept.append(diagnostic)
    return kept, n_suppressed


# -- directory walking ----------------------------------------------------

#: Directory names never descended into.
_SKIP_DIRS = frozenset(
    {".git", "__pycache__", ".ruff_cache", ".pytest_cache", "build", "dist"}
)


def iter_python_files(paths: Sequence[str]) -> Iterator[pathlib.Path]:
    """Yield ``.py`` files under ``paths`` (files pass through as-is)."""
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_file():
            yield path
        elif path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not _SKIP_DIRS.intersection(candidate.parts):
                    yield candidate
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")


def run_check(
    paths: Iterable[str],
    config: Optional[CheckConfig] = None,
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> CheckReport:
    """Check files/directories with the full whole-program pipeline.

    Phase 1 scans each file: suppressions, per-file diagnostics,
    module summary.  Phase 2 assembles every summary into one
    :class:`ProjectIndex` and runs the project checks.  Phase 3 merges
    both diagnostic streams per file, applies that file's suppressions
    to the union, and emits meta-diagnostics — so a noqa comment
    silences a cross-module finding exactly as it silences a per-file
    one.
    """
    analyzer = Analyzer(config=config, select=select, ignore=ignore)
    scans = [
        (str(path), analyzer.scan_source(str(path), path.read_text()))
        for path in iter_python_files(list(paths))
    ]

    index = ProjectIndex(analyzer.config)
    for _, scan in scans:
        if scan.summary is not None:
            index.add(scan.summary)
    project_by_path: Dict[str, List[Diagnostic]] = {}
    for diagnostic in analyzer.run_project_checks(index):
        project_by_path.setdefault(diagnostic.path, []).append(diagnostic)

    diagnostics: List[Diagnostic] = []
    n_suppressed = 0
    for key, scan in scans:
        merged = list(scan.diagnostics)
        merged.extend(project_by_path.get(key, ()))
        kept, suppressed = _apply_suppressions(merged, scan.suppressions)
        kept.extend(analyzer._meta_diagnostics(key, scan.suppressions))
        diagnostics.extend(kept)
        n_suppressed += suppressed
    return CheckReport(sorted(diagnostics), len(scans), n_suppressed)

