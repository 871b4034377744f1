"""``python -m repro check``: the invariant checker's command line.

Exit codes follow linter convention: 0 clean, 1 diagnostics found,
2 usage error (argparse).  ``--format json`` emits the artifact schema
the CI ``invariant-check`` job uploads; ``--list`` prints every
registered code with its one-line rationale (the README codes table is
tested against this output).
"""

from __future__ import annotations

import argparse
import pathlib
from typing import Dict, List

# The analyzer is imported when ``check`` runs, not when the ``repro``
# parser is built: every other subcommand, ``serve`` included, goes
# without it.


def code_rationales() -> Dict[str, str]:
    """Every registered code mapped to its one-line rationale.

    Project checks register after per-file checks so a shared code
    (interprocedural RPR201/202 reuse the hot-path codes) keeps the
    per-file rationale — the two phases enforce one invariant.
    """
    from repro.devtools.analyzer import META_RATIONALES
    from repro.devtools.base import all_checks, all_project_checks

    rationales = dict(META_RATIONALES)
    for check_class in all_project_checks():
        rationales[check_class.code] = check_class.rationale
    for check_class in all_checks():
        rationales[check_class.code] = check_class.rationale
    return dict(sorted(rationales.items()))


def list_codes() -> str:
    """The ``--list`` rendering: one ``CODE  rationale`` line per code."""
    lines = [
        f"{code}  {rationale}"
        for code, rationale in code_rationales().items()
    ]
    return "\n".join(lines)


def _split_codes(raw: List[str]) -> List[str]:
    codes: List[str] = []
    for chunk in raw:
        codes.extend(
            code.strip().upper() for code in chunk.split(",") if code.strip()
        )
    for code in codes:
        # Prefix filters must at least head towards a real code;
        # silently selecting nothing would report a clean run that
        # checked nothing.
        if not any(known.startswith(code) for known in code_rationales()):
            raise ValueError(f"unknown code or prefix: {code}")
    return codes


def add_check_parser(sub: "argparse._SubParsersAction") -> None:
    """Register the ``check`` subcommand on the repro CLI parser."""
    parser = sub.add_parser(
        "check",
        help="run the static invariant checks (RPR diagnostics)",
        description=(
            "AST-based invariant checker: determinism (RPR1xx), "
            "hot-path allocation (RPR2xx, including interprocedural "
            "reachability), telemetry discipline (RPR3xx), API "
            "hygiene (RPR4xx), fork/process safety (RPR5xx), "
            "resource/exception safety (RPR6xx), protocol-version "
            "drift (RPR7xx)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to check (default: src)",
    )
    parser.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="CODES",
        help="comma-separated code prefixes to enable (e.g. RPR1,RPR30)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        default=None,
        metavar="CODES",
        help="comma-separated code prefixes to disable",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="diagnostic output format",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="write the report to a file instead of stdout",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_codes",
        help="print the registered codes with their rationales and exit",
    )
    parser.set_defaults(func=cmd_check)


def cmd_check(args: argparse.Namespace) -> int:
    """Entry point for ``python -m repro check``."""
    from repro.devtools.analyzer import run_check
    from repro.devtools.diagnostics import diagnostics_to_json, format_text

    if args.list_codes:
        print(list_codes())
        return 0
    try:
        select = _split_codes(args.select) if args.select else None
        ignore = _split_codes(args.ignore) if args.ignore else None
    except ValueError as error:
        print(f"repro check: {error}")
        return 2
    try:
        report = run_check(args.paths, select=select, ignore=ignore)
    except FileNotFoundError as error:
        print(f"repro check: {error}")
        return 2
    diagnostics = report.diagnostics
    if args.format == "json":
        rendered = diagnostics_to_json(
            diagnostics, report.n_files, report.n_suppressed
        )
    else:
        lines = format_text(diagnostics)
        lines.append(
            f"checked {report.n_files} files: "
            f"{len(diagnostics)} diagnostics, "
            f"{report.n_suppressed} suppressed"
        )
        rendered = "\n".join(lines)
    if args.out:
        pathlib.Path(args.out).write_text(rendered + "\n")
        print(
            f"wrote {len(diagnostics)} diagnostics "
            f"({report.n_files} files) to {args.out}"
        )
    else:
        print(rendered)
    return 1 if diagnostics else 0
