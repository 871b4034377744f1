"""Static analysis: the repo's invariants as CI-gated checks.

PRs 1-3 established contracts that reviewers were enforcing by hand:
bitwise float64 parity demands injected, seeded RNGs; the streaming
engine's throughput depends on hot-path loops staying allocation-free;
telemetry must publish at batch boundaries, never per message; and the
public API must stay typed and documented so downstream automation can
trust it.  ``repro.devtools`` turns each contract into an AST check
with a ruff-like diagnostic code:

* ``RPR1xx`` -- determinism (no entropy-seeded or global RNGs, no
  wall-clock reads in library code);
* ``RPR2xx`` -- hot-path discipline (no in-loop array allocation or
  per-item comprehensions in designated modules, including helpers
  reached *through* the call graph from a hot loop);
* ``RPR3xx`` -- telemetry discipline (no metric writes inside per-item
  loops of instrumented modules);
* ``RPR4xx`` -- API hygiene (annotations, docstrings, resolvable
  ``__all__``);
* ``RPR5xx`` -- fork/process safety (no module-level mutable state
  reachable from worker entrypoints, only codec-safe payloads over
  multiprocessing pipes, no fork after thread creation);
* ``RPR6xx`` -- resource/exception safety (WAL handles, owner locks
  and tick writers released on every control-flow path; atomic-write
  temp files staged in the destination directory);
* ``RPR7xx`` -- protocol-version drift (``*_MAGIC``/``*_VERSION``
  constants resolve to one literal at writer and reader sites);
* ``RPR0xx`` -- checker usage (malformed or stale suppressions).

The RPR1-4xx families are per-file checks over one ``ast`` tree.  The
RPR5-7xx families (and the interprocedural half of RPR2xx) are *whole
program* checks: every file is summarized once into a
:class:`~repro.devtools.project.ProjectIndex` — symbol table, import
graph, conservative call graph — and the checks query the assembled
index.  Every run parses every file once; it writes nothing but the
report.

Run it as ``python -m repro check [paths]`` (``--format text|json``);
suppress an intentional violation inline with
``# repro: noqa[RPRnnn]`` (the code is mandatory).  A module
outside the configured hot-path list can opt into the RPR2xx checks
with a ``# repro: hot-path`` pragma comment.
"""

from repro.devtools.analyzer import (
    Analyzer,
    CheckReport,
    check_paths,
    iter_python_files,
    run_check,
)
from repro.devtools.base import (
    Check,
    ProjectCheck,
    all_checks,
    all_project_checks,
    get_check,
    registered_codes,
)
from repro.devtools.config import CheckConfig
from repro.devtools.diagnostics import Diagnostic, diagnostics_to_json
from repro.devtools.project import ProjectIndex, summarize_module

__all__ = [
    "Analyzer",
    "Check",
    "CheckConfig",
    "CheckReport",
    "Diagnostic",
    "ProjectCheck",
    "ProjectIndex",
    "all_checks",
    "all_project_checks",
    "check_paths",
    "diagnostics_to_json",
    "get_check",
    "iter_python_files",
    "registered_codes",
    "run_check",
    "summarize_module",
]
