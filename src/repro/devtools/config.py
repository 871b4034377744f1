"""Checker configuration: which modules carry which contracts.

The defaults encode the repo's current contracts; tests construct
custom :class:`CheckConfig` instances to point the checks at fixture
files instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

#: Modules whose loops must stay allocation-free (the RPR2xx checks).
#: Matched as path suffixes with either separator style.
HOT_PATH_MODULES: Tuple[str, ...] = (
    "repro/nn/lstm.py",
    "repro/nn/gru.py",
    "repro/nn/quant.py",
    "repro/core/stream.py",
    "repro/logs/templates.py",
    "repro/runtime/codec.py",
)

#: Per-code path-suffix allowlist: locations where a check does not
#: apply because the contract is theirs to implement.  The telemetry
#: module owns wall-clock reads (it *is* the instrumentation layer),
#: and the CLI owns operator-facing entropy (none today, kept for the
#: principle that allowlisting is config, not suppression comments).
ALLOWLIST: Dict[str, Tuple[str, ...]] = {
    "RPR104": ("repro/telemetry.py",),
}

#: Pragma comment designating a module as hot-path without editing the
#: configured list (used by out-of-tree modules and test fixtures).
HOT_PATH_PRAGMA = "# repro: hot-path"

#: Function names that run as forked worker processes (the RPR5xx
#: shared-nothing contract applies to everything reachable from them).
WORKER_ENTRYPOINTS: Tuple[str, ...] = (
    "_worker_main",
    "_fine_tune_worker",
)

#: Project classes allowed across multiprocessing pipes / spawn args.
#: ``SessionSpec`` and ``ServeJob`` are frozen dataclasses of
#: configuration (paths, knobs, a read-only topology, a module-level
#: reader function): they pickle and carry no handles, so shipping them
#: to a worker is the designed hand-off, not a leak of live state.
PIPE_SAFE_CLASSES: Tuple[str, ...] = ("SessionSpec", "ServeJob")

#: Resource classes tracked by the RPR6xx lifecycle checks, mapped to
#: the method(s) that release them.  ``open`` is the builtin file
#: constructor; the rest are matched by class base name project-wide.
RESOURCE_CLASSES: Dict[str, Tuple[str, ...]] = {
    "open": ("close",),
    "WriteAheadLog": ("close",),
    "OwnerLock": ("release",),
    "MonitorService": ("close",),
    "_TickSink": ("close",),
}

#: Function names treated as teardown paths: every tracked release
#: inside them must survive an earlier statement raising (RPR602).
TEARDOWN_NAMES: Tuple[str, ...] = (
    "close",
    "release",
    "stop",
    "shutdown",
    "abort",
    "_abort",
    "__exit__",
    "__del__",
)

#: Name suffixes marking a module/class constant as a protocol
#: constant (record magic bytes, codec/schema version tags) under the
#: RPR7xx drift checks.
PROTOCOL_CONSTANT_SUFFIXES: Tuple[str, ...] = ("_MAGIC", "_VERSION")


def _normalize(path: str) -> str:
    return path.replace("\\", "/")


@dataclass(frozen=True)
class CheckConfig:
    """Where each check family applies.

    Attributes:
        hot_path_modules: path suffixes of modules under the RPR2xx
            allocation discipline (plus any file carrying the
            ``# repro: hot-path`` pragma).
        allowlist: per-code path suffixes exempt from that code.
        worker_entrypoints: function names whose bodies run inside
            forked worker processes (roots of the RPR5xx reachability
            pass).
        pipe_safe_classes: class base names cleared to cross
            multiprocessing pipes and spawn args (RPR502).
        resource_classes: resource class base name -> release method
            names, the lifecycle table behind RPR601/RPR602.
        teardown_names: function names whose releases must be
            exception-safe (RPR602).
        protocol_constant_suffixes: constant-name suffixes under the
            RPR7xx protocol-drift contract.
    """

    hot_path_modules: Tuple[str, ...] = HOT_PATH_MODULES
    allowlist: Dict[str, Tuple[str, ...]] = field(
        default_factory=lambda: dict(ALLOWLIST)
    )
    worker_entrypoints: Tuple[str, ...] = WORKER_ENTRYPOINTS
    pipe_safe_classes: Tuple[str, ...] = PIPE_SAFE_CLASSES
    resource_classes: Dict[str, Tuple[str, ...]] = field(
        default_factory=lambda: dict(RESOURCE_CLASSES)
    )
    teardown_names: Tuple[str, ...] = TEARDOWN_NAMES
    protocol_constant_suffixes: Tuple[str, ...] = (
        PROTOCOL_CONSTANT_SUFFIXES
    )

    def is_hot_path(self, path: str, source: str) -> bool:
        """Whether ``path`` is under the hot-path allocation contract."""
        normalized = _normalize(path)
        if any(normalized.endswith(_normalize(suffix)) for suffix in self.hot_path_modules):
            return True
        return any(
            line.strip() == HOT_PATH_PRAGMA for line in source.splitlines()
        )

    def is_allowlisted(self, code: str, path: str) -> bool:
        """Whether ``path`` is exempt from ``code`` by configuration."""
        normalized = _normalize(path)
        return any(
            normalized.endswith(_normalize(suffix))
            for suffix in self.allowlist.get(code, ())
        )
