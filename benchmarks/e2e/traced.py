"""Run one ``repro`` CLI invocation with layer spans recorded.

    PYTHONPATH=src python benchmarks/e2e/traced.py SPANS_DIR serve ...

The script wraps the per-tick layer boundaries listed in :data:`TARGETS`
-- on the class for methods, and on every module that imported a
function by name -- then calls ``repro.cli.main`` with the remaining
arguments.  Each call of a wrapped callable becomes one span
``(name, start, end, parent, n)`` kept in memory, where ``parent`` is
the index of the enclosing span and ``n`` a count taken at the call
(messages, windows or bytes).  Spans are written to
``SPANS_DIR/spans-<pid>.json`` when the process is done.

Forked fleet workers start from an empty span list and write their own
file when the worker entry point returns: ``multiprocessing`` ends a
forked child with ``os._exit``, which skips ``atexit``.  A target that
no longer exists is listed under ``"absent"`` in the file instead of
failing the run, so a refactor that moves a layer shows up as missing
spans in the ledger.

Only per-tick and per-run callables are wrapped, never per-message ones
such as ``TemplateStore.match``: each wrapped call costs two clock reads
and a few list operations, which per message would be a layer of its
own.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pathlib
import sys
import time
from typing import Any, Callable, List, NamedTuple, Optional, Sequence

_STARTED = time.perf_counter()

#: ``count(args, result)`` -> the span's ``n``.
Count = Callable[[tuple, Any], int]


def _arg_len(index: int) -> Count:
    return lambda args, result: len(args[index])


def _result_len(args: tuple, result: Any) -> int:
    return len(result)


def _result_int(args: tuple, result: Any) -> int:
    return int(result)


class Target(NamedTuple):
    """One callable to wrap: ``module:attribute`` recorded as ``span``.

    ``attribute`` may be dotted (``Class.method``).  ``root`` marks a
    process entry point whose return flushes the span file.
    """

    module: str
    attribute: str
    span: str
    count: Optional[Count] = None
    root: bool = False


TARGETS = (
    Target("repro.cli", "cmd_serve", "cli.cmd_serve"),
    Target("repro.cli", "read_trace", "cli.read_trace"),
    Target("repro.cli", "_TickWriter.write", "cli.sink"),
    Target("repro.cli", "_drain_incidents", "cli.sink"),
    Target("repro.logs.templates", "TemplateStore.match_ids",
           "logs.match_ids", _arg_len(1)),
    Target("repro.core.stream", "StreamScorer.observe_batch",
           "stream.observe_batch", _arg_len(1)),
    Target("repro.nn.model", "Sequential.predict", "nn.predict",
           _arg_len(1)),
    Target("repro.core.online", "OnlineMonitor.observe_batch",
           "online.observe_batch", _arg_len(1)),
    Target("repro.rca.engine", "RcaEngine.observe_tick",
           "rca.observe_tick"),
    Target("repro.rca.engine", "RcaEngine.drain_closed",
           "rca.drain_closed"),
    Target("repro.runtime.codec", "TickEncoder.encode", "codec.encode",
           _result_len),
    Target("repro.runtime.service", "decode_tick", "codec.decode",
           _result_len),
    Target("repro.runtime.fleet", "decode_tick", "codec.decode",
           _result_len),
    Target("repro.runtime.wal", "WriteAheadLog.append", "wal.append",
           _arg_len(2)),
    Target("repro.runtime.service", "write_checkpoint",
           "checkpoint.write", _result_int),
    Target("repro.runtime.service", "read_checkpoint",
           "checkpoint.read"),
    Target("repro.runtime.service", "MonitorService.open",
           "service.open"),
    Target("repro.runtime.service", "MonitorService.recover",
           "service.recover"),
    Target("repro.runtime.service", "MonitorService.process_tick",
           "service.process_tick", _arg_len(1)),
    Target("repro.runtime.service", "MonitorService.checkpoint_now",
           "service.checkpoint_now"),
    Target("repro.runtime.service", "MonitorService.close",
           "service.close"),
    Target("repro.runtime.fleet", "FleetCoordinator.open", "fleet.open"),
    Target("repro.runtime.fleet", "FleetCoordinator.partition",
           "fleet.partition", _arg_len(1)),
    Target("repro.runtime.fleet", "FleetCoordinator.drain",
           "fleet.drain"),
    Target("repro.runtime.fleet", "FleetCoordinator.close",
           "fleet.close"),
    # fleet calls the module function multiprocessing.connection.wait,
    # so this patches it process-wide; the ledger keeps the waits whose
    # parent span is fleet.drain.
    Target("repro.runtime.fleet", "connection.wait", "fleet.wait"),
    Target("repro.runtime.fleet", "_ShardTickWriter.write", "fleet.sink"),
    Target("repro.runtime.fleet", "_ShardTickWriter.write_incidents",
           "fleet.sink"),
    Target("repro.runtime.fleet", "_worker_main", "fleet.worker",
           root=True),
)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, out_dir: pathlib.Path) -> None:
        self.out_dir = pathlib.Path(out_dir)
        #: ``[name, start, end, parent, n]``; ``end`` is None while open.
        self.spans: List[list] = []
        self.absent: List[str] = []
        self.role = "main"
        self._stack: List[int] = []

    def after_fork(self) -> None:
        """Start a forked child with no spans of its parent."""
        self.spans = []
        self._stack = []
        self.role = "worker"

    def record(self, span: str, start: float, end: float) -> None:
        """Add a finished span that no wrapped call produced."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([span, start, end, parent, 0])

    def wrap(
        self, fn: Callable, span: str, count: Optional[Count], root: bool
    ) -> Callable:
        """``fn`` recording one span per call."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = self._stack[-1] if self._stack else -1
            row = [span, time.perf_counter(), None, parent, 0]
            self._stack.append(len(self.spans))
            self.spans.append(row)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    row[4] = count(args, result)
                return result
            finally:
                row[2] = time.perf_counter()
                self._stack.pop()
                if root:
                    self.flush()

        return traced

    def install(self, targets: Sequence[Target] = TARGETS) -> None:
        """Wrap every target that resolves; list the others as absent."""
        for target in targets:
            try:
                owner = importlib.import_module(target.module)
                *path, name = target.attribute.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = vars(owner)[name] if isinstance(owner, type) else (
                    getattr(owner, name)
                )
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{target.module}:{target.attribute}")
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(
                    self.wrap(raw.__func__, target.span, target.count,
                              target.root)
                )
            else:
                wrapped = self.wrap(raw, target.span, target.count,
                                    target.root)
            setattr(owner, name, wrapped)

    def flush(self) -> None:
        """Write this process's spans; open ones end now."""
        now = time.perf_counter()
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{os.getpid()}.json"
        path.write_text(
            json.dumps(
                {
                    "pid": os.getpid(),
                    "role": self.role,
                    "absent": self.absent,
                    "spans": [
                        [name, start, now if end is None else end, parent, n]
                        for name, start, end, parent, n in self.spans
                    ],
                }
            )
        )


def main(argv: List[str]) -> int:
    """Trace ``repro.cli.main(argv[1:])``, spans into ``argv[0]``."""
    tracer = Tracer(pathlib.Path(argv[0]))
    import repro.cli

    tracer.install()
    os.register_at_fork(after_in_child=tracer.after_fork)
    # Interpreter start-up before this script ran is the only time no
    # span covers; importing the CLI is set-up the operator pays too.
    tracer.record("cli.import", _STARTED, time.perf_counter())
    try:
        return repro.cli.main(argv[1:])
    finally:
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
