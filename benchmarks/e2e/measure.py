"""Spawn one ``serve`` process and time it from outside.

    python benchmarks/e2e/measure.py '{"argv": [...], "log": PATH,
                                       "watch": [PATH, ...], "timeout": S}'

Prints one JSON object: ``exit_code``, ``setup_s`` (spawn to the first
byte in any ``watch`` file, ``stat`` polled every 2 ms), ``drain_s``
(from then to exit, waited on with a blocking ``os.wait4`` so nothing
here competes with the drain), ``wall_s``, and from the rusage of the
process tree ``cpu_s`` and ``peak_rss_mb``.

The harness runs this small script rather than spawning ``serve``
itself: a child's ``ru_maxrss`` starts at its parent's resident size
at fork, so a parent holding reference scores would set the floor of
every peak it measures.  The serve runs in a session of its own; when
it ends, whatever is left of that session is killed and reaped, and a
serve that outlives ``timeout`` seconds is killed with it.
"""

from __future__ import annotations

import ctypes
import json
import os
import signal
import subprocess
import sys
import threading
import time
from typing import List

#: Poll interval while waiting for the first output byte.
POLL_S = 0.002
#: ``prctl`` option that makes orphaned descendants our children.
PR_SET_CHILD_SUBREAPER = 36


def _adopt_orphans() -> None:
    """Become the parent of descendants whose parent dies first.

    A fleet coordinator that crashes leaves its workers behind; with
    this flag they are re-parented here, so :func:`_stop_group` can
    wait for them.  Linux only; elsewhere they go to init instead.
    """
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _stop_group(pgid: int) -> None:
    """Kill what is left of a serve's session and reap it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def _first_byte(paths: List[str]) -> bool:
    for path in paths:
        try:
            if os.stat(path).st_size > 0:
                return True
        except FileNotFoundError:
            pass
    return False


def measure(argv: List[str], log: str, watch: List[str],
            timeout: float) -> dict:
    """Run ``argv`` with its output in ``log``; the module's timings."""
    _adopt_orphans()
    with open(log, "w") as handle:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=handle, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
    watchdog = threading.Timer(
        timeout, os.killpg, (proc.pid, signal.SIGKILL)
    )
    watchdog.start()
    try:
        first = None
        pid = 0
        while first is None:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if _first_byte(watch):
                first = time.perf_counter()
            else:
                time.sleep(POLL_S)
        if not pid:
            pid, status, usage = os.wait4(proc.pid, 0)
        end = time.perf_counter()
    finally:
        watchdog.cancel()
        watchdog.join()
    # Reaped here, not by Popen: tell it, so it does not wait again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    _stop_group(proc.pid)
    if first is None:
        first = end
    return {
        "exit_code": proc.returncode,
        "setup_s": first - start,
        "drain_s": end - first,
        "wall_s": end - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
    }


if __name__ == "__main__":
    request = json.loads(sys.argv[1])
    print(json.dumps(measure(
        request["argv"], request["log"], request["watch"],
        request["timeout"],
    )))
