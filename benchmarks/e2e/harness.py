"""Inputs, runs and checks of the end-to-end ``serve`` benchmark.

Everything here drives the CLI (``python -m repro ...``) as a
subprocess, timed ones through :mod:`measure`, and reads what it writes
to disk; nothing imports ``repro`` in this process.  Prepared inputs
are cached under ``.bench_build/e2e`` in the repository root, keyed by
trace, the scale's arguments and a digest of ``src/repro``, so
workloads that share a trace prepare it once.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import ledger

ROOT = pathlib.Path(__file__).resolve().parents[2]
HERE = pathlib.Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build" / "e2e"
CLI_SOURCE = ROOT / "src" / "repro" / "cli.py"

#: End-to-end metric -> unit, as an operator of ``serve`` sees them.
UNITS = {
    "msgs_per_s": "msg/s",
    "setup_s": "s",
    "cpu_us_per_msg": "us/msg",
    "peak_rss_mb": "MB",
}

#: Seconds one serve leg may take before its process group is killed.
LEG_TIMEOUT_S = 120.0
#: Prepared inputs kept per trace and scale; older ones are deleted.
KEEP_INPUTS = 4


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, failed set-up)."""


@dataclass(frozen=True)
class TraceSpec:
    """The ``simulate`` and ``train`` arguments of one trace."""

    simulate: Tuple[str, ...]
    train: Tuple[str, ...]


@dataclass(frozen=True)
class Scale:
    """Input sizes and the serve tick size; ``crash`` is
    ``(checkpoint_every, kill_after_ticks)`` of the crash leg."""

    traces: Dict[str, TraceSpec]
    tick_size: int
    crash: Tuple[int, int]


SCALES = {
    # The paper trace is the paper's fleet shape (16 vPEs) over one
    # month, about 52k messages and 200 ticks of 256: one serve takes
    # about 2 s, so a 12 s timed run repeats it five times.  The wide
    # trace has 512 devices, twice the 256 tick slots, and about 146k
    # messages.  The crash leg checkpoints at tick 64 and dies at tick
    # 120, so recovery replays 56 ticks and about 80 ticks are served
    # live after it.
    "default": Scale(
        traces={
            "paper": TraceSpec(
                ("--vpes", "16", "--months", "1", "--rate", "4"),
                ("--train-days", "15"),
            ),
            "wide": TraceSpec(
                ("--vpes", "512", "--months", "1", "--rate", "0.25",
                 "--topology", "--scenario", "correlated-outage",
                 "--outages", "16"),
                ("--capacity", "384", "--train-days", "10"),
            ),
        },
        tick_size=256,
        crash=(64, 120),
    ),
    # A few thousand messages per trace, for the tests; small ticks give
    # the crash leg and the traced percentiles as many ticks as above.
    "smoke": Scale(
        traces={
            "paper": TraceSpec(
                ("--vpes", "4", "--months", "1", "--rate", "1"),
                ("--train-days", "15", "--max-samples", "2000"),
            ),
            "wide": TraceSpec(
                ("--vpes", "32", "--months", "1", "--rate", "0.25",
                 "--topology", "--scenario", "correlated-outage",
                 "--outages", "6"),
                ("--capacity", "384", "--train-days", "10",
                 "--max-samples", "2000"),
            ),
        },
        tick_size=16,
        crash=(64, 120),
    ),
}

#: Default seed per trace.
SEEDS = {"paper": 7, "wide": 11}


@dataclass(frozen=True)
class Workload:
    """A workload's name and the trace it serves; ``BENCHMARK.json``
    says why it was chosen."""

    name: str
    trace: str


WORKLOADS = (
    Workload("paper-1shard", "paper"),
    Workload("paper-2shard", "paper"),
    Workload("wide-rca", "wide"),
    Workload("crash-replay", "paper"),
)
WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)


def workload(name: str) -> Workload:
    return next(w for w in WORKLOADS if w.name == name)


def child_env() -> Dict[str, str]:
    """The caller's environment with ``src`` importable, nothing else.

    BLAS thread variables are left as the operator has them; the
    record's fingerprint says what they were.
    """
    env = dict(os.environ)
    paths = [str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def sha256_of(path: pathlib.Path) -> str:
    """Digest of a file, or of every file under a directory."""
    path = pathlib.Path(path)
    digest = hashlib.sha256()
    files = sorted(p for p in path.rglob("*") if p.is_file()) if (
        path.is_dir()) else [path]
    for file in files:
        digest.update(str(file.relative_to(path.parent)).encode())
        digest.update(file.read_bytes())
    return digest.hexdigest()


def _run_cli(args: Sequence[str], log: pathlib.Path) -> None:
    """One preparation step.  ``simulate`` draws message fields in the
    order of a ``set`` of names, so without a fixed string-hash seed the
    same ``--seed`` would give a different trace in every process."""
    env = {**child_env(), "PYTHONHASHSEED": "0"}
    with open(log, "a") as handle:
        code = subprocess.run(
            [sys.executable, "-m", "repro", *args],
            cwd=ROOT, env=env, stdout=handle,
            stderr=subprocess.STDOUT, timeout=600,
        ).returncode
    if code != 0:
        tail = log.read_text()[-2000:]
        raise BenchError(f"repro {args[0]} exited {code}:\n{tail}")


# -- prepared inputs -------------------------------------------------------


@dataclass
class Inputs:
    """A simulated trace, its templates and model, and the references.

    The references come from one serve run of the trace's own workload
    (``paper-1shard`` or ``wide-rca``) and from offline scoring of the
    release that run served.
    """

    trace: str
    seed: int
    scale: str
    dir: pathlib.Path
    messages: int = 0
    scores: Counter = field(default_factory=Counter)
    rows: Counter = field(default_factory=Counter)
    warnings: Counter = field(default_factory=Counter)
    incidents: Counter = field(default_factory=Counter)

    @property
    def trace_dir(self) -> pathlib.Path:
        return self.dir / "trace"

    @property
    def templates(self) -> pathlib.Path:
        return self.dir / "templates.json"

    @property
    def model_dir(self) -> pathlib.Path:
        return self.dir / "model"

    @property
    def ref_dir(self) -> pathlib.Path:
        return self.dir / "ref"

    def digests(self) -> Dict[str, str]:
        return {
            f"{self.trace}.trace": sha256_of(self.trace_dir),
            f"{self.trace}.templates": sha256_of(self.templates),
            # config.json names the templates by absolute path, so only
            # the (byte-stable) weights identify the model.
            f"{self.trace}.model": sha256_of(self.model_dir / "weights.npz"),
        }


def _inputs_key(scale: Scale) -> str:
    """Digest of what prepared inputs depend on: the scale's arguments
    and the sources of ``repro``."""
    digest = hashlib.sha256(repr(scale).encode())
    src = ROOT / "src" / "repro"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def prepare(trace: str, seed: int, scale: str) -> Inputs:
    """Simulate, mine and train through the CLI; compute references.

    Cached: a directory holding ``inputs.json`` is complete and reused.
    """
    if not CLI_SOURCE.exists():
        raise BenchError(
            f"{CLI_SOURCE} not found: run from a checkout of the repository"
        )
    spec = SCALES[scale].traces[trace]
    base = BUILD / scale
    key = _inputs_key(SCALES[scale])
    inputs = Inputs(trace, seed, scale, base / f"{trace}-s{seed}-{key}")
    marker = inputs.dir / "inputs.json"
    if not marker.exists():
        shutil.rmtree(inputs.dir, ignore_errors=True)
        inputs.dir.mkdir(parents=True)
        log = inputs.dir / "prepare.log"
        _run_cli(["simulate", "--out", str(inputs.trace_dir), "--seed",
                  str(seed), *spec.simulate], log)
        _run_cli(["mine", "--trace", str(inputs.trace_dir), "--out",
                  str(inputs.templates)], log)
        _run_cli(["train", "--trace", str(inputs.trace_dir), "--templates",
                  str(inputs.templates), "--out", str(inputs.model_dir),
                  *spec.train], log)
        own = "paper-1shard" if trace == "paper" else "wide-rca"
        inputs.ref_dir.mkdir()
        for leg in legs(workload(own), inputs, inputs.ref_dir):
            result = measure(leg)
            if result.exit_code != leg.expect_exit:
                raise BenchError(
                    f"reference serve exited {result.exit_code}:\n"
                    f"{result.log_tail}"
                )
        code = subprocess.run(
            [sys.executable, str(HERE / "reference.py"),
             str(inputs.ref_dir / "svc" / "store"), str(inputs.trace_dir),
             str(inputs.dir / "reference.json")],
            cwd=ROOT, env=child_env(), timeout=600,
        ).returncode
        if code != 0:
            raise BenchError(f"reference scoring exited {code}")
        shutil.rmtree(inputs.ref_dir / "svc")
        marker.write_text(json.dumps({"trace": trace, "seed": seed}))
    os.utime(marker)
    _prune(base, trace)
    inputs.scores = Counter(
        json.loads((inputs.dir / "reference.json").read_text())
    )
    inputs.messages = sum(inputs.scores.values())
    inputs.rows = Counter(_lines(inputs.ref_dir / "scores.csv"))
    inputs.warnings = _warnings([inputs.ref_dir / "warnings.csv"], 1)
    inputs.incidents = Counter(_lines(inputs.ref_dir / "incidents.csv"))
    return inputs


def _prune(base: pathlib.Path, trace: str) -> None:
    done = sorted(
        (m.stat().st_mtime, m.parent)
        for m in base.glob(f"{trace}-*/inputs.json")
    )
    for _, stale in done[:-KEEP_INPUTS]:
        shutil.rmtree(stale, ignore_errors=True)


# -- one serve leg ---------------------------------------------------------


@dataclass(frozen=True)
class Leg:
    """One ``serve`` invocation of a workload.

    ``scores`` and ``warnings`` are the ``--scores-out`` and
    ``--warnings-out`` paths; with ``shards`` > 1 each worker appends
    ``.shardNN`` to them.
    """

    args: Tuple[str, ...]
    scores: pathlib.Path
    warnings: pathlib.Path
    shards: int = 1
    expect_exit: int = 0

    def files(self, base: pathlib.Path) -> List[pathlib.Path]:
        if self.shards == 1:
            return [base]
        return [
            base.with_name(f"{base.name}.shard{k:02d}")
            for k in range(self.shards)
        ]


def legs(wl: Workload, inputs: Inputs, run_dir: pathlib.Path) -> List[Leg]:
    """The serve invocations of one run of ``wl``; the last is measured."""
    scale = SCALES[inputs.scale]

    def serve(tag: str, *extra: str, shards: int = 1,
              expect_exit: int = 0) -> Leg:
        scores = run_dir / f"scores{tag}.csv"
        warnings = run_dir / f"warnings{tag}.csv"
        args = (
            "serve", "--data-dir", str(run_dir / "svc"), "--trace",
            str(inputs.trace_dir), "--tick-size", str(scale.tick_size),
            "--scores-out", str(scores), "--warnings-out", str(warnings),
            *extra,
        )
        return Leg(args, scores, warnings, shards, expect_exit)

    model = ("--model", str(inputs.model_dir))
    if wl.name == "paper-1shard":
        return [serve("", *model, "--threshold", "6.0")]
    if wl.name == "paper-2shard":
        return [serve("", *model, "--threshold", "6.0", "--shards", "2",
                      shards=2)]
    if wl.name == "wide-rca":
        return [serve(
            "", *model, "--threshold", "6.5", "--rca", "--topology",
            str(inputs.trace_dir / "topology.json"), "--incidents-out",
            str(run_dir / "incidents.csv"),
        )]
    every, kill = scale.crash
    return [
        serve("-1", *model, "--threshold", "6.0", "--checkpoint-every",
              str(every), "--kill-after-ticks", str(kill), expect_exit=3),
        serve("-2", "--replay", "--checkpoint-every", str(every)),
    ]


@dataclass
class Measured:
    """One serve process, timed from outside by :mod:`measure`."""

    exit_code: int
    setup_s: float
    drain_s: float
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    log_tail: str


def measure(leg: Leg, spans: Optional[pathlib.Path] = None) -> Measured:
    """Run one serve leg under :mod:`measure`.

    ``setup_s`` ends at the first score row on disk.  With ``spans`` set
    the leg runs under :mod:`traced`, writing span files and a telemetry
    snapshot to that directory.
    """
    if spans is None:
        argv = [sys.executable, "-m", "repro", *leg.args]
    else:
        spans.mkdir(parents=True, exist_ok=True)
        argv = [sys.executable, str(HERE / "traced.py"), str(spans),
                *leg.args, "--telemetry-out", str(spans / "telemetry.json")]
    log = leg.scores.with_suffix(".log")
    request = {
        "argv": argv, "log": str(log), "timeout": LEG_TIMEOUT_S,
        "watch": [str(path) for path in leg.files(leg.scores)],
    }
    out = subprocess.run(
        [sys.executable, str(HERE / "measure.py"), json.dumps(request)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=LEG_TIMEOUT_S + 60,
    )
    if out.returncode != 0:
        raise BenchError(f"measure.py exited {out.returncode}:\n"
                         f"{out.stderr[-2000:]}")
    tail = log.read_text()[-2000:] if log.exists() else ""
    return Measured(**json.loads(out.stdout), log_tail=tail)


# -- outputs and checks ----------------------------------------------------


def _lines(path: pathlib.Path) -> List[str]:
    if not path.exists():
        return []
    return path.read_text().splitlines()


def _warnings(paths: Sequence[pathlib.Path], skip: int) -> Counter:
    """Warnings as ``(vpe, time, first, n, peak)`` with the tick
    (and shard) columns dropped."""
    out: Counter = Counter()
    for path in paths:
        for row in csv.reader(_lines(path)):
            out[tuple(row[skip:])] += 1
    return out


def mismatched(reference: Counter, served: Counter) -> int:
    """Items missing, extra or changed: a changed item is missing once
    and extra once, and counts once."""
    return max(
        sum((reference - served).values()),
        sum((served - reference).values()),
    )


def check(
    wl: Workload, inputs: Inputs, plan: List[Leg], run_dir: pathlib.Path
) -> Tuple[int, List[str]]:
    """Failed messages and every problem in one run's outputs.

    A message fails when its served score is missing, duplicated or not
    bitwise equal to the offline reference; on ``crash-replay`` also
    when its row differs from ``paper-1shard``'s after ``sort -u``.
    Warnings and incidents that differ are problems but fail no message.
    """
    skip = 1 if plan[-1].shards > 1 else 0
    rows = [line for leg in plan for path in leg.files(leg.scores)
            for line in _lines(path)]
    warnings = _warnings(
        [path for leg in plan for path in leg.files(leg.warnings)], 1 + skip
    )
    checks: Dict[str, int] = {}
    if wl.name == "crash-replay":
        # Replayed ticks re-land in leg 2's files; bitwise-identical
        # duplicates collapse, as under sort -u.
        rows = sorted(set(rows))
        warnings = Counter(set(warnings))
        checks["score rows vs paper-1shard"] = mismatched(
            inputs.rows, Counter(rows)
        )
    served = Counter(line.split(",")[2 + skip] for line in rows)
    checks["scores vs offline reference"] = mismatched(inputs.scores, served)
    failed = max(checks.values())
    own = "paper-1shard" if wl.trace == "paper" else "reference run"
    checks[f"warnings vs {own}"] = mismatched(inputs.warnings, warnings)
    if wl.name == "wide-rca":
        incidents = Counter(_lines(run_dir / "incidents.csv"))
        checks["incidents vs reference run"] = mismatched(
            inputs.incidents, incidents
        ) or (0 if incidents else 1)
    problems = [
        f"{wl.name}: {count} {what} differ"
        for what, count in checks.items() if count
    ]
    return failed, problems


@dataclass
class RunOutcome:
    """One run of a workload: its metrics and its correctness."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    problems: List[str]
    traced: Optional[ledger.TracedRun] = None


def run_legs(
    wl: Workload, inputs: Inputs, run_dir: pathlib.Path,
    spans: Optional[pathlib.Path] = None,
) -> Tuple[List[Leg], List[Measured]]:
    """Serve every leg of ``wl`` into ``run_dir``; the last one traced
    into ``spans`` when given.  Stops at the first unexpected exit."""
    plan = legs(wl, inputs, run_dir)
    results: List[Measured] = []
    for i, leg in enumerate(plan):
        results.append(measure(leg, spans if i == len(plan) - 1 else None))
        if results[-1].exit_code != leg.expect_exit:
            break
    return plan, results


def run_workload(
    wl: Workload, inputs: Inputs, traced: bool = False
) -> RunOutcome:
    """Run every leg of ``wl`` once, check the outputs, derive metrics."""
    (BUILD / "runs").mkdir(parents=True, exist_ok=True)
    run_dir = pathlib.Path(
        tempfile.mkdtemp(prefix=f"{wl.name}-", dir=BUILD / "runs")
    )
    try:
        spans = run_dir / "spans" if traced else None
        plan, results = run_legs(wl, inputs, run_dir, spans)
        for leg, result in zip(plan, results):
            if result.exit_code != leg.expect_exit:
                # An unexpected exit fails every message of the run.
                return RunOutcome(
                    {}, inputs.messages, inputs.messages,
                    [f"{wl.name}: serve exited {result.exit_code}, "
                     f"expected {leg.expect_exit}\n{result.log_tail}"],
                )
        failed, problems = check(wl, inputs, plan, run_dir)
        outcome = RunOutcome(
            _metrics(wl, plan, results[-1]), inputs.messages, failed,
            problems,
        )
        if spans is not None:
            telemetry = spans / "telemetry.json"
            outcome.traced = ledger.TracedRun(
                ledger.load(spans), results[-1].wall_s,
                json.loads(telemetry.read_text())
                if telemetry.exists() else {},
            )
        return outcome
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _metrics(
    wl: Workload, plan: List[Leg], last: Measured
) -> Dict[str, float]:
    leg = plan[-1]
    rows = [line for path in leg.files(leg.scores) for line in _lines(path)]
    live = len(rows)
    if wl.name == "crash-replay":
        # Leg 1 scored every tick before the one it crashed on; leg 2
        # replays through that tick, then serves live.
        crashed = 1 + max((int(line.split(",")[0])
                           for line in _lines(plan[0].scores)), default=0)
        live = sum(1 for line in rows if int(line.split(",")[0]) > crashed)
    # A run that wrote no rows has failed its check; its rates are 0.
    return {
        "msgs_per_s": live / last.drain_s if last.drain_s > 0 else 0.0,
        "setup_s": last.setup_s,
        "cpu_us_per_msg": 1e6 * last.cpu_s / max(1, len(rows)),
        "peak_rss_mb": last.peak_rss_mb,
    }


# -- statistics and the host -----------------------------------------------


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles (``statistics.quantiles``, n=4)."""
    values = list(values)
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


_PROBE = """\
import json, multiprocessing, platform, numpy
try:
    blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']
    blas = f"{blas['name']} {blas.get('version', '')}".strip()
except Exception:
    blas = 'unknown'
print(json.dumps({'python': platform.python_version(),
                  'numpy': numpy.__version__, 'blas': blas,
                  'start_method': multiprocessing.get_start_method()}))
"""


def _git(*args: str) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True,
            timeout=30,
        )
    except OSError:
        return None
    return out.stdout if out.returncode == 0 else None


def fingerprint(inputs: Sequence[Inputs]) -> Dict[str, object]:
    """What the numbers depend on besides the code: host, libraries,
    environment, commit and input digests."""
    probe = subprocess.run(
        [sys.executable, "-c", _PROBE], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=60,
    )
    info = json.loads(probe.stdout) if probe.returncode == 0 else {}
    head = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--", "src", "benchmarks/e2e",
                  "BENCHMARK.json")
    digests: Dict[str, str] = {}
    for item in inputs:
        digests.update(item.digests())
    return {
        "cores": len(os.sched_getaffinity(0)),
        **info,
        "env": {
            name: os.environ.get(name, "unset")
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")
        },
        "commit": head.strip() if head else "unknown",
        "dirty": bool(status.strip()) if status is not None else None,
        "inputs": digests,
    }
