"""The behaviour lock: fixed inputs, recorded outputs.

The fixture in ``tests/integration/lock/`` holds a small trace (four
vPEs, one month, tickets and a topology) and a model trained on it
once.  :func:`run` drives ``mine``, ``detect`` and three ``serve``
runs over it (one shard, ``--shards 2`` and ``--rca --topology``), and
``tests/integration/test_behaviour_lock.py`` compares their outputs
with the ones recorded under ``expected/``.  To re-record::

    PYTHONPATH=src python scripts/behaviour_lock.py

A re-record is a behaviour change: name it in CHANGES.md and say why.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import sys
import tempfile
from typing import Dict, List

ROOT = pathlib.Path(__file__).resolve().parents[1]
LOCK_DIR = ROOT / "tests" / "integration" / "lock"
EXPECTED_DIR = LOCK_DIR / "expected"

#: The anomaly threshold every run uses; no score lies near it.
THRESHOLD = "5.0"

#: ``serve`` runs: output subdirectory -> extra flags.  ``{trace}`` is
#: the fixture trace directory.  The RCA run writes no score CSV: its
#: scores are the one-shard run's.
SERVES: Dict[str, List[str]] = {
    "serve-1": ["--scores-out", "scores.csv"],
    "serve-2": ["--scores-out", "scores.csv", "--shards", "2"],
    "serve-rca": [
        "--rca", "--topology", "{trace}/topology.json",
        "--incidents-out", "incidents.csv",
    ],
}


def run(out: pathlib.Path, work: pathlib.Path) -> None:
    """Run every locked command over the fixture, outputs into ``out``.

    ``work`` receives the model directory and the serve data dirs.
    """
    from repro.cli import main

    trace = LOCK_DIR / "trace"
    model = work / "model"
    model.mkdir(parents=True)
    shutil.copy(LOCK_DIR / "model" / "weights.npz", model)
    config = json.loads((LOCK_DIR / "model" / "config.json").read_text())
    config["templates"] = str(LOCK_DIR / "model" / config["templates"])
    (model / "config.json").write_text(json.dumps(config))
    out.mkdir(parents=True, exist_ok=True)
    _check(main([
        "mine", "--trace", str(trace), "--out", str(out / "templates.json"),
    ]))
    _check(main([
        "detect", "--trace", str(trace), "--model", str(model),
        "--threshold", THRESHOLD, "--out", str(out / "anomalies.csv"),
    ]))
    for name, flags in SERVES.items():
        target = out / name
        target.mkdir()
        extra = [
            str(target / flag) if flag.endswith(".csv") else
            flag.format(trace=trace)
            for flag in flags
        ]
        _check(main([
            "serve", "--data-dir", str(work / name),
            "--trace", str(trace), "--model", str(model),
            "--threshold", THRESHOLD, "--tick-size", "64",
            "--checkpoint-every", "8",
            "--warnings-out", str(target / "warnings.csv"), *extra,
        ]))


def _check(code: int) -> None:
    if code != 0:
        raise SystemExit(f"a locked command exited {code}")


def main() -> int:
    """Re-record ``expected/`` from this checkout's code."""
    with tempfile.TemporaryDirectory() as scratch:
        out = pathlib.Path(scratch) / "out"
        run(out, pathlib.Path(scratch) / "work")
        shutil.rmtree(EXPECTED_DIR, ignore_errors=True)
        shutil.copytree(out, EXPECTED_DIR)
    recorded = sorted(
        str(path.relative_to(EXPECTED_DIR))
        for path in EXPECTED_DIR.rglob("*") if path.is_file()
    )
    print(f"recorded {len(recorded)} files in {EXPECTED_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
