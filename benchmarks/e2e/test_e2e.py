"""Tests of the end-to-end benchmark at ``--scale smoke``.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

They run the real CLI on traces of a few thousand messages, so the
module takes under a minute once its inputs are prepared.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import types

import pytest

import harness
import ledger
import run
import traced

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def record():
    return run.run_all(seed=None, repeats=1, seconds=0, scale="smoke")


@pytest.fixture(scope="module")
def inputs(record):
    # Prepared (and cached) by the record's run.
    return {
        trace: harness.prepare(trace, seed, "smoke")
        for trace, seed in harness.SEEDS.items()
    }


def test_spec_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(
        harness.WORKLOAD_NAMES
    )
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == (
        harness.UNITS
    )
    for metric in SPEC["end_to_end"]:
        # A run reports its median serve or its best one.
        best = {"higher": max, "lower": min}[metric["better"]]
        assert run.RUN_STATISTIC[metric["name"]] in (statistics.median, best)
    for metric in SPEC["per_layer"]:
        assert ledger.UNITS[metric["name"]] == metric["unit"]


def test_record_names_match_benchmark_json(record):
    assert list(record["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for name, w in record["workloads"].items():
        assert {m: v["unit"] for m, v in w["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC["end_to_end"]
        }, name
        # Every declared per-layer metric is measured on every workload.
        for metric in SPEC["per_layer"]:
            assert w["per_layer"][metric["name"]]["unit"] == metric["unit"]
        assert w["absent"] == [], name


def test_correctness_check_passes(record):
    for name, w in record["workloads"].items():
        assert w["problems"] == [], name
        assert w["attempted"] > 0
        assert w["failed_msgs_fraction"] == 0.0, name


@pytest.mark.parametrize("trace, section", [
    (False, "end_to_end"), (True, "per_layer"),
])
def test_result_line_carries_the_declared_metrics(trace, section):
    result = run.bench("paper-2shard", 7, 0, trace, "smoke")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[section]
    }


def test_corrupted_score_row_is_a_failed_message(inputs, tmp_path):
    wl = harness.workload("paper-1shard")
    plan, results = harness.run_legs(wl, inputs["paper"], tmp_path)
    assert [r.exit_code for r in results] == [0]
    assert harness.check(wl, inputs["paper"], plan, tmp_path) == (0, [])

    scores = plan[0].scores
    rows = scores.read_text().splitlines()
    # One finite score off in the last bits (warm-up rows score nan) ...
    i = next(i for i, row in enumerate(rows) if row.split(",")[2] != "nan")
    tick, index, score, kept = rows[i].split(",")
    rows[i] = ",".join([tick, index, repr(float(score) * (1 + 1e-12)), kept])
    rows.append(rows[0])  # ... and one message scored twice.
    scores.write_text("\n".join(rows) + "\n")
    failed, problems = harness.check(wl, inputs["paper"], plan, tmp_path)
    assert failed == 2
    assert problems == ["paper-1shard: 2 scores vs offline reference differ"]


def test_missing_target_is_reported_absent(tmp_path, monkeypatch):
    class Engine:
        def step(self, batch):
            return len(batch)

    module = types.ModuleType("fake_layer")
    module.Engine = Engine
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    tracer = traced.Tracer(tmp_path)
    tracer.install([
        traced.Target("fake_layer", "Engine.step", "fake.step",
                      traced._arg_len(1)),
        traced.Target("fake_layer", "Engine.gone", "fake.gone"),
        traced.Target("no_such_module", "step", "fake.other"),
    ])
    assert Engine().step([1, 2, 3]) == 3
    tracer.flush()
    (process,) = ledger.load(tmp_path)
    assert process.absent == ["fake_layer:Engine.gone", "no_such_module:step"]
    assert [(s.name, s.n) for s in process.spans] == [("fake.step", 3)]


def test_forked_workers_flush_their_spans(inputs):
    outcome = harness.run_workload(
        harness.workload("paper-2shard"), inputs["paper"], traced=True
    )
    assert outcome.failed == 0 and outcome.traced is not None
    workers = outcome.traced.workers
    assert len(workers) == 2
    # Workers end with os._exit, past atexit; their files exist anyway.
    assert all(w.named("service.process_tick") for w in workers)
    assert all(w.named("fleet.worker") for w in workers)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "paper-1shard", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
    assert "cannot run" in out.stderr


@pytest.mark.parametrize("a, b, higher, expected", [
    # B beats A in 10 of 10 pairs, by more than A's spread.
    ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
     [110, 111, 109, 110, 112, 108, 110, 111, 109, 110], True, "better"),
    # B's median is 20% worse with a 10% bound.
    ([100] * 10, [80] * 10, True, "worse"),
    ([1.0] * 10, [1.2] * 10, False, "worse"),
    # Within the bound, and A's spread is within it too.
    ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
     [99, 100, 98, 101, 100, 99, 101, 100, 98, 100], True, "unchanged"),
    # A's own runs spread wider than the bound.
    ([70, 130, 80, 120, 100, 90, 110, 75, 125, 100],
     [95, 105, 90, 110, 100, 85, 115, 100, 100, 98], True, "unresolved"),
])
def test_verdict(a, b, higher, expected):
    assert run.verdict(a, b, higher, 0.1) == expected


def test_compare_refuses_different_inputs(tmp_path, capsys):
    def record(digest):
        return {
            "fingerprint": {"inputs": {"paper.trace": digest}},
            "workloads": {},
        }

    (tmp_path / "a.jsonl").write_text(json.dumps(record("x")) + "\n")
    (tmp_path / "b.jsonl").write_text(json.dumps(record("y")) + "\n")
    assert run.compare(str(tmp_path / "a.jsonl"),
                       str(tmp_path / "b.jsonl")) == 2
    assert "digests differ" in capsys.readouterr().err
