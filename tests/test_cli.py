"""Tests for the repro CLI (simulate → mine → train → detect → report).

The full workflow runs once per module on a tiny trace; individual
tests assert on the artifacts each stage produces.
"""

import argparse
import csv
import json
import os
import shutil
from collections import Counter

import numpy as np
import pytest

from repro.cli import _report, main, read_trace
from repro.runtime.blas import blas_threads
from repro.runtime.session import ShardOutcome
from repro.runtime.store import ArtifactStore
from repro.runtime.wal import WriteAheadLog


@pytest.fixture(scope="module")
def workflow(tmp_path_factory, capsys_disabled=None):
    root = tmp_path_factory.mktemp("cli")
    trace = root / "trace"
    templates = root / "templates.json"
    model = root / "model"
    anomalies = root / "anomalies.csv"
    assert main([
        "simulate", "--out", str(trace), "--vpes", "3",
        "--months", "2", "--rate", "6", "--seed", "4",
    ]) == 0
    assert main([
        "mine", "--trace", str(trace), "--out", str(templates),
        "--max-messages", "8000",
    ]) == 0
    assert main([
        "train", "--trace", str(trace), "--templates",
        str(templates), "--out", str(model),
        "--epochs", "1", "--hidden", "12", "--window", "6",
        "--max-samples", "2000",
    ]) == 0
    assert main([
        "detect", "--trace", str(trace), "--model", str(model),
        "--out", str(anomalies),
    ]) == 0
    return {
        "trace": trace,
        "templates": templates,
        "model": model,
        "anomalies": anomalies,
    }


class TestSimulate:
    def test_trace_layout(self, workflow):
        trace = workflow["trace"]
        meta = json.loads((trace / "meta.json").read_text())
        assert len(meta["vpes"]) == 3
        for vpe in meta["vpes"]:
            assert (trace / f"{vpe}.jsonl").exists()
        assert (trace / "tickets.csv").exists()

    def test_trace_roundtrip(self, workflow):
        meta, messages, tickets = read_trace(workflow["trace"])
        assert set(messages) == set(meta["vpes"])
        assert all(
            list(stream) == sorted(stream, key=lambda m: m.timestamp)
            for stream in messages.values()
        )
        assert tickets
        assert all(
            meta["start"] <= t.report_time for t in tickets
        )


class TestMine:
    def test_templates_json(self, workflow):
        payload = json.loads(workflow["templates"].read_text())
        assert payload["version"] == 1
        assert len(payload["templates"]) > 10


class TestTrain:
    def test_model_artifacts(self, workflow):
        model = workflow["model"]
        assert (model / "weights.npz").exists()
        config = json.loads((model / "config.json").read_text())
        assert config["window"] == 6


class TestDetect:
    def test_anomaly_rows(self, workflow):
        with open(workflow["anomalies"]) as handle:
            rows = list(csv.DictReader(handle))
        assert rows, "the trace contains faults; detection can't be empty"
        meta, _, _ = read_trace(workflow["trace"])
        for row in rows:
            assert row["vpe"] in meta["vpes"]
            assert float(row["score"]) > 0
            assert meta["start"] <= float(row["time"]) <= meta["end"]

    def test_explicit_threshold(self, workflow, tmp_path):
        out = tmp_path / "a.csv"
        assert main([
            "detect", "--trace", str(workflow["trace"]),
            "--model", str(workflow["model"]),
            "--out", str(out), "--threshold", "1e9",
        ]) == 0
        with open(out) as handle:
            assert len(list(csv.DictReader(handle))) == 0


class TestReport:
    def test_report_prints_metrics(self, workflow, capsys):
        assert main([
            "report", "--trace", str(workflow["trace"]),
            "--anomalies", str(workflow["anomalies"]),
        ]) == 0
        out = capsys.readouterr().out
        assert "precision" in out
        assert "recall" in out
        assert "false alarms / day" in out


class TestOfflineTraceErrors:
    """A torn trace line ends every offline command with the one-line
    ``<path>:<line>: …`` reason and exit code 2, as ``serve`` does."""

    @pytest.mark.parametrize(
        "command", ["mine", "train", "detect", "report"]
    )
    def test_torn_line_exits_2_without_traceback(
        self, workflow, tmp_path, capfd, command
    ):
        trace = tmp_path / "trace"
        shutil.copytree(workflow["trace"], trace)
        path = trace / "vpe01.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]) + lines[-1][:17])
        args = {
            "mine": ["--out", str(tmp_path / "templates.json")],
            "train": [
                "--templates", str(workflow["templates"]),
                "--out", str(tmp_path / "model"),
            ],
            "detect": [
                "--model", str(workflow["model"]),
                "--out", str(tmp_path / "anomalies.csv"),
            ],
            "report": ["--anomalies", str(workflow["anomalies"])],
        }[command]
        capfd.readouterr()
        assert main([command, "--trace", str(trace), *args]) == 2
        err = capfd.readouterr().err
        assert "Traceback" not in err
        assert f"vpe01.jsonl:{len(lines)}: malformed JSON" in err

    def test_nan_timestamp_exits_2_naming_the_line(
        self, workflow, tmp_path, capfd
    ):
        """Python's json reads ``NaN``; a message stamped with it is
        refused, not silently dropped as out of order."""
        trace = tmp_path / "trace"
        shutil.copytree(workflow["trace"], trace)
        path = trace / "vpe01.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        record = json.loads(lines[4])
        record["ts"] = float("nan")
        lines[4] = json.dumps(record) + "\n"
        path.write_text("".join(lines))
        capfd.readouterr()
        assert main([
            "mine", "--trace", str(trace),
            "--out", str(tmp_path / "templates.json"),
        ]) == 2
        err = capfd.readouterr().err
        assert err.splitlines() == [
            f"{path}:5: bad record (timestamp is not finite and >= 0: nan)"
        ]


class TestTickets:
    """``serve`` and ``detect`` read no ``tickets.csv``: a collector's
    directory holds none.  ``mine``, ``train`` and ``report`` need it,
    and refuse a missing or malformed one in one line, with exit 2."""

    @staticmethod
    def copy_trace(workflow, tmp_path):
        trace = tmp_path / "trace"
        shutil.copytree(workflow["trace"], trace)
        return trace

    def test_serve_needs_no_tickets(self, workflow, tmp_path):
        bare = self.copy_trace(workflow, tmp_path)
        (bare / "tickets.csv").unlink()
        scores = {}
        for name, trace in (("with", workflow["trace"]), ("bare", bare)):
            out = tmp_path / f"scores-{name}.csv"
            assert main([
                "serve", "--data-dir", str(tmp_path / f"svc-{name}"),
                "--trace", str(trace), "--model", str(workflow["model"]),
                "--threshold", "4.0", "--tick-size", "64",
                "--max-ticks", "20", "--scores-out", str(out),
            ]) == 0
            scores[name] = out.read_bytes()
        assert scores["bare"] == scores["with"]
        assert scores["bare"].count(b"\n") == 20 * 64

    def test_detect_needs_no_tickets(self, workflow, tmp_path):
        trace = self.copy_trace(workflow, tmp_path)
        (trace / "tickets.csv").unlink()
        out = tmp_path / "anomalies.csv"
        assert main([
            "detect", "--trace", str(trace),
            "--model", str(workflow["model"]), "--out", str(out),
        ]) == 0
        assert out.read_bytes() == workflow["anomalies"].read_bytes()

    @pytest.mark.parametrize("command", ["mine", "train", "report"])
    @pytest.mark.parametrize(
        "defect, reason",
        [
            ("missing", "tickets.csv: cannot read (No such file or directory)"),
            (
                "not_a_cause",
                "tickets.csv:3: bad ticket ('not_a_cause' is not a valid "
                "RootCause)",
            ),
            ("no_field", "tickets.csv:2: row has no 'repair_time' field"),
        ],
    )
    def test_bad_tickets_refused_in_one_line(
        self, workflow, tmp_path, capfd, command, defect, reason
    ):
        trace = self.copy_trace(workflow, tmp_path)
        path = trace / "tickets.csv"
        lines = path.read_text().splitlines(keepends=True)
        if defect == "missing":
            path.unlink()
        elif defect == "not_a_cause":
            vpe, _, rest = lines[2].split(",", 2)
            lines[2] = f"{vpe},not_a_cause,{rest}"
            path.write_text("".join(lines))
        else:
            lines[0] = lines[0].replace("repair_time", "repaired")
            path.write_text("".join(lines))
        args = {
            "mine": ["--out", str(tmp_path / "templates.json")],
            "train": [
                "--templates", str(workflow["templates"]),
                "--out", str(tmp_path / "model"),
            ],
            "report": ["--anomalies", str(workflow["anomalies"])],
        }[command]
        capfd.readouterr()
        assert main([command, "--trace", str(trace), *args]) == 2
        assert capfd.readouterr().err.splitlines() == [f"{trace}/{reason}"]


class TestTelemetrySubcommand:
    @pytest.fixture(scope="class")
    def snapshot_path(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("telemetry") / "snapshot.json"
        assert main([
            "telemetry", "--check", "--out", str(out),
        ]) == 0
        return out

    def test_snapshot_schema(self, snapshot_path):
        snapshot = json.loads(snapshot_path.read_text())
        assert set(snapshot) == {"counters", "gauges", "histograms"}
        for section in snapshot.values():
            assert isinstance(section, dict)
        for payload in snapshot["histograms"].values():
            assert set(payload) == {"edges", "counts", "sum", "count"}
            assert len(payload["counts"]) == len(payload["edges"]) + 1
            assert sum(payload["counts"]) == payload["count"]

    def test_snapshot_covers_every_layer(self, snapshot_path):
        snapshot = json.loads(snapshot_path.read_text())
        names = (
            list(snapshot["counters"])
            + list(snapshot["gauges"])
            + list(snapshot["histograms"])
        )
        for prefix in ("mine.", "match.", "train.", "stream.", "adapt."):
            assert any(n.startswith(prefix) for n in names), prefix

    def test_check_invariants_hold(self, snapshot_path):
        snapshot = json.loads(snapshot_path.read_text())
        assert snapshot["counters"]["stream.messages_scored"] > 0
        assert snapshot["gauges"]["match.memo_hit_rate"] >= 0.5
        assert snapshot["counters"]["stream.n_reordered"] == 0

    def test_prometheus_format_names_every_metric(
        self, snapshot_path, tmp_path
    ):
        out = tmp_path / "snapshot.prom"
        assert main([
            "telemetry", "--format", "prometheus",
            "--out", str(out),
        ]) == 0
        text = out.read_text()
        snapshot = json.loads(snapshot_path.read_text())
        helped = {
            line.split(" ", 3)[3]
            for line in text.splitlines()
            if line.startswith("# HELP ")
        }
        assert helped == {
            name for section in snapshot.values() for name in section
        }
        assert "# TYPE repro_stream_ticks counter" in text
        ticks = snapshot["counters"]["stream.ticks"]
        assert f"\nrepro_stream_ticks {ticks}\n" in text


class TestServe:
    """The durable-service subcommand, including the crash drill the
    CI ``service-e2e`` job runs: kill a run mid-tick, replay, and
    expect the score CSVs to unify with an uninterrupted run's."""

    SERVE_ARGS = [
        "--threshold", "4.0", "--tick-size", "64",
        "--checkpoint-every", "5",
    ]

    def serve(self, workflow, data_dir, *extra):
        return main([
            "serve", "--data-dir", str(data_dir),
            "--trace", str(workflow["trace"]),
            "--model", str(workflow["model"]),
            *self.SERVE_ARGS, *extra,
        ])

    @staticmethod
    def rows(path):
        return set(path.read_text().splitlines())

    def test_bootstrap_requires_model(self, tmp_path):
        assert main([
            "serve", "--data-dir", str(tmp_path / "svc"),
        ]) == 2

    def test_crash_replay_matches_uninterrupted(
        self, workflow, tmp_path, capsys
    ):
        a_csv = tmp_path / "a.csv"
        b_csv = tmp_path / "b.csv"
        assert self.serve(
            workflow, tmp_path / "a", "--scores-out", str(a_csv)
        ) == 0
        assert self.serve(
            workflow, tmp_path / "b", "--scores-out", str(b_csv),
            "--kill-after-ticks", "12",
        ) == 3
        assert "simulated crash" in capsys.readouterr().err
        assert self.serve(
            workflow, tmp_path / "b", "--scores-out", str(b_csv),
            "--replay",
        ) == 0
        assert self.rows(a_csv) == self.rows(b_csv)
        assert len(self.rows(a_csv)) > 100

    def test_quantized_crash_replay_matches_uninterrupted(
        self, workflow, tmp_path, capsys
    ):
        """``--quantized`` replay reproduces the int8 run, whose scores
        are not the f64 ones."""

        def run(name, *extra):
            return self.serve(
                workflow, tmp_path / name,
                "--scores-out", str(tmp_path / f"{name}.csv"),
                "--warnings-out", str(tmp_path / f"{name}-warnings.csv"),
                *extra,
            )

        assert run("f64") == 0
        assert run("int8", "--quantized") == 0
        assert run("crash", "--quantized", "--kill-after-ticks", "12") == 3
        assert "simulated crash" in capsys.readouterr().err
        assert run("crash", "--quantized", "--replay") == 0
        for suffix in (".csv", "-warnings.csv"):
            assert self.rows(tmp_path / f"int8{suffix}") == self.rows(
                tmp_path / f"crash{suffix}"
            )

        def scores(name):
            rows = (r.split(",") for r in self.rows(tmp_path / f"{name}.csv"))
            return {(tick, i): score for tick, i, score, _ in rows}

        f64, int8 = scores("f64"), scores("int8")
        assert f64.keys() == int8.keys()
        scored = [key for key, score in f64.items() if score != "nan"]
        assert len(scored) > 100
        assert all(f64[key] != int8[key] for key in scored)

    def test_blind_restart_refused(self, workflow, tmp_path, capsys):
        data = tmp_path / "svc"
        assert self.serve(workflow, data, "--max-ticks", "3") == 0
        assert self.serve(workflow, data) == 2
        assert "--replay" in capsys.readouterr().err

    def test_resume_continues_feed(self, workflow, tmp_path):
        data = tmp_path / "svc"
        out = tmp_path / "scores.csv"
        full = tmp_path / "full.csv"
        assert self.serve(
            workflow, data, "--max-ticks", "4",
            "--scores-out", str(out),
        ) == 0
        assert self.serve(
            workflow, data, "--replay", "--max-ticks", "4",
            "--scores-out", str(out),
        ) == 0
        assert self.serve(
            workflow, tmp_path / "ref", "--max-ticks", "8",
            "--scores-out", str(full),
        ) == 0
        assert self.rows(full) <= self.rows(out)

    def test_rollback_requires_history(self, workflow, tmp_path, capsys):
        data = tmp_path / "svc"
        assert self.serve(workflow, data, "--max-ticks", "1") == 0
        assert main([
            "serve", "--data-dir", str(data), "--rollback",
        ]) == 2
        assert "no retained" in capsys.readouterr().err

    def test_telemetry_out_written(self, workflow, tmp_path):
        out = tmp_path / "telemetry.json"
        assert self.serve(
            workflow, tmp_path / "svc", "--max-ticks", "4",
            "--telemetry-out", str(out),
        ) == 0
        snapshot = json.loads(out.read_text())
        counters = snapshot["counters"]
        assert counters["runtime.ticks"] == 4
        assert counters["runtime.wal.appends"] >= 4
        assert counters["runtime.checkpoint.writes"] >= 1

    def test_auto_adapt_matches_each_message_once(
        self, workflow, tmp_path
    ):
        """The drift watcher reads the scorer's template ids: with no
        fine-tune, one match (a first-probe hit or miss) per served
        message."""
        out = tmp_path / "telemetry.json"
        assert self.serve(
            workflow, tmp_path / "svc", "--max-ticks", "12",
            "--auto-adapt", "--telemetry-out", str(out),
        ) == 0
        counters = json.loads(out.read_text())["counters"]
        assert "adapt.fine_tune.launched" not in counters
        assert counters["stream.messages_ingested"] == 12 * 64
        assert (
            counters["match.memo_hits"] + counters["match.memo_misses"]
            == counters["stream.messages_ingested"]
        )


class TestParser:
    def test_missing_subcommand_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand_exits_with_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "subcommand",
        [
            "simulate", "mine", "train", "detect", "report",
            "telemetry", "serve",
        ],
    )
    def test_subcommand_help_exits_zero(self, subcommand, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([subcommand, "--help"])
        assert excinfo.value.code == 0
        assert "usage:" in capsys.readouterr().out


class TestFleetServe:
    """``serve --shards N``: the fleet runtime from the CLI, including
    the kill drill CI's ``fleet-e2e`` job scripts: crash every shard
    after a few ticks (exit 3), restart with ``--replay``, and expect
    the unioned per-shard CSVs to match an uninterrupted fleet's."""

    SERVE_ARGS = [
        "--threshold", "4.0", "--tick-size", "64",
        "--checkpoint-every", "5", "--shards", "3",
    ]

    def serve(self, workflow, data_dir, *extra):
        return main([
            "serve", "--data-dir", str(data_dir),
            "--trace", str(workflow["trace"]),
            "--model", str(workflow["model"]),
            *self.SERVE_ARGS, *extra,
        ])

    @staticmethod
    def rows(base):
        merged = set()
        for path in sorted(base.parent.glob(base.name + ".shard*")):
            merged.update(path.read_text().splitlines())
        return merged

    def test_fleet_run_scores_whole_feed(
        self, workflow, tmp_path, capsys
    ):
        out = tmp_path / "scores.csv"
        assert self.serve(
            workflow, tmp_path / "fleet", "--scores-out", str(out)
        ) == 0
        text = capsys.readouterr().out
        assert "across 3 shards" in text
        assert "fleet state in" in text
        merged = self.rows(out)
        assert len(merged) > 100
        shards_seen = {row.split(",")[0] for row in merged}
        assert len(shards_seen) >= 2, "feed must spread over shards"

    def test_kill_drill_replay_reaches_parity(
        self, workflow, tmp_path, capsys
    ):
        baseline = tmp_path / "baseline.csv"
        drilled = tmp_path / "drilled.csv"
        assert self.serve(
            workflow, tmp_path / "a", "--scores-out", str(baseline)
        ) == 0
        assert self.serve(
            workflow, tmp_path / "b", "--scores-out", str(drilled),
            "--kill-after-ticks", "2",
        ) == 3
        assert "simulated crash" in capsys.readouterr().err
        assert self.serve(
            workflow, tmp_path / "b", "--scores-out", str(drilled),
            "--replay",
        ) == 0
        assert "replayed" in capsys.readouterr().out
        assert self.rows(baseline) == self.rows(drilled)

    def test_blind_fleet_restart_refused(
        self, workflow, tmp_path, capsys
    ):
        data = tmp_path / "fleet"
        assert self.serve(workflow, data, "--max-ticks", "3") == 0
        assert self.serve(workflow, data) == 2
        assert "--replay" in capsys.readouterr().err

    def test_shard_count_must_match_journal(
        self, workflow, tmp_path, capsys
    ):
        data = tmp_path / "fleet"
        assert self.serve(workflow, data, "--max-ticks", "3") == 0
        assert main([
            "serve", "--data-dir", str(data),
            "--trace", str(workflow["trace"]),
            "--threshold", "4.0", "--shards", "4", "--replay",
        ]) == 2
        assert "records 3 shards" in capsys.readouterr().err

    @staticmethod
    def publish_second_release(workflow, data, shards):
        from repro.cli import _load_detector
        from repro.runtime.service import stage_release
        from repro.runtime.store import ArtifactStore

        detector = _load_detector(workflow["model"])
        for shard in shards:
            store = ArtifactStore(data / f"shard-{shard:02d}" / "store")
            stage_release(store, detector, 5.0)

    @staticmethod
    def current(data, shard):
        return (data / f"shard-{shard:02d}" / "store" / "CURRENT").read_text()

    def test_rollback_refused_in_fleet_mode(
        self, workflow, tmp_path, capsys
    ):
        """A fleet rolls back all its stores or none: one shard without
        an earlier release refuses the rollback before any store moves."""
        data = tmp_path / "fleet"
        assert self.serve(workflow, data, "--max-ticks", "2") == 0
        self.publish_second_release(workflow, data, [0, 2])
        capsys.readouterr()
        assert main([
            "serve", "--data-dir", str(data), "--shards", "3",
            "--rollback",
        ]) == 2
        assert "shard-01/store: release 1 has no retained" in (
            capsys.readouterr().err
        )
        assert [self.current(data, k) for k in range(3)] == ["2", "1", "2"]

    def test_rollback_rolls_back_every_shard(
        self, workflow, tmp_path, capsys
    ):
        data = tmp_path / "fleet"
        assert self.serve(workflow, data, "--max-ticks", "2") == 0
        self.publish_second_release(workflow, data, [0, 1, 2])
        assert main([
            "serve", "--data-dir", str(data), "--shards", "3",
            "--rollback",
        ]) == 0
        assert capsys.readouterr().out.count("rolled back") == 3
        assert [self.current(data, k) for k in range(3)] == ["1"] * 3
        # the journaled rollback swaps replay, and the feed resumes
        assert self.serve(workflow, data, "--replay") == 0

    def test_fleet_telemetry_out(self, workflow, tmp_path):
        out = tmp_path / "telemetry.json"
        scores = tmp_path / "scores.csv"
        assert self.serve(
            workflow, tmp_path / "fleet",
            "--telemetry-out", str(out), "--scores-out", str(scores),
        ) == 0
        snapshot = json.loads(out.read_text())
        counters = snapshot["counters"]
        # worker registries merged in: runtime totals span the fleet
        ticks = {tuple(row.split(",")[:2]) for row in self.rows(scores)}
        assert counters["runtime.ticks"] == len(ticks) > 0
        assert counters["fleet.shard_deaths"] == 0
        assert snapshot["gauges"]["fleet.shards"] == 3


#: ``TestServeErrors`` cases the fleet coordinator refuses itself,
#: before any worker starts.
WHOLE_FLEET_CASES = ("foreign-lock", "bad-shard-count", "bad-topology")


class TestServeReport:
    def test_abandoned_fine_tune_is_reported(self, capsys):
        args = argparse.Namespace(rca=False, auto_adapt=True)
        _report(args, ShardOutcome(live_ticks=3, abandoned=1), "")
        out = capsys.readouterr().out
        assert "1 fine-tune(s) abandoned at shutdown" in out
        assert "--replay" in out


class TestServeErrors:
    """Bad on-disk state or input ends ``serve`` with a one-line reason
    and exit 2 in both modes: no traceback from the CLI, and none from
    a fleet worker either.  A bad trace reaches a fleet as a shard's
    startup error, before any shard ingests."""

    SERVE_ARGS = [
        "--threshold", "4.0", "--tick-size", "64",
        "--checkpoint-every", "5",
    ]

    @staticmethod
    def corrupt(case, data, shards, trace):
        if case == "foreign-lock":
            # The parent process is alive and is not this one.
            (data / "LOCK").write_text(f"{os.getppid()}\n")
        elif case == "unknown-record":
            root = data if shards == 1 else data / "shard-00"
            wal = WriteAheadLog(root / "wal")
            wal.append(wal.last_sequence + 1, b"\x99mystery bytes")
            wal.close()
        elif case == "bad-shard-count":
            (data / "SHARDS").write_text("2\x00")
        elif case == "torn-checkpoint":
            root = data if shards == 1 else data / "shard-00"
            path = root / "checkpoint.npz"
            path.write_bytes(path.read_bytes()[:-100])
        elif case in ("layout-1-checkpoint", "monitor-state-version"):
            root = data if shards == 1 else data / "shard-00"
            path = root / "checkpoint.npz"
            with np.load(path) as archive:
                meta = json.loads(archive["meta"].tobytes())
                arrays = {
                    key: archive[key] for key in archive.files
                    if key != "meta"
                }
            if case == "layout-1-checkpoint":
                # The first layout: JSON in a numpy unicode scalar.
                meta["checkpoint_version"] = 1
                raw = np.array(json.dumps(meta))
            else:
                meta["monitor"]["version"] = 1
                raw = np.frombuffer(json.dumps(meta).encode(), np.uint8)
            with open(path, "wb") as handle:
                np.savez(handle, meta=raw, **arrays)
        elif case in ("torn-weights-blob", "edited-weights-blob"):
            root = data if shards == 1 else data / "shard-00"
            store = ArtifactStore(root / "store")
            release = store.manifest(store.current_id())
            blob = store.object_path(release.artifacts["weights.npz"])
            if case == "torn-weights-blob":
                blob.write_bytes(blob.read_bytes()[:-100])
            else:
                # Re-saved with one weight moved: the archive parses.
                with np.load(blob) as archive:
                    weights = {key: archive[key] for key in archive.files}
                weights["output.b"] = weights["output.b"] + 1.0
                with open(blob, "wb") as handle:
                    np.savez(handle, **weights)
        elif case == "missing-file":
            meta = json.loads((trace / "meta.json").read_text())
            meta["vpes"].append("vpe99")
            (trace / "meta.json").write_text(json.dumps(meta))
        elif case in (
            "torn-line", "missing-field", "foreign-host", "nan-timestamp",
        ):
            path = trace / "vpe00.jsonl"
            lines = path.read_text().splitlines(keepends=True)
            record = json.loads(lines[1])
            if case == "torn-line":
                lines[1] = lines[1][:17]
            elif case == "missing-field":
                del record["host"]
                lines[1] = json.dumps(record) + "\n"
            elif case == "nan-timestamp":
                record["ts"] = float("nan")
                lines[1] = json.dumps(record) + "\n"
            else:
                record["host"] = "vpe01"
                lines[1] = json.dumps(record) + "\n"
            path.write_text("".join(lines))

    @pytest.mark.parametrize(
        "case, shards, reason",
        [
            ("foreign-lock", 1, "held by live pid"),
            ("foreign-lock", 2, "held by live pid"),
            ("unknown-record", 1, "unrecognized journal record"),
            ("unknown-record", 2, "unrecognized journal record"),
            ("bad-shard-count", 2, "malformed shard count"),
            ("torn-checkpoint", 1, "checkpoint.npz: unreadable checkpoint"),
            ("torn-checkpoint", 2, "checkpoint.npz: unreadable checkpoint"),
            ("layout-1-checkpoint", 1, "checkpoint version 1 is not"),
            ("layout-1-checkpoint", 2, "checkpoint version 1 is not"),
            ("monitor-state-version", 1, "monitor state version 1 is not"),
            ("monitor-state-version", 2, "monitor state version 1 is not"),
            ("torn-weights-blob", 1, "failed content verification"),
            ("torn-weights-blob", 2, "failed content verification"),
            ("edited-weights-blob", 1, "failed content verification"),
            ("edited-weights-blob", 2, "failed content verification"),
            ("bad-topology", 1, "cannot read topology"),
            ("bad-topology", 2, "cannot read topology"),
            ("torn-line", 1, "vpe00.jsonl:2: malformed JSON"),
            ("torn-line", 2, "vpe00.jsonl:2: malformed JSON"),
            ("missing-field", 1, "vpe00.jsonl:2: record has no 'host'"),
            ("missing-field", 2, "vpe00.jsonl:2: record has no 'host'"),
            ("missing-file", 1, "vPE 'vpe99' has no file vpe99.jsonl"),
            ("missing-file", 2, "vPE 'vpe99' has no file vpe99.jsonl"),
            ("foreign-host", 1, "vpe00.jsonl:2: host 'vpe01' is not"),
            ("foreign-host", 2, "vpe00.jsonl:2: host 'vpe01' is not"),
            ("nan-timestamp", 1, "vpe00.jsonl:2: bad record (timestamp is"),
        ],
    )
    def test_typed_error_exits_2_without_traceback(
        self, workflow, tmp_path, capfd, case, shards, reason
    ):
        data = tmp_path / "svc"
        trace = tmp_path / "trace"
        shutil.copytree(workflow["trace"], trace)
        serve = [
            "serve", "--data-dir", str(data),
            "--trace", str(trace),
            "--model", str(workflow["model"]),
            "--shards", str(shards), *self.SERVE_ARGS,
        ]
        assert main([*serve, "--max-ticks", "2"]) == 0
        self.corrupt(case, data, shards, trace)
        extra = ["--replay"]
        if case == "bad-topology":
            extra += [
                "--rca", "--topology", str(tmp_path / "missing.json"),
            ]
        capfd.readouterr()
        assert main([*serve, *extra]) == 2
        err = capfd.readouterr().err
        assert "Traceback" not in err
        assert reason in err
        if shards > 1 and case not in WHOLE_FLEET_CASES:
            # A shard's own state or trace: its worker's error frame.
            assert "failed to start" in err


def broken_models(workflow, root):
    """Copies of the workflow's model: one with a torn weights archive,
    one with a malformed config."""
    torn, bad = root / "torn-weights", root / "bad-config"
    for model in (torn, bad):
        shutil.copytree(workflow["model"], model)
    weights = torn / "weights.npz"
    weights.write_bytes(weights.read_bytes()[:-100])
    (bad / "config.json").write_text('{"capacity": ')
    return {"torn_weights": torn, "bad_config": bad}


SERVE = [
    "serve", "--data-dir", "{data}", "--trace", "{trace}",
    "--model", "{model}", "--threshold", "4.0",
]


class TestRefusedInput:
    """A number out of range or a missing model ends ``serve`` and
    ``detect`` with one line naming the flag or path, and exit 2; the
    numbers are refused before the data dir is written."""

    @pytest.mark.parametrize(
        "argv, reason",
        [
            ([*SERVE, "--tick-size", "0"], "--tick-size must be >= 1, got 0"),
            ([*SERVE, "--tick-size", "-5"], "--tick-size must be >= 1, got -5"),
            (
                [*SERVE, "--checkpoint-every", "0"],
                "--checkpoint-every must be >= 1, got 0",
            ),
            ([*SERVE, "--shards", "0"], "--shards must be >= 1, got 0"),
            ([*SERVE, "--shards", "-2"], "--shards must be >= 1, got -2"),
            (
                [*SERVE, "--keep-releases", "0"],
                "--keep-releases must be >= 1, got 0",
            ),
            (
                [*SERVE, "--rca", "--rca-gap", "0"],
                "--rca-gap must be > 0, got 0.0",
            ),
            (
                [*SERVE, "--auto-adapt", "--drift-threshold", "2"],
                "--drift-threshold must be in (0, 1), got 2.0",
            ),
            (
                [*SERVE, "--model", "{missing}"],
                "{missing}/config.json: cannot read the model",
            ),
            (
                [
                    "detect", "--trace", "{trace}", "--model", "{missing}",
                    "--out", "{data}.csv",
                ],
                "{missing}/config.json: cannot read the model",
            ),
            (
                [
                    "detect", "--trace", "{trace}",
                    "--model", "{torn_weights}", "--out", "{data}.csv",
                ],
                "{torn_weights}/weights.npz: cannot load the model "
                "(BadZipFile:",
            ),
            (
                [
                    "detect", "--trace", "{trace}",
                    "--model", "{bad_config}", "--out", "{data}.csv",
                ],
                "{bad_config}/config.json: cannot load the model "
                "(JSONDecodeError:",
            ),
        ],
    )
    def test_refused_in_one_line(
        self, workflow, tmp_path, capfd, argv, reason
    ):
        paths = {
            "data": tmp_path / "svc",
            "trace": workflow["trace"],
            "model": workflow["model"],
            "missing": tmp_path / "no-model",
            **broken_models(workflow, tmp_path),
        }
        capfd.readouterr()
        assert main([arg.format(**paths) for arg in argv]) == 2
        err = capfd.readouterr().err
        assert len(err.splitlines()) == 1
        assert reason.format(**paths) in err
        assert not paths["data"].exists()

    @pytest.mark.parametrize(
        "first",
        [
            ["--model", "{missing}"],
            ["--model", "{torn}"],
            ["--model", "{torn_weights}"],
            ["--model", "{bad_config}"],
            [],
            ["--model", "{model}", "--rca", "--topology", "{missing}"],
            ["--rollback"],
            ["--model", "{model}", "--trace", "{missing}"],
            ["--model", "{model}", "--trace", "{unlisted}"],
            ["--model", "{model}", "--trace", "{unparsed}"],
        ],
        ids=[
            "missing-model", "missing-templates", "torn-weights",
            "malformed-config", "no-model", "no-topology",
            "rollback", "missing-trace", "vpe-without-file",
            "vpe-file-unparsed",
        ],
    )
    @pytest.mark.parametrize("shards", ["1", "2"])
    def test_refused_first_run_leaves_data_dir_free(
        self, workflow, tmp_path, capfd, first, shards
    ):
        """A first run refused for its model, its topology, its trace
        or a rollback with nothing to roll back writes nothing, so a
        rerun with a good model, another threshold and another shard
        count serves that threshold."""
        torn = tmp_path / "torn-model"
        torn.mkdir()
        config = json.loads((workflow["model"] / "config.json").read_text())
        config["templates"] = str(tmp_path / "no-templates.json")
        (torn / "config.json").write_text(json.dumps(config))
        # Under --shards 2 only the shard owning vpe02 cannot read its
        # feed; the fleet must refuse the whole first run.
        unlisted = tmp_path / "unlisted-trace"
        shutil.copytree(workflow["trace"], unlisted)
        (unlisted / "vpe02.jsonl").unlink()
        unparsed = tmp_path / "unparsed-trace"
        shutil.copytree(workflow["trace"], unparsed)
        with open(unparsed / "vpe02.jsonl", "a") as handle:
            handle.write('{"ts": 1e18, "host": "vpe02"\n')
        paths = {
            "missing": tmp_path / "no-model",
            "torn": torn,
            "model": workflow["model"],
            "unlisted": unlisted,
            "unparsed": unparsed,
            **broken_models(workflow, tmp_path),
        }
        data = tmp_path / "svc"
        serve = [
            "serve", "--data-dir", str(data),
            "--trace", str(workflow["trace"]), "--max-ticks", "2",
        ]
        capfd.readouterr()
        refused = [arg.format(**paths) for arg in first]
        assert main([
            *serve, *refused, "--threshold", "6.0", "--shards", shards,
        ]) == 2
        assert len(capfd.readouterr().err.splitlines()) == 1
        assert not data.exists()
        assert main([
            *serve, "--model", str(workflow["model"]),
            "--threshold", "4.0", "--shards", "3",
        ]) == 0
        assert (data / "SHARDS").read_text() == "3\n"
        for shard in range(3):
            store = ArtifactStore(data / f"shard-{shard:02d}" / "store")
            config = json.loads(store.read(store.current_id(), "config.json"))
            assert config["threshold"] == 4.0


class TestServeModesAgree:
    """``serve`` and ``serve --shards 2`` run the same shard function
    per shard, so they score every message bitwise-identically and
    raise the same warnings; only the tick (and shard) columns differ.
    Incidents are per shard by design, so they are not compared."""

    @staticmethod
    def rows(base, shards):
        paths = (
            [base]
            if shards == 1
            else sorted(base.parent.glob(base.name + ".shard*"))
        )
        skip = 0 if shards == 1 else 1
        return [
            line.split(",")[skip:]
            for path in paths
            for line in path.read_text().splitlines()
        ]

    def agree(self, workflow, tmp_path, *extra):
        scores, warnings = {}, {}
        for shards in (1, 2):
            scores_csv = tmp_path / f"scores{shards}.csv"
            warnings_csv = tmp_path / f"warnings{shards}.csv"
            assert main([
                "serve", "--data-dir", str(tmp_path / f"svc{shards}"),
                "--trace", str(workflow["trace"]),
                "--model", str(workflow["model"]),
                "--threshold", "4.0", "--tick-size", "64",
                "--shards", str(shards),
                "--scores-out", str(scores_csv),
                "--warnings-out", str(warnings_csv),
                *extra,
            ]) == 0
            # (repr(score), kept), without the tick and row index.
            scores[shards] = Counter(
                tuple(row[2:]) for row in self.rows(scores_csv, shards)
            )
            warnings[shards] = Counter(
                tuple(row[1:]) for row in self.rows(warnings_csv, shards)
            )
        assert sum(scores[1].values()) > 100
        assert scores[1] == scores[2]
        assert warnings[1]
        assert warnings[1] == warnings[2]

    def test_one_and_two_shards_agree(self, workflow, tmp_path):
        self.agree(workflow, tmp_path)

    @pytest.mark.parametrize("flags", ["auto-adapt", "rca"])
    def test_one_and_two_shards_agree_under_flags(
        self, workflow, tmp_path, flags
    ):
        """Each shard runs its own controller or RCA engine.  This trace
        never drifts far enough for a swap in either mode, so the
        controllers must observe without moving a score."""
        if flags == "auto-adapt":
            self.agree(workflow, tmp_path, "--auto-adapt", "--adapt-inline")
            return
        from repro.topology import TopologyConfig, generate_topology

        meta, _, _ = read_trace(workflow["trace"])
        topology = tmp_path / "topology.json"
        generate_topology(meta["vpes"], TopologyConfig()).save(topology)
        self.agree(
            workflow, tmp_path, "--rca", "--topology", str(topology),
            "--incidents-out", str(tmp_path / "incidents.csv"),
        )


@pytest.mark.skipif(
    blas_threads() is None, reason="numpy does not run on OpenBLAS here"
)
class TestServeBlasThreads:
    """Each fleet worker runs one BLAS thread, so two shards' default
    pools no longer fight over the cores; the coordinator process
    keeps its own count.  (The single-shard process is a session's,
    pinned in ``tests/runtime/test_session.py``.)"""

    def test_one_thread_per_fleet_worker(self, workflow, tmp_path):
        before = blas_threads()
        out = tmp_path / "telemetry.json"
        assert main([
            "serve", "--data-dir", str(tmp_path / "svc"),
            "--trace", str(workflow["trace"]),
            "--model", str(workflow["model"]),
            "--threshold", "4.0", "--tick-size", "64",
            "--max-ticks", "4", "--shards", "2",
            "--telemetry-out", str(out),
        ]) == 0
        gauges = json.loads(out.read_text())["gauges"]
        assert gauges["blas.threads"] == 1
        assert blas_threads() == before


class TestTelemetryMerge:
    def snapshot_file(self, tmp_path, name, ticks):
        from repro.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("runtime.ticks").inc(ticks)
        registry.gauge("runtime.backlog").set(float(ticks))
        path = tmp_path / name
        path.write_text(json.dumps(registry.snapshot()))
        return path

    def test_merge_sums_counters(self, tmp_path, capsys):
        a = self.snapshot_file(tmp_path, "a.json", 3)
        b = self.snapshot_file(tmp_path, "b.json", 4)
        assert main([
            "telemetry", "--merge", str(a), str(b),
        ]) == 0
        merged = json.loads(capsys.readouterr().out)
        assert merged["counters"]["runtime.ticks"] == 7
        assert merged["gauges"]["runtime.backlog"] == 4.0

    def test_merge_writes_out_file(self, tmp_path):
        a = self.snapshot_file(tmp_path, "a.json", 2)
        out = tmp_path / "merged.json"
        assert main([
            "telemetry", "--merge", str(a), "--out", str(out),
        ]) == 0
        assert json.loads(out.read_text())["counters"][
            "runtime.ticks"
        ] == 2

    def test_merge_rejects_check(self, tmp_path, capsys):
        a = self.snapshot_file(tmp_path, "a.json", 1)
        assert main([
            "telemetry", "--merge", str(a), "--check",
        ]) == 2
        assert "does not apply" in capsys.readouterr().err

    def test_merge_missing_file_errors(self, tmp_path, capsys):
        assert main([
            "telemetry", "--merge", str(tmp_path / "nope.json"),
        ]) == 2
        assert "cannot merge" in capsys.readouterr().err


class TestServeRca:
    """``serve --rca``: streaming root-cause analysis on a labeled
    correlated-outage trace, including the crash drill the CI
    ``rca-e2e`` job runs — kill mid-incident, replay, and expect the
    incident CSVs to unify (``sort -u``) with an uninterrupted run."""

    SERVE_ARGS = [
        "--threshold", "4.0", "--tick-size", "64",
        "--checkpoint-every", "5",
    ]

    @pytest.fixture(scope="class")
    def rca_workflow(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("rca-cli")
        trace = root / "trace"
        templates = root / "templates.json"
        model = root / "model"
        assert main([
            "simulate", "--out", str(trace), "--vpes", "6",
            "--months", "1", "--rate", "6", "--seed", "4",
            "--topology", "--scenario", "correlated-outage",
            "--outages", "3",
        ]) == 0
        assert main([
            "mine", "--trace", str(trace), "--out", str(templates),
            "--max-messages", "8000",
        ]) == 0
        assert main([
            "train", "--trace", str(trace), "--templates",
            str(templates), "--out", str(model),
            "--epochs", "1", "--hidden", "12", "--window", "6",
            "--max-samples", "2000",
        ]) == 0
        return {"trace": trace, "model": model}

    def serve(self, rca_workflow, data_dir, incidents, *extra):
        trace = rca_workflow["trace"]
        return main([
            "serve", "--data-dir", str(data_dir),
            "--trace", str(trace),
            "--model", str(rca_workflow["model"]),
            "--rca", "--topology", str(trace / "topology.json"),
            "--incidents-out", str(incidents),
            *self.SERVE_ARGS, *extra,
        ])

    @staticmethod
    def rows(path):
        return set(path.read_text().splitlines())

    def test_trace_carries_topology_and_labels(self, rca_workflow):
        trace = rca_workflow["trace"]
        assert (trace / "topology.json").exists()
        labels = (trace / "incidents.csv").read_text().splitlines()
        assert len(labels) == 1 + 3  # header + outages

    def test_crash_replay_incident_parity(
        self, rca_workflow, tmp_path, capsys
    ):
        """The acceptance drill: a killed-and-replayed run's incident
        CSV must sort -u to exactly the uninterrupted run's."""
        a_csv = tmp_path / "a.csv"
        b_csv = tmp_path / "b.csv"
        assert self.serve(rca_workflow, tmp_path / "a", a_csv) == 0
        assert "rca:" in capsys.readouterr().out
        assert self.serve(
            rca_workflow, tmp_path / "b", b_csv,
            "--kill-after-ticks", "12",
        ) == 3
        assert self.serve(
            rca_workflow, tmp_path / "b", b_csv, "--replay",
        ) == 0
        assert self.rows(a_csv) == self.rows(b_csv)
        assert len(self.rows(a_csv)) >= 3

    def test_incident_rows_are_well_formed(
        self, rca_workflow, tmp_path
    ):
        from repro.rca import INCIDENT_CSV_COLUMNS
        from repro.topology import FleetTopology

        incidents = tmp_path / "incidents.csv"
        assert self.serve(
            rca_workflow, tmp_path / "svc", incidents
        ) == 0
        topology = FleetTopology.load(
            rca_workflow["trace"] / "topology.json"
        )
        rows = sorted(self.rows(incidents))
        assert rows
        for row in rows:
            fields = row.split(",")
            assert len(fields) == len(INCIDENT_CSV_COLUMNS)
            devices = fields[4].split(";")
            for device in devices:
                assert device in topology
            assert fields[7] in {
                "circuit", "site", "cable", "software", "device",
            }
            assert 0.0 < float(fields[9]) <= 1.0

    def test_fleet_rca_writes_shard_incident_files(
        self, rca_workflow, tmp_path
    ):
        incidents = tmp_path / "incidents.csv"
        assert self.serve(
            rca_workflow, tmp_path / "fleet", incidents,
            "--shards", "2",
        ) == 0
        shard_files = sorted(
            incidents.parent.glob(incidents.name + ".shard*")
        )
        assert len(shard_files) == 2
        merged = set()
        for path in shard_files:
            for row in path.read_text().splitlines():
                shard, _, rest = row.partition(",")
                assert shard in {"0", "1"}
                merged.add(rest)
        assert merged
