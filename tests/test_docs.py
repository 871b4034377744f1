"""Repository-consistency checks: docs reference real artifacts.

DESIGN.md promises a bench per experiment and EXPERIMENTS.md cites
bench modules; these tests keep those promises honest as the code
evolves.
"""

import importlib.util
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).parent.parent


def read(name):
    return (ROOT / name).read_text()


class TestDesignDoc:
    def test_every_cited_bench_exists(self):
        cited = set(
            re.findall(r"benchmarks/(test_\w+\.py)", read("DESIGN.md"))
        )
        assert cited, "DESIGN.md must cite bench modules"
        for name in cited:
            assert (ROOT / "benchmarks" / name).exists(), name

    def test_every_bench_is_indexed(self):
        """Each benchmark module appears in DESIGN.md (experiment
        index or ablation table)."""
        design = read("DESIGN.md")
        benches = sorted(
            p.name
            for p in (ROOT / "benchmarks").glob("test_*.py")
        )
        missing = [
            name for name in benches if name not in design
        ]
        assert not missing, f"unindexed benches: {missing}"

    def test_inventory_modules_exist(self):
        design = read("DESIGN.md")
        for dotted in set(re.findall(r"`repro\.([\w.]+)`", design)):
            path = ROOT / "src" / "repro"
            parts = dotted.split(".")
            candidates = [
                path.joinpath(*parts).with_suffix(".py"),
                path.joinpath(*parts) / "__init__.py",
            ]
            assert any(c.exists() for c in candidates), dotted


class TestExperimentsDoc:
    def test_cited_benches_exist(self):
        cited = set(
            re.findall(r"(test_\w+\.py)", read("EXPERIMENTS.md"))
        )
        assert cited
        for name in cited:
            assert (ROOT / "benchmarks" / name).exists(), name


class TestReadme:
    def test_examples_exist(self):
        readme = read("README.md")
        for name in set(re.findall(r"examples/(\w+\.py)", readme)):
            assert (ROOT / "examples" / name).exists(), name

    def test_quickstart_mentioned(self):
        assert "examples/quickstart.py" in read("README.md")


class TestExamples:
    def test_every_example_has_module_docstring_and_main(self):
        for path in (ROOT / "examples").glob("*.py"):
            source = path.read_text()
            assert source.lstrip().startswith(
                ("#!/usr/bin/env python3", '"""')
            ), path.name
            assert "def main()" in source, path.name
            assert '__name__ == "__main__"' in source, path.name

    def test_every_example_imports(self):
        """Each example loads, so every name it imports exists; its
        ``main()`` does not run."""
        paths = sorted((ROOT / "examples").glob("*.py"))
        assert paths
        for path in paths:
            spec = importlib.util.spec_from_file_location(
                f"examples.{path.stem}", path
            )
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            assert callable(module.main), path.name


class TestServiceDocs:
    """README's service section mirrors the real serve CLI."""

    def test_readme_has_service_section(self):
        assert "## Running as a service" in read("README.md")

    def test_every_serve_flag_documented(self):
        from repro.cli import build_parser

        parser = build_parser()
        subparsers = next(
            action
            for action in parser._actions
            if hasattr(action, "choices") and action.choices
        )
        serve = subparsers.choices["serve"]
        flags = {
            option
            for action in serve._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"
        }
        assert flags, "serve must define long options"
        readme = read("README.md")
        section = readme.split("## Running as a service", 1)[1]
        section = section.split("\n## ", 1)[0]
        missing = sorted(f for f in flags if f not in section)
        assert not missing, (
            f"serve flags absent from the README service section: "
            f"{missing}"
        )

    def test_design_documents_runtime_layer(self):
        design = read("DESIGN.md")
        assert "repro.runtime" in design
        assert "python -m repro serve" in design


class TestStaticAnalysisDocs:
    """The README codes table mirrors `python -m repro check --list`."""

    def _readme_table(self):
        readme = read("README.md")
        rows = re.findall(
            r"^\| (RPR\d{3}) \| (.+?) \|$", readme, flags=re.MULTILINE
        )
        return {code: rationale.strip() for code, rationale in rows}

    def test_readme_codes_match_list_output(self):
        from repro.devtools.cli import code_rationales

        table = self._readme_table()
        assert table, "README must carry the RPR codes table"
        assert table == code_rationales()

    def test_design_mentions_invariant_checker(self):
        design = read("DESIGN.md")
        assert "repro.devtools" in design
        assert "python -m repro check" in design


class TestFleetDocs:
    """README's fleet section mirrors the fleet CLI and BENCH table."""

    def section(self):
        readme = read("README.md")
        assert "## Fleet serving" in readme
        section = readme.split("## Fleet serving", 1)[1]
        return section.split("\n## ", 1)[0]

    def test_fleet_flags_documented(self):
        section = self.section()
        for flag in ("--shards", "--kill-after-ticks", "--replay"):
            assert flag in section, flag

    def test_fleet_mechanics_documented(self):
        section = self.section()
        for term in (
            "SHARDS",
            "shard-NN/",
            "BENCH_fleet.json",
            "sort -u",
            "--merge",
        ):
            assert term in section, term

    def newest_default_run(self):
        import json

        payload = json.loads(read("BENCH_fleet.json"))
        runs = [
            run
            for run in payload["runs"]
            if run.get("scale") == "default"
        ]
        assert runs, "BENCH_fleet.json must hold a default-scale run"
        return runs[-1]

    def test_bench_fleet_trajectory_shape(self):
        record = self.newest_default_run()
        assert "fleet_scaling" in record["benchmarks"]
        assert "kill_drill" in record["benchmarks"]
        drill = record["benchmarks"]["kill_drill"]
        assert drill["score_parity"] is True
        assert drill["dropped_rows"] == 0
        assert drill["double_scored_rows"] == 0

    def test_readme_table_matches_newest_default_run(self):
        """The README throughput table cites the newest default-scale
        BENCH_fleet.json run: 1-shard baselines as msgs/s, multi-shard
        points as scaling ratios.  Rerun the suite, refresh the table."""
        section = self.section()
        record = self.newest_default_run()
        for point in record["benchmarks"]["fleet_scaling"]["sweep"]:
            if point["shards"] == 1:
                cell = f"{round(point['msgs_per_s']):,} msgs/s"
            else:
                cell = f"{point['scaling_vs_1shard']:.2f}×"
            assert cell in section, (
                f"devices={point['devices']} shards={point['shards']}:"
                f" expected {cell!r} in the README fleet table"
            )

    def test_design_documents_fleet_layer(self):
        design = read("DESIGN.md")
        assert "repro.runtime.fleet" in design
        assert "repro.runtime.ring" in design
        assert "serve\n  --shards N" in design or "--shards" in design


class TestAdaptDocs:
    """README's adaptation section mirrors the adapt CLI and BENCH
    table."""

    def section(self):
        readme = read("README.md")
        assert "## Live adaptation" in readme
        section = readme.split("## Live adaptation", 1)[1]
        return section.split("\n## ", 1)[0]

    def test_adapt_flags_documented(self):
        section = self.section()
        for flag in (
            "--auto-adapt",
            "--drift-threshold",
            "--drift-checks",
            "--adapt-replay-ticks",
            "--probation-ticks",
            "--rollback-ratio",
            "--adapt-epochs",
            "--adapt-cooldown-ticks",
            "--adapt-inline",
            "--adapt-poison",
        ):
            assert flag in section, flag

    def test_adapt_mechanics_documented(self):
        section = self.section()
        for term in (
            "cosine",
            "probation",
            "store.rollback()",
            "adapt.swap.applied",
            "adapt.rollback.applied",
            "BENCH_adapt.json",
            "drift-soak-e2e",
        ):
            assert term in section, term

    def newest_default_run(self):
        import json

        payload = json.loads(read("BENCH_adapt.json"))
        runs = [
            run
            for run in payload["runs"]
            if run.get("scale") == "default"
        ]
        assert runs, "BENCH_adapt.json must hold a default-scale run"
        return runs[-1]

    def test_bench_adapt_trajectory_shape(self):
        record = self.newest_default_run()["benchmarks"]
        assert record["fine_tune"]["replay_messages"] > 0
        assert record["background_ingest"]["tuning_ticks"] > 0
        assert record["background_ingest"]["dip_fraction"] < 0.20

    def test_readme_table_matches_newest_default_run(self):
        """The README cost table cites the newest default-scale
        BENCH_adapt.json run.  Rerun the suite, refresh the table."""
        section = self.section()
        record = self.newest_default_run()["benchmarks"]
        tune = record["fine_tune"]
        ingest = record["background_ingest"]
        cells = [
            f"{tune['replay_messages']:,} msgs × {tune['epochs']} epochs",
            f"{tune['fine_tune_s']:.2f} s",
            f"{round(tune['train_msgs_per_s']):,} msgs/s",
            f"{tune['publish_s'] * 1000:.1f} ms",
            f"{record['swap_pause']['pause_s'] * 1000:.1f} ms",
            f"{round(ingest['tuning_msgs_per_s']):,} vs "
            f"{round(ingest['baseline_msgs_per_s']):,} msgs/s",
            f"{ingest['dip_fraction'] * 100:.1f}% dip",
        ]
        for cell in cells:
            assert cell in section, (
                f"expected {cell!r} in the README adaptation table"
            )

    def test_design_documents_adapt_layer(self):
        design = read("DESIGN.md")
        assert "repro.runtime.adapt" in design
        assert "--auto-adapt" in design


class TestRcaDocs:
    """README's root-cause section mirrors the rca CLI and BENCH
    table."""

    def section(self):
        readme = read("README.md")
        assert "## Root-cause analysis" in readme
        section = readme.split("## Root-cause analysis", 1)[1]
        return section.split("\n## ", 1)[0]

    def test_rca_flags_documented(self):
        section = self.section()
        for flag in (
            "--rca",
            "--topology",
            "--incidents-out",
            "--rca-gap",
            "--scenario correlated-outage",
        ):
            assert flag in section, flag

    def test_cause_taxonomy_documented(self):
        from repro.topology.graph import (
            KIND_CABLE,
            KIND_CIRCUIT,
            KIND_DEVICE,
            KIND_SITE,
            KIND_SOFTWARE,
        )

        section = self.section()
        for kind in (
            KIND_CABLE,
            KIND_CIRCUIT,
            KIND_DEVICE,
            KIND_SITE,
            KIND_SOFTWARE,
        ):
            assert f"| `{kind}` |" in section, kind

    def test_rca_mechanics_documented(self):
        section = self.section()
        for term in (
            "topology.json",
            "incidents.csv",
            "attenuation",
            "RCA_STATE_VERSION",
            "rca.incidents_opened",
            "rca.attribution_seconds",
            "sort -u",
            "BENCH_rca.json",
            "rca-e2e",
        ):
            assert term in section, term

    def newest_default_run(self):
        import json

        payload = json.loads(read("BENCH_rca.json"))
        runs = [
            run
            for run in payload["runs"]
            if run.get("scale") == "default"
        ]
        assert runs, "BENCH_rca.json must hold a default-scale run"
        return runs[-1]

    def test_bench_rca_trajectory_shape(self):
        record = self.newest_default_run()["benchmarks"]
        assert record["attribution"]["macro_f1"] >= 0.80
        assert record["overhead"]["overhead_fraction"] < 0.05

    def test_readme_table_matches_newest_default_run(self):
        """The README metric table cites the newest default-scale
        BENCH_rca.json run.  Rerun the suite, refresh the table."""
        section = self.section()
        record = self.newest_default_run()["benchmarks"]
        attribution = record["attribution"]
        overhead = record["overhead"]
        storm = record["storm"]
        cells = [
            f"{attribution['macro_f1']:.3f}",
            f"{attribution['element_accuracy']:.2f}",
            f"{attribution['n_matched']}/{attribution['n_outages']} "
            f"matched, {attribution['n_spurious']} spurious",
            f"{attribution['mean_detection_s']:.0f} s",
            f"{attribution['mean_attribution_s'] / 3600:.1f} h",
            f"{overhead['overhead_fraction'] * 100:.2f}%",
            f"{storm['per_anomaly_us']:.1f} µs per anomaly",
        ]
        for cell in cells:
            assert cell in section, (
                f"expected {cell!r} in the README rca table"
            )

    def test_design_documents_rca_layer(self):
        design = read("DESIGN.md")
        assert "repro.topology" in design
        assert "repro.rca" in design
        assert "--rca" in design
        assert "correlated-outage" in design
