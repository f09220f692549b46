"""Run export (CSV/JSON) and the command-line interface."""

from __future__ import annotations

import csv
import json

import pytest

from repro.cli import main
from repro.obs.export import (
    EPOCH_COLUMNS,
    epochs_to_rows,
    summary_dict,
    write_csv,
    write_json,
)
from repro.cluster.run import run_collocation
from repro.datacenter.chaos import ClusterFaultPlan, NodeCrash
from repro.faults.plan import FaultPlan, LoadSpike
from repro.schedulers import UnmanagedScheduler


@pytest.fixture
def small_run(canonical_collocation):
    return run_collocation(
        canonical_collocation, UnmanagedScheduler(), duration_s=5.0, warmup_s=1.0
    )


class TestExport:
    def test_rows_cover_every_epoch_and_app(self, small_run):
        rows = epochs_to_rows(small_run)
        apps = len(small_run.collocation.lc_profiles) + len(
            small_run.collocation.be_profiles
        )
        assert len(rows) == len(small_run.records) * apps
        kinds = {row["kind"] for row in rows}
        assert kinds == {"lc", "be"}

    def test_csv_roundtrip(self, small_run, tmp_path):
        path = write_csv(small_run, tmp_path / "run.csv")
        with path.open() as handle:
            reader = csv.DictReader(handle)
            assert reader.fieldnames == EPOCH_COLUMNS
            rows = list(reader)
        assert len(rows) == len(epochs_to_rows(small_run))
        first_lc = next(row for row in rows if row["kind"] == "lc")
        assert float(first_lc["tail_ms"]) > 0

    def test_json_roundtrip(self, small_run, tmp_path):
        path = write_json(small_run, tmp_path / "run.json")
        payload = json.loads(path.read_text())
        assert payload["summary"]["scheduler"] == "unmanaged"
        assert payload["summary"]["epochs"] == len(small_run.records)
        assert len(payload["epochs"]) == len(epochs_to_rows(small_run))

    def test_summary_dict_fields(self, small_run):
        summary = summary_dict(small_run)
        assert 0 <= summary["mean_e_s"] <= 1
        assert set(summary["mean_tail_ms"]) == set(
            small_run.collocation.lc_profiles
        )


class TestCLI:
    def test_run_command(self, capsys, tmp_path):
        code = main(
            [
                "run",
                "--strategy",
                "unmanaged",
                "--xapian",
                "0.3",
                "--duration",
                "5",
                "--warmup",
                "1",
                "--csv",
                str(tmp_path / "out.csv"),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "mean_e_s" in output
        assert (tmp_path / "out.csv").exists()

    def test_compare_command(self, capsys):
        code = main(
            ["compare", "--xapian", "0.3", "--duration", "4", "--warmup", "1"]
        )
        assert code == 0
        output = capsys.readouterr().out
        for name in ("unmanaged", "parties", "clite", "arq", "lc-first"):
            assert name in output

    def test_experiment_command(self, capsys):
        # fig4 is deterministic and instantaneous — ideal for CLI checks.
        code = main(["experiment", "fig4"])
        assert code == 0
        output = capsys.readouterr().out
        assert "Fig. 4(shared)" in output
        assert "crosses=6" in output

    def test_rejects_unknown_strategy(self):
        with pytest.raises(SystemExit):
            main(["run", "--strategy", "magic"])

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--duration", "0"], "duration must be positive"),
            (["datacenter", "--nodes", "0"], "at least one node"),
            (["experiment", "ab", "--trials", "1"], "needs >= 2 trials"),
            (["datacenter", "--chaos", "nosuch"], "not a preset"),
            (["run", "--jobs", "0"], "positive integer, got 0"),
            (["compare", "--jobs", "-2"], "positive integer, got -2"),
            (["windows", "why-slow", "{missing}"], "cannot read trace"),
            (["windows", "dump", "{missing}", "--out", "{out}"], "cannot read trace"),
            (["run", "--faults", "{missing}"], "cannot read fault plan"),
            (["run", "--faults", "{list_plan}"], "needs a 'faults' list"),
            (
                ["datacenter", "--nodes", "2", "--chaos", "{list_plan}"],
                "needs a 'faults' list",
            ),
            (
                ["windows", "dump", "{list_trace}", "--out", "{out}"],
                "must be a JSON object",
            ),
            (["run", "--faults", "{app_plan}"], "nosuchapp"),
            (
                ["datacenter", "--nodes", "2", "--epochs", "1"]
                + ["--chaos", "{node_plan}"],
                "node(s) [999] outside",
            ),
        ],
    )
    def test_library_errors_are_one_line(self, capsys, tmp_path, argv, message):
        paths = {
            "missing": tmp_path / "missing.jsonl",
            "out": tmp_path / "w.jsonl",
            "list_plan": tmp_path / "list_plan.json",
            "list_trace": tmp_path / "list_trace.jsonl",
            "app_plan": tmp_path / "app_plan.json",
            "node_plan": tmp_path / "node_plan.json",
        }
        paths["list_plan"].write_text("[1]\n")
        paths["list_trace"].write_text("[1]\n")
        FaultPlan(faults=(LoadSpike(application="nosuchapp"),)).save(
            paths["app_plan"]
        )
        ClusterFaultPlan(faults=(NodeCrash(node=999),)).save(paths["node_plan"])
        assert main([arg.format(**paths) for arg in argv]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert message in lines[0]
