"""CLI observability surfaces: stats, --analyze, serve/replicate heartbeats."""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys

import pytest

from repro.store.__main__ import main

SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")


def _run(*arguments, env=None):
    merged = {"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"}
    if env:
        merged.update(env)
    return subprocess.run(
        [sys.executable, "-m", "repro.store", *arguments],
        capture_output=True,
        text=True,
        env=merged,
    )


@pytest.fixture
def seeded(tmp_path):
    directory = str(tmp_path / "s")
    assert main(["ingest", directory, "--group", "g", "--count", "5000"]) == 0
    return directory


class TestStats:
    def test_human_output(self, seeded):
        # Subprocess: stats enables metrics process-wide, which must not
        # leak into other in-process tests.
        proc = _run("stats", seeded)
        assert proc.returncode == 0
        assert "durable lsn: 1" in proc.stdout
        assert "gauge reader.durable_lsn: 1" in proc.stdout
        assert "histogram estimation.solve_batch_size:" in proc.stdout

    def test_json_output(self, seeded):
        proc = _run("stats", seeded, "--json")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["reader.durable_lsn"]["value"] == 1.0
        assert payload["estimation.solve_batch_size"]["count"] >= 1

    def test_fold_metrics_count_small_records(self, tmp_path):
        """WAL records below the fold crossover still count as folds."""
        directory = str(tmp_path / "small")
        arguments = ["ingest", directory, "--group", "g", "--count", "5000"]
        assert main([*arguments, "--batch", "50"]) == 0
        proc = _run("stats", directory, "--json", env={"REPRO_METRICS": "1"})
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        # Replay folds every item once (as a token replay or raw).
        assert payload["backend.hashes_folded"]["value"] == 5000
        folds = payload["backend.folds"]["value"]
        assert folds == payload["backend.fold_batch_size"]["count"] > 50

    def test_prometheus_output(self, seeded):
        proc = _run("stats", seeded, "--prom")
        assert proc.returncode == 0
        sample = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$"
        )
        for line in proc.stdout.splitlines():
            if line and not line.startswith("#"):
                assert sample.match(line), f"malformed exposition line: {line!r}"
        assert "repro_reader_durable_lsn 1" in proc.stdout
        assert 'repro_estimation_solve_batch_size_bucket{le="+Inf"}' in proc.stdout


class TestAnalyze:
    def test_analyze_annotates_every_plan_line(self, seeded, capsys):
        assert main(["query", seeded, "estimate 'g'", "--analyze"]) == 0
        output = capsys.readouterr().out
        plan_lines = [line for line in output.splitlines() if "[time=" in line]
        assert len(plan_lines) == 3  # Estimate / Filter / Scan
        assert not any("time=n/a" in line for line in plan_lines)
        assert "g\t" in output  # rows still printed

    def test_analyze_through_reader(self, seeded, capsys):
        assert main(["query", seeded, "top 1", "--analyze", "--reader"]) == 0
        output = capsys.readouterr().out
        assert "TopK(1)  [time=" in output


class TestHeartbeats:
    def test_serve_heartbeat_fields_and_metrics_line(self, seeded, capsys):
        assert (
            main(
                [
                    "serve",
                    seeded,
                    "--interval",
                    "0.01",
                    "--iterations",
                    "2",
                    "--metrics-every",
                    "1",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert re.search(r"refresh 1: generation=\d+ lsn=1 .* lag=[\d.]+s", output)
        # No REPRO_METRICS in this process: heartbeats yes, metrics lines no.
        assert "metrics " not in output

    def test_serve_metrics_lines_when_enabled(self, seeded):
        proc = _run(
            "serve",
            seeded,
            "--interval",
            "0.01",
            "--iterations",
            "2",
            "--metrics-every",
            "1",
            env={"REPRO_METRICS": "1"},
        )
        assert proc.returncode == 0
        assert "metrics " in proc.stdout
        assert "reader.refresh_seconds.count=" in proc.stdout

    def test_replicate_heartbeat_and_idempotent_resync(self, seeded, tmp_path, capsys):
        follower = str(tmp_path / "replica")
        assert main(["replicate", seeded, follower, "--once"]) == 0
        assert main(["replicate", seeded, follower, "--once"]) == 0
        output = capsys.readouterr().out
        syncs = [line for line in output.splitlines() if line.startswith("sync 1:")]
        assert len(syncs) == 2
        assert "shipped=1" in syncs[0] and "snapshot=yes" in syncs[0]
        assert "shipped=0" in syncs[1] and "snapshot=no" in syncs[1]

    def test_replicate_retries_missing_leader_with_backoff(self, tmp_path):
        leader = str(tmp_path / "never_created")
        follower = str(tmp_path / "replica")
        proc = _run(
            "replicate",
            leader,
            follower,
            "--interval",
            "0.01",
            "--max-retries",
            "2",
            "--once",
        )
        assert proc.returncode == 1
        assert proc.stderr.count("warn transient=FileNotFoundError") == 2
        assert "giving up after 3 consecutive transient errors" in proc.stderr
