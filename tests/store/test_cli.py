"""The ``python -m repro.store`` CLI, including the crash-recovery drill."""

import pathlib
import subprocess
import sys

import pytest

from repro.store.__main__ import CRASH_EXIT_CODE, main

SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")


def _run(*arguments):
    """Run the CLI in a subprocess (needed for --crash, honest elsewhere)."""
    return subprocess.run(
        [sys.executable, "-m", "repro.store", *arguments],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )


class TestInProcess:
    def test_ingest_then_query(self, tmp_path, capsys):
        directory = str(tmp_path / "s")
        assert main(["ingest", directory, "--group", "g", "--items", "a", "b", "a"]) == 0
        assert main(["query", directory, "estimate 'g'"]) == 0
        output = capsys.readouterr().out
        assert "g\t" in output

    def test_query_expectation_gate(self, tmp_path):
        directory = str(tmp_path / "s")
        main(["ingest", directory, "--group", "g", "--count", "20000"])
        assert (
            main(["query", directory, "estimate 'g'", "--expect", "20000", "--tolerance", "0.2"])
            == 0
        )
        assert (
            main(["query", directory, "estimate 'g'", "--expect", "1000", "--tolerance", "0.2"])
            == 1
        )

    def test_compact_and_info(self, tmp_path, capsys):
        directory = str(tmp_path / "s")
        main(["ingest", directory, "--group", "g", "--count", "1000"])
        assert main(["compact", directory]) == 0
        assert main(["info", directory]) == 0
        output = capsys.readouterr().out
        assert "generation:  1" in output

    def test_info_beside_a_live_writer(self, tmp_path, capsys):
        from repro.store import SketchStore

        with SketchStore.open(tmp_path / "s") as writer:
            writer.append("g", ["a", "b"])
            assert main(["info", str(tmp_path / "s")]) == 0
        assert "durable lsn: 1" in capsys.readouterr().out

    def test_writer_commands_beside_a_live_writer(self, tmp_path, capsys):
        from repro.cluster import ShardedStore
        from repro.store import SketchStore

        directory = tmp_path / "s"
        with SketchStore.open(directory) as writer:
            writer.append("g", ["a", "b"])
            # A plain query opens read-only and sees the durable prefix.
            assert main(["query", str(directory), "estimate 'g'"]) == 0
            assert "g\t" in capsys.readouterr().out
            # A second writer is refused with one line, not a traceback.
            assert main(["compact", str(directory)]) == 1
            error = capsys.readouterr().err
            assert error.strip() == (
                f"compact: {directory}: another writer holds the store lock"
            )
        root = tmp_path / "c"
        with ShardedStore.open(root, shards=2, p=8):
            assert main(["cluster", "status", str(root)]) == 1
            assert "another writer holds the store lock" in capsys.readouterr().err
        assert main(["cluster", "status", str(root)]) == 0

    def test_default_query_lists_every_group(self, tmp_path, capsys):
        directory = str(tmp_path / "s")
        main(["ingest", directory, "--group", "alpha", "--count", "3000"])
        main(["ingest", directory, "--group", "beta", "--items", "y", "z"])
        capsys.readouterr()  # drop the ingest chatter
        assert main(["query", directory]) == 0  # default: estimate all
        output = capsys.readouterr().out.strip().splitlines()
        assert len(output) == 2
        by_group = dict(line.split("\t") for line in output)
        assert set(by_group) == {"alpha", "beta"}
        assert float(by_group["beta"]) == pytest.approx(2.0, abs=0.5)

    def test_top_selects_largest(self, tmp_path, capsys):
        directory = str(tmp_path / "s")
        main(["ingest", directory, "--group", "small", "--items", "x"])
        main(["ingest", directory, "--group", "large", "--count", "5000"])
        capsys.readouterr()  # drop the ingest chatter
        assert main(["query", directory, "top 1"]) == 0
        output = capsys.readouterr().out.strip().splitlines()
        assert len(output) == 1 and output[0].startswith("large\t")

    def test_prefix_filter_and_explain(self, tmp_path, capsys):
        directory = str(tmp_path / "s")
        main(["ingest", directory, "--group", "country:US", "--items", "a", "b"])
        main(["ingest", directory, "--group", "country:DE", "--items", "c"])
        main(["ingest", directory, "--group", "city:berlin", "--items", "c"])
        capsys.readouterr()
        assert main(
            ["query", directory, "top 10 where key startswith 'country:'", "--explain"]
        ) == 0
        output = capsys.readouterr().out
        lines = output.strip().splitlines()
        assert any(line.startswith("TopK(10)") for line in lines)
        rows = [line for line in lines if "\t" in line]
        assert [row.split("\t")[0] for row in rows] == ["country:US", "country:DE"]

    def test_reader_query_reports_horizon(self, tmp_path, capsys):
        directory = str(tmp_path / "s")
        main(["ingest", directory, "--group", "g", "--count", "1000"])
        capsys.readouterr()
        assert main(
            ["query", directory, "estimate 'g'", "--reader", "--expect", "1000", "--tolerance", "0.2"]
        ) == 0
        output = capsys.readouterr().out
        assert "durable LSN" in output
        assert "-> ok" in output

    def test_setop_query_between_groups(self, tmp_path, capsys):
        directory = str(tmp_path / "s")
        main(["ingest", directory, "--group", "a", "--items", "x", "y", "z"])
        main(["ingest", directory, "--group", "b", "--items", "y", "z", "w"])
        capsys.readouterr()
        assert main(
            [
                "query",
                directory,
                "where key = 'a' intersect where key = 'b'",
                "--expect",
                "2",
                "--tolerance",
                "0.35",
            ]
        ) == 0
        assert "intersect\t" in capsys.readouterr().out

    def test_parse_error_exits_2(self, tmp_path, capsys):
        directory = str(tmp_path / "s")
        main(["ingest", directory, "--group", "g", "--items", "a"])
        capsys.readouterr()
        assert main(["query", directory, "top banana"]) == 2
        assert "query:" in capsys.readouterr().err

    def test_expect_rejects_multirow_results(self, tmp_path, capsys):
        directory = str(tmp_path / "s")
        main(["ingest", directory, "--group", "a", "--items", "x"])
        main(["ingest", directory, "--group", "b", "--items", "y"])
        capsys.readouterr()
        assert main(["query", directory, "estimate all", "--expect", "2"]) == 2
        assert "single-row" in capsys.readouterr().err

    def test_ingest_requires_input(self, tmp_path):
        assert main(["ingest", str(tmp_path / "s"), "--group", "g"]) == 2

    def test_custom_parameters(self, tmp_path, capsys):
        directory = str(tmp_path / "s")
        main(["ingest", directory, "--group", "g", "--items", "a", "--t", "1", "--d", "9", "--p", "6"])
        main(["info", directory])
        assert "t=1 d=9 p=6" in capsys.readouterr().out

    def test_ingest_into_nondefault_store_without_flags(self, tmp_path):
        """Omitted --t/--d/--p defer to the persisted configuration."""
        directory = str(tmp_path / "s")
        main(["ingest", directory, "--group", "g", "--items", "a", "--p", "10"])
        assert main(["ingest", directory, "--group", "g", "--items", "b"]) == 0


class TestCrashRecovery:
    def test_crash_ingest_then_recover_and_verify(self, tmp_path):
        """The CI smoke drill: ingest → kill -9 equivalent → recover → verify."""
        directory = str(tmp_path / "s")
        crashed = _run(
            "ingest", directory, "--group", "demo", "--count", "30000", "--crash"
        )
        assert crashed.returncode == CRASH_EXIT_CODE, crashed.stderr
        assert "simulating crash" in crashed.stdout
        # No snapshot of the data exists — only WAL records.
        recovered = _run(
            "query", directory, "estimate 'demo'", "--expect", "30000", "--tolerance", "0.2"
        )
        assert recovered.returncode == 0, recovered.stdout + recovered.stderr
        assert "-> ok" in recovered.stdout

    def test_crash_with_auto_compaction(self, tmp_path):
        directory = str(tmp_path / "s")
        crashed = _run(
            "ingest",
            directory,
            "--group",
            "demo",
            "--count",
            "30000",
            "--compact-every",
            "65536",
            "--crash",
        )
        assert crashed.returncode == CRASH_EXIT_CODE, crashed.stderr
        info = _run("info", directory)
        assert info.returncode == 0
        assert "generation:  0" not in info.stdout  # compaction happened
        recovered = _run(
            "query", directory, "estimate 'demo'", "--expect", "30000", "--tolerance", "0.2"
        )
        assert recovered.returncode == 0, recovered.stdout + recovered.stderr


# Enough items per group that the sparse sketches estimate through the
# bias-corrected ML solve rather than their small-count shortcut.
_COLD_PATH = """
import sys
import numpy as np
from repro.aggregate import DistinctCountAggregator
from repro.query import query
from repro.store import SketchStore, SnapshotReader

items = np.arange(3000)
aggregator = DistinctCountAggregator(p=6)
aggregator.add_batch(items % 2, items)
assert aggregator.estimates()
store = SketchStore.open(sys.argv[1], p=6)
store.append("g", items)
store.close()
with SnapshotReader.open(sys.argv[1]) as reader:
    assert query(reader, "top 10").rows
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_cold_serving_path_never_imports_scipy(tmp_path):
    """Estimates, the store and the query dialect run without scipy: a
    top-level theory import would cost every cold query ~0.6 s."""
    result = subprocess.run(
        [sys.executable, "-c", _COLD_PATH, str(tmp_path / "s")],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
