"""The whole benchmark, small: boots real servers, so it takes seconds."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.e2e import spec

ROOT = Path(__file__).resolve().parents[3]
RUN = [sys.executable, "benchmarks/e2e/run.py"]


def test_smoke_run_of_all_four_workloads_finishes_in_under_30_s(tmp_path):
    started = time.perf_counter()
    done = subprocess.run(
        RUN + ["--smoke", "--seed", "5", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert time.perf_counter() - started < 30
    assert done.returncode == 0, done.stdout + done.stderr
    runs = json.loads((tmp_path / "results-seed5.json").read_text())["runs"]
    assert list(runs[0]) == list(spec.WORKLOADS)
    for result in runs[0].values():
        assert result["failed"] == 0 and result["attempted"] > 0
        assert set(result["end_to_end"]) == {row[0] for row in spec.END_TO_END}
        assert result["diagnostics"]["blocks"] >= 2
    assert not list(tmp_path.glob("work-*"))  # state dirs and logs are gone


def test_driver_mode_ends_with_one_json_line_per_trace_flag(tmp_path):
    for trace, table in (("0", spec.END_TO_END), ("1", spec.PER_LAYER)):
        done = subprocess.run(
            RUN + ["--workload", "durable_stream", "--seed", "5", "--seconds", "1",
                   "--trace", trace, "--smoke", "--out", str(tmp_path)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert {n: m["unit"] for n, m in line["metrics"].items()} == {
            row[0]: row[1] for row in table
        }
    spans = json.loads((tmp_path / "trace-durable_stream.json").read_text())
    assert spans["columns"] == ["name", "pass", "request", "start_ms", "end_ms", "parent"]
    names = {span[0] for span in spans["spans"]}
    assert {"client.request", "server.aio.roundtrip", "server.core.handle",
            "server.durability.log_apply", "engine.delta.apply"} <= names


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        RUN + ["--workload", "hot_reads", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
