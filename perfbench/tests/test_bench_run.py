import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

BENCH = Path(run.__file__).resolve().parent
REPO = BENCH.parent


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sched-scaled",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_every_metric_the_runner_prints():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_traced_run_reports_every_per_layer_metric(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "RUN_DIR", tmp_path)
    code = run.main(["--workload", "sched-scaled", "--seed", "2", "--seconds", "0", "--trace", "1"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.PER_LAYER)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["engine.scenarios"] == 495 + 84 + 118
    assert m["engine.solves_per_scenario"] == 1.0
    assert m["parse.calls"] == m["encode.calls"] == 3
    assert (tmp_path / "spans-sched-scaled-seed2.jsonl").is_file()
    assert not any(tmp_path.glob("work-*"))
