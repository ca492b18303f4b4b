"""Smoke test of the benchmark itself, on tiny inputs.

    python3 -m pytest -q bench/test_smoke.py

Every workload must report every end-to-end metric of BENCHMARK.json (and
its own metric names) with a unit and a sample count, and a traced run every
per-layer metric, with self times that account for the traced wall time.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
OWN_NAMES = {
    "closed-form-sweep": ["evals_per_s", "eval_p50_us"],
    "verify-grid": ["cells_per_s", "cell_p50_ms"],
    "estimate-ingest": ["rows_per_s", "invocation_p50_ms"],
}


def _run(workload: str, trace: int, tmp_path: Path, cwd: Path = ROOT, extra=()):
    out = tmp_path / "runs.jsonl"
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny", "--out", str(out), *extra],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )
    return proc, out


def _result(proc, out: Path):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    record = json.loads(out.read_text().strip().splitlines()[-1])
    return result, record


def _check_units(metrics: dict, spec: list[dict]) -> None:
    assert set(metrics) == {m["name"] for m in spec}
    for m in spec:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(metrics[m["name"]]["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload, tmp_path):
    result, record = _result(*_run(workload, 0, tmp_path))
    _check_units(result["metrics"], SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name in OWN_NAMES[workload] + ["setup_s", "peak_rss_mb", "fail_ratio"]:
        entry = record["report"][name]
        assert entry["unit"] and entry["samples"] >= 1, name
    assert record["report"]["fail_ratio"]["value"] == result["failed"] / result["attempted"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_and_accounts_for_wall_time(workload, tmp_path):
    spans = tmp_path / "spans.csv"
    result, record = _result(*_run(workload, 1, tmp_path, extra=("--spans", str(spans))))
    metrics = result["metrics"]
    rows = spans.read_text().splitlines()
    assert rows[0] == "name,tag,start_ns,end_ns,parent,op"
    assert len(rows) - 1 == metrics["trace.spans"]["value"]
    _check_units(metrics, SPEC["per_layer"])
    assert all(isinstance(record["report"][k]["samples"], int) for k in metrics)
    self_total = sum(m["value"] for k, m in metrics.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(metrics["trace.wall_s"]["value"], rel=1e-6)
    assert metrics["trace.overhead_ratio"]["value"] > 0
    assert metrics["measures.evaluate_measure.calls"]["value"] >= 1


def test_compare_prints_a_row_per_workload_and_metric(tmp_path):
    proc, out = _run("estimate-ingest", 0, tmp_path)
    _result(proc, out)
    shutil.copy(out, tmp_path / "other.jsonl")
    table = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--compare", str(out), str(tmp_path / "other.jsonl")],
        capture_output=True, text=True, check=True,
    ).stdout
    rows = [line for line in table.splitlines() if line.startswith("estimate-ingest")]
    assert len(rows) == len(OWN_NAMES["estimate-ingest"]) + 3  # + setup, rss, fail_ratio
    assert all(row.endswith("unresolved") for row in rows)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc, out = _run("closed-form-sweep", 0, tmp_path, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
