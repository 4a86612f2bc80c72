"""Schema tests for the benchmark: BENCHMARK.json and the result it prints.

Timing-free: they check names, units, types and that the result agrees
with the exit code, never a timing value (2 cores are too noisy for timing
gates).

    python3 -m pytest -q perfbench/test_schema.py
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
ENV_KEYS = {"python", "numpy", "scipy", "blas", "blas_threads", "nproc", "commit", "seed"}


def _defs(section):
    return [(m["name"], m["unit"], m["better"]) for m in BENCHMARK[section]]


def test_benchmark_json_shape():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                              "per_layer"}
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert BENCHMARK["paths"] == ["perfbench"]
    assert isinstance(BENCHMARK["run_seconds"], int) and 1 <= BENCHMARK["run_seconds"] <= 60
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    for w in BENCHMARK["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [w["name"] for w in BENCHMARK["workloads"]]
    for section, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                          ("per_layer", {"name", "unit", "better"})):
        for m in BENCHMARK[section]:
            assert set(m) == keys, m
            assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m
            assert m["better"] in ("lower", "higher"), m
        names += [m["name"] for m in BENCHMARK[section]]
    assert len(names) == len(set(names))


def test_bounds():
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_metric_lists_match_the_runner():
    assert _defs("end_to_end") == list(run.END_TO_END)
    assert _defs("per_layer") == run.per_layer_metrics()
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def test_gradcheck_runs_only_when_asked_for():
    assert "gradcheck" not in run.WORKLOADS
    assert run.parse_args(["--workload", "gradcheck"]).workload == "gradcheck"


def test_host_speed_scales_every_block_once():
    import hostspeed

    speed = hostspeed.HostSpeed()
    speed.add(0.25)  # shorter than EVERY_S: waits for the next kernel run
    assert speed.totals() == (0.0, 0.0)
    speed.add(hostspeed.EVERY_S)
    speed.add(0.5)
    speed.flush()
    speed.flush()  # nothing pending: no change
    wall, normalized = speed.totals()
    assert wall == 0.75 + hostspeed.EVERY_S and normalized > 0


def test_tail_percentile_needs_ten_samples_above():
    assert run.tail_percentile(list(range(19))) is None
    p, _ = run.tail_percentile(list(range(100)))
    assert p == 90


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_and_file(trace):
    """One short real run: the last line is the result object, consistent
    with the exit code and the saved result file."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "array-16k", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert result["correct"] is (result["failed"] == 0)
    assert proc.returncode == (0 if result["correct"] else 1), proc.stderr[-2000:]
    defs = _defs("per_layer" if trace else "end_to_end")
    assert list(result["metrics"]) == [name for name, _, _ in defs]
    for name, unit, _ in defs:
        metric = result["metrics"][name]
        assert set(metric) == {"value", "unit"} and metric["unit"] == unit
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
        if name.endswith(".calls"):
            assert isinstance(metric["value"], int) and metric["value"] >= 0
        elif not trace:
            assert metric["value"] != 0, name

    saved = json.loads((ROOT / ".perfbench_out" / f"array-16k-seed3-trace{trace}.json")
                       .read_text())
    assert ENV_KEYS <= set(saved["env"]) and saved["env"]["seed"] == 3
    assert len(saved["failures"]) == result["failed"] and saved["metrics"] == result["metrics"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "toy-train", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
