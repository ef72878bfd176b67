"""Smoke tests of the benchmark itself, every workload at a tiny scale.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          capture_output=True, text=True, timeout=170, cwd=cwd)


def smoke(workload: str, trace: int, *extra: str) -> tuple[list[str], dict]:
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.3",
                 "--trace", str(trace), "--scale", "smoke", *extra)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric(workload, trace):
    lines, result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in named)
    for m in named:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']} = ") for line in lines), m["name"]
        if not trace:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]
    assert f"seed=3 trace={trace}" in lines[0]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_answer_is_counted(workload):
    lines, result = smoke(workload, 0, "--wrong-answer")
    assert not result["correct"] and result["failed"] >= 1
    frac = float(lines[1].split("ops_failed_frac=")[1])
    assert frac > 0
    assert frac == pytest.approx(result["failed"] / result["attempted"], rel=1e-5)
    assert result["metrics"]["ops_ok_frac"]["value"] < 1


def test_same_seed_same_inputs(tmp_path):
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE]
    try:
        from workloads import SmallMix

        def files(seed, name):
            d = tmp_path / name
            d.mkdir()
            SmallMix().setup(str(d), seed, "smoke")
            return {p.name: p.read_bytes() for p in sorted(d.iterdir())}

        assert files(5, "a") == files(5, "b")
        assert files(5, "c") != files(6, "d")
    finally:
        del sys.path[:3]


def test_refuses_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""


def _record(workload, seed, failed=0, **metrics):
    return json.dumps({"workload": workload, "seed": seed, "attempted": 100, "failed": failed,
                       "metrics": metrics}) + "\n"


def _compare(tmp_path, runs=10, change_failed=0):
    base, change = tmp_path / "base.jsonl", tmp_path / "change.jsonl"
    with open(base, "w") as b, open(change, "w") as c:
        for seed in range(runs):
            jitter = 0.001 * seed
            b.write(_record("weak-build", seed, wall_s=3.0 + jitter, peak_rss_mb=100 + jitter))
            c.write(_record("weak-build", seed, failed=change_failed if seed == 0 else 0,
                            wall_s=2.0 + jitter, peak_rss_mb=130 + jitter))
    proc = subprocess.run([sys.executable, RUN, "compare", str(base), str(change),
                           "--claim", "wall_s@weak-build"], capture_output=True, text=True)
    return proc.returncode, proc.stdout.splitlines()


def test_compare(tmp_path):
    code, lines = _compare(tmp_path)
    assert any(line.startswith("CLAIM MET") and " wall_s " in line for line in lines)
    assert any(line.startswith("regressed") and " peak_rss_mb " in line for line in lines)
    assert any(line.startswith("unchanged") and "failed operations" in line for line in lines)
    assert code == 1


def test_compare_needs_ten_pairs(tmp_path):
    code, lines = _compare(tmp_path, runs=9)
    assert any(line.startswith("CLAIM NOT MET") and " wall_s " in line for line in lines)
    assert code == 1


def test_compare_counts_failed_operations(tmp_path):
    code, lines = _compare(tmp_path, change_failed=1)
    assert any(line.startswith("regressed") and "failed operations" in line for line in lines)
    assert any(line.startswith("CLAIM NOT MET") and " wall_s " in line for line in lines)
    assert code == 1
