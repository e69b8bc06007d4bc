"""Tests of the benchmark itself, on the smoke-size workloads.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

with open(ROOT / "BENCHMARK.json") as f:
    BENCHMARK = json.load(f)
with open(HERE / "golden.json") as f:
    GOLDEN = json.load(f)


def bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    done = bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert f"{m['name']}: {got['value']} {m['unit']}" in lines
    assert any(line.startswith("machine: nproc=") for line in lines)
    assert any(line.startswith("error_rate: 0.0000") for line in lines)


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_golden_answers_are_the_known_counts():
    full = GOLDEN["full"]
    corpus = full["corpus"]["summary"]
    assert corpus["sizes"] == [1, 1, 1, 2, 5, 15, 53, 222]  # OEIS A006966
    assert corpus["accepted"] == corpus["certificates_ok"] == 104
    assert corpus["holds"] == {"E": 297, "P": 203, "HS": 105}
    assert corpus["sigma_holds"] == corpus["holds"]
    assert corpus["oracle_agrees"] == corpus["oracle_runs"] == 78
    census = full["census"]["summary"]
    assert census["surjections"] == {"co3": 6, "pentagon": 4, "l12": 1}
    assert (census["jobs"], census["jobs_with_surjections"]) == (30, 7)
    sweep = full["sweep"]["answers"]
    assert all(sweep[f"{name}@co6"]["holds"] for name in ("E", "P", "HS", "STAR"))
    star_q = sweep["STAR@coQ"]
    assert not star_q["holds"]
    assert star_q["witness_labels"] == ["{0}", "{1}", "{2}", "{3}", "{a}", "{b}"]


def test_a_wrong_answer_is_a_failed_job():
    run.use_sources()
    import workloads

    api = workloads.Api()
    jobs = workloads.SETUP["census"](api, True)
    golden = json.loads(json.dumps(GOLDEN["smoke"]["census"]))
    name = jobs[0][0]
    golden["answers"][name]["surjections"] += 1
    result = run.run_pass("census", jobs, api, golden)
    assert result["failed"] == 1 and not result["correct"]
    assert result["jobs"] == len(jobs)


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = bench(tmp_path, "--workload", "sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
