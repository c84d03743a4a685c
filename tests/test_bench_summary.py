import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_summary.py"
spec = importlib.util.spec_from_file_location("bench_summary", SCRIPT)
bench_summary = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_summary)

BENCHMARK = {
    "end_to_end": [
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    ]
}


def _result(directory, workload, seed, trace, metrics, commit, digest="d1", failed=0):
    directory.mkdir(parents=True, exist_ok=True)
    result = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "environment": {
            "nproc": 2, "cpu_count": 2, "machine": "x86_64", "python": "3.11.7",
            "git_commit": commit,
        },
        "metrics": metrics,
        "passes": {"passes": {"output_digest": digest, "failed": failed, "records": 108}},
    }
    path = directory / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(result))


def test_summary_of_synthetic_pairs(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, ops, faster, p50 in ((1, 8.0, 10.0, 50.0), (2, 9.0, 11.0, 48.0),
                                   (3, 10.0, 9.5, 46.0), (4, 11.0, 12.0, 44.0)):
        _result(parent, "grid", seed, 0, {"ops_per_s": ops, "op_p50_ms": p50}, "aaa")
        _result(change, "grid", seed, 0, {"ops_per_s": faster, "op_p50_ms": p50 / 2}, "bbb")
    # a run without a pair is left out, its commit too
    _result(change, "grid", 9, 0, {"ops_per_s": 1.0, "op_p50_ms": 1.0}, "zzz")
    _result(parent, "grid", 1, 1, {"feasibility.sat.steps": 300.0}, "aaa")
    _result(change, "grid", 1, 1, {"feasibility.sat.steps": 40.0}, "bbb")

    out = tmp_path / "BENCH_test.json"
    assert bench_summary.main([
        "--label", "test", "--parent", str(parent), "--change", str(change),
        "--counter", "feasibility.sat.steps", "--work", "grid:VcgOutcome.nodes=7,7",
        "--benchmark", str(_write(tmp_path / "BENCHMARK.json", BENCHMARK)),
        "--out", str(out),
    ]) == 0
    summary = json.loads(out.read_text())
    grid = summary["workloads"]["grid"]
    assert grid["seeds"] == [1, 2, 3, 4]
    ops = grid["metrics"]["ops_per_s"]
    assert ops["parent"]["median"] == 9.5 and ops["change"]["median"] == 10.5
    # inclusive quartiles of 8, 9, 10, 11 are 8.75 and 10.25
    assert ops["parent"]["iqr"] == pytest.approx(1.5)
    assert (ops["wins"], ops["pairs"]) == (3, 4)
    assert ops["gain_exceeds_parent_iqr"] is False
    p50 = grid["metrics"]["op_p50_ms"]
    assert (p50["wins"], p50["better"]) == (4, "lower")
    assert p50["gain_exceeds_parent_iqr"] is True
    assert grid["output_digest_equal_pairs"] == 4
    assert grid["failed_records"] == {
        "parent": {"failed": 0, "records": 432},
        "change": {"failed": 0, "records": 432},
    }
    assert summary["work_counts"]["grid"] == {
        "seeds": [1],
        "feasibility.sat.steps": {"parent": [300.0], "change": [40.0]},
        "VcgOutcome.nodes": {"parent": 7, "change": 7},
    }
    assert summary["commits"] == {"parent": "aaa", "change": "bbb"}
    assert summary["environment"]["nproc"] == 2


def test_summary_without_pairs_is_an_error(tmp_path, capsys):
    _result(tmp_path / "parent", "grid", 1, 0, {"ops_per_s": 1.0, "op_p50_ms": 1.0}, "aaa")
    (tmp_path / "change").mkdir()
    code = bench_summary.main([
        "--label", "x", "--parent", str(tmp_path / "parent"),
        "--change", str(tmp_path / "change"), "--out", str(tmp_path / "out.json"),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("Error: no run in")


def _write(path, data):
    path.write_text(json.dumps(data))
    return path


def test_summary_of_runs_on_one_commit_is_marked_and_warned(tmp_path, capsys):
    # a change measured before it was committed reports its parent's hash
    for side in ("parent", "change"):
        _result(tmp_path / side, "grid", 1, 0, {"ops_per_s": 1.0, "op_p50_ms": 1.0}, "aaa")
    out = tmp_path / "out.json"
    assert bench_summary.main([
        "--label", "x", "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
        "--benchmark", str(_write(tmp_path / "BENCHMARK.json", BENCHMARK)), "--out", str(out),
    ]) == 0
    commits = json.loads(out.read_text())["commits"]
    assert commits == {"parent": "aaa", "change": "aaa", "same_commit": True}
    assert "same commit aaa" in capsys.readouterr().err
