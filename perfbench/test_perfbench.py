"""Tests for the benchmark's own code. Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import repacksim.auction  # noqa: E402
import repacksim.experiment  # noqa: E402
import repacksim.vcg  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Grid, Sweep  # noqa: E402

#: Ops per workload for the traced-versus-untraced comparison: a few seconds.
SMALL = {"grid": 6, "truthful": 100, "sweep": 3}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_a_pure_function_of_the_seed(name, tmp_path):
    cls = WORKLOADS[name]
    digests = []
    for seed, sub in ((7, "a"), (7, "b"), (8, "c")):
        workload = cls(seed, tmp_path / sub)
        workload.setup()
        digests.append(workload.inputs_digest())
        workload.close()
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_changes_no_output(name, tmp_path):
    cls = WORKLOADS[name]
    original = repacksim.auction.run_auction
    plain = cls(3, tmp_path)
    plain.setup()
    untraced = bench.measure(plain, max_ops=SMALL[name])
    plain.close()

    tracer = Tracer()
    tracer.install()
    try:
        workload = cls(3, tmp_path)
        workload.setup()
        traced = bench.measure(workload, max_ops=SMALL[name], tracer=tracer)
        workload.close()
    finally:
        tracer.uninstall()

    assert repacksim.auction.run_auction is original
    assert untraced.wrong == traced.wrong == 0
    assert traced.digest == untraced.digest
    metrics = tracer.layer_metrics()
    assert metrics["auction.runs"] > 0
    assert not tracer.missing
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"] for m in spec["per_layer"]}
    assert listed - set(metrics) == {"trace.overhead_s", "trace.overhead_ratio"}


def test_a_run_that_raises_is_counted_as_failed(tmp_path):
    """A 20-station draw whose non-participants cannot be packed makes
    `repacksim run` raise; its 25 records count as failed, not as lost."""
    sweep = Sweep(0, tmp_path)
    sweep.setup()
    inst = repacksim.instances.generate_instance(
        repacksim.instances.GeneratorParams(
            n_stations=20, channel_lo=14, channel_hi=18,
            co_channel_radius=0.35, adjacent_channel_radius=0.1, seed=10,
        )
    )
    path = tmp_path / "unpackable.txt"
    path.write_text(repacksim.instances.serialize_instance(inst))
    with pytest.raises(repacksim.model.UnpackableError):
        sweep.run((path, 10))
    sweep.cases = [sweep.cases[0], (path, 10)]

    run = bench.measure(sweep, max_ops=2)
    sweep.close()

    assert run.ops == 2
    assert run.records == 50
    assert run.failed >= 25
    assert run.wrong == 0
    assert bench.end_to_end(run.scaled, 0.0, run, 0.0)["failed_ratio"] >= 0.5


def _worse_than_optimal(real):
    """A VCG stand-in whose "optimum" buys every participant: more value lost
    than any auction outcome, which an exact benchmark can never be."""

    def fake(inst, values, participants, non_participants, ct, **kwargs):
        outcome = real(inst, values, participants, non_participants, ct, **kwargs)
        return dataclasses.replace(outcome, winners=tuple(sorted(participants)))

    return fake


def test_a_non_optimal_benchmark_makes_grid_wrong(tmp_path, monkeypatch):
    monkeypatch.setattr(repacksim.vcg, "vcg_outcome", _worse_than_optimal(repacksim.vcg.vcg_outcome))
    grid = Grid(3, tmp_path)
    grid.setup()
    run = bench.measure(grid, max_ops=6)
    assert run.wrong > 0
    assert run.failed >= run.wrong


def test_a_non_optimal_benchmark_makes_sweep_wrong(tmp_path, monkeypatch):
    monkeypatch.setattr(
        repacksim.experiment, "vcg_outcome", _worse_than_optimal(repacksim.vcg.vcg_outcome)
    )
    sweep = Sweep(0, tmp_path)
    sweep.setup()
    ten_stations = [case for case in sweep.cases if "instance_0." in case[0].name]
    sweep.cases = ten_stations
    run = bench.measure(sweep)
    sweep.close()
    assert run.wrong == 1
    assert run.failed == 25


def test_passes_repeat_the_same_work(tmp_path, monkeypatch):
    """However fast the program, every pass runs the same ops with the same
    outputs; a faster program only runs more of them."""
    monkeypatch.setattr(workloads, "TRUTHFUL_INSTANCES", 1)
    truthful = WORKLOADS["truthful"](5, tmp_path)
    truthful.setup()
    first = list(truthful.ops())
    run = bench.measure_for(truthful, 3.0, bench.HostSpeed())  # a pass takes about 1 s
    assert len(run.digests) >= 2
    assert run.repeatable
    assert run.ops == len(run.digests) * len(first) == len(run.digests) * 325


def test_exits_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode != 0
    assert child.stdout == ""
