#!/usr/bin/env python3
"""Benchmark for repacksim: one closed-loop workload per run, single process,
single thread.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

A run imports the program from ``src/`` of the checkout it sits in, sets the
workload up several times (``setup_s`` is the import plus the median set-up),
then runs whole passes of the workload's fixed ops, one op after another,
until ``--seconds`` have passed, timing only the program calls, and checks
every op's outputs. ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
does the same untraced, then one more pass under the tracer, and prints the
per-layer metrics and the tracing overhead. The last line of standard output is one JSON object;
the metric names and units come from ``BENCHMARK.json``. The full result,
with sample counts, the environment and the output digest, is written to
``.perfbench/results/`` and the spans of a traced run to ``.perfbench/spans/``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib.metadata
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
STATE_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 5

#: Seconds the reference work takes on a quiet host (2-core x86_64 VM,
#: Python 3.11.7). Reported times are scaled to this host speed.
REFERENCE_S = 0.002
PROBE_EVERY_S = 0.2
PROBE_WINDOW_S = 1.0


SRC = ROOT / "src"
_IMPORT = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import repacksim, repacksim.cli, repacksim.experiment; "
    "print(time.perf_counter() - t)"
)


def import_program() -> None:
    """Import repacksim from this checkout's ``src/``. Exits non-zero,
    printing no result, when the sources are not there."""
    if not (SRC / "repacksim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repacksim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repacksim

    if not Path(repacksim.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported repacksim from {repacksim.__file__}, not {SRC}")


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import the program."""
    child = subprocess.run(
        [sys.executable, "-c", _IMPORT, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(child.stdout)


def _reference_work() -> int:
    table = {}
    for i in range(3000):
        table[(i * 7919) % 1009, i % 13] = i
    ordered = sorted(table.items(), key=lambda kv: (kv[0][1], -kv[1]))
    total = sum(v for (a, b), v in ordered if (a ^ b) & 1)
    return total + len({key[0] for key in table})


class HostSpeed:
    """How fast the host runs Python right now, from a fixed piece of
    interpreter-bound work timed between ops.

    Other tenants of the machine slow every process on it by up to 1.7x for
    tens of seconds at a time; the program and the reference work slow
    alike. :meth:`scale` turns a time measured over an interval into the
    time it would have taken at the speed where the reference work takes
    :data:`REFERENCE_S`."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.values: list[float] = []

    def probe(self) -> None:
        """Mean of three timings of the reference work, collector off."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            for _ in range(3):
                _reference_work()
            mean = (time.perf_counter() - started) / 3
        finally:
            if enabled:
                gc.enable()
        self.times.append(time.perf_counter())
        self.values.append(mean)

    def due(self) -> bool:
        return not self.times or time.perf_counter() - self.times[-1] >= PROBE_EVERY_S

    def scale(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` measured over [start, end], at reference speed. Uses the
        probes within a second of the interval, else the two nearest."""
        lo = bisect.bisect_left(self.times, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.times, end + PROBE_WINDOW_S)
        window = self.values[lo:hi] or self.values[max(lo - 1, 0):lo + 1]
        return seconds * REFERENCE_S / statistics.median(window)


@dataclass
class Passes:
    """Timed passes over a workload's ops."""

    latencies: list[float] = field(default_factory=list)  # seconds, as measured
    scaled: list[float] = field(default_factory=list)  # at reference host speed
    records: int = 0
    failed: int = 0
    wrong: int = 0
    digests: list[str] = field(default_factory=list)  # one output digest per pass

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def op_time(self) -> float:
        return sum(self.scaled)

    @property
    def digest(self) -> str:
        return self.digests[0]

    @property
    def repeatable(self) -> bool:
        """Every pass gave the same outputs."""
        return len(set(self.digests)) == 1


def measure(workload, max_ops=None, tracer=None, host=None, into=None) -> Passes:
    """Run one pass over the workload's ops (only the first ``max_ops``, if
    given) and add it to ``into``. Only ``workload.run`` is timed; checking
    the outputs and probing the host speed are not."""
    result = Passes() if into is None else into
    host = host or HostSpeed()
    intervals = []
    digest = hashlib.sha256()
    op_span = tracer.intern("bench.op") if tracer else -1
    for i, op in enumerate(itertools.islice(workload.ops(), max_ops)):
        if host.due():
            host.probe()
        if tracer:
            tracer.op_id = i
            span = tracer.open(op_span)
        output = error = None
        t0 = time.perf_counter()
        try:
            output = workload.run(op)
        except Exception as exc:  # a failed op is counted, not fatal
            error = exc
        t1 = time.perf_counter()
        result.latencies.append(t1 - t0)
        intervals.append((t0, t1))
        if tracer:
            tracer.close(span)
            tracer.op_id = -1
        checked = workload.check(op, output, error)
        result.records += checked.records
        result.failed += checked.failed
        result.wrong += checked.wrong
        digest.update(checked.digest.encode() + b"\n")
    host.probe()
    result.scaled += [host.scale(t1 - t0, t0, t1) for t0, t1 in intervals]
    result.digests.append(digest.hexdigest())
    return result


def measure_for(workload, seconds: float, host: HostSpeed) -> Passes:
    """Whole passes until ``seconds`` of wall time have passed: at least one.
    Each further pass runs on a freshly set-up copy of the workload, so that a
    faster program runs more of the same work, never different work, and no
    state of one pass carries into the next. Closes the workload."""
    result = Passes()
    started = time.perf_counter()
    while True:
        measure(workload, host=host, into=result)
        workload.close()
        if time.perf_counter() - started >= seconds:
            return result
        workload = type(workload)(workload.seed, workload.workdir)
        workload.setup()


def percentile_ms(latencies: list[float], q: int) -> float:
    from tracing import percentile

    return percentile(sorted(1000.0 * x for x in latencies), q)


def set_up(cls, seed: int, workdir: Path, host: HostSpeed):
    """Set up ``SETUP_REPEATS`` times: import the program in a fresh
    interpreter, then set the workload up. Keeps the last workload and
    returns it with the median set-up time, as measured and scaled."""
    times, scaled = [], []
    for repeat in range(SETUP_REPEATS):
        workload = cls(seed, workdir)
        host.probe()
        imported = import_seconds()
        started = time.perf_counter()
        workload.setup()
        ended = time.perf_counter()
        host.probe()
        setup = imported + ended - started
        times.append(setup)
        scaled.append(host.scale(setup, started - imported, ended))
        if repeat < SETUP_REPEATS - 1:
            workload.close()
    return workload, statistics.median(times), statistics.median(scaled)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(
    latencies: list[float], setup_s: float, run: Passes, rss_mb: float
) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": percentile_ms(latencies, 50),
        "op_p90_ms": percentile_ms(latencies, 90),
        "peak_rss_mb": rss_mb,
        "failed_ratio": run.failed / run.records,
    }


def git_commit() -> str | None:
    """The checkout's commit, or None when it is not a git repository."""
    try:
        child = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return child.stdout.strip() if child.returncode == 0 else None


def environment() -> dict:
    def version(package: str) -> str | None:
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "click": version("click"),
        "git_commit": git_commit(),
    }


def run_one(args, spec: dict) -> dict:
    import_program()
    host = HostSpeed()
    sys.path.insert(0, str(BENCH_DIR))
    from tracing import Tracer
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    workdir = STATE_DIR / "work" / f"{args.workload}-{os.getpid()}"
    raw = None
    try:
        workload, setup_raw, setup_scaled = set_up(cls, args.seed, workdir, host)
        described = workload.describe()
        inputs = workload.inputs_digest()
        if not args.trace:
            run = measure_for(workload, args.seconds, host)
            rss_mb = peak_rss_mb()
            metrics = end_to_end(run.scaled, setup_scaled, run, rss_mb)
            raw = end_to_end(run.latencies, setup_raw, run, rss_mb)
            report = {"passes": run}
            correct = run.wrong == 0 and run.repeatable
        else:
            untraced = measure_for(workload, args.seconds, host)
            tracer = Tracer()
            tracer.install()
            try:
                span = tracer.open(tracer.intern("bench.setup"))
                workload = cls(args.seed, workdir)
                workload.setup()
                tracer.close(span)
                run = measure(workload, tracer=tracer, host=host)
            finally:
                tracer.uninstall()
                workload.close()
            metrics = tracer.layer_metrics()
            untraced_pass_s = untraced.op_time / len(untraced.digests)
            metrics["trace.overhead_s"] = run.op_time - untraced_pass_s
            metrics["trace.overhead_ratio"] = metrics["trace.overhead_s"] / untraced_pass_s
            tracer.save(STATE_DIR / "spans" / f"{args.workload}-seed{args.seed}.npz")
            report = {"untraced passes": untraced, "passes": run}
            correct = (
                run.wrong == 0 and untraced.wrong == 0 and untraced.repeatable
                and run.digest == untraced.digest
            )
            if tracer.missing:
                print(f"warning: not traced, names not found: {tracer.missing}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    full = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "workload_inputs": {"seed": args.seed, "sha256": inputs, **described},
        "environment": environment(),
        "metrics": metrics,
        "metrics_as_measured": raw,
        "host_speed": {
            "reference_s": REFERENCE_S,
            "probes": len(host.values),
            "probe_median_s": statistics.median(host.values),
            "probe_min_s": min(host.values),
            "probe_max_s": max(host.values),
        },
        "passes": {
            label: {
                "passes": len(p.digests),
                "ops": p.ops,
                "op_time_s": p.op_time,
                "op_time_as_measured_s": sum(p.latencies),
                "records": p.records,
                "failed": p.failed,
                "wrong": p.wrong,
                "output_digest": p.digest,
                "repeatable": p.repeatable,
                "latencies_ms": [1000.0 * x for x in p.latencies],
            }
            for label, p in report.items()
        },
    }
    print_summary(full, units)
    results = STATE_DIR / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(full, indent=1) + "\n")
    print(f"full result: {results.relative_to(ROOT)}")
    return {
        "correct": correct,
        "attempted": run.records,
        "failed": run.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }


def _unit(name: str, units: dict[str, str]) -> str:
    if name in units:
        return units[name]
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_ratio", "ratio"), ("_share", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def print_summary(full: dict, units: dict[str, str]) -> None:
    run = full["passes"]["passes"]
    print(f"workload {full['workload']}  seed {full['seed']}  trace {full['trace']}  "
          f"correct {full['correct']}")
    print(f"  inputs: {full['workload_inputs']}")
    for label, p in full["passes"].items():
        print(f"  {label}: {p['passes']} x {p['ops'] // p['passes']} ops in "
              f"{p['op_time_s']:.3f} s of op time "
              f"({p['op_time_as_measured_s']:.3f} s as measured); "
              f"{p['failed']}/{p['records']} records failed, {p['wrong']} wrong; "
              f"output digest {p['output_digest'][:16]} per pass"
              f"{'' if p['repeatable'] else ', DIFFERS between passes'}")
    host = full["host_speed"]
    print(f"  host speed: reference work took {1000 * host['probe_median_s']:.3f} ms "
          f"(median of {host['probes']} probes; {1000 * host['reference_s']:.3f} ms is "
          f"the reference speed the times below are scaled to)")
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} (import + set-up)",
        "op_p50_ms": f"n={run['ops']}",
        "op_p90_ms": f"n={run['ops']}, {run['ops'] - int(0.9 * run['ops'])} beyond",
        "failed_ratio": f"{run['failed']}/{run['records']} records",
    }
    raw = full["metrics_as_measured"] or {}
    for name, value in full["metrics"].items():
        measured = f"as measured {raw[name]:.6g}" if name in raw else ""
        print(f"  {name:36s} {value:16.6f} {_unit(name, units):6s} {measured:24s} "
              f"{notes.get(name, '')}")
    print(f"  environment: {full['environment']}")


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    results = {}
    for name in ("grid", "truthful", "sweep"):
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        print(child.stdout, end="")
        if child.returncode != 0:
            return child.returncode
        results[name] = json.loads(child.stdout.splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("grid", "truthful", "sweep", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return run_all(args)
    print(json.dumps(run_one(args, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
