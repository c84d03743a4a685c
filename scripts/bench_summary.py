#!/usr/bin/env python3
"""Summarize paired benchmark runs into one ``BENCH_<label>.json``.

A pair is a run of ``perfbench/run.py`` on the parent commit and one on the
change, on the same workload and seed. Each checkout writes its runs to its
own ``.perfbench/results/`` as ``<workload>-seed<N>-trace<T>.json``; point
``--parent`` and ``--change`` at those two directories::

    python scripts/bench_summary.py --label engine \\
        --parent ../parent/.perfbench/results --change .perfbench/results \\
        --counter feasibility.sat.steps --counter feasibility.sat.busy_s \\
        --work grid:VcgOutcome.nodes=5145081,5145081

For each workload and end-to-end metric of ``BENCHMARK.json`` the summary
holds the parent's and the change's medians and interquartile ranges, and
the pairs the change won: a strictly better value by the metric's direction.
It also holds how many pairs had equal output digests, each side's failed
records, the named counters of the traced (``--trace 1``) runs, work counts
measured outside the benchmark (``--work``), and the environment and both
commits of the paired runs; a run without a pair is left out. When both
sides report the same commit, the summary marks it ``same_commit`` and the
script prints a warning: the change may have been measured uncommitted.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(directory: Path, trace: int) -> dict[tuple[str, int], dict]:
    runs = {}
    for path in sorted(directory.glob(f"*-seed*-trace{trace}.json")):
        result = json.loads(path.read_text())
        if result.get("trace") == trace:
            runs[(result["workload"], result["seed"])] = result
    return runs


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def _side(values: list[float]) -> dict:
    return {"median": statistics.median(values), "iqr": _iqr(values), "runs": values}


def _compare(parent: list[float], change: list[float], better: str) -> dict:
    sign = 1.0 if better == "higher" else -1.0
    p, c = _side(parent), _side(change)
    gain = sign * (c["median"] - p["median"])
    return {
        "better": better,
        "parent": p,
        "change": c,
        "change_over_parent": c["median"] / p["median"] if p["median"] else None,
        "wins": sum(sign * (b - a) > 0 for a, b in zip(parent, change)),
        "pairs": len(parent),
        "gain_exceeds_parent_iqr": gain > p["iqr"],
    }


def _one_of(values: set) -> object:
    """The single value a field takes across runs, or all of them sorted."""
    return next(iter(values)) if len(values) == 1 else sorted(values, key=str)


def summarize(
    label: str,
    parent_dir: Path,
    change_dir: Path,
    benchmark: dict,
    counters: list[str],
    work: dict[str, dict[str, dict[str, float]]],
) -> dict:
    parent, change = _load(parent_dir, 0), _load(change_dir, 0)
    pairs = sorted(set(parent) & set(change))
    if not pairs:
        raise ValueError(f"no run in {parent_dir} has a pair in {change_dir}")
    workloads: dict[str, dict] = {}
    for name in sorted({w for w, _ in pairs}):
        seeds = [s for w, s in pairs if w == name]
        before = [parent[(name, s)] for s in seeds]
        after = [change[(name, s)] for s in seeds]
        workloads[name] = {
            "seeds": seeds,
            "metrics": {
                m["name"]: {
                    "unit": m["unit"],
                    **_compare(
                        [r["metrics"][m["name"]] for r in before],
                        [r["metrics"][m["name"]] for r in after],
                        m["better"],
                    ),
                }
                for m in benchmark["end_to_end"]
            },
            "output_digest_equal_pairs": sum(
                a["passes"]["passes"]["output_digest"] == b["passes"]["passes"]["output_digest"]
                for a, b in zip(before, after)
            ),
            "failed_records": {
                side: {
                    "failed": sum(r["passes"]["passes"]["failed"] for r in runs),
                    "records": sum(r["passes"]["passes"]["records"] for r in runs),
                }
                for side, runs in (("parent", before), ("change", after))
            },
        }

    traced: dict[str, dict] = {}
    traced_parent, traced_change = _load(parent_dir, 1), _load(change_dir, 1)
    for name, seed in sorted(set(traced_parent) & set(traced_change)):
        entry = traced.setdefault(name, {"seeds": []})
        entry["seeds"].append(seed)
        for counter in counters:
            for side, runs in (("parent", traced_parent), ("change", traced_change)):
                value = runs[(name, seed)]["metrics"].get(counter)
                entry.setdefault(counter, {"parent": [], "change": []})[side].append(value)
    for name, counts in work.items():
        traced.setdefault(name, {"seeds": []}).update(counts)

    # only the paired runs describe the two sides compared
    before, after = [parent[p] for p in pairs], [change[p] for p in pairs]
    commits = {
        "parent": _one_of({r["environment"].get("git_commit") for r in before}),
        "change": _one_of({r["environment"].get("git_commit") for r in after}),
    }
    if commits["parent"] == commits["change"]:
        # a change measured before it was committed reports its parent's hash
        commits["same_commit"] = True
    return {
        "label": label,
        "protocol": "alternating parent/change runs of perfbench/run.py --trace 0, "
        "paired by workload and seed",
        "environment": {
            key: _one_of({r["environment"].get(key) for r in (*before, *after)})
            for key in ("nproc", "cpu_count", "machine", "python")
        },
        "commits": commits,
        "workloads": workloads,
        "work_counts": traced,
    }


def _number(text: str) -> float:
    value = float(text)
    return int(value) if value.is_integer() else value


def _parse_work(items: list[str]) -> dict[str, dict[str, dict[str, float]]]:
    """``workload:name=parent,change`` items as nested dicts."""
    work: dict[str, dict[str, dict[str, float]]] = {}
    for item in items:
        try:
            key, values = item.split("=", 1)
            workload, name = key.split(":", 1)
            before, after = (_number(v) for v in values.split(","))
        except ValueError:
            raise ValueError(f"--work expects workload:name=parent,change, got {item!r}") from None
        work.setdefault(workload, {})[name] = {"parent": before, "change": after}
    return work


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--parent", type=Path, required=True, help="the parent's results directory")
    parser.add_argument("--change", type=Path, required=True, help="the change's results directory")
    parser.add_argument("--counter", action="append", default=[], help="a traced metric to record")
    parser.add_argument("--work", action="append", default=[],
                        help="workload:name=parent,change, a count measured elsewhere")
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    parser.add_argument("--out", type=Path, default=None, help="default: BENCH_<label>.json")
    args = parser.parse_args(argv)
    try:
        summary = summarize(
            args.label,
            args.parent,
            args.change,
            json.loads(args.benchmark.read_text()),
            args.counter,
            _parse_work(args.work),
        )
    except (OSError, ValueError, KeyError) as exc:
        print(f"Error: {exc}", file=sys.stderr)
        return 1
    out = args.out or ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(summary, indent=1) + "\n")
    if summary["commits"].get("same_commit"):
        print(f"warning: the parent's and the change's runs report the same commit "
              f"{summary['commits']['parent']}", file=sys.stderr)
    for name, entry in summary["workloads"].items():
        for metric, m in entry["metrics"].items():
            print(f"{name:9s} {metric:12s} parent {m['parent']['median']:.6g} "
                  f"change {m['change']['median']:.6g} wins {m['wins']}/{m['pairs']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
