#!/usr/bin/env python3
"""Run the default experiment grid end to end on a generated instance and
print the summary report.

Example:
    python scripts/run_grid.py --seed 7 --out out/demo --stations 10
"""

from __future__ import annotations

import argparse
import sys

from repacksim.cli import _check_writable
from repacksim.experiment import (
    ExperimentConfig,
    report_text,
    run_experiment,
    write_outputs,
)
from repacksim.feasibility import DEFAULT_STEP_LIMIT
from repacksim.instances import GeneratorParams
from repacksim.model import UnpackableError


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--stations", type=int, default=10)
    parser.add_argument("--profiles", type=int, default=5)
    parser.add_argument("--out", type=str, default="out/grid")
    parser.add_argument("--budget-steps", type=int, default=DEFAULT_STEP_LIMIT)
    args = parser.parse_args()

    try:
        cfg = ExperimentConfig(
            bar_c=17,
            generator=GeneratorParams(
                n_stations=args.stations,
                channel_lo=14,
                channel_hi=18,
                co_channel_radius=0.35,
                adjacent_channel_radius=0.1,
                seed=args.seed,
            ),
            n_value_profiles=args.profiles,
            budget_steps=args.budget_steps,
            master_seed=args.seed,
            out_dir=args.out,
        )
    except ValueError as exc:
        # one line and exit 1; exit 2 means some records are incomparable
        sys.exit(f"run_grid.py: {exc}")
    try:
        _check_writable(cfg.out_dir)
    except OSError as exc:
        sys.exit(f"run_grid.py: cannot write {cfg.out_dir}: {exc}")
    try:
        result = run_experiment(cfg)
    except UnpackableError as exc:
        # a draw that no packing of the band holds: one line and exit 1
        sys.exit(f"run_grid.py: {exc}")
    csv_path, json_path = write_outputs(result, cfg.out_dir)
    print(report_text(result.rows), end="")
    print(f"records: {csv_path}")
    print(f"per-record comparisons: {json_path}")
    return 2 if result.any_incomparable else 0


if __name__ == "__main__":
    raise SystemExit(main())
