"""Command-line harness.

Subcommands: ``generate`` an instance file, sample ``values``, ``run`` the
experiment grid, compute a ``vcg`` benchmark, and ``report`` summaries from a
run's records.

``run`` reads a declarative JSON config and lets flags override its fields::

    {
      "bar_c": 17,
      "instance_path": null,
      "generator": {"n_stations": 10, "channel_lo": 14, "channel_hi": 18,
                    "co_channel_radius": 0.3, "adjacent_channel_radius": 0.1,
                    "seed": 1},
      "n_value_profiles": 5,
      "sampler": {"log_mean": 10.0, "log_sd": 1.0, "population_exponent": 0.5},
      "cells": ["fcc:sat", "fcc:greedy", "unscored:sat", "unscored:greedy",
                "unscored:exhaustive"],
      "c0_fcc": 900.0,
      "c0_unscored": 900000000.0,
      "budget_steps": 50000,
      "master_seed": 7,
      "out_dir": "out"
    }
"""

from __future__ import annotations

import errno
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import click

from .auction import AuctionConfig, determine_participants
from .experiment import (
    Cell,
    config_from_mapping,
    report_text,
    rows_from_json,
    run_experiment,
    scatter_csv,
    write_outputs,
)
from .instances import (
    GeneratorParams,
    ParseError,
    ValueSamplerParams,
    generate_instance,
    parse_instance,
    parse_values,
    sample_values,
    serialize_instance,
    serialize_values,
)
from .model import ClearingTarget, UnpackableError
from .pricing import (
    DegenerateInstanceError,
    ScoringRule,
    volumes_for,
)
from .vcg import vcg_outcome


@click.group()
def main() -> None:
    """Clock auction repacking simulator."""


@contextmanager
def _reported(errors, prefix: str = ""):
    """Report one of ``errors`` raised in the block as one ``Error:`` line:
    ``prefix`` followed by the error's message."""
    try:
        yield
    except errors as exc:
        raise click.ClickException(f"{prefix}{exc}") from exc


def _parse_file(parse, path: str, kind: str):
    """Parse an input file, reporting an unreadable or malformed one as a
    one-line error. The parsers raise ``ValueError`` (``ParseError``, or
    ``json.JSONDecodeError`` for records) on malformed text."""
    with _reported((OSError, ValueError), f"invalid {kind} {path}: "):
        return parse(Path(path).read_text())


def _check_writable(out_dir: str) -> None:
    """Raise ``OSError`` unless the nearest of ``out_dir`` and its ancestors
    that exists is a directory this process may write in. Creates nothing, so
    a run that fails later leaves no empty directory behind."""
    path = Path(out_dir)
    while not path.exists():
        path = path.parent
    if not path.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(path))
    if not os.access(path, os.W_OK | os.X_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))


def _emit(text: str, out: str | None) -> None:
    """Echo ``text``, or write it to the file ``out`` when one is given."""
    if out is None:
        click.echo(text, nl=False)
        return
    with _reported(OSError, f"cannot write {out}: "):
        Path(out).write_text(text)


@main.command()
@click.option("--n-stations", type=int, required=True)
@click.option("--channel-lo", type=int, default=GeneratorParams.channel_lo, show_default=True)
@click.option("--channel-hi", type=int, default=GeneratorParams.channel_hi, show_default=True)
@click.option(
    "--co-radius", type=float, default=GeneratorParams.co_channel_radius, show_default=True
)
@click.option(
    "--adj-radius", type=float, default=GeneratorParams.adjacent_channel_radius, show_default=True
)
@click.option("--seed", type=int, default=GeneratorParams.seed, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def generate(n_stations, channel_lo, channel_hi, co_radius, adj_radius, seed, out):
    """Generate a synthetic instance and write its canonical serialization."""
    with _reported(ValueError, "invalid option: "):
        params = GeneratorParams(
            n_stations=n_stations,
            channel_lo=channel_lo,
            channel_hi=channel_hi,
            co_channel_radius=co_radius,
            adjacent_channel_radius=adj_radius,
            seed=seed,
        )
    _emit(serialize_instance(generate_instance(params)), out)


@main.command()
@click.option("--instance", "instance_path", type=click.Path(exists=True), required=True)
@click.option("--log-mean", type=float, default=ValueSamplerParams.log_mean, show_default=True)
@click.option("--log-sd", type=float, default=ValueSamplerParams.log_sd, show_default=True)
@click.option(
    "--pop-exponent", type=float, default=ValueSamplerParams.population_exponent, show_default=True
)
@click.option("--seed", type=int, default=ValueSamplerParams.seed, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def values(instance_path, log_mean, log_sd, pop_exponent, seed, out):
    """Sample a value profile for an instance."""
    inst = _parse_file(parse_instance, instance_path, "instance")
    with _reported(ValueError, "invalid option: "):
        params = ValueSamplerParams(
            log_mean=log_mean, log_sd=log_sd, population_exponent=pop_exponent, seed=seed
        )
    _emit(serialize_values(sample_values(inst, params)), out)


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--seed", type=int, default=None, help="Override the master seed.")
@click.option("--out", type=click.Path(file_okay=False), default=None)
@click.option("--cells", type=str, default=None, help="Comma-separated cells.")
@click.option("--budget-steps", type=int, default=None)
@click.option("--instance", "instance_path", type=click.Path(exists=True), default=None)
def run(config_path, seed, out, cells, budget_steps, instance_path):
    """Run the experiment grid described by a config file.

    Emits records.csv and records.json into the output directory. Exits 1
    on an invalid config, option or instance or an unwritable output
    directory, 2 when any benchmark hit its node budget.
    """
    with _reported(ValueError, f"invalid config {config_path}: "):
        cfg = config_from_mapping(json.loads(Path(config_path).read_text()))
    with _reported(ValueError, "invalid option: "):
        if seed is not None:
            cfg = replace(cfg, master_seed=seed)
        if out is not None:
            cfg = replace(cfg, out_dir=out)
        if cells is not None:
            cfg = replace(cfg, cells=tuple(Cell.parse(c) for c in cells.split(",")))
        if budget_steps is not None:
            cfg = replace(cfg, budget_steps=budget_steps)
        if instance_path is not None:
            cfg = replace(cfg, instance_path=instance_path, generator=None)

    with _reported(OSError, f"cannot write {cfg.out_dir}: "):
        _check_writable(cfg.out_dir)
    bad_instance = _reported((OSError, ParseError), f"invalid instance {cfg.instance_path}: ")
    with bad_instance, _reported(DegenerateInstanceError):
        result = run_experiment(cfg)
    with _reported(OSError, f"cannot write {cfg.out_dir}: "):
        csv_path, json_path = write_outputs(result, cfg.out_dir)
    click.echo(f"wrote {csv_path} and {json_path}")
    if result.any_incomparable:
        click.echo("some records are incomparable: benchmark hit its node budget", err=True)
        sys.exit(2)


@main.command()
@click.option("--instance", "instance_path", type=click.Path(exists=True), required=True)
@click.option("--values", "values_path", type=click.Path(exists=True), required=True)
@click.option("--bar-c", type=int, required=True)
@click.option(
    "--scoring",
    type=click.Choice([r.value for r in ScoringRule]),
    default="fcc",
    show_default=True,
    help="Scoring rule used to split participants from non-participants.",
)
@click.option("--c0", type=float, default=None, help="Opening base clock price.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def vcg(instance_path, values_path, bar_c, scoring, c0, out):
    """Compute the exact benchmark outcome for an instance and value profile."""
    inst = _parse_file(parse_instance, instance_path, "instance")
    profile = _parse_file(parse_values, values_path, "values")
    rule = ScoringRule(scoring)
    ct = ClearingTarget(bar_c)
    with _reported(ValueError):  # a bad --c0, a degenerate instance or a short profile
        opening = AuctionConfig(ct, rule, c0).initial_price()
        volumes = volumes_for(inst, ct, rule)
        participants, non_participants = determine_participants(
            inst, profile, volumes, opening
        )
    with _reported(UnpackableError):
        outcome = vcg_outcome(inst, profile, participants, non_participants, ct)
    payload = {
        "optimal_value": outcome.optimal_value,
        "optimal_assignment": {
            str(sid): ch for sid, ch in sorted(outcome.optimal_assignment.items())
        },
        "winners": list(outcome.winners),
        "prices": {str(sid): outcome.prices[sid] for sid in outcome.winners},
        "participants": list(participants),
        "non_participants": list(non_participants),
    }
    _emit(json.dumps(payload, sort_keys=True, indent=1) + "\n", out)


@main.command()
@click.option("--records", "records_path", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(file_okay=False), default=None)
def report(records_path, out):
    """Summarize a run: per-cell means, cross-cell ratios, and scatter data."""
    rows = _parse_file(rows_from_json, records_path, "records")
    summary = report_text(rows)
    scatter = scatter_csv(rows)
    click.echo(summary, nl=False)
    if out is not None:
        out_dir = Path(out)
        with _reported(OSError, f"cannot write {out_dir}: "):
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / "summary.txt").write_text(summary)
            (out_dir / "scatter.csv").write_text(scatter)
        click.echo(f"wrote {out_dir / 'summary.txt'} and {out_dir / 'scatter.csv'}")


if __name__ == "__main__":
    main()
