import functools
import hashlib
import json
import math
from dataclasses import fields

import numpy as np
import pytest
from click.testing import CliRunner

from repacksim import cli, vcg
from repacksim.auction import AuctionConfig, CheckerKind
from repacksim.cli import main
from repacksim.experiment import (
    Cell,
    DEFAULT_CELLS,
    ExperimentConfig,
    ExperimentResult,
    config_from_mapping,
    records_csv,
    records_json,
    report_text,
    rows_from_json,
    run_experiment,
    scatter_csv,
    summarize,
    write_outputs,
    RecordRow,
)
from repacksim.feasibility import Budget
from repacksim.instances import (
    GeneratorParams,
    ValueSamplerParams,
    generate_instance,
    parse_instance,
    sample_values,
    serialize_instance,
)
from repacksim.metrics import ComparisonRecord
from repacksim.model import ClearingTarget
from repacksim.pricing import ScoringRule

from references import milp_packing, milp_value, reference_auction


def small_config(**overrides):
    base = dict(
        bar_c=17,
        generator=GeneratorParams(
            n_stations=8,
            channel_lo=14,
            channel_hi=18,
            co_channel_radius=0.45,
            adjacent_channel_radius=0.15,
            seed=5,
        ),
        n_value_profiles=2,
        log_mean=3.0,
        log_sd=1.0,
        population_exponent=0.4,
        cells=(Cell.parse("fcc:sat"), Cell.parse("unscored:greedy")),
        master_seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_cell_parsing():
    cell = Cell.parse("fcc:sat")
    assert cell.key == "fcc:sat"
    with pytest.raises(ValueError):
        Cell.parse("fcc")
    with pytest.raises(ValueError):
        Cell.parse("fcc:magic")
    assert [c.key for c in DEFAULT_CELLS] == [
        "fcc:sat",
        "fcc:greedy",
        "unscored:sat",
        "unscored:greedy",
        "unscored:exhaustive",
    ]


def test_a_cell_given_plain_strings_holds_the_members_they_name():
    # the runs compare a cell's rules by identity, and its key reads their values
    plain = Cell("fcc", "sat")
    assert plain == Cell.parse("fcc:sat") and plain.key == "fcc:sat"
    assert plain.scoring is ScoringRule.FCC and plain.checker is CheckerKind.SAT
    for scoring, checker, junk in (("FCC", "sat", "FCC"), ("fcc", "SAT", "SAT")):
        with pytest.raises(ValueError, match=repr(junk)):
            Cell(scoring, checker)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(instance_path="x.txt")  # both sources configured
    with pytest.raises(ValueError):
        small_config(n_value_profiles=0)
    with pytest.raises(ValueError):
        small_config(cells=())
    for seed in (-1, 1.5):
        with pytest.raises(ValueError, match="^master_seed must be a non-negative integer$"):
            small_config(master_seed=seed)
    assert small_config(master_seed=np.int64(3)).master_seed == 3


def test_config_rejects_a_number_of_value_profiles_that_is_not_an_integer():
    # a float would pass the range check and fail when the profiles are drawn
    with pytest.raises(ValueError, match="^n_value_profiles must be an integer$"):
        small_config(n_value_profiles=2.5)
    assert small_config(n_value_profiles=np.int64(2)).n_value_profiles == 2


@pytest.mark.parametrize("field", ["c0_fcc", "c0_unscored"])
@pytest.mark.parametrize("c0", [math.inf, math.nan])
def test_config_rejects_an_opening_price_that_is_not_finite(field, c0):
    with pytest.raises(ValueError, match="c0_fcc and c0_unscored must be finite"):
        small_config(**{field: c0})


@pytest.mark.parametrize("field", ["budget_steps", "vcg_node_budget"])
@pytest.mark.parametrize("limit", [math.nan, 2.5, 0])
def test_config_rejects_a_limit_that_is_not_a_positive_integer(field, limit):
    # no count exceeds NaN, so a NaN limit would turn its limit off
    with pytest.raises(ValueError, match=f"^{field} must be positive$"):
        small_config(**{field: limit})
    assert getattr(small_config(**{field: np.int64(3)}), field) == 3


def test_c0_for_reads_a_plain_string_rule_as_the_rule_it_names():
    # the rules compare by identity, so "fcc" once read the unscored price
    cfg = small_config(c0_fcc=7.0, c0_unscored=8.0)
    for rule in ScoringRule:
        assert cfg.c0_for(rule.value) == cfg.c0_for(rule)
    assert cfg.c0_for("fcc") == 7.0
    for junk in ("FCC", "scored"):
        with pytest.raises(ValueError, match=repr(junk)):
            cfg.c0_for(junk)


def test_run_experiment_produces_grid():
    result = run_experiment(small_config())
    assert len(result.rows) == 4  # 2 cells x 2 profiles
    keys = [(r.cell, r.profile) for r in result.rows]
    assert keys == sorted(keys)
    for row in result.rows:
        assert not row.incomparable
        assert row.record.value_loss_ratio >= 1.0 - 1e-9


def test_rerun_is_byte_identical(tmp_path):
    cfg = small_config(out_dir=str(tmp_path / "a"))
    first = run_experiment(cfg)
    second = run_experiment(cfg)
    assert records_csv(first) == records_csv(second)
    assert records_json(first) == records_json(second)
    csv_path, json_path = write_outputs(first, cfg.out_dir)
    assert csv_path.read_text() == records_csv(first)
    assert json_path.read_text() == records_json(first)


def test_records_json_names_an_instance_file_by_its_name_and_content(tmp_path):
    # one file copied into two directories: the run records neither directory
    text = serialize_instance(generate_instance(small_config().generator))
    documents = []
    for where in (tmp_path / "a", tmp_path / "deeper" / "b"):
        where.mkdir(parents=True)
        (where / "inst.txt").write_text(text)
        cfg = small_config(generator=None, instance_path=str(where / "inst.txt"))
        documents.append(records_json(run_experiment(cfg)))
    assert documents[0] == documents[1]
    config = json.loads(documents[0])["config"]
    assert config["instance_path"] == "inst.txt"
    assert config["instance_sha256"] == hashlib.sha256(text.encode()).hexdigest()
    # a generated instance has no file to name
    assert "instance_sha256" not in json.loads(records_json(run_experiment(small_config())))["config"]


def test_records_round_trip_through_json():
    result = run_experiment(small_config())
    rows = rows_from_json(records_json(result))
    assert rows == list(result.rows)


def test_records_json_is_strict_and_keeps_non_finite_ratios():
    # an auction that lost value where the optimum lost none has an infinite
    # value loss ratio; strict JSON has no literal for it
    record = ComparisonRecord(
        value_loss_auction=2.5,
        value_loss_optimal=0.0,
        value_loss_ratio=math.inf,
        cost_auction=4.0,
        cost_vcg=0.0,
        cost_fraction=math.nan,
        checker_timeout_count=0,
        rounds=7,
    )
    rows = (RecordRow("fcc:sat", 0, record), RecordRow("fcc:sat", 1, _rec(0.5, 1.25)))
    text = records_json(ExperimentResult(small_config(), rows))

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    data = json.loads(text, parse_constant=reject)
    assert data["records"][0]["value_loss_ratio"] == "inf"
    assert data["records"][0]["cost_fraction"] == "nan"
    back = rows_from_json(text)
    assert back[1] == rows[1]
    got = back[0].record
    assert got.value_loss_ratio == math.inf
    assert math.isnan(got.cost_fraction)
    assert (got.value_loss_auction, got.cost_auction, got.rounds) == (2.5, 4.0, 7)
    assert "infinite_ratios=1" in report_text(back)


def test_rows_from_json_rejects_other_strings_for_numbers():
    row = RecordRow("fcc:sat", 0, _rec(0.5, 1.0))
    text = records_json(ExperimentResult(small_config(), (row,)))
    bad = text.replace('"value_loss_ratio": 1.0', '"value_loss_ratio": "Infinity"')
    with pytest.raises(ValueError, match="not a number"):
        rows_from_json(bad)


def test_rows_from_json_rejects_a_record_that_is_not_an_object():
    with pytest.raises(ValueError, match="^record 0 is not an object$"):
        rows_from_json('{"records": [3]}')


def test_vcg_node_budget_marks_incomparable():
    result = run_experiment(small_config(vcg_node_budget=1))
    assert result.any_incomparable
    text = records_csv(result)
    assert "nan" in text
    rows = rows_from_json(records_json(result))
    assert all(r.incomparable for r in rows)
    # the reason names the budget and its unit, not a setting
    reason = "exact benchmark exceeded its node budget of 1 table entries"
    assert [r.reason for r in rows] == [reason] * len(rows)


def test_report_means_and_reference_point():
    rows = [
        RecordRow("fcc:sat", 0, _rec(1.0, 1.0)),
        RecordRow("fcc:sat", 1, _rec(2.0, 2.0)),
    ]
    summaries = summarize(rows)
    assert len(summaries) == 1
    assert summaries[0].mean_cost_fraction == 1.5
    assert summaries[0].mean_value_loss_ratio == 1.5
    scatter = scatter_csv(rows)
    lines = scatter.strip().splitlines()
    assert lines[0] == "cell,profile,cost_fraction,value_loss_ratio,timeouts,rounds"
    assert "vcg,0,1.0,1.0,0,0" in lines
    assert "vcg,1,1.0,1.0,0,0" in lines


def _rec(fraction, ratio):
    return ComparisonRecord(
        value_loss_auction=ratio,
        value_loss_optimal=1.0,
        value_loss_ratio=ratio,
        cost_auction=fraction,
        cost_vcg=1.0,
        cost_fraction=fraction,
        checker_timeout_count=0,
        rounds=3,
    )


def test_report_cross_cell_ratios():
    rows = [
        RecordRow("fcc:sat", 0, _rec(10.0, 1.0)),
        RecordRow("fcc:greedy", 0, _rec(17.3, 1.42)),
        RecordRow("unscored:sat", 0, _rec(14.5, 1.0)),
    ]
    text = report_text(rows)
    assert "naive/complete checker cost ratio [fcc] = 1.73" in text
    assert "scored/unscored cost ratio [sat] =" in text
    assert "mean value loss ratio [fcc:greedy] = 1.42" in text


def test_summary_reports_infinite_ratios_separately():
    rows = [
        RecordRow("fcc:sat", 0, _rec(1.0, math.inf)),
        RecordRow("fcc:sat", 1, _rec(1.0, 1.5)),
    ]
    s = summarize(rows)[0]
    assert s.infinite_ratios == 1
    assert s.mean_value_loss_ratio == 1.5


# ------------------------------------------------------------------ CLI


def test_cli_generate_values_run_report(tmp_path):
    runner = CliRunner()
    inst_path = tmp_path / "inst.txt"
    res = runner.invoke(
        main,
        [
            "generate", "--n-stations", "6", "--channel-lo", "14", "--channel-hi", "17",
            "--co-radius", "0.5", "--adj-radius", "0.1", "--seed", "3",
            "--out", str(inst_path),
        ],
    )
    assert res.exit_code == 0, res.output
    inst = parse_instance(inst_path.read_text())
    assert len(inst.stations) == 6

    # generation is deterministic byte for byte
    res2 = runner.invoke(
        main,
        [
            "generate", "--n-stations", "6", "--channel-lo", "14", "--channel-hi", "17",
            "--co-radius", "0.5", "--adj-radius", "0.1", "--seed", "3",
        ],
    )
    assert res2.output == inst_path.read_text()

    values_path = tmp_path / "values.txt"
    res = runner.invoke(
        main,
        [
            "values", "--instance", str(inst_path), "--log-mean", "3.0",
            "--seed", "4", "--out", str(values_path),
        ],
    )
    assert res.exit_code == 0, res.output

    config = {
        "bar_c": 17,
        "instance_path": str(inst_path),
        "n_value_profiles": 2,
        "sampler": {"log_mean": 3.0, "log_sd": 1.0, "population_exponent": 0.4},
        "cells": ["fcc:sat", "unscored:exhaustive"],
        "master_seed": 9,
        "out_dir": str(tmp_path / "out"),
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    res = runner.invoke(main, ["run", "--config", str(config_path)])
    assert res.exit_code == 0, res.output
    csv_text = (tmp_path / "out" / "records.csv").read_text()
    assert csv_text.startswith("cell,profile,cost_fraction,value_loss_ratio,timeouts,rounds")
    assert len(csv_text.strip().splitlines()) == 5  # header + 2 cells x 2 profiles

    # rerun into another directory: byte-identical outputs
    res = runner.invoke(
        main, ["run", "--config", str(config_path), "--out", str(tmp_path / "out2")]
    )
    assert res.exit_code == 0, res.output
    assert (tmp_path / "out2" / "records.csv").read_text() == csv_text
    assert (tmp_path / "out" / "records.json").read_text() == (
        tmp_path / "out2" / "records.json"
    ).read_text()

    # flag overrides change the output
    res = runner.invoke(
        main,
        ["run", "--config", str(config_path), "--out", str(tmp_path / "out3"),
         "--cells", "unscored:sat"],
    )
    assert res.exit_code == 0, res.output
    text3 = (tmp_path / "out3" / "records.csv").read_text()
    assert "unscored:sat" in text3 and "fcc:sat" not in text3

    res = runner.invoke(
        main,
        ["report", "--records", str(tmp_path / "out" / "records.json"),
         "--out", str(tmp_path / "report")],
    )
    assert res.exit_code == 0, res.output
    assert (tmp_path / "report" / "summary.txt").exists()
    scatter = (tmp_path / "report" / "scatter.csv").read_text()
    assert "vcg,0,1.0,1.0,0,0" in scatter

    vcg_path = tmp_path / "vcg.json"
    res = runner.invoke(
        main,
        ["vcg", "--instance", str(inst_path), "--values", str(values_path),
         "--bar-c", "16", "--scoring", "unscored", "--out", str(vcg_path)],
    )
    assert res.exit_code == 0, res.output
    payload = json.loads(vcg_path.read_text())
    assert set(payload) >= {"optimal_value", "winners", "prices", "participants"}


def test_cli_generate_empty_instance(tmp_path):
    runner = CliRunner()
    res = runner.invoke(main, ["generate", "--n-stations", "0", "--seed", "1"])
    assert res.exit_code == 0, res.output
    inst = parse_instance(res.output)
    assert inst.stations == ()


def test_cli_seed_and_budget_overrides(tmp_path):
    config = {
        "bar_c": 17,
        "generator": {
            "n_stations": 6, "channel_lo": 14, "channel_hi": 18,
            "co_channel_radius": 0.5, "adjacent_channel_radius": 0.1, "seed": 2,
        },
        "n_value_profiles": 1,
        "sampler": {"log_mean": 3.0},
        "cells": ["unscored:sat"],
        "master_seed": 9,
        "out_dir": str(tmp_path / "base"),
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    runner = CliRunner()
    assert runner.invoke(main, ["run", "--config", str(config_path)]).exit_code == 0
    res = runner.invoke(
        main,
        ["run", "--config", str(config_path), "--seed", "10",
         "--budget-steps", "77", "--out", str(tmp_path / "over")],
    )
    assert res.exit_code == 0, res.output
    base = json.loads((tmp_path / "base" / "records.json").read_text())
    over = json.loads((tmp_path / "over" / "records.json").read_text())
    assert base["config"]["master_seed"] == 9
    assert over["config"]["master_seed"] == 10
    assert over["config"]["budget_steps"] == 77


def test_cli_run_exits_nonzero_on_budget_failure(tmp_path):
    config = {
        "bar_c": 17,
        "generator": {
            "n_stations": 8, "channel_lo": 14, "channel_hi": 18,
            "co_channel_radius": 0.45, "adjacent_channel_radius": 0.15, "seed": 5,
        },
        "n_value_profiles": 1,
        "cells": ["fcc:sat"],
        "master_seed": 9,
        "vcg_node_budget": 1,
        "out_dir": str(tmp_path / "out"),
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    runner = CliRunner()
    res = runner.invoke(main, ["run", "--config", str(config_path)])
    assert res.exit_code == 2
    assert (tmp_path / "out" / "records.csv").exists()


def test_config_from_mapping_round_trip():
    data = {
        "bar_c": 16,
        "generator": {"n_stations": 4, "seed": 2},
        "cells": ["fcc:greedy"],
        "sampler": {"log_mean": 2.0},
        "master_seed": 3,
    }
    cfg = config_from_mapping(data)
    assert cfg.bar_c == 16
    assert cfg.generator.n_stations == 4
    assert cfg.cells[0].key == "fcc:greedy"
    assert cfg.log_mean == 2.0
    assert cfg.log_sd == 1.0


def test_config_from_mapping_rejects_unknown_sampler_key():
    data = {"bar_c": 16, "generator": {"n_stations": 4}, "sampler": {"log_meen": 3.0}}
    with pytest.raises(ValueError, match="unknown sampler key 'log_meen'"):
        config_from_mapping(data)


def test_config_from_mapping_rejects_unknown_generator_key():
    data = {"bar_c": 16, "generator": {"n_stations": 4, "sed": 2}}
    with pytest.raises(ValueError, match="unknown generator key 'sed'"):
        config_from_mapping(data)


def test_config_from_mapping_rejects_unknown_top_level_key():
    data = {"bar_c": 16, "generator": {"n_stations": 4}, "master_sed": 3}
    with pytest.raises(ValueError, match="unknown config key 'master_sed'"):
        config_from_mapping(data)


@pytest.mark.parametrize(
    "config, key",
    [
        ({"sampler": {"log_meen": 3.0}}, "sampler key 'log_meen'"),
        ({"generator": {"n_stations": 4, "sed": 2}}, "generator key 'sed'"),
        ({"master_sed": 3}, "config key 'master_sed'"),
    ],
)
def test_cli_run_reports_an_unknown_key_in_one_line(tmp_path, config, key):
    data = {
        "bar_c": 16,
        "generator": {"n_stations": 4},
        "out_dir": str(tmp_path / "out"),
        **config,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(data))
    res = CliRunner().invoke(main, ["run", "--config", str(config_path)])
    # exit code 2 is kept for runs whose records are incomparable
    assert res.exit_code == 1
    assert res.output.splitlines() == [
        f"Error: invalid config {config_path}: unknown {key}"
    ]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "config, reason",
    [
        ({"n_value_profiles": "5"}, "config key 'n_value_profiles' must be int, not str"),
        ({"generator": 4}, "generator must be an object, not int"),
        ({"bar_c": True}, "config key 'bar_c' must be int, not bool"),
        ({"sampler": {"log_mean": "3"}}, "sampler key 'log_mean' must be float, not str"),
        ({"cells": "fcc:sat"}, "cells must be a list of strings"),
        (
            {"cells": ["fcc:sat", "fcc:sat", "unscored:greedy"]},
            "cell 'fcc:sat' is listed twice",
        ),
        ({"c0_fcc": -1.0}, "c0_fcc and c0_unscored must be positive"),
        ({"c0_unscored": 0}, "c0_fcc and c0_unscored must be positive"),
        ({"sampler": {"log_sd": 0}}, "log_sd must be positive"),
        ({"vcg_node_budget": 0}, "vcg_node_budget must be positive"),
        ({"log_mean": math.nan}, "config key 'log_mean' must be finite, not nan"),
        ({"sampler": {"log_sd": math.inf}}, "sampler key 'log_sd' must be finite, not inf"),
        (
            {"sampler": {"population_exponent": math.nan}},
            "sampler key 'population_exponent' must be finite, not nan",
        ),
        ({"c0_unscored": math.inf}, "config key 'c0_unscored' must be finite, not inf"),
    ],
    ids=[
        "str-for-int",
        "int-for-generator",
        "bool-for-int",
        "str-for-float",
        "str-for-cells",
        "cell-twice",
        "negative-c0-fcc",
        "zero-c0-unscored",
        "zero-log-sd",
        "zero-vcg-node-budget",
        "nan-log-mean",
        "infinite-log-sd",
        "nan-population-exponent",
        "infinite-c0-unscored",
    ],
)
def test_cli_run_reports_a_wrongly_typed_value_in_one_line(tmp_path, config, reason):
    data = {
        "bar_c": 16,
        "generator": {"n_stations": 4},
        "out_dir": str(tmp_path / "out"),
        **config,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(data))
    res = CliRunner().invoke(main, ["run", "--config", str(config_path)])
    assert res.exit_code == 1
    assert res.output.splitlines() == [f"Error: invalid config {config_path}: {reason}"]
    assert not (tmp_path / "out").exists()


def test_config_from_mapping_rejects_a_sampler_key_also_set_at_the_top_level():
    data = {
        "bar_c": 16,
        "generator": {"n_stations": 4},
        "log_mean": 5.0,
        "sampler": {"log_mean": 9.0, "log_sd": 2.0},
    }
    with pytest.raises(ValueError, match="sampler key 'log_mean' is also set at the top level"):
        config_from_mapping(data)
    del data["log_mean"]
    assert config_from_mapping(data).log_mean == 9.0


def test_config_from_mapping_accepts_an_integer_for_a_float_field():
    data = {"bar_c": 16, "generator": {"n_stations": 4}, "c0_fcc": 900}
    assert config_from_mapping(data).c0_fcc == 900


def test_config_from_mapping_rejects_a_config_that_is_not_an_object():
    with pytest.raises(ValueError, match="config must be an object, not list"):
        config_from_mapping([{"bar_c": 16}])


@pytest.mark.parametrize(
    "flags, line",
    [
        (
            ["--cells", "bogus"],
            "Error: invalid option: cell 'bogus' must look like 'fcc:sat' with a "
            "known scoring rule and checker",
        ),
        (["--budget-steps", "0"], "Error: invalid option: budget_steps must be positive"),
        (
            ["--seed", "-1"],
            "Error: invalid option: master_seed must be a non-negative integer",
        ),
        (
            ["--cells", "fcc:sat,fcc:sat"],
            "Error: invalid option: cell 'fcc:sat' is listed twice",
        ),
    ],
    ids=["cells", "budget-steps", "seed", "cells-twice"],
)
def test_cli_run_reports_an_invalid_flag_in_one_line(tmp_path, flags, line):
    data = {"bar_c": 16, "generator": {"n_stations": 4}, "out_dir": str(tmp_path / "out")}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(data))
    res = CliRunner().invoke(main, ["run", "--config", str(config_path), *flags])
    assert res.exit_code == 1
    assert res.output.splitlines() == [line]
    assert not (tmp_path / "out").exists()


def test_cli_run_reports_a_malformed_instance_in_one_line(tmp_path):
    inst_path = tmp_path / "inst.txt"
    inst_path.write_text("CHANNELS 14 16\nSTATION 1 14\n")
    data = {"bar_c": 16, "generator": {"n_stations": 4}, "out_dir": str(tmp_path / "out")}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(data))
    res = CliRunner().invoke(
        main, ["run", "--config", str(config_path), "--instance", str(inst_path)]
    )
    assert res.exit_code == 1
    assert res.output.splitlines() == [
        f"Error: invalid instance {inst_path}: line 2: STATION expects four fields"
    ]
    assert not (tmp_path / "out").exists()


def test_cli_run_reports_a_missing_instance_file_in_one_line(tmp_path):
    missing = tmp_path / "nowhere.txt"
    data = {"bar_c": 16, "instance_path": str(missing), "out_dir": str(tmp_path / "out")}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(data))
    res = CliRunner().invoke(main, ["run", "--config", str(config_path)])
    assert res.exit_code == 1
    [line] = res.output.splitlines()
    assert line.startswith(f"Error: invalid instance {missing}: ")
    assert "No such file or directory" in line


# no constraints, so every station has zero weight under the FCC rule
GOOD_INSTANCE = "CHANNELS 14 16\nSTATION 1 14 1000 14,15\nSTATION 2 14 1000 14\n"
GOOD_VALUES = "1 5.0\n2 7.0\n"
BAD_INSTANCE = "CHANNELS 14 16\nSTATION 1 14\n"
# one comparable record as records.json writes it
GOOD_RECORD = {
    "cell": "fcc:sat",
    "profile": 0,
    "incomparable": False,
    "value_loss_auction": 1.0,
    "value_loss_optimal": 1.0,
    "value_loss_ratio": 1.0,
    "cost_auction": 1.0,
    "cost_vcg": 1.0,
    "cost_fraction": 1.0,
    "checker_timeout_count": 0,
    "rounds": 1,
}


def _records(**changes) -> str:
    """A records.json document of one record: GOOD_RECORD with ``changes``."""
    return json.dumps({"records": [{**GOOD_RECORD, **changes}]})


# two stations that clash on their one channel below 15; valued above any
# opening price, neither takes part, so both must be packed
CLASHING_INSTANCE = (
    "CHANNELS 14 16\nSTATION 1 14 1000 14\nSTATION 2 14 1000 14\nCONSTRAINT 1 14 2 14\n"
)


@pytest.mark.parametrize(
    "files, args, line",
    [
        (
            {"inst.txt": BAD_INSTANCE},
            ["values", "--instance", "inst.txt"],
            "Error: invalid instance inst.txt: line 2: STATION expects four fields",
        ),
        (
            {"inst.txt": BAD_INSTANCE, "values.txt": GOOD_VALUES},
            ["vcg", "--instance", "inst.txt", "--values", "values.txt", "--bar-c", "16"],
            "Error: invalid instance inst.txt: line 2: STATION expects four fields",
        ),
        (
            {"inst.txt": GOOD_INSTANCE, "values.txt": "1 5.0\n2\n"},
            ["vcg", "--instance", "inst.txt", "--values", "values.txt", "--bar-c", "16"],
            "Error: invalid values values.txt: line 2: expected '<station id> <value>'",
        ),
        (
            {"inst.txt": GOOD_INSTANCE, "values.txt": "1 5.0\n"},
            [
                "vcg", "--instance", "inst.txt", "--values", "values.txt", "--bar-c", "16",
                "--scoring", "unscored",
            ],
            "Error: value profile is missing stations [2]",
        ),
        (
            {"inst.txt": GOOD_INSTANCE, "values.txt": GOOD_VALUES + "99 5.0\n"},
            [
                "vcg", "--instance", "inst.txt", "--values", "values.txt", "--bar-c", "16",
                "--scoring", "unscored",
            ],
            "Error: value profile names undeclared stations [99]",
        ),
        (
            {"inst.txt": GOOD_INSTANCE, "values.txt": GOOD_VALUES},
            [
                "vcg", "--instance", "inst.txt", "--values", "values.txt", "--bar-c", "16",
                "--scoring", "fcc",
            ],
            "Error: no station has a positive interference-population weight",
        ),
        (
            {"inst.txt": CLASHING_INSTANCE, "values.txt": "1 1e12\n2 1e12\n"},
            [
                "vcg", "--instance", "inst.txt", "--values", "values.txt", "--bar-c", "15",
                "--scoring", "unscored",
            ],
            "Error: non-participating stations in component [1, 2] cannot be packed",
        ),
        (
            {"records.json": '{"records": ['},
            ["report", "--records", "records.json"],
            "Error: invalid records records.json: "
            "Expecting value: line 1 column 14 (char 13)",
        ),
        (
            {"records.json": "{}"},
            ["report", "--records", "records.json"],
            'Error: invalid records records.json: expected an object with a "records" list',
        ),
        (
            {"records.json": '{"records": 3}'},
            ["report", "--records", "records.json"],
            'Error: invalid records records.json: expected an object with a "records" list',
        ),
        (
            {"records.json": '{"records": [{}]}'},
            ["report", "--records", "records.json"],
            "Error: invalid records records.json: record 0 has no 'value_loss_auction'",
        ),
        (
            {"records.json": _records(cell=5)},
            ["report", "--records", "records.json"],
            "Error: invalid records records.json: record 0 key 'cell' must be str, not int",
        ),
        (
            {"records.json": _records(profile="x")},
            ["report", "--records", "records.json"],
            "Error: invalid records records.json: record 0 key 'profile' must be int, not str",
        ),
        (
            {"records.json": _records(rounds="x")},
            ["report", "--records", "records.json"],
            "Error: invalid records records.json: record 0 key 'rounds' must be int, not str",
        ),
        (
            {"records.json": _records(checker_timeout_count=True)},
            ["report", "--records", "records.json"],
            "Error: invalid records records.json: "
            "record 0 key 'checker_timeout_count' must be int, not bool",
        ),
        (
            {"records.json": _records(incomparable=1)},
            ["report", "--records", "records.json"],
            "Error: invalid records records.json: "
            "record 0 key 'incomparable' must be bool, not int",
        ),
        (
            {"records.json": _records(incomparable=True, reason=None)},
            ["report", "--records", "records.json"],
            "Error: invalid records records.json: "
            "record 0 key 'reason' must be str, not NoneType",
        ),
        (
            {"records.json": _records(cost_vcg=None)},
            ["report", "--records", "records.json"],
            "Error: invalid records records.json: not a number: None",
        ),
        (
            {},
            ["generate", "--n-stations", "-1"],
            "Error: invalid option: n_stations must be non-negative",
        ),
        (
            {},
            ["generate", "--n-stations", "3", "--channel-lo", "20", "--channel-hi", "14"],
            "Error: invalid option: channel_lo must not exceed channel_hi",
        ),
        (
            {},
            ["generate", "--n-stations", "3", "--seed", "-2"],
            "Error: invalid option: seed must be a non-negative integer",
        ),
        (
            {"inst.txt": GOOD_INSTANCE},
            ["values", "--instance", "inst.txt", "--log-sd", "0"],
            "Error: invalid option: log_sd must be positive",
        ),
    ],
    ids=[
        "values-malformed-instance",
        "vcg-malformed-instance",
        "vcg-malformed-values",
        "vcg-missing-stations",
        "vcg-undeclared-stations",
        "vcg-degenerate-fcc",
        "vcg-unpackable",
        "report-malformed-records",
        "report-no-records",
        "report-records-not-a-list",
        "report-record-missing-keys",
        "report-cell-not-a-string",
        "report-profile-not-an-int",
        "report-rounds-not-an-int",
        "report-count-a-bool",
        "report-incomparable-not-a-bool",
        "report-reason-not-a-string",
        "report-float-null",
        "generate-negative-stations",
        "generate-reversed-channels",
        "generate-negative-seed",
        "values-zero-log-sd",
    ],
)
def test_cli_reports_a_bad_input_file_in_one_line(tmp_path, monkeypatch, files, args, line):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 1
    assert res.output.splitlines() == [line]


@pytest.mark.parametrize("c0", ["nan", "inf", "-5", "0"])
def test_cli_vcg_reports_an_opening_price_that_is_not_positive_and_finite(
    tmp_path, monkeypatch, c0
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "inst.txt").write_text(GOOD_INSTANCE)
    (tmp_path / "values.txt").write_text(GOOD_VALUES)
    args = ["vcg", "--instance", "inst.txt", "--values", "values.txt", "--bar-c", "16"]
    res = CliRunner().invoke(main, [*args, "--scoring", "unscored", f"--c0={c0}"])
    assert res.exit_code == 1
    assert res.output.splitlines() == ["Error: c0 must be positive and finite"]


def test_cli_vcg_reports_a_benchmark_out_of_budget_in_one_line(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "inst.txt").write_text(GOOD_INSTANCE)
    (tmp_path / "values.txt").write_text(GOOD_VALUES)
    # no option sets the budget; one table entry is too few for any part
    monkeypatch.setattr(cli, "vcg_outcome", functools.partial(vcg.vcg_outcome, node_budget=1))
    args = ["vcg", "--instance", "inst.txt", "--values", "values.txt", "--bar-c", "16"]
    res = CliRunner().invoke(main, [*args, "--scoring", "unscored"])
    assert res.exit_code == 1
    assert res.output.splitlines() == [
        "Error: exact benchmark exceeded its node budget of 1 table entries"
    ]


def test_cli_run_reports_a_degenerate_instance_in_one_line(tmp_path):
    # no in-band constraint, so every station has zero weight under FCC scoring
    data = {
        "bar_c": 17,
        "generator": {"n_stations": 6, "seed": 1},
        "n_value_profiles": 1,
        "out_dir": str(tmp_path / "out"),
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(data))
    res = CliRunner().invoke(main, ["run", "--config", str(config_path)])
    assert res.exit_code == 1
    assert res.output.splitlines() == [
        "Error: no station has a positive interference-population weight"
    ]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["generate", "values", "vcg", "report", "run"])
def test_cli_reports_an_output_path_it_cannot_write_in_one_line(
    tmp_path, monkeypatch, command
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "inst.txt").write_text(GOOD_INSTANCE)
    (tmp_path / "values.txt").write_text(GOOD_VALUES)
    generator = {"n_stations": 5, "channel_lo": 14, "channel_hi": 18, "seed": 5}
    (tmp_path / "config.json").write_text(
        json.dumps({"bar_c": 17, "generator": generator, "n_value_profiles": 1})
    )
    (tmp_path / "records.json").write_text(
        json.dumps({"records": [{"cell": "fcc:sat", "profile": 0, "incomparable": True}]})
    )
    (tmp_path / "file").write_text("a regular file\n")
    out = "file/out"
    args = {
        "generate": ["generate", "--n-stations", "3"],
        "values": ["values", "--instance", "inst.txt"],
        "vcg": [
            "vcg", "--instance", "inst.txt", "--values", "values.txt", "--bar-c", "16",
            "--scoring", "unscored",
        ],
        "report": ["report", "--records", "records.json"],
        "run": ["run", "--config", "config.json"],
    }[command]

    def refuse(cfg):
        raise AssertionError("the experiment ran before its output path was checked")

    monkeypatch.setattr("repacksim.cli.run_experiment", refuse)
    res = CliRunner().invoke(main, [*args, "--out", out])
    assert res.exit_code == 1
    [line] = res.stderr.splitlines()
    assert line.startswith(f"Error: cannot write {out}: ")
    assert "Not a directory" in line
    # only report prints before it writes: the summary
    assert res.stdout.startswith("cell summaries") if command == "report" else not res.stdout


def test_cli_run_reports_an_output_directory_it_may_not_write_in_one_line(
    tmp_path, monkeypatch
):
    # the tests may run as root, who may write anywhere, so the refusal is
    # patched in rather than made with chmod
    monkeypatch.chdir(tmp_path)
    generator = {"n_stations": 5, "channel_lo": 14, "channel_hi": 18, "seed": 5}
    (tmp_path / "config.json").write_text(
        json.dumps({"bar_c": 17, "generator": generator, "n_value_profiles": 1})
    )
    access = cli.os.access
    monkeypatch.setattr(
        cli.os, "access", lambda path, mode: not mode & cli.os.W_OK and access(path, mode)
    )

    def refuse(cfg):
        raise AssertionError("the experiment ran before its output path was checked")

    monkeypatch.setattr("repacksim.cli.run_experiment", refuse)
    res = CliRunner().invoke(main, ["run", "--config", "config.json", "--out", "out"])
    assert res.exit_code == 1
    [line] = res.stderr.splitlines()
    assert line.startswith("Error: cannot write out: ")
    assert "Permission denied" in line
    assert not res.stdout and not (tmp_path / "out").exists()


def _documented_seed(master_seed, stream, *indices):
    """The seed derivation the experiment module documents."""
    return int(np.random.SeedSequence([master_seed, stream, *indices]).generate_state(1)[0])


def _ratio(numerator, denominator):
    """The metrics' ratio with their zero conventions."""
    if denominator > 0:
        return numerator / denominator
    return 1.0 if numerator == 0 else math.inf


def _reference_records(cfg):
    """Every record of ``cfg`` from the references alone: the plain-loop
    auction, seeded as documented, and the MILP's optimum and restricted
    values for the VCG winners and prices, keyed by (cell, profile)."""
    inst = generate_instance(cfg.generator)
    ct = ClearingTarget(cfg.bar_c)
    records = {}
    for profile in range(cfg.n_value_profiles):
        sampler = ValueSamplerParams(
            cfg.log_mean,
            cfg.log_sd,
            cfg.population_exponent,
            _documented_seed(cfg.master_seed, 10, profile),
        )
        values = sample_values(inst, sampler)
        for index, cell in enumerate(cfg.cells):
            config = AuctionConfig(
                ct=ct,
                scoring=cell.scoring,
                checker=cell.checker,
                budget=Budget(step_limit=cfg.budget_steps),
                seed=_documented_seed(cfg.master_seed, 11, index, profile),
            )
            outcome = reference_auction(inst, values, config, {})
            parts, nons = set(outcome.participants), set(outcome.non_participants)
            on_air = milp_packing(inst, values, parts, nons, ct)
            optimum = sum(values[sid] for sid in sorted(on_air & parts))
            bought = sorted(parts - on_air)
            prices = [
                optimum - (milp_value(inst, values, parts - {sid}, nons | {sid}, ct) or 0.0)
                for sid in bought
            ]
            loss = sum(values[sid] for sid in sorted(outcome.winners))
            optimal_loss = sum(values[sid] for sid in bought)
            paid = sum(outcome.winners[sid] for sid in sorted(outcome.winners))
            records[cell.key, profile] = ComparisonRecord(
                value_loss_auction=loss,
                value_loss_optimal=optimal_loss,
                value_loss_ratio=_ratio(loss, optimal_loss),
                cost_auction=paid,
                cost_vcg=sum(prices),
                cost_fraction=_ratio(paid, sum(prices)),
                checker_timeout_count=outcome.checker_timeout_count,
                rounds=outcome.rounds,
            )
    return records


@pytest.mark.parametrize(
    "n, co_radius, seed, master_seed",
    [(8, 0.45, 5, 11), (13, 0.35, 4, 3), (14, 0.35, 8, 7)],
)
def test_records_match_an_end_to_end_reference(n, co_radius, seed, master_seed):
    # The five default cells and two profiles of the run_grid.py geometry. In
    # the 13-station config the scored and unscored cells run different
    # participant sets with different benchmarks, so the benchmark cache
    # must be keyed by the set.
    cfg = ExperimentConfig(
        bar_c=17,
        generator=GeneratorParams(
            n_stations=n,
            channel_lo=14,
            channel_hi=18,
            co_channel_radius=co_radius,
            adjacent_channel_radius=0.1,
            seed=seed,
        ),
        n_value_profiles=2,
        master_seed=master_seed,
    )
    expected = _reference_records(cfg)
    result = run_experiment(cfg)
    assert [(row.cell, row.profile) for row in result.rows] == sorted(expected)
    assert not result.any_incomparable
    # the records, then the CSV text that carries four of their fields
    for row in result.rows:
        want = expected[row.cell, row.profile]
        for field in fields(ComparisonRecord):
            got, ref = getattr(row.record, field.name), getattr(want, field.name)
            if isinstance(ref, int):
                assert got == ref, field.name
            else:
                assert got == pytest.approx(ref, rel=1e-9), field.name
    for line in records_csv(result).splitlines()[1:]:
        cell, profile, fraction, ratio, timeouts, rounds = line.split(",")
        want = expected[cell, int(profile)]
        assert float(fraction) == pytest.approx(want.cost_fraction, rel=1e-9)
        assert float(ratio) == pytest.approx(want.value_loss_ratio, rel=1e-9)
        assert (int(timeouts), int(rounds)) == (want.checker_timeout_count, want.rounds)
