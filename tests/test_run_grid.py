import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from repacksim.experiment import CSV_HEADER

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_grid.py"
spec = importlib.util.spec_from_file_location("run_grid", SCRIPT)
run_grid = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run_grid)


def test_the_readme_demo_writes_every_record(tmp_path, monkeypatch, capsys):
    out = tmp_path / "demo"
    argv = ["run_grid.py", "--seed", "7", "--out", str(out), "--stations", "10"]
    monkeypatch.setattr(sys, "argv", argv)
    assert run_grid.main() == 0
    lines = (out / "records.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    # five default cells by five value profiles
    assert len(lines) == 1 + 25
    assert (out / "records.json").exists()
    assert capsys.readouterr().out.startswith("cell summaries")


#: sha256 of the outputs of ``run_grid.py --seed 7 --stations 30``, the
#: config whose SAT and enumeration checks are the largest of the demos.
PINNED_30_STATION_DIGESTS = {
    "records.csv": "0603fc4b09ccc91755a7ee9488265f9775e933ca782ec3bfeb56b67c5e3af082",
    "records.json": "d1baada6c2678e5d0b2c459c33cb7959b0f7785d8db8f77d69edcb86b48a71cc",
}


def test_the_30_station_config_writes_pinned_bytes(tmp_path, monkeypatch, capsys):
    out = tmp_path / "grid30"
    argv = ["run_grid.py", "--seed", "7", "--stations", "30", "--out", str(out)]
    monkeypatch.setattr(sys, "argv", argv)
    assert run_grid.main() == 0
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in PINNED_30_STATION_DIGESTS
    }
    assert digests == PINNED_30_STATION_DIGESTS


def test_a_30_station_draw_past_the_old_enumeration_bound_is_comparable(tmp_path, monkeypatch):
    # one exhaustive check of seed 1 has a joint space of 25,509,168
    # assignments; enumeration decides it in 598 steps, so no record is lost
    out = tmp_path / "grid30"
    argv = ["run_grid.py", "--seed", "1", "--stations", "30", "--out", str(out)]
    monkeypatch.setattr(sys, "argv", argv)
    assert run_grid.main() == 0
    rows = (out / "records.csv").read_text().splitlines()[1:]
    # an incomparable row reads nan for its cost fraction and loss ratio
    assert len(rows) == 25 and not any("nan" in row for row in rows)


def test_an_unpackable_draw_is_reported_in_one_line(tmp_path, monkeypatch):
    out = tmp_path / "grid30"
    argv = ["run_grid.py", "--seed", "10", "--stations", "30", "--out", str(out)]
    monkeypatch.setattr(sys, "argv", argv)
    with pytest.raises(SystemExit) as exc:
        run_grid.main()
    assert exc.value.code == (
        "run_grid.py: stations [6, 12, 14, 17] cannot be jointly packed "
        "in the reduced band"
    )


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--profiles", "0"], "need at least one value profile"),
        (["--stations", "-1"], "n_stations must be non-negative"),
        (["--budget-steps", "0"], "budget_steps must be positive"),
    ],
)
def test_a_bad_argument_is_reported_in_one_line(tmp_path, monkeypatch, flags, message):
    out = tmp_path / "demo"
    monkeypatch.setattr(sys, "argv", ["run_grid.py", "--out", str(out), *flags])
    with pytest.raises(SystemExit) as exc:
        run_grid.main()
    # a string exit code prints as one line and exits with status 1
    assert exc.value.code == f"run_grid.py: {message}"
    assert not out.exists()


def test_an_out_under_a_regular_file_is_reported_before_the_run(tmp_path, monkeypatch):
    (tmp_path / "file").write_text("a regular file\n")
    out = tmp_path / "file" / "x"
    argv = ["run_grid.py", "--stations", "4", "--profiles", "1", "--out", str(out)]
    monkeypatch.setattr(sys, "argv", argv)

    def refuse(cfg):
        raise AssertionError("the experiment ran before its output path was checked")

    monkeypatch.setattr(run_grid, "run_experiment", refuse)
    with pytest.raises(SystemExit) as exc:
        run_grid.main()
    # one line and exit 1, as for a bad argument
    assert exc.value.code.startswith(f"run_grid.py: cannot write {out}: ")
    assert "Not a directory" in exc.value.code and "\n" not in exc.value.code
