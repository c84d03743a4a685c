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
