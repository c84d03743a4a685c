import importlib.util
import sys
from pathlib import Path

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
