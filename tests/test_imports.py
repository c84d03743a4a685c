import os
import subprocess
import sys
from pathlib import Path

import repacksim


def test_importing_the_package_loads_no_scipy():
    # scipy.optimize alone adds most of a second and tens of MB to every
    # process that imports repacksim; nothing on the run path needs it
    src = str(Path(repacksim.__file__).resolve().parents[1])
    probe = (
        "import sys\n"
        "import repacksim, repacksim.cli, repacksim.experiment\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout == "[]\n"
