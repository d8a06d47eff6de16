import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_package_loads_only_numpy_and_the_standard_library():
    # pyproject.toml declares numpy as the one runtime dependency.  The
    # modules already loaded when the interpreter starts are left out.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import statesphere, statesphere.cli\n"
        "print(*sorted({name.split('.')[0] for name in set(sys.modules) - before}))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=60, check=True,
    )
    loaded = set(proc.stdout.split())
    assert {"numpy", "statesphere"} <= loaded
    assert loaded - sys.stdlib_module_names - {"numpy", "statesphere"} == set()
