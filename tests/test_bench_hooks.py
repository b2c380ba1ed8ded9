"""The benchmark's tracer (``bench/tracer.py``) hooks into the package from
outside ``src/``: it imports names from it and wraps its functions by name.
A change to the package must leave a traced run working."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_the_package():
    paths = [str(ROOT / "src"), str(ROOT / "bench")]
    code = (f"import sys; sys.path[:0] = {paths!r}; "
            "import symlax, tracer; tracer.Tracer().install()")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, timeout=120)
    assert r.returncode == 0, r.stderr
