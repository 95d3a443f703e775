"""The package imports no test-only library at run time.

networkx and scipy are test oracles (the ``test`` extra), not runtime
dependencies: importing the package and its entry points must leave
both out of ``sys.modules``.  Checked in a fresh interpreter, since the
test session itself imports them.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys
import repro, repro.api, repro.cli, repro.experiments.sweeps
print(" ".join(sorted(m for m in ("networkx", "scipy") if m in sys.modules)))
"""


def test_entry_points_import_neither_networkx_nor_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == "", (
        f"imported at run time: {result.stdout.strip()}"
    )
