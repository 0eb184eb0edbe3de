import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("args", [[], ["--seed", "7"]], ids=["unit-offsets", "seed-7"])
def test_run_families_demo(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_families.py"), *args],
        capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    rows = result.stdout.splitlines()[2:]
    assert rows and not any(row.split()[-1] == "NO" for row in rows)
