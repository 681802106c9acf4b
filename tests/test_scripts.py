"""Every script in scripts/ runs to completion on small arguments."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SMALL_ARGS = {
    "decoherence_experiments.py": ["--trials", "5", "--seed", "3"],
    "threebox_tables.py": [],
    "twoslit_scan.py": ["--panels", "16"],
}


def test_every_script_has_small_arguments():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(SMALL_ARGS)


@pytest.mark.parametrize("name", sorted(SMALL_ARGS))
def test_script_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *SMALL_ARGS[name]],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
