"""Every script in scripts/ runs to completion on small arguments."""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TMP = object()   # stands for the test's own temporary directory
SMALL_ARGS = {
    "cap_rss.py": ["decohere", "--model", str(ROOT / "models" / "qubit_a.model"), "--out", TMP],
    "decoherence_experiments.py": ["--trials", "5", "--seed", "3"],
    "threebox_tables.py": [],
    "twoslit_scan.py": ["--panels", "16"],
}


def test_every_script_has_small_arguments():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(SMALL_ARGS)


def _run_script(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    args = [str(tmp_path) if arg is TMP else arg for arg in SMALL_ARGS[name]]
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("name", sorted(SMALL_ARGS))
def test_script_runs(name, tmp_path):
    proc = _run_script(name, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_cap_rss_reports_the_child(tmp_path):
    """cap_rss.py reports decohere's exit status, a peak and the digest of each
    artifact it wrote."""
    report = json.loads(_run_script("cap_rss.py", tmp_path).stdout)
    assert report["status"] == 0 and report["peak_rss_mib"] > 0 and report["wall_s"] > 0
    assert sorted(report["sha256"]) == ["decoherence.json", "functional.csv", "manifest.json"]
    for name, digest in report["sha256"].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest
