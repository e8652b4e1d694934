"""The quick demos run to completion against this checkout's sources."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ("01_autodiff_and_gradcheck.py", "02_synthetic_pools.py",
         "03_conditional_matrices.py")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cli_pipeline_demo_writes_every_artifact(tmp_path):
    # the demo calls the installed `condrep` command; a shim on PATH runs this
    # checkout's CLI in its place
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "condrep"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m condrep.cli "$@"\n')
    shim.chmod(0o755)
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), CONDREP_OUTDIR=str(out),
               PATH=f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}")
    proc = subprocess.run(["sh", str(ROOT / "demos" / "05_cli_pipeline.sh")], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in (out / "run").iterdir()) == [
        "accuracy.csv", "accuracy.svg", "checkpoint.txt", "embeddings_query.csv", "loss.csv",
        "loss.svg", "report.json"]
