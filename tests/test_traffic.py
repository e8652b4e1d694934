"""tools/traffic.py: the driver that runs every CLI subcommand at a tiny config."""
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "traffic.py"


def test_every_command_of_the_driver_exits_0(tmp_path):
    proc = subprocess.run([sys.executable, str(TOOL)], cwd=tmp_path, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert all(line.startswith(("exit 0: condrep ", "bench ")) for line in proc.stderr.splitlines())
