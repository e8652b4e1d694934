"""tools/untested_lines.py: the line recorder that lists the source lines a run never executed."""
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "untested_lines.py"

MODULE = '''"""A module."""


def choose(x):
    """Docstrings are not lines."""
    if x:
        return 1
    return 2


class Box:
    size = 1

    def used(self):
        return [i
                for i in range(3)]

    def unused(self):
        return 3
'''

SCRIPT = '''import sys
sys.path.insert(0, "pkg")
import mod
mod.choose(True)
mod.Box().used()
sys.exit(int(sys.argv[1]))
'''


def run_tool(tmp_path, *args):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(MODULE)
    (tmp_path / "run.py").write_text(SCRIPT)
    return subprocess.run([sys.executable, str(TOOL), *args], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)


def test_lists_each_line_the_run_never_executed(tmp_path):
    proc = run_tool(tmp_path, "--src", "pkg", "run.py", "0")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "pkg/mod.py:8: return 2",
        "pkg/mod.py:19: return 3",
        "2 of 12 executable lines under pkg never ran"]


def test_exit_status_is_the_targets(tmp_path):
    proc = run_tool(tmp_path, "--src", "pkg", "run.py", "3")
    assert proc.returncode == 3
    assert proc.stdout.splitlines()[-1] == "2 of 12 executable lines under pkg never ran"


def test_module_target_runs_under_the_recorder(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(MODULE)
    proc = subprocess.run([sys.executable, str(TOOL), "--src", "pkg", "-m", "mod"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60,
                          env={"PYTHONPATH": "pkg"})
    assert proc.returncode == 0, proc.stderr
    # run as __main__, the module defines its names and calls none of them
    assert [line.split(":")[1] for line in proc.stdout.splitlines()[:-1]] == \
        ["6", "7", "8", "15", "16", "19"]
    assert proc.stdout.splitlines()[-1] == "6 of 12 executable lines under pkg never ran"
