#!/usr/bin/env python3
"""Print the lines of a source tree that one Python run never executed.

    python3 tools/untested_lines.py [--src src/condrep] -m pytest -q tests
    python3 tools/untested_lines.py [--src DIR] path/to/script.py [args ...]

The target runs in this process under a stdlib ``sys.settrace`` recorder
(``coverage`` is not a dependency of the project), in every thread it
starts. A line is executable when the compiled code of its file starts a
line there; a ``def`` or ``class`` line counts as run when the enclosing
code defines it. Each miss is printed as ``path:line: source``, then one
summary line. Code that runs only in a child process is not seen, so its
lines are reported as misses. The exit status is the target's.
"""
from __future__ import annotations

import dis
import os
import runpy
import sys
import threading
from pathlib import Path


def executable_lines(path: Path) -> set[int]:
    """The lines on which the compiled code of ``path`` starts a line."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        starts = {line for _, line in dis.findlinestarts(code) if line}   # 0: no source line
        if code.co_name != "<module>":
            # a function or class body starts on its own header line, which
            # the enclosing code runs when it defines the body
            starts.discard(code.co_firstlineno)
        lines |= starts
        stack.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


def run_traced(src: Path, target: list[str]) -> tuple[set[tuple[str, int]], int]:
    """Run ``target`` (``-m module args`` or ``script args``) and return the
    (file, line) pairs it executed under ``src``, and its exit status."""
    root = str(src.resolve()) + os.sep
    under: dict[str, bool] = {}
    hits: set[tuple[str, int]] = set()

    def local(frame, event, _arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def start(frame, _event, _arg):
        name = frame.f_code.co_filename
        if name not in under:
            under[name] = os.path.realpath(name).startswith(root)
        return local if under[name] else None

    argv = sys.argv
    sys.argv = target[1:] if target[0] == "-m" else list(target)
    threading.settrace(start)
    sys.settrace(start)
    try:
        if target[0] == "-m":
            runpy.run_module(target[1], run_name="__main__", alter_sys=True)
        else:
            runpy.run_path(target[0], run_name="__main__")
        status = 0
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else (exc.code is not None)
    finally:
        sys.settrace(None)
        threading.settrace(None)
        sys.argv = argv
    return {(os.path.realpath(f), line) for f, line in hits}, status


def main(argv: list[str]) -> int:
    src = Path("src/condrep")
    if argv[:1] == ["--src"] and len(argv) > 1:
        src, argv = Path(argv[1]), argv[2:]
    if not argv or argv[0] in ("-h", "--help") or argv == ["-m"]:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    hits, status = run_traced(src, argv)
    total = missed = 0
    for path in sorted(src.resolve().rglob("*.py")):
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        misses = sorted(line for line in lines if (str(path), line) not in hits)
        total, missed = total + len(lines), missed + len(misses)
        shown = path.relative_to(Path.cwd()) if path.is_relative_to(Path.cwd()) else path
        for line in misses:
            print(f"{shown}:{line}: {source[line - 1].strip()}")
    print(f"{missed} of {total} executable lines under {src} never ran")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
