"""Tier-1 line coverage of src/wmodexp, with the standard library alone.

Run from the repository root:

    python tests/line_coverage.py [pytest arguments]

The tier-1 suite runs in this process under a sys.settrace tracer that
traces only frames whose file is under src/wmodexp. Then each module's
executable lines that no test executed are printed. The exit status is
pytest's when a test fails; otherwise it is 1 when more than
MAX_UNEXECUTED lines are left unexecuted. Lines that only a subprocess
reaches (the CLI tests that start `python -m wmodexp.cli`) count as
unexecuted. The counts are taken on CPython 3.11: other versions may
report a line's events differently.

This file is not collected by pytest (its name does not start with test_).
"""

from __future__ import annotations

import dis
import os
import sys
from types import CodeType

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "wmodexp") + os.sep
# The residue left unexecuted by tier-1; each line has its reason in CHANGES.md.
MAX_UNEXECUTED = 1

executed: dict[str, set[int]] = {}


def trace_lines(frame, event, arg):
    """Global and local trace function: a frame outside src/wmodexp gets no
    local tracer; inside it, every line event is recorded. A plain function,
    so no tracer closure keeps a traced frame alive."""
    filename = frame.f_code.co_filename
    if not filename.startswith(SRC):
        return None
    if event == "line":
        executed.setdefault(filename, set()).add(frame.f_lineno)
    return trace_lines


def executable_lines(path: str) -> set[int]:
    """Line numbers that start a bytecode instruction in any code object of
    the module, less line 0, where a module's code starts."""
    with open(path, encoding="utf-8") as handle:
        stack = [compile(handle.read(), path, "exec")]
    lines: set[int] = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        stack.extend(const for const in code.co_consts if isinstance(const, CodeType))
    return lines


def unexecuted() -> dict[str, list[int]]:
    """Per module (path relative to the repository root), the sorted
    executable lines that no traced frame reached."""
    missed = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            path = os.path.join(SRC, name)
            lines = sorted(executable_lines(path) - executed.get(path, set()))
            if lines:
                missed[os.path.relpath(path, ROOT)] = lines
    return missed


def main(argv: list[str]) -> int:
    os.chdir(ROOT)  # pyproject.toml puts ROOT/src on the path and names the tests
    sys.settrace(trace_lines)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
    missed = unexecuted()
    total = sum(map(len, missed.values()))
    for path, lines in missed.items():
        print(f"{path}: {len(lines)} unexecuted: {', '.join(map(str, lines))}")
    print(f"{total} unexecuted lines in src/wmodexp (at most {MAX_UNEXECUTED} allowed)")
    if status:
        return int(status)
    return int(total > MAX_UNEXECUTED)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
