"""Run tier-1 once and fail on any src/ssae line that it never ran.

    PYTHONPATH=src python -X dev tools/tier1.py -q --continue-on-collection-errors --durations=10

The arguments go to pytest as they are.  While pytest runs, a sys.settrace
tracer records each (file path, line) run in a file under src/ssae.  (The
stdlib trace module caches its ignore decision by bare module name, so an
ignored site-packages hypothesis/core.py hides src/ssae/core.py from it.)
Then each src/ssae/*.py is compiled, its executable lines are the line
starts (dis.findlinestarts) of every nested code object, and each one that
never ran is printed as path:line.  The exit status is pytest's, or 1 if
pytest passed and a line never ran.

The tracer keeps nothing per call: a closure per call would be a reference
cycle, and the tests that compare tracemalloc peaks would count it.
"""
import dis
import os
import sys
from pathlib import Path

import pytest


def line_starts(code):
    yield from (line for _, line in dis.findlinestarts(code) if line)
    for const in code.co_consts:
        if isinstance(const, type(code)):
            yield from line_starts(const)


def main(args: list[str]) -> int:
    sources = sorted((Path(__file__).absolute().parents[1] / "src" / "ssae").glob("*.py"))
    files = {str(path) for path in sources}
    ran = set()

    def trace_call(frame, event, arg):
        return trace_line if frame.f_code.co_filename in files else None

    def trace_line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_line

    sys.settrace(trace_call)
    status = int(pytest.main(args))
    sys.settrace(None)
    missed = []
    for path in sources:
        code = compile(path.read_bytes(), str(path), "exec")
        missed += [f"{os.path.relpath(path)}:{line}" for line in sorted(set(line_starts(code)))
                   if (str(path), line) not in ran]
    if missed:
        print(*missed, f"{len(missed)} src/ssae lines never ran under tier-1", sep="\n")
    return status or int(bool(missed))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
