#!/usr/bin/env python3
"""List the executable lines of src/wkorient that a pytest run never runs.

No coverage package is needed.  pytest runs in this process under a
``sys.settrace`` tracer (``threading.settrace`` too) that records every
line event in src/wkorient, with ``WKORIENT_WORKERS=1`` so that no work
leaves the process.  The executable lines of a file are the ``co_lines()``
of its module code object and every nested code object, less ``def``,
``class`` and decorator lines (a body line shows whether a function ran).
Prints ``file:line`` for each executable line that never ran, after
pytest's own output, and exits with pytest's status.

All arguments go to pytest (default ``-q``).  Run from the repository root:

    python scripts/line_scan.py
    python scripts/line_scan.py tests/test_models.py -q
"""

import os
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wkorient"


def executable_lines(path: Path) -> list[int]:
    source = path.read_text()
    text = source.splitlines()
    lines, todo = set(), [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        # None marks no source line; 0 is the module code's entry point
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    header = ("def ", "async def ", "class ", "@")
    return sorted(n for n in lines if not text[n - 1].lstrip().startswith(header))


def main(argv=None) -> int:
    os.environ["WKORIENT_WORKERS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    paths = sorted(PACKAGE.glob("*.py"))
    ran: dict[str, set[int]] = {str(path): set() for path in paths}

    def trace(frame, event, arg):
        seen = ran.get(frame.f_code.co_filename)
        if seen is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local

        return local

    sys.settrace(trace)
    threading.settrace(trace)
    try:
        status = pytest.main(argv or ["-q"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for path in paths:
        for line in executable_lines(path):
            if line not in ran[str(path)]:
                print(f"{path.relative_to(ROOT)}:{line}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
