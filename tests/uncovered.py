"""Print every line of the package that no Tier-1 test executes.

Runs the Tier-1 suite in this process under a ``sys.settrace`` hook that
traces only the frames of code in ``src/circlegather`` and records the lines
they execute. Then it prints, module by module, each line that holds code
(a line of a compiled code object of the module) and was never executed,
grouped into ranges. Only the main thread is traced, and not the
subprocesses that tests start. Only the standard library is used, besides
pytest to run the suite::

    python tests/uncovered.py [pytest arguments]

The file name does not match ``test_*.py``, so pytest does not collect it.
The suite runs several times slower under the hook. The exit status is
pytest's.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "circlegather"


def code_lines(code) -> set:
    """The lines of ``code`` and of the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def ranges(lines) -> str:
    """``lines`` as sorted comma-separated ranges, such as ``3, 7-9``."""
    spans = []
    for line in sorted(lines):
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv) -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    prefix = str(PACKAGE) + "/"
    executed: dict = {}
    ours: dict = {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        code = frame.f_code
        mine = ours.get(code)
        if mine is None:
            mine = ours[code] = code.co_filename.startswith(prefix)
            if mine:
                executed.setdefault(code.co_filename, set())
        if not mine:
            return None
        # A call's first event is at the line that defines the code.
        executed[code.co_filename].add(frame.f_lineno)
        return local

    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)

    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = code_lines(compile(source, str(path), "exec"))
        unrun = lines - executed.get(str(path), set())
        total += len(lines)
        missed += len(unrun)
        if unrun:
            print(f"{path.relative_to(ROOT)}: {ranges(unrun)}")
    print(f"{missed} of {total} code lines in {PACKAGE.relative_to(ROOT)} ran under no test")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
