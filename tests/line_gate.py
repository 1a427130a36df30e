"""Line gate: every line of ``src/qrnet`` runs under the test suite.

Run it from the repository root, apart from the tier-1 run, since the trace
hook makes the suite about three times slower:

    python tests/line_gate.py [extra pytest arguments]

It runs pytest in this process under a ``sys.settrace`` hook that records
the lines executed in ``src/qrnet/*.py``, and compares them with the lines
of every code object's ``co_lines()``. It exits 1 if the tests fail, if a
line did not run that ``ALLOWED`` does not name, or if a line ``ALLOWED``
names now runs. pytest does not collect this file.
"""

import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qrnet"
# import qrnet by this absolute path, so code objects name the files below
sys.path.insert(0, str(SRC.parent))

# (file, the line's stripped text) -> reason
ALLOWED = {
    (
        "netlayer.py",
        'return Failure("Stalled", "event queue drained before the request finished")',
    ): "fault detection: a request whose events drain without closing it",
}


def expected_lines(path: Path) -> set[int]:
    """Lines that start an instruction in the module or any code inside it."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        # line 0 marks a module's set-up instructions, which no source line holds
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    files = {str(path): path for path in sorted(SRC.glob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename in ran else None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "-W", "error", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if status != 0:
        return 1
    failures = []
    for name, path in files.items():
        source = path.read_text().splitlines()
        for line in sorted(expected_lines(path) - ran[name]):
            text = source[line - 1].strip()
            if (path.name, text) not in ALLOWED:
                failures.append(f"{path.name}:{line}: not run: {text}")
        for (file, text) in ALLOWED:
            if file == path.name:
                hits = [i + 1 for i, s in enumerate(source) if s.strip() == text]
                if not hits or all(i in ran[name] for i in hits):
                    failures.append(f"{file}: allowed line runs or is gone: {text}")
    print("\n".join(failures) or f"line gate: every line of {SRC.name} ran")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
