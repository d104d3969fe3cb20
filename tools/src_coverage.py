"""Line coverage of ``src/ymspec`` by the tier-1 suite, by ``sys.settrace``
(no coverage package): ``python tools/src_coverage.py [PYTEST_ARGS...]`` runs
pytest in this process (default ``-q --continue-on-collection-errors``),
traces lines only in ``src/ymspec`` frames, and prints per module the
covered/executable lines, the ``co_lines()`` of its code objects, nested ones
included, and the missed ones.  Lines run only in a subprocess (a test that
starts the CLI) count as missed.  The tracer allocates frame objects, so
tests that measure memory with tracemalloc may fail under it."""
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ymspec"


def executable_lines(path) -> set[int]:
    """The line numbers of every code object compiled from the file."""
    lines, todo = set(), [compile(Path(path).read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def main(args) -> int:
    # SRC leads sys.path, so a module's co_filename is str() of its path
    seen = {str(p): set() for p in SRC.glob("*.py")}

    def trace(frame, event, arg):
        hits = seen.get(frame.f_code.co_filename)
        def lines(frame, event, arg):
            hits.add(frame.f_lineno)
            return lines
        return None if hits is None else lines(frame, event, arg)

    sys.path.insert(0, str(SRC.parent))
    sys.settrace(trace)
    code = pytest.main(args or ["-q", "--continue-on-collection-errors"])
    sys.settrace(None)
    for path in sorted(seen):
        missed = sorted((want := executable_lines(path)) - seen[path])
        print(f"{Path(path).name}: {len(want) - len(missed)}/{len(want)}, "
              f"missed {missed}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
