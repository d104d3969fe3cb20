"""Smoke test of tools/src_coverage.py's executable-line finder."""
import importlib.util
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_executable_lines_walk_nested_code(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "src_coverage", ROOT / "tools" / "src_coverage.py")
    coverage = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(coverage)
    module = tmp_path / "small.py"
    module.write_text(textwrap.dedent('''\
        import math
        # a comment

        def outer(x):
            def inner(y):
                return [v * y for v in range(3)]
            return inner(x)


        class Shape:
            def area(self):
                return math.pi
        '''))
    lines = coverage.executable_lines(module)
    # every statement, those of the nested function, comprehension and
    # method included; no comment or blank line
    assert {1, 4, 5, 6, 7, 10, 11, 12} <= lines
    assert not lines & {2, 3, 8, 9}
