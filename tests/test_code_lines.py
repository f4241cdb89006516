"""tools/code_lines.py: the code-line count the simplicity aim reports."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SAMPLE = '''"""Module docstring
over two lines."""

# a comment
import math  # a trailing comment


class Box:
    """Class docstring."""

    size = 1

    def area(self):
        """Function docstring
        over two lines."""
        text = """a string that is
        not a docstring"""
        return math.pi * self.size + len(text)
'''


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_only(tmp_path):
    """import, class, size, def, the two lines of the string and return."""
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    assert _tool().code_lines(path) == 7


def test_prints_modules_and_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert _tool().main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["a.py", "7", "b.py", "1", "total", "8"]
