"""tools/loc.py: code lines are the lines with code, docstrings excluded."""

import importlib.util
from pathlib import Path

LOC_PATH = Path(__file__).resolve().parent.parent / "tools" / "loc.py"
_spec = importlib.util.spec_from_file_location("loc", LOC_PATH)
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

FIXTURE = '''"""Module docstring,
on two lines."""

import os  # a trailing comment counts as code


class Box:
    """Class docstring."""

    text = """a string that is
    not a docstring"""

    def size(self):
        # a comment line

        return len(os.sep)
'''


def test_counts_code_lines_of_a_fixture_package(tmp_path, capsys):
    # import, class, the two lines of `text`, def, return.
    assert loc.code_lines(FIXTURE) == 6
    (tmp_path / "box.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n', encoding="utf-8")
    assert loc.count_package(tmp_path) == {"box.py": 6, "empty.py": 0}
    loc.main(tmp_path)
    out = capsys.readouterr().out.splitlines()
    assert out == ["     6  box.py", "     0  empty.py", "     6  total"]
