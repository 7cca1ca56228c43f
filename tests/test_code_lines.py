"""tools/code_lines.py counts the code lines the ROADMAP's size figures quote."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

# 10 code lines: the import, the class and def lines, the four lines of the
# call, the two of the string statement that is not a docstring, the return
FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment


# a comment line
class Box:
    """Class docstring."""

    def size(self):
        """Function docstring,
        over two lines."""
        total = max(
            len(os.sep),
            2,
        )
        """a string statement,
        not a docstring"""
        return total
'''


def _load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_counts_code_and_not_docstrings_comments_or_blanks(tmp_path, capsys):
    tool = _load_tool()
    (tmp_path / "box.py").write_text(FIXTURE)
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n\n# and a comment\n')
    assert tool.code_lines(tmp_path / "box.py") == 10
    assert tool.code_lines(tmp_path / "empty.py") == 0
    assert tool.main(["code_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        f"{'box.py':<20} {10:>5}", f"{'empty.py':<20} {0:>5}", f"{'total':<20} {10:>5}", ""]
