"""scripts/code_lines.py counts code lines, leaving out blank lines,
comment-only lines and docstrings."""

import importlib.util
import pathlib

SCRIPT = (pathlib.Path(__file__).resolve().parent.parent / "scripts"
          / "code_lines.py")
spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line

# a comment-only line


class Box:
    """Class docstring."""

    size = 3


def area(r):
    """Function docstring,

    over three lines."""
    text = """a string that is not a docstring
spans two lines"""
    return (math.pi
            * r * r), text
'''
# import, class, size, def, text (2 lines), return (2 lines)
SAMPLE_LINES = 8


def test_sample_count():
    assert code_lines.code_lines(SAMPLE) == SAMPLE_LINES


def test_main_prints_per_file_and_total(tmp_path, capsys):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text(SAMPLE)
    b.write_text("x = 1\n\n# comment\ny = 2\n")
    assert code_lines.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{SAMPLE_LINES:6d} {a}", f"{2:6d} {b}", f"{SAMPLE_LINES + 2:6d} total"]


def test_default_is_the_package(capsys):
    assert code_lines.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = [pathlib.Path(line.split()[1]).name for line in lines[:-1]]
    assert "privacy_audit.py" in names and "cli.py" in names
    assert int(lines[-1].split()[0]) == sum(
        int(line.split()[0]) for line in lines[:-1])
