"""The README's Quick tour and CLI examples run as written."""

import pathlib
import re
import shlex

from fadecount import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    # the tour's last line shows a coupling that replays identically
    assert namespace["report"].outputs_identical
    assert round(namespace["cal"].epsilon, 4) == 0.1341
    # and its first loop prints the counter's six releases
    assert len(capsys.readouterr().out.splitlines()) == 6


def _cli_commands():
    """Each `fadecount ...` command of the README's plain code blocks, its
    continuation lines joined and its trailing comment dropped."""
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", README.read_text(),
                        re.MULTILINE | re.DOTALL)
    text = "\n".join(body for lang, body in blocks if not lang)
    text = text.replace("\\\n", " ")
    return [shlex.split(line, comments=True)[1:]
            for line in text.splitlines() if line.startswith("fadecount ")]


def test_cli_examples_run(tmp_path, monkeypatch, capsys):
    commands = _cli_commands()
    assert {argv[0] for argv in commands} == {"run", "audit", "calibrate",
                                              "figures"}
    monkeypatch.chdir(tmp_path)
    (tmp_path / "stream.txt").write_text("0.5\n1\n0\n0.25\n" * 10)
    for argv in commands:
        assert cli.main(argv) == 0, argv
