"""The README's Quick tour runs as written against the package."""

import pathlib
import re

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
