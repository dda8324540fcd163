"""The README's library example runs as written."""

from pathlib import Path
import re


def test_readme_library_example_runs(capsys):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    value, iterations, ended = capsys.readouterr().out.split()
    assert float(value) > 0.0 and int(iterations) >= 1
    assert ended in ("threshold", "max_iters")
