"""The README's library example and `cfota` lines run as written."""

from dataclasses import fields
from pathlib import Path
import re
import shlex

from cfota import cli, runner

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    value, iterations, ended = capsys.readouterr().out.split()
    assert float(value) > 0.0 and int(iterations) >= 1
    assert ended in ("threshold", "max_iters")


def test_readme_cli_lines_run(tmp_path, monkeypatch):
    # each `cfota` line of a sh block parses, loads its config and writes its
    # CSV; no seed runs, so the run verbs write a header to tmp_path
    lines = [shlex.split(line, comments=True)
             for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
             for line in block.splitlines() if line.startswith("cfota ")]
    assert {argv[1] for argv in lines} == {"validate-config", "mse-sweep", "train",
                                           "fronthaul"}
    monkeypatch.chdir(tmp_path)
    for name in ("run_mse_sweep", "run_fl_training"):
        monkeypatch.setattr(runner, name, lambda cfg: [])
    for argv in lines:
        argv = [str(README.parent / arg) if arg.startswith("configs/") else arg
                for arg in argv[1:]]
        assert cli.main(argv) == 0, argv


def test_readme_config_keys_name_every_field():
    section = README.read_text().split("### Config keys", 1)[1].split("\n## ", 1)[0]
    missing = [f.name for f in fields(runner.ScenarioConfig)
               if f.name != "idx_paths" and f"`{f.name}`" not in section]
    assert not missing
