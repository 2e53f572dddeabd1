"""The package's public names and the README's library example stay in step."""

import re
from pathlib import Path

import twoproc

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_all_is_the_documented_list():
    paragraph = next(p for p in README.split("\n\n") if p.startswith("Public API:"))
    documented = re.findall(r"`(\w+)`", paragraph)
    assert sorted(twoproc.__all__) == sorted(documented)
    for name in twoproc.__all__:
        assert getattr(twoproc, name) is not None


def test_readme_example_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README, flags=re.S)
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2
    assert all(float(v) > 0.0 for line in printed for v in line.split())
