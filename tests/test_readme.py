"""The README's library example runs as written and its CLI reference names
the config fields and flags the code declares, so the documented API stays honest."""
import argparse
import dataclasses
import re
from pathlib import Path

from phaselab import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], f"{README}:python", "exec"), {"__name__": "readme_example"})


def test_readme_config_grammar_lists_every_field():
    section = README.read_text().split("### Config file grammar", 1)[1]
    block = re.search(r"^```\n(.*?)^```", section, re.M | re.S).group(1)
    keys = {line.split()[0] for line in block.splitlines()}
    assert keys == {f.name for f in dataclasses.fields(cli.ScenarioConfig)}


def test_readme_common_flags_are_the_registered_flags():
    sentence = re.search(r"Common flags:(.*?)Flags override", README.read_text(), re.S).group(1)
    parser = argparse.ArgumentParser(add_help=False)
    cli._add_common_flags(parser)
    registered = {opt for action in parser._actions for opt in action.option_strings}
    assert set(re.findall(r"`(--[a-z-]+)", sentence)) == registered
