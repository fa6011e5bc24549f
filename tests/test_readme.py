"""README.md states what the package does; these checks keep it true.

Its Python blocks run, every flag it names is one the parser takes (and
every option the parser takes is named), every repository path it names
exists, and it quotes no measurement: wall times and memory figures live in
CHANGES.md and the BENCH_*.json files, each stated with its hardware.
"""

import argparse
import re
from pathlib import Path

import numpy as np
import pytest

from eivbands import cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")

# sections whose flags belong to pip, pytest or the fixture script
NOT_CLI_SECTIONS = ("Installation", "Testing")


def sections() -> dict[str, str]:
    """The text under each level-2 heading, the title's text under ''."""
    parts = re.split(r"^## (.+)$", README, flags=re.MULTILINE)
    return {"": parts[0], **dict(zip(parts[1::2], parts[2::2]))}


def readme_flags() -> set[str]:
    text = "".join(body for name, body in sections().items()
                   if name not in NOT_CLI_SECTIONS)
    return set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", text))


def parser_options() -> dict[str, set[str]]:
    """Each subcommand's option strings, -h and --help left out."""
    parser = cli.build_parser()
    subs = next(action for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))
    return {name: {opt for action in sub._actions
                   for opt in action.option_strings} - {"-h", "--help"}
            for name, sub in subs.choices.items()}


def test_sections_the_flag_checks_skip_exist():
    assert set(NOT_CLI_SECTIONS) <= set(sections())


def test_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README,
                        flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 2
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    # the missing-data block takes the observation mask as given
    Z = namespace["Z"]
    namespace["mask"] = np.random.default_rng(1).random(Z.shape) > 0.1
    for block in blocks[1:]:
        exec(compile(block, "README.md", "exec"), namespace)


def test_every_flag_named_is_a_parser_option():
    options = set().union(*parser_options().values())
    assert readme_flags() - options == set()


@pytest.mark.parametrize("command", sorted(parser_options()))
def test_every_parser_option_is_named(command):
    assert parser_options()[command] - readme_flags() == set()


def test_every_repository_path_named_exists():
    paths = set(re.findall(
        r"\b(?:BENCH_\w+\.json|(?:bench|demos|scripts|tests)/[\w./-]*\w)",
        README))
    assert paths
    assert {path for path in paths if not (ROOT / path).exists()} == set()


def test_no_measurements():
    # a time or a memory figure: 0.72 s, 43.5 ms, 670 µs, 64.0 MB
    figures = re.findall(r"\d(?:[\d.,]*\d)?\s*(?:s|ms|µs|MB)\b", README)
    assert figures == []
