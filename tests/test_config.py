"""The README's configuration block against the section dataclasses."""

import configparser
import os
import re

from lccgen.config import DEFAULTS

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_ini_block_states_every_default():
    with open(README) as fh:
        block = re.search(r"^```ini\n(.*?)^```$", fh.read(), re.S | re.M).group(1)
    parser = configparser.ConfigParser(inline_comment_prefixes=";")
    parser.read_string(block)
    assert {s: list(parser[s]) for s in parser.sections()} == \
        {s: list(kv) for s, kv in DEFAULTS.items()}
    for section, kv in DEFAULTS.items():
        for key, value in kv.items():
            assert type(value)(parser[section][key]) == value, f"[{section}] {key}"
