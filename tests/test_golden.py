"""The default report of every CLI command in the README, pinned byte for
byte against tests/golden/<group>_<cmd>_<first input>.json.

A change that means to alter one of these reports regenerates its file
with `PYTHONPATH=src python -m hstarcat.cli <command> > tests/golden/...`
and says why; any other difference fails here.
"""

import pathlib
import re

import pytest

from hstarcat.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
COMMANDS = re.findall(r"^hstarcat ([^#\n]+?)\s*#", (ROOT / "README.md").read_text(), re.M)


def _golden(argv):
    return GOLDEN / ("_".join(a.replace("-", "") for a in argv[:3]) + ".json")


def test_every_readme_command_has_a_golden_report():
    assert len(COMMANDS) == 12
    assert sorted(_golden(c.split()) for c in COMMANDS) == sorted(GOLDEN.glob("*.json"))


@pytest.mark.parametrize("command", COMMANDS)
def test_readme_report_is_byte_identical(capsys, command):
    argv = command.split()
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == _golden(argv).read_bytes()
