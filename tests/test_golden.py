"""The default report of every CLI command in the README, pinned byte for
byte against tests/golden/<group>_<cmd>_<first input>.json, the one
Engine each builds, their verdicts, the same at several seeds, and a
verdict or an input error (never exit 3) at every valid --tol.

A change that means to alter one of these reports regenerates its file
with `PYTHONPATH=src python -m hstarcat.cli <command> > tests/golden/...`
and says why; any other difference fails here.
"""

import json
import pathlib
import re

import pytest

from hstarcat.cli import main
from hstarcat.diagram import Engine

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


@pytest.mark.parametrize("command", COMMANDS)
def test_readme_command_builds_one_engine(monkeypatch, capsys, command):
    # an engine is born with its dual functor (fusion.dual_engine), and a
    # command does all its diagram work on that one engine, hstar gns on
    # its algebra's 2-Hilbert space; fusion validate never reaches the
    # diagram layer, and hstar verify reads its trace off density matrices
    built = []
    init = Engine.__init__

    def counted(eng, *args):
        built.append(eng)
        init(eng, *args)

    monkeypatch.setattr(Engine, "__init__", counted)
    assert main(command.split()) == 0
    capsys.readouterr()
    assert len(built) == (0 if command.startswith(("fusion validate", "hstar verify")) else 1)


@pytest.mark.parametrize("command", COMMANDS)
def test_readme_verdicts_do_not_depend_on_the_seed(capsys, command):
    # the seed draws the random elements that sampled checks test; on
    # valid bundled data no draw may change a verdict
    outcomes = set()
    for seed in ("0", "1", "2", "3", "17"):
        code = main([*command.split(), "--seed", seed])
        report = json.loads(capsys.readouterr().out)
        outcomes.add((code, report["verdict"], tuple(sorted(report["verdicts"].items()))))
    assert len(outcomes) == 1, outcomes


@pytest.mark.parametrize("tol", ["0", "1e-12", "1e-3", "0.4", "0.5", "1", "1e300"])
def test_readme_commands_end_in_a_verdict_at_every_tol(capsys, tol):
    # a margin judged by clears(m, tol.bound()) REJECTs at a loose --tol,
    # so verdicts are not monotone in --tol; but no valid --tol may end a
    # run in an error (exit 3), and a report is written exactly on 0 and 1
    for command in [*COMMANDS, "fusion validate fibonacci_corrupt"]:
        code = main([*command.split(), "--tol", tol])
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), (command, err)
        assert bool(out) == (code in (0, 1)), (command, err)
