import json
import subprocess
import sys

import pytest

from hstarcat.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_fusion_validate_accept(capsys):
    code, rep = _run(capsys, "fusion", "validate", "fibonacci")
    assert code == 0
    assert rep["verdict"] == "ACCEPT"
    assert list(rep["inputs"]) == ["bundled:fibonacci"]
    assert len(rep["inputs"]["bundled:fibonacci"]) == 64


def test_fusion_validate_reject_names_axiom(capsys):
    code, rep = _run(capsys, "fusion", "validate", "fibonacci_corrupt")
    assert code == 1
    assert rep["verdict"] == "REJECT"
    assert rep["violated_axioms"] == {"fusion": "pentagon"}


def test_missing_file_exit_2(capsys):
    assert main(["fusion", "validate", "/nonexistent.json"]) == 2


def test_schema_violation_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"simples": ["a"]}))
    assert main(["fusion", "validate", str(p)]) == 2


def test_unknown_subcommand_exit_2(capsys):
    assert main(["fusion", "nope", "fibonacci"]) == 2


def test_determinism_and_out_flag(tmp_path, capsys):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["alg", "modcat", "ising", "ising_qsystem", "--out", str(p1)]) == 0
    assert main(["alg", "modcat", "ising", "ising_qsystem", "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    rep = json.loads(p1.read_text())
    assert rep["verdict"] == "ACCEPT"
    dims = sorted(rep["values"]["module_dims"])
    assert dims == pytest.approx([2**-0.5, 2**-0.5, 1.0])


def test_alg_verify_group_and_negative(capsys):
    code, rep = _run(capsys, "alg", "verify", "hilb_z2", "hilb_z2_group")
    assert code == 0 and rep["verdict"] == "ACCEPT"
    code, rep = _run(capsys, "alg", "verify", "hilb_z3", "hilb_z2_group")
    assert code == 1
    assert rep["verdict"] == "REJECT"
    assert rep["violated_axioms"]


def test_psi_flag(capsys):
    code, rep = _run(capsys, "fusion", "udf", "m2_hilb", "--psi", "1.0,4.0")
    assert code == 0
    assert rep["values"]["dims"]["12"] == pytest.approx(2.0)
    # wrong length is an input error
    assert main(["fusion", "udf", "m2_hilb", "--psi", "1.0"]) == 2


def test_hstar_commands(capsys):
    code, rep = _run(capsys, "hstar", "verify", "hstar_example")
    assert code == 0 and rep["verdict"] == "ACCEPT"
    code, rep = _run(capsys, "hstar", "gns", "hstar_example")
    assert code == 0
    # simple module quantum dims equal the trace weights
    assert rep["values"]["simple_dims"] == [1.0, 0.5]


def test_h3_theorem_b(capsys):
    code, rep = _run(capsys, "h3", "theorem-b", "fibonacci")
    assert code == 0
    assert rep["verdict"] == "ACCEPT"


def test_h3_split_monad(capsys):
    code, rep = _run(capsys, "h3", "split-monad", "hilb_z2", "hilb_z2_group")
    assert code == 0
    assert rep["verdict"] == "ACCEPT"


def test_deligne_check(capsys):
    code, rep = _run(capsys, "deligne", "check", "hilb_z2")
    assert code == 0
    assert rep["verdict"] == "ACCEPT"


@pytest.mark.parametrize(
    "argv, checks",
    [
        (("alg", "standardize", "ising", "ising_qsystem"), ["hstar_algebra", "specialness"]),
        (("alg", "intend", "hilb_z2", "hilb_z2_group"), ["hstar_algebra", "internal_end"]),
        (("h3", "complete", "fibonacci"), ["hilbert_sum", "sphericality"]),
    ],
)
def test_accepting_commands(capsys, argv, checks):
    code, rep = _run(capsys, *argv)
    assert code == 0
    assert rep["verdict"] == "ACCEPT"
    assert sorted(rep["verdicts"]) == checks


def test_cli_import_leaves_scipy_out():
    code = "import sys, hstarcat.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"
