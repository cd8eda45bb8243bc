import importlib
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import warnings
from importlib import resources

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bench_families import fam
import hstarcat
from hstarcat import bundled, intalg
from hstarcat.cli import _read_input, main, schema_violation
from hstarcat.numcore import ConsistencyError

ROOT = pathlib.Path(__file__).resolve().parents[1]


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


def _fibonacci_doc():
    return json.loads(resources.files("hstarcat").joinpath("data/fibonacci.json").read_text())


def _nan_entry(doc):
    doc["F"]["t,t,t,t"][0][0] = [float("nan"), 0.0]


@pytest.mark.parametrize(
    "edit",
    [
        _nan_entry,
        lambda doc: doc["dual"].update(t="zz"),
        lambda doc: doc["grading"].update(t=["1", "q"]),
        lambda doc: doc["N"].update({"t,t,t": 1e300}),
        lambda doc: doc["F"]["t,t,t,t"][0].append([0.0, 0.0]),
    ],
    ids=["nan_f_entry", "unknown_dual", "non_unit_grading", "n_overflow", "ragged_f_row"],
)
@pytest.mark.parametrize("command", ["validate", "udf"])
def test_bad_fusion_file_exit_2_without_report(tmp_path, capsys, edit, command):
    doc = _fibonacci_doc()
    edit(doc)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert main(["fusion", command, str(p)]) == 2
    assert capsys.readouterr().out == ""


def _strict_json(text):
    """json.loads that refuses NaN and infinity, as strict parsers do."""

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_a_non_finite_residual_is_written_as_null(tmp_path, capsys):
    # F^{ttt}_t[0, 0] = 1e200 + 1e200i is finite, so the document is
    # valid, but its unitarity defect and the pentagon gaps through it
    # overflow to NaN; the expected overflow warns nothing
    doc = _fibonacci_doc()
    doc["F"]["t,t,t,t"][0][0] = [1e200, 1e200]
    p = tmp_path / "huge.json"
    p.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["fusion", "validate", str(p)]) == 1
    out = capsys.readouterr().out
    with pytest.raises(ValueError):
        _strict_json(out.replace("null", "NaN"))
    rep = _strict_json(out)
    assert (rep["verdict"], rep["violated_axioms"]) == ("REJECT", {"fusion": "F-unitarity"})
    assert rep["residuals"] == {"fusion.f_unitarity": None, "fusion.integer_checks": 0.0, "fusion.pentagon": None}
    schema = json.loads(resources.files("hstarcat").joinpath("schema/v1/report.schema.json").read_text())
    assert jsonschema.Draft202012Validator(schema).is_valid(rep)
    assert schema_violation(rep, "report") is None


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


@pytest.mark.parametrize(
    "category, algebra", [("ising", "ising_qsystem"), ("fibonacci", "fibonacci_pair"), ("hilb_z2", "hilb_z2_group")]
)
def test_modcat_values_do_not_depend_on_the_seed(capsys, category, algebra):
    # the seed picks the eigenbasis of the split; a simple's dimension must
    # not depend on it, to the last printed digit
    values = set()
    for seed in range(8):
        code, rep = _run(capsys, "alg", "modcat", category, algebra, "--seed", str(seed))
        assert code == 0
        values.add(json.dumps(rep["values"]))
    assert len(values) == 1, values


def test_deligne_check_independent_of_hash_seed(tmp_path):
    # the order of the blocks, and with it the summation order of every
    # trace and the last digits of the report, must not follow hash order
    p = tmp_path / "ty3.json"
    p.write_text(json.dumps(fam.ty_zn(3, 1).to_json()))
    reports = set()
    for hash_seed in ("0", "1", "3", "6"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "hstarcat.cli", "deligne", "check", str(p)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        reports.add(proc.stdout)
    assert len(reports) == 1


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


@pytest.mark.parametrize(
    "argv",
    [
        ("fusion", "validate", "fibonacci", "--tol", "nan"),
        ("fusion", "validate", "fibonacci", "--tol", "inf"),
        ("fusion", "validate", "fibonacci", "--tol", "-1"),
        ("alg", "modcat", "ising", "ising_qsystem", "--seed", "-5"),
        ("fusion", "udf", "m2_hilb", "--psi", "inf,1"),
        ("fusion", "udf", "m2_hilb", "--psi", "nan,1"),
        ("fusion", "udf", "m2_hilb", "--psi", "0,1"),
        ("h3", "theorem-b", "fibonacci", "--psi", "-1"),
        # finite and positive, but the dimensions over- or underflow
        ("fusion", "udf", "m2_hilb", "--psi", "1,1e300"),
        ("h3", "theorem-b", "fibonacci", "--psi", "1e-300"),
    ],
    ids=lambda argv: " ".join(argv[-2:]),
)
def test_out_of_range_flag_exit_2_without_report(capsys, argv):
    assert main(list(argv)) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("out", ["missing/r.json", "."], ids=["missing_dir", "directory"])
def test_unwritable_out_exit_2_without_report(tmp_path, capsys, out):
    assert main(["fusion", "validate", "fibonacci", "--out", str(tmp_path / out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: cannot write ")
    assert not (tmp_path / "missing").exists()


# fast bundled commands, and whether each takes --psi (one unit each)
FLAG_COMMANDS = [
    (("fusion", "validate", "fibonacci"), False),
    (("fusion", "udf", "fibonacci"), True),
    (("deligne", "check", "hilb_z2"), True),
    (("hstar", "verify", "hstar_example"), False),
    (("hstar", "gns", "hstar_example"), False),
]
MALFORMED = ["", "x", "nan", "inf", "-inf", "1e999", "-1", "1,5", "0x10"]
NUMBERS = st.one_of(
    st.sampled_from(MALFORMED + ["0", "1e-6", "1e6", "1e-320", "1e300"]),
    st.floats().map(repr),
    st.integers(-(2**70), 2**70).map(str),
)
PSI = st.lists(NUMBERS, max_size=3).map(",".join)
# report file, missing directory, directory in place of a file
OUTS = st.sampled_from([None, "r.json", "missing/r.json", "."])


@settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    command=st.sampled_from(FLAG_COMMANDS),
    tol=st.none() | NUMBERS,
    seed=st.none() | NUMBERS,
    psi=st.none() | PSI,
    out=OUTS,
)
def test_random_flags_end_in_a_verdict_or_an_input_error(capsys, command, tol, seed, psi, out):
    # exit 3 is never a flag's doing; a report exists exactly on 0 and 1
    argv, takes_psi = command
    argv = list(argv)
    for flag, value in (("--tol", tol), ("--seed", seed), ("--psi", psi if takes_psi else None)):
        if value is not None:
            argv += [f"{flag}={value}"]
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp, out) if out else None
        if path is not None:
            argv += ["--out", str(path)]
        code = main(argv)
        printed = capsys.readouterr().out
        written = path is not None and path.is_file()
        assert code in (0, 1, 2), (argv, code)
        assert bool(printed or written) == (code != 2), (argv, code)
        if code != 2:
            rep = json.loads(path.read_text() if written else printed)
            assert rep["verdict"] == ("ACCEPT" if code == 0 else "REJECT")


@pytest.mark.parametrize("psi", ["1e-6,1e6", "1e6,1e-6"])
@pytest.mark.parametrize("command", [("fusion", "udf"), ("h3", "theorem-b"), ("deligne", "check")])
def test_psi_range_ends_accept(capsys, command, psi):
    code, rep = _run(capsys, *command, "m2_hilb", "--psi", psi)
    assert code == 0 and rep["verdict"] == "ACCEPT"


BAD_ALGEBRAS = {
    "group_unknown_label": {"kind": "group", "labels": ["1", "zz"]},
    "trivial_on_non_unit": {"kind": "trivial", "unit": "s"},
    "trivial_unknown_unit": {"kind": "trivial", "unit": "zz"},
    "pair_unknown_label": {"kind": "pair", "object": {"zz": 1}},
    # no unit summand: no monad to split, no bubble to standardize
    "group_no_unit": {"kind": "group", "labels": ["s"]},
    "pair_empty": {"kind": "pair", "object": {}},
    "pair_zero": {"kind": "pair", "object": {"s": 0, "p": 0}},
    # past the schema's size cap: never built
    "pair_over_cap": {"kind": "pair", "object": {"s": 3}},
}
BAD_ALGEBRA_CASES = [
    (command, name)
    for command in ("verify", "modcat")
    for name in list(BAD_ALGEBRAS)[:4]
] + [("split-monad", "group_no_unit"), ("split-monad", "pair_empty"), ("standardize", "group_no_unit"),
    ("verify", "pair_over_cap")]


@pytest.mark.parametrize(
    "command, name", BAD_ALGEBRA_CASES, ids=[f"{c}-{n}" for c, n in BAD_ALGEBRA_CASES]
)
def test_bad_algebra_file_exit_2_without_report(tmp_path, capsys, command, name):
    p = tmp_path / "alg.json"
    p.write_text(json.dumps(BAD_ALGEBRAS[name]))
    group = "h3" if command == "split-monad" else "alg"
    assert main([group, command, "ising", str(p)]) == 2
    assert capsys.readouterr().out == ""


ALGEBRA_COMMANDS = [("alg", "verify"), ("alg", "standardize"), ("alg", "modcat"),
                    ("alg", "intend"), ("h3", "split-monad")]


@pytest.mark.parametrize("command", ALGEBRA_COMMANDS, ids=[c for _, c in ALGEBRA_COMMANDS])
@pytest.mark.parametrize("name", ["pair_empty", "pair_zero"])
def test_an_algebra_on_the_zero_object_is_an_input_error(tmp_path, capsys, command, name):
    # the zero algebra has no unit summand: input, not a verdict, for
    # every command that takes an algebra
    p = tmp_path / "alg.json"
    p.write_text(json.dumps(BAD_ALGEBRAS[name]))
    assert main([*command, "ising", str(p)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "input error: the pair algebra of the zero object has no unit summand\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("h3", "theorem-b", "fibonacci"),
        ("alg", "modcat", "ising", "ising_qsystem"),
    ],
)
def test_small_psi_loose_tol_accepts(capsys, argv):
    # module dimensions scale with psi, and so does their positivity cut
    code, rep = _run(capsys, *argv, "--psi", "1e-6", "--tol", "1e-5")
    assert code == 0 and rep["verdict"] == "ACCEPT"


@pytest.mark.parametrize(
    "argv, tol, check",
    [
        (("h3", "theorem-b", "fibonacci"), "0.5", "theorem_b"),
        (("alg", "modcat", "ising", "ising_qsystem"), "0.4", "module_category"),
    ],
)
def test_module_dimension_under_the_cut_rejects(capsys, argv, tol, check):
    # dimensions 1.0 and 0.707 do not clear the cut tol.bound() * psi of
    # 1.0 and 0.8: a REJECT on its axiom, not an error
    code, rep = _run(capsys, *argv, "--tol", tol)
    assert code == 1
    assert rep["violated_axioms"] == {check: "module-dimension positivity"}
    assert rep["residuals"][f"{check}.min_module_dim"] > 0


def test_nan_loop_gap_rejects_on_its_axiom(monkeypatch, capsys):
    monkeypatch.setattr("hstarcat.diagram.Engine.loop", lambda eng, c, side: float("nan"))
    code, rep = _run(capsys, "fusion", "udf", "fibonacci")
    assert code == 1
    assert rep["violated_axioms"] == {"loops": "loop normalization"}


@pytest.mark.parametrize(
    "doc",
    [
        '{"blocks": [1, 2], "weights": [1.0, NaN]}',
        '{"blocks": [1, 2], "weights": [1.0, 1e400]}',
        '{"blocks": [1], "weights": [1.0], "functional": [[[[NaN, 0.0]]]]}',
        # no trace, or a trace that does not match the blocks in shape
        '{"blocks": [3]}',
        '{"blocks": [2, 3], "weights": [1.0]}',
        '{"blocks": [1, 1], "weights": [1.0, 1.0, 1.0]}',
        '{"blocks": [2, 3], "functional": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]}',
        '{"blocks": [2], "functional": [[[[1, 0]]]]}',
        # past the schema's size cap: never built
        '{"blocks": [257], "weights": [1.0]}',
    ],
    ids=["nan_weight", "inf_weight", "nan_functional", "no_trace", "short_weights",
         "long_weights", "short_functional", "small_functional_block", "block_over_cap"],
)
@pytest.mark.parametrize("command", ["verify", "gns"])
def test_bad_hstar_file_exit_2_without_report(tmp_path, capsys, doc, command):
    p = tmp_path / "hstar.json"
    p.write_text(doc)
    assert main(["hstar", command, str(p)]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("weight", ["5e-324", "2.2250738585072014e-308"])
def test_gns_weight_outside_its_range_exit_2_without_warning(tmp_path, capsys, weight):
    # the schema accepts both; sqrt(w)^2 of the subnormal one underflows,
    # and dividing by the smallest normal one overflows (hstar1.WEIGHT_MIN)
    p = tmp_path / "hstar.json"
    p.write_text(f'{{"blocks": [2], "weights": [{weight}]}}')
    assert main(["hstar", "gns", str(p)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "RuntimeWarning" not in err
    assert "trace weights must lie in [1e-300, 1e+300]" in err



def _main_without_warnings(capsys, *argv):
    """main's exit code and captured (out, err), asserting that the run
    raised no RuntimeWarning: the test settings make one an error, which
    main reports on stderr."""
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert "RuntimeWarning" not in err
    return code, out, err


@pytest.mark.parametrize(
    "doc",
    [
        '{"blocks": [2], "weights": [1e308]}',
        '{"blocks": [1, 2], "weights": [1.0, -1e308]}',
        '{"blocks": [2], "functional": [[[[1e308, 0], [0, 0]], [[0, 0], [1e308, 0]]]]}',
        '{"blocks": [1], "functional": [[[[1.0, -1e308]]]]}',
    ],
    ids=["weight", "negative_weight", "functional_real", "functional_imag"],
)
@pytest.mark.parametrize("command", ["verify", "gns"])
def test_hstar_entry_above_weight_max_exit_2_without_warning(tmp_path, capsys, doc, command):
    # past hstar1.WEIGHT_MAX the trace of a product overflows; the input
    # is refused before any is formed
    p = tmp_path / "hstar.json"
    p.write_text(doc)
    code, out, err = _main_without_warnings(capsys, "hstar", command, str(p))
    assert (code, out) == (2, "")
    assert "of magnitude at most 1e+300" in err


@pytest.mark.parametrize("weight", ["-1.0", "0.0", "1e-320"])
def test_hstar_verify_non_positive_or_tiny_weight_rejects_on_positivity(tmp_path, capsys, weight):
    p = tmp_path / "hstar.json"
    p.write_text(f'{{"blocks": [2], "weights": [{weight}]}}')
    code, out, _ = _main_without_warnings(capsys, "hstar", "verify", str(p))
    rep = json.loads(out)
    assert (code, rep["violated_axioms"]) == (1, {"hstar_trace": "positivity"})
    assert rep["residuals"]["hstar_trace.positivity_margin"] == float(weight)


@pytest.mark.parametrize("weight", ["1e10", "1e300"])
def test_hstar_verify_accepts_a_large_weight_exactly(tmp_path, capsys, weight):
    # a weight form is tracial on every pair of matrix units with no
    # roundoff, at any weight in range
    p = tmp_path / "hstar.json"
    p.write_text(f'{{"blocks": [2], "weights": [{weight}]}}')
    code, out, _ = _main_without_warnings(capsys, "hstar", "verify", str(p))
    rep = json.loads(out)
    assert (code, rep["verdict"]) == (0, "ACCEPT")
    assert rep["residuals"]["hstar_trace.traciality"] == 0.0


def test_hstar_verify_huge_functional_rejects_on_traciality_without_warning(tmp_path, capsys):
    # every entry 1e300 - 1e300i: the squares of the weight projection
    # overflow, which may leave it null, but not warn
    entry = [1e300, -1e300]
    p = tmp_path / "hstar.json"
    p.write_text(json.dumps({"blocks": [4], "functional": [[[entry] * 4] * 4]}))
    code, out, _ = _main_without_warnings(capsys, "hstar", "verify", str(p))
    rep = json.loads(out)
    assert (code, rep["violated_axioms"]) == (1, {"hstar_trace": "traciality"})
    projection = rep["residuals"]["hstar_trace.weight_projection"]
    assert projection is None or math.isfinite(projection)


def test_hstar_verify_reports_do_not_depend_on_the_seed(capsys):
    # traciality runs on matrix units and draws nothing
    reps = []
    for seed in range(4):
        code, rep = _run(capsys, "hstar", "verify", "hstar_example", "--seed", str(seed))
        assert code == 0 and rep.pop("seed") == seed
        reps.append(rep)
    assert all(rep == reps[0] for rep in reps)


def test_hstar_gns_of_a_functional_alone_says_it_needs_weights(tmp_path, capsys):
    p = tmp_path / "hstar.json"
    p.write_text('{"blocks": [1], "functional": [[[[1.0, 0.0]]]]}')
    code, out, err = _main_without_warnings(capsys, "hstar", "gns", str(p))
    assert (code, out) == (2, "")
    assert "hstar gns needs weights" in err and "'weights'" not in err


def test_h3_complete_reports_do_not_depend_on_the_seed(capsys):
    # both completion checks run on a basis and draw nothing
    reps = []
    for seed in range(4):
        code, rep = _run(capsys, "h3", "complete", "m2_hilb", "--psi", "1.0,4.0", "--seed", str(seed))
        assert code == 0 and rep.pop("seed") == seed
        reps.append(rep)
    assert all(rep == reps[0] for rep in reps)


@pytest.mark.parametrize(
    "name, psi",
    [(name, psi) for name in bundled.NAMES if name != "m2_hilb" for psi in ("1e-6", "1e6")]
    + [("m2_hilb", "1e-6,1e6"), ("m2_hilb", "1e6,1e-6")],
)
def test_h3_complete_accepts_at_the_psi_range_ends(capsys, name, psi):
    code, rep = _run(capsys, "h3", "complete", name, "--psi", psi)
    assert code == 0 and rep["verdict"] == "ACCEPT"

@pytest.mark.parametrize("argv", [("hstar", "gns", "hstar_example"), ("deligne", "check", "ising")])
def test_optimized_interpreter_gives_the_same_report(argv):
    # python -O strips assert statements, so no check may be one
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    outs = [
        subprocess.run(
            [sys.executable, *flags, "-m", "hstarcat.cli", *argv],
            capture_output=True, text=True, env=env,
        )
        for flags in ([], ["-O"])
    ]
    assert [p.returncode for p in outs] == [0, 0]
    assert outs[0].stdout == outs[1].stdout


def test_fusion_validate_uses_tol(capsys):
    code, rep = _run(capsys, "fusion", "validate", "fibonacci", "--tol", "1e-30")
    assert code == 1
    assert rep["violated_axioms"] == {"fusion": "F-unitarity"}


TOLS = ["0", "1e-30", "1e-17", "1e-16", "1e-15", "1e-14", "1e-12", "1e-9", "1e-6", "1e-2"]


@pytest.mark.parametrize("name", ["hilb", "hilb_z2", "hilb_z3", "fibonacci", "ising", "m2_hilb", "fibonacci_corrupt"])
def test_fusion_verdict_monotone_in_tol(capsys, name):
    codes = [main(["fusion", "validate", name, "--tol", t]) for t in TOLS]
    capsys.readouterr()
    # REJECT (1) up to some tolerance, ACCEPT (0) from there on
    assert codes == sorted(codes, reverse=True), codes
    assert codes[TOLS.index("1e-9")] == (1 if name == "fibonacci_corrupt" else 0)


def test_hstar_commands(capsys):
    code, rep = _run(capsys, "hstar", "verify", "hstar_example")
    assert code == 0 and rep["verdict"] == "ACCEPT"
    code, rep = _run(capsys, "hstar", "gns", "hstar_example")
    assert code == 0
    # simple module quantum dims equal the trace weights
    assert rep["values"]["simple_dims"] == [1.0, 0.5]


def test_hstar_verify_reads_a_tracial_functional(tmp_path, capsys):
    # 1.0 tr on M_2 and 0.5 tr on M_3, written as [re, im] entries: the
    # functional projects onto the weights (1.0, 0.5) with no remainder
    def scaled_eye(n, w):
        return [[[w if i == j else 0.0, 0.0] for j in range(n)] for i in range(n)]

    p = tmp_path / "functional.json"
    p.write_text(json.dumps({"blocks": [2, 3], "functional": [scaled_eye(2, 1.0), scaled_eye(3, 0.5)]}))
    code, rep = _run(capsys, "hstar", "verify", str(p))
    assert code == 0 and rep["verdict"] == "ACCEPT"
    assert rep["residuals"]["hstar_trace.positivity_margin"] == 0.5
    assert rep["residuals"]["hstar_trace.weight_projection"] == 0.0


def test_h3_theorem_b(capsys):
    code, rep = _run(capsys, "h3", "theorem-b", "fibonacci")
    assert code == 0
    assert rep["verdict"] == "ACCEPT"


def test_h3_theorem_b_on_a_decomposable_category_exit_2(tmp_path, capsys):
    # a valid category whose two unit summands are not linked: the
    # comparison needs an indecomposable one, so the input is at fault
    doc = {
        "simples": ["a", "b"],
        "units": ["a", "b"],
        "grading": {"a": ["a", "a"], "b": ["b", "b"]},
        "dual": {"a": "a", "b": "b"},
        "N": {},
        "F": {},
    }
    p = tmp_path / "split.json"
    p.write_text(json.dumps(doc))
    assert main(["h3", "theorem-b", str(p)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "input error: comparison requires an indecomposable category\n"


def test_h3_split_monad(capsys):
    code, rep = _run(capsys, "h3", "split-monad", "hilb_z2", "hilb_z2_group")
    assert code == 0
    assert rep["verdict"] == "ACCEPT"


@pytest.mark.parametrize("tol", ["1", "1e300"])
def test_h3_split_monad_rejects_a_monad_that_fails_hstar(capsys, tol):
    # the separability margin 2.0 does not clear a loose --tol: split-monad
    # REJECTs on the same axiom as alg verify, not with an input error
    for argv, check in [
        (("h3", "split-monad"), "split_monad"),
        (("alg", "verify"), "hstar_algebra"),
    ]:
        code, rep = _run(capsys, *argv, "hilb_z2", "hilb_z2_group", "--tol", tol)
        assert code == 1
        assert rep["verdicts"] == {check: "REJECT"}
        assert rep["violated_axioms"] == {check: "H*2-separability"}


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


def test_a_standardization_off_by_a_scalar_rejects_on_specialness(monkeypatch, capsys):
    # (2 mu, iota / 2) is an H* algebra isomorphic to the standard one, but
    # mu mu^dag = 4 id: only the specialness check sees the defect
    standardize = intalg.standardize

    def off_by_two(A):
        S = standardize(A)
        eng = S.eng
        return intalg.AlgebraObject(eng, S.obj, eng.scale(2.0, S.mu), eng.scale(0.5, S.iota))

    monkeypatch.setattr(intalg, "standardize", off_by_two)
    code, rep = _run(capsys, "alg", "standardize", "ising", "ising_qsystem")
    assert code == 1
    assert rep["verdicts"] == {"specialness": "REJECT", "hstar_algebra": "ACCEPT"}
    assert rep["violated_axioms"] == {"specialness": "specialness"}


def test_cli_import_leaves_scipy_out():
    code = "import sys, hstarcat.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"


def test_schema_check_leaves_jsonschema_out(tmp_path):
    # each command checks its inputs against the packaged schemas without
    # importing jsonschema, which only the tests need
    code = (
        "import sys, hstarcat.cli as c; "
        f"code = c.main(['alg', 'verify', 'ising', 'ising_qsystem', '--out', {str(tmp_path / 'r.json')!r}]); "
        "print(code, 'jsonschema' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.split() == ["0", "False"]


def test_unexpected_exception_exits_3_with_one_json_line(monkeypatch, capsys):
    # exit 1 means a certified REJECT, so a run that fails in another way
    # exits 3 and prints no report
    def stuck(*args, **kwargs):
        raise ConsistencyError("splitting did not terminate")

    monkeypatch.setattr(intalg, "split_summands", stuck)
    assert main(["alg", "modcat", "ising", "ising_qsystem"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err) == {"error": "ConsistencyError", "message": "splitting did not terminate"}


def test_a_renamed_copy_of_the_package_reads_its_own_files(tmp_path, monkeypatch):
    # bundled.load, _read_input and schema_violation find their files
    # through their own package, so a copy under another name (two
    # versions side by side in one process) reads the copy's data and
    # schemas, not the installed package's
    src = pathlib.Path(hstarcat.__file__).parent
    copy = tmp_path / "hstarcat_copy"
    shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
    (copy / "data" / "hilb.json").write_text((src / "data" / "hilb_z2.json").read_text())
    (copy / "schema" / "v1" / "fusion.schema.json").write_text('{"type": "array"}')
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        other = importlib.import_module("hstarcat_copy.bundled")
        other_cli = importlib.import_module("hstarcat_copy.cli")
        assert other.load("hilb").simples == bundled.load("hilb_z2").simples != bundled.load("hilb").simples
        doc, digest, name = other_cli._read_input("hilb")
        assert (doc, name) == (_read_input("hilb_z2")[0], "bundled:hilb") and digest != _read_input("hilb")[1]
        assert other_cli.schema_violation(doc, "fusion") and schema_violation(doc, "fusion") is None
    finally:
        for module in [m for m in sys.modules if m.split(".")[0] == "hstarcat_copy"]:
            del sys.modules[module]
