"""Input documents: the CLI's schema checker (cli.schema_violation)
against jsonschema, the reference implementation of draft 2020-12, which
the tests use and the package does not, and malformed documents through
cli.main.

Mutated bundled documents must be accepted or rejected by both checkers
alike, the packaged schemas must be valid draft 2020-12 schemas, a keyword
the checker does not enforce must raise, and every report the README
commands write must satisfy report.schema.json. Through the CLI, a mutated
document exits 0, 1, 2 or 3, with a report exactly on 0 and 1, and exits 2
whenever it breaks its schema.
"""

import contextlib
import io
import json
import math
import pathlib
from importlib import resources

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hstarcat import cli
from hstarcat.cli import main, schema_violation

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCHEMAS = ("fusion", "hstar", "algebra", "report")

# deterministic runs, with no database of failing examples
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def _schema(name):
    raw = resources.files("hstarcat").joinpath(f"schema/v1/{name}.schema.json").read_text()
    return json.loads(raw)


def _bundled(name):
    return json.loads(resources.files("hstarcat").joinpath(f"data/{name}.json").read_text())


SEEDS = {
    "fusion": [_bundled(n) for n in ("fibonacci", "hilb_z2", "m2_hilb", "fibonacci_corrupt")],
    "hstar": [_bundled("hstar_example"), {"blocks": [1], "weights": [1.0], "functional": [[[[1.0, 0.0]]]]}],
    "algebra": [
        _bundled("hilb_z2_group"),
        {"kind": "trivial", "unit": "1"},
        {"kind": "pair", "object": {"1": 1, "t": 1}},
    ],
    "report": [json.loads(p.read_text()) for p in sorted((ROOT / "tests" / "golden").glob("*.json"))],
}

# the JSON values that sit on the boundaries of the schemas' types:
# bools, integral floats, NaN, infinity, negative numbers, strings (one
# that matches the digest pattern only by re.search), lists and dicts
ATOMS = st.sampled_from(
    [True, False, None, 0, -1, 1.0, 1e300, 0.5, math.nan, math.inf, "", "1", "t", "x", "pair",
     "ACCEPT", "0" * 64, "a" * 64 + "\n", [], {}]
)
VALUES = st.recursive(
    ATOMS | st.integers(-3, 3) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)


def _slots(doc, out):
    """Every (container, key or index) pair of the document, depth first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        out.append((doc, key))
        _slots(value, out)
    return out


def _copy(value):
    # drawn atoms such as [] are shared objects; edit only copies of them
    return json.loads(json.dumps(value))


def _mutate(doc, data, atoms=ATOMS, values=VALUES):
    """One or two edits at random places: swap a value for an atom, delete
    a key or an item, add a key or an item, or repeat an item of a list.
    Places are drawn per value, so a deep document mostly changes at its
    leaves, where the type rules are."""
    doc = _copy(doc)
    for _ in range(data.draw(st.integers(1, 2))):
        slots = _slots(doc, [])
        edit = data.draw(st.sampled_from(["swap", "swap", "delete", "add", "repeat"] if slots else ["add"]))
        if edit in ("add", "repeat"):
            node = data.draw(st.sampled_from([doc] + [c[k] for c, k in slots if isinstance(c[k], (dict, list))]))
            if isinstance(node, dict):
                key = data.draw(st.sampled_from(["N", "F", "unit", "labels", "object", "x", "1"]) | st.text(max_size=2))
                node[key] = _copy(data.draw(values))
            else:
                node.append(_copy(data.draw(st.sampled_from(node) if edit == "repeat" and node else values)))
            continue
        node, key = data.draw(st.sampled_from(slots))
        if edit == "delete":
            del node[key]
        else:
            node[key] = _copy(data.draw(atoms))
    return doc


FUSION = {"simples": ["1"], "units": ["1"], "grading": {"1": ["1", "1"]}, "dual": {"1": "1"}}
REPORT = {"command": [], "inputs": {}, "tolerance": 1e-9, "seed": 0, "residuals": {}, "verdicts": {}, "verdict": "ACCEPT"}
# one document per rule and side of its boundary: (schema, document, valid)
BOUNDARY = [
    ("fusion", {**FUSION, "N": {"1,1,1": 1.0}}, True),
    ("fusion", {**FUSION, "N": {"1,1,1": 1e300}}, True),
    ("fusion", {**FUSION, "N": {"1,1,1": True}}, False),
    ("fusion", {**FUSION, "N": {"1,1,1": -1}}, False),
    ("fusion", {**FUSION, "N": {"1,1,1": 0.5}}, False),
    ("fusion", {**FUSION, "F": {"1,1,1,1": [[[math.nan, math.inf]]]}}, True),
    ("fusion", {**FUSION, "F": {"1,1,1,1": [[[1.0, False]]]}}, False),
    ("fusion", {**FUSION, "F": {"1,1,1,1": [[[1.0, 0.0, 0.0]]]}}, False),
    ("fusion", {**FUSION, "grading": {"1": ["1", "1", "1"]}}, False),
    ("fusion", {**FUSION, "grading": {"1": ["1"]}}, False),
    ("fusion", {**FUSION, "simples": []}, False),
    ("fusion", {**FUSION, "extra": [None]}, True),
    ("hstar", {"blocks": [1.0], "weights": [math.nan]}, True),
    ("hstar", {"blocks": [0]}, False),
    ("hstar", {"blocks": [True]}, False),
    ("hstar", {"blocks": [1], "weights": [True]}, False),
    ("algebra", {"kind": "pair", "object": {"1": 1.0}}, True),
    ("algebra", {"kind": "pair", "object": {"1": -1}}, False),
    ("algebra", {"kind": "pair", "object": {"1": False}}, False),
    ("algebra", {"kind": "group", "labels": []}, False),
    ("algebra", {"kind": "trivial"}, False),
    ("algebra", {"kind": "other", "unit": "1"}, False),
    ("algebra", {"kind": "trivial", "unit": "1", "labels": []}, True),
    ("report", {**REPORT, "inputs": {"x": "a" * 64 + "\n"}}, True),
    ("report", {**REPORT, "inputs": {"x": "A" * 64}}, False),
    ("report", {**REPORT, "inputs": {"x": "a" * 63}}, False),
    ("report", {**REPORT, "seed": 1.0, "tolerance": math.nan}, True),
    ("report", {**REPORT, "seed": True}, False),
    ("report", {**REPORT, "verdicts": {"c": "REJECT"}, "verdict": "REJECT"}, True),
    ("report", {**REPORT, "verdicts": {"c": "MAYBE"}}, False),
    ("report", {**REPORT, "verdict": None}, False),
    ("report", {**REPORT, "residuals": {"r": "0"}}, False),
    # size caps
    ("hstar", {"blocks": [256.0]}, True),
    ("hstar", {"blocks": [257]}, False),
    ("hstar", {"blocks": [1e300]}, False),
    ("algebra", {"kind": "pair", "object": {"t": 2}}, True),
    ("algebra", {"kind": "pair", "object": {"t": 3}}, False),
    ("algebra", {"kind": "pair", "object": {"t": 1e300}}, False),
]


@pytest.mark.parametrize("name, doc, valid", BOUNDARY)
def test_checker_agrees_with_jsonschema_on_each_boundary(name, doc, valid):
    assert jsonschema.Draft202012Validator(_schema(name)).is_valid(doc) == valid
    assert (schema_violation(doc, name) is None) == valid


@pytest.mark.parametrize("name", SCHEMAS)
@PROPERTY
@given(data=st.data())
def test_checker_agrees_with_jsonschema(name, data):
    doc = _mutate(data.draw(st.sampled_from(SEEDS[name])), data)
    reference = jsonschema.Draft202012Validator(_schema(name)).is_valid(doc)
    assert (schema_violation(doc, name) is None) == reference, doc


@pytest.mark.parametrize("name", SCHEMAS)
def test_bundled_documents_are_valid(name):
    for doc in SEEDS[name]:
        assert schema_violation(doc, name) is None


@pytest.mark.parametrize("name", SCHEMAS)
def test_packaged_schema_is_a_draft_2020_12_schema(name):
    jsonschema.Draft202012Validator.check_schema(_schema(name))


@pytest.mark.parametrize(
    "schema",
    [
        {"type": "string", "maxLength": 3},
        {"properties": {"a": {"type": "array", "items": {"uniqueItems": True}}}},
        {"oneOf": [{"type": "object"}, {"not": {}}]},
        {"additionalProperties": False},
        {"type": ["string", "null"]},
        {"type": "boolean"},
        {"enum": ["a", 1]},
    ],
    ids=["maxLength", "nested", "in_oneOf", "bool_schema", "type_list", "unknown_type", "enum_number"],
)
def test_unsupported_rule_raises(schema):
    with pytest.raises(NotImplementedError):
        cli._check_supported(schema)


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"simples": ["1"], "units": ["1"], "grading": {}}, "'dual' is a required property"),
        ({"simples": ["1"], "units": ["1"], "grading": {}, "dual": {}, "N": {"1,1,1": True}},
         "True is not of type 'integer'"),
        ({"simples": [], "units": ["1"], "grading": {}, "dual": {}}, "[] should be non-empty"),
    ],
)
def test_messages_follow_jsonschema(doc, message):
    assert schema_violation(doc, "fusion") == message


def test_maximum_is_worded_as_jsonschema_words_it():
    doc = {"blocks": [257]}
    reference = [e.message for e in jsonschema.Draft202012Validator(_schema("hstar")).iter_errors(doc)]
    assert reference == [schema_violation(doc, "hstar")] == ["257 is greater than the maximum of 256"]


def test_draft_2020_12_types():
    number = {"type": "number"}
    integer = {"type": "integer"}
    assert cli._violation(math.nan, number) is None
    assert cli._violation(True, number) and cli._violation(False, integer)
    assert cli._violation(1.0, integer) is None and cli._violation(1e300, integer) is None
    assert cli._violation(1.5, integer) and cli._violation(math.inf, integer)
    assert cli._violation(10**400, integer) is None


def test_reports_satisfy_the_report_schema(tmp_path, capsys):
    # the 12 README reports, a REJECT report, and a report written by --out
    reports = list(SEEDS["report"])
    live = [(("fusion", "validate", "fibonacci_corrupt"), 1), (("alg", "modcat", "ising", "ising_qsystem"), 0)]
    for k, (argv, code) in enumerate(live):
        out = tmp_path / f"report{k}.json"
        assert main([*argv, "--out", str(out)]) == code
        reports.append(json.loads(out.read_text()))
    assert len(reports) == 14 and reports[12]["verdict"] == "REJECT"
    validator = jsonschema.Draft202012Validator(_schema("report"))
    for report in reports:
        assert schema_violation(report, "report") is None, report["command"]
        assert validator.is_valid(report), report["command"]


# small atoms only, so that no mutated document builds a large engine or
# algebra (a block size of 1e300 is an integer to the schema)
SMALL_ATOMS = st.sampled_from(
    [True, False, None, 0, 1, 2, -1, 0.5, 1.0, 2.0, math.nan, math.inf, -math.inf,
     "", "1", "t", "x", "trivial", "group", "pair", [], {}]
)
SMALL = st.recursive(
    SMALL_ATOMS,
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.sampled_from(["1", "t", "x"]), inner, max_size=2),
    max_leaves=4,
)
CLI_CASES = {
    "fusion": (("fusion", "validate"), [_bundled("fibonacci"), _bundled("hilb_z2")]),
    "hstar": (("hstar", "verify"), [_bundled("hstar_example")]),
    "algebra": (
        ("alg", "verify", "fibonacci"),
        [_bundled("fibonacci_pair"), {"kind": "trivial", "unit": "1"}, {"kind": "group", "labels": ["1"]}],
    ),
}


@pytest.mark.parametrize("name", list(CLI_CASES))
@settings(PROPERTY, max_examples=60)
@given(data=st.data())
def test_malformed_documents_fail_closed(tmp_path_factory, name, data):
    command, seeds = CLI_CASES[name]
    doc = _mutate(data.draw(st.sampled_from(seeds)), data, SMALL_ATOMS, SMALL)
    path = tmp_path_factory.mktemp("doc") / "doc.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*command, str(path)])
    assert code in (0, 1, 2, 3), (doc, err.getvalue())
    assert bool(out.getvalue()) == (code in (0, 1)), (doc, code, err.getvalue())
    if schema_violation(doc, name) is not None:
        assert code == 2 and "schema violation" in err.getvalue(), (doc, err.getvalue())
