"""Command-line front end.

Every subcommand reads JSON inputs (a file path or the name of a bundled
category), runs the corresponding certification, and emits a RunReport:
the command echo, sha256 of every input, the tolerance and seed, the
named residuals, and per-check verdicts. Reports are deterministic:
identical inputs and seed produce byte-identical output, and only deligne
check draws from the seed. Exit codes: 0 ACCEPT, 1 REJECT
(with the violated axiom named), 2 input error: a --tol that is negative
or not finite or a negative --seed, which the parser rejects, or any
numcore.InputError, which main alone maps to exit 2. That includes a
--psi entry outside [PSI_MIN, PSI_MAX], an algebra
document with a label outside the category or a trivial algebra on a
non-unit or a pair algebra on the zero object, an algebra with no unit
summand for split-monad and standardize, a decomposable category for
theorem-b, an H*-algebra
document whose trace is missing, does not match its blocks in shape, or
has a weight or a real or imaginary part of a functional entry that is
not finite or of magnitude above hstar1.WEIGHT_MAX (for hstar gns, a
document without weights or a weight outside [hstar1.WEIGHT_MIN,
WEIGHT_MAX]), and an --out file that cannot be opened for writing. Any
other exception (a ConsistencyError, say) exits 3 with no report and one JSON line
{"error", "message"} on stderr, so that no failure of a run reads as a
REJECT.

Each input document is checked against its packaged JSON Schema
(schema/v1/) by a small checker that interprets exactly the keywords those
schemas use, with draft 2020-12 types: a bool is not a number, and a float
with an integral value is an integer. The schema files stay the single
source of truth; a keyword or type the checker does not enforce raises
NotImplementedError (exit 3) rather than pass unchecked.

Each command imports the layers it runs (intalg, deligne, hilb3, hstar1)
when it starts, so a command does not pay for the imports of the others.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import sys
from importlib import resources

import numpy as np

from .certify import bounded
from .diagram import Engine
from .fusion import FusionData, SphericalWeight, dual_engine, validate
from .numcore import InputError, Tolerance, worst


# Range of a --psi entry. Outside it the dimensions d_c = sqrt(psi_s psi_t)
# FPdim(c) leave the scale that the absolute part of the tolerance is set
# for: 1e300 overflows d_c to inf and 1e-300 underflows it to 0 (both an
# InputError of fusion.dual_engine), 1e-100 puts module dimensions under the
# positivity cut and 1e100 puts the roundoff of the dimension chain over
# its bound. Every bundled example accepts at both ends of the range.
PSI_MIN, PSI_MAX = 1e-6, 1e6

# the internal-end defect is the gap of a module-trace Gram matrix (of the
# images mu (x (x) id) of an orthonormal basis of c -> A) from the
# identity; each entry is a module trace of a composite through a fused
# word, whose roundoff exceeds one unit bound
INTERNAL_END_FACTOR = 10


def _sha256_bytes(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def _read_input(path: str):
    """Returns (parsed json, sha256, display name). Bare names resolve to
    the packaged data files when one exists."""
    if "/" not in path and not path.endswith(".json"):
        packaged = resources.files(__package__).joinpath(f"data/{path}.json")
        if packaged.is_file():
            raw = packaged.read_bytes()
            return json.loads(raw), _sha256_bytes(raw), f"bundled:{path}"
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    try:
        return json.loads(raw), _sha256_bytes(raw), path
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}")


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


# JSON types as draft 2020-12 defines them: a bool is neither a number nor
# an integer, a float with an integral value (1.0, 1e300) is an integer,
# and NaN is a number
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "number": _is_number,
    "null": lambda x: x is None,
    "integer": lambda x: _is_number(x) and (isinstance(x, int) or x.is_integer()),
}
_RULES = {
    "type", "required", "properties", "additionalProperties", "items", "minItems",
    "maxItems", "minimum", "maximum", "const", "enum", "oneOf", "pattern",
}
_ANNOTATIONS = {"$schema", "$id", "title", "description"}


def _check_supported(schema) -> None:
    """Raises NotImplementedError unless every rule of the schema, and of
    each schema inside it, is one that _violation enforces."""
    if not isinstance(schema, dict):
        raise NotImplementedError(f"schema {schema!r} is not an object")
    unknown = sorted(set(schema) - _RULES - _ANNOTATIONS)
    if unknown:
        raise NotImplementedError(f"unsupported schema keywords: {', '.join(unknown)}")
    kind = schema.get("type", "object")
    if not (isinstance(kind, str) and kind in _TYPES):
        raise NotImplementedError(f"unsupported schema type {kind!r}")
    if not all(isinstance(v, str) for v in [schema.get("const", ""), *schema.get("enum", ())]):
        raise NotImplementedError("const and enum values must be strings")
    inner = [*schema.get("properties", {}).values(), *schema.get("oneOf", ())]
    for sub in inner + [schema[k] for k in ("additionalProperties", "items") if k in schema]:
        _check_supported(sub)


def _violation(x, schema):
    """The first rule of the schema that the document x breaks, worded as
    jsonschema words it, or None if x is valid."""
    kind = schema.get("type")
    if kind and not _TYPES[kind](x):
        return f"{x!r} is not of type {kind!r}"
    if "const" in schema and x != schema["const"]:
        return f"{schema['const']!r} was expected"
    if "enum" in schema and x not in schema["enum"]:
        return f"{x!r} is not one of {schema['enum']!r}"
    if "oneOf" in schema:
        matches = sum(_violation(x, sub) is None for sub in schema["oneOf"])
        if matches != 1:
            which = "any" if matches == 0 else "more than one"
            return f"{x!r} is not valid under {which} of the given schemas"
    if isinstance(x, dict):
        for key in schema.get("required", ()):
            if key not in x:
                return f"{key!r} is a required property"
        props, other = schema.get("properties", {}), schema.get("additionalProperties", {})
        for key, value in x.items():
            message = _violation(value, props[key] if key in props else other)
            if message:
                return message
    if isinstance(x, list):
        if len(x) < schema.get("minItems", 0):
            return f"{x!r} {'should be non-empty' if schema['minItems'] == 1 else 'is too short'}"
        if len(x) > schema.get("maxItems", len(x)):
            return f"{x!r} is too long"
        for item in x:
            message = _violation(item, schema.get("items", {}))
            if message:
                return message
    if "minimum" in schema and _is_number(x) and x < schema["minimum"]:
        return f"{x!r} is less than the minimum of {schema['minimum']!r}"
    if "maximum" in schema and _is_number(x) and x > schema["maximum"]:
        return f"{x!r} is greater than the maximum of {schema['maximum']!r}"
    if "pattern" in schema and isinstance(x, str) and not re.search(schema["pattern"], x):
        return f"{x!r} does not match {schema['pattern']!r}"
    return None


def schema_violation(doc, schema_name: str):
    """Checks a document against the packaged schema/v1/<schema_name>
    schema: the first violation as a message, or None."""
    raw = (
        resources.files(__package__)
        .joinpath(f"schema/v1/{schema_name}.schema.json")
        .read_text()
    )
    schema = json.loads(raw)
    _check_supported(schema)
    return _violation(doc, schema)


def _check_schema(doc, schema_name: str, display: str) -> None:
    message = schema_violation(doc, schema_name)
    if message:
        raise InputError(f"{display}: schema violation: {message}")


def _load_fusion(path: str):
    doc, digest, name = _read_input(path)
    _check_schema(doc, "fusion", name)
    try:
        data = FusionData.from_json(doc)
    except InputError as exc:
        raise InputError(f"{name}: bad fusion data: {exc}")
    return data, digest, name


def _read_hstar(path: str):
    """An H*-algebra document, checked against its schema; it must give a
    trace as one weight per block, or one n x n functional matrix per block
    of size n, and every weight and every real and imaginary part of a
    functional entry must be finite, of magnitude at most
    hstar1.WEIGHT_MAX, past which the trace of a product overflows."""
    from .hstar1 import WEIGHT_MAX

    doc, digest, name = _read_input(path)
    _check_schema(doc, "hstar", name)
    blocks, weights, phis = doc["blocks"], doc.get("weights"), doc.get("functional")
    if weights is None and phis is None:
        raise InputError(f"{name}: needs weights or a functional")
    if weights is not None and len(weights) != len(blocks):
        raise InputError(f"{name}: one weight per block required")
    if phis is not None and not (
        len(phis) == len(blocks)
        and all(len(phi) == n and all(len(row) == n for row in phi) for n, phi in zip(blocks, phis))
    ):
        raise InputError(f"{name}: the functional needs one n x n matrix per block of size n")
    entries = [x for phi in phis or () for row in phi for z in row for x in z]
    if not all(abs(x) <= WEIGHT_MAX for x in list(weights or ()) + entries):
        raise InputError(
            f"{name}: weights and functional entries must be finite, of magnitude at most {WEIGHT_MAX:g}"
        )
    return doc, digest, name


def _psi_for(data: FusionData, arg) -> SphericalWeight:
    if arg is None:
        return SphericalWeight(tuple(1.0 for _ in data.units))
    try:
        vals = tuple(float(x) for x in arg.split(","))
    except ValueError:
        raise InputError(f"bad --psi value {arg!r}")
    if len(vals) != len(data.units):
        raise InputError(
            f"--psi needs {len(data.units)} entries, got {len(vals)}"
        )
    if not all(PSI_MIN <= v <= PSI_MAX for v in vals):
        raise InputError(f"--psi entries must lie in [{PSI_MIN:g}, {PSI_MAX:g}]")
    return SphericalWeight(vals)


def _build_algebra(eng: Engine, doc: dict, name: str):
    """The algebra a document names; every label must be a simple of the
    category, and the unit of a trivial algebra must be a unit summand."""
    from . import intalg

    _check_schema(doc, "algebra", name)
    data = eng.data
    kind = doc.get("kind")
    labels = {"trivial": [doc.get("unit")], "group": doc.get("labels"), "pair": doc.get("object")}
    unknown = sorted(c for c in labels.get(kind, ()) if c not in data.index)
    if unknown:
        raise InputError(f"{name}: labels not in the category: {', '.join(unknown)}")
    if kind == "trivial":
        if doc["unit"] not in data.units:
            raise InputError(f"{name}: trivial algebra on {doc['unit']}, which is not a unit")
        return intalg.group_algebra(eng, (doc["unit"],))
    if kind == "group":
        return intalg.group_algebra(eng, tuple(doc["labels"]))
    if kind == "pair":
        return intalg.pair_algebra(eng, eng.obj(dict(doc["object"])))
    raise InputError(f"{name}: unknown algebra kind {kind!r}")


def _round(x, nd=14):
    """Stabilize float formatting for byte-identical reports."""
    if isinstance(x, complex):
        x = x.real if abs(x.imag) < 1e-300 else x
    if isinstance(x, (float, np.floating)):
        # strict JSON has no NaN or infinity, so a non-finite number is
        # written as null
        return float(f"{float(x):.{nd}e}") if math.isfinite(x) else None
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, dict):
        return {k: _round(v, nd) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_round(v, nd) for v in x]
    return x


class Report:
    def __init__(self, args, inputs):
        self.doc = {
            "command": [args.group, args.cmd] + [
                str(p) for p in getattr(args, "paths", [])
            ],
            "inputs": dict(inputs),
            "tolerance": args.tol,
            "seed": args.seed,
            "residuals": {},
            "verdicts": {},
        }

    def add(self, check: str, cert) -> None:
        self.doc["verdicts"][check] = "ACCEPT" if cert.ok else "REJECT"
        for k, v in cert.residuals.items():
            self.doc["residuals"][f"{check}.{k}"] = v
        if not cert.ok and cert.failed_axiom:
            self.doc.setdefault("violated_axioms", {})[check] = cert.failed_axiom

    def add_values(self, values: dict) -> None:
        self.doc.setdefault("values", {}).update(values)

    def finish(self, out) -> int:
        ok = all(v == "ACCEPT" for v in self.doc["verdicts"].values())
        self.doc["verdict"] = "ACCEPT" if ok else "REJECT"
        text = json.dumps(_round(self.doc), indent=2, sort_keys=True, allow_nan=False) + "\n"
        if out:
            try:
                fh = open(out, "w")
            except OSError as exc:
                raise InputError(f"cannot write {out}: {exc}")
            with fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0 if ok else 1


# --- subcommand bodies --------------------------------------------------


def _cmd_fusion_validate(args):
    data, digest, name = _load_fusion(args.paths[0])
    rep = Report(args, {name: digest})
    rep.add("fusion", validate(data, args.tolerance))
    return rep.finish(args.out)


def _cmd_fusion_udf(args):
    data, digest, name = _load_fusion(args.paths[0])
    psi = _psi_for(data, args.psi)
    rep = Report(args, {name: digest})
    cert = validate(data, args.tolerance)
    rep.add("fusion", cert)
    if cert.ok:
        eng = dual_engine(data, psi, args.tolerance)
        udf = eng.udf
        gap = worst(
            abs(eng.loop(c, side) - udf.d(c) / udf.d(u))
            for c in data.simples
            for side, u in (("L", data.s(c)), ("R", data.t(c)))
        )
        bound = eng.tol.bound(max(udf.dims.values()))
        rep.add("loops", bounded("loop_gap", gap, bound, "loop normalization"))
        rep.add_values({"dims": {c: udf.d(c) for c in data.simples}})
    return rep.finish(args.out)


def _fusion_engine(args, fusion_path):
    data, digest, name = _load_fusion(fusion_path)
    cert = validate(data, args.tolerance)
    if not cert.ok:
        raise InputError(f"{name}: fusion data fails validation: {cert.failed_axiom}")
    psi = _psi_for(data, args.psi)
    return dual_engine(data, psi, args.tolerance), digest, name


def _algebra_run(args):
    """(engine, algebra, algebra document name, report) for a command on
    a fusion category and an algebra document in it."""
    eng, digest, name = _fusion_engine(args, args.paths[0])
    adoc, adig, aname = _read_input(args.paths[1])
    A = _build_algebra(eng, adoc, aname)
    return eng, A, aname, Report(args, {name: digest, aname: adig})


def _cmd_alg_verify(args):
    from . import intalg

    _, A, _, rep = _algebra_run(args)
    rep.add("hstar_algebra", intalg.verify_hstar(A))
    return rep.finish(args.out)


def _cmd_alg_standardize(args):
    from . import intalg

    eng, A, aname, rep = _algebra_run(args)
    try:
        S = intalg.standardize(A)
    except InputError as exc:
        raise InputError(f"{aname}: cannot standardize: {exc}")
    special = eng.residual(
        eng.compose(S.mu, eng.dagger(S.mu)), eng.identity(S.word)
    )
    rep.add("specialness", bounded("mu_mu_dag", special, eng.tol.bound(), "specialness"))
    rep.add("hstar_algebra", intalg.verify_hstar(S))
    return rep.finish(args.out)


def _cmd_alg_modcat(args):
    from . import intalg

    eng, A, _, rep = _algebra_run(args)
    cert = intalg.verify_hstar(A)
    rep.add("hstar_algebra", cert)
    if cert.ok:
        mc = intalg.module_category(eng, A)
        if not mc.certificate.ok:
            rep.add("module_category", mc.certificate)
        rep.add_values(
            {"simple_modules": len(mc.simples), "module_dims": list(mc.dims)}
        )
    return rep.finish(args.out)


def _cmd_alg_intend(args):
    from . import intalg

    eng, A, _, rep = _algebra_run(args)
    cert = intalg.verify_hstar(A)
    rep.add("hstar_algebra", cert)
    if cert.ok:
        defect = intalg.internal_end_comparison(A)
        bound = eng.tol.bound() * INTERNAL_END_FACTOR
        rep.add(
            "internal_end",
            bounded("comparison_unitarity", defect, bound, "internal-end comparison"),
        )
    return rep.finish(args.out)


def _cmd_deligne_check(args):
    from . import deligne

    eng, digest, name = _fusion_engine(args, args.paths[0])
    rep = Report(args, {name: digest})
    mside = deligne.RegularRight(eng)
    m_objects = [eng.simple_obj(c) for c in eng.data.simples]
    rep.add(
        "right_action",
        deligne.right_action_isometry(mside, eng, m_objects, samples=5, seed=args.seed),
    )
    rep.add("ladder_trace", deligne.ladder_traciality(eng))
    return rep.finish(args.out)


def _cmd_h3_complete(args):
    from . import hilb3

    eng, digest, name = _fusion_engine(args, args.paths[0])
    rep = Report(args, {name: digest})
    X = hilb3.delooping(eng)
    rep.add("sphericality", hilb3.presentation_sphericality(X))
    Xs = hilb3.hilbert_sum_completion(X)
    S = hilb3.sum_object(Xs, list(eng.data.units) + [eng.data.units[0]])
    rep.add("hilbert_sum", hilb3.certify_hilbert_sum(Xs, S))
    return rep.finish(args.out)


def _cmd_h3_split_monad(args):
    from . import hilb3

    _, B, _, rep = _algebra_run(args)
    split = hilb3.split_monad(B)
    rep.add("split_monad", split.certificate)
    return rep.finish(args.out)


def _cmd_h3_theorem_b(args):
    from . import hilb3

    data, digest, name = _load_fusion(args.paths[0])
    psi = _psi_for(data, args.psi)
    rep = Report(args, {name: digest})
    cert = validate(data, args.tolerance)
    rep.add("fusion", cert)
    if cert.ok:
        rep.add("theorem_b", hilb3.theorem_b_check(data, psi, args.tolerance))
    return rep.finish(args.out)


def _cmd_hstar_verify(args):
    from . import hstar1

    doc, digest, name = _read_hstar(args.paths[0])
    rep = Report(args, {name: digest})
    functional = doc.get("functional")
    if functional is not None:
        functional = [np.array([[complex(*e) for e in row] for row in phi]) for phi in functional]
    rep.add(
        "hstar_trace",
        hstar1.verify_hstar_algebra(doc["blocks"], doc.get("weights"), functional, args.tolerance),
    )
    return rep.finish(args.out)


def _cmd_hstar_gns(args):
    from . import hstar1

    doc, digest, name = _read_hstar(args.paths[0])
    rep = Report(args, {name: digest})
    if doc.get("weights") is None:
        raise InputError(f"{name}: hstar gns needs weights, not a functional")
    try:
        A = hstar1.HStarAlgebra(tuple(doc["blocks"]), tuple(doc["weights"]))
    except InputError as exc:
        raise InputError(f"{name}: bad H*-algebra spec: {exc}")
    mod = hstar1.gns(A)
    rep.add("module_trace_law", hstar1.module_trace_law(mod, args.tolerance))
    rep.add_values(
        {"gns_dim": mod.dim, "simple_dims": [d for _, d in hstar1.simple_modules(A)]}
    )
    return rep.finish(args.out)


_COMMANDS = {
    ("fusion", "validate"): (_cmd_fusion_validate, 1, False),
    ("fusion", "udf"): (_cmd_fusion_udf, 1, True),
    ("alg", "verify"): (_cmd_alg_verify, 2, True),
    ("alg", "standardize"): (_cmd_alg_standardize, 2, True),
    ("alg", "modcat"): (_cmd_alg_modcat, 2, True),
    ("alg", "intend"): (_cmd_alg_intend, 2, True),
    ("deligne", "check"): (_cmd_deligne_check, 1, True),
    ("h3", "complete"): (_cmd_h3_complete, 1, True),
    ("h3", "split-monad"): (_cmd_h3_split_monad, 2, True),
    ("h3", "theorem-b"): (_cmd_h3_theorem_b, 1, True),
    ("hstar", "verify"): (_cmd_hstar_verify, 1, False),
    ("hstar", "gns"): (_cmd_hstar_gns, 1, False),
}


def _tol_arg(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return tol


def _seed_arg(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return seed


def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--tol", type=_tol_arg, default=1e-9, help="absolute and relative tolerance"
    )
    common.add_argument("--seed", type=_seed_arg, default=0, help="sampler seed")
    common.add_argument(
        "--out", default=None, help="write the JSON report here instead of stdout"
    )
    p = argparse.ArgumentParser(
        prog="hstarcat",
        description="certification toolkit for unitary fusion-categorical data",
    )
    sub = p.add_subparsers(dest="group", required=True)
    groups = {}
    for (g, c), (_, nargs, has_psi) in _COMMANDS.items():
        if g not in groups:
            gp = sub.add_parser(g)
            groups[g] = gp.add_subparsers(dest="cmd", required=True)
        cp = groups[g].add_parser(c, parents=[common])
        cp.add_argument("paths", nargs=nargs)
        if has_psi:
            cp.add_argument("--psi", default=None, help="comma-separated unit weights")
    return p


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    args.tolerance = Tolerance(args.tol)
    try:
        return _COMMANDS[(args.group, args.cmd)][0](args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # exit 1 is a certified REJECT only, so a failure of the run is 3
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
