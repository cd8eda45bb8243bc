"""Lint for the one tolerance policy: every bound test goes through
certify.within (or certify.clears for a margin), and every residual is
folded with numcore.worst, which keeps a NaN that max and min drop.
Lint for the one intertwiner calculus: commutants split in one place,
and no module solves for a hom space; every hom space comes from the
free-forgetful adjunction, and the dense solve lives in the tests as the
reference. Lint for the dependencies: the package imports no module
that only the tests need. Lint for the engine's door: outside
diagram.py, morphisms come from the shape-checked eng.mor, deligne
builds none and takes them from the engine, and outside fusion.py no
module builds an Engine, which is born with its dual functor in
fusion.dual_engine, the one place that assigns its cup coefficients
udf.alpha and udf.beta; only diagram.Engine._cup reads them. Lint for
cache keys: no module calls id(), and in deligne only _kept calls
Engine.derived, under a key of interned numbers, never the words of a
ladder object. Lint for verdicts: outside certify.py
no module constructs a Certificate, so every one comes from
certify.judged, and every check passed to judged or bounded names an
axiom.
Lint for reach: every definition is used by a command, a criterion or the
benchmark, not by its own unit test alone. Lint for the failure kinds: the
package defines one exception class per kind, all in numcore.py. Lint for
the bound factors: no bare number scales a .bound( call. Lint for the
sampled checks: every function that takes a samples count is shown to
refuse a count below one. Lint for the one tolerance per engine: no
function that takes an engine-backed object also takes a tol; it reads
the engine's. Lint for the one source of the fusion rules: outside the
construction of FusionData, to_json and validate's grading check, no
module reads the stored multiplicities N; the rest read the compiled
rules. Lint for the one tree sweep: comb tree bases are swept and stored
in FusionData.sweep alone, and grouped-basis unitaries in the data's
table by Engine.group_last alone; no engine builds or keeps tree lists,
F blocks or grouped unitaries of its own, and outside fusion no module
reads the fusion products."""

import ast
import builtins
import math
import pathlib
import re
from collections import Counter

import pytest

from hstarcat import bundled, deligne, hilb3, hstar1, intalg
from hstarcat.certify import bounded, clears, judged, within
from hstarcat.fusion import SphericalWeight, dual_engine
from hstarcat.hilb2 import TwoHilbertSpace
from hstarcat.hstar1 import HStarAlgebra
from hstarcat.numcore import InputError, sample_rng

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hstarcat"

# calls whose value is a residual: a gap norm, or a named residual routine
RESIDUAL_CALLS = {"residual", "unitarity_defect", "_unitarity_residual", "verify_bimodule"}


def _name(func):
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _calls(node):
    return (n for n in ast.walk(node) if isinstance(n, ast.Call))


def _is_residual(node) -> bool:
    """The expression holds a residual: |a - b|, ||a - b|| or a call of a
    residual routine."""
    for call in _calls(node):
        name = _name(call.func)
        if name in RESIDUAL_CALLS:
            return True
        if name in ("abs", "norm") and call.args and isinstance(call.args[0], ast.BinOp):
            if isinstance(call.args[0].op, ast.Sub):
                return True
    return False


def _violations(tree):
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for operand in [node.left, *node.comparators]:
                if any(_name(c.func) == "bound" for c in _calls(operand)):
                    out.append((node.lineno, "comparison with a .bound( operand"))
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            call = node.value
            targets = {t.id for t in node.targets if isinstance(t, ast.Name)}
            args = {a.id for a in call.args if isinstance(a, ast.Name)}
            if _name(call.func) in ("max", "min") and targets & args:
                out.append((node.lineno, f"{_name(call.func)}( accumulation"))
        if isinstance(node, ast.Call) and _name(node.func) in ("max", "min"):
            if isinstance(node.func, ast.Name) and any(_is_residual(a) for a in node.args):
                out.append((node.lineno, f"{node.func.id}( over residuals"))
    return out


def _lint(source: str):
    return _violations(ast.parse(source))


def test_source_keeps_one_bound_test():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += [f"{path.name}:{line}: {what}" for line, what in _lint(path.read_text())]
    assert not found, "\n".join(found)


def test_lint_catches_the_patterns_it_forbids():
    assert _lint("ok = r <= tol.bound(2.0)")
    assert _lint("if worst > tol.bound() * 10: pass")
    assert _lint("worst = max(worst, abs(a - b))")
    assert _lint("r = max(eng.residual(f, g), eng.residual(g, h))")
    assert _lint("d = max(np.linalg.norm(a - b), np.linalg.norm(c - d))")
    assert _lint("low = min(low, w)")
    assert not _lint("ok = within(r, tol.bound(2.0))")
    assert not _lint("scale = max(1.0, float(np.linalg.norm(m)))")
    assert not _lint("g = abs(a - b) / max(1.0, abs(a))")
    assert not _lint("r = worst([eng.residual(f, g), eng.residual(g, h)])")


def _bare_bound_factors(source: str):
    """Lines where a bare number multiplies or divides a .bound( call: a
    loose factor on a bound is named, with its reason, like TRACE_SCALE."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Div)):
            sides = (node.left, node.right)
            number = any(isinstance(x, ast.Constant) and isinstance(x.value, (int, float)) for x in sides)
            if number and any(_name(c.func) == "bound" for x in sides for c in _calls(x)):
                out.append(node.lineno)
    return out


def test_bound_factors_are_named():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += [f"{path.name}:{line}" for line in _bare_bound_factors(path.read_text())]
    assert not found, found


def test_bound_factor_lint_catches_a_bare_literal():
    assert _bare_bound_factors("b = tol.bound() * 10")
    assert _bare_bound_factors("b = tol.bound() / 20")
    assert _bare_bound_factors("b = 5 * args.tolerance.bound()")
    assert _bare_bound_factors("ok = within(r, tol.bound(2.0) * 0.5)")
    assert _bare_bound_factors("b = (tol.bound() * w) * 3")
    assert not _bare_bound_factors("b = tol.bound() * PENTAGON_FACTOR")
    assert not _bare_bound_factors("b = tol.bound() / F_UNITARITY_DIVISOR")
    assert not _bare_bound_factors("b = tol.bound(10.0)")
    assert not _bare_bound_factors("b = tol.bound() * min(eng.udf.psi.psi)")
    assert not _bare_bound_factors("x = 2 * y")


# routines that only their named callers may call, as module.function:
# relative_tensor builds the linking's pair tensors (never one with a
# unit factor, never a tensor of a tensor) and the pair of a split monad
ONE_CALLER = {
    "spectral_pieces": {"intalg.split_summands"},
    "relative_tensor": {"hilb3._LinkingBuilder.trees", "hilb3.split_monad"},
}


def _misplaced_calls(source: str, module: str):
    """(line, message) for each call of a ONE_CALLER routine made outside
    its callers; the scope of a call is the chain of defs around it."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            if isinstance(child, ast.Call):
                name = _name(child.func)
                if name in ONE_CALLER and scope not in ONE_CALLER[name]:
                    out.append((child.lineno, f"{name} called in {scope}"))
            visit(child, inner)

    visit(ast.parse(source), module)
    return out


def test_intertwiner_routines_have_one_caller():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += [
            f"{path.name}:{line}: {what}"
            for line, what in _misplaced_calls(path.read_text(), path.stem)
        ]
    assert not found, "\n".join(found)


def test_one_caller_lint_catches_a_second_caller():
    assert _misplaced_calls("def split(F):\n    return spectral_pieces(F)", "hilb3")
    assert _misplaced_calls("def module_category(F):\n    return spectral_pieces(F)", "intalg")
    assert _misplaced_calls("class M:\n    def homs(self):\n        return spectral_pieces(a)", "intalg")
    assert _misplaced_calls("pieces = spectral_pieces(eng, word, comm, rng)", "intalg")
    assert not _misplaced_calls("def split_summands(F):\n    return spectral_pieces(F)", "intalg")
    builder = "class _LinkingBuilder:\n    def {}(self):\n        return relative_tensor(X, Y, tol)"
    assert _misplaced_calls(builder.format("f_matrices"), "hilb3")
    assert not _misplaced_calls(builder.format("trees"), "hilb3")
    assert not _misplaced_calls("def split_monad(B):\n    return relative_tensor(M, Md)", "hilb3")


# the solver routines: no module defines or calls them, since hom spaces
# come from homs(other), which reads them off a free presentation
SOLVERS = {"_solve", "linear_matrix", "null_space"}


def _solver_uses(source: str):
    """(line, name) for each definition or call of a SOLVERS routine."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, FUNCS) and node.name in SOLVERS:
            out.append((node.lineno, node.name))
        elif isinstance(node, ast.Call) and _name(node.func) in SOLVERS:
            out.append((node.lineno, _name(node.func)))
    return out


def test_no_module_solves_for_homs():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += [f"{path.name}:{line}: {name}" for line, name in _solver_uses(path.read_text())]
    assert not found, "\n".join(found)


def test_solve_lint_catches_a_solve_anywhere():
    assert _solver_uses("basis = intalg._solve(eng, pair, [])")
    assert _solver_uses("def f(eng):\n    return eng.linear_matrix(g, p, q)")
    assert _solver_uses("class B:\n    def homs(self):\n        return null_space(m)")
    assert _solver_uses("ns = numcore.null_space(m)")
    assert _solver_uses("def _solve(eng):\n    return []")
    assert _solver_uses("def null_space(m):\n    return m")
    assert _solver_uses("class Engine:\n    def linear_matrix(self, fun, a, b):\n        pass")
    assert not _solver_uses("basis = F.homs(G)\nrows = row_space(m)")
    assert not _solver_uses("def solve_ladder(x):\n    return x")


def _direct_mor_calls(source: str):
    """Lines that construct a Mor directly, by name or as an attribute."""
    return [n.lineno for n in _calls(ast.parse(source)) if _name(n.func) == "Mor"]


def test_only_the_engine_constructs_mor():
    # the engine builds its own results unchecked; everyone else goes
    # through Engine.mor, the one place that checks block shapes
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "diagram.py":
            found += [f"{path.name}:{line}: Mor(" for line in _direct_mor_calls(path.read_text())]
    assert not found, "\n".join(found)


def test_mor_lint_catches_a_direct_construction():
    assert _direct_mor_calls("f = Mor(eng, (), (), {})")
    assert _direct_mor_calls("def g(eng):\n    return diagram.Mor(eng, (), (), {})")
    assert not _direct_mor_calls("f = eng.mor((), (), {})")
    assert not _direct_mor_calls("from .diagram import Engine, Mor\nx: Mor = eng.zero((), ())")


def _mor_builds(source: str):
    """Lines that build a Mor from blocks: Mor( or the engine's door
    .mor(."""
    return [n.lineno for n in _calls(ast.parse(source)) if _name(n.func) in ("Mor", "mor")]


def test_ladder_pieces_come_from_the_engine():
    # deligne gets every morphism from an engine operation or from
    # Engine.derived, so every block it holds passed the engine's shape
    # checks or was computed by the engine
    found = _mor_builds((SRC / "deligne.py").read_text())
    assert not found, found


def test_mor_build_lint_catches_a_build():
    assert _mor_builds("f = eng.mor(X, Y, blocks)")
    assert _mor_builds("f = Mor(eng, X, Y, blocks)")
    assert not _mor_builds("f = eng.derived(key, build)\ng = eng.compose(f, f)")


def _id_calls(source: str):
    """Lines that call id(): a cache keyed by an object's id can hand its
    entry to a later object that reuses the id."""
    return [n.lineno for n in _calls(ast.parse(source)) if _name(n.func) == "id"]


def test_caches_key_by_value():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += [f"{path.name}:{line}: id(" for line in _id_calls(path.read_text())]
    assert not found, "\n".join(found)


def test_id_lint_catches_an_id_key():
    assert _id_calls("key = (id(dst.m), id(dst.n))")
    assert _id_calls("def f(self, x):\n    return self._cache.get(id(x))")
    assert _id_calls("k = builtins.id(x)")
    assert not _id_calls("key = (dst.m, dst.n)\nvid = row.vid")


def _kept_key_faults(source: str):
    """(line, message) for each Engine.derived call outside _kept, and each
    _kept call whose key is not a tuple written out at the call or reads a
    word (.m or .n) of a ladder object: kept keys name ladder objects by
    their interned numbers, so a ladder call hashes no word tuple."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                name = _name(child.func)
                if name == "derived" and scope != "_kept":
                    out.append((child.lineno, f"derived called in {scope}"))
                elif name == "_kept":
                    keys = child.args[1:2] + [k.value for k in child.keywords if k.arg == "key"]
                    if not (keys and isinstance(keys[0], ast.Tuple)):
                        out.append((child.lineno, "_kept key not written out"))
                    elif any(isinstance(n, ast.Attribute) and n.attr in ("m", "n") for n in ast.walk(keys[0])):
                        out.append((child.lineno, "_kept key reads a word"))
            visit(child, child.name if isinstance(child, FUNCS) else scope)

    visit(ast.parse(source), None)
    return out


def test_ladder_values_are_kept_under_interned_keys():
    found = _kept_key_faults((SRC / "deligne.py").read_text())
    assert not found, found


def test_kept_key_lint_catches_a_word_key():
    assert _kept_key_faults("def f(L):\n    return L.eng.derived(('x', L.key), build)")
    assert _kept_key_faults("def _channels(s, d):\n    def build():\n        return eng.derived(k, b)")
    assert _kept_key_faults("w = _kept(eng, ('channels', src.m, dst.n), build)")
    assert _kept_key_faults("w = _kept(eng, ('images', *(x for L in Ls for x in (L.m, L.n))), build)")
    assert _kept_key_faults("w = _kept(eng, key=('trace_vector', L.m), build=build)")
    assert _kept_key_faults("key = ('x', L.key)\nw = _kept(eng, key, build)")
    assert not _kept_key_faults("def _kept(eng, key, build):\n    return eng.derived(key, build)")
    assert not _kept_key_faults("w = _kept(eng, ('compose_tensor', L1.key, L2.key, L3.key), build)")
    assert not _kept_key_faults("f = _kept(eng, ('action_forms', type(mside), *ms), build)")


def _direct_engine_calls(source: str):
    """Lines that construct an Engine, by name or as an attribute."""
    return [n.lineno for n in _calls(ast.parse(source)) if _name(n.func) == "Engine"]


def test_only_fusion_constructs_engines():
    # an engine and its dual functor are built together, in
    # fusion.dual_engine; loop_eval is the one other construction
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "fusion.py":
            found += [f"{path.name}:{line}: Engine(" for line in _direct_engine_calls(path.read_text())]
    assert not found, "\n".join(found)


def test_engine_lint_catches_a_stray_construction():
    assert _direct_engine_calls("eng = Engine(data, udf_from_weight(data, psi))")
    assert _direct_engine_calls("def g(data, udf):\n    return diagram.Engine(data, udf)")
    assert not _direct_engine_calls("eng = dual_engine(data, psi, tol)")
    assert not _direct_engine_calls("from .diagram import Engine\ndef f(eng: Engine):\n    return eng.udf")


# parameter annotations that bring an engine, whose tol every check reads
ENGINE_BACKED = {"Engine", "AlgebraObject", "Bimodule", "Pre3HilbPresentation"}


def _tol_beside_engine(source: str):
    """Names of the functions with a parameter called tol beside one
    annotated as an engine-backed object."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, FUNCS):
            params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            kinds = {_name(a.annotation) for a in params if a.annotation is not None}
            if any(a.arg == "tol" for a in params) and kinds & ENGINE_BACKED:
                out.append(node.name)
    return out


def test_checks_read_the_tolerance_from_the_engine():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += [f"{path.name}: {f}" for f in _tol_beside_engine(path.read_text())]
    assert not found, "\n".join(found)


def test_tolerance_lint_catches_a_tol_beside_an_engine():
    assert _tol_beside_engine("def f(eng: Engine, tol=DEFAULT_TOL):\n    pass")
    assert _tol_beside_engine("def g(A: AlgebraObject, tol):\n    pass")
    assert _tol_beside_engine("def h(M: intalg.Bimodule, *, tol):\n    pass")
    assert not _tol_beside_engine("def validate(data: FusionData, tol):\n    pass")
    assert not _tol_beside_engine("def theorem_b_check(data, psi, tol, seed):\n    pass")


# the cup and cap coefficients of the dual functor: read in one place, so
# that every cup, cap and loop is built from the comb basis there, and
# written in the one place that installs them
CUP_COEFFICIENTS = {"alpha", "beta"}
CUP_READER, CUP_WRITER = "diagram.Engine._cup", "fusion.dual_engine"


def _stray_cup_coefficients(source: str, module: str):
    """(line, message) for each read of udf.alpha or udf.beta outside
    CUP_READER and each assignment to them outside CUP_WRITER; a
    subscript or attribute store into them is an assignment."""
    out = []

    def is_coefficient(node):
        if not (isinstance(node, ast.Attribute) and node.attr in CUP_COEFFICIENTS):
            return False
        owner = node.value
        return getattr(owner, "id", None) == "udf" or getattr(owner, "attr", None) == "udf"

    def visit(node, scope, written):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            write = child is written or isinstance(getattr(child, "ctx", None), (ast.Store, ast.Del))
            if is_coefficient(child) and scope != (CUP_WRITER if write else CUP_READER):
                what = "assigned" if write else "read"
                out.append((child.lineno, f"udf.{child.attr} {what} in {scope}"))
            # a store into a subscript writes through to its value
            visit(child, inner, child.value if write and isinstance(child, ast.Subscript) else None)

    visit(ast.parse(source), module, None)
    return out


def test_cup_coefficients_have_one_reader_and_one_writer():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += [
            f"{path.name}:{line}: {what}"
            for line, what in _stray_cup_coefficients(path.read_text(), path.stem)
        ]
    assert not found, "\n".join(found)


def test_cup_lint_catches_a_stray_read():
    reader = "class Engine:\n    def _cup(self, x):\n        return self.udf.alpha[x]"
    writer = "def dual_engine(data):\n    udf.beta[c] = 1.0\n    udf.alpha[c] = 2.0"
    assert not _stray_cup_coefficients(reader, "diagram")
    assert not _stray_cup_coefficients(writer, "fusion")
    assert _stray_cup_coefficients(reader, "hilb3")
    assert _stray_cup_coefficients("class Engine:\n    def ev_simple(self, c):\n        return self.udf.alpha[c]", "diagram")
    assert _stray_cup_coefficients("def loop(eng, c):\n    return abs(eng.udf.beta[c]) ** 2", "fusion")
    assert _stray_cup_coefficients("z = udf.alpha.get(c, 1.0)", "intalg")
    assert _stray_cup_coefficients("def dual_engine(udf):\n    return udf.alpha[c]", "fusion")
    assert _stray_cup_coefficients("def f(eng):\n    eng.udf.alpha[c] = 1.0", "diagram")
    assert _stray_cup_coefficients("def f(eng):\n    eng.udf.beta[c] *= 2.0", "cli")
    assert _stray_cup_coefficients("def f(udf):\n    udf.alpha = {}", "hilb3")
    assert _stray_cup_coefficients("def dual_engine(udf):\n    m[udf.alpha[c]] = 1", "fusion")
    assert not _stray_cup_coefficients("def f(A):\n    return A.alpha + udf.psi", "intalg")


# the stored fusion multiplicities FusionData.N: read to build the table at
# construction, to write them out, and by validate's grading check over
# the stored entries; everything else reads n, fusion_products or the
# table, which carry the strict-unit rule
N_READERS = {
    "fusion.FusionData.__post_init__",
    "fusion.FusionData._compile",
    "fusion.FusionData.to_json",
    "fusion.validate",
}


def _stray_n_reads(source: str, module: str):
    """(line, message) for each attribute .N named outside N_READERS; the
    scope of a use is the chain of defs around it."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            if isinstance(child, ast.Attribute) and child.attr == "N" and scope not in N_READERS:
                out.append((child.lineno, f".N read in {scope}"))
            visit(child, inner)

    visit(ast.parse(source), module)
    return out


def test_stored_multiplicities_are_read_only_by_fusion():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += [
            f"{path.name}:{line}: {what}" for line, what in _stray_n_reads(path.read_text(), path.stem)
        ]
    assert not found, "\n".join(found)


def test_n_lint_catches_a_stray_read():
    assert _stray_n_reads("def f(data):\n    return data.N.get((a, b, c), 0)", "diagram")
    assert _stray_n_reads("rows = eng.data.N", "hilb3")
    assert _stray_n_reads("def pentagon_residual(data):\n    return len(data.N)", "fusion")
    fd = "class FusionData:\n    def {}(self):\n        return self.N.get(k, 0)"
    assert _stray_n_reads(fd.format("n"), "fusion")
    assert not _stray_n_reads(fd.format("to_json"), "fusion")
    assert _stray_n_reads(fd.format("to_json"), "hilb3")
    assert not _stray_n_reads("def validate(data):\n    for a, b, c in data.N:\n        pass", "fusion")
    assert not _stray_n_reads("def f(data):\n    return data.n(a, b, c) + data.table[0, 0, 0]", "diagram")
    assert not _stray_n_reads("data = FusionData(S, U, G, D, N=mults, F=F)", "hilb3")


# the comb tree tables as FusionData names them and as an Engine holds them
TREE_TABLES = {"comb_bases", "comb_indices", "comb_supports", "_bases", "_indices", "_supports"}
# the one sweep that fills them, and the construction that makes them empty
TREE_SWEEPERS = {"fusion.FusionData.sweep", "fusion.FusionData._compile"}
# the grouped-basis unitaries, as FusionData names them and as an Engine
# holds them, and the one builder that fills them
GROUP_TABLES = {"grouped_unitaries", "_group"}
GROUP_BUILDERS = {"diagram.Engine.group_last", "fusion.FusionData._compile"}
# the per-engine tables that the data replaced: of the sweep, and of F
ENGINE_TABLES = {"_basis", "_index", "_support", "_fcache"}
# the per-engine methods that the data replaced
ENGINE_DEFS = {"_trees": "sweeps trees", "_fsym": "keeps F blocks of its own"}
TABLE_WRITES = {"setdefault", "update", "pop", "popitem", "clear", "__setitem__"}


def _stray_tree_sweeps(source: str, module: str):
    """(line, message) for each place that sweeps or stores comb tree
    bases outside FusionData.sweep, or grouped-basis unitaries outside
    Engine.group_last: a write into a tree or group table, a read of
    fusion_products (the sweep's input) outside fusion, and in diagram a
    def _trees or _fsym, a per-engine _basis, _index, _support or _fcache
    table, or a tree or group table attribute bound to anything but the
    data's table."""
    out = []

    def is_table(node):
        return isinstance(node, ast.Attribute) and node.attr in TREE_TABLES | GROUP_TABLES

    def may_write(table, scope):
        return scope in (TREE_SWEEPERS if table.attr in TREE_TABLES else GROUP_BUILDERS)

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
                if module == "diagram" and child.name in ENGINE_DEFS:
                    out.append((child.lineno, f"{inner} {ENGINE_DEFS[child.name]}"))
            if isinstance(child, (ast.Assign, ast.AugAssign)):
                targets = child.targets if isinstance(child, ast.Assign) else [child.target]
                for t in targets:
                    for part in t.elts if isinstance(t, ast.Tuple) else [t]:
                        table = part.value if isinstance(part, ast.Subscript) else None
                        if is_table(table) and not may_write(table, scope):
                            out.append((child.lineno, f"writes .{table.attr} in {scope}"))
                        if is_table(part) and not may_write(part, scope) and not is_table(child.value):
                            out.append((child.lineno, f"binds .{part.attr} to a table of its own in {scope}"))
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
                table = child.func.value
                if child.func.attr in TABLE_WRITES and is_table(table) and not may_write(table, scope):
                    out.append((child.lineno, f"writes .{table.attr} in {scope}"))
            if isinstance(child, ast.Attribute):
                if child.attr == "fusion_products" and module != "fusion":
                    out.append((child.lineno, f"reads fusion_products in {scope}"))
                if child.attr in ENGINE_TABLES and module == "diagram":
                    out.append((child.lineno, f"keeps a table .{child.attr} in {scope}"))
            visit(child, inner)

    visit(ast.parse(source), module)
    return out


def test_comb_trees_are_swept_only_by_fusion():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += [
            f"{path.name}:{line}: {what}"
            for line, what in _stray_tree_sweeps(path.read_text(), path.stem)
        ]
    assert not found, "\n".join(found)


def test_tree_sweep_lint_catches_an_engine_sweep():
    # the engine's sweep and tables before they moved onto the data
    engine = (
        "class Engine:\n"
        "    def __init__(self, data):\n"
        "        self._basis = {}\n"
        "    def _trees(self, word):\n"
        "        for c, m in self.data.fusion_products(x, e):\n"
        "            pass\n"
    )
    found = _stray_tree_sweeps(engine, "diagram")
    assert len(found) == 3, found
    # the engine's F blocks and grouped unitaries before they moved too
    engine = (
        "class Engine:\n"
        "    def __init__(self, data):\n"
        "        self._group = {}\n"
        "        self._fcache = {}\n"
        "    def _fsym(self, a, b, c, d):\n"
        "        return self.data.f_matrix(a, b, c, d)\n"
    )
    found = _stray_tree_sweeps(engine, "diagram")
    assert len(found) == 3, found
    held = "class Engine:\n    def __init__(self, data):\n        self._group = data.grouped_unitaries"
    assert not _stray_tree_sweeps(held, "diagram")
    built = "class Engine:\n    def {}(self, key):\n        self._group[key] = (grouped, gidx, U)"
    assert not _stray_tree_sweeps(built.format("group_last"), "diagram")
    assert _stray_tree_sweeps(built.format("whisker_right_obj"), "diagram")
    assert _stray_tree_sweeps("def f(data, k):\n    data.grouped_unitaries.pop(k)", "hilb3")
    assert _stray_tree_sweeps("class Engine:\n    def f(self):\n        self._bases = {}", "diagram")
    assert _stray_tree_sweeps("def f(eng, k):\n    eng._bases[k] = []", "intalg")
    assert _stray_tree_sweeps("def f(data, k):\n    data.comb_supports.setdefault(k, ())", "hilb3")
    assert _stray_tree_sweeps("def f(data, k):\n    data.comb_bases[k], x = [], 1", "fusion")
    assert _stray_tree_sweeps("def f(data):\n    return data.fusion_products(a, b)", "hilb3")
    sweep = "class FusionData:\n    def {}(self, word):\n        self.comb_bases[(word, c)] = out"
    assert not _stray_tree_sweeps(sweep.format("sweep"), "fusion")
    assert _stray_tree_sweeps(sweep.format("tree_rows"), "fusion")
    held = "class Engine:\n    def __init__(self, data):\n        self._bases = data.comb_bases"
    assert not _stray_tree_sweeps(held, "diagram")
    assert not _stray_tree_sweeps("def f(self):\n    return self._bases.get(k)", "diagram")
    assert not _stray_tree_sweeps("def f(self):\n    self._trees = {}", "hilb3")


def _certificate_calls(source: str):
    """Lines that construct a Certificate, by name or as an attribute."""
    return [n.lineno for n in _calls(ast.parse(source)) if _name(n.func) == "Certificate"]


def test_only_certify_constructs_certificates():
    # every verdict comes from certify.judged, which runs the bound and
    # margin tests in the order of its checks and names the first failure
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "certify.py":
            found += [f"{path.name}:{line}: Certificate(" for line in _certificate_calls(path.read_text())]
    assert not found, "\n".join(found)


def test_certificate_lint_catches_a_stray_construction():
    assert _certificate_calls("return Certificate(False, residuals, failed_axiom='unitality')")
    assert _certificate_calls("def f(ok):\n    return certify.Certificate(ok, {})")
    assert not _certificate_calls("def f(r, checks) -> Certificate:\n    return judged(r, checks)")
    assert not _certificate_calls("from .certify import Certificate, judged\nc: Certificate = None")


def _is_none(node) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _unnamed_axioms(source: str):
    """Lines where a check names no axiom: a bounded call whose axiom is
    None, or, in a function that calls judged, a check tuple whose third
    entry, the axiom, is None."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and _name(node.func) == "bounded":
            axioms = node.args[3:4] + [k.value for k in node.keywords if k.arg == "axiom"]
            out.update(node.lineno for a in axioms if _is_none(a))
        if isinstance(node, ast.FunctionDef) and any(_name(c.func) == "judged" for c in _calls(node)):
            out.update(
                t.lineno
                for t in ast.walk(node)
                if isinstance(t, ast.Tuple) and len(t.elts) in (3, 4) and _is_none(t.elts[2])
            )
    return sorted(out)


def test_every_check_names_its_axiom():
    # a REJECT without an axiom tells the reader nothing about what failed
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += [f"{path.name}:{line}: axiom None" for line in _unnamed_axioms(path.read_text())]
    assert not found, "\n".join(found)


def test_axiom_lint_catches_an_unnamed_check():
    assert _unnamed_axioms("c = bounded('gram_defect', d, tol.bound(), None)")
    assert _unnamed_axioms("c = bounded('gap', d, b, axiom=None, details={})")
    assert _unnamed_axioms(
        "def f(gaps, b):\n    checks = []\n    for k in gaps:\n"
        "        checks.append((k, b, None))\n    return judged(gaps, checks)"
    )
    assert _unnamed_axioms("def f(r, cut):\n    return judged(r, [('m', cut, None, clears)])")
    assert not _unnamed_axioms("c = bounded('gram_defect', d, tol.bound(), 'Yoneda unitarity')")
    assert not _unnamed_axioms("def f(r, b):\n    return judged(r, [('u', b, 'unitality')])")
    assert not _unnamed_axioms("def f(x):\n    return (x, 0, None)")


# modules the tests use and the package must not import: input documents
# are checked by cli's own schema checker, against jsonschema in the tests
TEST_ONLY = {"jsonschema", "hypothesis", "pytest"}


def _test_only_imports(source: str):
    """(line, module) for each import of a TEST_ONLY module, by an import
    statement or by importlib.import_module / __import__ of a literal."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Call) and _name(node.func) in ("import_module", "__import__"):
            names = [a.value for a in node.args[:1] if isinstance(a, ast.Constant)]
        else:
            continue
        out += [(node.lineno, n) for n in names if str(n).split(".")[0] in TEST_ONLY]
    return out


def test_package_imports_no_test_only_module():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        found += [f"{path.name}:{line}: imports {n}" for line, n in _test_only_imports(path.read_text())]
    assert not found, "\n".join(found)


def test_import_lint_catches_a_test_only_import():
    assert _test_only_imports("import jsonschema")
    assert _test_only_imports("def f():\n    import jsonschema.validators as v")
    assert _test_only_imports("from jsonschema import validate")
    assert _test_only_imports("importlib.import_module('jsonschema')")
    assert _test_only_imports("m = __import__('hypothesis')")
    assert not _test_only_imports("import json\nfrom importlib import resources")
    assert not _test_only_imports("from . import cli\nimport jsonschema_like")


# the one exception class of each kind of failure, as (file, class)
KINDS = {("numcore.py", k) for k in ("InputError", "ShapeMismatch", "ConsistencyError")}
BUILTIN_EXCEPTIONS = {
    name for name, v in vars(builtins).items() if isinstance(v, type) and issubclass(v, BaseException)
}


def _exception_classes(sources: dict):
    """(file, line, class) for each class of the sources ({file: text})
    that subclasses a builtin exception, directly or through another such
    class of the sources."""
    classes = [
        (file, node)
        for file, text in sources.items()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.ClassDef)
    ]
    found = {}
    while True:
        known = BUILTIN_EXCEPTIONS | {name for _, _, name in found.values()}
        grown = {
            (file, node.lineno): (file, node.lineno, node.name)
            for file, node in classes
            if any(_name(b) in known for b in node.bases)
        }
        if len(grown) == len(found):
            return sorted(found.values())
        found = grown


def test_one_exception_class_per_kind():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    found = _exception_classes(sources)
    extra = [f"{file}:{line}: class {name}" for file, line, name in found if (file, name) not in KINDS]
    assert not extra, "\n".join(extra)
    assert {(file, name) for file, _, name in found} == KINDS


def test_exception_lint_catches_a_new_class():
    def names(text, file="m.py"):
        return [name for _, _, name in _exception_classes({file: text})]

    assert names("class Oops(ValueError):\n    pass") == ["Oops"]
    assert names("class Oops(Exception):\n    pass") == ["Oops"]
    assert names("class Oops(builtins.KeyError):\n    pass") == ["Oops"]
    assert names("class A(RuntimeError):\n    pass\n\n\nclass B(A):\n    pass") == ["A", "B"]
    assert _exception_classes({"a.py": "class B(A):\n    pass", "b.py": "class A(ArithmeticError):\n    pass"})
    assert not names("class Engine:\n    pass")
    assert not names("@dataclass(frozen=True)\nclass Tolerance(Base):\n    pass")


# what reaches a definition besides the package itself: the benchmark and
# the tests of commands, criteria and reports; the unit tests do not
REACHING = [
    *sorted((ROOT / "bench").glob("*.py")),
    *(ROOT / "tests" / f"test_{name}.py" for name in ("acceptance", "golden", "cli", "policy")),
]
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _names(tree) -> Counter:
    """Each name used as an ast.Name or ast.Attribute, and each part of a
    dotted path in a string (the bench's tracer picks what it counts by
    such paths), with its number of uses."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if DOTTED.fullmatch(node.value):
                out.update(node.value.split("."))
    return out


def _unreached(package, others):
    """Names of the top-level defs and classes and the methods of the
    package sources that no source names outside the definition itself;
    dunder methods are called by the language."""
    trees = [ast.parse(source) for source in package]
    named = Counter()
    for tree in [*trees, *map(ast.parse, others)]:
        named += _names(tree)
    defs = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                defs += [node, *(m for m in node.body if isinstance(m, FUNCS))]
            elif isinstance(node, FUNCS):
                defs.append(node)
    return [
        d.name
        for d in defs
        if not (d.name.startswith("__") and d.name.endswith("__"))
        and named[d.name] <= _names(d)[d.name]
    ]


def test_every_definition_is_reached():
    package = [p.read_text() for p in sorted((ROOT / "src").rglob("*.py"))]
    found = _unreached(package, [p.read_text() for p in REACHING])
    assert not found, found


def test_reach_lint_catches_an_unreached_def():
    assert _unreached(["def lone():\n    return lone()"], []) == ["lone"]
    assert _unreached(["class C:\n    def m(self):\n        pass"], ["C()"]) == ["m"]
    assert _unreached(["def f():\n    pass"], ["g = 1"]) == ["f"]
    assert not _unreached(["def f():\n    pass\n\n\ndef g():\n    f()"], ["g()"])
    assert not _unreached(["class C:\n    def m(self):\n        pass"], ["x.m", "C"])
    assert not _unreached(["class C:\n    def __init__(self):\n        pass"], ["C()"])
    assert not _unreached(["def f():\n    pass"], ["HOT = {'mod.f'}"])


def test_bound_tests_fail_on_nan():
    nan = math.nan
    assert within(1.0, 1.0) and not within(1.5, 1.0)
    assert not within(nan, 1.0) and not within(0.0, nan)
    assert clears(2.0, 1.0) and not clears(1.0, 1.0)
    assert not clears(nan, 1.0)
    cert = bounded("gap", nan, 1.0, "axiom")
    assert (cert.ok, cert.failed_axiom) == (False, "axiom")
    assert math.isnan(cert.residuals["gap"])
    cert = judged({"a": 5.0, "b": nan}, [("a", 10.0, "first"), ("b", 10.0, "second")])
    assert (cert.ok, cert.failed_axiom) == (False, "second")
    cert = judged({"a": 50.0, "b": nan}, [("a", 10.0, "first"), ("b", 10.0, "second")])
    assert cert.failed_axiom == "first"
    # an unnamed check still rejects
    assert not judged({"a": nan}, [("a", 1.0, None)]).ok
    # a margin check passes iff clears(value, cut), and a check may read a
    # value from details, which stays out of the residuals
    cert = judged({"m": 1.0}, [("m", 1.0, "margin", clears)])
    assert (cert.ok, cert.failed_axiom) == (False, "margin")
    assert not judged({"m": nan}, [("m", 0.0, "margin", clears)]).ok
    checks = [("m", 1.0, "margin", clears), ("cond", 10.0, "condition")]
    cert = judged({"m": 2.0}, checks, {"cond": 20.0})
    assert (cert.ok, cert.failed_axiom, cert.residuals) == (False, "condition", {"m": 2.0})
    assert judged({"m": 2.0}, checks, {"cond": 5.0}).ok


@pytest.mark.parametrize(
    "make",
    [
        lambda x: SphericalWeight((1.0, x)),
        lambda x: HStarAlgebra((1, 2), (1.0, x)),
        lambda x: TwoHilbertSpace(("a", "b"), (1.0, x)),
    ],
    ids=["spherical_weight", "hstar_algebra", "two_hilbert_space"],
)
def test_positive_inputs_reject_nan_at_construction(make):
    # x <= 0 is false for NaN; the positivity check is clears(x, 0)
    make(0.5)
    for bad in (math.nan, 0.0, -1.0):
        with pytest.raises(InputError):
            make(bad)


def _fibonacci():
    return dual_engine(bundled.load("fibonacci"), SphericalWeight((1.0,)))


def _right_action(samples):
    eng = _fibonacci()
    simples = [eng.simple_obj(c) for c in eng.data.simples]
    return deligne.right_action_isometry(deligne.RegularRight(eng), eng, simples, samples=samples)


def _hilbert_sum(samples):
    X = hilb3.hilbert_sum_completion(hilb3.delooping(_fibonacci()))
    return hilb3.certify_hilbert_sum(X, hilb3.sum_object(X, ["1", "1"]), samples=samples)


def _delta0(samples):
    eng = _fibonacci()
    A = intalg.group_algebra(eng, ("1",))
    M = intalg.free_bimodule(A, "1", intalg.pair_algebra(eng, eng.obj({"t": 1})))
    return intalg.delta0_norm_identity(intalg.free_bimodule(A, "t", A), M, M, samples=samples)


# every function of the package with a samples parameter, by module and
# name, and a call of it with a given count
SAMPLED = {
    "deligne.right_action_isometry": _right_action,
    "deligne.ladder_traciality": lambda samples: deligne.ladder_traciality(_fibonacci(), samples, 0),
    "hilb3.presentation_sphericality": lambda samples: hilb3.presentation_sphericality(
        hilb3.delooping(_fibonacci()), samples=samples
    ),
    "hilb3.certify_hilbert_sum": _hilbert_sum,
    "hstar1.verify_hstar_algebra": lambda samples: hstar1.verify_hstar_algebra(
        (2, 1), (1.0, 1.0), samples=samples
    ),
    "hstar1.module_trace_law_residual": lambda samples: hstar1.module_trace_law_residual(
        hstar1.gns(HStarAlgebra((2,), (1.0,))), samples=samples
    ),
    "intalg.delta0_norm_identity": _delta0,
    "numcore.sample_rng": lambda samples: sample_rng(samples, 0),
}


@pytest.mark.parametrize("samples", [0, -3])
@pytest.mark.parametrize("name", sorted(SAMPLED))
def test_a_sampled_check_without_samples_is_an_input_error(name, samples):
    # with no sample a residual is worst of nothing, 0.0, which passes
    # every bound, so a REJECT would read ACCEPT; one sample runs
    SAMPLED[name](1)
    with pytest.raises(InputError):
        SAMPLED[name](samples)


def test_right_action_without_module_objects_is_an_input_error():
    eng = _fibonacci()
    with pytest.raises(InputError):
        deligne.right_action_isometry(deligne.RegularRight(eng), eng, [], samples=2)


def _sampled_functions(sources: dict):
    """module.name of each function, in the sources by module name, that
    takes a parameter called samples."""
    out = set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, FUNCS):
                params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                if any(a.arg == "samples" for a in params):
                    out.add(f"{module}.{node.name}")
    return out


def test_every_sampled_check_refuses_no_samples():
    found = _sampled_functions({p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))})
    assert found == set(SAMPLED), found ^ set(SAMPLED)


def test_sampled_lint_finds_every_samples_parameter():
    sources = {
        "a": "def f(x, samples=3):\n    pass\n\n\ndef g(n):\n    pass",
        "b": "class C:\n    def m(self, *, samples):\n        pass\n\n\ndef h(samples, /):\n    pass",
    }
    assert _sampled_functions(sources) == {"a.f", "b.m", "b.h"}
    assert not _sampled_functions({"c": "def f(sample, n_samples):\n    samples = 2"})
