"""Lints of the package's design that are not ownership rules, which are
one table in test_ownership.py: every bound test goes through
certify.within or clears and every residual is folded by numcore.worst;
no bare number scales a bound; deligne keys derived values by interned
numbers; no check takes a tol beside an engine; every check names its
axiom; one exception class per kind of failure; every definition is
reached; and every sampled check refuses fewer than one sample."""

import ast
import builtins
import math
import re
from collections import Counter

import pytest

from hstarcat import bundled, deligne, hstar1, intalg
from hstarcat.certify import bounded, clears, judged, within
from hstarcat.fusion import SphericalWeight, dual_engine
from hstarcat.hilb2 import TwoHilbertSpace
from hstarcat.hstar1 import HStarAlgebra
from hstarcat.numcore import InputError, sample_rng
from test_ownership import ROOT, SRC, _name

# calls whose value is a residual: a gap norm, or a named residual routine
RESIDUAL_CALLS = {"residual", "unitarity_defect", "_unitarity_residual", "verify_bimodule"}


def _calls(node):
    return (n for n in ast.walk(node) if isinstance(n, ast.Call))


def _is_residual(node) -> bool:
    """The expression holds a residual: |a - b|, ||a - b|| (np.linalg.norm
    or numcore.frobenius) or a call of a residual routine."""
    for call in _calls(node):
        name = _name(call.func)
        if name in RESIDUAL_CALLS:
            return True
        if name in ("abs", "norm", "frobenius") and call.args and isinstance(call.args[0], ast.BinOp):
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
    assert _lint("d = max(frobenius(a - b), frobenius(c - d))")
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


def _derived_key_faults(source: str):
    """(line, message) for each Engine.derived call whose key is not a
    tuple written out at the call or reads a word (.m or .n) of a ladder
    object: kept keys name ladder objects by their interned numbers, so a
    ladder call hashes no word tuple."""
    out = []
    for call in _calls(ast.parse(source)):
        if _name(call.func) == "derived":
            keys = call.args[:1] + [k.value for k in call.keywords if k.arg == "key"]
            if not (keys and isinstance(keys[0], ast.Tuple)):
                out.append((call.lineno, "derived key not written out"))
            elif any(isinstance(n, ast.Attribute) and n.attr in ("m", "n") for n in ast.walk(keys[0])):
                out.append((call.lineno, "derived key reads a word"))
    return out


def test_ladder_values_are_kept_under_interned_keys():
    found = _derived_key_faults((SRC / "deligne.py").read_text())
    assert not found, found


def test_kept_key_lint_catches_a_word_key():
    assert _derived_key_faults("def f(L):\n    return L.eng.derived(('x', L.m), build)")
    assert _derived_key_faults("def _channels(s, d):\n    def build():\n        return eng.derived(k, b)")
    assert _derived_key_faults("w = eng.derived(('channels', src.m, dst.n), build)")
    assert _derived_key_faults("w = eng.derived(('images', *(x for L in Ls for x in (L.m, L.n))), build)")
    assert _derived_key_faults("w = eng.derived(key=('trace_vector', L.m), build=build)")
    assert _derived_key_faults("key = ('x', L.key)\nw = eng.derived(key, build)")
    assert _derived_key_faults("def _kept(eng, key, build):\n    return eng.derived(key, build)")
    assert not _derived_key_faults("def f(L):\n    return L.eng.derived(('x', L.key), build)")
    assert not _derived_key_faults("w = eng.derived(('compose_tensor', L1.key, L2.key, L3.key), build)")
    assert not _derived_key_faults("f = eng.derived(('action_forms', type(mside), *ms), build)")


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
    *(ROOT / "tests" / f"test_{name}.py" for name in ("acceptance", "golden", "cli")),
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


def _delta0(**kw):
    eng = _fibonacci()
    A = intalg.group_algebra(eng, ("1",))
    M = intalg.free_bimodule(A, "1", intalg.pair_algebra(eng, eng.obj({"t": 1})))
    return intalg.delta0_norm_identity(intalg.free_bimodule(A, "t", A), M, M, **kw)


# every function of the package with a samples parameter, by module and
# name, and a call of it with a given count
SAMPLED = {
    "deligne.right_action_isometry": _right_action,
    "hstar1.module_trace_law_residual": lambda samples: hstar1.module_trace_law_residual(
        hstar1.gns(HStarAlgebra((2,), (1.0,))), samples=samples
    ),
    "numcore.sample_rng": lambda samples: sample_rng(samples, 0),
}

# checks on a basis, which draw nothing, and a call of each with extra
# keyword arguments
EXHAUSTIVE = {
    "deligne.ladder_traciality": lambda **kw: deligne.ladder_traciality(_fibonacci(), **kw),
    "hstar1.verify_hstar_algebra": lambda **kw: hstar1.verify_hstar_algebra((2, 1), (1.0, 1.0), **kw),
    "intalg.delta0_norm_identity": _delta0,
}


@pytest.mark.parametrize("samples", [0, -3])
@pytest.mark.parametrize("name", sorted(SAMPLED))
def test_a_sampled_check_without_samples_is_an_input_error(name, samples):
    # with no sample a residual is worst of nothing, 0.0, which passes
    # every bound, so a REJECT would read ACCEPT; one sample runs
    SAMPLED[name](1)
    with pytest.raises(InputError):
        SAMPLED[name](samples)


@pytest.mark.parametrize("kw", ["samples", "seed"])
@pytest.mark.parametrize("name", sorted(EXHAUSTIVE))
def test_a_basis_check_takes_no_samples_or_seed(name, kw):
    EXHAUSTIVE[name]()
    with pytest.raises(TypeError):
        EXHAUSTIVE[name](**{kw: 1})


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
