"""Who owns what: one table of ownership rules for the package's source.

Each row of OWNERSHIP names a kind of use (call, def, import, read or
write), the names it covers, the only scopes that may make that use, and
why. One walker reads the table, one parametrized test runs it over the
package, and the README's "Who owns what" section lists the same rows.
"""

import ast
import functools
import itertools
import pathlib
from typing import NamedTuple

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hstarcat"


class Rule(NamedTuple):
    """The kinds of use of the names that only the scopes may make, and
    why. A scope is a whole module ("fusion") or exactly one chain of defs
    ("fusion.FusionData.sweep"); no scope is nowhere.

    The kinds: call, by name or as an attribute; def, of a function or a
    class; import, of a top-level package, also by import_module or
    __import__ of a literal; write, a store or delete of an attribute, also
    through a subscript of it or by a mutating method on it; and read, any
    other mention of an attribute. A name "owner.attr" covers only the
    attributes of an owner so named. A plain binding of one of a rule's
    names to an attribute that the rule also covers, as an engine holds
    the data's table, is no write."""

    kinds: tuple
    names: tuple
    scopes: tuple
    why: str


SOLVERS = ("_solve", "linear_matrix", "null_space")
CUPS = ("udf.alpha", "udf.beta")
N_READERS = (
    "fusion.FusionData.__post_init__", "fusion.FusionData._compile", "fusion.FusionData.to_json", "fusion.validate"
)
OWNERSHIP = (
    Rule(("call",), ("spectral_pieces",), ("intalg.split_summands",), "commutants split in one place"),
    Rule(("call",), ("relative_tensor",), ("hilb3._LinkingBuilder.trees", "hilb3.split_monad"),
         "the linking's pair tensors and a split monad's pair: none with a unit factor, none of a tensor"),
    Rule(("call", "def"), SOLVERS, (),
         "hom spaces come from the free-forgetful adjunction; the dense solve is the tests' reference"),
    Rule(("call",), ("Mor",), ("diagram",), "the engine builds its own results; the rest go through Engine.mor"),
    Rule(("call",), ("mor",), ("diagram", "intalg"),
         "Engine.mor checks block shapes; deligne takes every morphism from an engine operation"),
    Rule(("call",), ("id",), (), "a cache keyed by id() can hand its entry to a later object that reuses the id"),
    Rule(("call",), ("Engine",), ("fusion",), "an engine is born with its dual functor, in fusion.dual_engine"),
    Rule(("call",), ("Certificate",), ("certify",),
         "every verdict comes from certify.judged, which names the first failed axiom"),
    Rule(("read",), CUPS, ("diagram.Engine._cup",), "every cup, cap and loop is built from the comb basis there"),
    Rule(("write",), CUPS, ("fusion.dual_engine",), "the cup coefficients are installed once, with the engine"),
    Rule(("read", "write"), ("N",), N_READERS,
         "the stored multiplicities are compiled, written out and grading-checked; the rest read the compiled rules"),
    Rule(("write",), ("comb_bases", "comb_indices", "comb_supports", "_bases", "_indices", "_supports"),
         ("fusion.FusionData.sweep", "fusion.FusionData._compile"),
         "comb tree bases are swept once per data and shared by every engine on it"),
    Rule(("write",), ("grouped_unitaries", "_group"), ("diagram.Engine.group_last", "fusion.FusionData._compile"),
         "grouped-basis unitaries are built once per data and shared by every engine on it"),
    Rule(("read", "write"), ("fusion_products",), ("fusion",), "the tree sweep's input: no other module sweeps trees"),
    Rule(("read", "write"), ("_basis", "_index", "_support", "_fcache"), (),
         "the per-engine tables that the data's tables replaced"),
    Rule(("def",), ("_trees", "_fsym"), (), "the per-engine tree sweep and F blocks that the data replaced"),
    Rule(("import",), ("jsonschema", "hypothesis", "pytest"), (),
         "test dependencies: cli checks input documents with its own schema checker"),
)
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
MUTATORS = {"setdefault", "update", "pop", "popitem", "clear", "__setitem__", "__delitem__", "append", "extend", "add"}


def _name(func):
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _written(tree) -> dict:
    """Each attribute node that the tree writes, with the attribute node
    that a plain binding gives it, else None."""
    todo, out = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            todo += [(t, node.value) for t in node.targets]
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            todo.append((node.target, None))
        elif isinstance(node, ast.Delete):
            todo += [(t, None) for t in node.targets]
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in MUTATORS:
            todo.append((node.func.value, None))
    while todo:
        target, value = todo.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            todo += [(t, None) for t in target.elts]
        elif isinstance(target, (ast.Subscript, ast.Starred)):
            todo.append((target.value, None))
        elif isinstance(target, ast.Attribute):
            out[target] = value if isinstance(value, ast.Attribute) else None
    return out


def _uses(node, written):
    """(kind, name, owner) for each use that the node itself makes; the
    owner of an attribute names what it is taken off."""
    if isinstance(node, DEFS):
        return [("def", node.name, None)]
    if isinstance(node, ast.Attribute):
        return [("write" if node in written else "read", node.attr, _name(node.value))]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module or ""]
        return [("import", n.split(".")[0], None) for n in names]
    if not isinstance(node, ast.Call):
        return []
    loaded = node.args[:1] if _name(node.func) in ("import_module", "__import__") else []
    literals = [str(a.value) for a in loaded if isinstance(a, ast.Constant)]
    return [("call", _name(node.func), None), *(("import", n.split(".")[0], None) for n in literals)]


def _allowed(scope: str, rule: Rule) -> bool:
    return any(scope == s or ("." not in s and scope.startswith(s + ".")) for s in rule.scopes)


def _covered(rule: Rule, name, owner) -> list:
    """The rule's names, each split as (owner, dot, attr), that cover
    name taken off owner."""
    parts = [full.rpartition(".") for full in rule.names]
    return [(want, dot, attr) for want, dot, attr in parts if attr == name and want in ("", owner)]


def _faults(source: str, module: str):
    """(line, rule, message) for each use in the source, read as module,
    that a rule covers outside its scopes; the scope of a use is the chain
    of defs around it."""
    tree = ast.parse(source)
    written = _written(tree)
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            for (kind, name, owner), rule in itertools.product(_uses(child, written), OWNERSHIP):
                value = written.get(child) if kind == "write" else None
                alias = value is not None and _covered(rule, value.attr, _name(value.value))
                if kind not in rule.kinds or alias or _allowed(scope, rule):
                    continue
                for want, dot, attr in _covered(rule, name, owner):
                    out.append((child.lineno, rule, f"{kind} {want}{dot}{attr} in {scope}"))
            visit(child, f"{scope}.{child.name}" if isinstance(child, DEFS) else scope)

    visit(tree, module)
    return out


@functools.cache
def _source_faults():
    return [(p.name, *f) for p in sorted(SRC.rglob("*.py")) for f in _faults(p.read_text(), p.stem)]


@pytest.mark.parametrize("rule", OWNERSHIP, ids=lambda r: f"{r.kinds[0]}-{r.names[0]}")
def test_source_keeps_ownership(rule):
    found = [f"{file}:{line}: {what}" for file, line, r, what in _source_faults() if r is rule]
    assert not found, "\n".join(found)


# snippet, module, and whether the ownership table flags it
FLAGS = [
    ("def split(F):\n    return spectral_pieces(F)", "hilb3", True),
    ("def module_category(F):\n    return spectral_pieces(F)", "intalg", True),
    ("class M:\n    def homs(self):\n        return spectral_pieces(a)", "intalg", True),
    ("pieces = spectral_pieces(eng, word, comm, rng)", "intalg", True),
    ("def split_summands(F):\n    return spectral_pieces(F)", "intalg", False),
    ("class _LinkingBuilder:\n    def f_matrices(self):\n        return relative_tensor(X, Y, tol)", "hilb3", True),
    ("class _LinkingBuilder:\n    def trees(self):\n        return relative_tensor(X, Y, tol)", "hilb3", False),
    ("def split_monad(B):\n    return relative_tensor(M, Md)", "hilb3", False),
    ("basis = intalg._solve(eng, pair, [])", "hilb3", True),
    ("def f(eng):\n    return eng.linear_matrix(g, p, q)", "diagram", True),
    ("class B:\n    def homs(self):\n        return null_space(m)", "intalg", True),
    ("ns = numcore.null_space(m)", "numcore", True),
    ("def _solve(eng):\n    return []", "intalg", True),
    ("def null_space(m):\n    return m", "numcore", True),
    ("class Engine:\n    def linear_matrix(self, fun, a, b):\n        pass", "diagram", True),
    ("basis = F.homs(G)\nrows = row_space(m)", "intalg", False),
    ("def solve_ladder(x):\n    return x", "deligne", False),
    ("f = Mor(eng, (), (), {})", "hilb3", True),
    ("def g(eng):\n    return diagram.Mor(eng, (), (), {})", "intalg", True),
    ("f = Mor(eng, (), (), {})", "diagram", False),
    ("f = eng.mor((), (), {})", "intalg", False),
    ("from .diagram import Engine, Mor\nx: Mor = eng.zero((), ())", "hilb3", False),
    ("f = eng.mor(X, Y, blocks)", "deligne", True),
    ("f = Mor(eng, X, Y, blocks)", "deligne", True),
    ("f = eng.derived(key, build)\ng = eng.compose(f, f)", "deligne", False),
    ("key = (id(dst.m), id(dst.n))", "deligne", True),
    ("def f(self, x):\n    return self._cache.get(id(x))", "diagram", True),
    ("k = builtins.id(x)", "hilb3", True),
    ("key = (dst.m, dst.n)\nvid = row.vid", "deligne", False),
    ("eng = Engine(data, udf_from_weight(data, psi))", "hilb3", True),
    ("def g(data, udf):\n    return diagram.Engine(data, udf)", "intalg", True),
    ("eng = dual_engine(data, psi, tol)", "hilb3", False),
    ("from .diagram import Engine\ndef f(eng: Engine):\n    return eng.udf", "intalg", False),
    ("class Engine:\n    def _cup(self, x):\n        return self.udf.alpha[x]", "diagram", False),
    ("def dual_engine(data):\n    udf.beta[c] = 1.0\n    udf.alpha[c] = 2.0", "fusion", False),
    ("class Engine:\n    def _cup(self, x):\n        return self.udf.alpha[x]", "hilb3", True),
    ("class Engine:\n    def ev_simple(self, c):\n        return self.udf.alpha[c]", "diagram", True),
    ("def loop(eng, c):\n    return abs(eng.udf.beta[c]) ** 2", "fusion", True),
    ("z = udf.alpha.get(c, 1.0)", "intalg", True),
    ("def dual_engine(udf):\n    return udf.alpha[c]", "fusion", True),
    ("def f(eng):\n    eng.udf.alpha[c] = 1.0", "diagram", True),
    ("def f(eng):\n    eng.udf.beta[c] *= 2.0", "cli", True),
    ("def f(udf):\n    udf.alpha = {}", "hilb3", True),
    ("def f(udf, base):\n    udf.alpha = base.alpha", "hilb3", True),
    ("def dual_engine(udf):\n    m[udf.alpha[c]] = 1", "fusion", True),
    ("def f(A):\n    return A.alpha + udf.psi", "intalg", False),
    ("def f(data):\n    return data.N.get((a, b, c), 0)", "diagram", True),
    ("rows = eng.data.N", "hilb3", True),
    ("def pentagon_residual(data):\n    return len(data.N)", "fusion", True),
    ("class FusionData:\n    def n(self):\n        return self.N.get(k, 0)", "fusion", True),
    ("class FusionData:\n    def to_json(self):\n        return self.N.get(k, 0)", "fusion", False),
    ("class FusionData:\n    def to_json(self):\n        return self.N.get(k, 0)", "hilb3", True),
    ("def validate(data):\n    for a, b, c in data.N:\n        pass", "fusion", False),
    ("def f(data):\n    return data.n(a, b, c) + data.table[0, 0, 0]", "diagram", False),
    ("data = FusionData(S, U, G, D, N=mults, F=F)", "hilb3", False),
    # the engine's sweep, F blocks and grouped unitaries before they moved
    # onto the data, one fault each
    ("class Engine:\n    def __init__(self, data):\n        self._basis = {}", "diagram", True),
    ("class Engine:\n    def _trees(self, word):\n        pass", "diagram", True),
    ("class Engine:\n    def f(self, x, e):\n        return self.data.fusion_products(x, e)", "diagram", True),
    ("class Engine:\n    def __init__(self, data):\n        self._group = {}", "diagram", True),
    ("class Engine:\n    def __init__(self, data):\n        self._fcache = {}", "diagram", True),
    ("class Engine:\n    def _fsym(self, a, b, c, d):\n        return self.data.f_matrix(a, b, c, d)", "diagram", True),
    ("class Engine:\n    def __init__(self, data):\n        self._group = data.grouped_unitaries", "diagram", False),
    ("class Engine:\n    def group_last(self, key):\n        self._group[key] = (grouped, gidx, U)", "diagram", False),
    ("class Engine:\n    def whisker_right_obj(self, key):\n        self._group[key] = (grouped, gidx, U)", "diagram", True),
    ("def f(data, k):\n    data.grouped_unitaries.pop(k)", "hilb3", True),
    ("class Engine:\n    def f(self):\n        self._bases = {}", "diagram", True),
    ("def f(eng, k):\n    eng._bases[k] = []", "intalg", True),
    ("def f(data, k):\n    data.comb_supports.setdefault(k, ())", "hilb3", True),
    ("def f(data, k):\n    data.comb_bases[k], x = [], 1", "fusion", True),
    ("def f(data):\n    return data.fusion_products(a, b)", "hilb3", True),
    ("class FusionData:\n    def sweep(self, word):\n        self.comb_bases[(word, c)] = out", "fusion", False),
    ("class FusionData:\n    def tree_rows(self, word):\n        self.comb_bases[(word, c)] = out", "fusion", True),
    ("class Engine:\n    def __init__(self, data):\n        self._bases = data.comb_bases", "diagram", False),
    ("def f(eng, data):\n    eng._bases, x = data.comb_bases, 1", "hilb3", True),
    ("def f(self):\n    return self._bases.get(k)", "diagram", False),
    ("def f(self):\n    self._trees = {}", "hilb3", False),
    ("return Certificate(False, residuals, failed_axiom='unitality')", "intalg", True),
    ("def f(ok):\n    return certify.Certificate(ok, {})", "hilb3", True),
    ("def f(r, checks) -> Certificate:\n    return judged(r, checks)", "intalg", False),
    ("from .certify import Certificate, judged\nc: Certificate = None", "hilb3", False),
    ("import jsonschema", "cli", True),
    ("def f():\n    import jsonschema.validators as v", "cli", True),
    ("from jsonschema import validate", "cli", True),
    ("importlib.import_module('jsonschema')", "cli", True),
    ("m = __import__('hypothesis')", "bundled", True),
    ("import json\nfrom importlib import resources", "cli", False),
    ("from . import cli\nimport jsonschema_like", "cli", False),
]


@pytest.mark.parametrize("source, module, flagged", FLAGS, ids=[f"{m}-{i}" for i, (_, m, _) in enumerate(FLAGS)])
def test_ownership_lint_flags(source, module, flagged):
    assert bool(_faults(source, module)) == flagged


def test_readme_lists_the_ownership_table():
    section = (ROOT / "README.md").read_text().split("\n## Who owns what\n")[1].split("\n## ")[0]
    rows = [line for line in section.splitlines() if line.startswith("| ")][2:]
    cell = lambda xs: ", ".join(f"`{x}`" for x in xs) or "nowhere"
    assert rows == [f"| {', '.join(r.kinds)} | {cell(r.names)} | {cell(r.scopes)} | {r.why} |" for r in OWNERSHIP]
