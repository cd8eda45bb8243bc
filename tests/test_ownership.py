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
DRAWS = ("numcore.sample_rng", "deligne._coefficients")
OWNERSHIP = (
    Rule(("call",), ("spectral_pieces",), ("intalg.split_summands",), "commutants split in one place"),
    Rule(("call",), ("default_rng", "standard_normal"), DRAWS,
         "only the sampled check draws: deligne's right action"),
    Rule(("call",), ("relative_tensor",), ("hilb3.split_monad",),
         "a split monad's pair; the linking reads its pair trees off the separability projection"),
    Rule(("call", "def"), SOLVERS, (),
         "hom spaces come from the free-forgetful adjunction; the dense solve is the tests' reference"),
    Rule(("call",), ("Mor",), ("diagram",), "the engine builds its own results; the rest go through Engine.mor"),
    Rule(("call",), ("mor",), ("diagram", "hstar1._per_weight", "intalg"),
         "Engine.mor checks block shapes; deligne takes every morphism from an engine operation, "
         "and hstar1 divides blocks by their weight, which no engine operation does"),
    Rule(("call",), ("id",), (), "a cache keyed by id() can hand its entry to a later object that reuses the id"),
    Rule(("call",), ("Engine",), ("fusion",), "an engine is born with its dual functor, in fusion.dual_engine"),
    Rule(("call",), ("Certificate",), ("certify",),
         "every verdict comes from certify.judged, which names the first failed axiom"),
    Rule(("read",), CUPS, ("diagram._cup",), "every cup, cap and loop is built from the comb basis there"),
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
    Rule(("def",), ("_tree_counts",), (), "the dense n⁴ tree-count tables that the vertex join replaced"),
    Rule(("def",), ("split_projection", "_sorted_eigh"), (),
         "the second, phase-fixed projection splitter that the relative tensor's one eigh replaced"),
    Rule(("def",), ("H2Object", "H2Morphism"), (), "one morphism model: diagram.Mor"),
    Rule(("def",), ("random_mor",), (),
         "the trace law, its last caller, runs on matrix units; the tests draw through diagram_reference"),
    Rule(("read",), ("linalg.norm",), (),
         "one Frobenius norm: numcore.frobenius and frobenius_rows reproduce its bits"),
    Rule(("read",), ("linalg.eigh",), ("intalg.endo_power", "intalg.spectral_pieces", "intalg.relative_tensor"),
         "one eigendecomposition per job: bubble powers, commutant cuts, the relative tensor's split"),
    Rule(("read",), ("np.eye",), ("fusion.FusionData.eye", "intalg", "numcore"),
         "the engine's identity blocks are the data's one read-only identity of each size"),
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


# snippet, module, and whether the ownership table flags it, each under
# the id it was given
FLAGS = [
    pytest.param("def split(F):\n    return spectral_pieces(F)", "hilb3", True, id="hilb3-0"),
    pytest.param("def module_category(F):\n    return spectral_pieces(F)", "intalg", True, id="intalg-1"),
    pytest.param("class M:\n    def homs(self):\n        return spectral_pieces(a)", "intalg", True, id="intalg-2"),
    pytest.param("pieces = spectral_pieces(eng, word, comm)", "intalg", True, id="intalg-3"),
    pytest.param("def split_summands(F):\n    return spectral_pieces(F)", "intalg", False, id="intalg-4"),
    pytest.param("class _LinkingBuilder:\n    def f_matrices(self):\n        return relative_tensor(X, Y, tol)",
                 "hilb3", True, id="hilb3-5"),
    pytest.param("class _LinkingBuilder:\n    def trees(self):\n        return relative_tensor(X, Y, tol)",
                 "hilb3", True, id="hilb3-6"),
    pytest.param("def split_monad(B):\n    return relative_tensor(M, Md)", "hilb3", False, id="hilb3-7"),
    pytest.param("basis = intalg._solve(eng, pair, [])", "hilb3", True, id="hilb3-8"),
    pytest.param("def f(eng):\n    return eng.linear_matrix(g, p, q)", "diagram", True, id="diagram-9"),
    pytest.param("class B:\n    def homs(self):\n        return null_space(m)", "intalg", True, id="intalg-10"),
    pytest.param("ns = numcore.null_space(m)", "numcore", True, id="numcore-11"),
    pytest.param("def _solve(eng):\n    return []", "intalg", True, id="intalg-12"),
    pytest.param("def null_space(m):\n    return m", "numcore", True, id="numcore-13"),
    pytest.param("class Engine:\n    def linear_matrix(self, fun, a, b):\n        pass",
                 "diagram", True, id="diagram-14"),
    pytest.param("basis = F.homs(G)\nrows = row_space(m)", "intalg", False, id="intalg-15"),
    pytest.param("def solve_ladder(x):\n    return x", "deligne", False, id="deligne-16"),
    pytest.param("f = Mor(eng, (), (), {})", "hilb3", True, id="hilb3-17"),
    pytest.param("def g(eng):\n    return diagram.Mor(eng, (), (), {})", "intalg", True, id="intalg-18"),
    pytest.param("f = Mor(eng, (), (), {})", "diagram", False, id="diagram-19"),
    pytest.param("f = eng.mor((), (), {})", "intalg", False, id="intalg-20"),
    pytest.param("from .diagram import Engine, Mor\nx: Mor = eng.zero((), ())", "hilb3", False, id="hilb3-21"),
    pytest.param("f = eng.mor(X, Y, blocks)", "deligne", True, id="deligne-22"),
    pytest.param("f = Mor(eng, X, Y, blocks)", "deligne", True, id="deligne-23"),
    pytest.param("f = eng.derived(key, build)\ng = eng.compose(f, f)", "deligne", False, id="deligne-24"),
    pytest.param("key = (id(dst.m), id(dst.n))", "deligne", True, id="deligne-25"),
    pytest.param("def f(self, x):\n    return self._cache.get(id(x))", "diagram", True, id="diagram-26"),
    pytest.param("k = builtins.id(x)", "hilb3", True, id="hilb3-27"),
    pytest.param("key = (dst.m, dst.n)\nvid = row.vid", "deligne", False, id="deligne-28"),
    pytest.param("eng = Engine(data, udf_from_weight(data, psi))", "hilb3", True, id="hilb3-29"),
    pytest.param("def g(data, udf):\n    return diagram.Engine(data, udf)", "intalg", True, id="intalg-30"),
    pytest.param("eng = dual_engine(data, psi, tol)", "hilb3", False, id="hilb3-31"),
    pytest.param("from .diagram import Engine\ndef f(eng: Engine):\n    return eng.udf",
                 "intalg", False, id="intalg-32"),
    pytest.param("def _cup(data, udf, x, ev):\n    return udf.alpha[x]", "diagram", False, id="diagram-33"),
    pytest.param("def dual_engine(data):\n    udf.beta[c] = 1.0\n    udf.alpha[c] = 2.0",
                 "fusion", False, id="fusion-34"),
    pytest.param("def _cup(data, udf, x, ev):\n    return udf.alpha[x]", "hilb3", True, id="hilb3-35"),
    pytest.param("class Engine:\n    def ev_simple(self, c):\n        return self.udf.alpha[c]",
                 "diagram", True, id="diagram-36"),
    pytest.param("def loop(eng, c):\n    return abs(eng.udf.beta[c]) ** 2", "fusion", True, id="fusion-37"),
    pytest.param("z = udf.alpha.get(c, 1.0)", "intalg", True, id="intalg-38"),
    pytest.param("def dual_engine(udf):\n    return udf.alpha[c]", "fusion", True, id="fusion-39"),
    pytest.param("def f(eng):\n    eng.udf.alpha[c] = 1.0", "diagram", True, id="diagram-40"),
    pytest.param("def f(eng):\n    eng.udf.beta[c] *= 2.0", "cli", True, id="cli-41"),
    pytest.param("def f(udf):\n    udf.alpha = {}", "hilb3", True, id="hilb3-42"),
    pytest.param("def f(udf, base):\n    udf.alpha = base.alpha", "hilb3", True, id="hilb3-43"),
    pytest.param("def dual_engine(udf):\n    m[udf.alpha[c]] = 1", "fusion", True, id="fusion-44"),
    pytest.param("def f(A):\n    return A.alpha + udf.psi", "intalg", False, id="intalg-45"),
    pytest.param("def f(data):\n    return data.N.get((a, b, c), 0)", "diagram", True, id="diagram-46"),
    pytest.param("rows = eng.data.N", "hilb3", True, id="hilb3-47"),
    pytest.param("def pentagon_residual(data):\n    return len(data.N)", "fusion", True, id="fusion-48"),
    pytest.param("class FusionData:\n    def n(self):\n        return self.N.get(k, 0)",
                 "fusion", True, id="fusion-49"),
    pytest.param("class FusionData:\n    def to_json(self):\n        return self.N.get(k, 0)",
                 "fusion", False, id="fusion-50"),
    pytest.param("class FusionData:\n    def to_json(self):\n        return self.N.get(k, 0)",
                 "hilb3", True, id="hilb3-51"),
    pytest.param("def validate(data):\n    for a, b, c in data.N:\n        pass", "fusion", False, id="fusion-52"),
    pytest.param("def f(data):\n    return data.n(a, b, c) + data.table[0, 0, 0]", "diagram", False, id="diagram-53"),
    pytest.param("data = FusionData(S, U, G, D, N=mults, F=F)", "hilb3", False, id="hilb3-54"),
    # the engine's sweep, F blocks and grouped unitaries before they moved
    # onto the data, one fault each
    pytest.param("class Engine:\n    def __init__(self, data):\n        self._basis = {}",
                 "diagram", True, id="diagram-55"),
    pytest.param("class Engine:\n    def _trees(self, word):\n        pass", "diagram", True, id="diagram-56"),
    pytest.param("class Engine:\n    def f(self, x, e):\n        return self.data.fusion_products(x, e)",
                 "diagram", True, id="diagram-57"),
    pytest.param("class Engine:\n    def __init__(self, data):\n        self._group = {}",
                 "diagram", True, id="diagram-58"),
    pytest.param("class Engine:\n    def __init__(self, data):\n        self._fcache = {}",
                 "diagram", True, id="diagram-59"),
    pytest.param("class Engine:\n    def _fsym(self, a, b, c, d):\n        return self.data.f_matrix(a, b, c, d)",
                 "diagram", True, id="diagram-60"),
    pytest.param("class Engine:\n    def __init__(self, data):\n        self._group = data.grouped_unitaries",
                 "diagram", False, id="diagram-61"),
    pytest.param("class Engine:\n    def group_last(self, key):\n        self._group[key] = (grouped, gidx, U)",
                 "diagram", False, id="diagram-62"),
    pytest.param("class Engine:\n    def whisker_right_obj(self, key):\n        self._group[key] = (grouped, gidx, U)",
                 "diagram", True, id="diagram-63"),
    pytest.param("def f(data, k):\n    data.grouped_unitaries.pop(k)", "hilb3", True, id="hilb3-64"),
    pytest.param("class Engine:\n    def f(self):\n        self._bases = {}", "diagram", True, id="diagram-65"),
    pytest.param("def f(eng, k):\n    eng._bases[k] = []", "intalg", True, id="intalg-66"),
    pytest.param("def f(data, k):\n    data.comb_supports.setdefault(k, ())", "hilb3", True, id="hilb3-67"),
    pytest.param("def f(data, k):\n    data.comb_bases[k], x = [], 1", "fusion", True, id="fusion-68"),
    pytest.param("def f(data):\n    return data.fusion_products(a, b)", "hilb3", True, id="hilb3-69"),
    pytest.param("class FusionData:\n    def sweep(self, word):\n        self.comb_bases[(word, c)] = out",
                 "fusion", False, id="fusion-70"),
    pytest.param("class FusionData:\n    def tree_rows(self, word):\n        self.comb_bases[(word, c)] = out",
                 "fusion", True, id="fusion-71"),
    pytest.param("class Engine:\n    def __init__(self, data):\n        self._bases = data.comb_bases",
                 "diagram", False, id="diagram-72"),
    pytest.param("def f(eng, data):\n    eng._bases, x = data.comb_bases, 1", "hilb3", True, id="hilb3-73"),
    pytest.param("def f(self):\n    return self._bases.get(k)", "diagram", False, id="diagram-74"),
    pytest.param("def f(self):\n    self._trees = {}", "hilb3", False, id="hilb3-75"),
    pytest.param("return Certificate(False, residuals, failed_axiom='unitality')", "intalg", True, id="intalg-76"),
    pytest.param("def f(ok):\n    return certify.Certificate(ok, {})", "hilb3", True, id="hilb3-77"),
    pytest.param("def f(r, checks) -> Certificate:\n    return judged(r, checks)", "intalg", False, id="intalg-78"),
    pytest.param("from .certify import Certificate, judged\nc: Certificate = None", "hilb3", False, id="hilb3-79"),
    pytest.param("import jsonschema", "cli", True, id="cli-80"),
    pytest.param("def f():\n    import jsonschema.validators as v", "cli", True, id="cli-81"),
    pytest.param("from jsonschema import validate", "cli", True, id="cli-82"),
    pytest.param("importlib.import_module('jsonschema')", "cli", True, id="cli-83"),
    pytest.param("m = __import__('hypothesis')", "bundled", True, id="bundled-84"),
    pytest.param("import json\nfrom importlib import resources", "cli", False, id="cli-85"),
    pytest.param("from . import cli\nimport jsonschema_like", "cli", False, id="cli-86"),
    # the cup reader's place before it left the engine, so that loop_eval
    # needs none
    pytest.param("class Engine:\n    def _cup(self, x):\n        return self.udf.alpha[x]",
                 "diagram", True, id="diagram-87"),
    pytest.param("def loop(data, udf, c, side):\n    return abs(udf.beta[c]) ** 2", "diagram", True, id="diagram-88"),
    pytest.param("d = worst(float(np.linalg.norm(g - np.eye(m))) for g in grams)", "hilb2", True, id="hilb2-89"),
    pytest.param("def frobenius(m):\n    return numpy.linalg.norm(m)", "numcore", True, id="numcore-90"),
    pytest.param("norm = np.linalg.norm\nd = norm(a - b)", "intalg", True, id="intalg-91"),
    pytest.param("d = worst(float(frobenius(g - space.data.eye(m))) for g in grams)", "hilb2", False, id="hilb2-92"),
    pytest.param("def f(x):\n    return x.norm() + eng.l2_norm(x)", "hilb2", False, id="hilb2-93"),
    # identity blocks before they were the data's shared ones
    pytest.param("class Engine:\n    def identity(self, word):\n        return {c: np.eye(n) for c in word}",
                 "diagram", True, id="diagram-94"),
    pytest.param("def f(n):\n    return np.eye(n, dtype=complex)", "diagram", True, id="diagram-95"),
    pytest.param("class FusionData:\n    def f_matrix(self, n):\n        return np.eye(n)",
                 "fusion", True, id="fusion-96"),
    pytest.param("class Engine:\n    def identity(self, word):\n        return {c: self.data.eye(n) for c in word}",
                 "diagram", False, id="diagram-97"),
    pytest.param("class FusionData:\n    def eye(self, dim):\n        return np.eye(dim, dtype=complex)",
                 "fusion", False, id="fusion-98"),
    pytest.param("d = frobenius(gram - np.eye(m))", "hilb2", True, id="hilb2-99"),
    # the 2-Hilbert spaces' own objects and morphisms, before both became
    # the engine's, and the one block division hstar1 makes through the door
    pytest.param("class H2Morphism:\n    def compose(self, other):\n        pass", "hilb2", True, id="hilb2-100"),
    pytest.param("class H2Object:\n    pass", "hstar1", True, id="hstar1-101"),
    pytest.param("d = frobenius(gram - space.data.eye(m))", "hilb2", False, id="hilb2-102"),
    pytest.param("def _per_weight(eng, f):\n    return eng.mor(f.dom, f.cod, {})", "hstar1", False, id="hstar1-103"),
    pytest.param("def rank_one(eng, xi, eta):\n    return eng.mor(xi.dom, eta.dom, {})",
                 "hstar1", True, id="hstar1-104"),
    # a split that draws, as split_summands and spectral_pieces once did
    pytest.param("def split_summands(F, seed):\n    rng = np.random.default_rng(seed)",
                 "intalg", True, id="intalg-105"),
    pytest.param("def spectral_pieces(eng, word, comm, rng):\n    z = rng.standard_normal()",
                 "intalg", True, id="intalg-106"),
    pytest.param("def random_mor(self, dom, cod, rng):\n    return rng.standard_normal(n)",
                 "diagram", True, id="diagram-107"),
    pytest.param("def sample_rng(samples, seed):\n    return np.random.default_rng(seed)",
                 "numcore", False, id="numcore-108"),
    pytest.param("class Engine:\n    def random_mor(self, dom, cod, rng):\n        return rng.standard_normal(n)",
                 "diagram", True, id="diagram-109"),
    # the projection splitter that numcore kept beside the relative tensor
    pytest.param("def projection_rank(p, parts, tol):\n    vals, vecs = np.linalg.eigh(p)",
                 "numcore", True, id="numcore-110"),
    pytest.param("def _sorted_eigh(m):\n    pass", "numcore", True, id="numcore-111"),
    pytest.param("def split_projection(p, tol):\n    return p", "numcore", True, id="numcore-112"),
    pytest.param("def split_projection(p, tol):\n    return p", "intalg", True, id="intalg-113"),
    pytest.param("vals, vecs = np.linalg.eigh(h)", "intalg", True, id="intalg-114"),
    pytest.param("def relative_tensor(M, N):\n    vals, vecs = np.linalg.eigh(h)", "intalg", False, id="intalg-115"),
    pytest.param("def endo_power(eng, f, r):\n    vals, vecs = np.linalg.eigh(h)", "intalg", False, id="intalg-116"),
    pytest.param("def verify_hstar(A):\n    vals = np.linalg.eigvalsh(h)", "intalg", False, id="intalg-117"),
    pytest.param("def f(h):\n    return numpy.linalg.eigh(h)", "hilb3", True, id="hilb3-118"),
    # the trace law's draws, before it ran on one matrix unit per block
    pytest.param("def module_trace_law(mod, tol):\n    rng = np.random.default_rng(0)",
                 "hstar1", True, id="hstar1-119"),
]


@pytest.mark.parametrize("source, module, flagged", FLAGS)
def test_ownership_lint_flags(source, module, flagged):
    assert bool(_faults(source, module)) == flagged


def test_ownership_lint_cases_keep_unique_ids():
    # each case keeps the id it was given, its module and a number, so a
    # case inserted anywhere renames no other; a new case takes the next
    # free number
    ids = [case.id for case in FLAGS]
    assert len(set(ids)) == len(ids), sorted(i for i in ids if ids.count(i) > 1)
    assert all(case.id.startswith(f"{case.values[1]}-") for case in FLAGS)


def test_readme_lists_the_ownership_table():
    section = (ROOT / "README.md").read_text().split("\n## Who owns what\n")[1].split("\n## ")[0]
    rows = [line for line in section.splitlines() if line.startswith("| ")][2:]
    cell = lambda xs: ", ".join(f"`{x}`" for x in xs) or "nowhere"
    assert rows == [f"| {', '.join(r.kinds)} | {cell(r.names)} | {cell(r.scopes)} | {r.why} |" for r in OWNERSHIP]
