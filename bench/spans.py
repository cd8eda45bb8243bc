"""In-memory span tracer for the benchmark's traced runs.

`Tracer.install()` wraps, from outside, the public functions and methods
of every hstarcat layer (the package modules) in spans, and the hot
accessors in plain counters. Each span records its name, start, end,
parent span and verdict id; spans stay in memory until `write`. Self time
is a span's duration minus the durations of its child spans (calls are
nested, so children never overlap). Nothing inside the package changes:
`uninstall()` puts every original back.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict

# the hstarcat modules whose public functions and methods get spans
LAYERS = (
    "numcore", "hstar1", "hilb2", "fusion", "diagram",
    "intalg", "deligne", "hilb3", "bundled", "cli",
)
# hot accessors: counted, never spanned (their time is their caller's)
HOT = {
    "fusion.FusionData.n", "fusion.FusionData.f_matrix",
    "fusion.FusionData.tree_rows", "fusion.FusionData.tree_cols",
    "diagram.Engine.basis", "diagram.Engine.mor",
    # small lookups called from the loops above, far too often for spans
    "fusion.FusionData.s", "fusion.FusionData.t",
    "fusion.FusionData.fusion_products", "fusion.UdfData.d",
    "diagram.Engine.mult", "diagram.Engine.support", "diagram.Engine.basis_index",
    "diagram.Engine.obj", "diagram.Engine.simple_obj", "diagram.Engine.block",
    "numcore.as_cmatrix",
}
# private functions that are layer boundaries all the same
PRIVATE_SPANS = {"intalg._solve"}
HARNESS = "bench.verdict"

# (metric, unit, better) for every per-layer metric a traced run reports
LAYER_METRICS = [
    ("fusion.self_s", "s", "lower"),
    ("fusion.validate.calls", "count", "lower"),
    ("fusion.validate.self_s", "s", "lower"),
    ("fusion.pentagon_residual.self_s", "s", "lower"),
    ("fusion.n.calls", "count", "lower"),
    ("fusion.f_matrix.calls", "count", "lower"),
    ("fusion.tree_basis.calls", "count", "lower"),
    ("fusion.fpdim.self_s", "s", "lower"),
    ("fusion.validate.repeat_ratio", "ratio", "lower"),
    ("fusion.validate.size_exponent", "slope", "lower"),
    ("diagram.self_s", "s", "lower"),
    ("diagram.compose.calls", "count", "lower"),
    ("diagram.whisker.calls", "count", "lower"),
    ("diagram.mor.calls", "count", "lower"),
    ("diagram.basis.reuse_ratio", "ratio", "higher"),
    ("diagram.group_last.calls", "count", "lower"),
    ("diagram.group_last.reuse_ratio", "ratio", "higher"),
    ("diagram.linear_matrix.calls", "count", "lower"),
    ("diagram.linear_matrix.columns", "count", "lower"),
    ("intalg.self_s", "s", "lower"),
    ("intalg.verify_hstar.self_s", "s", "lower"),
    ("intalg.module_category.self_s", "s", "lower"),
    ("intalg.relative_tensor.calls", "count", "lower"),
    ("intalg.relative_tensor.self_s", "s", "lower"),
    ("intalg.module_hom_basis.calls", "count", "lower"),
    ("intalg.solve.useful_ratio", "ratio", "higher"),
    ("hilb3.self_s", "s", "lower"),
    ("hilb3.algebra_linking.self_s", "s", "lower"),
    ("hilb3.bimodule_homs.calls", "count", "lower"),
    ("hilb3.bimodule_homs.self_s", "s", "lower"),
    ("hilb3.split_bimodule.calls", "count", "lower"),
    ("hilb3.split_bimodule.retries", "count", "lower"),
    ("hilb3.split_monad.self_s", "s", "lower"),
    ("hilb3.presentation_sphericality.self_s", "s", "lower"),
    ("hilb3.theorem_b_check.self_s", "s", "lower"),
    ("deligne.self_s", "s", "lower"),
    ("deligne.ladder_compose.calls", "count", "lower"),
    ("deligne.ladder_trace.calls", "count", "lower"),
    ("deligne.random_ladder.self_s", "s", "lower"),
    ("deligne.act_on_module.self_s", "s", "lower"),
    ("numcore.self_s", "s", "lower"),
    ("numcore.unitarity_defect.calls", "count", "lower"),
    ("numcore.hermitian_sqrt.calls", "count", "lower"),
    ("hstar1.self_s", "s", "lower"),
    ("hilb2.self_s", "s", "lower"),
    ("bundled.load.calls", "count", "lower"),
    ("bundled.load.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.process_s", "s", "lower"),
    ("cli.interpreter_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.import.scipy_s", "s", "lower"),
    ("cli.import.numpy_s", "s", "lower"),
    ("cli.import.jsonschema_s", "s", "lower"),
    ("bench.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.accounted_ratio", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index, verdict id)
        self._counts = {}  # hot accessor name -> [calls]
        self.keys = defaultdict(set)  # name -> distinct call keys
        self.stats = Counter()  # counts derived from arguments and results
        self.validate_sizes = []  # (rank, seconds) per validate call
        self.verdict = None
        self._stack = []
        self._patches = []
        self._pins = {}  # keeps keyed objects alive so ids stay unique
        self._validated = {}
        self._paused = False  # set while an observer calls back into the package

    # -- verdict bookkeeping ---------------------------------------------

    def begin_verdict(self, vid):
        self.verdict = vid
        self._validated = {}

    def span(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named name."""
        return self._spanned(name, fn)(*args, **kwargs)

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.verdict)
            if observe is not None:
                observe(self, args, kwargs, result, t1 - t0)
            return result

        return wrapper

    def _counted(self, name, fn):
        box = self._counts.setdefault(name, [0])
        keyed = name == "diagram.Engine.basis"
        keys, pins = self.keys[name], self._pins

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            box[0] += 1
            if keyed:
                pins[id(args[0])] = args[0]
                keys.add((id(args[0]),) + args[1:])
            return fn(*args, **kwargs)

        return wrapper

    def install(self, modules, quiet=()):
        """Wrap every public function and method of the given hstarcat
        modules, then rebind each `from .x import y` alias in every loaded
        hstarcat or benchmark module. Calls into the public functions of the
        `quiet` modules (the benchmark's own input generators) record
        nothing, so their time is the caller's."""
        originals = {}
        for mod in quiet:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val.__module__ == mod.__name__:
                    if not attr.startswith("_"):
                        originals[id(val)] = self._quiet(val)
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, val in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if inspect.isfunction(val) and val.__module__ == mod.__name__:
                    if not attr.startswith("_") or name in PRIVATE_SPANS:
                        originals[id(val)] = self._wrap(name, val)
                elif (inspect.isclass(val) and val.__module__ == mod.__name__
                      and not attr.startswith("_")):
                    self._wrap_class(f"{layer}.{attr}", val)
        for mod in list(sys.modules.values()):
            if not _rebindable(mod):
                continue
            for attr, val in list(vars(mod).items()):
                wrapper = originals.get(id(val))
                if wrapper is not None:
                    self._patch(mod, attr, val, wrapper)

    def _quiet(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            self._paused = True
            try:
                return fn(*args, **kwargs)
            finally:
                self._paused = False

        return wrapper

    def _wrap(self, name, fn):
        return self._counted(name, fn) if name in HOT else self._spanned(name, fn)

    def _wrap_class(self, prefix, cls):
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if inspect.isfunction(val):
                self._patch(cls, attr, val, self._wrap(name, val))
            elif isinstance(val, classmethod):
                self._patch(cls, attr, val, classmethod(self._wrap(name, val.__func__)))

    def _patch(self, owner, attr, original, replacement):
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results -----------------------------------------------------------

    def self_times(self):
        """Self seconds per span name."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = Counter()
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            out[name] += (t1 - t0) - child[i]
        return out

    def metrics(self, wall_s, overhead_s, cli_numbers):
        """Every per-layer metric in LAYER_METRICS, by name."""
        own = self.self_times()
        ncalls = Counter(s[0] for s in self.spans)
        ncalls.update({name: box[0] for name, box in self._counts.items()})
        # metric names drop the class: fusion.FusionData.fpdim -> fusion.fpdim
        calls, self_s, layer_self = Counter(), Counter(), Counter()
        for name, n in ncalls.items():
            calls[_short(name)] += n
        for name, sec in own.items():
            self_s[_short(name)] += sec
            layer_self[name.split(".", 1)[0]] += sec

        def ratio(num, den):
            return num / den if den else 0.0

        def reuse(name):
            n = ncalls[name]
            return 1.0 - ratio(len(self.keys[name]), n) if n else 0.0

        out = {
            "fusion.validate.repeat_ratio": ratio(
                self.stats["validate_repeats"], calls["fusion.validate"]
            ),
            "fusion.validate.size_exponent": _slope(self.validate_sizes),
            "fusion.tree_basis.calls": calls["fusion.tree_rows"] + calls["fusion.tree_cols"],
            "diagram.whisker.calls": (
                calls["diagram.whisker_right_obj"] + calls["diagram.whisker_left_obj"]
            ),
            "diagram.basis.reuse_ratio": reuse("diagram.Engine.basis"),
            "diagram.group_last.reuse_ratio": reuse("diagram.Engine.group_last"),
            "diagram.linear_matrix.columns": self.stats["linear_matrix_columns"],
            "intalg.solve.useful_ratio": ratio(
                self.stats["solve_basis"], self.stats["solve_unknowns"]
            ),
            "hilb3.split_bimodule.retries": self.stats["split_retries"],
            "trace.wall_s": wall_s,
            "trace.accounted_ratio": ratio(sum(own.values()), wall_s),
            "trace.overhead_s": overhead_s,
            "trace.spans": len(self.spans),
        }
        out.update(cli_numbers)
        for metric, _, _ in LAYER_METRICS:
            if metric in out:
                continue
            base, kind = metric.rsplit(".", 1)
            if kind == "self_s" and "." not in base:
                out[metric] = layer_self[base]
            elif kind == "self_s":
                out[metric] = self_s[base]
            elif kind == "calls":
                out[metric] = calls[base]
            else:
                raise KeyError(f"no rule for per-layer metric {metric}")
        return {m: out[m] for m, _, _ in LAYER_METRICS}

    def write(self, path):
        """All spans, one JSON array per line: name, start, end, parent, verdict."""
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def _short(name):
    parts = name.split(".")
    return f"{parts[0]}.{parts[-1]}"


def _rebindable(mod):
    name = getattr(mod, "__name__", "") or ""
    return name == "hstarcat" or name.startswith("hstarcat.") or name in ("workloads", "families")


def _slope(points):
    """Least-squares slope of log(seconds) against log(rank); 0 when the
    points span fewer than two ranks."""
    pts = [(math.log(r), math.log(t)) for r, t in points if r > 0 and t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


# -- observers: counts computed from call arguments and results -----------


def _obs_validate(tr, args, kwargs, result, dt):
    data = args[0]
    if id(data) in tr._validated:
        tr.stats["validate_repeats"] += 1
    tr._validated[id(data)] = data
    tr.validate_sizes.append((len(data.simples), dt))


def _obs_solve(tr, args, kwargs, result, dt):
    eng, dom_pair = args[0], args[1]
    tr._paused = True
    try:
        tr.stats["solve_unknowns"] += eng.hom_dim(*dom_pair)
    finally:
        tr._paused = False
    tr.stats["solve_basis"] += len(result)


def _obs_linear_matrix(tr, args, kwargs, result, dt):
    tr.stats["linear_matrix_columns"] += result.shape[1]


def _obs_group_last(tr, args, kwargs, result, dt):
    eng = args[0]
    tr._pins[id(eng)] = eng
    tr.keys["diagram.Engine.group_last"].add((id(eng),) + tuple(args[1:]))


def _obs_split_bimodule(tr, args, kwargs, result, dt):
    depth = kwargs.get("depth", args[3] if len(args) > 3 else 0)
    if depth > 0:
        tr.stats["split_retries"] += 1


_OBSERVERS = {
    "fusion.validate": _obs_validate,
    "intalg._solve": _obs_solve,
    "diagram.Engine.linear_matrix": _obs_linear_matrix,
    "diagram.Engine.group_last": _obs_group_last,
    "hilb3.split_bimodule": _obs_split_bimodule,
}


# -- import timing for the cli layer ------------------------------------


def import_times(stderr_text):
    """Seconds spent importing hstarcat (with everything it pulls in),
    numpy, scipy and jsonschema, from `python -X importtime` output."""
    roots = []
    pending = defaultdict(list)  # depth -> finished children waiting for a parent
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        node = (name.strip(), int(cum) / 1e6, pending.pop(depth + 1, []))
        (pending[depth] if depth > 0 else roots).append(node)

    def family(nodes, prefix):
        total = 0.0
        for name, cum, kids in nodes:
            if name == prefix or name.startswith(prefix + "."):
                total += cum
            else:
                total += family(kids, prefix)
        return total

    return {
        "cli.import_s": family(roots, "hstarcat"),
        "cli.import.numpy_s": family(roots, "numpy"),
        "cli.import.scipy_s": family(roots, "scipy"),
        "cli.import.jsonschema_s": family(roots, "jsonschema"),
    }
