"""The four benchmark workloads.

Each workload has a set-up (import of hstarcat, input generation, and any
one-off validation or Engine construction) and a fixed, odd-length list of
verdicts per pass. A verdict runs one certification through hstarcat's
public functions or its CLI; its `check` compares the observation with the
known answer and returns None on a match, or a description of the mismatch.
All inputs and sampler seeds derive from the workload seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

CHILD_TIMEOUT_S = 120


@dataclass
class Verdict:
    vid: str
    run: object  # () -> observation
    check: object  # observation -> None | str


@dataclass
class Workload:
    name: str
    setup: object  # (seed, out_dir) -> state
    verdicts: object  # (state) -> list of Verdict
    # wall time of one pass at the commit that defined the benchmark; it
    # turns --seconds into a pass count that does not depend on noise
    nominal_pass_s: float
    warmup: bool = False  # run one untimed pass first, so caches are warm


def _cert_problem(cert, ok=True, axiom=None):
    if cert.ok != ok:
        got = "ACCEPT" if cert.ok else f"REJECT on {cert.failed_axiom}"
        return f"expected {'ACCEPT' if ok else 'REJECT'}, got {got}"
    if not ok and cert.failed_axiom != axiom:
        return f"expected REJECT on {axiom}, got REJECT on {cert.failed_axiom}"
    return None


def _first(*problems):
    return next((p for p in problems if p), None)


def _seeds(seed, k):
    import numpy as np

    return [int(s) for s in np.random.default_rng([seed, 7]).integers(0, 2**31, k)]


# --- pentagon_sweep -------------------------------------------------------

SWEEP = (
    [("vec", n) for n in range(4, 9)]
    + [("twisted", n) for n in range(4, 9)]
    + [("ty", n) for n in range(2, 6)]
)
# one seeded sign flip per family, each must REJECT on the pentagon axiom;
# sizes chosen so that the pooled median falls among the six rank-6
# verdicts (Vec(Z_6), twisted Vec(Z_6) and TY(Z_5), flipped or not), which
# cost about the same, instead of between two instances of different size
NEGATIVES = [("vec", 6), ("twisted", 6), ("ty", 5)]


def _make(kind, n, rng):
    import families as fam

    if kind == "vec":
        return fam.vec_zn(n)
    if kind == "twisted":
        return fam.vec_zn(n, int(rng.integers(1, n)))
    return fam.ty_zn(n, 1 if rng.random() < 0.5 else -1)


def _expected_dims(kind, n):
    dims = {str(a): 1.0 for a in range(n)}
    if kind == "ty":
        dims["m"] = math.sqrt(n)
    return dims


def _setup_pentagon(seed, out_dir):
    import numpy as np

    import families as fam

    rng = np.random.default_rng(seed)
    inputs = []
    for kind, n in SWEEP:
        inputs.append((f"{kind}{n}", fam.gauge(_make(kind, n, rng), rng), _expected_dims(kind, n)))
    for kind, n in NEGATIVES:
        data, _ = fam.sign_flip(fam.gauge(_make(kind, n, rng), rng), rng)
        inputs.append((f"{kind}{n}-flip", data, None))
    return {"inputs": inputs}


def _fusion_udf(data):
    """The work of `hstarcat fusion udf`: validate, then the dual functor
    and its loop values for the unit weight."""
    from hstarcat import fusion

    cert = fusion.validate(data)
    if not cert.ok:
        return cert, None, None
    udf = fusion.udf_from_weight(data, fusion.SphericalWeight((1.0,)))
    gap = 0.0
    for c in data.simples:
        gap = max(
            gap,
            abs(fusion.loop_eval(udf, c, "L") - udf.d(c) / udf.d(data.s(c))),
            abs(fusion.loop_eval(udf, c, "R") - udf.d(c) / udf.d(data.t(c))),
        )
    return cert, dict(udf.dims), gap


def _check_udf(expected):
    def check(obs):
        cert, dims, gap = obs
        if expected is None:
            return _cert_problem(cert, ok=False, axiom="pentagon")
        return _first(
            _cert_problem(cert),
            None
            if dims.keys() == expected.keys()
            and all(abs(dims[c] - v) <= 1e-9 for c, v in expected.items())
            else f"dims {dims} differ from {expected}",
            None if gap <= 1e-9 * (1 + max(expected.values())) else f"loop gap {gap}",
        )

    return check


def _verdicts_pentagon(state):
    return [
        Verdict(vid, (lambda d=data: _fusion_udf(d)), _check_udf(dims))
        for vid, data, dims in state["inputs"]
    ]


# --- qsystem_linking --------------------------------------------------------

# (bundled category, algebra, simple modules, linking rank)
QCASES = [("ising", "group 1,p", 3, 12), ("fibonacci", "pair t", 2, 8)]


def _setup_qsystem(seed, out_dir):
    from hstarcat import bundled

    return {
        "data": {name: bundled.load(name) for name, *_ in QCASES},
        "seed": _seeds(seed, 1)[0],
    }


def _algebra(eng, spec):
    from hstarcat import intalg

    kind, arg = spec.split()
    if kind == "group":
        return intalg.group_algebra(eng, tuple(arg.split(",")))
    return intalg.pair_algebra(eng, eng.obj({arg: 1}))


def _verdicts_qsystem(state):
    from hstarcat import fusion, hilb3, intalg
    from hstarcat.diagram import Engine

    s = state["seed"]
    out = []
    for name, spec, n_modules, rank in QCASES:
        data = state["data"][name]
        ctx = {}

        def engine(data=data, spec=spec, ctx=ctx):
            # a fresh Engine, built as the CLI builds it
            cert = fusion.validate(data)
            psi = fusion.SphericalWeight((1.0,))
            ctx["eng"] = Engine(data, fusion.udf_from_weight(data, psi))
            ctx["A"] = _algebra(ctx["eng"], spec)
            return cert

        def linking(ctx=ctx):
            eng, A = ctx["eng"], ctx["A"]
            X = hilb3.delooping(eng)
            unit = eng.data.units[0]
            return hilb3.linking_e1(X, hilb3.MonadObject(A), hilb3.DeloopObject(unit), seed=s)

        out += [
            Verdict(f"{name}.engine", engine, _cert_problem),
            Verdict(
                f"{name}.verify",
                lambda ctx=ctx: intalg.verify_hstar(ctx["A"], seed=s),
                _cert_problem,
            ),
            Verdict(
                f"{name}.standardize",
                lambda ctx=ctx: intalg.verify_hstar(intalg.standardize(ctx["A"]), seed=s),
                _cert_problem,
            ),
            Verdict(
                f"{name}.modcat",
                lambda ctx=ctx: len(intalg.module_category(ctx["eng"], ctx["A"], seed=s).simples),
                lambda n, want=n_modules: None if n == want else f"{n} simple modules, want {want}",
            ),
            Verdict(
                f"{name}.split_monad",
                lambda ctx=ctx: hilb3.split_monad(ctx["A"], seed=s).certificate,
                _cert_problem,
            ),
            Verdict(
                f"{name}.linking",
                linking,
                lambda r, want=rank: _first(
                    _cert_problem(r[2]),
                    None if len(r[0].simples) == want else f"rank {len(r[0].simples)}, want {want}",
                ),
            ),
        ]
        if name == "ising":
            out.append(
                Verdict(
                    "ising.group_1s",
                    lambda ctx=ctx: intalg.verify_hstar(
                        intalg.group_algebra(ctx["eng"], ("1", "s")), seed=s
                    ),
                    lambda c: _cert_problem(c, ok=False, axiom="associativity"),
                )
            )
    return out


# --- ladder_sampling --------------------------------------------------------

LADDER_SEEDS = 13  # sampler seeds per pass; 3 families x 3 verdicts each


def _setup_ladder(seed, out_dir):
    import numpy as np

    import families as fam
    from hstarcat import bundled, fusion
    from hstarcat.diagram import Engine

    rng = np.random.default_rng(seed)
    families = {
        "twisted8": fam.gauge(_make("twisted", 8, rng), rng),
        "ty5": fam.gauge(_make("ty", 5, rng), rng),
    }
    for name, data in families.items():
        cert = fusion.validate(data)
        if not cert.ok:
            raise RuntimeError(f"generated family {name} failed validation: {cert.failed_axiom}")
    families["ising"] = bundled.load("ising")
    psi = fusion.SphericalWeight((1.0,))
    engines = {
        name: Engine(data, fusion.udf_from_weight(data, psi)) for name, data in families.items()
    }
    return {"engines": engines, "seeds": _seeds(seed, LADDER_SEEDS)}


def _deligne_check(eng, s):
    """The work of `hstarcat deligne check`."""
    import numpy as np

    from hstarcat import deligne

    mside = deligne.RegularRight(eng)
    m_objects = [eng.simple_obj(c) for c in eng.data.simples]
    ra = deligne.right_action_isometry(mside, eng, m_objects, samples=5, seed=s)
    rng = np.random.default_rng(s)
    nside = deligne.RegularLeft(eng)
    worst = 0.0
    for c in eng.data.simples:
        L = deligne.LadderObject(mside, nside, eng.simple_obj(c), eng.simple_obj(c))
        if deligne.ladder_hom_dim(L, L) == 0:
            continue
        for _ in range(5):
            F = deligne.random_ladder(L, L, rng)
            G = deligne.random_ladder(L, L, rng)
            worst = max(
                worst,
                abs(
                    deligne.ladder_trace(deligne.ladder_compose(F, G))
                    - deligne.ladder_trace(deligne.ladder_compose(G, F))
                ),
            )
    return ra, worst


def _h3_complete(eng, s):
    """The work of `hstarcat h3 complete`."""
    from hstarcat import hilb3

    X = hilb3.delooping(eng)
    sph = hilb3.presentation_sphericality(X, seed=s)
    Xs = hilb3.hilbert_sum_completion(X)
    S = hilb3.sum_object(Xs, list(eng.data.units) + [eng.data.units[0]])
    return sph, hilb3.certify_hilbert_sum(Xs, S, seed=s)


def _verdicts_ladder(state):
    from hstarcat import fusion, hilb3
    from hstarcat.numcore import DEFAULT_TOL

    psi = fusion.SphericalWeight((1.0,))
    out = []
    for s in state["seeds"]:
        for name, eng in state["engines"].items():
            samples = 5 * len(eng.data.simples) ** 2
            out += [
                Verdict(
                    f"{name}.deligne.{s}",
                    lambda eng=eng, s=s: _deligne_check(eng, s),
                    lambda r, want=samples: _first(
                        _cert_problem(r[0]),
                        None if r[0].details["samples"] == want else f"{r[0].details['samples']} samples, want {want}",
                        None if r[1] <= DEFAULT_TOL.bound(10.0) else f"ladder traciality {r[1]}",
                    ),
                ),
                Verdict(
                    f"{name}.complete.{s}",
                    lambda eng=eng, s=s: _h3_complete(eng, s),
                    lambda r: _first(_cert_problem(r[0]), _cert_problem(r[1])),
                ),
                Verdict(
                    f"{name}.theorem_b.{s}",
                    lambda eng=eng, s=s: hilb3.theorem_b_check(eng.data, psi, seed=s),
                    lambda c: _first(
                        _cert_problem(c),
                        None if abs(c.details["modules"] - 1.0) <= 1e-9 else f"module weight {c.details['modules']}",
                    ),
                ),
            ]
    return out


# --- cli_cold ---------------------------------------------------------------

# (argv, exit code, sorted check names (None: no report), violated axioms,
#  reported values to match)
_CLI = [
    ("fusion validate fibonacci", 0, ["fusion"], None, {}),
    ("fusion udf m2_hilb --psi 1.0,4.0", 0, ["fusion", "loops"], None,
     {"dims": {"11": 1.0, "12": 2.0, "21": 2.0, "22": 4.0}}),
    ("alg verify ising ising_qsystem", 0, ["hstar_algebra"], None, {}),
    ("alg standardize ising ising_qsystem", 0, ["hstar_algebra", "specialness"], None, {}),
    ("alg modcat ising ising_qsystem", 0, ["hstar_algebra"], None, {"simple_modules": 3}),
    ("alg intend hilb_z2 hilb_z2_group", 0, ["hstar_algebra", "internal_end"], None, {}),
    ("deligne check hilb_z2", 0, ["ladder_trace", "right_action"], None, {}),
    ("h3 complete fibonacci", 0, ["hilbert_sum", "sphericality"], None, {}),
    ("h3 split-monad hilb_z2 hilb_z2_group", 0, ["split_monad"], None, {}),
    ("h3 theorem-b fibonacci", 0, ["fusion", "theorem_b"], None, {}),
    ("hstar verify hstar_example", 0, ["hstar_trace"], None, {}),
    ("hstar gns hstar_example", 0, ["module_trace_law"], None,
     {"gns_dim": 13, "simple_dims": [1.0, 0.5]}),
    ("fusion validate fibonacci_corrupt", 1, ["fusion"], {"fusion": "pentagon"}, {}),
    ("fusion udf {ty3}", 0, ["fusion", "loops"], None,
     {"dims": {"0": 1.0, "1": 1.0, "2": 1.0, "m": math.sqrt(3)}}),
    ("fusion validate {malformed}", 2, None, None, {}),
]


def _setup_cli(seed, out_dir):
    import numpy as np

    import families as fam

    rng = np.random.default_rng(seed)
    work = os.path.join(out_dir, f"cli-{seed}")
    os.makedirs(work, exist_ok=True)
    files = {"ty3": os.path.join(work, "ty3.json"), "malformed": os.path.join(work, "malformed.json")}
    doc = fam.gauge(_make("ty", 3, rng), rng).to_json()
    with open(files["ty3"], "w") as fh:
        json.dump(doc, fh)
    bad = dict(doc)
    del bad[("simples", "units", "grading", "dual")[int(rng.integers(4))]]
    with open(files["malformed"], "w") as fh:
        json.dump(bad, fh)
    s = _seeds(seed, 1)[0]
    commands = []
    for k, (cmd, code, checks, axioms, values) in enumerate(_CLI):
        out = os.path.join(work, f"report{k}.json")
        argv = cmd.format(**files).split() + ["--seed", str(s), "--out", out]
        commands.append((argv, out, code, checks, axioms, values))
    return {"commands": commands, "replay": False, "child_rss_kb": [], "child_wall_s": []}


def _run_child(state, argv):
    """One fresh `python -m hstarcat.cli` process; records its wall time
    and peak RSS (from wait4)."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    t0 = time.perf_counter()
    with open(os.devnull, "wb") as null:
        proc = subprocess.Popen(
            [sys.executable, "-m", "hstarcat.cli", *argv], stdout=null, stderr=null, env=env
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    state["child_wall_s"].append(time.perf_counter() - t0)
    state["child_rss_kb"].append(usage.ru_maxrss)
    return proc.returncode


def _replay(argv):
    """The same argv through cli.main in this process."""
    from hstarcat import cli

    with contextlib.redirect_stderr(io.StringIO()):
        return cli.main(list(argv))


def _cli_verdict(state, argv, out):
    if os.path.exists(out):
        os.remove(out)
    code = _replay(argv) if state["replay"] else _run_child(state, argv)
    report = None
    if os.path.exists(out):
        with open(out) as fh:
            report = json.load(fh)
    return code, report


def _check_cli(code, checks, axioms, values):
    def check(obs):
        got, report = obs
        if got != code:
            return f"exit code {got}, want {code}"
        if checks is None:
            return None if report is None else "report written for bad input"
        if report is None:
            return "no report"
        want_verdict = "ACCEPT" if code == 0 else "REJECT"
        return _first(
            None if sorted(report["verdicts"]) == checks else f"checks {sorted(report['verdicts'])}",
            None if report["verdict"] == want_verdict else f"verdict {report['verdict']}",
            None if report.get("violated_axioms") == axioms else f"axioms {report.get('violated_axioms')}",
            *(_value_problem(k, report.get("values", {}).get(k), v) for k, v in values.items()),
        )

    return check


def _value_problem(key, got, want):
    if isinstance(want, dict):
        ok = isinstance(got, dict) and got.keys() == want.keys() and all(
            abs(got[k] - v) <= 1e-9 for k, v in want.items()
        )
    elif isinstance(want, list):
        ok = isinstance(got, list) and len(got) == len(want) and all(
            abs(g - w) <= 1e-9 for g, w in zip(got, want)
        )
    else:
        ok = got == want
    return None if ok else f"{key} = {got}, want {want}"


def _verdicts_cli(state):
    return [
        Verdict(
            " ".join(argv[: argv.index("--seed")]),
            lambda argv=argv, out=out: _cli_verdict(state, argv, out),
            _check_cli(code, checks, axioms, values),
        )
        for argv, out, code, checks, axioms, values in state["commands"]
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pentagon_sweep", _setup_pentagon, _verdicts_pentagon, 4.5),
        Workload("qsystem_linking", _setup_qsystem, _verdicts_qsystem, 2.4),
        Workload("ladder_sampling", _setup_ladder, _verdicts_ladder, 4.0, warmup=True),
        Workload("cli_cold", _setup_cli, _verdicts_cli, 8.3),
    )
}
