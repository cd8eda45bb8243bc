"""hstarcat benchmark: time to verdict on four certification workloads.

Run from the repository root (the program is imported from ./src):

    python3 bench/run.py --workload pentagon_sweep --seed 1 --seconds 16 --trace 0

Workloads: pentagon_sweep, qsystem_linking, ladder_sampling, cli_cold (see
BENCHMARK.json for why each was chosen, and bench/interactions.json for the
layer metric each end-to-end metric should move). Every workload runs
closed-loop with one client.

--trace 0 sets up three times (once here, twice in child processes) and
runs passes over the workload's fixed verdict list: as many as fill
--seconds at the workload's nominal pass time, and at least three. It
reports pass_s, verdict_p50_s, verdict_tail_s, setup_s and peak_rss_mb.
Every timing is scaled by the CPU speed measured around it (bench/speed.py):
on shared machines the speed swings by up to 2x within seconds, and the
scaled times stay steady where raw wall times do not. The raw times are in
the result file, under "unscaled_metrics".
--trace 1 traces one set-up, then runs one untraced and one traced pass,
and reports the per-layer metrics of bench/spans.py.

Every verdict is checked against its known answer. The last stdout line
is {"correct", "attempted", "failed", "metrics"}; the full result, with
provenance, latencies and every mismatch, goes to .bench_out/.
"""

from __future__ import annotations

import os

# BLAS threads pinned to 1 for this process and its children, set before
# numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 3
SETUP_SAMPLES = 3  # this process plus two children
TAIL_BEYOND = 10  # samples the tail percentile leaves above it
OUT_DIR = ".bench_out"
SRC = "src"


def _fail(msg):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def _setup(workload, seed):
    """Import of hstarcat plus the workload's own set-up, timed."""
    t0 = time.perf_counter()
    import hstarcat.cli  # noqa: F401  the whole package, as the CLI imports it

    state = workload.setup(seed, OUT_DIR)
    return state, time.perf_counter() - t0


def _probed_setup(workload, seed):
    """(state, set-up seconds, speed factor from probes around it)."""
    from speed import SpeedProbe

    probe = SpeedProbe()
    point = probe.take()
    state, seconds = _setup(workload, seed)
    probe.take()
    return state, seconds, probe.factor(point)


def _child_setup(args):
    """One set-up in a fresh process: (seconds, speed factor)."""
    cmd = [sys.executable, sys.argv[0], "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        _fail(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["setup_s"], out["factor"]


def _run_pass(workload, state, tracer=None, probe=None):
    """One pass over the verdict list: (wall seconds, rows). A row is
    (vid, seconds, problem or None, index of the last probe point before
    the verdict); with a probe, a last point follows the pass."""
    rows = []
    start = time.perf_counter()
    for v in workload.verdicts(state):
        point = probe.due() if probe else None
        if tracer is not None:
            tracer.begin_verdict(v.vid)
        t0 = time.perf_counter()
        try:
            obs = tracer.span("bench.verdict", v.run) if tracer else v.run()
        except Exception as exc:  # a verdict that raises counts as failed
            rows.append((v.vid, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}", point))
            continue
        dt = time.perf_counter() - t0
        try:
            problem = v.check(obs)
        except Exception as exc:
            problem = f"check raised {type(exc).__name__}: {exc}"
        rows.append((v.vid, dt, problem, point))
    if probe:
        probe.take()
    return time.perf_counter() - start, rows


def _tail(latencies):
    """The highest percentile with at least TAIL_BEYOND samples above it:
    (value, percentile, pooled sample count)."""
    lat = sorted(latencies)
    n = len(lat)
    k = max(n - TAIL_BEYOND - 1, 0)
    return lat[k], 100.0 * (k + 1) / n, n


def _measure(workload, state, seconds, probe):
    """Untraced passes, as many as fill `seconds` at the workload's nominal
    pass time and at least MIN_PASSES. The count never depends on timing
    noise, so every run pools the same number of verdicts."""
    if workload.warmup:
        _run_pass(workload, state)
    passes = []
    for _ in range(max(MIN_PASSES, round(seconds / workload.nominal_pass_s))):
        passes.append(_run_pass(workload, state, probe=probe)[1])
    return passes


def _end_to_end(passes, setups, peak_rss, probe=None):
    """The end-to-end metrics from per-pass rows and (seconds, factor)
    set-up samples; with a probe, every timing is scaled by its factor."""
    lat = [[dt * (probe.factor(i) if probe else 1.0) for _, dt, _, i in rows] for rows in passes]
    pooled = [x for block in lat for x in block]
    tail, pct, n = _tail(pooled)
    return {
        "pass_s": statistics.median(sum(block) for block in lat),
        "verdict_p50_s": statistics.median(pooled),
        "verdict_tail_s": tail,
        "setup_s": statistics.median(dt * (k if probe else 1.0) for dt, k in setups),
        "peak_rss_mb": peak_rss,
    }, pct, n


def _peak_rss_mb(workload, state):
    if workload.name == "cli_cold":
        return max(state["child_rss_kb"]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_children(cmd, k):
    walls = []
    for _ in range(k):
        t0 = time.perf_counter()
        subprocess.run(cmd, capture_output=True, timeout=170, check=True)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def _cli_numbers(workload, state):
    """The cli layer: import times from `python -X importtime` running one
    CLI command through cli.main, a bare interpreter, and (cli_cold) the
    median wall time of the CLI processes."""
    from spans import import_times

    report = os.path.join(OUT_DIR, "importtime-report.json")
    code = ("import sys, hstarcat.cli; sys.exit(hstarcat.cli.main("
            f"['fusion', 'validate', 'fibonacci', '--out', {report!r}]))")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                          capture_output=True, text=True, timeout=170, env=env)
    if proc.returncode != 0:
        _fail(f"import-time child failed: {proc.stderr.strip()[-500:]}")
    out = import_times(proc.stderr)
    out["cli.interpreter_s"] = _timed_children([sys.executable, "-c", "pass"], 3)
    walls = state.get("child_wall_s")
    out["cli.process_s"] = statistics.median(walls) if walls else 0.0
    return out


def _trace(workload, args):
    """A traced set-up, then one untraced and one traced pass; per-layer
    metrics of the traced set-up and pass."""
    import importlib

    import families
    from spans import LAYERS, Tracer

    layers = [importlib.import_module(f"hstarcat.{name}") for name in LAYERS]
    tracer = Tracer()

    def traced(fn, *a):
        tracer.install(layers, quiet=[families])
        try:
            t0 = time.perf_counter()
            out = fn(*a)
            return time.perf_counter() - t0, out
        finally:
            tracer.uninstall()

    tracer.begin_verdict("setup")
    setup_wall, state = traced(tracer.span, "bench.setup", workload.setup, args.seed, OUT_DIR)
    rows = []
    if workload.name == "cli_cold":
        # the processes give cli.process_s; the layers come from replaying
        # the same argv through cli.main in this process
        _, child_rows = _run_pass(workload, state)
        rows += child_rows
        state["replay"] = True
    elif workload.warmup:
        _run_pass(workload, state)
    untraced, plain_rows = _run_pass(workload, state)
    traced_pass, (_, traced_rows) = traced(_run_pass, workload, state, tracer)
    rows += plain_rows + traced_rows
    metrics = tracer.metrics(
        setup_wall + traced_pass, traced_pass - untraced, _cli_numbers(workload, state)
    )
    tracer.write(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-spans.jsonl.gz"))
    return metrics, rows, {
        "traced_setup_s": setup_wall, "untraced_pass_s": untraced, "traced_pass_s": traced_pass,
    }


def _provenance(seed):
    from importlib import metadata

    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for pkg in ("scipy", "jsonschema"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": sys.version,
        "numpy": numpy.__version__,
        **versions,
        "git_commit": _git_commit(),
        "workload_seed": seed,
        "blas_threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def _git_commit():
    """HEAD of the checkout when it is a git work tree, read from .git."""
    try:
        with open(".git/HEAD") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref)) as fh:
                return fh.read().strip()
        with open(".git/packed-refs") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=16.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.seed < 0:
        _fail("--seed must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "hstarcat", "__init__.py")):
        _fail("no hstarcat sources under ./src; run from the repository root")
    sys.path.insert(0, os.path.abspath(SRC))
    os.makedirs(OUT_DIR, exist_ok=True)
    workload = WORKLOADS[args.workload]

    if args.setup_only:
        _, seconds, factor = _probed_setup(workload, args.seed)
        print(json.dumps({"setup_s": seconds, "factor": factor}))
        return

    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds}
    if args.trace:
        import hstarcat.cli  # noqa: F401  imported before the tracer wraps it
        from spans import LAYER_METRICS

        metrics, rows, extra = _trace(workload, args)
        result.update(extra)
        units = {m: u for m, u, _ in LAYER_METRICS}
    else:
        from speed import SpeedProbe

        state, *own = _probed_setup(workload, args.seed)
        setups = [tuple(own)] + [_child_setup(args) for _ in range(SETUP_SAMPLES - 1)]
        probe = SpeedProbe()
        passes = _measure(workload, state, args.seconds, probe)
        rows = [row for block in passes for row in block]
        peak = _peak_rss_mb(workload, state)
        metrics, pct, n = _end_to_end(passes, setups, peak, probe)
        unscaled, _, _ = _end_to_end(passes, setups, peak)
        units = {"pass_s": "s", "verdict_p50_s": "s", "verdict_tail_s": "s",
                 "setup_s": "s", "peak_rss_mb": "MB"}
        result.update({
            "verdicts_per_pass": len(passes[0]),
            "unscaled_metrics": unscaled,
            "unscaled_passes_s": [sum(dt for _, dt, _, _ in block) for block in passes],
            "unscaled_setup_samples_s": [dt for dt, _ in setups],
            "reference_s": probe.points,
            "verdict_tail": {"percentile": pct, "pooled_samples": n},
        })
    failed = [(vid, problem) for vid, _, problem, _ in rows if problem]
    error_rate = len(failed) / len(rows)
    result.update({
        "provenance": _provenance(args.seed),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
        "error_rate": error_rate,
        "mismatches": failed,
        "latencies": [(vid, dt) for vid, dt, _, _ in rows],
    })
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)

    for m, v in metrics.items():
        print(f"{args.workload} {m} = {v:.6g} {units[m]}")
    if not args.trace:
        print(f"{args.workload} verdict_tail_s is the p{result['verdict_tail']['percentile']:.1f}"
              f" of {result['verdict_tail']['pooled_samples']} pooled verdicts")
    print(f"{args.workload} error_rate = {error_rate:.6g} ratio ({len(failed)} of {len(rows)} verdicts)")
    for vid, problem in failed[:10]:
        print(f"{args.workload} MISMATCH {vid}: {problem}")
    print(f"result file: {path}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(rows),
        "failed": len(failed),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
