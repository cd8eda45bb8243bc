"""Tests of the benchmark's own pieces: the generated families, the gauge,
the negative controls, the tracer's self-time arithmetic and the metric
lists in BENCHMARK.json.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import json
import pathlib
import sys
import types

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import families as fam  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from hstarcat.fusion import FusionData, validate  # noqa: E402

SMALL = [
    ("vec3", lambda: fam.vec_zn(3)),
    ("vec4", lambda: fam.vec_zn(4)),
    ("twisted4p1", lambda: fam.vec_zn(4, 1)),
    ("twisted5p3", lambda: fam.vec_zn(5, 3)),
    ("ty2", lambda: fam.ty_zn(2)),
    ("ty3", lambda: fam.ty_zn(3)),
    ("ty3minus", lambda: fam.ty_zn(3, -1)),
    ("ty4", lambda: fam.ty_zn(4)),
]


@pytest.mark.parametrize("name,make", SMALL)
def test_small_instances_accept(name, make):
    cert = validate(make())
    assert cert.ok, cert.failed_axiom


def test_ty2_is_ising():
    data = fam.ty_zn(2)
    assert data.f_matrix("m", "m", "m", "m") == pytest.approx(
        np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    )
    assert data.f_matrix("1", "m", "1", "m")[0, 0] == pytest.approx(-1)


@pytest.mark.parametrize("name,make", SMALL)
@pytest.mark.parametrize("seed", [0, 1])
def test_gauge_keeps_verdict_and_fills_blocks(name, make, seed):
    data = make()
    gauged = fam.gauge(data, np.random.default_rng(seed))
    cert = validate(gauged)
    assert cert.ok
    assert cert.residuals["pentagon"] < 1e-12
    moved = [
        k for k in fam.f_blocks(data)
        if not np.allclose(gauged.f_matrix(*k), data.f_matrix(*k))
    ]
    assert len(moved) > len(fam.f_blocks(data)) // 2


def _negated(data, key):
    F = dict(data.F)
    F[key] = -data.f_matrix(*key)
    return FusionData(data.simples, data.units, data.grading, data.dual, data.N, F)


@pytest.mark.parametrize("name,make", [s for s in SMALL if s[0] in ("vec4", "twisted4p1", "ty3")])
def test_every_scalar_flip_rejects_on_pentagon(name, make):
    data = fam.gauge(make(), np.random.default_rng(5))
    for key in fam.f_blocks(data):
        if data.f_matrix(*key).shape != (1, 1):
            continue
        cert = validate(_negated(data, key))
        assert not cert.ok and cert.failed_axiom == "pentagon", key


def test_negating_the_ty_matrix_block_is_the_other_tau():
    data = fam.ty_zn(3)
    assert validate(_negated(data, ("m", "m", "m", "m"))).ok


@pytest.mark.parametrize("seed", range(4))
def test_seeded_flip_rejects_on_pentagon(seed):
    rng = np.random.default_rng(seed)
    for make in (lambda: fam.vec_zn(5), lambda: fam.vec_zn(5, 2), lambda: fam.ty_zn(4, -1)):
        bad, key = fam.sign_flip(fam.gauge(make(), rng), rng)
        cert = validate(bad)
        assert not cert.ok and cert.failed_axiom == "pentagon", key


def test_generators_are_seeded():
    a = fam.gauge(fam.ty_zn(3), np.random.default_rng(9))
    b = fam.gauge(fam.ty_zn(3), np.random.default_rng(9))
    assert all(np.array_equal(a.F[k], b.F[k]) for k in a.F)


def test_tracer_self_times_add_up():
    # functions that call each other through module globals, as in the package
    mod = types.ModuleType("hstarcat.toy")
    exec(
        "def inner(x):\n    return sum(range(x))\n\n"
        "def outer(x):\n    return inner(x) + inner(x)\n",
        mod.__dict__,
    )
    outer = mod.outer
    sys.modules[mod.__name__] = mod
    tracer = spans.Tracer()
    try:
        tracer.install([mod])
        tracer.begin_verdict("v")
        mod.outer(20000)
    finally:
        tracer.uninstall()
        del sys.modules[mod.__name__]
    assert mod.outer is outer
    names = [s[0] for s in tracer.spans]
    assert names == ["toy.outer", "toy.inner", "toy.inner"]
    own = tracer.self_times()
    total = tracer.spans[0][2] - tracer.spans[0][1]
    assert sum(own.values()) == pytest.approx(total)
    assert own["toy.outer"] >= 0


def test_speed_factor_uses_the_points_around_a_timing():
    probe = speed.SpeedProbe()
    probe.points = [speed.REFERENCE_NOMINAL_S, 3 * speed.REFERENCE_NOMINAL_S]
    assert probe.factor(0) == pytest.approx(0.5)
    assert probe.due() == 2 and len(probe.points) == 3


def test_import_times_parse():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   numpy.core",
        "import time:       200 |        300 | numpy",
        "import time:        50 |         50 |     scipy._lib",
        "import time:        70 |        120 |   scipy",
        "import time:        10 |        430 | hstarcat.cli",
    ])
    out = spans.import_times(text)
    assert out["cli.import.numpy_s"] == pytest.approx(300e-6)
    assert out["cli.import.scipy_s"] == pytest.approx(120e-6)
    assert out["cli.import_s"] == pytest.approx(430e-6)


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [m for m, _, _ in spans.LAYER_METRICS]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "pass_s", "verdict_p50_s", "verdict_tail_s", "setup_s", "peak_rss_mb",
    }
    interactions = json.loads((ROOT / "bench" / "interactions.json").read_text())
    named = {m for row in interactions["layers"] for m in row["per_layer_metrics"]}
    assert named <= {m for m, _, _ in spans.LAYER_METRICS}
