import gc
import importlib.util
import pathlib
import weakref

import numpy as np
import pytest

from hstarcat import bundled, deligne, hilb3
from hstarcat.diagram import Engine
from hstarcat.fusion import SphericalWeight, udf_from_weight

PHI = (1 + np.sqrt(5)) / 2


def _eng(name, psis=None):
    data = bundled.load(name)
    psi = SphericalWeight(psis if psis else tuple(1.0 for _ in data.units))
    return Engine(data, udf_from_weight(data, psi))


def _regular_ladder(eng, a, b):
    return deligne.LadderObject(
        deligne.RegularRight(eng),
        deligne.RegularLeft(eng),
        eng.simple_obj(a),
        eng.simple_obj(b),
    )


def test_hom_dims_sum_over_middle():
    eng = _eng("hilb_z2")
    L = _regular_ladder(eng, "1", "1")
    # only the middle c = 1 contributes: Hom(1 -> 1<|1) x Hom(1|>1 -> 1)
    assert deligne.ladder_hom_dim(L, L) == 1
    eng = _eng("fibonacci")
    L = _regular_ladder(eng, "t", "t")
    # middles 1 and t contribute 1 each
    assert deligne.ladder_hom_dim(L, L) == 2


def test_identity_and_trace_formula():
    for name, psis, pairs in [
        ("fibonacci", (1.0,), [("1", "t"), ("t", "t")]),
        ("m2_hilb", (1.0, 2.0), [("12", "21"), ("11", "12")]),
    ]:
        eng = _eng(name, psis)
        for a, b in pairs:
            if eng.data.t(a) != eng.data.s(b):
                continue
            L = _regular_ladder(eng, a, b)
            ident = deligne.identity_ladder(L)
            d1 = eng.udf.d(eng.data.t(a))
            expected = eng.udf.d(a) * eng.udf.d(b) / d1
            assert deligne.ladder_trace(ident).real == pytest.approx(expected)


def test_ladder_traciality():
    eng = _eng("ising", (0.7,))
    rng = np.random.default_rng(0)
    L = _regular_ladder(eng, "s", "s")
    for _ in range(10):
        F = deligne.random_ladder(L, L, rng)
        G = deligne.random_ladder(L, L, rng)
        t1 = deligne.ladder_trace(deligne.ladder_compose(F, G))
        t2 = deligne.ladder_trace(deligne.ladder_compose(G, F))
        assert abs(t1 - t2) < 1e-9 * max(1.0, abs(t1))


def test_act_on_module_is_functorial():
    eng = _eng("ising")
    rng = np.random.default_rng(2)
    L = _regular_ladder(eng, "s", "s")
    F = deligne.random_ladder(L, L, rng)
    G = deligne.random_ladder(L, L, rng)
    lhs = deligne.act_on_module(deligne.ladder_compose(F, G))
    rhs = eng.compose(deligne.act_on_module(F), deligne.act_on_module(G))
    assert eng.residual(lhs, rhs) < 1e-9


def test_right_action_isometry_regular():
    for name in ("hilb_z2", "fibonacci", "ising"):
        eng = _eng(name)
        mside = deligne.RegularRight(eng)
        cert = deligne.right_action_isometry(
            mside, eng, [eng.simple_obj(c) for c in eng.data.simples], samples=5
        )
        assert cert.ok, cert.residuals


def test_shape_mismatch():
    eng = _eng("fibonacci")
    L1 = _regular_ladder(eng, "1", "1")
    L2 = _regular_ladder(eng, "t", "t")
    rng = np.random.default_rng(3)
    F = deligne.random_ladder(L1, L1, rng)
    G = deligne.random_ladder(L2, L2, rng)
    with pytest.raises(deligne.ShapeMismatch):
        deligne.ladder_compose(F, G)


def test_nan_trace_rejects_right_action(monkeypatch):
    eng = _eng("fibonacci")
    monkeypatch.setattr(deligne, "ladder_trace", lambda F: complex("nan"))
    cert = deligne.right_action_isometry(
        deligne.RegularRight(eng), eng, [eng.simple_obj("t")], samples=2
    )
    assert (cert.ok, cert.failed_axiom) == (False, "right-action isometry")
    assert np.isnan(cert.residuals["action_trace_gap"])


def _families():
    """The benchmark's generated families and their gauge (bench/families.py)."""
    root = pathlib.Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("families", root / "bench" / "families.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _ladder_checks(data, seed=0):
    """Verdicts and values of the ladder checks on one fusion category:
    the right-action isometry, ladder traciality, the identity ladder's
    trace per simple, Theorem B's module weight and the udf dimensions."""
    psi = SphericalWeight((1.0,))
    eng = Engine(data, udf_from_weight(data, psi))
    simples = [eng.simple_obj(c) for c in data.simples]
    ra = deligne.right_action_isometry(deligne.RegularRight(eng), eng, simples, samples=2, seed=seed)
    tr = deligne.ladder_traciality(eng, 1, seed)
    traces = []
    for O in simples:
        L = deligne.LadderObject(deligne.RegularRight(eng), deligne.RegularLeft(eng), O, O)
        traces.append(deligne.ladder_trace(deligne.identity_ladder(L)))
    tb = hilb3.theorem_b_check(data, psi, seed=seed)
    verdicts = (ra.ok, tr.ok, tb.ok)
    values = [ra.residuals["action_trace_gap"], tr.residuals["traciality"], *traces, tb.details["modules"]]
    return verdicts, np.array(values + [eng.udf.d(c) for c in data.simples])


@pytest.mark.parametrize("name", ["twisted_z4", "ty_z3"])
def test_vertex_gauge_keeps_the_ladder_checks(name):
    # a unitary vertex gauge (Bonderson, PhD thesis, Caltech 2007) changes
    # the F-symbols but no verdict and no gauge-invariant value
    fam = _families()
    data = fam.vec_zn(4, 1) if name == "twisted_z4" else fam.ty_zn(3)
    gauged = fam.gauge(data, np.random.default_rng(5))
    moved = max(
        np.abs(gauged.f_matrix(*k) - data.f_matrix(*k)).max() for k in fam.f_blocks(data)
    )
    assert moved > 1e-3
    verdicts, values = _ladder_checks(data)
    assert verdicts == (True, True, True)
    g_verdicts, g_values = _ladder_checks(gauged)
    assert g_verdicts == verdicts
    assert np.abs(g_values - values).max() <= 1e-9


def _warm_cache_engines():
    """Ising and the benchmark's gauged TY(Z_3) and twisted Vec(Z_4)."""
    fam = _families()
    rng = np.random.default_rng(11)
    for data in (bundled.load("ising"), fam.gauge(fam.ty_zn(3), rng), fam.gauge(fam.vec_zn(4, 1), rng)):
        yield lambda data=data: Engine(data, udf_from_weight(data, SphericalWeight((1.0,))))


def _deligne_residuals(eng, seed):
    simples = [eng.simple_obj(c) for c in eng.data.simples]
    ra = deligne.right_action_isometry(deligne.RegularRight(eng), eng, simples, samples=2, seed=seed)
    tr = deligne.ladder_traciality(eng, 2, seed)
    return repr((ra.residuals, tr.residuals))


def test_warm_engine_gives_the_cold_residuals():
    # the pieces an engine keeps between calls change no rounding
    for fresh in _warm_cache_engines():
        warm = fresh()
        for seed in (3, 4):
            _deligne_residuals(warm, seed)
        for seed in (5, 3):
            assert _deligne_residuals(warm, seed) == _deligne_residuals(fresh(), seed)


def test_ladder_cache_is_bounded_across_seeds():
    # what the engine keeps depends on the category, not on the samples
    for fresh in _warm_cache_engines():
        eng = fresh()
        _deligne_residuals(eng, 1)
        size = len(eng._derived)
        _deligne_residuals(eng, 2)
        assert len(eng._derived) == size


def test_engine_that_ran_a_deligne_check_is_freed_without_gc():
    # the kept pieces hold blocks, not Mors, so no cycle runs back to the
    # engine and reference counting alone frees it
    gc.collect()
    gc.disable()
    try:
        eng = _eng("ising")
        _deligne_residuals(eng, 0)
        ref = weakref.ref(eng)
        del eng
        assert ref() is None
    finally:
        gc.enable()
