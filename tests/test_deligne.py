import gc
import weakref
from collections import Counter

import numpy as np
import pytest

import diagram_reference
from bench_families import fam
from test_fusion import DFT5, ROT, _multiplicity_two
from hstarcat import bundled, deligne, hilb3
from hstarcat.certify import bounded
from hstarcat.diagram import Engine
from hstarcat.fusion import SphericalWeight, udf_from_weight
from hstarcat.numcore import DEFAULT_TOL, worst

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


def test_compose_rejects_ladders_of_two_products():
    # the unit objects of hilb_z2 and Fibonacci are equal tuples, but
    # ladders over the two are of different products: composing them is a
    # shape error, not a number, also once both engines keep the tensor of
    # a composition on these objects
    z2, fib = _eng("hilb_z2"), _eng("fibonacci")
    rng = np.random.default_rng(0)
    F = deligne.random_ladder(*[_regular_ladder(z2, "1", "1")] * 2, rng)
    G = deligne.random_ladder(*[_regular_ladder(fib, "1", "1")] * 2, rng)
    assert F.src.m == G.dst.m and F.src.n == G.dst.n
    for A, B in ((F, G), (G, F)):
        with pytest.raises(deligne.ShapeMismatch):
            deligne.ladder_compose(A, B)
        deligne.ladder_compose(A, A)


def test_sides_built_twice_on_one_engine_are_one_product():
    # a module side is known by its type and engine, as the tensors kept
    # on the engine are: t (x) t from two pairs of sides has the one-pair
    # hom space, and ladders across the pairs compose; sides on another
    # engine, even of the same data, are another product
    eng = _eng("fibonacci")
    L1, L2 = _regular_ladder(eng, "t", "t"), _regular_ladder(eng, "t", "t")
    assert L1.mside is not L2.mside and L1.nside is not L2.nside
    assert deligne.ladder_hom_dim(L1, L2) == deligne.ladder_hom_dim(L1, L1) == 2
    rng = np.random.default_rng(4)
    F, G = deligne.random_ladder(L2, L1, rng), deligne.random_ladder(L1, L2, rng)
    FG = deligne.ladder_compose(F, G)
    assert np.array_equal(FG.z, deligne.ladder_compose(deligne.LadderHom(L1, L1, F.z), G).z)
    assert (L1.product, L1.key) == (L2.product, L2.key)
    other = _regular_ladder(_eng("fibonacci"), "t", "t")
    with pytest.raises(deligne.ShapeMismatch):
        deligne.ladder_hom_dim(L1, other)


def test_equal_objects_on_two_engines_keep_separate_values():
    # m2_hilb under two weights: one data, equal (m, n) tuples, and the
    # trace vector of 22 (x) 22 is 1 on one engine and 4 on the other;
    # warmed in turn, each engine keeps its own values, and objects of
    # the two do not meet
    data = bundled.load("m2_hilb")
    weights = ((1.0, 1.0), (1.0, 4.0))
    engines = [Engine(data, udf_from_weight(data, SphericalWeight(w))) for w in weights]
    rows = [[_regular_ladder(eng, c, c) for c in data.simples] for eng in engines]
    for L1, L2 in zip(*rows):
        assert (L1.m, L1.n) == (L2.m, L2.n) and L1.key != L2.key and L1.product != L2.product
        for L in (L1, L2):
            deligne.ladder_trace(deligne.identity_ladder(L))
        with pytest.raises(deligne.ShapeMismatch):
            deligne.ladder_hom_dim(L1, L2)
    for w, row in zip(weights, rows):
        fresh = Engine(data, udf_from_weight(data, SphericalWeight(w)))
        for c, L in zip(data.simples, row):
            assert np.array_equal(deligne._trace_vector(L), deligne._trace_vector(_regular_ladder(fresh, c, c)))
    assert [deligne._trace_vector(L)[0] for L in (rows[0][3], rows[1][3])] == [1.0, 4.0]


def test_side_types_are_part_of_the_key():
    # right and left regular sides in either slot are three products, so
    # equal objects get three keys; sides over two engines are refused
    eng = _eng("fibonacci")
    t = eng.simple_obj("t")
    R, Lf = deligne.RegularRight(eng), deligne.RegularLeft(eng)
    objs = [deligne.LadderObject(a, b, t, t) for a, b in ((R, Lf), (Lf, R), (R, R))]
    assert len({L.product for L in objs}) == len({L.key for L in objs}) == 3
    with pytest.raises(deligne.ShapeMismatch):
        deligne.ladder_hom_dim(objs[0], objs[1])
    with pytest.raises(deligne.ShapeMismatch):
        deligne.LadderObject(R, deligne.RegularLeft(_eng("fibonacci")), t, t)


def _nan_trace_vector(L):
    return np.full(deligne.ladder_hom_dim(L, L), complex("nan"))


def test_nan_trace_rejects_right_action(monkeypatch):
    # the action form keeps the NaN, on the first call and the warm one
    eng = _eng("fibonacci")
    monkeypatch.setattr(deligne, "_trace_vector", _nan_trace_vector)
    for _ in range(2):
        cert = deligne.right_action_isometry(
            deligne.RegularRight(eng), eng, [eng.simple_obj("t")], samples=2
        )
        assert (cert.ok, cert.failed_axiom) == (False, "right-action isometry")
        assert np.isnan(cert.residuals["action_trace_gap"])


def _ladder_checks(data, seed=0):
    """Verdicts and values of the ladder checks on one fusion category:
    the right-action isometry, ladder traciality, the identity ladder's
    trace per simple, Theorem B's module weight and the udf dimensions."""
    psi = SphericalWeight((1.0,))
    eng = Engine(data, udf_from_weight(data, psi))
    simples = [eng.simple_obj(c) for c in data.simples]
    ra = deligne.right_action_isometry(deligne.RegularRight(eng), eng, simples, samples=2, seed=seed)
    tr = deligne.ladder_traciality(eng)
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
    rng = np.random.default_rng(11)
    for data in (bundled.load("ising"), fam.gauge(fam.ty_zn(3), rng), fam.gauge(fam.vec_zn(4, 1), rng)):
        yield lambda data=data: Engine(data, udf_from_weight(data, SphericalWeight((1.0,))))


def _deligne_residuals(eng, seed):
    """Both ladder checks, and the per-sample path of the benchmark and
    the traciality criterion: random_ladder, ladder_compose, ladder_trace."""
    simples = [eng.simple_obj(c) for c in eng.data.simples]
    mside, nside = deligne.RegularRight(eng), deligne.RegularLeft(eng)
    ra = deligne.right_action_isometry(mside, eng, simples, samples=2, seed=seed)
    tr = deligne.ladder_traciality(eng)
    rng = np.random.default_rng(seed)
    traces = []
    for c in simples:
        L = deligne.LadderObject(mside, nside, c, c)
        F, G = deligne.random_ladder(L, L, rng), deligne.random_ladder(L, L, rng)
        traces.append(deligne.ladder_trace(deligne.ladder_compose(F, G)))
    return repr((ra.residuals, tr.residuals, traces))


def test_warm_engine_gives_the_cold_residuals():
    # the tensors an engine keeps between calls change no rounding
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
    # no kept tensor, basis or image refers back to the engine, so
    # reference counting alone frees it
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


def test_right_action_rejects_a_side_of_another_engine():
    ising, fib = _eng("ising"), _eng("fibonacci")
    with pytest.raises(deligne.ShapeMismatch):
        deligne.right_action_isometry(deligne.RegularRight(ising), fib, [fib.simple_obj("t")], samples=1)


@pytest.mark.parametrize("side", ["RegularRight", "RegularLeft"])
def test_nan_side_trace_rejects_both_checks(monkeypatch, side):
    # the traces an engine keeps are values like any other: a NaN is kept
    # and rejects, on the first call and on the warm one after it
    monkeypatch.setattr(getattr(deligne, side), "trace", lambda self, f: complex("nan"))
    eng = _eng("fibonacci")
    simples = [eng.simple_obj(c) for c in eng.data.simples]
    for _ in range(2):
        ra = deligne.right_action_isometry(deligne.RegularRight(eng), eng, simples, samples=2)
        tr = deligne.ladder_traciality(eng)
        assert (ra.ok, ra.failed_axiom) == (False, "right-action isometry")
        assert np.isnan(ra.residuals["action_trace_gap"])
        assert (tr.ok, tr.failed_axiom) == (False, "traciality")
        assert np.isnan(tr.residuals["traciality"])


def test_nan_trace_rejects_traciality(monkeypatch):
    # the trace form keeps the NaN, on the first call and the warm one
    monkeypatch.setattr(deligne, "_trace_vector", _nan_trace_vector)
    eng = _eng("fibonacci")
    for _ in range(2):
        cert = deligne.ladder_traciality(eng)
        assert (cert.ok, cert.failed_axiom) == (False, "traciality")
        assert np.isnan(cert.residuals["traciality"])


DIAGRAM_WORK = (
    "compose",
    "whisker_right_obj",
    "whisker_left_obj",
    "dagger",
    "scale",
    "add",
    "categorical_trace",
    "hom_basis",
    "to_vector",
)


def test_warm_engine_does_no_diagram_work_for_a_new_seed(monkeypatch):
    # composition and the trace are multilinear in the sampled
    # coefficients, so once their tensors are kept a new seed, through the
    # checks or ladder by ladder, is numpy work alone
    calls = Counter()
    for name in DIAGRAM_WORK:
        def counted(self, *args, _run=getattr(Engine, name), _name=name):
            calls[_name] += 1
            return _run(self, *args)

        monkeypatch.setattr(Engine, name, counted)
    for fresh in _warm_cache_engines():
        eng = fresh()
        _deligne_residuals(eng, 1)
        assert calls["compose"] and calls["categorical_trace"]
        calls.clear()
        _deligne_residuals(eng, 2)
        assert not calls, dict(calls)


# --- the Mor-per-term reference -------------------------------------------
# Each term carries its M-side factor as a morphism scaled by its sampled
# coefficient, on the elementary hom bases of the engine, and every sample
# is whiskered, composed and traced anew: the path the coefficient tensors
# replaced, kept to check them against.


def _ref_basis(src, dst):
    """(c, f, g) per basis ladder f (x) g of Hom(src -> dst) of the regular
    ladder category: middle simples in label order, f major."""
    eng = src.mside.eng
    out = []
    for c in eng.data.simples:
        co = eng.simple_obj(c)
        fs = eng.hom_basis((src.m,), (dst.m, co))
        out += [(c, f, g) for f in fs for g in eng.hom_basis((co, src.n), (dst.n,))]
    return out


def _ref_terms(F):
    eng = F.src.mside.eng
    basis = _ref_basis(F.src, F.dst)
    assert len(basis) == len(F.z)
    return [(c, eng.scale(z, f), g) for z, (c, f, g) in zip(F.z, basis)]


def _ref_compose(L, terms2, terms1):
    """The terms of F o G on the endos of L, from those of F and G."""
    eng = L.mside.eng
    m3w, n1w = (L.m,), (L.n,)
    out = []
    for c2, f2, g2 in terms2:
        c2o = eng.simple_obj(c2)
        for c1, f1, g1 in terms1:
            c1o = eng.simple_obj(c1)
            fs = eng.compose(eng.whisker_right_obj(f2, c1o), f1)
            gs = eng.compose(g2, eng.whisker_left((c2o,), g1))
            for e in eng.support((c2o, c1o)):
                for nu in eng.hom_basis((eng.simple_obj(e),), (c2o, c1o)):
                    fe = eng.compose(eng.whisker_left(m3w, eng.dagger(nu)), fs)
                    out.append((e, fe, eng.compose(gs, eng.whisker_right(nu, n1w))))
    return out


def _ref_trace(L, terms):
    eng = L.mside.eng
    mw, nw = (L.m,), (L.n,)
    total = 0.0
    for j, f, g in terms:
        if j in eng.data.units:
            ju = eng.simple_obj(j)
            tm = L.mside.trace(eng.compose(eng.right_unitor(mw, ju), f))
            tn = L.nside.trace(eng.compose(g, eng.dagger(eng.left_unitor(ju, nw))))
            total += tm * tn / eng.udf.d(j)
    return complex(total)


def _ref_image(L, f, g):
    eng = L.mside.eng
    return eng.compose(eng.whisker_left((L.m,), g), eng.whisker_right(f, (L.n,)))


def _ref_act(L, terms):
    eng = L.mside.eng
    out = eng.zero((L.m, L.n), (L.m, L.n))
    for _, f, g in terms:
        out = eng.add(out, _ref_image(L, f, g))
    return out


def _close(a, b):
    return abs(a - b) <= 1e-12 * (1 + abs(b))


REFERENCE_CATEGORIES = {
    "ising": lambda: bundled.load("ising"),
    "fibonacci": lambda: bundled.load("fibonacci"),
    "gauged_ty_z3": lambda: fam.gauge(fam.ty_zn(3), np.random.default_rng(7)),
    "twisted_z4": lambda: fam.vec_zn(4, 1),
}


def _sum_ladder(mside, nside):
    """(1 + x) (x) (2 1 + x) for the first unit 1 and the last simple x:
    its channels hold more than one basis ladder, of unequal M and N
    dimensions."""
    eng = mside.eng
    u, x = eng.data.units[0], eng.data.simples[-1]
    return deligne.LadderObject(mside, nside, eng.obj({u: 1, x: 1}), eng.obj({u: 2, x: 1}))


# x (x) x = 1 + 2x has two vertices (x, x; x), so the vertex sum of
# deligne._compose_tensor has two terms; ladder_trace keeps only unit
# channels, so the action image is what sees it. It fails the pentagon,
# so it stays out of LAW_CATEGORIES
KEYED_CATEGORIES = {**REFERENCE_CATEGORIES, "multiplicity_two": lambda: _multiplicity_two(DFT5, ROT)}


def _reference_engine(name):
    data = KEYED_CATEGORIES[name]()
    return Engine(data, udf_from_weight(data, SphericalWeight((1.0,))))


@pytest.mark.parametrize("name", list(KEYED_CATEGORIES))
def test_keyed_terms_agree_with_the_mor_reference(name):
    eng = _reference_engine(name)
    data = eng.data
    simples = [eng.simple_obj(c) for c in data.simples]
    mside, nside = deligne.RegularRight(eng), deligne.RegularLeft(eng)
    for seed in (0, 1, 2):
        # the draws of right_action_isometry at samples=1, one per (m, c)
        rng = np.random.default_rng(seed)
        ref_gaps = []
        for m in simples:
            for c in simples:
                L = deligne.LadderObject(mside, nside, m, c)
                if deligne.ladder_hom_dim(L, L) == 0:
                    continue
                F = deligne.random_ladder(L, L, rng)
                ref = _ref_terms(F)
                ref_trace = _ref_trace(L, ref)
                assert _close(deligne.ladder_trace(F), ref_trace)
                act, ref_act = deligne.act_on_module(F), _ref_act(L, ref)
                assert eng.residual(act, ref_act) <= 1e-12 * (1 + eng.l2_norm(ref_act))
                ref_gaps.append(abs(ref_trace - mside.trace(ref_act)))
        cert = deligne.right_action_isometry(mside, eng, simples, samples=1, seed=seed)
        assert _close(cert.residuals["action_trace_gap"], max(ref_gaps))
        rng = np.random.default_rng(seed)
        for L in [*(deligne.LadderObject(mside, nside, c, c) for c in simples), _sum_ladder(mside, nside)]:
            F, G = deligne.random_ladder(L, L, rng), deligne.random_ladder(L, L, rng)
            FG, ref = deligne.ladder_compose(F, G), _ref_compose(L, _ref_terms(F), _ref_terms(G))
            assert _close(deligne.ladder_trace(FG), _ref_trace(L, ref))
            act, ref_act = deligne.act_on_module(FG), _ref_act(L, ref)
            assert eng.residual(act, ref_act) <= 1e-12 * (1 + eng.l2_norm(ref_act))


LAW_CATEGORIES = {**REFERENCE_CATEGORIES, "m2_hilb": lambda: bundled.load("m2_hilb")}


@pytest.mark.parametrize("name", list(LAW_CATEGORIES))
def test_ladder_category_laws(name):
    # identities are units on both sides, composition is associative, and
    # the action functor sends the identity ladder to the identity, on
    # every hom space between ladder objects a (x) b of composable simples
    # and the sum ladder
    data = LAW_CATEGORIES[name]()
    eng = Engine(data, udf_from_weight(data, SphericalWeight((1.0, 2.0)[: len(data.units)])))
    mside, nside = deligne.RegularRight(eng), deligne.RegularLeft(eng)
    objects = [
        deligne.LadderObject(mside, nside, eng.simple_obj(a), eng.simple_obj(b))
        for a in data.simples
        for b in data.simples
        if data.t(a) == data.s(b)
    ]
    objects.append(_sum_ladder(mside, nside))
    rng = np.random.default_rng(0)
    for X in objects:
        ident = deligne.identity_ladder(X)
        assert eng.residual(deligne.act_on_module(ident), eng.identity((X.m, X.n))) <= 1e-13
        for Y in objects:
            F, H = deligne.random_ladder(X, Y, rng), deligne.random_ladder(X, Y, rng)
            G = deligne.random_ladder(Y, X, rng)
            for FI in (
                deligne.ladder_compose(deligne.identity_ladder(Y), F),
                deligne.ladder_compose(F, ident),
            ):
                assert np.abs(FI.z - F.z).max(initial=0) <= 1e-13
            lhs = deligne.ladder_compose(deligne.ladder_compose(F, G), H).z
            rhs = deligne.ladder_compose(F, deligne.ladder_compose(G, H)).z
            assert np.abs(lhs - rhs).max(initial=0) <= 1e-13 * (1 + np.abs(rhs).max(initial=0))


# --- the per-sample reference ---------------------------------------------
# The right-action check as it was before it became a linear form: each
# sample is a ladder of its own, and the action image of each of its basis
# ladders is traced before the coefficient scales it. Traciality is
# compared with ladder_compose and ladder_trace on every pair of basis
# ladders (diagram_reference.ladder_traciality).


def _per_sample_right_action(mside, eng, m_objects, samples, seed, tol=DEFAULT_TOL):
    nside = deligne.RegularLeft(eng)
    rng = np.random.default_rng(seed)
    gaps = []
    for m in m_objects:
        for c in eng.data.simples:
            L = deligne.LadderObject(mside, nside, m, eng.simple_obj(c))
            if deligne.ladder_hom_dim(L, L) == 0:
                continue
            for _ in range(samples):
                F = deligne.random_ladder(L, L, rng)
                t1 = deligne.ladder_trace(F)
                t2 = sum(z * mside.trace(_ref_image(L, f, g)) for z, (_, f, g) in zip(F.z, _ref_basis(L, L)))
                gaps.append(abs(t1 - t2))
    details = {"samples": len(gaps)}
    return bounded("action_trace_gap", worst(gaps), tol.bound(), "right-action isometry", details)


def _same_certificate(cert, ref):
    assert (cert.ok, cert.failed_axiom, cert.details) == (ref.ok, ref.failed_axiom, ref.details)
    assert cert.residuals.keys() == ref.residuals.keys()
    for key, value in ref.residuals.items():
        assert abs(cert.residuals[key] - value) <= 1e-13, (key, cert.residuals[key], value)


def _skewed_trace(self, f):
    # a trace off by an amount per charge: both identities fail by O(1),
    # so the coefficients of the forms show in the residuals
    return self.eng.categorical_trace(f) + 0.25 * sum(1 + self.eng.data.index[c] for c in f.blocks)


@pytest.mark.parametrize("skewed", [False, True], ids=["trace", "skewed_trace"])
@pytest.mark.parametrize("name", list(REFERENCE_CATEGORIES))
def test_sampled_forms_agree_with_the_per_sample_checks(name, skewed, monkeypatch):
    if skewed:
        monkeypatch.setattr(deligne.RegularRight, "trace", _skewed_trace)
    eng = _reference_engine(name)
    mside = deligne.RegularRight(eng)
    simples = [eng.simple_obj(c) for c in eng.data.simples]
    for seed in (0, 1, 2):
        _same_certificate(
            deligne.right_action_isometry(mside, eng, simples, samples=3, seed=seed),
            _per_sample_right_action(mside, eng, simples, 3, seed),
        )
    _same_certificate(deligne.ladder_traciality(eng), diagram_reference.ladder_traciality(eng))


@pytest.mark.parametrize("name", list(REFERENCE_CATEGORIES))
def test_batched_draw_is_the_draw_of_random_ladder(name):
    eng = _reference_engine(name)
    for c in eng.data.simples:
        L = _regular_ladder(eng, c, c)
        rng = np.random.default_rng(9)
        drawn = [deligne.random_ladder(L, L, rng).z for _ in range(4)]
        batched = deligne._coefficients(np.random.default_rng(9), (4, deligne.ladder_hom_dim(L, L)))
        assert np.array_equal(batched, np.array(drawn))


# --- the one-draw-per-object reference --------------------------------------
# The right-action check as it was before it drew all its samples at
# once: one _coefficients call per ladder object, in turn, against the
# same kept forms.


def _per_object_right_action(mside, eng, m_objects, samples, seed):
    nside = deligne.RegularLeft(eng)
    rng = np.random.default_rng(seed)
    gaps = []
    for m in m_objects:
        for c in eng.data.simples:
            L = deligne.LadderObject(mside, nside, m, eng.simple_obj(c))
            if deligne.ladder_hom_dim(L, L) == 0:
                continue
            w, v = np.array([deligne._trace_vector(L), [mside.trace(a) for a in deligne._images(L, L)]])
            z = deligne._coefficients(rng, (samples, len(w)))
            gaps += np.abs(z @ w - z @ v).tolist()
    return bounded("action_trace_gap", worst(gaps), eng.tol.bound(), "right-action isometry", {"samples": len(gaps)})


ONE_DRAW_CATEGORIES = {
    "hilb_z2": lambda: bundled.load("hilb_z2"),
    "fibonacci": lambda: bundled.load("fibonacci"),
    "ising": lambda: bundled.load("ising"),
    "gauged_ty_z3": lambda: fam.gauge(fam.ty_zn(3), np.random.default_rng(7)),
    "twisted_z4": lambda: fam.vec_zn(4, 1),
}


@pytest.mark.parametrize("skewed", [False, True], ids=["trace", "skewed_trace"])
@pytest.mark.parametrize("name", list(ONE_DRAW_CATEGORIES))
def test_one_draw_is_the_stream_of_one_draw_per_object(name, skewed, monkeypatch):
    # the normal stream is sequential, so slicing one draw changes no
    # coefficient and no rounding: the residuals are the same to the bit
    if skewed:
        monkeypatch.setattr(deligne.RegularRight, "trace", _skewed_trace)
    data = ONE_DRAW_CATEGORIES[name]()
    eng = Engine(data, udf_from_weight(data, SphericalWeight((1.0,))))
    mside = deligne.RegularRight(eng)
    simples = [eng.simple_obj(c) for c in data.simples]
    for seed in (0, 1, 2):
        for samples in (1, 2, 5):
            cert = deligne.right_action_isometry(mside, eng, simples, samples=samples, seed=seed)
            ref = _per_object_right_action(mside, eng, simples, samples, seed)
            assert repr(cert.residuals) == repr(ref.residuals), (seed, samples)
            assert (cert.ok, cert.details) == (ref.ok, ref.details)


# every bundled category and the benchmark's gauged twisted Vec(Z_8) and TY(Z_5)
PER_FORM_CATEGORIES = {
    **{name: lambda name=name: bundled.load(name) for name in bundled.NAMES},
    "gauged_twisted_z8": lambda: fam.gauge(fam.vec_zn(8, 3), np.random.default_rng(8)),
    "gauged_ty_z5": lambda: fam.gauge(fam.ty_zn(5, -1), np.random.default_rng(8)),
}


@pytest.mark.parametrize("name", list(PER_FORM_CATEGORIES))
def test_stacked_checks_are_the_per_form_checks_to_the_bit(name):
    # one stack per form length, gathered from the one draw, against one
    # product per form of the re + 1j * im draw: equal certificates; and
    # traciality off the kept forms against every pair of basis ladders
    data = PER_FORM_CATEGORIES[name]()
    eng = Engine(data, udf_from_weight(data, SphericalWeight(tuple(1.0 for _ in data.units))))
    mside = deligne.RegularRight(eng)
    simples = [eng.simple_obj(c) for c in data.simples]
    for seed in range(10):
        got = deligne._coefficients(np.random.default_rng(seed), (3, 2, 7))
        assert got.tobytes() == diagram_reference.coefficients(np.random.default_rng(seed), (3, 2, 7)).tobytes()
        cert = deligne.right_action_isometry(mside, eng, simples, samples=5, seed=seed)
        assert repr(cert) == repr(diagram_reference.right_action_isometry(mside, eng, simples, 5, seed)), seed
    _same_certificate(deligne.ladder_traciality(eng), diagram_reference.ladder_traciality(eng))

