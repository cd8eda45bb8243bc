"""End-to-end acceptance checks. Each test prints one pass/fail line."""

import numpy as np

from hstarcat import bundled, deligne, hilb2, hilb3, hstar1, intalg
from hstarcat.diagram import Engine
from hstarcat.fusion import (
    SphericalWeight,
    loop_eval,
    renorm_scalar,
    udf_from_weight,
    validate,
)
from hstarcat.hilb2 import DagFunctor, TwoHilbertSpace


def _report(num, name, ok, detail=""):
    line = f"criterion {num:02d} [{name}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _eng(name, psis=None):
    data = bundled.load(name)
    psi = SphericalWeight(psis if psis else tuple(1.0 for _ in data.units))
    return Engine(data, udf_from_weight(data, psi))


def _bundled_algebras():
    out = []
    for name, mk in [
        ("hilb", lambda e: intalg.group_algebra(e, ("1",))),
        ("hilb_z2", lambda e: intalg.group_algebra(e, ("1", "g"))),
        ("ising", lambda e: intalg.group_algebra(e, ("1", "p"))),
        ("fibonacci", lambda e: intalg.pair_algebra(e, e.obj({"t": 1}))),
    ]:
        eng = _eng(name)
        out.append((name, mk(eng)))
    return out


def test_criterion_01_gns_module_trace_law():
    rng = np.random.default_rng(100)
    worst = 0.0
    for k in range(10):
        nblocks = int(rng.integers(1, 4))
        sizes = tuple(int(s) for s in rng.integers(1, 5, nblocks))
        weights = tuple(float(w) for w in rng.uniform(0.2, 3.0, nblocks))
        cert = hstar1.verify_hstar_algebra(sizes, weights)
        assert cert.ok, cert.residuals
        A = hstar1.HStarAlgebra(sizes, weights)
        for mod in (
            hstar1.gns(A),
            hstar1.HStarModuleRep(A, tuple(int(m) for m in rng.integers(0, 4, nblocks)) or (1,)),
        ):
            if mod.dim == 0:
                continue
            worst = max(worst, hstar1.module_trace_law_residual(mod, seed=k))
    _report(1, "GNS and module trace law", worst < 1e-9, f"residual {worst:.2e}")


def test_criterion_02_two_hilbert_round_trip():
    rng = np.random.default_rng(200)
    worst = 0.0
    for k in range(10):
        n = int(rng.integers(1, 5))
        dims = tuple(float(d) for d in rng.uniform(0.1, 10.0, n))
        sp = TwoHilbertSpace(tuple(f"s{i}" for i in range(n)), dims)
        recovered, cert = hilb2.round_trip(sp)
        assert cert.ok, cert.residuals
        got = [recovered.udf.d(s) for s in recovered.data.simples]
        worst = max(worst, max(abs(a - b) for a, b in zip(got, dims)))
    _report(2, "2-Hilbert round trip", worst < 1e-9, f"dim gap {worst:.2e}")


def test_criterion_03_mate_unitarity_and_yoneda():
    rng = np.random.default_rng(300)
    worst = 0.0
    for _ in range(20):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        src = TwoHilbertSpace(
            tuple(f"a{i}" for i in range(n)),
            tuple(float(d) for d in rng.uniform(0.3, 4.0, n)),
        )
        tgt = TwoHilbertSpace(
            tuple(f"b{i}" for i in range(m)),
            tuple(float(d) for d in rng.uniform(0.3, 4.0, m)),
        )
        mat = tuple(
            tuple(int(x) for x in rng.integers(0, 3, n)) for _ in range(m)
        )
        if not any(any(r) for r in mat):
            mat = ((1,) + (0,) * (n - 1),) + mat[1:]
        F = DagFunctor(src, tgt, mat)
        _, cert = hilb2.unitary_adjoint(F)
        worst = max(worst, cert.residuals["mate_gram_defect"])
    yworst = 0.0
    rng2 = np.random.default_rng(301)
    for _ in range(10):
        sp = TwoHilbertSpace(
            ("x", "y", "z"), tuple(float(d) for d in rng2.uniform(0.3, 4.0, 3))
        )
        c = sp.obj(tuple(int(x) for x in rng2.integers(1, 4, 3)))
        _, cert = hilb2.yoneda_decompose(sp, c)
        yworst = max(yworst, cert.residuals["gram_defect"])
    _report(
        3,
        "mate unitarity and Yoneda",
        worst < 1e-9 and yworst < 1e-9,
        f"mate {worst:.2e} yoneda {yworst:.2e}",
    )


def test_criterion_04_fusion_validation():
    pent = fu = 0.0
    for name in bundled.NAMES:
        cert = validate(bundled.load(name))
        assert cert.ok, (name, cert.residuals)
        pent = max(pent, cert.residuals["pentagon"])
        fu = max(fu, cert.residuals["f_unitarity"])
    _report(
        4,
        "fusion validation",
        pent < 1e-8 and fu < 1e-10,
        f"pentagon {pent:.2e} unitarity {fu:.2e}",
    )


def test_criterion_05_loop_evaluations():
    rng = np.random.default_rng(500)
    worst = 0.0
    for name in bundled.NAMES:
        data = bundled.load(name)
        psis = [tuple(rng.uniform(0.2, 3.0, len(data.units))) for _ in range(5)]
        if name == "m2_hilb":
            psis.append((1.0, 4.0))  # explicit non-uniform weight
        for p in psis:
            udf = udf_from_weight(data, SphericalWeight(p))
            for c in data.simples:
                worst = max(
                    worst,
                    abs(loop_eval(udf, c, "L") - udf.d(c) / udf.d(data.s(c))),
                    abs(loop_eval(udf, c, "R") - udf.d(c) / udf.d(data.t(c))),
                )
    _report(5, "loop evaluations match dims", worst < 1e-9, f"gap {worst:.2e}")


def test_criterion_06_renormalization_scalar():
    rng = np.random.default_rng(600)
    worst = 0.0
    for name in bundled.NAMES:
        data = bundled.load(name)
        for _ in range(3):
            psi = SphericalWeight(tuple(rng.uniform(0.3, 2.5, len(data.units))))
            v, _ = renorm_scalar(udf_from_weight(data, psi))
            for units, simples in data.components():
                k = len(units)
                psi_id = sum(psi.of_unit(data, u) for u in units)
                expected = data.fpdim_total(simples) * psi_id / (k * k)
                for u in units:
                    worst = max(worst, abs(v[u] - expected))
                vals = [v[u] for u in units]
                worst = max(worst, max(abs(x - vals[0]) for x in vals))
    _report(6, "renormalization scalar", worst < 1e-9, f"gap {worst:.2e}")


def test_criterion_07_standardization():
    worst = 0.0
    for name, labels in [("ising", ("1", "p")), ("hilb_z2", ("1", "g"))]:
        eng = _eng(name)
        S = intalg.standardize(intalg.group_algebra(eng, labels))
        worst = max(
            worst,
            eng.residual(
                eng.compose(S.mu, eng.dagger(S.mu)), eng.identity(S.word)
            ),
        )
        assert intalg.verify_hstar(S).ok
    _report(7, "standardization", worst < 1e-9, f"specialness {worst:.2e}")


def test_criterion_08_internal_end_recognition():
    worst = 0.0
    for name, A in _bundled_algebras():
        worst = max(worst, intalg.internal_end_comparison(A))
    _report(8, "internal-end recognition", worst < 1e-8, f"defect {worst:.2e}")


def test_criterion_09_module_trace_formula():
    worst = 0.0
    for name, A in _bundled_algebras():
        eng = A.eng
        free_label = eng.data.simples[-1]
        one = intalg.group_algebra(eng, eng.data.units)
        M = intalg.free_bimodule(one, free_label, A)  # the free right module
        # the module trace is linear: traciality on every pair of basis maps
        basis = M.homs(M)
        for f in basis:
            for g in basis:
                t1 = intalg.module_trace(M, eng.compose(f, g))
                t2 = intalg.module_trace(M, eng.compose(g, f))
                worst = max(worst, abs(t1 - t2) / max(1.0, abs(t1)))
        r = intalg.right_retraction(M)
        worst = max(
            worst,
            eng.residual(eng.compose(r, eng.dagger(r)), eng.identity(M.word)),
        )
    _report(9, "module category trace", worst < 1e-9, f"residual {worst:.2e}")


def test_criterion_10_delta0_adjunction():
    worst = zz = 0.0
    for name in ("fibonacci", "ising"):
        eng = _eng(name)
        A = intalg.group_algebra(eng, ("1",))
        if name == "fibonacci":
            B = intalg.pair_algebra(eng, eng.obj({"t": 1}))
        else:
            B = intalg.group_algebra(eng, ("1", "p"))
        M = intalg.free_bimodule(A, "1", B)
        Md, ev0, coev0 = intalg.dual_bimodule_delta0(M)
        r1, r2 = intalg.delta0_zigzag_residuals(M, Md, ev0, coev0)
        zz = max(zz, r1, r2)
        # right modules as bimodules over the tensor unit A = 1
        N = intalg.free_bimodule(A, eng.data.simples[-1], A)
        P = intalg.free_bimodule(A, "1", B)
        w, (z1, z2) = intalg.delta0_norm_identity(N, M, P)
        worst = max(worst, w)
        zz = max(zz, z1, z2)
    _report(
        10,
        "delta=0 adjunction norms",
        worst < 1e-9 and zz < 1e-9,
        f"norm {worst:.2e} zigzag {zz:.2e}",
    )


def test_criterion_11_ladder_trace():
    worst_trac = worst_dim = 0.0
    eng = _eng("ising", (0.9,))
    rng = np.random.default_rng(1100)
    L = deligne.LadderObject(
        deligne.RegularRight(eng),
        deligne.RegularLeft(eng),
        eng.simple_obj("s"),
        eng.simple_obj("s"),
    )
    for _ in range(10):
        F = deligne.random_ladder(L, L, rng)
        G = deligne.random_ladder(L, L, rng)
        t1 = deligne.ladder_trace(deligne.ladder_compose(F, G))
        t2 = deligne.ladder_trace(deligne.ladder_compose(G, F))
        worst_trac = max(worst_trac, abs(t1 - t2) / max(1.0, abs(t1)))
    for name, psis in [("fibonacci", None), ("m2_hilb", (1.0, 2.0))]:
        e = _eng(name, psis)
        for a in e.data.simples:
            for b in e.data.simples:
                if e.data.t(a) != e.data.s(b):
                    continue
                Lab = deligne.LadderObject(
                    deligne.RegularRight(e),
                    deligne.RegularLeft(e),
                    e.simple_obj(a),
                    e.simple_obj(b),
                )
                tr = deligne.ladder_trace(deligne.identity_ladder(Lab)).real
                expected = e.udf.d(a) * e.udf.d(b) / e.udf.d(e.data.t(a))
                worst_dim = max(worst_dim, abs(tr - expected))
    certs_ok = True
    for name in ("hilb_z2", "fibonacci", "ising"):
        e = _eng(name)
        cert = deligne.right_action_isometry(
            deligne.RegularRight(e),
            e,
            [e.simple_obj(c) for c in e.data.simples],
            samples=5,
        )
        certs_ok = certs_ok and cert.ok
    _report(
        11,
        "relative Deligne ladder trace",
        worst_trac < 1e-9 and worst_dim < 1e-9 and certs_ok,
        f"traciality {worst_trac:.2e} dim gap {worst_dim:.2e}",
    )


def test_criterion_12_completions():
    res = add = 0.0
    for name in ("hilb_z2", "ising"):
        eng = _eng(name)
        X = hilb3.hilbert_sum_completion(hilb3.delooping(eng))
        parts = [hilb3.DeloopObject(u) for u in eng.data.units]
        S = hilb3.sum_object(X, parts + parts[:1])
        cert = hilb3.certify_hilbert_sum(X, S)
        res = max(res, cert.residuals["resolution"])
        add = max(add, cert.residuals["additivity"])
    sph = 0.0
    umax = 0.0
    for name, A in _bundled_algebras():
        eng = A.eng
        X = hilb3.hstar_monad_completion(hilb3.delooping(eng), [A])
        cert = hilb3.presentation_sphericality(X)
        sph = max(sph, max(cert.residuals.values()))
        sp = hilb3.split_monad(A)
        assert sp.certificate.ok, (name, sp.certificate.residuals)
        umax = max(umax, sp.certificate.residuals["u_unitarity"])
    _report(
        12,
        "completions",
        res < 1e-10 and add < 1e-9 and sph < 1e-9 and umax < 1e-8,
        f"resolution {res:.2e} additivity {add:.2e} sphericality {sph:.2e} u {umax:.2e}",
    )


def test_criterion_13_weight_comparison():
    worst = 0.0
    for name in ("hilb", "hilb_z2", "fibonacci", "ising"):
        data = bundled.load(name)
        psi = SphericalWeight(tuple(1.0 for _ in data.units))
        cert = hilb3.theorem_b_check(data, psi)
        assert cert.ok, (name, cert.residuals)
        worst = max(worst, cert.residuals["gap"])
        assert abs(cert.details["monad"] - cert.details["psi_1"]) < 1e-9
        assert abs(cert.details["modules"] - cert.details["psi_1"]) < 1e-9
    _report(13, "weight comparison across models", worst < 1e-9, f"gap {worst:.2e}")


def test_criterion_14_uaf_uniqueness():
    eng = _eng("fibonacci")
    rng = np.random.default_rng(1400)
    phases = {c: np.exp(1j * rng.uniform(0, 2 * np.pi)) for c in eng.data.simples}
    cert = hilb3.uaf_uniqueness_check(
        eng, hilb3.canonical_uaf(eng), hilb3.gauge_uaf(eng, phases)
    )
    worst = max(cert.residuals.values())
    _report(14, "duality data uniqueness", cert.ok and worst < 1e-9, f"zeta {worst:.2e}")


def test_criterion_15_negative_controls():
    eng = _eng("hilb_z3")
    c1 = intalg.verify_hstar(intalg.group_algebra(eng, ("1", "g")))
    ok1 = (not c1.ok) and c1.failed_axiom is not None
    c2 = validate(bundled.load("fibonacci_corrupt", trust=True))
    ok2 = (not c2.ok) and c2.failed_axiom == "pentagon"
    c3 = hstar1.verify_hstar_algebra((2,), functional=[np.diag([1.0, 2.0])])
    ok3 = (not c3.ok) and c3.failed_axiom == "traciality"
    _report(
        15,
        "negative controls",
        ok1 and ok2 and ok3,
        f"axioms: {c1.failed_axiom}, {c2.failed_axiom}, {c3.failed_axiom}",
    )
