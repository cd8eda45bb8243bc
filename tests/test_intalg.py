import itertools

import numpy as np
import pytest

import diagram_reference
import solve_reference as ref
from bench_families import fam
from hstarcat import bundled, hilb3, intalg
from hstarcat.diagram import Engine, Mor
from hstarcat.fusion import FusionData, SphericalWeight, dual_engine, udf_from_weight
from hstarcat.numcore import RANK_CUT, InputError, ShapeMismatch, Tolerance, row_space

PHI = (1 + np.sqrt(5)) / 2


def _eng(name, psis=None):
    data = bundled.load(name)
    psi = SphericalWeight(psis if psis else tuple(1.0 for _ in data.units))
    return Engine(data, udf_from_weight(data, psi))


def _free_module(A, c):
    """The free right A-module c (x) A, as the free bimodule 1 (x) c (x) A
    over the tensor unit 1."""
    one = intalg.group_algebra(A.eng, A.eng.data.units)
    return intalg.free_bimodule(one, c, A)


def test_endo_power_reads_the_engine_tolerance():
    # the Hermitian check on a bubble power runs at the engine's tolerance:
    # a 1e-7 anti-Hermitian part fails at 1e-12 and passes at 1e-3
    data = bundled.load("hilb_z2")
    rng = np.random.default_rng(0)
    K = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    block = np.eye(2) + 1e-7 * (K - K.conj().T)

    def power(eps):
        eng = dual_engine(data, SphericalWeight((1.0,)), Tolerance(eps))
        O = eng.obj({"1": 2})
        return intalg.endo_power(eng, eng.mor((O,), (O,), {"1": block}), 0.5)

    with pytest.raises(InputError, match="non-hermitian"):
        power(1e-12)
    power(1e-3)


def test_seed_is_keyword_only_where_tol_was():
    # a stale positional tolerance is a TypeError, not a silent seed
    eng = _eng("ising")
    A = intalg.group_algebra(eng, ("1",))
    with pytest.raises(TypeError):
        intalg.verify_hstar(A, Tolerance(1e-3))
    with pytest.raises(TypeError):
        intalg.module_category(eng, A, Tolerance(1e-3))


def test_trivial_algebra_is_hstar():
    eng = _eng("ising")
    cert = intalg.verify_hstar(intalg.group_algebra(eng, ("1",)))
    assert cert.ok


def test_group_algebra_z2():
    eng = _eng("hilb_z2")
    A = intalg.group_algebra(eng, ("1", "g"))
    cert = intalg.verify_hstar(A)
    assert cert.ok
    # bubble of the convolution algebra is |G| id
    assert eng.residual(A.bubble, eng.scale(2.0, eng.identity(A.word))) < 1e-12


def test_ising_qsystem():
    eng = _eng("ising")
    A = intalg.group_algebra(eng, ("1", "p"))
    cert = intalg.verify_hstar(A)
    assert cert.ok


def test_non_closed_set_rejected():
    # 1 + g inside Hilb[Z/3]: g (x) g = h leaves the set, so the candidate
    # multiplication is not unital/associative as an algebra on 1 + g
    eng = _eng("hilb_z3")
    A = intalg.group_algebra(eng, ("1", "g"))
    cert = intalg.verify_hstar(A)
    assert not cert.ok
    assert cert.failed_axiom is not None


def test_pair_algebra_and_standardize():
    for name, obj in [("fibonacci", {"t": 1}), ("ising", {"1": 1, "s": 1})]:
        eng = _eng(name)
        A = intalg.pair_algebra(eng, eng.obj(obj))
        assert intalg.verify_hstar(A).ok
        S = intalg.standardize(A)
        special = eng.residual(
            eng.compose(S.mu, eng.dagger(S.mu)), eng.identity(S.word)
        )
        assert special < 1e-9
        assert intalg.verify_hstar(S).ok


def test_module_category_counts_and_dims():
    eng = _eng("hilb_z2")
    A = intalg.group_algebra(eng, ("1", "g"))
    mc = intalg.module_category(eng, A)
    assert len(mc.simples) == 1
    assert mc.dims[0] == pytest.approx(1.0)
    # Ising with A = 1 + p: three simples, sum d^2 = FPdim(C)/FPdim(A) = 2
    eng = _eng("ising")
    A = intalg.group_algebra(eng, ("1", "p"))
    mc = intalg.module_category(eng, A)
    assert len(mc.simples) == 3
    assert sum(d * d for d in mc.dims) == pytest.approx(2.0)


def test_summand_classes_take_no_homs_between_objects(monkeypatch):
    # simple bimodules on different objects are never isomorphic, so
    # neither summand_classes nor the linking's unit de-duplication asks
    # for a hom space between two of them
    eng = _eng("ising")
    A = intalg.group_algebra(eng, ("1", "p"))
    calls = []
    homs = intalg.Bimodule.homs

    def recording(self, other):
        calls.append((self.obj, other.obj))
        return homs(self, other)

    monkeypatch.setattr(intalg.Bimodule, "homs", recording)
    found = intalg.summand_classes(intalg.free_bimodules(A, A).values())
    assert len({M.obj for M in found}) > 1
    assert calls and all(a == b for a, b in calls)
    calls.clear()
    hilb3._LinkingBuilder(eng, [A, intalg.group_algebra(eng, ("1",))], seed=0)
    assert calls and all(a == b for a, b in calls)


def test_module_trace_traciality_and_retraction():
    eng = _eng("fibonacci")
    A = intalg.pair_algebra(eng, eng.obj({"t": 1}))
    M = _free_module(A, "t")
    # the module trace is linear, so traciality on every pair of basis maps
    basis = M.homs(M)
    assert len(basis) > 1
    for f in basis:
        for g in basis:
            t1 = intalg.module_trace(M, eng.compose(f, g))
            t2 = intalg.module_trace(M, eng.compose(g, f))
            assert abs(t1 - t2) < 1e-9 * max(1.0, abs(t1))
    r = intalg.right_retraction(M)
    assert (
        eng.residual(eng.compose(r, eng.dagger(r)), eng.identity(M.word)) < 1e-9
    )


def test_trace_alg_end_matches_psi():
    eng = _eng("hilb_z2", (1.7,))
    A = intalg.group_algebra(eng, ("1", "g"))
    val = diagram_reference.trace_alg_end(A, eng.identity(A.word)).real
    # iota is the unit inclusion: Tr(id) = psi(iota^dag iota) = psi_1
    assert val == pytest.approx(1.7)


MODULE_TRACE_CASES = [
    ("ising", None, ("1", "p")),
    ("fibonacci", None, {"t": 1}),
    ("hilb_z2", None, ("1", "g")),
    *(("m2_hilb", psi, (u,)) for psi in ((1.0, 4.0), (0.3, 2.5)) for u in ("11", "22")),
]


@pytest.mark.parametrize("name, psi, labels", MODULE_TRACE_CASES)
def test_module_trace_matches_the_dual_closure(name, psi, labels):
    # the closed loop of the dressed action is the dual closure of the
    # module by the interchange law: the same value on every simple and
    # free module of ising_qsystem, fibonacci_pair, hilb_z2_group and the
    # unit algebras of m2_hilb, for the identity and for random f
    eng = _eng(name, psi)
    A = (intalg.pair_algebra(eng, eng.obj(labels)) if isinstance(labels, dict)
         else intalg.group_algebra(eng, labels))
    modules = intalg.module_category(eng, A).simples
    modules += intalg.free_bimodules(intalg.group_algebra(eng, eng.data.units), A).values()
    rng = np.random.default_rng(11)
    for M in modules:
        for f in (eng.identity(M.word), eng.random_mor(M.word, M.word, rng)):
            want = diagram_reference.module_trace(M, f)
            assert abs(intalg.module_trace(M, f) - want) <= 1e-13 * (1 + abs(want))


def test_module_trace_fails_closed():
    eng = _eng("ising")
    A = intalg.group_algebra(eng, ("1", "p"))
    M = _free_module(A, "s")
    other = (eng.simple_obj("1"),)
    for f in (eng.zero(other, M.word), eng.zero(M.word, other)):
        with pytest.raises(ShapeMismatch):
            intalg.module_trace(M, f)
    ident = eng.identity(M.word)
    c, b = next(iter(ident.blocks.items()))
    f = Mor(M.word, M.word, {**ident.blocks, c: np.full(b.shape, np.nan, dtype=complex)})
    assert np.isnan(intalg.module_trace(M, f))


def test_nan_module_dimension_rejects(monkeypatch):
    # a NaN power of the bubble reaches every module dimension through the
    # closed loop, and the positivity margin REJECTs on it
    eng = _eng("ising")
    power = intalg.AlgebraObject.bubble_pow
    monkeypatch.setattr(
        intalg.AlgebraObject, "bubble_pow", lambda A, r: eng.scale(np.nan, power(A, r))
    )
    mc = intalg.module_category(eng, intalg.group_algebra(eng, ("1", "p")))
    assert all(np.isnan(d) for d in mc.dims)
    assert (mc.certificate.ok, mc.certificate.failed_axiom) == (False, "module-dimension positivity")


@pytest.mark.parametrize("name", bundled.NAMES)
def test_unit_algebra_bubble_powers_are_the_shared_identity(monkeypatch, name):
    # the bubble of an algebra that acts by unitors is exactly the
    # identity: each power is endo_power's value to the bit, with the
    # data's read-only identity blocks, and endo_power is never reached
    eng = _eng(name)
    data = eng.data
    for labels in (data.units, *((u,) for u in data.units)):
        A = intalg.group_algebra(eng, labels)
        assert A.acts_by_unitors()
        for r in (-1.0, -0.5, 0.5):
            want = intalg.endo_power(eng, A.bubble, r)
            got = A.bubble_pow(r)
            assert (got.dom, got.cod, got.blocks.keys()) == (want.dom, want.cod, want.blocks.keys())
            for c, b in got.blocks.items():
                assert b.dtype == want.blocks[c].dtype and b.tobytes() == want.blocks[c].tobytes()
                assert data.is_eye(b)
                with pytest.raises(ValueError):
                    b[0, 0] = 2.0
    seen = []
    monkeypatch.setattr(intalg, "endo_power", lambda e, f, r: seen.append(r))
    intalg.group_algebra(eng, data.units).bubble_pow(0.5)
    assert seen == []


def test_other_bubble_powers_go_through_endo_power(monkeypatch):
    # the group algebra of Z_2 has bubble 2 id: its powers are eigh's, at
    # the engine's tolerance
    tol = Tolerance(1e-3)
    eng = dual_engine(bundled.load("hilb_z2"), SphericalWeight((1.0,)), tol)
    A = intalg.group_algebra(eng, ("1", "g"))
    assert not A.acts_by_unitors()
    half = A.bubble_pow(-0.5)
    assert eng.residual(half, eng.scale(2 ** -0.5, eng.identity(A.word))) < 1e-15
    assert not any(eng.data.is_eye(b) for b in half.blocks.values())
    seen, power = [], intalg.endo_power
    monkeypatch.setattr(intalg, "endo_power", lambda e, f, r: seen.append(e.tol) or power(e, f, r))
    A.bubble_pow(0.5)
    assert seen == [tol]


def test_internal_end_comparison():
    for name, mk in [
        ("hilb_z2", lambda e: intalg.group_algebra(e, ("1", "g"))),
        ("fibonacci", lambda e: intalg.pair_algebra(e, e.obj({"t": 1}))),
    ]:
        eng = _eng(name)
        assert intalg.internal_end_comparison(mk(eng)) < 1e-8


# the Ising [1+p, 1], Fibonacci [t t*, 1] and TY(Z_3) [Z_3, 1] linkings
LINKINGS = [
    ("ising", lambda e: intalg.group_algebra(e, ("1", "p")), "1"),
    ("fibonacci", lambda e: intalg.pair_algebra(e, e.obj({"t": 1})), "1"),
    ("ty3", lambda e: intalg.group_algebra(e, ("0", "1", "2")), "0"),
]


def test_relative_tensor_unitors():
    # every composable pair of a linking's simples: the split V of p is an
    # isometry onto p, and on a unit factor V V^dag fixes the dagger of
    # the other factor's retraction, whose composite with V is the unitor
    units = checked = 0
    for name, mk, unit in LINKINGS:
        data = fam.ty_zn(3) if name == "ty3" else bundled.load(name)
        eng = Engine(data, udf_from_weight(data, SphericalWeight((1.0,))))
        b = hilb3._LinkingBuilder(eng, [mk(eng), intalg.group_algebra(eng, (unit,))], seed=0)
        for x, y in itertools.product(range(len(b.simples)), repeat=2):
            if b.blocks[x][1] != b.blocks[y][0]:
                continue
            X, Y = b.simples[x], b.simples[y]
            T, Vw = intalg.relative_tensor(X, Y)
            p = intalg.separability_projection(X, Y)
            assert eng.residual(eng.compose(eng.dagger(Vw), Vw), eng.identity(T.word)) < 1e-13
            assert eng.residual(eng.compose(Vw, eng.dagger(Vw)), p) < 1e-13
            rets = [intalg.left_retraction(Y)] if x in b.units else []
            rets += [intalg.right_retraction(X)] if y in b.units else []
            units += bool(rets)
            for ret in rets:
                checked += 1
                fixed = eng.compose(Vw, eng.compose(eng.dagger(Vw), eng.dagger(ret)))
                assert eng.residual(fixed, eng.dagger(ret)) < 1e-13
                u = eng.compose(ret, Vw)
                assert eng.residual(eng.compose(u, eng.dagger(u)), eng.identity(u.cod)) < 1e-9
                assert eng.residual(eng.compose(eng.dagger(u), u), eng.identity(T.word)) < 1e-9
    # both unitors on the 6 unit-unit pairs A (x)_A A, one on the other 60
    assert (units, checked) == (66, 72)


def test_a_tensor_over_the_unit_algebra_splits_no_projection():
    # over the unit algebra relative_tensor takes the fused tensor with no
    # projection: for every pair tensor over it, in every linking, the
    # projection built anyway is the identity, and so is the V V^dag of
    # the isometry returned, whatever basis it picks
    checked = 0
    for name, mk, unit in LINKINGS + [("vec4", lambda e: intalg.group_algebra(e, ("0", "2")), "0")]:
        data = fam.vec_zn(4) if name == "vec4" else fam.ty_zn(3) if name == "ty3" else bundled.load(name)
        eng = Engine(data, udf_from_weight(data, SphericalWeight((1.0,))))
        b = hilb3._LinkingBuilder(eng, [mk(eng), intalg.group_algebra(eng, (unit,))], seed=0)
        for x, y in itertools.product(range(len(b.simples)), repeat=2):
            if b.blocks[x][1] != b.blocks[y][0] or not b.simples[x].right.acts_by_unitors():
                continue
            X, Y = b.simples[x], b.simples[y]
            _, Vw = intalg.relative_tensor(X, Y)
            p = intalg.separability_projection(X, Y)
            bound = eng.tol.bound()
            assert eng.residual(p, eng.identity(X.word + Y.word)) <= bound
            assert eng.residual(eng.compose(Vw, eng.dagger(Vw)), p) <= bound
            checked += 1
    # pairs over the unit algebra: 36 on Ising, 16 on Fibonacci, 36 on
    # Vec(Z_4) and 64 on TY(Z_3)
    assert checked == 152


def test_delta0_zigzag_and_norm():
    eng = _eng("fibonacci")
    A = intalg.group_algebra(eng, ("1",))
    B = intalg.pair_algebra(eng, eng.obj({"t": 1}))
    M = intalg.free_bimodule(A, "1", B)
    Md, ev0, coev0 = intalg.dual_bimodule_delta0(M)
    r1, r2 = intalg.delta0_zigzag_residuals(M, Md, ev0, coev0)
    assert max(r1, r2) < 1e-9
    worst, (z1, z2) = intalg.delta0_norm_identity(
        intalg.free_bimodule(A, "t", A), M, intalg.free_bimodule(A, "1", B)
    )
    assert worst < 1e-9
    assert max(z1, z2) < 1e-9


def _fibonacci_delta0():
    """N (x) M -> P over the unit algebra A and Fibonacci's pair algebra B."""
    eng = _eng("fibonacci")
    A = intalg.group_algebra(eng, ("1",))
    B = intalg.pair_algebra(eng, eng.obj({"t": 1}))
    return intalg.free_bimodule(A, "t", A), intalg.free_bimodule(A, "t", B), intalg.free_bimodule(A, "t", B)


def test_delta0_norm_identity_shows_a_rescaled_mate(monkeypatch):
    # a mate scaled by s scales its Gram matrix by s^2, so the gap is
    # (s^2 - 1) times the largest entry of that Gram matrix, which sits
    # on its diagonal: the gap at the worst basis map, not at a draw
    N, M, P = _fibonacci_delta0()
    eng, basis = N.eng, intalg.bimodule_map_basis(N, M, P)
    assert len(basis) > 1
    gap, zz = intalg.delta0_norm_identity(N, M, P)
    assert max(gap, *zz) < 1e-12
    coev0 = intalg.dual_bimodule_delta0(M)[2]
    diagonal = []
    for f in basis:
        g = intalg.mate_delta0(f, N, M, coev0)
        diagonal.append(intalg.module_trace(N, eng.compose(eng.dagger(g), g)).real)
    mate, s = intalg.mate_delta0, 1 + 1e-3
    monkeypatch.setattr(intalg, "mate_delta0", lambda *args: eng.scale(s, mate(*args)))
    gap, _ = intalg.delta0_norm_identity(N, M, P)
    assert gap == pytest.approx((s * s - 1) * max(diagonal), rel=1e-9)


def test_delta0_norm_identity_reads_the_zigzags_without_maps(monkeypatch):
    # N (x) M -> P has no bimodule map here, yet a broken dual must show
    # in the zig-zags: a doubled coev0 doubles both zig-zag composites
    eng = _eng("hilb_z2")
    A = intalg.group_algebra(eng, ("1",))
    one = intalg.group_algebra(eng, eng.data.units)
    N = intalg.free_bimodule(one, "g", A)
    M = intalg.free_bimodule(A, "1", A)
    P = intalg.free_bimodule(one, "1", A)
    assert not intalg.bimodule_map_basis(N, M, P)
    dual = intalg.dual_bimodule_delta0

    def doubled(M):
        Md, ev0, coev0 = dual(M)
        return Md, ev0, eng.scale(2.0, coev0)

    monkeypatch.setattr(intalg, "dual_bimodule_delta0", doubled)
    worst, zz = intalg.delta0_norm_identity(N, M, P)
    assert worst == 0.0
    assert zz == pytest.approx((1.0, 1.0))


def test_not_projection_raised():
    eng = _eng("hilb_z2")
    A = intalg.group_algebra(eng, ("1", "g"))
    M = intalg.algebra_bimodule(A)
    # break separability by scaling the action on the contracted side
    bad = intalg.Bimodule(A, A, M.obj, eng.scale(2.0, M.lam), M.rho)
    with pytest.raises(intalg.ConsistencyError):
        intalg.relative_tensor(M, bad)


def _tampered_pair_projection(monkeypatch, change):
    """pair_projection of the free bimodule A (x) 1 (x) A with itself,
    A = 1 + p on Ising, under a separability projection whose block at
    the charge 1 (8 x 8, rank 4, so ||p_1|| = 2 < ||p|| = 2 sqrt 2) is
    replaced by change(block)."""
    monkeypatch.undo()  # the tampering of an earlier call
    eng = _eng("ising")
    A = intalg.group_algebra(eng, ("1", "p"))
    M = intalg.free_bimodule(A, "1", A)
    real = intalg.separability_projection

    def tampered(X, Y):
        p = real(X, Y)
        return eng.mor(p.dom, p.cod, {**p.blocks, "1": change(p.blocks["1"])})

    monkeypatch.setattr(intalg, "separability_projection", tampered)
    return eng, lambda: intalg.pair_projection(M, M)


def test_pair_projection_raises_each_of_its_three_checks(monkeypatch):
    # the whole-map checks and the per-charge check read one pass of
    # gaps; each raises on its own, in their order
    eng, run = _tampered_pair_projection(monkeypatch, lambda b: b)
    p, ranks = run()
    assert ranks == {"1": 4, "p": 4}
    with pytest.raises(intalg.ConsistencyError, match="not idempotent"):
        _tampered_pair_projection(monkeypatch, lambda b: 2.0 * b)[1]()
    # oblique: P + P N (1 - P) is idempotent but not self-adjoint
    rng = np.random.default_rng(3)
    N = 0.5 * (rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    with pytest.raises(intalg.ConsistencyError, match="not self-adjoint"):
        _tampered_pair_projection(monkeypatch, lambda b: b + b @ N @ (np.eye(8) - b))[1]()
    # P + t id is self-adjoint, with idempotency gap t ||2P - 1|| = t sqrt 8
    # at the charge 1 alone: set between the per-charge bound, scaled by
    # max(1, ||p_1||) = 2, and the whole-map bound, scaled by ||p||, it
    # passes the whole map and fails the charge
    tol = eng.tol
    gap = (tol.bound(2.0) + tol.bound(eng.l2_norm(p))) / 2
    with pytest.raises(intalg.ConsistencyError, match="not an orthogonal projection"):
        _tampered_pair_projection(monkeypatch, lambda b: b + gap / np.sqrt(8.0) * np.eye(8))[1]()


def test_nan_in_mu_rejects_on_unitality():
    # the first axiom checked; the NaN used to slip through unitality,
    # associativity and Frobenius and REJECT only at separability
    eng = _eng("ising")
    A = intalg.group_algebra(eng, ("1", "p"))
    next(iter(A.mu.blocks.values()))[0, 0] = np.nan
    cert = intalg.verify_hstar(A)
    assert (cert.ok, cert.failed_axiom) == (False, "unitality")
    assert np.isnan(cert.residuals["unitality"])


def _m2_pair(eng):
    """The pair algebra of 11 + 12 + 22 on m2_hilb: 2 11 + 12 + 21 + 22."""
    return intalg.pair_algebra(eng, eng.obj({"11": 1, "12": 1, "22": 1}))


# (fusion data, the units of a unit algebra, an algebra that is not one)
UNIT_ALGEBRA_CASES = [
    ("ising", ("1",), lambda e: intalg.group_algebra(e, ("1", "p"))),
    ("fibonacci", ("1",), lambda e: intalg.pair_algebra(e, e.obj({"t": 1}))),
    ("m2_hilb", ("11",), _m2_pair),
    ("m2_hilb", ("22",), _m2_pair),
    ("m2_hilb", ("11", "22"), _m2_pair),
]


@pytest.mark.parametrize("name,units,mk", UNIT_ALGEBRA_CASES)
def test_unit_algebra_acts_by_its_unitors(name, units, mk):
    # a free bimodule over the unit algebra on either side takes that
    # side's unitor as its action, and the unitor agrees entrywise with
    # the multiplication carried along the fusion
    eng = _eng(name)
    one, other = intalg.group_algebra(eng, units), mk(eng)
    assert one.acts_by_unitors() and not other.acts_by_unitors()
    checked = 0
    for Ai, Aj in ((one, one), (one, other), (other, one)):
        for c in eng.data.simples:
            F = intalg.free_bimodule(Ai, c, Aj)
            if not any(F.obj):
                continue
            lam, rho = diagram_reference.free_actions(Ai, eng.simple_obj(c), Aj)
            for got, carried in ((F.lam, lam), (F.rho, rho)):
                assert (got.dom, got.cod) == (carried.dom, carried.cod)
                gap = np.abs(eng.to_vector(got) - eng.to_vector(carried))
                assert gap.max(initial=0.0) <= 1e-15, c
            assert intalg.verify_bimodule(F) < 1e-12
            checked += 1
    assert checked >= 3


@pytest.mark.parametrize("name,units", [("ising", ("1",)), ("m2_hilb", ("11", "22"))])
def test_a_rescaled_unit_algebra_keeps_the_carried_actions(name, units):
    # 2 mu with iota / 2 is an algebra on the unit objects, but not the one
    # group_algebra builds: it is not taken for the unit algebra, so its
    # free bimodules carry their actions, twice the unitors, and are
    # bimodules
    eng = _eng(name)
    one = intalg.group_algebra(eng, units)
    A = intalg.AlgebraObject(eng, one.obj, eng.scale(2.0, one.mu), eng.scale(0.5, one.iota))
    assert not A.acts_by_unitors()
    assert intalg.verify_hstar(A).residuals["unitality"] == 0.0
    for c in eng.data.simples:
        F = intalg.free_bimodule(A, c, A)
        if not any(F.obj):
            continue
        lam, rho = diagram_reference.free_actions(A, eng.simple_obj(c), A)
        assert eng.residual(F.lam, lam) == 0.0 and eng.residual(F.rho, rho) == 0.0
        twice = eng.scale(2.0, eng.left_unitor(A.obj, F.word))
        assert eng.residual(F.lam, twice) <= 1e-15
        assert intalg.verify_bimodule(F) < 1e-12


def test_a_nan_unit_is_no_unit_algebra_and_rejects():
    # a NaN in iota is not the unit algebra's [[1]]: the algebra keeps the
    # carried path and REJECTs on unitality, its NaN whiskered by the unit
    eng = _eng("fibonacci")
    one = intalg.group_algebra(eng, ("1",))
    A = intalg.AlgebraObject(eng, one.obj, one.mu, eng.mor((), one.word, {"1": [[np.nan]]}))
    assert not A.acts_by_unitors()
    cert = intalg.verify_hstar(A)
    assert (cert.ok, cert.failed_axiom) == (False, "unitality")
    assert np.isnan(cert.residuals["unitality"])


@pytest.mark.parametrize("name,unit", [("ising", "1"), ("m2_hilb", "11"), ("m2_hilb", "22")])
def test_module_category_over_a_unit_regroups_no_unit(monkeypatch, name, unit):
    # the unit algebra acts by its unitors and whiskering by a unit keeps
    # f's blocks: a cold module category over 1_u builds no grouped basis
    # that ends in a unit object, and no word (U, U, c, B) of the unit
    # algebra's multiplication whiskered out
    eng = _eng(name)
    last_objects, words = [], []
    group_last, sweep = Engine.group_last, FusionData.sweep

    def recorded_group_last(self, W, O, c):
        last_objects.append(O)
        return group_last(self, W, O, c)

    def recorded_sweep(self, word):
        words.append(word)
        return sweep(self, word)

    monkeypatch.setattr(Engine, "group_last", recorded_group_last)
    monkeypatch.setattr(FusionData, "sweep", recorded_sweep)
    mc = intalg.module_category(eng, intalg.group_algebra(eng, (unit,)))
    assert mc.certificate.ok
    assert len(mc.simples) == sum(eng.data.t(c) == unit for c in eng.data.simples)
    assert words and not [O for O in last_objects if eng.is_unit_sum(O)]
    assert not [w for w in words if len(w) == 4 and eng.is_unit_sum(w[0]) and eng.is_unit_sum(w[1])]


def test_twisted_cup_rejects_on_standardness_with_every_residual():
    # doubling one cup coefficient breaks the twisted-trace agreement and
    # nothing else; a REJECT lists every residual, not those up to the
    # failed axiom
    eng = _eng("hilb_z3")
    eng.udf.beta["g"] *= 2
    cert = intalg.verify_hstar(intalg.group_algebra(eng, ("1", "g", "h")))
    assert (cert.ok, cert.failed_axiom) == (False, "H*3-standardness")
    assert cert.residuals["standardness"] == 1.0
    others = {k: v for k, v in cert.residuals.items() if k not in ("standardness", "separability_min_eig")}
    assert others == {"unitality": 0.0, "associativity": 0.0, "frobenius": 0.0}


@pytest.mark.parametrize(
    "name,mk",
    [
        ("ising", lambda e: intalg.group_algebra(e, ("1", "p"))),
        ("fibonacci", lambda e: intalg.pair_algebra(e, e.obj({"t": 1}))),
    ],
)
def test_split_summands_resolves_every_free_module(name, mk):
    eng = _eng(name)
    A = mk(eng)
    for c in eng.data.simples:
        F = _free_module(A, c)
        if not any(F.obj):
            continue
        total = eng.zero(F.word, F.word)
        for M in intalg.split_summands(F):
            assert len(M.homs(M)) == 1
            # the piece's head is F's head after its inclusion V, an
            # isometric module map M -> F
            V = eng.compose(eng.dagger(F.head), M.head)
            assert eng.residual(eng.compose(eng.dagger(V), V), eng.identity(M.word)) < 1e-9
            assert eng.residual(
                eng.compose(V, M.rho), eng.compose(F.rho, eng.whisker_right_obj(V, A.obj))
            ) < 1e-9
            total = eng.add(total, eng.compose(V, eng.dagger(V)))
        assert eng.residual(total, eng.identity(F.word)) < 1e-9, c


def _family(name):
    """An instance of the benchmark's generated families (bench/families.py)."""
    if name == "ty3":
        # ungauged: a gauge moves the Z_3 cocycle off the unit coefficients
        # of group_algebra, which then REJECTs on associativity
        return fam.ty_zn(3)
    return fam.gauge(fam.vec_zn(4), np.random.default_rng(4))


def _projector(eng, basis):
    """The orthogonal projector onto the span of an orthonormal basis of
    maps, in the to_vector inner product."""
    vs = np.array([eng.to_vector(f) for f in basis]).reshape(len(basis), -1)
    return vs.T @ vs.conj()


def _same_hom_space(eng, adjoint, solved):
    assert len(adjoint) == len(solved)
    if solved:
        assert np.abs(_projector(eng, adjoint) - _projector(eng, solved)).max() < 1e-10


ADJUNCTION_CASES = [
    ("ising", lambda e: intalg.group_algebra(e, ("1", "p"))),
    ("fibonacci", lambda e: intalg.pair_algebra(e, e.obj({"t": 1}))),
    ("ty3", lambda e: intalg.group_algebra(e, ("0", "1", "2"))),
    ("vec4_gauged", lambda e: intalg.group_algebra(e, ("0", "2"))),
]
ADJUNCTION_IDS = [name for name, _ in ADJUNCTION_CASES]


def _case_engine(name):
    if name in ("ty3", "vec4_gauged"):
        data = _family(name)
        return Engine(data, udf_from_weight(data, SphericalWeight((1.0,))))
    return _eng(name)


@pytest.mark.parametrize("name,mk", ADJUNCTION_CASES, ids=ADJUNCTION_IDS)
def test_adjunction_module_homs_match_the_solve(name, mk):
    # Hom_A(c (x) A, M) = Hom(c, M): the basis read off the adjunction and
    # the solved one span the same space, out of free modules and pieces
    eng = _case_engine(name)
    A = mk(eng)
    assert intalg.verify_hstar(A).ok
    frees = [_free_module(A, c) for c in eng.data.simples]
    frees = [F for F in frees if any(F.obj)]
    pieces = [M for F in frees for M in intalg.split_summands(F)]
    for src in frees + pieces:
        assert src.head is not None
        for dst in frees + pieces:
            _same_hom_space(eng, src.homs(dst), ref.module_hom_basis(src, dst))


@pytest.mark.parametrize("name,mk", ADJUNCTION_CASES, ids=ADJUNCTION_IDS)
def test_adjunction_bimodule_homs_match_the_solve(name, mk):
    # Hom_{A-B}(A (x) c (x) B, M) = Hom(c, M), with B = A and B = 1,
    # among free bimodules, their pieces and the algebra as its own
    # bimodule (a summand of A (x) 1 (x) A)
    eng = _case_engine(name)
    A = mk(eng)
    unit = eng.data.units[0]
    for B in (A, intalg.group_algebra(eng, (unit,))):
        frees = [intalg.free_bimodule(A, c, B) for c in eng.data.simples[:2]]
        pieces = [M for F in frees for M in intalg.split_summands(F)]
        objects = frees + pieces + ([intalg.algebra_bimodule(A)] if B is A else [])
        for src in objects:
            assert src.head is not None
            for dst in objects:
                _same_hom_space(eng, src.homs(dst), ref.bimodule_homs(src, dst))


@pytest.mark.parametrize("name,labels", [("ising", ("1", "p")), ("m2_hilb", ("11", "22"))])
def test_algebra_bimodule_head_is_an_isometric_bimodule_map(name, labels):
    # into A (x) U (x) A, for U the sum of the unit summands of A: one
    # unit for Ising's 1 + p, two for the disconnected 1_11 + 1_22
    eng = _eng(name)
    A = intalg.group_algebra(eng, labels)
    M = intalg.algebra_bimodule(A)
    F = intalg.free_bimodule(A, M.head.cod[1], A)
    _, u = eng.fuse(M.head.cod)
    h = eng.compose(u, M.head)  # into the fused free bimodule F
    assert eng.residual(eng.compose(eng.dagger(h), h), eng.identity(M.word)) < 1e-12
    assert eng.residual(
        eng.compose(h, M.lam), eng.compose(F.lam, eng.whisker_left_obj(A.obj, h))
    ) < 1e-12
    assert eng.residual(
        eng.compose(h, M.rho), eng.compose(F.rho, eng.whisker_right_obj(h, A.obj))
    ) < 1e-12


def _balanced_cases():
    """(engine, N, M, P) for bimodule_map_basis: acceptance criterion 10's
    cases, and Ising with A = 1 + p over the algebra itself, with N and P
    free modules or their pieces and M free bimodules or their pieces."""
    for name in ("fibonacci", "ising"):
        eng = _eng(name)
        A = intalg.group_algebra(eng, ("1",))
        if name == "fibonacci":
            B = intalg.pair_algebra(eng, eng.obj({"t": 1}))
        else:
            B = intalg.group_algebra(eng, ("1", "p"))
        M = intalg.free_bimodule(A, "1", B)
        yield eng, _free_module(A, eng.data.simples[-1]), M, _free_module(B, "1")
    eng = _eng("ising")
    A = intalg.group_algebra(eng, ("1", "p"))
    mods = [_free_module(A, c) for c in eng.data.simples]
    mods += [piece for F in mods for piece in intalg.split_summands(F)]
    bims = [intalg.free_bimodule(A, c, A) for c in eng.data.simples[:2]]
    bims += [piece for F in bims for piece in intalg.split_summands(F)]
    for N in mods[:2] + mods[3:5]:
        for M in bims[:1] + bims[2:4]:
            for P in mods[:2] + mods[3:5]:
                yield eng, N, M, P


def test_balanced_maps_match_the_solve():
    nonzero = 0
    for eng, N, M, P in _balanced_cases():
        basis = intalg.bimodule_map_basis(N, M, P)
        _same_hom_space(eng, basis, ref.bimodule_map_basis(N, M, P))
        nonzero += bool(basis)
    assert nonzero >= 20


def test_adjoint_span_of_one_map_is_the_normalized_map():
    # one map is normalized, not decomposed: the same span as row_space
    # gives, and nothing for a zero map or one below RANK_CUT
    eng = _eng("ising")
    rng = np.random.default_rng(3)
    s, sp = eng.obj({"s": 1}), eng.obj({"s": 1, "p": 1})
    dom, cod = (s, sp), (eng.obj({"1": 1, "s": 1, "p": 2}),)
    f = eng.random_mor(dom, cod, rng)
    (g,) = intalg._adjoint_span(eng, dom, cod, eng.to_vector(f)[None, :])
    v, rows = eng.to_vector(g), row_space(eng.to_vector(f)[None, :])
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)
    assert np.abs(np.outer(v.conj(), v) - rows.conj().T @ rows).max() < 1e-14
    tiny = eng.scale(0.5 * RANK_CUT / eng.l2_norm(f), f)
    for m in (eng.zero(dom, cod), tiny):
        assert intalg._adjoint_span(eng, dom, cod, eng.to_vector(m)[None, :]) == []
        assert row_space(eng.to_vector(m)[None, :]).shape[0] == 0
