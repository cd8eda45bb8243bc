import itertools
import json
from collections import Counter

import numpy as np
import pytest

import solve_reference
from bench_families import fam
from hstarcat import bundled, fusion, hilb3, intalg
from hstarcat.diagram import Engine
from hstarcat.fusion import SphericalWeight, udf_from_weight
from hstarcat.numcore import DEFAULT_TOL, ConsistencyError, InputError, Tolerance, projection_rank

PHI = (1 + np.sqrt(5)) / 2


def _eng(name, psis=None):
    data = bundled.load(name)
    psi = SphericalWeight(psis if psis else tuple(1.0 for _ in data.units))
    return Engine(data, udf_from_weight(data, psi))


def test_monad_psi_scaling():
    eng = _eng("hilb_z2")
    A = intalg.group_algebra(eng, ("1", "g"))
    # bubble = 2 id so the normalized weight of id_A is psi_1 / 2
    assert hilb3.monad_psi(A, eng.identity(A.word)).real == pytest.approx(0.5)


def test_presentation_sphericality():
    eng = _eng("ising", (0.8,))
    X = hilb3.delooping(eng)
    cert = hilb3.presentation_sphericality(X)
    assert cert.ok, cert.residuals


@pytest.mark.parametrize(
    "name, c, seeds",
    [("fibonacci", "t", (71, 246)), ("ising", "p", (311, 357)), ("ising", "s", (522, 612))],
    ids=["fibonacci-t", "ising-p", "ising-s"],
)
def test_a_rescaled_cup_rejects_at_every_seed(name, c, seeds):
    # alpha_c doubled and beta_c halved part the loops of id_c alone; a
    # draw that gave c multiplicity 0 missed it, as five draws did at
    # these seeds, and the check on every simple cannot
    eng = _eng(name)
    X = hilb3.delooping(eng)
    eng.udf.alpha[c] *= 2.0
    eng.udf.beta[c] /= 2.0
    for seed in seeds:
        cert = hilb3.presentation_sphericality(X, seed=seed)
        assert (cert.ok, cert.failed_axiom) == (False, "sphericality"), seed


def test_completion_checks_draw_nothing(monkeypatch):
    # both checks run on a basis: no random morphism and no generator,
    # and seed, kept for callers that pass it, is keyword-only
    eng = _eng("m2_hilb", (1.0, 4.0))
    X = hilb3.hilbert_sum_completion(hilb3.delooping(eng))
    S = hilb3.sum_object(X, ["11", "22", "11"])

    def drawn(*args, **kwargs):
        raise AssertionError("a completion check drew a sample")

    monkeypatch.setattr(Engine, "random_mor", drawn)
    monkeypatch.setattr(np.random, "default_rng", drawn)
    sph = [repr(hilb3.presentation_sphericality(X, seed=s)) for s in range(3)]
    add = [repr(hilb3.certify_hilbert_sum(X, S, seed=s)) for s in range(3)]
    assert len(set(sph)) == len(set(add)) == 1
    with pytest.raises(TypeError):
        hilb3.presentation_sphericality(X, 0)
    with pytest.raises(TypeError):
        hilb3.certify_hilbert_sum(X, S, 0)
    for check, args in ((hilb3.presentation_sphericality, (X,)), (hilb3.certify_hilbert_sum, (X, S))):
        with pytest.raises(TypeError):
            check(*args, samples=5)


def test_additivity_reads_every_elementary_endomorphism(monkeypatch):
    # k parts give one Psi on S per elementary map of End(S): here k = 3
    # over two units, so 2^2 + 1^2 maps
    eng = _eng("m2_hilb", (1.0, 4.0))
    X = hilb3.hilbert_sum_completion(hilb3.delooping(eng))
    S = hilb3.sum_object(X, ["11", "22", "11"])
    seen = []
    psi_value = hilb3.Pre3HilbPresentation.psi_value

    def recorded(self, obj, f):
        if isinstance(obj, hilb3.SumObject):
            seen.append(f)
        return psi_value(self, obj, f)

    monkeypatch.setattr(hilb3.Pre3HilbPresentation, "psi_value", recorded)
    assert hilb3.certify_hilbert_sum(X, S).ok
    O = X.unit_obj(S)
    assert [eng.to_vector(f).tolist() for f in seen] == np.eye(eng.hom_dim((O,), (O,))).tolist()


def test_hilbert_sum_certification():
    eng = _eng("hilb_z2")
    X = hilb3.hilbert_sum_completion(hilb3.delooping(eng))
    # repeated parts are allowed
    S = hilb3.sum_object(X, [hilb3.DeloopObject("1")] * 3)
    cert = hilb3.certify_hilbert_sum(X, S)
    assert cert.ok
    assert cert.residuals["resolution"] < 1e-10
    assert cert.residuals["additivity"] < 1e-9


def _hidden_direction(fs):
    """A Hermitian D of unit norm with tr(D f) = 0 for every f in fs: a
    null vector of the real map from the Hermitian basis to the real and
    imaginary parts of those traces, which has one when 2 len(fs) < k^2."""
    k = len(fs[0])
    basis = []
    for i, j in itertools.combinations_with_replacement(range(k), 2):
        for z in (1, 1j) if i < j else (1,):
            H = np.zeros((k, k), dtype=complex)
            H[i, j], H[j, i] = z, np.conj(z)
            basis.append(H)
    traces = np.array([[np.trace(H @ f) for H in basis] for f in fs])
    c = np.linalg.svd(np.vstack([traces.real, traces.imag]))[2][-1]
    D = sum(x * H for x, H in zip(c, basis))
    return D / np.linalg.norm(D)


def test_a_resolution_defect_hidden_from_the_samples_rejects_on_resolution(monkeypatch):
    # inclusions I'_j = R I_j with R^2 = id + eps D, D a direction that
    # five random endomorphisms do not see: the resolution check rejects,
    # and additivity, read on every elementary endomorphism E_ij, sees the
    # defect as psi_1 eps |D_ji|
    eng = _eng("hilb_z2")
    X = hilb3.hilbert_sum_completion(hilb3.delooping(eng))
    S = hilb3.sum_object(X, ["1"] * 4)
    O = X.unit_obj(S)
    rng = np.random.default_rng(3)
    D = _hidden_direction([eng.random_mor((O,), (O,), rng).blocks["1"] for _ in range(5)])
    w, V = np.linalg.eigh(1e-3 * D)
    R = eng.mor((O,), (O,), {"1": (V * np.sqrt(1 + w)) @ V.conj().T})
    inclusions = hilb3.sum_isometries
    monkeypatch.setattr(
        hilb3, "sum_isometries", lambda X, S: [eng.compose(R, i) for i in inclusions(X, S)]
    )
    cert = hilb3.certify_hilbert_sum(X, S)
    assert (cert.ok, cert.failed_axiom) == (False, "direct-sum resolution")
    assert cert.residuals["resolution"] == pytest.approx(1e-3)
    assert cert.residuals["additivity"] == pytest.approx(1e-3 * np.abs(D).max(), rel=1e-6)
    assert cert.residuals["additivity"] > DEFAULT_TOL.bound(2.0)


class _DoubledSumPsi(hilb3.Pre3HilbPresentation):
    """A presentation whose Psi on a sum object is twice the sum of Psi on
    its parts."""

    def psi_value(self, obj, f):
        z = super().psi_value(obj, f)
        return 2 * z if isinstance(obj, hilb3.SumObject) else z


def test_a_psi_that_is_not_additive_rejects_on_additivity():
    eng = _eng("hilb_z2")
    X = _DoubledSumPsi(eng, hilb3.hilbert_sum_completion(hilb3.delooping(eng)).objects)
    S = hilb3.sum_object(X, ["1", "1"])
    cert = hilb3.certify_hilbert_sum(X, S)
    assert (cert.ok, cert.failed_axiom) == (False, "Psi additivity")
    assert cert.residuals["resolution"] == 0.0
    # on E_11: 2 psi_1 against psi_1
    assert cert.residuals["additivity"] == 1.0


def _psi_block_sum(eng, f):
    """Psi of an endomorphism of a sum of units as a sum over the units
    u with a block of psi_u tr(f_u), the form psi_value had before it
    read the left closed loop."""
    total = 0.0 + 0.0j
    for u in eng.data.units:
        b = f.blocks.get(u)
        if b is not None:
            total += eng.udf.psi.of_unit(eng.data, u) * np.trace(b)
    return complex(total)


@pytest.mark.parametrize(
    "name, psis, parts",
    [
        ("hilb_z2", (1.7,), ("1", "1", "1")),
        ("ising", None, ("1", "1")),
        ("m2_hilb", (1.0, 4.0), ("11", "22", "22", "11", "22")),
    ],
)
def test_psi_value_is_the_per_unit_block_sum(name, psis, parts):
    eng = _eng(name, psis)
    X = hilb3.hilbert_sum_completion(hilb3.delooping(eng))
    rng = np.random.default_rng(4)
    S = hilb3.sum_object(X, parts)
    for obj in (S, *(hilb3.DeloopObject(u) for u in set(parts))):
        O = X.unit_obj(obj)
        for _ in range(5):
            f = eng.random_mor((O,), (O,), rng)
            assert X.psi_value(obj, f) == _psi_block_sum(eng, f)


def test_linking_of_a_non_hstar_algebra_is_an_input_error():
    # a gauge of TY(Z_3) under which the group algebra on Z_3 is no
    # longer associative: the builder must name the H* axiom, not fail
    # later on the bimodule axioms of a free bimodule
    eng = fusion.dual_engine(
        fam.gauge(fam.ty_zn(3), np.random.default_rng(5)), SphericalWeight((1.0,))
    )
    A = intalg.group_algebra(eng, ("0", "1", "2"))
    assert intalg.verify_hstar(A).failed_axiom == "associativity"
    with pytest.raises(InputError, match="algebra fails H\\* certification: associativity"):
        hilb3.linking_e1(hilb3.delooping(eng), hilb3.MonadObject(A), hilb3.DeloopObject("0"))


@pytest.mark.parametrize(
    "name,mk",
    [
        ("hilb", lambda e: intalg.group_algebra(e, ("1",))),
        ("hilb_z2", lambda e: intalg.group_algebra(e, ("1", "g"))),
        ("ising", lambda e: intalg.group_algebra(e, ("1", "p"))),
        ("fibonacci", lambda e: intalg.pair_algebra(e, e.obj({"t": 1}))),
    ],
)
def test_split_monad(name, mk):
    eng = _eng(name)
    B = mk(eng)
    sp = hilb3.split_monad(B)
    assert sp.certificate.ok, sp.certificate.residuals
    for key in ("u_unitarity", "u_multiplicative", "u_unital", "ev_normalization"):
        assert sp.certificate.residuals[key] < 1e-8
    # the split pair algebra is itself a valid algebra object
    A2 = intalg.AlgebraObject(eng, sp.pair.obj, sp.mu_T, sp.iota_T)
    assert intalg.verify_hstar(A2).ok


def test_uaf_uniqueness_gauge():
    eng = _eng("fibonacci")
    base = hilb3.canonical_uaf(eng)
    gauged = hilb3.gauge_uaf(eng, {c: np.exp(0.7j) for c in eng.data.simples})
    cert = hilb3.uaf_uniqueness_check(eng, base, gauged)
    assert cert.ok
    for c in eng.data.simples:
        assert cert.residuals[f"zeta[{c}]"] < 1e-9


def test_uaf_rescale_not_spherical():
    eng = _eng("fibonacci")
    base = hilb3.canonical_uaf(eng)
    bad = hilb3.gauge_uaf(eng, {c: 2.0 for c in eng.data.simples})
    with pytest.raises(InputError):
        hilb3.uaf_uniqueness_check(eng, base, bad)


def test_algebra_linking_z2():
    eng = _eng("hilb_z2", (0.5,))
    algebras = [intalg.group_algebra(eng, ("1",)), intalg.group_algebra(eng, ("1", "g"))]
    data, psi = hilb3.algebra_linking(eng, algebras)
    assert data.simples == ("00:0", "00:1", "01:0", "10:0", "11:0", "11:1")
    # unit weights are monad weights: psi_1 for the trivial algebra,
    # psi_1 / |G| for the group algebra
    assert psi.psi == pytest.approx((0.5, 0.25))
    assert fusion.validate(data).ok


def test_deloop_linking_m2():
    eng = _eng("m2_hilb", (1.0, 2.0))
    data, psi, cert = hilb3.linking_e1(
        hilb3.delooping(eng), hilb3.DeloopObject("11"), hilb3.DeloopObject("22")
    )
    assert cert.ok
    assert len(data.units) == 2
    assert fusion.validate(data).ok
    # a delooping object enters as the trivial algebra on its unit
    algs = [intalg.group_algebra(eng, ("11",)), intalg.group_algebra(eng, ("22",))]
    ref, ref_psi = hilb3.algebra_linking(eng, algs)
    assert data.simples == ref.simples == ("00:0", "01:0", "10:0", "11:0")
    assert psi.psi == ref_psi.psi == pytest.approx((1.0, 2.0))
    with pytest.raises(TypeError):
        hilb3.linking_e1(hilb3.delooping(eng), hilb3.SumObject(("11",)), hilb3.DeloopObject("22"))
    # doubling the same unit reproduces a 2x2 linking of Hilb
    eng = _eng("hilb")
    data, psi, cert = hilb3.linking_e1(
        hilb3.delooping(eng), hilb3.DeloopObject("1"), hilb3.DeloopObject("1")
    )
    assert cert.ok
    assert len(data.simples) == 4


@pytest.mark.parametrize("name", ("hilb", "hilb_z2", "fibonacci", "ising"))
def test_theorem_b(name):
    eng = _eng(name)
    psi1 = 1.0
    data = bundled.load(name)
    cert = hilb3.theorem_b_check(data, SphericalWeight(tuple(psi1 for _ in data.units)))
    assert cert.ok, cert.residuals
    assert cert.residuals["gap"] < 1e-9
    assert cert.details["monad"] == pytest.approx(cert.details["psi_1"])
    assert cert.details["modules"] == pytest.approx(cert.details["psi_1"])


@pytest.mark.parametrize("name", ("fibonacci", "ising", "m2_hilb"))
def test_theorem_b_takes_one_zigzag_per_simple(monkeypatch, name):
    # one dual functor: the zig-zags that fix the cups are taken once, on
    # the engine that the comparison then runs on
    data = bundled.load(name)
    taken = []
    zigzag = Engine.zigzag_scalar

    def counted(eng, c):
        taken.append((id(eng), c))
        return zigzag(eng, c)

    monkeypatch.setattr(Engine, "zigzag_scalar", counted)
    cert = hilb3.theorem_b_check(data, SphericalWeight(tuple(1.0 for _ in data.units)))
    assert cert.ok
    assert sorted(c for _, c in taken) == sorted(data.simples)
    assert len({e for e, _ in taken}) == 1


THEOREM_B_CASES = {
    "ising": lambda: bundled.load("ising"),
    "twisted8": lambda: fam.gauge(fam.vec_zn(8, 3), np.random.default_rng(4)),
    "ty5": lambda: fam.gauge(fam.ty_zn(5, -1), np.random.default_rng(5)),
}


@pytest.mark.parametrize("name", sorted(THEOREM_B_CASES))
def test_theorem_b_repeats_on_one_data_as_on_fresh_data(name):
    # every call after the first reads the comb tree tables that the
    # earlier calls left on the data; the residuals are those of calls on
    # a fresh copy, whose tables start empty
    data = THEOREM_B_CASES[name]()
    psi = SphericalWeight(tuple(1.0 for _ in data.units))
    for seed in (0, 1, 2):
        warm = hilb3.theorem_b_check(data, psi, seed=seed)
        fresh = hilb3.theorem_b_check(fusion.FusionData.from_json(data.to_json()), psi, seed=seed)
        assert warm.ok and fresh.ok
        assert repr(warm.residuals) == repr(fresh.residuals)
        assert repr(warm.details) == repr(fresh.details)


def _doubled_alpha(dual_engine):
    """dual_engine with alpha_c doubled for the first non-unit simple c."""

    def wrapped(data, psi, tol=DEFAULT_TOL):
        eng = dual_engine(data, psi, tol)
        c = next(c for c in data.simples if c not in data.units)
        eng.udf.alpha[c] *= 2.0
        return eng

    return wrapped


def _doubled_weight(dual_engine):
    """dual_engine under twice the weight it is given."""

    def wrapped(data, psi, tol=DEFAULT_TOL):
        return dual_engine(data, SphericalWeight(tuple(2.0 * p for p in psi.psi)), tol)

    return wrapped


# (defect, the residuals it pushes past their bound)
THEOREM_B_DEFECTS = [
    # the unit monad meets no cup of a non-unit simple; the module dims do
    (_doubled_alpha, {"module_side", "gap"}),
    # both sides follow the engine's weight, which is not psi
    (_doubled_weight, {"monad_side", "module_side"}),
]


@pytest.mark.parametrize("name", sorted(THEOREM_B_CASES))
@pytest.mark.parametrize("defect,broken", THEOREM_B_DEFECTS, ids=["alpha", "weight"])
def test_theorem_b_rejects_a_defective_dual_functor(monkeypatch, name, defect, broken):
    data = THEOREM_B_CASES[name]()
    psi = SphericalWeight(tuple(1.0 for _ in data.units))
    monkeypatch.setattr(hilb3, "dual_engine", defect(hilb3.dual_engine))
    cert = hilb3.theorem_b_check(data, psi)
    assert (cert.ok, cert.failed_axiom) == (False, "weight comparison")
    bound = DEFAULT_TOL.bound(1.0)
    assert {k for k, v in cert.residuals.items() if not v <= bound} == broken, cert.residuals


def test_theorem_b_defects_break_every_key():
    # each residual of the comparison is pushed past its bound by some
    # defect above
    keys = set(hilb3.theorem_b_check(bundled.load("ising"), SphericalWeight((1.0,))).residuals)
    assert keys == set().union(*(broken for _, broken in THEOREM_B_DEFECTS))


def test_weight_mod_dagger_rescaled_matches_psi():
    eng = _eng("hilb_z2", (1.3,))
    A = intalg.group_algebra(eng, ("1", "g"))
    out = hilb3.weight_mod_dagger(eng, A)
    assert out["rescaled"] == pytest.approx(out["prefactor"] * out["raw"])


def _per_triple_f_matrices(b):
    """The associator by the per-triple formula that _LinkingBuilder used
    before it assembled F from pair trees alone: for every triple, the
    relative tensors (X (x) Y) (x) Z and X (x) (Y (x) Z), alpha = W_R^dag
    W_L between them, and each entry as the trace of C^dag alpha R over
    dim D. Kept as the reference for f_matrices. Every tensor, pair
    tensors included, comes from intalg.relative_tensor, outside the
    builder; each basis of z -> T is V^dag t over the builder's trees t
    (test_linking_trees_are_orthonormal_bimodule_maps checks them against
    Z.homs(T)), so the reference and the builder share one gauge."""
    eng = b.eng
    pairs = {}

    def pair(x, y):
        """(T, V, onb) for x (x)_A y: onb maps each simple z to orthonormal
        isometries z -> T."""
        if (x, y) not in pairs:
            T, V = intalg.relative_tensor(b.simples[x], b.simples[y])
            onb = {
                z: [eng.compose(eng.dagger(V), t) for t in ts] for z, ts in b.trees(x, y).items()
            }
            pairs[(x, y)] = T, V, onb
        return pairs[(x, y)]

    def scalar(f):
        dim = sum(len(eng.basis(f.dom, c)) for c in eng.support(f.dom))
        return complex(sum(np.trace(m) for m in f.blocks.values()) / dim)

    F = {}
    n = len(b.simples)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if {x, y, z} & set(b.units):
                    continue
                (i, j), (j2, k), (k2, l) = b.blocks[x], b.blocks[y], b.blocks[z]
                if j != j2 or k != k2:
                    continue
                X, Z = b.simples[x], b.simples[z]
                TXY, VXY, _ = pair(x, y)
                _, VL = intalg.relative_tensor(TXY, Z)
                TYZ, VYZ, _ = pair(y, z)
                _, VR = intalg.relative_tensor(X, TYZ)
                WL = eng.compose(eng.whisker_right_obj(VXY, Z.obj), VL)
                WR = eng.compose(eng.whisker_left_obj(X.obj, VYZ), VR)
                alpha = eng.compose(eng.dagger(WR), WL)
                for d in b.members[(i, l)]:
                    rows = [
                        eng.compose(
                            eng.dagger(VL),
                            eng.compose(
                                eng.whisker_right_obj(r1, Z.obj),
                                eng.compose(pair(e, z)[1], r2),
                            ),
                        )
                        for e in b.members[(i, k)]
                        for r1 in pair(x, y)[2].get(e, [])
                        for r2 in pair(e, z)[2].get(d, [])
                    ]
                    cols = [
                        eng.compose(
                            eng.dagger(VR),
                            eng.compose(
                                eng.whisker_left_obj(X.obj, c1),
                                eng.compose(pair(x, g)[1], c2),
                            ),
                        )
                        for g in b.members[(j, l)]
                        for c1 in pair(y, z)[2].get(g, [])
                        for c2 in pair(x, g)[2].get(d, [])
                    ]
                    if rows:
                        F[(b.labels[x], b.labels[y], b.labels[z], b.labels[d])] = np.array(
                            [
                                [
                                    scalar(eng.compose(eng.dagger(C), eng.compose(alpha, R)))
                                    for C in cols
                                ]
                                for R in rows
                            ]
                        ).reshape(len(rows), len(cols))
    return F


# the [A, 1] linkings of the F-matrix tests, by the name of their data
F_LINKINGS = [
    ("ising", lambda e: intalg.group_algebra(e, ("1", "p"))),
    ("fibonacci", lambda e: intalg.pair_algebra(e, e.obj({"t": 1}))),
    ("vec4", lambda e: intalg.group_algebra(e, ("0", "2"))),
    ("ty3", lambda e: intalg.group_algebra(e, ("0", "1", "2"))),
]


def _f_builder(name, mk):
    families = {"vec4": lambda: fam.vec_zn(4), "ty3": lambda: fam.ty_zn(3, 1)}
    data = families[name]() if name in families else bundled.load(name)
    eng = Engine(data, udf_from_weight(data, SphericalWeight((1.0,))))
    return hilb3._LinkingBuilder(eng, [mk(eng), intalg.group_algebra(eng, data.units[:1])])


@pytest.mark.parametrize("name,mk", F_LINKINGS)
def test_linking_trees_are_orthonormal_bimodule_maps(name, mk):
    # every tree of a non-unit pair is an isometry z -> (x, y) in the image
    # of the separability projection p and an A-C bimodule map; the trees
    # of one pair are orthonormal, and each z has as many as Z.homs(T)
    # gives for the relative tensor T
    b = _f_builder(name, mk)
    eng = b.eng
    seen = 0
    for x, y in itertools.product(range(len(b.simples)), repeat=2):
        if not b.composable(x, y):
            continue
        X, Y = b.simples[x], b.simples[y]
        T, V = intalg.relative_tensor(X, Y)
        p = eng.compose(V, eng.dagger(V))
        act_l = eng.whisker_right(X.lam, Y.word)  # (a, x, y) -> (x, y)
        act_r = eng.whisker_left(X.word, Y.rho)  # (x, y, b) -> (x, y)
        trees = b.trees(x, y)
        ts = [(z, t) for z, zs in trees.items() for t in zs]
        for z in b.members[(b.blocks[x][0], b.blocks[y][1])]:
            Z = b.simples[z]
            assert len(trees.get(z, [])) == len(Z.homs(T)), (x, y, z)
        for z, t in ts:
            Z = b.simples[z]
            assert eng.residual(eng.compose(p, t), t) < 1e-12
            left = eng.compose(act_l, eng.whisker_left_obj(Z.left.obj, t))
            assert eng.residual(eng.compose(t, Z.lam), left) < 1e-12
            right = eng.compose(act_r, eng.whisker_right_obj(t, Z.right.obj))
            assert eng.residual(eng.compose(t, Z.rho), right) < 1e-12
        for (_, s), (_, t) in itertools.product(ts, repeat=2):
            want = eng.identity(s.dom) if s is t else eng.zero(t.dom, s.dom)
            assert eng.residual(eng.compose(eng.dagger(s), t), want) < 1e-12
        seen += len(ts)
    assert seen


@pytest.mark.parametrize("name,mk", F_LINKINGS)
def test_linking_f_matrices_match_per_triple_formula(name, mk):
    b = _f_builder(name, mk)
    F = b.f_matrices()
    ref = _per_triple_f_matrices(b)
    assert list(F) == list(ref)
    for key, m in F.items():
        assert m.shape == ref[key].shape, key
        assert np.abs(m - ref[key]).max(initial=0.0) < 1e-12, key


@pytest.mark.parametrize("name,mk,projections", [(*F_LINKINGS[0], 25), (*F_LINKINGS[1], 9)])
def test_linking_f_matrices_whisker_no_mor(monkeypatch, name, mk, projections):
    # a full build builds no relative tensor, and a separability projection
    # only for the pairs over A, not over the unit algebra; once the table
    # of pushed trees is built, f_matrices reads each F entry off one
    # column of D and forms no whiskered Mor and no composite
    calls = Counter()
    with monkeypatch.context() as m:
        for module, fn in ((intalg, "separability_projection"), (intalg, "relative_tensor"),
                           (hilb3, "relative_tensor")):

            def counted(*args, _run=getattr(module, fn), _name=fn):
                calls[_name] += 1
                return _run(*args)

            m.setattr(module, fn, counted)
        _f_builder(name, mk).fusion_data()
    assert calls == {"separability_projection": projections}
    b = _f_builder(name, mk)
    for x, y in itertools.product(range(len(b.simples)), repeat=2):
        if b.blocks[x][1] == b.blocks[y][0]:
            b.trees(x, y)
    calls.clear()
    for method in ("whisker_right_obj", "whisker_left_obj", "compose"):

        def inner(self, *args, _run=getattr(Engine, method), _name=method):
            calls[_name] += 1
            return _run(self, *args)

        monkeypatch.setattr(Engine, method, inner)
    placed = []  # (side, tree, object, charge) of each lift placed
    for method, side in (("_right_parts", "right"), ("_left_block", "left")):

        def place(self, a, b, c, _run=getattr(Engine, method), _side=side):
            tree, O = (a, b) if _side == "right" else (b, a)
            placed.append((_side, id(tree), O, c))
            return _run(self, a, b, c)

        monkeypatch.setattr(Engine, method, place)
    assert b.f_matrices()
    assert not calls, dict(calls)
    # one placement per (tree, object, charge) group of the triples: a
    # lift serves every simple with that object and every D with that
    # first charge; the right whisker places nothing at a charge outside
    # the codomain's support or for a sum of units
    want = set()
    eng = b.eng
    for x, y, z in itertools.product(range(len(b.simples)), repeat=3):
        if not b.composable(x, y, z):
            continue
        X, Z = b.simples[x].obj, b.simples[z].obj
        for e, ups in b.trees(x, y).items():
            for c in b._first_columns(e, z):
                if c in eng.support(ups[0].cod + (Z,)) and not eng.is_unit_sum(Z):
                    want.update(("right", id(up), Z, c) for up in ups)
        for g, ups in b.trees(y, z).items():
            want.update(("left", id(up), X, c) for up in ups for c in b._first_columns(x, g))
    assert Counter(placed).most_common(1)[0][1] == 1
    assert set(placed) == want


def test_three_algebra_linking_z2():
    eng = _eng("hilb_z2")
    group = intalg.group_algebra(eng, ("1", "g"))
    data, psi = hilb3.algebra_linking(eng, [group, intalg.group_algebra(eng, ("1",)), group])
    assert len(data.simples) == 14
    assert len(data.units) == 3
    cert = fusion.validate(data)
    assert cert.ok, cert.residuals


def test_nan_gauge_is_not_a_candidate():
    # the NaN phase once passed with the residual zeta[s] = nan
    eng = _eng("ising")
    nan_gauge = hilb3.gauge_uaf(eng, {"s": float("nan")})
    with pytest.raises(InputError):
        hilb3.uaf_uniqueness_check(eng, hilb3.canonical_uaf(eng), nan_gauge)


def test_nan_unitarity_residual_rejects_on_its_axiom(monkeypatch):
    eng = _eng("ising")
    monkeypatch.setattr(hilb3, "_unitarity_residual", lambda eng, f: float("nan"))
    c1 = hilb3.canonical_uaf(eng)
    cert = hilb3.uaf_uniqueness_check(eng, c1, c1)
    assert (cert.ok, cert.failed_axiom) == (False, "comparison unitarity")
    # split_monad names its largest residual; a NaN counts as the largest
    split = hilb3.split_monad(intalg.group_algebra(eng, ("1", "p")))
    assert (split.certificate.ok, split.certificate.failed_axiom) == (False, "u_unitarity")


def test_split_monad_splits_at_the_engine_tolerance(monkeypatch):
    # every projection check of the relative tensor gets the engine's tol
    data = bundled.load("hilb_z2")
    tol = Tolerance(1e-6)
    eng = fusion.dual_engine(data, SphericalWeight((1.0,)), tol)
    seen = []

    def recording(p, parts, t):
        seen.append(t)
        return projection_rank(p, parts, t)

    monkeypatch.setattr(intalg, "projection_rank", recording)
    assert hilb3.split_monad(intalg.group_algebra(eng, ("1", "g"))).certificate.ok
    assert seen and all(t is tol for t in seen)


def test_split_monad_takes_no_positional_tolerance():
    eng = _eng("hilb_z2")
    B = intalg.group_algebra(eng, ("1", "g"))
    with pytest.raises(TypeError):
        hilb3.split_monad(B, DEFAULT_TOL)
    with pytest.raises(TypeError):
        hilb3.weight_mod_dagger(eng, B, DEFAULT_TOL)


def test_split_monad_without_unit_summand_is_a_value_error():
    eng = _eng("ising")
    with pytest.raises(InputError, match="no unit summand"):
        hilb3.split_monad(intalg.group_algebra(eng, ("s",)))


def _linking(name, objects, psis=None):
    data = fam.ty_zn(3) if name == "ty3" else bundled.load(name)
    psi = SphericalWeight(psis if psis else tuple(1.0 for _ in data.units))
    eng = Engine(data, udf_from_weight(data, psi))
    made = [
        hilb3.DeloopObject(o) if isinstance(o, str) else hilb3.MonadObject(o(eng)) for o in objects
    ]
    data, _, cert = hilb3.linking_e1(hilb3.delooping(eng), *made)
    assert cert.ok, cert.residuals
    return data


@pytest.mark.parametrize(
    "name, objects, psis, dim",
    [
        ("ising", (lambda e: intalg.group_algebra(e, ("1", "p")), "1"), None, 4.0),
        ("ising", ("1", "1"), None, 4.0),
        ("fibonacci", (lambda e: intalg.pair_algebra(e, e.obj({"t": 1})), "1"), None, PHI + 2),
        ("ty3", (lambda e: intalg.group_algebra(e, ("0", "1", "2")), "0"), None, 6.0),
        ("m2_hilb", ("11", "22"), (1.0, 2.0), 1.0),
    ],
    ids=["ising_q_1", "ising_deloop", "fibonacci_pair_1", "ty3_z3_1", "m2_hilb_deloop"],
)
def test_linking_blocks_have_the_ambient_dimension(name, objects, psis, dim):
    # Morita invariance (Etingof-Nikshych-Ostrik, Ann. Math. 162 (2005);
    # Mueger, JPAA 180 (2003)): in every block (i, j) of a linking, the
    # FPdim^2 of the simples sum to dim C
    data = _linking(name, objects, psis)
    for ui, uj in itertools.product(data.units, repeat=2):
        block = [c for c in data.simples if data.grading[c] == (ui, uj)]
        assert sum(data.fpdim(c) ** 2 for c in block) == pytest.approx(dim, rel=1e-9), (ui, uj)



def _solved_linking(monkeypatch, eng, algebras):
    """The builder as it was before homs out of free bimodules came from
    the adjunction: every hom space solved (solve_reference) and the
    dual of x the one z with Hom(x^dual, z) != 0, for x^dual from
    intalg.dual_bimodule_delta0. Returns the builder, its N and duals."""
    with monkeypatch.context() as m:
        m.setattr(intalg.Bimodule, "homs", solve_reference.bimodule_homs)
        b = hilb3._LinkingBuilder(eng, algebras)
        N = b.fusion_mults()
        dual = {}
        for x, (i, j) in enumerate(b.blocks):
            Xd, _, _ = intalg.dual_bimodule_delta0(b.simples[x])
            (z,) = [z for z in b.members[(j, i)] if solve_reference.bimodule_homs(Xd, b.simples[z])]
            dual[b.labels[x]] = b.labels[z]
    return b, N, dual


def test_split_monad_of_a_disconnected_monad_rejects():
    # B = 1_11 + 1_22 is its own right module, a 1_11-B bimodule through
    # the unitor; over the trivial algebra on 11 alone it does not split
    eng = _eng("m2_hilb")
    split = hilb3.split_monad(intalg.group_algebra(eng, ("11", "22")))
    assert (split.certificate.ok, split.certificate.failed_axiom) == (False, "u_unitarity")


def test_linking_of_a_disconnected_algebra_is_an_input_error():
    # 1_11 + 1_22 passes H*, but it is not a simple bimodule over itself,
    # so its diagonal block would have no unit simple
    eng = _eng("m2_hilb")
    B = intalg.group_algebra(eng, ("11", "22"))
    assert intalg.verify_hstar(B).ok
    with pytest.raises(InputError, match="one unit summand"):
        hilb3.linking_e1(hilb3.delooping(eng), hilb3.MonadObject(B), hilb3.DeloopObject("11"))


@pytest.mark.parametrize(
    "name, mk",
    [
        ("ising", lambda e: intalg.group_algebra(e, ("1", "p"))),
        ("fibonacci", lambda e: intalg.pair_algebra(e, e.obj({"t": 1}))),
    ],
)
def test_module_category_is_a_linking_block(name, mk):
    # a right A-module is a 1-A bimodule: the simple modules are the
    # simples of the (0, 1) block of the linking of 1 and A
    eng = _eng(name)
    A = mk(eng)
    mc = intalg.module_category(eng, A)
    b = hilb3._LinkingBuilder(eng, [intalg.group_algebra(eng, ("1",)), A])
    block = [b.simples[k] for k in b.members[(0, 1)]]
    assert [M.obj for M in block] == [M.obj for M in mc.simples]
    dims = [intalg.module_trace(M, eng.identity(M.word)).real for M in block]
    assert dims == pytest.approx(mc.dims, rel=1e-12)


@pytest.mark.parametrize(
    "name, objects, psis",
    [
        ("ising", (lambda e: intalg.group_algebra(e, ("1", "p")), "1"), None),
        ("ising", ("1", "1"), None),
        ("m2_hilb", ("11", "22"), (1.0, 2.0)),
    ],
    ids=["ising_q_1", "ising_deloop", "m2_hilb_deloop"],
)
def test_every_linking_simple_has_an_isometric_head(name, objects, psis):
    # homs out of every simple, units included, come from the adjunction
    data = bundled.load(name)
    eng = Engine(data, udf_from_weight(data, SphericalWeight(psis or (1.0,))))
    algebras = [
        intalg.group_algebra(eng, (o,)) if isinstance(o, str) else o(eng) for o in objects
    ]
    b = hilb3._LinkingBuilder(eng, algebras)
    for X in b.simples:
        assert X.head is not None
        gap = eng.residual(eng.compose(eng.dagger(X.head), X.head), eng.identity(X.word))
        assert gap < 1e-12


@pytest.mark.parametrize(
    "name, mk, unit, dim",
    [
        ("ising", lambda e: intalg.group_algebra(e, ("1", "p")), "1", 4.0),
        ("fibonacci", lambda e: intalg.pair_algebra(e, e.obj({"t": 1})), "1", PHI + 2),
        ("ty3", lambda e: intalg.group_algebra(e, ("0", "1", "2")), "0", 6.0),
    ],
    ids=["ising_q_1", "fibonacci_pair_1", "ty3_z3_1"],
)
def test_adjunction_linking_matches_the_solved_one(monkeypatch, name, mk, unit, dim):
    data = fam.ty_zn(3) if name == "ty3" else bundled.load(name)
    eng = Engine(data, udf_from_weight(data, SphericalWeight((1.0,))))
    algebras = [mk(eng), intalg.group_algebra(eng, (unit,))]
    ref, ref_N, ref_dual = _solved_linking(monkeypatch, eng, algebras)
    b = hilb3._LinkingBuilder(eng, algebras)
    # each simple is isomorphic to exactly one solved simple of its block
    perm = {}
    for x, X in enumerate(b.simples):
        (z,) = [z for z in ref.members[b.blocks[x]] if solve_reference.bimodule_homs(X, ref.simples[z])]
        perm[b.labels[x]] = ref.labels[z]
    assert sorted(perm.values()) == sorted(ref.labels)
    assert [perm[b.labels[u]] for u in b.units] == [ref.labels[u] for u in ref.units]
    data, _ = b.fusion_data()
    assert {tuple(map(perm.get, k)): v for k, v in data.N.items()} == ref_N
    assert {perm[x]: perm[z] for x, z in data.dual.items()} == ref_dual
    # Oracle A: in every block the FPdim^2 of the simples sum to dim C
    for ui, uj in itertools.product(data.units, repeat=2):
        block = [c for c in data.simples if data.grading[c] == (ui, uj)]
        assert sum(data.fpdim(c) ** 2 for c in block) == pytest.approx(dim, rel=1e-9), (ui, uj)


def _vec_s3():
    """Vec(S_3) from the group law: the permutations g of 012 as words,
    (gh)(i) = g(h(i)), trivial F, and duals the inverses."""
    els = ["".join(p) for p in itertools.permutations("012")]
    e = els[0]

    def mul(g, h):
        return "".join(g[int(i)] for i in h)

    def inv(g):
        return "".join(str(g.index(str(i))) for i in range(3))

    return fusion.FusionData(
        simples=tuple(els),
        units=(e,),
        grading={g: (e, e) for g in els},
        dual={g: inv(g) for g in els},
        N={(g, h, mul(g, h)): 1 for g in els[1:] for h in els[1:]},
        F={},
    )


# [A, 1] linkings, with multiplicities in the commutants of their free
# bimodules: (data, the algebra A on it, the unit)
SEEDED_LINKINGS = {
    "ising_q": (lambda: bundled.load("ising"), lambda e: intalg.group_algebra(e, ("1", "p")), "1"),
    "fibonacci_pair": (
        lambda: bundled.load("fibonacci"), lambda e: intalg.pair_algebra(e, e.obj({"t": 1})), "1"
    ),
    "vec8_z4": (lambda: fam.vec_zn(8), lambda e: intalg.group_algebra(e, ("0", "2", "4", "6")), "0"),
    "vec6_z3": (lambda: fam.vec_zn(6), lambda e: intalg.group_algebra(e, ("0", "2", "4")), "0"),
    "twisted_vec4_z2": (lambda: fam.vec_zn(4, 2), lambda e: intalg.group_algebra(e, ("0", "2")), "0"),
    "vec_s3": (_vec_s3, lambda e: intalg.group_algebra(e, e.data.simples), "012"),
}


def _seeded_linking(name, seed):
    """The linking of SEEDED_LINKINGS[name], built from fresh data at a
    seed, and its certificate."""
    make, mk, unit = SEEDED_LINKINGS[name]
    data = make()
    eng = Engine(data, udf_from_weight(data, SphericalWeight((1.0,))))
    return hilb3.linking_e1(
        hilb3.delooping(eng), hilb3.MonadObject(mk(eng)), hilb3.DeloopObject(unit), seed=seed
    )


@pytest.mark.parametrize("name", sorted(SEEDED_LINKINGS))
def test_linking_data_does_not_follow_the_seed(name):
    # the split reads only the bimodule, so labels, N, duals, every F block
    # and the weight are the same to the bit at every seed
    outs = []
    for seed in range(4):
        out, weight, cert = _seeded_linking(name, seed)
        assert cert.ok, cert.failed_axiom
        outs.append((json.dumps(out.to_json()), repr(weight)))
    assert outs[1:] == outs[:1] * 3


def test_vec_s3_linking_has_the_group_theoretical_simples():
    # Oracle B (Ostrik, IMRN 2003): the simples of block (H, K) of Vec(G)
    # are the pairs of a double coset HgK and an irrep rho of
    # H n gKg^-1, of FPdim dim rho |HgK| / sqrt(|H| |K|); for H = S_3 and
    # K = 1 that is Rep(S_3), one module of FPdim sqrt(6) each way, and
    # Vec(S_3)
    data, _, cert = _seeded_linking("vec_s3", 0)
    assert cert.ok
    dims = {}
    for c in data.simples:
        dims.setdefault(c.split(":")[0], []).append(data.fpdim(c))
    expect = {"00": [1, 1, 2], "01": [np.sqrt(6)], "10": [np.sqrt(6)], "11": [1] * 6}
    assert dims.keys() == expect.keys()
    for block, fp in expect.items():
        assert sorted(dims[block]) == pytest.approx(fp, rel=1e-12), block
    # the vertices with N = 2, for M the module and 2 the irrep of
    # dimension 2: (2, M; M), (M, M*; 2) and (M*, 2; M*)
    N = Counter(data.to_json()["N"].values())
    assert N[2] == 3 and set(N) == {1, 2}


@pytest.mark.parametrize("block, pair", [(0, ("01:0", "10:1")), (3, ("10:0", "01:0"))])
def test_linking_trees_that_leave_a_rank_name_their_pair(monkeypatch, block, pair):
    # a block that misses a class leaves part of some x (x)_A y without
    # trees; the trees stage names that pair before the closing validate
    # sees a broken associativity
    real, calls = hilb3.summand_classes, []

    def short(frees):
        calls.append(None)
        found = real(frees)
        return found[:-1] if len(calls) == block + 1 else found

    monkeypatch.setattr(hilb3, "summand_classes", short)
    eng = _eng("ising")
    with pytest.raises(ConsistencyError, match=f"^the trees of {pair[0]}, {pair[1]} leave ranks"):
        hilb3.linking_e1(
            hilb3.delooping(eng),
            hilb3.MonadObject(intalg.group_algebra(eng, ("1", "p"))),
            hilb3.DeloopObject("1"),
        )
