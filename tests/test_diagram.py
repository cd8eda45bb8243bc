import gc
import itertools
import math
import weakref
from collections import Counter

import numpy as np
import pytest

import diagram_reference
from bench_families import fam
from hstarcat import bundled, hilb3, intalg
from hstarcat.diagram import Engine, Mor
from hstarcat.numcore import InputError, ShapeMismatch, Tolerance
from hstarcat.fusion import FusionData, SphericalWeight, dual_engine, udf_from_weight

PHI = (1 + np.sqrt(5)) / 2


def _eng(name, psis=None):
    return _engine(bundled.load(name), psis)


def _engine(data, psis=None):
    psi = SphericalWeight(psis if psis else tuple(1.0 for _ in data.units))
    return Engine(data, udf_from_weight(data, psi))


# bundled categories, m2_hilb with two units and non-self-dual simples,
# and the benchmark's gauged twisted Vec(Z_8) and TY(Z_5)
PAIRING_CASES = ("ising", "fibonacci", "hilb_z2", "m2_hilb", "twisted8", "ty5")


GAUGED = {
    "twisted8": lambda: fam.vec_zn(8, 3),
    "ty5": lambda: fam.ty_zn(5, -1),
    "ty3": lambda: fam.ty_zn(3),
}


def _pairing_engine(name):
    if name in bundled.NAMES:
        return _eng(name)
    return _engine(fam.gauge(GAUGED[name](), np.random.default_rng(8)))


def _random_objects(eng, rng, count):
    """count objects with multiplicities drawn from 0..2, none empty."""
    out = []
    while len(out) < count:
        mults = rng.integers(0, 3, size=len(eng.data.simples))
        if mults.any():
            out.append(eng.obj(mults))
    return out


def test_object_arithmetic():
    eng = _eng("ising")
    O = eng.obj({"1": 1, "s": 2})
    assert eng.mult(O, "s") == 2
    assert eng.dual_obj(O) == O  # all Ising simples self-dual
    with pytest.raises(KeyError):
        eng.obj({"nope": 1})
    # a multiplicity is a nonnegative whole number, by dict or by sequence:
    # -1 once gave an object with empty hom spaces, and 1.5 and 2.7 were
    # truncated
    assert eng.obj((1.0, 0, 2)) == (1, 0, 2)
    bad = (-1, 1.5, 2.7, math.nan, math.inf, -math.inf)
    for m in bad:
        for mults in ({"s": m}, (0, m, 0)):
            with pytest.raises(InputError):
                eng.obj(mults)
    fib = _eng("fibonacci")
    with pytest.raises(InputError):
        intalg.pair_algebra(fib, fib.obj({"t": -1}))


def test_fuse_dims_match_fusion_rules():
    eng = _eng("fibonacci")
    t = eng.simple_obj("t")
    O, u = eng.fuse((t, t))
    assert O == (1, 1)  # t (x) t = 1 + t
    assert eng.residual(eng.compose(u, eng.dagger(u)), eng.identity((O,))) < 1e-12
    assert eng.residual(eng.compose(eng.dagger(u), u), eng.identity((t, t))) < 1e-12


def test_compose_dagger_antihomomorphism():
    eng = _eng("ising")
    rng = np.random.default_rng(0)
    O = eng.obj({"1": 1, "s": 1, "p": 1})
    f = diagram_reference.random_mor(eng, (O,), (O, O), rng)
    g = diagram_reference.random_mor(eng, (O, O), (O,), rng)
    lhs = eng.dagger(eng.compose(g, f))
    rhs = eng.compose(eng.dagger(f), eng.dagger(g))
    assert eng.residual(lhs, rhs) < 1e-12


def test_whisker_functoriality():
    eng = _eng("ising")
    rng = np.random.default_rng(1)
    O = eng.obj({"s": 1, "p": 1})
    f = diagram_reference.random_mor(eng, (O,), (O,), rng)
    g = diagram_reference.random_mor(eng, (O,), (O,), rng)
    lhs = eng.whisker_right_obj(eng.compose(f, g), O)
    rhs = eng.compose(eng.whisker_right_obj(f, O), eng.whisker_right_obj(g, O))
    assert eng.residual(lhs, rhs) < 1e-10
    # interchange law through tensor
    lhs = eng.tensor(f, g)
    rhs = eng.compose(eng.whisker_right_obj(f, O), eng.whisker_left_obj(O, g))
    assert eng.residual(lhs, rhs) < 1e-10


def test_zigzags():
    # on every simple, and on sums with multiplicities
    rng = np.random.default_rng(6)
    for name in PAIRING_CASES:
        eng = _pairing_engine(name)
        simples = [eng.simple_obj(c) for c in eng.data.simples]
        for O in simples + _random_objects(eng, rng, 3):
            Od = eng.dual_obj(O)
            ev, coev = eng.ev_obj(O), eng.coev_obj(O)
            z1 = eng.compose(
                eng.whisker_left((O,), ev), eng.whisker_right(coev, (O,))
            )
            assert eng.residual(z1, eng.identity((O,))) < 1e-9
            z2 = eng.compose(
                eng.whisker_right(ev, (Od,)), eng.whisker_left((Od,), coev)
            )
            assert eng.residual(z2, eng.identity((Od,))) < 1e-9


# --- the tensor-calculus reference of ev_obj and coev_obj ------------------
# The sum over copies of an object of the simples' cups and caps, each
# moved onto its copy by the tensor product of two inclusions: the path
# the comb-basis construction replaced, kept to check it against.


def _reference_ev_obj(eng, O):
    Od = eng.dual_obj(O)
    out = eng.zero((Od, O), ())
    for x in eng.data.simples:
        xb = eng.data.dual[x]
        for alpha in range(eng.mult(O, x)):
            proj = eng.tensor(
                eng.dagger(eng.include(Od, xb, alpha)),
                eng.dagger(eng.include(O, x, alpha)),
            )
            out = eng.add(out, eng.compose(diagram_reference.ev_simple(eng, x), proj))
    return out


def _reference_coev_obj(eng, O):
    Od = eng.dual_obj(O)
    out = eng.zero((), (O, Od))
    for x in eng.data.simples:
        xb = eng.data.dual[x]
        for alpha in range(eng.mult(O, x)):
            incl = eng.tensor(eng.include(O, x, alpha), eng.include(Od, xb, alpha))
            out = eng.add(out, eng.compose(incl, diagram_reference.coev_simple(eng, x)))
    return out


def _assert_same_bytes(got, ref):
    assert (got.dom, got.cod) == (ref.dom, ref.cod)
    assert list(got.blocks) == list(ref.blocks)
    for c, b in ref.blocks.items():
        assert got.blocks[c].shape == b.shape and got.blocks[c].dtype == b.dtype, c
        assert got.blocks[c].tobytes() == b.tobytes(), c


@pytest.mark.parametrize("name", PAIRING_CASES)
def test_pairings_match_the_tensor_calculus_reference(name):
    eng = _pairing_engine(name)
    zero = eng.obj([0] * len(eng.data.simples))
    for O in [zero] + _random_objects(eng, np.random.default_rng(7), 6):
        _assert_same_bytes(eng.ev_obj(O), _reference_ev_obj(eng, O))
        _assert_same_bytes(eng.coev_obj(O), _reference_coev_obj(eng, O))


@pytest.mark.parametrize(
    "name, gap", [("ising", 5.303), ("fibonacci", 6.068), ("m2_hilb", 3.75), ("hilb_z2", 3.75)]
)
def test_sphericality_sees_a_rescaled_cup(name, gap):
    # alpha_c beta_c is kept, so the zig-zags still hold, but the left and
    # right loops of id_c part by |4 psi_t(c) |alpha_c|^2 - psi_s(c)
    # |beta_c|^2 / 4|: the check must read the udf on every call
    eng = _eng(name)
    X = hilb3.delooping(eng)
    assert hilb3.presentation_sphericality(X).ok
    c = next(c for c in eng.data.simples if c not in eng.data.units)
    data, udf = eng.data, eng.udf
    closed = abs(
        4 * udf.psi.of_unit(data, data.t(c)) * abs(udf.alpha[c]) ** 2
        - udf.psi.of_unit(data, data.s(c)) * abs(udf.beta[c]) ** 2 / 4
    )
    eng.udf.alpha[c] *= 2.0
    eng.udf.beta[c] /= 2.0
    cert = hilb3.presentation_sphericality(X)
    assert (cert.ok, cert.failed_axiom) == (False, "sphericality")
    assert cert.residuals["sphericality"] == pytest.approx(closed, rel=1e-12)
    assert cert.residuals["sphericality"] == pytest.approx(gap, abs=1e-3)


def test_pairing_without_its_tree_is_an_input_error():
    # a dual that does not pair with its simple: no cup or cap is read off
    eng = _eng("hilb_z2")
    data = eng.data
    dual = {**data.dual, "g": "1"}
    bad_data = FusionData(data.simples, data.units, data.grading, dual, data.N, data.F)
    eng = Engine(bad_data, eng.udf)
    g = eng.simple_obj("g")
    for build in (eng.ev_obj, eng.coev_obj):
        with pytest.raises(InputError, match="not one tree"):
            build(g)


def _count_calls(monkeypatch, entries, counted):
    """Counter of the calls to the Engine methods `counted` made inside
    the methods `entries`, and of the calls to `entries` themselves."""
    depth = [0]
    calls = Counter()
    for name in counted:
        def inner(self, *args, _run=getattr(Engine, name), _name=name):
            calls[_name] += bool(depth[0])
            return _run(self, *args)

        monkeypatch.setattr(Engine, name, inner)
    for name in entries:
        def entered(self, *args, _run=getattr(Engine, name), _name=name):
            calls[_name] += 1
            depth[0] += 1
            try:
                return _run(self, *args)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(Engine, name, entered)
    return calls


def test_pairings_make_no_diagram_calls():
    # ev_obj and coev_obj write their entries into zero blocks: no tensor
    # calculus, and nothing kept in Engine.derived, whose values must not
    # depend on the udf; called on each simple
    for data in (bundled.load("ising"), fam.gauge(fam.ty_zn(3), np.random.default_rng(11))):
        eng = _engine(data)
        objects = [eng.simple_obj(c) for c in data.simples]
        with pytest.MonkeyPatch.context() as mp:
            calls = _count_calls(
                mp, ("ev_obj", "coev_obj"), ("tensor", "include", "compose", "add", "derived")
            )
            for O in objects:
                eng.ev_obj(O)
                eng.coev_obj(O)
        assert +calls == Counter(ev_obj=len(objects), coev_obj=len(objects)), dict(calls)


@pytest.mark.parametrize("value", [False, 0.0, None])
def test_derived_builds_a_falsy_value_once_per_key(value):
    # a value is kept whatever its truth: a False, a zero or a None is
    # built once like any other
    eng = _eng("fibonacci")
    builds = Counter()

    def build(key):
        builds[key] += 1
        return value

    for _ in range(3):
        for key in (("live", "a"), ("live", ("b", 1))):
            assert eng.derived(key, lambda key=key: build(key)) is value
    assert builds == Counter({("live", "a"): 1, ("live", ("b", 1)): 1})


def test_closed_loops_make_no_diagram_calls(monkeypatch):
    # the left loop is read off the blocks of f: no cup, cap, whisker or
    # grouped basis is built for (O, dual(O))
    eng = _pairing_engine("ty5")
    objects = [eng.simple_obj(c) for c in eng.data.simples]
    objects += _random_objects(eng, np.random.default_rng(5), 4)
    morphisms = [eng.identity((O,)) for O in objects]
    calls = _count_calls(
        monkeypatch,
        ("trace_left",),
        ("ev_obj", "coev_obj", "whisker_left_obj", "whisker_right_obj", "group_last", "compose"),
    )
    for f in morphisms:
        eng.trace_left(f)
    assert +calls == Counter(trace_left=len(morphisms)), dict(calls)


@pytest.mark.parametrize("name", PAIRING_CASES)
def test_sphericality_builds_no_morphism(monkeypatch, name):
    # both loops of id_x are read off the cup coefficients (Engine.loop):
    # no identity, closed loop, composite or psi of a unit endomorphism
    X = hilb3.delooping(_pairing_engine(name))
    for method in ("identity", "mor", "trace_left", "compose", "psi_of_unit_endo"):
        def called(self, *args, _name=method):
            raise AssertionError(f"sphericality called Engine.{_name}")

        monkeypatch.setattr(Engine, method, called)
    assert hilb3.presentation_sphericality(X).ok


# (case, psi) for the closed-loop and zig-zag references: the bundled
# categories, m2_hilb at an uneven weight and the gauged families
LOOP_CASES = [(name, None) for name in (*bundled.NAMES, *GAUGED)] + [("m2_hilb", (1.0, 4.0))]


def _loop_engine(name, psis):
    return _eng(name, psis) if psis else _pairing_engine(name)


@pytest.mark.parametrize("name, psis", LOOP_CASES)
def test_closed_loops_match_the_whiskered_reference(name, psis):
    eng = _loop_engine(name, psis)
    rng = np.random.default_rng(12)
    simples = [eng.simple_obj(c) for c in eng.data.simples]
    for O in simples + _random_objects(eng, rng, 6):
        f = diagram_reference.random_mor(eng, (O,), (O,), rng)
        got, ref = eng.trace_left(f), diagram_reference.trace_left(eng, f)
        for u in eng.data.units:
            want = ref.blocks.get(u, np.zeros((1, 1)))[0, 0]
            value = diagram_reference.unit_component(got, u)
            assert abs(value - want) <= 1e-12 * (1 + abs(want)), (u, value, want)


def _same_mor(got, want):
    assert (got.dom, got.cod, list(got.blocks)) == (want.dom, want.cod, list(want.blocks))
    for c, b in want.blocks.items():
        assert (got.blocks[c].dtype, got.blocks[c].shape) == (b.dtype, b.shape), c
        assert got.blocks[c].tobytes() == b.tobytes(), c


@pytest.mark.parametrize("name, psis", LOOP_CASES)
def test_closed_loops_and_unit_weights_are_the_reference_to_the_bit(name, psis):
    # the left loop walks the multiplicities of O and drops a zero sum
    # without a pass over the blocks, and psi reads z's blocks by unit
    # position: the blocks, their order and the weights are the summed
    # reference's
    eng = _loop_engine(name, psis)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        for O in _random_objects(eng, rng, 4):
            f = diagram_reference.random_mor(eng, (O,), (O,), rng)
            # without a block, with a NaN block, and with blocks that
            # cancel to an exact zero sum
            dropped = Mor(f.dom, f.cod, dict(list(f.blocks.items())[1:]))
            nan = Mor(f.dom, f.cod, {c: np.full_like(b, np.nan) for c, b in list(f.blocks.items())[:1]})
            zero = Mor(f.dom, f.cod, {c: np.zeros_like(b) for c, b in f.blocks.items()})
            for g in (f, dropped, nan, zero):
                got, want = eng.trace_left(g), diagram_reference.closed_loop(eng, g, True)
                _same_mor(got, want)
                assert repr(eng.psi_of_unit_endo(got)) == repr(diagram_reference.psi_of_unit_endo(eng, want))


@pytest.mark.parametrize("name, psis", LOOP_CASES)
def test_sphericality_is_the_per_simple_draw_reference(name, psis):
    # one loop pair per simple x, on id_x: the loops read off the blocks
    # give the whiskered loops' certificate; the whiskers of a gauged
    # category pass through F blocks, so the residuals agree to roundoff
    X = hilb3.delooping(_loop_engine(name, psis))
    got, want = hilb3.presentation_sphericality(X), diagram_reference.presentation_sphericality(X)
    assert (got.ok, got.failed_axiom, list(got.residuals)) == (want.ok, want.failed_axiom, list(want.residuals))
    assert abs(got.residuals["sphericality"] - want.residuals["sphericality"]) <= 1e-12


@pytest.mark.parametrize("word", [("t", "t"), ("1", "t", "t"), ()])
def test_closed_loops_of_a_word_not_of_one_object_raise_shape_mismatch(word):
    eng = _eng("fibonacci")
    f = eng.identity(tuple(eng.simple_obj(c) for c in word))
    with pytest.raises(ShapeMismatch, match="one object"):
        eng.trace_left(f)
    with pytest.raises(ShapeMismatch, match="non-endomorphism"):
        eng.trace_left(eng.zero((eng.simple_obj("t"),), (eng.simple_obj("1"),)))
    if word:
        with pytest.raises(ShapeMismatch, match="endomorphism of the unit"):
            eng.psi_of_unit_endo(f)


@pytest.mark.parametrize("name", PAIRING_CASES)
def test_identity_blocks_are_the_data_shared_read_only_identity(name):
    # identity, both unitors and fuse take each block from FusionData.eye;
    # nothing writes into a block in place, and a write raises
    eng = _pairing_engine(name)
    data = eng.data
    unit = eng.obj({u: 1 for u in data.units})
    for O in _random_objects(eng, np.random.default_rng(3), 4):
        morphisms = [
            eng.identity((O,)),
            eng.identity((O, eng.dual_obj(O))),
            eng.left_unitor(unit, (O,)),
            eng.right_unitor((O,), unit),
            eng.fuse((O, O))[1],
        ]
        for f in morphisms:
            assert f.blocks
            for b in f.blocks.values():
                assert data.is_eye(b)
                with pytest.raises(ValueError, match="read-only"):
                    b[0, 0] = 2.0


@pytest.mark.parametrize("name, psis", LOOP_CASES)
def test_loop_is_the_composed_loop_of_the_pairing_trees(name, psis):
    # the bundled data has real cup coefficients, so |z|^2 and z conj(z)
    # agree to the bit; a complex alpha_c of the gauged families may part
    # in the last bits
    eng = _loop_engine(name, psis)
    ulps = 0 if name in bundled.NAMES else 4
    for c in eng.data.simples:
        for side in ("L", "R"):
            got, want = eng.loop(c, side), diagram_reference.loop(eng, c, side)
            assert abs(got - want) <= ulps * np.spacing(want), (c, side, got, want)


# the bundled categories and Vec(Z_n), twisted Vec(Z_n) and TY(Z_n) of the
# benchmark's families
LOOP_DATA = {
    **{name: lambda name=name: bundled.load(name) for name in bundled.NAMES},
    **{f"vec_z{n}_{p}": lambda n=n, p=p: fam.vec_zn(n, p) for n, p in ((2, 0), (4, 1), (6, 5))},
    **{f"ty_z{n}_{s}": lambda n=n, s=s: fam.ty_zn(n, s) for n, s in ((3, 1), (5, -1))},
}


@pytest.mark.parametrize("name", list(LOOP_DATA))
def test_loop_of_a_simple_is_the_loop_of_its_identity(name, monkeypatch):
    # loop reads |z|^2 off the cup and builds no identity((c,)), which
    # sweeps the trees of the word; the closed loop of that identity is
    # |z|^2 tr(eye(1)), the same to the bit, by trace_left on the 'R'
    # sheet and by the reference's sum on the 'L' sheet
    data = LOOP_DATA[name]()
    eng = _engine(data)
    want = {}
    for c in data.simples:
        f = eng.identity((eng.simple_obj(c),))
        for side, unit in (("L", data.s(c)), ("R", data.t(c))):
            z = eng.trace_left(f) if side == "R" else diagram_reference.closed_loop(eng, f, False)
            want[c, side] = float(diagram_reference.unit_component(z, unit).real)
    monkeypatch.setattr(Engine, "identity", None)
    fresh = _engine(data)
    for (c, side), value in want.items():
        assert repr(fresh.loop(c, side)) == repr(value), (c, side)


@pytest.mark.parametrize("name, psis", LOOP_CASES)
def test_zigzag_scalar_is_the_whiskered_value(name, psis):
    eng = _loop_engine(name, psis)
    for c in eng.data.simples:
        got, ref = eng.zigzag_scalar(c), diagram_reference.zigzag_scalar(eng, c)
        assert np.complex128(got).tobytes() == np.complex128(ref).tobytes(), (c, got, ref)


@pytest.mark.parametrize("name", PAIRING_CASES)
def test_sphericality_sees_a_rescaled_evaluation(name):
    # alpha_c alone doubled: the zig-zag and the left loop of c break, and
    # the loops of id_c must part
    eng = _pairing_engine(name)
    X = hilb3.delooping(eng)
    assert hilb3.presentation_sphericality(X).ok
    c = next(c for c in eng.data.simples if c not in eng.data.units)
    eng.udf.alpha[c] *= 2.0
    cert = hilb3.presentation_sphericality(X)
    assert (cert.ok, cert.failed_axiom) == (False, "sphericality")


def _linking_z4():
    """The multifusion data of the linking of the Z_2 algebra {0, 2} with
    the unit in Vec(Z_4)."""
    eng = _engine(fam.vec_zn(4))
    A = intalg.group_algebra(eng, ("0", "2"))
    data, _, cert = hilb3.linking_e1(
        hilb3.delooping(eng), hilb3.MonadObject(A), hilb3.DeloopObject("0")
    )
    assert cert.ok
    return data


@pytest.mark.parametrize(
    "make", [lambda: bundled.load("ising"), lambda: fam.ty_zn(3), _linking_z4],
    ids=["ising", "ty3", "linking_z4"],
)
def test_bases_match_the_per_charge_reference(make):
    data = make()
    eng, ref = Engine(data, None), diagram_reference.PerChargeBases(data)
    rng = np.random.default_rng(13)
    k = len(data.simples)
    checked = 0
    for _ in range(20):
        # words of up to four objects, each simple in about half of them
        # with multiplicity 1 or 2, so that the words stay small
        word = tuple(
            tuple(int(m) for m in rng.integers(1, 3, size=k) * (rng.random(k) < 0.5))
            for _ in range(int(rng.integers(0, 5)))
        )
        assert eng.support(word) == ref.support(word), word
        _assert_bases_equal(eng, ref, word)
        checked += sum(len(ref.basis(word, c)) for c in data.simples)
    assert checked > 200, checked


def _assert_bases_equal(eng, ref, word):
    """The engine's trees and their positions at each charge of word are
    the reference's; a charge at which the reference has no tree reads as
    empty in both."""
    for c in eng.data.simples:
        trees = ref.basis(word, c)
        if trees:
            assert eng.basis(word, c) == trees, (word, c)
            assert eng.basis_index(word, c) == ref.basis_index(word, c), (word, c)
        else:
            assert eng.basis(word, c) == () and eng.basis_index(word, c) == {}, (word, c)


# the bundled categories and two seeded families, at sizes that keep words
# of three objects small
SWEEP_CASES = {
    **{name: (lambda name=name: bundled.load(name)) for name in bundled.NAMES},
    "twisted6": lambda: fam.gauge(fam.vec_zn(6, 1), np.random.default_rng(6)),
    "ty4": lambda: fam.gauge(fam.ty_zn(4, -1), np.random.default_rng(4)),
}


def _sweep_words(data, rng):
    """The empty word, words of the zero object, of a sum of distinct
    units and of single simples, and 30 words of up to three objects with
    multiplicities drawn from 0..2, a unit sum among them now and then."""
    k = len(data.simples)
    zero = (0,) * k
    units = tuple(int(c in data.units) for c in data.simples)
    simples = [tuple(int(i == j) for i in range(k)) for j in range(k)]
    words = [(), (zero,), (units,), (units, units)] + [(s,) for s in simples]
    for _ in range(30):
        words.append(
            tuple(
                units if rng.random() < 0.2 else tuple(int(m) for m in rng.integers(0, 3, size=k))
                for _ in range(int(rng.integers(1, 4)))
            )
        )
    return words


@pytest.mark.parametrize("name", sorted(SWEEP_CASES))
def test_shared_tables_equal_the_per_engine_sweep(name):
    # the data's tables hold the nonempty part of what each engine swept
    # into its own before: the same trees in the same order, for every
    # word the engine asked for and every suffix of it, and nothing more
    data = SWEEP_CASES[name]()
    eng, ref = Engine(data, None), diagram_reference.SweptBases(data)
    for word in _sweep_words(data, np.random.default_rng(21)):
        assert eng.support(word) == ref.support(word), word
        _assert_bases_equal(eng, ref, word)
    assert data.comb_bases == {k: v for k, v in ref._basis.items() if v}
    assert data.comb_indices == {k: v for k, v in ref._index.items() if v}
    assert data.comb_supports == ref._support


def test_engines_on_one_data_share_the_tree_lists():
    data = fam.gauge(fam.ty_zn(3), np.random.default_rng(3))
    one = dual_engine(data, SphericalWeight((1.0,)))
    other = dual_engine(data, SphericalWeight((2.5,)), Tolerance(1e-6))
    word = (one.obj({"m": 1, "1": 2}), one.obj({"m": 2}), one.obj({"0": 1, "2": 1}))
    assert other.support(word) is one.support(word)
    for c in data.simples:
        assert other.basis(word, c) is one.basis(word, c)
        assert other.basis_index(word, c) is one.basis_index(word, c)
    # so do the F blocks and the grouped unitaries, which read F too
    blocks = fam.f_blocks(data)
    grouped = [(word[:2], word[2], c) for c in one.support(word)]
    assert blocks and grouped
    for key in blocks:
        assert other.data.f_matrix(*key) is one.data.f_matrix(*key)
    for key in grouped:
        assert all(x is y for x, y in zip(other.group_last(*key), one.group_last(*key)))
    # an equal copy of the data has tables of its own, equal to the first
    copy = FusionData.from_json(data.to_json())
    third = dual_engine(copy, SphericalWeight((1.0,)))
    assert third.support(word) == one.support(word)
    for c in data.simples:
        assert third.basis(word, c) == one.basis(word, c)
        assert third.basis(word, c) is not one.basis(word, c)
    assert copy.comb_bases is not data.comb_bases
    for key in blocks:
        assert np.array_equal(copy.f_matrix(*key), data.f_matrix(*key))
        assert copy.f_matrix(*key) is not data.f_matrix(*key)
    for key in grouped:
        (g, gi, U), (h, hi, V) = third.group_last(*key), one.group_last(*key)
        assert (g, gi) == (h, hi) and np.array_equal(U, V) and U is not V
    assert copy.grouped_unitaries is not data.grouped_unitaries


def test_the_tree_tables_key_only_supported_charges():
    # the Vec(Z_8) [Z_2, 1] linking sweeps thousands of words of C, most
    # of them supported at a few of its 8 charges
    data = fam.vec_zn(8)
    eng = _engine(data)
    A = intalg.group_algebra(eng, ("0", "4"))
    _, _, cert = hilb3.linking_e1(hilb3.delooping(eng), hilb3.MonadObject(A), hilb3.DeloopObject("0"))
    assert cert.ok
    assert len(data.comb_supports) > 1000
    assert all(data.comb_bases.values()) and all(data.comb_indices.values())
    keys = {(w, c) for w, support in data.comb_supports.items() for c in support}
    assert set(data.comb_bases) == keys == set(data.comb_indices)
    # a charge outside a word's support reads as one empty value per
    # method, the same object on every engine, which nothing can change
    word, c = next(
        (w, c) for w, support in data.comb_supports.items() for c in data.simples if c not in support
    )
    other = dual_engine(data, SphericalWeight((2.0,)), Tolerance(1e-6))
    trees, index = eng.basis(word, c), eng.basis_index(word, c)
    assert trees == () and index == {}
    assert other.basis(word, c) is trees and other.basis_index(word, c) is index
    with pytest.raises(TypeError):
        index[()] = 0
    with pytest.raises(AttributeError):
        trees.append(())


def _values(table):
    """Every value held in a tree table, containers and leaves alike."""
    stack = list(table.items())
    while stack:
        item = stack.pop()
        yield item
        if isinstance(item, dict):
            stack.extend(item.items())
        elif isinstance(item, (tuple, list)):
            stack.extend(item)


def test_an_engine_is_freed_by_refcount_alone():
    data = bundled.load("ising")
    gc.disable()
    try:
        eng = dual_engine(data, SphericalWeight((1.0,)))
        s, p = eng.simple_obj("s"), eng.obj({"1": 1, "p": 1})
        f = diagram_reference.random_mor(eng, (s, p), (s, p), np.random.default_rng(1))
        g = eng.tensor(f, eng.ev_obj(s))
        eng.left_unitor(eng.simple_obj("1"), (s, p))
        eng.trace_left(eng.identity((s,)))
        assert g.blocks and data.comb_bases
        alive = weakref.ref(eng)
        del eng
        assert alive() is None
    finally:
        gc.enable()
    # the tables hold labels, numbers and read-only arrays, and no engine
    # or morphism
    assert data.grouped_unitaries and data._blocks and data._rows
    tables = (data.comb_bases, data.comb_indices, data.comb_supports, data.grouped_unitaries,
              data._blocks, data._rows, data._cols)
    for table in tables:
        for v in _values(table):
            assert isinstance(v, (str, int, tuple, list, dict, np.ndarray)), type(v)
            assert not isinstance(v, np.ndarray) or not v.flags.writeable
            assert not isinstance(v, (Engine, Mor))


def test_loop_traces_match_dims():
    eng = _eng("fibonacci", (1.0,))
    t = eng.simple_obj("t")
    ident = eng.identity((t,))
    assert eng.psi_of_unit_endo(eng.trace_left(ident)).real == pytest.approx(PHI)
    assert eng.loop("t", "L") == pytest.approx(PHI)
    assert eng.categorical_trace(ident).real == pytest.approx(PHI)


def test_trace_cyclicity():
    eng = _eng("ising", (0.8,))
    rng = np.random.default_rng(2)
    O = eng.obj({"1": 1, "s": 2, "p": 1})
    f = diagram_reference.random_mor(eng, (O,), (O,), rng)
    g = diagram_reference.random_mor(eng, (O,), (O,), rng)
    t1 = eng.categorical_trace(eng.compose(f, g))
    t2 = eng.categorical_trace(eng.compose(g, f))
    assert abs(t1 - t2) < 1e-9 * max(1, abs(t1))


def test_hom_vector_round_trip():
    eng = _eng("ising")
    rng = np.random.default_rng(3)
    O = eng.obj({"s": 1, "p": 1})
    f = diagram_reference.random_mor(eng, (O,), (O, O), rng)
    v = eng.to_vector(f)
    assert len(v) == eng.hom_dim((O,), (O, O))
    back = eng.from_vector((O,), (O, O), v)
    assert eng.residual(back, f) < 1e-12


def test_word_mismatch():
    eng = _eng("fibonacci")
    t = eng.simple_obj("t")
    f = eng.identity((t,))
    with pytest.raises(ShapeMismatch):
        eng.compose(f, eng.identity((t, t)))


def test_mor_zero_block_rule():
    # mor drops a block only when every entry compares equal to zero
    eng = _eng("fibonacci")
    W = (eng.obj({"1": 1, "t": 2}),)  # the block at charge t is 2 x 2

    def kept(block):
        return "t" in eng.mor(W, W, {"t": block}).blocks

    assert not kept(np.full((2, 2), complex(-0.0, -0.0)))
    with_nan = np.zeros((2, 2))
    with_nan[1, 0] = np.nan
    assert kept(with_nan)
    assert kept(np.array([[0.0, 1e-300j], [0.0, 0.0]]))
    with pytest.raises(ShapeMismatch):
        eng.mor(W, W, {"t": np.zeros((2, 3))})


def _whisker_right_ref(eng, f, O):
    """f (x) id_O copied entry by entry into the grouped basis: the
    engine's whiskering before it placed blocks by slices, kept as the
    test reference."""
    X, Y = f.dom, f.cod
    rows = {d: range(len(eng.basis(Y, d))) for d in f.blocks}
    blocks = {}
    cod_support = eng.support(Y + (O,))
    for c in eng.support(X + (O,)):
        if c not in cod_support:
            continue
        gX, gXi, UX = eng.group_last(X, O, c)
        gY, gYi, UY = eng.group_last(Y, O, c)
        M = np.zeros((len(gY), len(gX)), dtype=complex)
        for j, (y, beta, d, u, ti) in enumerate(gX):
            fb = f.blocks.get(d)
            if fb is None:
                continue
            for si in rows[d]:
                v = fb[si, ti]
                if v != 0:
                    M[gYi[(y, beta, d, u, si)], j] = v
        blocks[c] = UY @ M @ UX.conj().T
    return eng.mor(X + (O,), Y + (O,), blocks)


def _whisker_left_ref(eng, O, f):
    """id_O (x) f copied entry by entry into the comb basis; see above."""
    X, Y = f.dom, f.cod
    dom, cod = (O,) + X, (O,) + Y
    rows = {e: range(len(eng.basis(Y, e))) for e in f.blocks}
    blocks = {}
    for c in eng.support(dom):
        cod_idx = eng.basis_index(cod, c)
        M = np.zeros((len(eng.basis(cod, c)), len(eng.basis(dom, c))), dtype=complex)
        for j, (x, alpha, e, v, ti) in enumerate(eng.basis(dom, c)):
            fb = f.blocks.get(e)
            if fb is None:
                continue
            for si in rows[e]:
                val = fb[si, ti]
                if val != 0:
                    M[cod_idx[(x, alpha, e, v, si)], j] = val
        blocks[c] = M
    return eng.mor(dom, cod, blocks)


def _sparse_mor(eng, dom, cod, rng):
    """Seeded random morphism with about a third of its entries zero and,
    where there are two charges or more, its first block dropped."""
    f = diagram_reference.random_mor(eng, dom, cod, rng)
    blocks = {c: np.where(rng.random(b.shape) < 0.3, 0, b) for c, b in f.blocks.items()}
    if len(blocks) > 1:
        blocks.pop(next(iter(blocks)))
    return eng.mor(dom, cod, blocks)


def _assert_same_blocks(got, ref):
    assert (got.dom, got.cod) == (ref.dom, ref.cod)
    assert list(got.blocks) == list(ref.blocks)
    for c, b in ref.blocks.items():
        assert np.array_equal(got.blocks[c], b, equal_nan=True), c


# (fusion data, objects) with the words built from the first three below:
# a multiplicity-2 object, objects with a unit summand, and the empty
# word; the sums of distinct units and the zero object after them are
# whiskered by too, so the strict-unit path meets the grouped reference
WHISKER_CASES = {
    "ising": [{"1": 1, "s": 1, "p": 1}, {"s": 1}, {"p": 1}, {"1": 1}, {}],
    "fibonacci": [{"t": 2}, {"1": 1, "t": 2}, {"t": 1}, {"1": 1}, {}],
    "m2_hilb": [
        {"11": 1, "12": 1},
        {"21": 1, "22": 1},
        {"12": 1},
        {"11": 1},
        {"22": 1},
        {"11": 1, "22": 1},
        {},
    ],
}


@pytest.mark.parametrize("name", list(WHISKER_CASES))
def test_whiskers_match_the_per_entry_reference(name):
    eng = _eng(name)
    rng = np.random.default_rng(11)
    objs = [eng.obj(o) for o in WHISKER_CASES[name]]
    words = [(), (objs[0],), (objs[1],), (objs[0], objs[2]), (objs[2], objs[1], objs[0])]
    checked = Counter()
    for X in words:
        for Y in words:
            f = _sparse_mor(eng, X, Y, rng)
            for O in objs:
                got = eng.whisker_right_obj(f, O)
                _assert_same_blocks(got, _whisker_right_ref(eng, f, O))
                _assert_same_blocks(eng.whisker_left_obj(O, f), _whisker_left_ref(eng, O, f))
                checked[eng.is_unit_sum(O), bool(got.blocks)] += bool(f.blocks)
    # non-empty results on both paths, and empty ones of a non-zero f
    # whiskered by the zero object or by units off its charges
    assert checked[False, True] >= 10 and checked[True, True] >= 10
    assert checked[True, False] >= 10


@pytest.mark.parametrize("name", list(WHISKER_CASES))
def test_column_whiskers_match_the_whole_whiskers(name):
    # the column whiskers place a lift once and apply it to each block of
    # a list: the left one gives exactly the whiskered block at c times
    # each block, the right one the same up to the association of its
    # three factors; every charge is tried, those outside the codomain's
    # support included, and the objects include the zero object and sums
    # of distinct units
    eng = _eng(name)
    rng = np.random.default_rng(12)
    objs = [eng.obj(o) for o in WHISKER_CASES[name]]
    words = [(), (objs[0],), (objs[1],), (objs[0], objs[2])]
    seen = Counter()
    for X, Y, O in itertools.product(words, words, objs):
        f = _sparse_mor(eng, X, Y, rng)
        right, left = eng.whisker_right_obj(f, O), eng.whisker_left_obj(O, f)
        for c in eng.data.simples:
            for whole, got_of, dom in (
                (right, lambda vs: eng.whisker_right_cols(f, O, c, vs), X + (O,)),
                (left, lambda vs: eng.whisker_left_cols(O, f, c, vs), (O,) + X),
            ):
                n = len(eng.basis(dom, c))
                vs = [rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)) for k in (1, 3)]
                got = got_of(vs)
                assert len(got) == len(vs)
                for g, v in zip(got, vs):
                    want = eng.block(whole, c) @ v
                    assert g.shape == want.shape
                    if whole is left:
                        assert np.array_equal(g, want)
                    else:
                        scale = max(1.0, np.abs(want).max(initial=0.0))
                        assert np.abs(g - want).max(initial=0.0) <= 1e-13 * scale
                seen[whole is left, c in eng.support(whole.cod), bool(n)] += 1
    # both sides meet charges in and outside the codomain's support
    assert all(seen[side, True, True] and seen[side, False, False] for side in (False, True))


def _residual_cases(eng, rng):
    """Pairs (f, g) of _sparse_mor maps, with blocks on one side only, a
    NaN block and -0.0 entries."""
    objs = [eng.obj(o) for o in WHISKER_CASES["ising"][:3]]
    words = [(objs[0],), (objs[1],), (objs[0], objs[2])]
    for X, Y in itertools.product(words, repeat=2):
        f, g = _sparse_mor(eng, X, Y, rng), _sparse_mor(eng, X, Y, rng)
        yield f, g
        yield g, f
        if not (f.blocks and g.blocks):
            continue
        first = next(iter(f.blocks))
        yield f, eng.mor(X, Y, {c: b for c, b in f.blocks.items() if c != first})
        yield eng.mor(X, Y, {first: f.blocks[first]}), g
        nan = {c: b.copy() for c, b in g.blocks.items()}
        nan[next(iter(nan))][0, 0] = np.nan
        yield f, eng.mor(X, Y, nan)
        signed = {c: np.where(b == 0, complex(-0.0, -0.0), b) for c, b in f.blocks.items()}
        yield eng.mor(X, Y, signed), f
        yield f, f


def test_residual_is_the_norm_of_the_difference_to_the_last_bit():
    # residual takes the norm in one pass over the blocks, with no Mor
    # formed, and gives what l2_norm(f - g) gives, NaN included
    eng = _eng("ising")
    rng = np.random.default_rng(13)
    kinds = Counter()
    for f, g in _residual_cases(eng, rng):
        got, want = eng.residual(f, g), eng.l2_norm(eng.add(f, eng.scale(-1.0, g)))
        assert np.array_equal(got, want, equal_nan=True), (got, want)
        kinds[np.isnan(want), want == 0.0, f.blocks.keys() == g.blocks.keys()] += 1
    assert kinds[True, False, True] and kinds[False, True, True] and kinds[False, False, False]
    W, V = (eng.simple_obj("s"),), (eng.simple_obj("p"),)
    with pytest.raises(ShapeMismatch, match="sum word mismatch"):
        eng.residual(eng.identity(W), eng.identity(V))


def test_engine_operations_keep_the_zero_block_rule():
    # compose, add, scale and both whiskers drop a block exactly when
    # every entry equals zero, and keep a block that holds a NaN
    eng = _eng("fibonacci")
    W = (eng.obj({"1": 1, "t": 2}),)  # blocks: 1 x 1 at charge 1, 2 x 2 at t
    O = eng.simple_obj("t")
    f = eng.mor(W, W, {"1": [[1.0]], "t": [[1.0, 0.0], [0.0, 0.0]]})
    g = eng.mor(W, W, {"1": [[2.0]], "t": [[0.0, 0.0], [0.0, 1.0]]})
    nan = eng.mor(W, W, {"t": [[np.nan, 0.0], [0.0, 0.0]]})
    one = eng.simple_obj("1")

    def no_zero_block(m):
        return all(b.any() for b in m.blocks.values())

    assert list(eng.compose(f, g).blocks) == ["1"]  # f_t g_t = 0
    assert list(eng.add(f, eng.scale(-1.0, f)).blocks) == []
    assert list(eng.scale(0.0, f).blocks) == []
    for m in [
        eng.compose(f, g),
        eng.add(f, g),
        eng.scale(2.0, g),
        eng.whisker_right_obj(f, O),
        eng.whisker_left_obj(O, f),
        eng.whisker_right_obj(eng.mor(W, W, {"1": [[1.0]]}), O),
        eng.whisker_left_obj(O, eng.mor(W, W, {"1": [[1.0]]})),
    ]:
        assert m.blocks and no_zero_block(m)
    for m in [
        eng.compose(f, nan),
        eng.add(nan, eng.scale(-1.0, f)),
        eng.scale(0.0, nan),
        eng.whisker_right_obj(nan, O),
        eng.whisker_left_obj(O, nan),
        eng.whisker_right_obj(nan, one),
    ]:
        assert any(np.isnan(b).any() for b in m.blocks.values())
    # whiskered by the unit, the NaN stays in its own entry: the block is
    # f's, not a product with identities that spreads it along a row
    assert np.isnan(eng.whisker_right_obj(nan, one).blocks["t"]).sum() == 1


def test_unitors_need_a_sum_of_distinct_units():
    # a unitor is the identity on trees only for a sum of distinct units:
    # any other object is an input error, never a wrong map
    eng = _eng("ising")
    W = (eng.obj({"s": 1, "p": 1}),)
    for U in ({"1": 2}, {"1": 1, "p": 1}, {"s": 1}):
        with pytest.raises(InputError, match="sum of distinct units"):
            eng.left_unitor(eng.obj(U), W)
        with pytest.raises(InputError, match="sum of distinct units"):
            eng.right_unitor(W, eng.obj(U))
    one = eng.obj({"1": 1})
    for unitor, dom in ((eng.left_unitor(one, W), (one,) + W), (eng.right_unitor(W, one), W + (one,))):
        assert (unitor.dom, unitor.cod) == (dom, W)
        assert eng.residual(eng.compose(unitor, eng.dagger(unitor)), eng.identity(W)) == 0.0


def test_unitors_are_the_grouped_identity_on_m2_hilb():
    # on two units, each unitor of U is the identity at the charges whose
    # source (left) or target (right) unit is in U and zero at the others;
    # the right one equals the dagger of the group_last regrouping
    eng = _eng("m2_hilb")
    W = (eng.obj({"11": 1, "12": 1, "21": 1}),)
    for units in (("11",), ("22",), ("11", "22")):
        U = eng.obj(dict.fromkeys(units, 1))
        left, right = eng.left_unitor(U, W), eng.right_unitor(W, U)
        assert list(left.blocks) == [c for c in eng.support(W) if eng.data.s(c) in units]
        assert list(right.blocks) == [c for c in eng.support(W) if eng.data.t(c) in units]
        for c, b in right.blocks.items():
            assert np.array_equal(b, eng.group_last(W, U, c)[2].conj().T)
