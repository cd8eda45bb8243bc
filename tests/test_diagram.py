import numpy as np
import pytest

from hstarcat import bundled
from hstarcat.diagram import Engine, WordMismatch
from hstarcat.fusion import SphericalWeight, udf_from_weight

PHI = (1 + np.sqrt(5)) / 2


def _eng(name, psis=None):
    data = bundled.load(name)
    psi = SphericalWeight(psis if psis else tuple(1.0 for _ in data.units))
    return Engine(data, udf_from_weight(data, psi))


def test_object_arithmetic():
    eng = _eng("ising")
    O = eng.obj({"1": 1, "s": 2})
    assert eng.mult(O, "s") == 2
    assert eng.dual_obj(O) == O  # all Ising simples self-dual
    with pytest.raises(KeyError):
        eng.obj({"nope": 1})


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
    f = eng.random_mor((O,), (O, O), rng)
    g = eng.random_mor((O, O), (O,), rng)
    lhs = eng.dagger(eng.compose(g, f))
    rhs = eng.compose(eng.dagger(f), eng.dagger(g))
    assert eng.residual(lhs, rhs) < 1e-12


def test_whisker_functoriality():
    eng = _eng("ising")
    rng = np.random.default_rng(1)
    O = eng.obj({"s": 1, "p": 1})
    f = eng.random_mor((O,), (O,), rng)
    g = eng.random_mor((O,), (O,), rng)
    lhs = eng.whisker_right_obj(eng.compose(f, g), O)
    rhs = eng.compose(eng.whisker_right_obj(f, O), eng.whisker_right_obj(g, O))
    assert eng.residual(lhs, rhs) < 1e-10
    # interchange law through tensor
    lhs = eng.tensor(f, g)
    rhs = eng.compose(eng.whisker_right_obj(f, O), eng.whisker_left_obj(O, g))
    assert eng.residual(lhs, rhs) < 1e-10


def test_zigzags():
    for name in ("fibonacci", "ising", "m2_hilb"):
        eng = _eng(name)
        for c in eng.data.simples:
            O = eng.simple_obj(c)
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


def test_loop_traces_match_dims():
    eng = _eng("fibonacci", (1.0,))
    t = eng.simple_obj("t")
    ident = eng.identity((t,))
    assert eng.psi_of_unit_endo(eng.trace_left(ident)).real == pytest.approx(PHI)
    assert eng.psi_of_unit_endo(eng.trace_right(ident)).real == pytest.approx(PHI)
    assert eng.categorical_trace(ident).real == pytest.approx(PHI)


def test_trace_cyclicity():
    eng = _eng("ising", (0.8,))
    rng = np.random.default_rng(2)
    O = eng.obj({"1": 1, "s": 2, "p": 1})
    f = eng.random_mor((O,), (O,), rng)
    g = eng.random_mor((O,), (O,), rng)
    t1 = eng.categorical_trace(eng.compose(f, g))
    t2 = eng.categorical_trace(eng.compose(g, f))
    assert abs(t1 - t2) < 1e-9 * max(1, abs(t1))


def test_hom_vector_round_trip():
    eng = _eng("ising")
    rng = np.random.default_rng(3)
    O = eng.obj({"s": 1, "p": 1})
    f = eng.random_mor((O,), (O, O), rng)
    v = eng.to_vector(f)
    assert len(v) == eng.hom_dim((O,), (O, O))
    back = eng.from_vector((O,), (O, O), v)
    assert eng.residual(back, f) < 1e-12


def test_word_mismatch():
    eng = _eng("fibonacci")
    t = eng.simple_obj("t")
    f = eng.identity((t,))
    with pytest.raises(WordMismatch):
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
    with pytest.raises(WordMismatch):
        eng.mor(W, W, {"t": np.zeros((2, 3))})
