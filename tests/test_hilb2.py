import numpy as np
import pytest

from hstarcat import hilb2
from hstarcat.hilb2 import DagFunctor, TwoHilbertSpace
from hstarcat.numcore import InputError, ShapeMismatch


def _space():
    return TwoHilbertSpace(("x", "y", "z"), (1.0, 1.618, 2.414))


def test_trace_and_inner():
    sp = _space()
    o = sp.obj((2, 1, 0))
    assert sp.categorical_trace(sp.identity((o,))) == pytest.approx(2 * 1.0 + 1 * 1.618)
    rng = np.random.default_rng(0)
    g = sp.random_mor((o,), (o,), rng)
    assert hilb2.inner(sp, g, g).real > 0
    norms = sum(sp.udf.d(s) * np.linalg.norm(b) ** 2 for s, b in g.blocks.items())
    assert hilb2.inner(sp, g, g).real == pytest.approx(norms)


def test_yoneda_gram_identity():
    sp = _space()
    c = sp.obj((3, 2, 1))
    summands, cert = hilb2.yoneda_decompose(sp, c)
    assert cert.ok
    assert [s[0] for s in summands] == ["x", "y", "z"]
    for _, _, m, gram in summands:
        assert np.linalg.norm(gram - np.eye(m)) < 1e-12


def test_unitary_adjoint_mate_grams():
    sp = _space()
    tgt = TwoHilbertSpace(("p", "q"), (0.5, 3.0))
    F = DagFunctor(sp, tgt, ((1, 0, 2), (0, 3, 1)))
    G, cert = hilb2.unitary_adjoint(F)
    assert cert.ok
    assert np.array_equal(np.asarray(G.matrix), np.asarray(F.matrix).T)


def test_round_trip_recovers_dims():
    rng = np.random.default_rng(7)
    for _ in range(5):
        n = int(rng.integers(1, 5))
        dims = tuple(float(d) for d in rng.uniform(0.1, 10.0, n))
        sp = TwoHilbertSpace(tuple(f"s{i}" for i in range(n)), dims)
        recovered, cert = hilb2.round_trip(sp)
        assert cert.ok
        assert [recovered.udf.d(s) for s in recovered.data.simples] == pytest.approx(dims)


def test_isometry_check_rejects_collapse():
    sp = TwoHilbertSpace(("a", "b"), (1.0, 1.0))
    tgt = TwoHilbertSpace(("c",), (1.0,))
    F = DagFunctor(sp, tgt, ((1, 1),))
    cert = hilb2.isometry_check(F)
    assert (cert.ok, cert.failed_axiom) == (False, "isometry")


def test_isometry_check_rejects_dim_gap():
    sp = TwoHilbertSpace(("a",), (1.0,))
    tgt = TwoHilbertSpace(("c",), (2.0,))
    F = DagFunctor(sp, tgt, ((1,),))
    cert = hilb2.isometry_check(F)
    assert (cert.ok, cert.failed_axiom) == (False, "isometry")


def test_shape_errors():
    sp = _space()
    o = sp.obj((1, 0, 0))
    p = sp.obj((0, 1, 0))
    with pytest.raises(ShapeMismatch):
        sp.compose(sp.identity((o,)), sp.identity((p,)))
    with pytest.raises(InputError):
        TwoHilbertSpace(("a",), (-1.0,))
    with pytest.raises(ShapeMismatch):
        TwoHilbertSpace(("a", "b"), (1.0,))
    # an object has one nonnegative whole multiplicity per label
    for mults in ((1, 0), (-1, 0, 0), (0.5, 0, 0)):
        with pytest.raises((ShapeMismatch, InputError)):
            sp.obj(mults)


def _nan_written(sp, k):
    """sp with a NaN written into dimension k after construction (the
    constructor itself rejects a NaN dimension)."""
    sp.udf.dims[sp.data.simples[k]] = float("nan")
    return sp


def test_nan_dimension_rejects():
    sp = _nan_written(TwoHilbertSpace(("a", "b"), (1.0, 1.0)), 1)
    _, cert = hilb2.yoneda_decompose(sp, sp.obj((1, 2)))
    assert (cert.ok, cert.failed_axiom) == (False, "Yoneda unitarity")
    assert np.isnan(cert.residuals["gram_defect"])
    F = DagFunctor(_space(), _nan_written(_space(), 1), ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    cert = hilb2.isometry_check(F)
    assert (cert.ok, cert.failed_axiom) == (False, "isometry")
    assert np.isnan(cert.residuals["dim_gap[y]"])
    _, cert = hilb2.unitary_adjoint(F)
    assert (cert.ok, cert.failed_axiom) == (False, "mate unitarity")
    assert np.isnan(cert.residuals["mate_gram_defect"])


def test_dimensions_are_the_given_ones_at_any_scale():
    # d_s was sqrt(psi_s psi_s) on the engine, and the square overflowed to
    # inf at 1e200 (a ConsistencyError) and underflowed to 0 at 1e-200 (a
    # ZeroDivisionError)
    dims = (1e200, 1.0, 1e-200)
    sp = TwoHilbertSpace(("a", "b", "c"), dims)
    assert tuple(sp.udf.d(s) for s in sp.data.simples) == dims
    recovered, cert = hilb2.round_trip(sp)
    assert cert.ok, cert.residuals
    # a subnormal dimension keeps too few bits to divide by (on Fibonacci,
    # psi = 5e-324 gave d_t / d_1 = 2.0): an input error, as zero is
    with pytest.raises(InputError, match="^d_d = 5e-324 is zero, subnormal or not finite$"):
        TwoHilbertSpace(("a", "b", "c", "d"), (*dims, 5e-324))
