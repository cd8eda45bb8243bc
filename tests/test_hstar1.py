import numpy as np
import pytest

import hstar_reference
from hstarcat import hilb2, hstar1
from hstarcat.hilb2 import TwoHilbertSpace
from hstarcat.numcore import ConsistencyError, InputError, ShapeMismatch


def test_trace_and_inner():
    A = hstar1.HStarAlgebra((2, 3), (1.0, 0.5))
    assert A.dim == 13
    eng, X = A.space, A.obj
    assert eng.categorical_trace(eng.identity((X,))) == pytest.approx(2 * 1.0 + 3 * 0.5)
    rng = np.random.default_rng(0)
    a = eng.random_mor((X,), (X,), rng)
    assert hilb2.inner(eng, a, a).real > 0


def test_verify_accepts_weights():
    # a weight form w 1_n is tracial on every pair of matrix units, exactly
    cert = hstar1.verify_hstar_algebra((2, 3), weights=(1.0, 0.25))
    assert cert.ok
    assert cert.residuals["traciality"] == 0.0


@pytest.mark.parametrize("weight", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_weight_on_a_block_of_one_rejects_on_traciality(weight):
    # a 1 x 1 block has no off-diagonal entry: w - w is NaN, and the test
    # settings make a RuntimeWarning an error
    cert = hstar1.verify_hstar_algebra((1,), weights=(weight,))
    assert (cert.ok, cert.failed_axiom) == (False, "traciality")
    assert np.isnan(cert.residuals["traciality"])


def test_verify_rejects_non_tracial_functional():
    # phi = diag(1, 2) on M_2 is positive but not tracial
    cert = hstar1.verify_hstar_algebra(
        (2,), functional=[np.diag([1.0, 2.0]).astype(complex)]
    )
    assert not cert.ok
    assert cert.failed_axiom == "traciality"
    # a REJECT lists every residual, the positivity margin of the
    # projected weight (1 + 2) / 2 among them
    assert set(cert.residuals) == {"traciality", "weight_projection", "positivity_margin"}
    assert cert.residuals["positivity_margin"] == 1.5


def test_verify_rejects_nonpositive_weight():
    cert = hstar1.verify_hstar_algebra((2,), weights=(-1.0,))
    assert not cert.ok
    assert cert.failed_axiom == "positivity"


@pytest.mark.parametrize(
    "weights, functional",
    [
        ((1.0,), None),
        ((1.0, 1.0, 5.0), None),
        (None, None),
        (None, [np.eye(2)]),
        (None, [np.eye(2), np.eye(2)]),
        (None, [np.eye(2), np.eye(3), np.eye(1)]),
    ],
    ids=["short_weights", "long_weights", "no_trace", "short_functional", "wrong_block", "long_functional"],
)
def test_verify_needs_one_trace_entry_per_block(weights, functional):
    # these once ACCEPTed: weights and functional blocks were zipped
    # against the block sizes
    with pytest.raises(ShapeMismatch):
        hstar1.verify_hstar_algebra((2, 3), weights, functional)


def test_gns_module_trace_law():
    A = hstar1.HStarAlgebra((2, 3, 1), (1.0, 0.5, 2.5))
    mod = hstar1.gns(A)
    assert mod.dim == A.dim
    assert hstar1.module_trace_law_residual(mod, seed=5) < 1e-9


def test_simple_module_dims_equal_weights():
    A = hstar1.HStarAlgebra((2, 4), (1.5, 0.25))
    dims = [d for _, d in hstar1.simple_modules(A)]
    assert dims == pytest.approx([1.5, 0.25])


def test_rank_one_reconstruction():
    A = hstar1.HStarAlgebra((3,), (0.7,))
    mod = hstar1.HStarModuleRep(A, (2,))
    eng = A.space
    H = (A.obj,), (eng.obj(mod.mults),)
    rng = np.random.default_rng(1)
    xi, eta, zeta = (eng.random_mor(*H, rng) for _ in range(3))
    op = hstar1.rank_one(eng, xi, eta)
    # rank-one acts as zeta -> xi <eta|zeta>_A
    lhs = eng.compose(op, zeta)
    rhs = eng.compose(xi, hstar1.a_valued_inner(eng, eta, zeta))
    assert eng.residual(lhs, rhs) < 1e-10


def test_linking_algebra():
    space = TwoHilbertSpace(("a", "b"), (1.0, 2.0))
    x = space.obj((1, 2))
    y = space.obj((0, 1))
    L = hstar1.linking_algebra(space, [x, y])
    assert L.block_sizes == (1, 3)
    assert L.weights == (1.0, 2.0)
    with pytest.raises(InputError):
        hstar1.linking_algebra(space, [])
    other = TwoHilbertSpace(("a",), (1.0,))
    with pytest.raises(ShapeMismatch):
        hstar1.linking_algebra(space, [x, other.obj((1,))])


def test_nan_weight_rejects():
    # max(0.0, nan) is 0.0, so a NaN weight once passed every check
    cert = hstar1.verify_hstar_algebra((1, 2), weights=(1.0, float("nan")))
    assert (cert.ok, cert.failed_axiom) == (False, "traciality")
    assert np.isnan(cert.residuals["traciality"])


def test_nan_weight_has_no_quantum_dimension():
    # the constructor rejects a NaN weight, so one written after
    # construction stops at the one-block algebra built for its dimension
    A = hstar1.HStarAlgebra((1, 2), (1.0, 1.0))
    object.__setattr__(A, "weights", (1.0, float("nan")))
    with pytest.raises(InputError):
        hstar1.simple_modules(A)
    # an infinite weight is outside the weight range: no algebra is built
    with pytest.raises(InputError):
        hstar1.HStarAlgebra((1, 2), (1.0, float("inf")))


def _reprs(cert):
    residuals = {k: repr(float(v)) for k, v in cert.residuals.items()}
    return cert.ok, cert.failed_axiom, residuals, repr([float(w) for w in cert.details.get("weights", ())])


def _same_verification(got, ref):
    """Equal verdicts and weights, and each residual the reference's by
    repr where that is finite, non-finite on both sides otherwise."""
    (ok, axiom, residuals, weights), want = _reprs(got), _reprs(ref)
    assert (ok, axiom, residuals.keys(), weights) == (want[0], want[1], want[2].keys(), want[3])
    for key, value in want[2].items():
        if np.isfinite(float(value)):
            assert residuals[key] == value, key
        else:
            assert not np.isfinite(float(residuals[key])), key


def _functional(rng, sizes):
    """Per block either a multiple of the identity (tracial) or a random
    positive matrix (not tracial)."""
    out = []
    for n in sizes:
        if rng.random() < 0.5:
            out.append(float(rng.uniform(0.1, 3.0)) * np.eye(n))
        else:
            b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            out.append(b @ b.conj().T)
    return out


def test_engine_routines_match_the_list_reference():
    # every residual, Gram matrix and dimension that hstar1 and hilb2
    # compute on the engine is the list-based reference's to the bit, on
    # seeded random algebras and spaces, the hstar_example inputs among them
    rng = np.random.default_rng(46)
    cases = [((2, 3), (1.0, 0.5), k) for k in (0, 3, 17)]
    for k in range(100):
        n = int(rng.integers(1, 4))
        sizes = tuple(int(s) for s in rng.integers(1, 5, n))
        cases.append((sizes, tuple(float(w) for w in 10.0 ** rng.uniform(-3, 3, n)), k))
    for sizes, weights, k in cases:
        got = hstar1.verify_hstar_algebra(sizes, weights)
        _same_verification(got, hstar_reference.verify_hstar_algebra(sizes, weights))
        phis = _functional(rng, sizes)
        got = hstar1.verify_hstar_algebra(sizes, functional=phis)
        _same_verification(got, hstar_reference.verify_hstar_algebra(sizes, functional=phis))
        A, R = hstar1.HStarAlgebra(sizes, weights), hstar_reference.HStarAlgebra(sizes, weights)
        mults = tuple(int(m) for m in rng.integers(0, 4, len(sizes)))
        for m in (sizes, mults):
            got, ref = hstar1.HStarModuleRep(A, m), hstar_reference.HStarModuleRep(R, m)
            assert got.dim == ref.dim
            law = hstar1.module_trace_law_residual(got, seed=k)
            assert repr(float(law)) == repr(float(hstar_reference.module_trace_law_residual(ref, seed=k)))
        dims = [repr(d) for _, d in hstar1.simple_modules(A)]
        assert dims == [repr(d) for _, d in hstar_reference.simple_modules(R)]

        labels = tuple(f"s{i}" for i in range(len(weights)))
        sp, rsp = TwoHilbertSpace(labels, weights), hstar_reference.TwoHilbertSpace(labels, weights)
        c = tuple(int(m) for m in rng.integers(0, 4, len(labels)))
        if any(c):
            summands, cert = hilb2.yoneda_decompose(sp, c)
            rsummands, rcert = hstar_reference.yoneda_decompose(rsp.obj(c))
            assert [(s, repr(x), m, g.tobytes()) for s, x, m, g in summands] == [
                (s, repr(x), m, g.tobytes()) for s, x, m, g in rsummands
            ]
            assert _reprs(cert) == _reprs(rcert)
        dims = tuple(float(d) for d in rng.uniform(0.3, 4.0, 2))
        tgt, rtgt = TwoHilbertSpace(("p", "q"), dims), hstar_reference.TwoHilbertSpace(("p", "q"), dims)
        mat = tuple(tuple(int(x) for x in rng.integers(0, 3, len(labels))) for _ in range(2))
        (G, cert), (RG, rcert) = (
            hilb2.unitary_adjoint(hilb2.DagFunctor(sp, tgt, mat)),
            hstar_reference.unitary_adjoint(hstar_reference.DagFunctor(rsp, rtgt, mat)),
        )
        assert (G.matrix, _reprs(cert)) == (RG.matrix, _reprs(rcert))
        (back, cert), (rback, rcert) = hilb2.round_trip(sp), hstar_reference.round_trip(rsp)
        assert [repr(back.udf.d(s)) for s in back.data.simples] == [repr(d) for d in rback.dims]
        assert _reprs(cert) == _reprs(rcert)

    # NaN and infinite weights: the same verdicts, NaN residuals and
    # exception classes
    nan, inf = float("nan"), float("inf")
    with np.errstate(all="ignore"):
        for weights in ((1.0, nan), (1.0, inf)):
            got = hstar1.verify_hstar_algebra((1, 2), weights)
            _same_verification(got, hstar_reference.verify_hstar_algebra((1, 2), weights))
        phis = [np.eye(1), np.array([[1.0, nan], [0.0, 1.0]])]
        got = hstar1.verify_hstar_algebra((1, 2), functional=phis)
        _same_verification(got, hstar_reference.verify_hstar_algebra((1, 2), functional=phis))
        for mod in (hstar1, hstar_reference):
            A = mod.HStarAlgebra((1, 2), (1.0, 1.0))
            object.__setattr__(A, "weights", (1.0, nan))
            with pytest.raises(InputError):
                mod.simple_modules(A)
        # an infinite weight is outside hstar1's weight range, so it builds
        # no algebra, where the reference failed the frame check and
        # returned a NaN residual: both fail closed
        with pytest.raises(ConsistencyError):
            hstar_reference.simple_modules(hstar_reference.HStarAlgebra((1, 2), (1.0, inf)))
        R = hstar_reference.HStarAlgebra((1,), (inf,))
        assert np.isnan(hstar_reference.module_trace_law_residual(hstar_reference.gns(R)))
        with pytest.raises(InputError):
            hstar1.HStarAlgebra((1,), (inf,))
        sp, rsp = TwoHilbertSpace(("a", "b"), (1.0, 1.0)), hstar_reference.TwoHilbertSpace(("a", "b"), (1.0, 1.0))
        sp.udf.dims["b"] = nan
        object.__setattr__(rsp, "dims", (1.0, nan))
        cert, rcert = hilb2.yoneda_decompose(sp, (1, 2))[1], hstar_reference.yoneda_decompose(rsp.obj((1, 2)))[1]
        assert _reprs(cert) == _reprs(rcert)
        one = ((1, 0), (0, 1))
        id_sp = TwoHilbertSpace(("a", "b"), (1.0, 1.0))
        id_rsp = hstar_reference.TwoHilbertSpace(("a", "b"), (1.0, 1.0))
        F, RF = hilb2.DagFunctor(id_sp, sp, one), hstar_reference.DagFunctor(id_rsp, rsp, one)
        assert _reprs(hilb2.isometry_check(F)) == _reprs(hstar_reference.isometry_check(RF))
        assert _reprs(hilb2.unitary_adjoint(F)[1]) == _reprs(hstar_reference.unitary_adjoint(RF)[1])
