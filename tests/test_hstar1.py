import numpy as np
import pytest

from hstarcat import hstar1
from hstarcat.hilb2 import TwoHilbertSpace
from hstarcat.numcore import ConsistencyError, InputError, ShapeMismatch


def test_trace_and_inner():
    A = hstar1.HStarAlgebra((2, 3), (1.0, 0.5))
    assert A.dim == 13
    u = A.unit()
    assert A.trace(u) == pytest.approx(2 * 1.0 + 3 * 0.5)
    rng = np.random.default_rng(0)
    a = A.random_element(rng)
    assert A.inner(a, a).real > 0


def test_verify_accepts_weights():
    cert = hstar1.verify_hstar_algebra((2, 3), weights=(1.0, 0.25))
    assert cert.ok
    assert cert.residuals["traciality"] < 1e-12


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
    rng = np.random.default_rng(1)
    xi, eta, zeta = (mod.random_vector(rng) for _ in range(3))
    op = mod.rank_one(xi, eta)
    # rank-one acts as zeta -> xi <eta|zeta>_A
    lhs = [o @ z for o, z in zip(op, zeta)]
    rhs = [x @ m for x, m in zip(xi, mod.a_valued_inner(eta, zeta))]
    for a, b in zip(lhs, rhs):
        assert np.linalg.norm(a - b) < 1e-10


def test_linking_algebra():
    space = TwoHilbertSpace(("a", "b"), (1.0, 2.0))
    x = space.obj((1, 2))
    y = space.obj((0, 1))
    L = hstar1.linking_algebra([x, y])
    assert L.block_sizes == (1, 3)
    assert L.weights == (1.0, 2.0)
    with pytest.raises(InputError):
        hstar1.linking_algebra([])
    other = TwoHilbertSpace(("a",), (1.0,))
    with pytest.raises(ShapeMismatch):
        hstar1.linking_algebra([x, other.obj((1,))])


def test_json_round_trip():
    A = hstar1.HStarAlgebra((2, 3), (1.0, 0.5))
    assert hstar1.HStarAlgebra.from_json(A.to_json()) == A


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
    # an infinite weight passes the positivity check and fails the frame check
    A = hstar1.HStarAlgebra((1, 2), (1.0, float("inf")))
    with pytest.raises(ConsistencyError), np.errstate(invalid="ignore"):
        hstar1.simple_modules(A)
