"""2-Hilbert spaces (Baez): simple labels with positive quantum dimensions.

A 2-Hilbert space with simple dimensions d_s is the diagram engine on
unit-only fusion data (TwoHilbertSpace): every simple s is a unit with
N^{ss}_s = 1, there is no F, and the spherical weight is d, so the
engine's dimension of s is d_s. Its objects are Engine.obj multiplicity
tuples, its morphisms diagram.Mor with one block per label, the dagger is
the blockwise conjugate transpose and the inner product is
<f|g> = Tr(f^dag g) = sum_s d_s tr(f_s^* g_s), Engine.categorical_trace.
Dagger functors are skeletal multiplicity matrices; unitary adjunction
and the unitary Yoneda comparison are certified at the level of Gram
matrices. The Mod-dagger round trip, which needs H*-algebras, is
hstar1.round_trip.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certify import Certificate, bounded, judged
from .diagram import Engine
from .fusion import FusionData, SphericalWeight, dual_engine
from .numcore import DEFAULT_TOL, InputError, ShapeMismatch, Tolerance, frobenius, worst


def TwoHilbertSpace(labels, dims, tol: Tolerance = DEFAULT_TOL) -> Engine:
    """The 2-Hilbert space of the simples labels with quantum dimensions
    dims, carrying tol for every check on it: InputError unless every
    dimension is positive (SphericalWeight), ShapeMismatch unless there is
    one per label."""
    labels = tuple(labels)
    data = FusionData(labels, labels, {s: (s, s) for s in labels}, {s: s for s in labels}, {}, {})
    return dual_engine(data, SphericalWeight(dims), tol)


def inner(space: Engine, f, g) -> complex:
    """<f|g> = Tr(f^dag o g)."""
    return space.categorical_trace(space.compose(space.dagger(f), g))


def yoneda_decompose(space: Engine, c):
    """Orthogonal decomposition of the object c into generalized elements.

    Returns per-label summands (label, scaling d_s^{-1}, hom dimension,
    Gram matrix of the scaled hom basis) plus a certificate that the
    comparison map is unitary: every Gram matrix equals the identity.
    """
    summands = []
    for s in space.data.simples:
        m = space.mult(c, s)
        if m == 0:
            continue
        d = space.udf.d(s)
        basis = [space.include(c, s, alpha) for alpha in range(m)]
        gram = np.array([[(1.0 / d) * inner(space, f, g) for g in basis] for f in basis], dtype=complex)
        summands.append((s, 1.0 / d, m, gram))
    defect = worst(float(frobenius(gram - space.data.eye(m))) for _, _, m, gram in summands)
    return summands, bounded("gram_defect", defect, space.tol.bound(), "Yoneda unitarity")


@dataclass(frozen=True)
class DagFunctor:
    domain: Engine
    codomain: Engine
    matrix: tuple  # matrix[t][s] = multiplicity of codomain simple t in F(s)

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if m.shape != (len(self.codomain.data.simples), len(self.domain.data.simples)):
            raise ShapeMismatch("multiplicity matrix shape mismatch")
        if np.any(m < 0) or not np.issubdtype(m.dtype, np.integer):
            raise InputError("multiplicities must be nonnegative integers")
        object.__setattr__(self, "matrix", tuple(tuple(int(x) for x in row) for row in m))

    def apply(self, obj):
        return self.codomain.obj(np.asarray(self.matrix) @ self.domain.obj(obj))


def unitary_adjoint(F: DagFunctor, tol: Tolerance = DEFAULT_TOL):
    """The unitary adjoint functor and a certificate of adjunction unitarity.

    The adjoint has the transposed multiplicity matrix. The mate map
    B(F(s) -> t) -> A(s -> G(t)) rescales hom coordinates by
    sqrt(d_t / d_s); the certificate compares the two trace-induced Gram
    matrices under this map.
    """
    A, B = F.domain, F.codomain
    G = DagFunctor(B, A, tuple(map(tuple, np.asarray(F.matrix).T)))
    defects = []
    for j, s in enumerate(A.data.simples):
        for i, t in enumerate(B.data.simples):
            if F.matrix[i][j] == 0:
                continue
            src, tgt = A.simple_obj(s), B.simple_obj(t)
            scale = np.sqrt(B.udf.d(t) / A.udf.d(s))
            basis_b = B.hom_basis((F.apply(src),), (tgt,))
            basis_a = [A.scale(scale, f) for f in A.hom_basis((src,), (G.apply(tgt),))]
            gram_b = np.array([[inner(B, f, g) for g in basis_b] for f in basis_b])
            gram_a = np.array([[inner(A, f, g) for g in basis_a] for f in basis_a])
            defects.append(float(frobenius(gram_a - gram_b)))
    return G, bounded("mate_gram_defect", worst(defects), tol.bound(), "mate unitarity")


def isometry_check(F: DagFunctor, tol: Tolerance = DEFAULT_TOL) -> Certificate:
    """ACCEPT iff F is fully faithful on the skeleton (simples map to
    distinct simples) and preserves quantum dimensions."""
    m = np.asarray(F.matrix)
    dom, cod = F.domain, F.codomain
    gaps = {}
    checks = []
    used_rows = set()
    for s, label in enumerate(dom.data.simples):
        key = f"dim_gap[{label}]"
        checks.append((key, tol.bound(dom.udf.d(label)), "isometry"))
        col = m[:, s]
        nz = np.flatnonzero(col)
        t = int(nz[0]) if len(nz) == 1 and col[nz[0]] == 1 else None
        if t is None or t in used_rows:
            # not a simple, or two simples collapse: not faithful
            gaps[key] = float("inf")
            continue
        used_rows.add(t)
        gaps[key] = abs(cod.udf.d(cod.data.simples[t]) - dom.udf.d(label))
    return judged(gaps, checks)
