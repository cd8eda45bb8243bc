"""Skeletal 2-Hilbert spaces: simple labels with positive quantum dimensions.

Objects are multiplicity vectors, morphisms are per-label complex blocks,
the dagger is the blockwise conjugate transpose, and the trace is
Tr(f) = sum_s d_s tr(f_s). Dagger functors are skeletal multiplicity
matrices; unitary adjunction and the unitary Yoneda comparison are
certified at the level of Gram matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hstar1
from .certify import bounded, clears, judged
from .numcore import DEFAULT_TOL, InputError, ShapeMismatch, Tolerance, frobenius, worst


@dataclass(frozen=True)
class TwoHilbertSpace:
    labels: tuple
    dims: tuple

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "dims", tuple(float(d) for d in self.dims))
        if len(self.labels) != len(self.dims):
            raise ShapeMismatch("one dimension per label required")
        if not all(clears(d, 0) for d in self.dims):
            raise InputError("quantum dimensions must be positive")

    def obj(self, mults) -> "H2Object":
        return H2Object(self, tuple(int(m) for m in mults))

    def simple(self, idx: int) -> "H2Object":
        return self.obj(tuple(1 if i == idx else 0 for i in range(len(self.labels))))


@dataclass(frozen=True)
class H2Object:
    space: TwoHilbertSpace
    mults: tuple

    def __post_init__(self):
        if len(self.mults) != len(self.space.labels):
            raise ShapeMismatch("one multiplicity per label required")
        if any(m < 0 for m in self.mults):
            raise InputError("multiplicities must be nonnegative")


@dataclass(frozen=True)
class H2Morphism:
    source: H2Object
    target: H2Object
    blocks: tuple  # one (target mult x source mult) matrix per label

    @classmethod
    def identity(cls, obj: H2Object) -> "H2Morphism":
        return cls(obj, obj, tuple(np.eye(m, dtype=complex) for m in obj.mults))

    @classmethod
    def random(cls, source: H2Object, target: H2Object, rng) -> "H2Morphism":
        return cls(
            source,
            target,
            tuple(
                rng.standard_normal((mt, ms)) + 1j * rng.standard_normal((mt, ms))
                for ms, mt in zip(source.mults, target.mults)
            ),
        )

    def dagger(self) -> "H2Morphism":
        return H2Morphism(self.target, self.source, tuple(b.conj().T for b in self.blocks))

    def compose(self, other: "H2Morphism") -> "H2Morphism":
        """self o other."""
        if other.target.mults != self.source.mults:
            raise ShapeMismatch("composition shape mismatch")
        return H2Morphism(
            other.source,
            self.target,
            tuple(a @ b for a, b in zip(self.blocks, other.blocks)),
        )

    def trace(self) -> complex:
        if self.source.mults != self.target.mults:
            raise ShapeMismatch("trace of a non-endomorphism")
        return sum(d * np.trace(b) for d, b in zip(self.source.space.dims, self.blocks))

    def inner(self, other: "H2Morphism") -> complex:
        """<self|other> = Tr(self^dag o other)."""
        return self.dagger().compose(other).trace()

    def norm(self) -> float:
        return float(np.sqrt(max(self.inner(self).real, 0.0)))


def yoneda_decompose(c: H2Object, tol: Tolerance = DEFAULT_TOL):
    """Orthogonal decomposition of c into generalized elements.

    Returns per-label summands (label, scaling d_s^{-1}, hom dimension,
    Gram matrix of the scaled hom basis) plus a certificate that the
    comparison map is unitary: every Gram matrix equals the identity.
    """
    space = c.space
    summands = []
    for idx, (label, d) in enumerate(zip(space.labels, space.dims)):
        m = c.mults[idx]
        if m == 0:
            continue
        simple = space.simple(idx)
        basis = []
        for alpha in range(m):
            blocks = [np.zeros((c.mults[j], simple.mults[j]), dtype=complex) for j in range(len(space.labels))]
            blocks[idx][alpha, 0] = 1.0
            basis.append(H2Morphism(simple, c, tuple(blocks)))
        gram = np.array(
            [[(1.0 / d) * f.inner(g) for g in basis] for f in basis], dtype=complex
        )
        summands.append((label, 1.0 / d, m, gram))
    defect = worst(float(frobenius(gram - np.eye(m))) for _, _, m, gram in summands)
    return summands, bounded("gram_defect", defect, tol.bound(), "Yoneda unitarity")


@dataclass(frozen=True)
class DagFunctor:
    domain: TwoHilbertSpace
    codomain: TwoHilbertSpace
    matrix: tuple  # matrix[t][s] = multiplicity of codomain simple t in F(s)

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if m.shape != (len(self.codomain.labels), len(self.domain.labels)):
            raise ShapeMismatch("multiplicity matrix shape mismatch")
        if np.any(m < 0) or not np.issubdtype(m.dtype, np.integer):
            raise InputError("multiplicities must be nonnegative integers")
        object.__setattr__(self, "matrix", tuple(tuple(int(x) for x in row) for row in m))

    def apply(self, obj: H2Object) -> H2Object:
        m = np.asarray(self.matrix)
        return H2Object(self.codomain, tuple(int(x) for x in m @ np.asarray(obj.mults)))


def unitary_adjoint(F: DagFunctor, tol: Tolerance = DEFAULT_TOL):
    """The unitary adjoint functor and a certificate of adjunction unitarity.

    The adjoint has the transposed multiplicity matrix. The mate map
    B(F(s) -> t) -> A(s -> G(t)) rescales hom coordinates by
    sqrt(d_t / d_s); the certificate compares the two trace-induced Gram
    matrices under this map.
    """
    G = DagFunctor(F.codomain, F.domain, tuple(map(tuple, np.asarray(F.matrix).T)))
    defects = []
    for s, ds in enumerate(F.domain.dims):
        for t, dt in enumerate(F.codomain.dims):
            m = F.matrix[t][s]
            if m == 0:
                continue
            fs = F.apply(F.domain.simple(s))
            gt = G.apply(F.codomain.simple(t))
            tgt = F.codomain.simple(t)
            src = F.domain.simple(s)
            scale = np.sqrt(dt / ds)
            basis_b = []
            basis_a = []
            for alpha in range(m):
                bb = [np.zeros((1 if j == t else 0, fs.mults[j]), dtype=complex)
                      for j in range(len(F.codomain.labels))]
                bb[t][0, alpha] = 1.0
                basis_b.append(H2Morphism(fs, tgt, tuple(bb)))
                ba = [np.zeros((gt.mults[j], 1 if j == s else 0), dtype=complex)
                      for j in range(len(F.domain.labels))]
                ba[s][alpha, 0] = scale
                basis_a.append(H2Morphism(src, gt, tuple(ba)))
            gram_b = np.array([[f.inner(g) for g in basis_b] for f in basis_b])
            gram_a = np.array([[f.inner(g) for g in basis_a] for f in basis_a])
            defects.append(float(frobenius(gram_a - gram_b)))
    return G, bounded("mate_gram_defect", worst(defects), tol.bound(), "mate unitarity")


def isometry_check(F: DagFunctor, tol: Tolerance = DEFAULT_TOL) -> Certificate:
    """ACCEPT iff F is fully faithful on the skeleton (simples map to
    distinct simples) and preserves quantum dimensions."""
    m = np.asarray(F.matrix)
    gaps = {}
    checks = []
    used_rows = set()
    for s, label in enumerate(F.domain.labels):
        key = f"dim_gap[{label}]"
        checks.append((key, tol.bound(F.domain.dims[s]), "isometry"))
        col = m[:, s]
        nz = np.flatnonzero(col)
        t = int(nz[0]) if len(nz) == 1 and col[nz[0]] == 1 else None
        if t is None or t in used_rows:
            # not a simple, or two simples collapse: not faithful
            gaps[key] = float("inf")
            continue
        used_rows.add(t)
        gaps[key] = abs(F.codomain.dims[t] - F.domain.dims[s])
    return judged(gaps, checks)


def mod_dagger_as_2hilb(A: hstar1.HStarAlgebra) -> TwoHilbertSpace:
    """The 2-Hilbert space of H*-modules over A: one simple per block,
    quantum dimension computed from the module trace law."""
    sims = hstar1.simple_modules(A)
    labels = tuple(f"block{i}" for i in range(len(A.block_sizes)))
    dims = tuple(d for _, d in sims)
    return TwoHilbertSpace(labels, dims)


def round_trip(space: TwoHilbertSpace, tol: Tolerance = DEFAULT_TOL):
    """C -> Mod-dagger(End(X), Tr_X) for X = direct sum of the simples,
    with the canonical comparison functor and its isometry certificate."""
    X = space.obj(tuple(1 for _ in space.labels))
    A = hstar1.linking_algebra([X])
    recovered = mod_dagger_as_2hilb(A)
    n = len(space.labels)
    F = DagFunctor(space, recovered, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))
    return recovered, isometry_check(F, tol)
