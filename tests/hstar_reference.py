"""The list-based H*-algebras and 2-Hilbert spaces that hstar1 and hilb2
now run on the diagram engine, kept as references for the tests.

An element of A = (+)_i M_{n_i} is a list of per-block matrices with the
trace sum_i w_i tr, a right module (+)_i C^{m_i x n_i} is a list of
blocks with the standard inner product, and a 2-Hilbert space has
objects (H2Object) that are multiplicity vectors and morphisms
(H2Morphism) that are per-label blocks with the trace sum_s d_s tr: the
arithmetic each module kept beside diagram.Mor before a 2-Hilbert space
became the engine on unit-only fusion data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hstarcat.certify import bounded, clears, judged, within
from hstarcat.numcore import (
    DEFAULT_TOL,
    ConsistencyError,
    InputError,
    ShapeMismatch,
    Tolerance,
    frobenius,
    worst,
)

# |u><u| = id holds up to the rounding of sqrt(w)^2 / w
FRAME_TOL = 1e-12


@dataclass(frozen=True)
class HStarAlgebra:
    block_sizes: tuple
    weights: tuple

    def __post_init__(self):
        object.__setattr__(self, "block_sizes", tuple(int(n) for n in self.block_sizes))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if len(self.block_sizes) != len(self.weights):
            raise ShapeMismatch("one weight per block required")
        if any(n <= 0 for n in self.block_sizes):
            raise InputError("block sizes must be positive")
        if not all(clears(w, 0) for w in self.weights):
            raise InputError("trace weights must be strictly positive")

    @property
    def dim(self) -> int:
        return sum(n * n for n in self.block_sizes)

    def unit(self):
        return [np.eye(n, dtype=complex) for n in self.block_sizes]

    def matrix_units(self):
        """Every e_jk of every block, as an element."""
        for i, n in enumerate(self.block_sizes):
            for j in range(n):
                for k in range(n):
                    a = [np.zeros((m, m), dtype=complex) for m in self.block_sizes]
                    a[i][j, k] = 1.0
                    yield a

    def trace(self, a) -> complex:
        return sum(w * np.trace(ai) for w, ai in zip(self.weights, a))

    def mul(self, a, b):
        return [ai @ bi for ai, bi in zip(a, b)]

    def star(self, a):
        return [ai.conj().T for ai in a]

    def inner(self, a, b) -> complex:
        """GNS inner product <a|b> = Tr_A(a^* b)."""
        return self.trace(self.mul(self.star(a), b))


def _functional_trace(functional, a) -> complex:
    return sum(np.trace(phi @ ai) for phi, ai in zip(functional, a))


def verify_hstar_algebra(
    block_sizes,
    weights=None,
    functional=None,
    tol: Tolerance = DEFAULT_TOL,
) -> Certificate:
    """Certify traciality and positivity of a trace on a multimatrix algebra.

    The trace is given either by per-block weights or by a raw functional
    (per-block density matrices phi_i, Tr(a) = sum tr(phi_i a_i)); a raw
    functional is projected onto weight form and rejected when the
    projection residual exceeds tolerance. Raises ShapeMismatch unless
    there is one weight per block, or one n x n functional matrix per
    block of size n. Traciality is tested on every pair of matrix units.
    """
    probe = HStarAlgebra(block_sizes, tuple(1.0 for _ in block_sizes))
    block_sizes = probe.block_sizes

    if functional is not None:
        functional = [np.asarray(phi, dtype=complex) for phi in functional]
        if [phi.shape for phi in functional] != [(n, n) for n in block_sizes]:
            raise ShapeMismatch("the functional needs one n x n matrix per block of size n")
        tr = lambda a: _functional_trace(functional, a)
    else:
        weights = tuple(float(w) for w in weights or ())
        if len(weights) != len(block_sizes):
            raise ShapeMismatch("one weight per block required")
        tr = lambda a: sum(w * np.trace(ai) for w, ai in zip(weights, a))

    units = list(probe.matrix_units())
    # np.abs of the array of gaps: numpy's array abs and Python's abs of a
    # complex may differ in the last bit
    gaps = np.array([tr(probe.mul(a, b)) - tr(probe.mul(b, a)) for a in units for b in units])
    residuals = {"traciality": worst(np.abs(gaps).tolist())}
    checks = [("traciality", tol.bound(), "traciality")]
    if functional is not None:
        # every tracial functional is blockwise a multiple of the matrix trace
        weights = tuple(np.trace(phi).real / n for n, phi in zip(block_sizes, functional))
        residuals["weight_projection"] = worst(
            float(frobenius(phi - w * np.eye(n)))
            for n, phi, w in zip(block_sizes, functional, weights)
        )
        checks.append(("weight_projection", tol.bound(), "traciality"))
    residuals["positivity_margin"] = float(np.min(weights))
    checks.append(("positivity_margin", tol.bound(), "positivity", clears))
    return judged(residuals, checks, {"weights": weights})


@dataclass(frozen=True)
class HStarModuleRep:
    """Right module H = (+)_i C^{m_i x n_i} over a multimatrix H*-algebra.

    Block i of the algebra acts by right matrix multiplication; the inner
    product is the standard <u|v> = sum_i tr(u_i^* v_i). The module trace
    on End(H_A) = (+)_i M_{m_i} determined by the rank-one trace law is
    Tr_H(f) = sum_i w_i tr(f_i).
    """

    algebra: HStarAlgebra
    mults: tuple

    def __post_init__(self):
        object.__setattr__(self, "mults", tuple(int(m) for m in self.mults))
        if len(self.mults) != len(self.algebra.block_sizes):
            raise ShapeMismatch("one multiplicity per block required")

    @property
    def dim(self) -> int:
        return sum(m * n for m, n in zip(self.mults, self.algebra.block_sizes))

    def a_valued_inner(self, eta, xi):
        """<eta|xi>_A, the composite <eta| o |xi> in End(A_A) = A.

        Characterized by Tr_A(x^* <eta|xi>_A) = <xi x | eta ... i.e. by
        adjointness of |xi>: a -> xi a against the GNS inner product.
        Blockwise this is eta_i^* xi_i / w_i.
        """
        return [
            e.conj().T @ x / w
            for e, x, w in zip(eta, xi, self.algebra.weights)
        ]

    def rank_one(self, xi, eta):
        """|xi><eta| in End(H_A): zeta -> xi <eta|zeta>_A."""
        return [
            x @ e.conj().T / w
            for x, e, w in zip(xi, eta, self.algebra.weights)
        ]


def _simple_quantum_dim(n: int, w: float) -> float:
    """Tr_H(id) for the row module C^{1xn} of (M_n, w tr), computed by
    expressing id_H through rank-one operators and applying the trace law.

    A Pimsner-Popa style frame for the A-valued inner product is the single
    vector u = sqrt(w) e_1: |u><u| = id_H, so Tr_H(id) = Tr_A(<u|u>_A).
    Computed numerically rather than assumed.
    """
    algebra = HStarAlgebra((n,), (w,))
    mod = HStarModuleRep(algebra, (1,))
    u = [np.zeros((1, n), dtype=complex)]
    u[0][0, 0] = np.sqrt(w)
    op = mod.rank_one(u, u)
    # frame property: |u><u| must be the identity of End(H_A)
    if not within(frobenius(op[0] - np.eye(1)), FRAME_TOL):
        raise ConsistencyError(f"|u><u| is not the identity for the weight {w}")
    return float(algebra.trace(mod.a_valued_inner(u, u)).real)


def simple_modules(A: HStarAlgebra):
    """One simple right module per block, with its quantum dimension.

    The computed value comes out as d_i = w_i, independent of the inner
    product normalization on the row module: scaling <.|.>_H rescales
    <eta|xi>_A and |xi><eta| by reciprocal factors, leaving Tr_H(id) fixed.
    """
    out = []
    for i, (n, w) in enumerate(zip(A.block_sizes, A.weights)):
        mults = tuple(1 if j == i else 0 for j in range(len(A.block_sizes)))
        out.append((HStarModuleRep(A, mults), _simple_quantum_dim(n, w)))
    return out


def linking_algebra(objects) -> HStarAlgebra:
    """Linking algebra of a finite list of objects of one skeletal 2-Hilbert
    space: formal matrices of hom spaces with matrix-multiplication product
    and dagger-transpose star.

    Hom(a_j -> a_i) splits over simple labels s, so L(a_1..a_k) is the
    multimatrix algebra with one block per supported label s of size
    sum_i mult_i(s) and trace weight d_s.
    """
    if not objects:
        raise InputError("need at least one object")
    space = objects[0].space
    for o in objects:
        if o.space is not space and o.space != space:
            raise ShapeMismatch("objects live in different 2-Hilbert spaces")
    sizes = []
    weights = []
    for idx, d in enumerate(space.dims):
        total = sum(o.mults[idx] for o in objects)
        if total > 0:
            sizes.append(total)
            weights.append(d)
    return HStarAlgebra(tuple(sizes), tuple(weights))


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


def mod_dagger_as_2hilb(A: HStarAlgebra) -> TwoHilbertSpace:
    """The 2-Hilbert space of H*-modules over A: one simple per block,
    quantum dimension computed from the module trace law."""
    sims = simple_modules(A)
    labels = tuple(f"block{i}" for i in range(len(A.block_sizes)))
    dims = tuple(d for _, d in sims)
    return TwoHilbertSpace(labels, dims)


def round_trip(space: TwoHilbertSpace, tol: Tolerance = DEFAULT_TOL):
    """C -> Mod-dagger(End(X), Tr_X) for X = direct sum of the simples,
    with the canonical comparison functor and its isometry certificate."""
    X = space.obj(tuple(1 for _ in space.labels))
    A = linking_algebra([X])
    recovered = mod_dagger_as_2hilb(A)
    n = len(space.labels)
    F = DagFunctor(space, recovered, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))
    return recovered, isometry_check(F, tol)
