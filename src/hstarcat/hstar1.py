"""H*-algebras in Hilb: multimatrix algebras with a faithful positive trace.

The algebra A = (+)_i M_{n_i} with the trace Tr_A(a) = sum_i w_i tr(a_i),
for strictly positive weights w_i, is End(X) for X = sum_i n_i 1_i in the
2-Hilbert space with one simple 1_i of dimension w_i per block (space):
the diagram engine on unit-only fusion data (hilb2.TwoHilbertSpace). Its
elements are diagram.Mor endomorphisms of X, its product is compose, its
star is dagger, Tr_A is categorical_trace, and the GNS inner product is
<a|b> = Tr_A(a^* b). A right module (+)_i C^{m_i x n_i} is Hom(X, Y) for
Y = sum_i m_i 1_i, with A acting by precomposition. A trace under test,
whose weights may be negative, NaN or not tracial, is checked on matrix
units off its density matrices (verify_hstar_algebra), with no engine,
and a module's rank-one trace law on one matrix unit per block
(module_trace_law): nothing here draws. The H*-modules over the linking
algebra of the simples give back the 2-Hilbert space they came from, up to
an isometry (round_trip).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .certify import Certificate, bounded, clears, judged, within
from .diagram import Engine
from .hilb2 import DagFunctor, TwoHilbertSpace, isometry_check
from .numcore import (
    DEFAULT_TOL,
    ConsistencyError,
    InputError,
    ShapeMismatch,
    Tolerance,
    worst,
)

# |u><u| = id holds up to the rounding of sqrt(w)^2 / w
FRAME_TOL = 1e-12
# Range of a trace weight. Outside it the frame check and the trace law
# leave float64: sqrt(w)^2 of a subnormal w underflows, and the block
# divisions by the smallest normal w overflow.
WEIGHT_MIN, WEIGHT_MAX = 1e-300, 1e300


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
        if not all(WEIGHT_MIN <= w <= WEIGHT_MAX for w in self.weights):
            raise InputError(f"trace weights must lie in [{WEIGHT_MIN:g}, {WEIGHT_MAX:g}]")

    @cached_property
    def space(self) -> Engine:
        """The 2-Hilbert space with one simple block{i} of dimension w_i
        per block, in which A = End(X) and Tr_A = categorical_trace: built
        from the weights on first use and kept, so that every computation
        on A runs on one engine."""
        return TwoHilbertSpace(tuple(f"block{i}" for i in range(len(self.block_sizes))), self.weights)

    @property
    def obj(self):
        """X = sum_i n_i 1_i in space."""
        return self.space.obj(self.block_sizes)


def _block(n: int, w) -> np.ndarray:
    """w 1_n, the density matrix of the weight w on a block of size n."""
    return np.diag(np.full(n, w, dtype=complex))


def _traciality(phi: np.ndarray) -> float:
    """max |tr(phi e_jk e_lm) - tr(phi e_lm e_jk)| = |delta_kl phi_mj -
    delta_mj phi_kl| over the matrix units of one block: the largest
    off-diagonal |phi_mj| or |phi_jj - phi_kk|, NaN for a non-finite
    diagonal."""
    d = np.diagonal(phi)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.maximum(np.abs(phi - np.diag(d)).max(), np.abs(d[:, None] - d).max()))


def _weight_gap(phi: np.ndarray) -> float:
    """||phi - w 1_n|| for w = tr(phi).real / n, the weight nearest to a
    density matrix phi of one block, formed without w: the root of sum_{j<k}
    (x_j - x_k)^2 / n + sum_j y_j^2 + sum_{j != k} |phi_jk|^2 for x + iy the
    diagonal of phi. The mean rounds, so an exact multiple of 1_n less w
    1_n need not be 0 in float64, where the differences of its diagonal
    are."""
    d = np.diagonal(phi)
    x, y = d.real, d.imag
    off = np.abs(phi - np.diag(d))
    return float(np.sqrt(np.sum((x[:, None] - x) ** 2) / (2 * len(d)) + y @ y + np.sum(off * off)))


def verify_hstar_algebra(block_sizes, weights=None, functional=None, tol: Tolerance = DEFAULT_TOL) -> Certificate:
    """Certify traciality and positivity of a trace on a multimatrix algebra.

    The trace is given either by per-block weights or by a raw functional
    (per-block density matrices phi_i, Tr(a) = sum tr(phi_i a_i)); a raw
    functional is projected onto weight form and rejected when the
    projection residual exceeds tolerance. Raises ShapeMismatch unless
    there is one weight per block, or one n x n functional matrix per
    block of size n. Traciality is bilinear, so it is checked on every
    pair of matrix units, off each block's density matrix (a weight w as
    w 1_n): nothing is drawn and no engine is built.
    """
    block_sizes = HStarAlgebra(block_sizes, tuple(1.0 for _ in block_sizes)).block_sizes
    if functional is not None:
        phis = [np.asarray(phi, dtype=complex) for phi in functional]
        if [phi.shape for phi in phis] != [(n, n) for n in block_sizes]:
            raise ShapeMismatch("the functional needs one n x n matrix per block of size n")
    else:
        weights = tuple(float(w) for w in weights or ())
        if len(weights) != len(block_sizes):
            raise ShapeMismatch("one weight per block required")
        phis = [_block(n, w) for n, w in zip(block_sizes, weights)]

    residuals = {"traciality": worst(_traciality(phi) for phi in phis)}
    checks = [("traciality", tol.bound(), "traciality")]
    if functional is not None:
        # every tracial functional is blockwise a multiple of the matrix trace
        weights = tuple(np.trace(phi).real / n for n, phi in zip(block_sizes, phis))
        with np.errstate(over="ignore", invalid="ignore"):
            residuals["weight_projection"] = worst(_weight_gap(phi) for phi in phis)
        checks.append(("weight_projection", tol.bound(), "traciality"))
    residuals["positivity_margin"] = float(np.min(weights))
    checks.append(("positivity_margin", tol.bound(), "positivity", clears))
    return judged(residuals, checks, {"weights": weights})


@dataclass(frozen=True)
class HStarModuleRep:
    """Right module H = Hom(X, Y) over A = End(X) in algebra.space, for
    Y = sum_i m_i 1_i: blockwise (+)_i C^{m_i x n_i}, with block i of the
    algebra acting by right matrix multiplication. The inner product is
    the standard <u|v> = sum_i tr(u_i^* v_i). The module trace on
    End(H_A) = End(Y) determined by the rank-one trace law is Tr_H =
    categorical_trace, sum_i w_i tr(f_i)."""

    algebra: HStarAlgebra
    mults: tuple

    def __post_init__(self):
        object.__setattr__(self, "mults", tuple(int(m) for m in self.mults))
        if len(self.mults) != len(self.algebra.block_sizes):
            raise ShapeMismatch("one multiplicity per block required")

    @property
    def dim(self) -> int:
        return sum(m * n for m, n in zip(self.mults, self.algebra.block_sizes))


def _per_weight(eng, f):
    """f with each block divided by the weight of its block, the dimension
    of its simple."""
    return eng.mor(f.dom, f.cod, {c: b / eng.udf.d(c) for c, b in f.blocks.items()})


def a_valued_inner(eng, eta, xi):
    """<eta|xi>_A, the composite <eta| o |xi> in End(X) = A: blockwise
    eta_i^* xi_i / w_i, fixed by the adjointness of |xi>: a -> xi a
    against the GNS inner product."""
    return _per_weight(eng, eng.compose(eng.dagger(eta), xi))


def rank_one(eng, xi, eta):
    """|xi><eta| in End(Y) = End(H_A): zeta -> xi <eta|zeta>_A, blockwise
    xi_i eta_i^* / w_i."""
    return _per_weight(eng, eng.compose(xi, eng.dagger(eta)))


def gns(A: HStarAlgebra) -> HStarModuleRep:
    """A as a right module over itself: block i appears with multiplicity n_i."""
    return HStarModuleRep(A, A.block_sizes)


def simple_modules(A: HStarAlgebra):
    """One simple right module per block, the row module Hom(n_i 1_i, 1_i),
    with its quantum dimension Tr_H(id), computed by expressing id_H
    through rank-one operators and applying the trace law.

    A Pimsner-Popa style frame for the A-valued inner product is the single
    vector u = sqrt(w_i) e_1: |u><u| = id_H, so Tr_H(id) = Tr_A(<u|u>_A).
    The computed value comes out as d_i = w_i, independent of the inner
    product normalization on the row module: scaling <.|.>_H rescales
    <eta|xi>_A and |xi><eta| by reciprocal factors, leaving Tr_H(id) fixed.
    """
    eng = A.space
    out = []
    for i, (c, n, w) in enumerate(zip(eng.data.simples, A.block_sizes, A.weights)):
        Y = (eng.simple_obj(c),)
        u = eng.scale(np.sqrt(w), eng.dagger(eng.include(eng.obj({c: n}), c, 0)))
        # frame property: |u><u| must be the identity of End(H_A)
        if not within(eng.residual(rank_one(eng, u, u), eng.identity(Y)), FRAME_TOL):
            raise ConsistencyError(f"|u><u| is not the identity for the weight {w}")
        mults = tuple(int(j == i) for j in range(len(A.block_sizes)))
        out.append((HStarModuleRep(A, mults), float(eng.categorical_trace(a_valued_inner(eng, u, u)).real)))
    return out


def linking_algebra(space: Engine, objects) -> HStarAlgebra:
    """Linking algebra of a finite list of objects of one skeletal 2-Hilbert
    space: formal matrices of hom spaces with matrix-multiplication product
    and dagger-transpose star.

    Hom(a_j -> a_i) splits over simple labels s, so L(a_1..a_k) is the
    multimatrix algebra with one block per supported label s of size
    sum_i mult_i(s) and trace weight d_s.
    """
    if not objects:
        raise InputError("need at least one object")
    # ShapeMismatch for an object of another space, one with more or fewer labels
    objects = [space.obj(o) for o in objects]
    sizes = []
    weights = []
    for s, total in zip(space.data.simples, map(sum, zip(*objects))):
        if total > 0:
            sizes.append(total)
            weights.append(space.udf.d(s))
    return HStarAlgebra(tuple(sizes), tuple(weights))


def module_trace_law(mod: HStarModuleRep, tol: Tolerance = DEFAULT_TOL) -> Certificate:
    """Certify the rank-one law Tr_H(|xi><eta|) = Tr_A(<eta|xi>_A) on mod,
    within tol.bound(), from one matrix unit per block.

    Both sides are sesquilinear in (xi, eta), so the law holds iff it
    holds on every pair of matrix units of Hom(X, Y). The engine composes
    block by block, so a pair from two blocks gives 0 on both sides; on
    the matrix units of block i, xi eta^* / w_i and eta^* xi / w_i make
    both Gram matrices s_i 1, where s_i is the side's value on (xi_i,
    xi_i) for xi_i = include(Y, c_i, 0) o include(X, c_i, 0)^dag. So the
    gaps at xi_i, one per block with m_i >= 1, are every gap there is:
    the check is exhaustive at every size, M_256 included, and draws
    nothing. Each side at xi_i is w_i (1/w_i), about 1 whatever the
    weights, so the bound is at unit scale; a law that holds gives both
    sides by the same arithmetic, a gap of exactly 0.0."""
    A = mod.algebra
    eng = A.space
    X, Y = A.obj, eng.obj(mod.mults)
    gaps = []
    for c, m in zip(eng.data.simples, mod.mults):
        if m:
            xi = eng.compose(eng.include(Y, c, 0), eng.dagger(eng.include(X, c, 0)))
            lhs = eng.categorical_trace(rank_one(eng, xi, xi))
            rhs = eng.categorical_trace(a_valued_inner(eng, xi, xi))
            gaps.append(abs(lhs - rhs))
    return bounded("rank_one_law", worst(gaps), tol.bound(), "module trace law")


def mod_dagger_as_2hilb(A: HStarAlgebra) -> Engine:
    """The 2-Hilbert space of H*-modules over A: one simple per block,
    quantum dimension computed from the module trace law."""
    dims = tuple(d for _, d in simple_modules(A))
    return TwoHilbertSpace(tuple(f"block{i}" for i in range(len(dims))), dims)


def round_trip(space: Engine):
    """C -> Mod-dagger(End(X), Tr_X) for X = direct sum of the simples,
    with the canonical comparison functor and its isometry certificate."""
    n = len(space.data.simples)
    recovered = mod_dagger_as_2hilb(linking_algebra(space, [(1,) * n]))
    F = DagFunctor(space, recovered, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))
    return recovered, isometry_check(F, space.tol)
