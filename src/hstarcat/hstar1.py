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
units off its density matrices (verify_hstar_algebra), with no engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .certify import Certificate, clears, judged, within
from .diagram import Engine
from .hilb2 import TwoHilbertSpace
from .numcore import (
    DEFAULT_TOL,
    ConsistencyError,
    InputError,
    ShapeMismatch,
    Tolerance,
    frobenius,
    sample_rng,
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

    @property
    def dim(self) -> int:
        return sum(n * n for n in self.block_sizes)

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
            residuals["weight_projection"] = worst(
                float(frobenius(phi - _block(n, w))) for n, phi, w in zip(block_sizes, phis, weights)
            )
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


def module_trace_law_residual(
    mod: HStarModuleRep, tol: Tolerance = DEFAULT_TOL, seed: int = 0, samples: int = 20
) -> float:
    """Max residual of Tr_H(|xi><eta|) = Tr_A(<eta|xi>_A) over random
    vectors. It stays sampled: a Gram matrix over the GNS module of M_256,
    which the input schema allows, has 65,536^2 entries."""
    rng = sample_rng(samples, seed)
    eng = mod.algebra.space
    H = (mod.algebra.obj,), (eng.obj(mod.mults),)
    gaps = []
    for _ in range(samples):
        xi = eng.random_mor(*H, rng)
        eta = eng.random_mor(*H, rng)
        lhs = eng.categorical_trace(rank_one(eng, xi, eta))
        rhs = eng.categorical_trace(a_valued_inner(eng, eta, xi))
        gaps.append(abs(lhs - rhs))
    return worst(gaps)
