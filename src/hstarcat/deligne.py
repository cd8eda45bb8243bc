"""Relative Deligne product of module categories via the ladder model.

Hom(m1 (x) n1 -> m2 (x) n2) = (+)_c M(m1 -> m2 <| c) (x) N(c |> n1 -> n2),
with composition by stacking ladders and resolving the doubled middle
string through fusion vertices, and the trace that keeps only the unit
channels with a d_j^{-1} weight.

Module sides are realized inside the fusion-tree engine: the regular
C-module on either side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certify import Certificate, bounded
from .diagram import Engine, Mor
from .numcore import DEFAULT_TOL, ShapeMismatch, Tolerance, worst


# --- module sides -------------------------------------------------------


class RegularRight:
    """C as a right module over itself: plain hom spaces and the
    categorical trace."""

    def __init__(self, eng: Engine):
        self.eng = eng

    def word(self, m):
        return (m,)

    def hom(self, m1, m2, c):
        """The words (dom, cod) of M(m1 -> m2 <| c)."""
        return (m1,), (m2, self.eng.simple_obj(c))

    def trace(self, f: Mor) -> complex:
        return self.eng.categorical_trace(f)


class RegularLeft:
    def __init__(self, eng: Engine):
        self.eng = eng

    def word(self, n):
        return (n,)

    def hom(self, c, n1, n2):
        """The words (dom, cod) of N(c |> n1 -> n2)."""
        return (self.eng.simple_obj(c), n1), (n2,)

    def trace(self, f: Mor) -> complex:
        return self.eng.categorical_trace(f)


# --- ladder category ----------------------------------------------------
# A term of a ladder morphism is (z, key of f, key of g): the sampled
# coefficient z on the elementary tensor of two pieces. Every sum in this
# model is linear in the coefficients, so the pieces, and everything built
# from pieces alone, are kept on the engine (Engine.derived) under value
# keys that spell out how to build them:
#   ("basis", X, Y, k)            the k-th elementary morphism X -> Y
#   ("unitor", u, n)              the left unitor (1_u, n) -> (n)
#   ("counitor", m, u)            the inverse right unitor (m) -> (m, 1_u)
#   ("dagger", h), ("whisker", w, h)   h^dagger, w <| h
#   ("rung", g2, c2, g1, nu, n1)  g2 o (c2 <| g1) o (nu |> n1)
#   ("stack", m3nu, f2, c1, f1)   m3nu o (f2 |> c1) o f1
#   ("act", m2g, f, c1)           m2g o (f |> c1)
# Scalars are kept beside them: ("live", key) says whether a piece is
# nonzero, and ("trace", side, what, key) is a module side's trace of an
# endomorphism built from one piece.


def _piece(eng: Engine, key) -> Mor:
    """The morphism a value key names, built once per engine."""
    return eng.derived(key, lambda: _build(eng, *key))


def _build(eng: Engine, kind, *args) -> Mor:
    if kind == "basis":
        X, Y, k = args
        return eng.hom_basis(X, Y)[k]
    if kind == "unitor":
        return eng.left_unitor(*args)
    if kind == "counitor":
        return eng.dagger(eng.right_unitor(*args))
    if kind == "dagger":
        return eng.dagger(_piece(eng, *args))
    if kind == "whisker":
        return eng.whisker_left(args[0], _piece(eng, args[1]))
    if kind == "stack":
        m3nu, f2, c1o, f1 = args
        fs = eng.compose(eng.whisker_right_obj(_piece(eng, f2), c1o), _piece(eng, f1))
        return eng.compose(_piece(eng, m3nu), fs)
    if kind == "act":
        m2g, f, c1w = args
        return eng.compose(_piece(eng, m2g), eng.whisker_right(_piece(eng, f), c1w))
    g2, c2o, g1, nu, n1w = args
    gs = eng.compose(_piece(eng, g2), eng.whisker_left((c2o,), _piece(eng, g1)))
    return eng.compose(gs, eng.whisker_right(_piece(eng, nu), n1w))


def _live(eng: Engine, key) -> bool:
    """Whether the piece a key names has a nonzero block."""
    return eng.derived(("live", key), lambda: bool(_piece(eng, key).blocks))


def _trace(side, what, key, build) -> complex:
    """side.trace(build()) for the endomorphism build() makes from the
    piece key, once per engine; a NaN is kept like any other value."""
    return side.eng.derived(("trace", type(side).__name__, what, key), lambda: side.trace(build()))


def _basis_keys(eng: Engine, X, Y) -> tuple:
    return tuple(("basis", X, Y, k) for k in range(eng.hom_dim(X, Y)))


@dataclass
class LadderObject:
    mside: object
    nside: object
    m: object
    n: object

    def check_shared(self, other: "LadderObject"):
        if self.mside is not other.mside or self.nside is not other.nside:
            raise ShapeMismatch("ladder objects from different products")


@dataclass
class LadderHom:
    """Sum of elementary tensors: per middle simple c, a list of terms
    (z, key of f: m1 -> m2 <| c, key of g: c |> n1 -> n2) that stand for
    z f (x) g."""

    src: LadderObject
    dst: LadderObject
    terms: dict  # c -> list[(complex, key, key)]


def _eng(L: LadderObject) -> Engine:
    return L.mside.eng


def _mword(L: LadderObject):
    return L.mside.word(L.m)


def _nword(L: LadderObject):
    return L.nside.word(L.n)


def ladder_hom_bases(src: LadderObject, dst: LadderObject):
    """c -> (basis keys of M(m1 -> m2 <| c), basis keys of N(c |> n1 ->
    n2)) for the channels where both are nonempty, built once per engine
    and (m1, n1, m2, n2)."""
    src.check_shared(dst)
    eng = _eng(src)

    def build():
        out = {}
        for c in eng.data.simples:
            fs = _basis_keys(eng, *src.mside.hom(src.m, dst.m, c))
            gs = _basis_keys(eng, *src.nside.hom(c, src.n, dst.n))
            if fs and gs:
                out[c] = (fs, gs)
        return out

    return eng.derived(("ladder_homs", src.m, src.n, dst.m, dst.n), build)


def ladder_hom_dim(src: LadderObject, dst: LadderObject) -> int:
    return sum(len(fs) * len(gs) for fs, gs in ladder_hom_bases(src, dst).values())


def random_ladder(src: LadderObject, dst: LadderObject, rng) -> LadderHom:
    terms = {}
    for c, (fs, gs) in ladder_hom_bases(src, dst).items():
        terms[c] = [(rng.standard_normal() + 1j * rng.standard_normal(), f, g) for f in fs for g in gs]
    return LadderHom(src, dst, terms)


def identity_ladder(L: LadderObject) -> LadderHom:
    """Unit-channel terms: graded projections through strict unitors."""
    eng = _eng(L)
    mw, nw = _mword(L), _nword(L)
    terms = {}
    for j in eng.data.units:
        ju = eng.simple_obj(j)
        f = ("counitor", mw, ju)  # (m) -> (m, 1_j)
        g = ("unitor", ju, nw)  # (1_j, n) -> (n)
        if _live(eng, f) and _live(eng, g):
            terms[j] = [(1.0, f, g)]
    return LadderHom(L, L, terms)


def _same_obj(a, b) -> bool:
    return a is b or (isinstance(a, tuple) and isinstance(b, tuple) and a == b)


def ladder_compose(F: LadderHom, G: LadderHom) -> LadderHom:
    """F o G by stacking and resolving the doubled middle string."""
    if not (_same_obj(G.dst.m, F.src.m) and _same_obj(G.dst.n, F.src.n)):
        raise ShapeMismatch("non-composable ladder morphisms")
    eng = _eng(F.src)
    m3w = _mword(F.dst)
    n1w = _nword(G.src)
    terms = {}
    for c2, terms2 in F.terms.items():
        c2o = eng.simple_obj(c2)
        for c1, terms1 in G.terms.items():
            c1o = eng.simple_obj(c1)
            c2c1 = (c2o, c1o)
            vertices = eng.derived(
                ("vertices", c2c1),
                lambda: tuple(
                    (e, nu) for e in eng.support(c2c1) for nu in _basis_keys(eng, (eng.simple_obj(e),), c2c1)
                ),
            )
            for z2, f2, g2 in terms2:
                for z1, f1, g1 in terms1:
                    z = z2 * z1
                    for e, nu in vertices:
                        fe = ("stack", ("whisker", m3w, ("dagger", nu)), f2, c1o, f1)
                        ge = ("rung", g2, c2o, g1, nu, n1w)
                        if _live(eng, fe) and _live(eng, ge):
                            terms.setdefault(e, []).append((z, fe, ge))
    return LadderHom(G.src, F.dst, terms)


def ladder_trace(F: LadderHom) -> complex:
    """Only unit channels survive, weighted by d_j^{-1}: the sum of
    z tr(f) tr(g) / d_j over their terms."""
    if not (_same_obj(F.src.m, F.dst.m) and _same_obj(F.src.n, F.dst.n)):
        raise ShapeMismatch("trace of a non-endomorphism")
    eng = _eng(F.src)
    mside, nside = F.src.mside, F.src.nside
    mw, nw = _mword(F.src), _nword(F.src)
    total = 0.0
    for j in eng.data.units:
        terms = F.terms.get(j)
        if not terms:
            continue
        ju = eng.simple_obj(j)
        dj = eng.udf.d(j)
        for z, f, g in terms:
            # f: (m) -> (m, 1_j) and g: (1_j, n) -> (n) fix j, m and n
            tm = _trace(mside, "unit", f, lambda: eng.compose(eng.right_unitor(mw, ju), _piece(eng, f)))
            tn = _trace(
                nside, "unit", g, lambda: eng.compose(_piece(eng, g), eng.dagger(eng.left_unitor(ju, nw)))
            )
            total += z * tm * tn / dj
    return complex(total)


def _act_terms(F: LadderHom) -> list:
    """(z, key of the image of f (x) g) per term of F under the right
    action functor."""
    m2w, c1w = _mword(F.dst), _nword(F.src)
    return [(z, ("act", ("whisker", m2w, g), f, c1w)) for terms in F.terms.values() for z, f, g in terms]


def act_on_module(F: LadderHom) -> Mor:
    """Image of a ladder morphism under the right action functor
    m (x) c -> m <| c (n-side must be the regular module); on the C-C
    regular ladder this is the balanced tensor functor m (x) n."""
    eng = _eng(F.src)
    out = eng.zero(_mword(F.src) + _nword(F.src), _mword(F.dst) + _nword(F.dst))
    for z, a in _act_terms(F):
        out = eng.add(out, eng.scale(z, _piece(eng, a)))
    return out


def right_action_isometry(
    mside,
    eng: Engine,
    m_objects,
    samples: int = 20,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> Certificate:
    """Compare the ladder trace on endos of m (x) c with the module trace
    of their image under the action functor, which is linear in the terms:
    the sum of z tr(act(f (x) g))."""
    if mside.eng is not eng:
        raise ShapeMismatch("the module side belongs to another engine")
    nside = RegularLeft(eng)
    rng = np.random.default_rng(seed)
    gaps = []
    for m in m_objects:
        for c in eng.data.simples:
            L = LadderObject(mside, nside, m, eng.simple_obj(c))
            if ladder_hom_dim(L, L) == 0:
                continue
            for _ in range(samples):
                F = random_ladder(L, L, rng)
                t1 = ladder_trace(F)
                t2 = sum(z * _trace(mside, "act", a, lambda: _piece(eng, a)) for z, a in _act_terms(F))
                gaps.append(abs(t1 - t2))
    details = {"samples": len(gaps)}
    return bounded("action_trace_gap", worst(gaps), tol.bound(), "right-action isometry", details)


TRACE_SCALE = 10.0  # |tr(F G)| for sampled ladders: at most about 8 on the bundled data


def ladder_traciality(
    eng: Engine, samples: int, seed: int, tol: Tolerance = DEFAULT_TOL
) -> Certificate:
    """tr(F G) against tr(G F) on sampled endos of each c (x) c of the
    regular ladder category."""
    mside, nside = RegularRight(eng), RegularLeft(eng)
    rng = np.random.default_rng(seed)
    gaps = []
    for c in eng.data.simples:
        L = LadderObject(mside, nside, eng.simple_obj(c), eng.simple_obj(c))
        if ladder_hom_dim(L, L) == 0:
            continue
        for _ in range(samples):
            F, G = random_ladder(L, L, rng), random_ladder(L, L, rng)
            gaps.append(abs(ladder_trace(ladder_compose(F, G)) - ladder_trace(ladder_compose(G, F))))
    return bounded("traciality", worst(gaps), tol.bound(TRACE_SCALE), "traciality")
