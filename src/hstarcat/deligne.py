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
# Only the M-side factor f of a term (f, g) carries a sampled coefficient.
# The N-side factors, and what is built from them alone, are kept on the
# engine (Engine.derived) under value keys that spell out how to build them:
#   ("basis", X, Y, k)            the k-th elementary morphism X -> Y
#   ("unitor", u, n)              the left unitor (1_u, n) -> (n)
#   ("dagger", h), ("whisker", w, h)   h^dagger, w <| h
#   ("rung", g2, c2, g1, nu, n1)  g2 o (c2 <| g1) o (nu |> n1)


def _piece(eng: Engine, key) -> Mor:
    """The morphism a value key names, built once per engine."""
    return eng.derived(key, lambda: _build(eng, *key))


def _build(eng: Engine, kind, *args) -> Mor:
    if kind == "basis":
        X, Y, k = args
        return eng.hom_basis(X, Y)[k]
    if kind == "unitor":
        return eng.left_unitor(*args)
    if kind == "dagger":
        return eng.dagger(_piece(eng, *args))
    if kind == "whisker":
        return eng.whisker_left(args[0], _piece(eng, args[1]))
    g2, c2o, g1, nu, n1w = args
    gs = eng.compose(_piece(eng, g2), eng.whisker_left((c2o,), _piece(eng, g1)))
    return eng.compose(gs, eng.whisker_right(_piece(eng, nu), n1w))


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
    """Sum of elementary tensors: per middle simple c, a list of pairs
    (f: m1 -> m2 <| c, key of g: c |> n1 -> n2)."""

    src: LadderObject
    dst: LadderObject
    terms: dict  # c -> list[(Mor, key)]


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
    eng = _eng(src)
    terms = {}
    for c, (fs, gs) in ladder_hom_bases(src, dst).items():
        lst = []
        for fkey in fs:
            f = _piece(eng, fkey)
            for g in gs:
                z = rng.standard_normal() + 1j * rng.standard_normal()
                lst.append((eng.scale(z, f), g))
        terms[c] = lst
    return LadderHom(src, dst, terms)


def identity_ladder(L: LadderObject) -> LadderHom:
    """Unit-channel terms: graded projections through strict unitors."""
    eng = _eng(L)
    mw, nw = _mword(L), _nword(L)
    terms = {}
    for j in eng.data.units:
        ju = eng.simple_obj(j)
        f = eng.dagger(eng.right_unitor(mw, ju))  # (m) -> (m, 1_j)
        g = ("unitor", ju, nw)  # (1_j, n) -> (n)
        if f.blocks and _piece(eng, g).blocks:
            terms[j] = [(f, g)]
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
    for c2, pairs2 in F.terms.items():
        c2o = eng.simple_obj(c2)
        for c1, pairs1 in G.terms.items():
            c1o = eng.simple_obj(c1)
            c2c1 = (c2o, c1o)
            vertices = eng.derived(
                ("vertices", c2c1),
                lambda: tuple(
                    (e, nu) for e in eng.support(c2c1) for nu in _basis_keys(eng, (eng.simple_obj(e),), c2c1)
                ),
            )
            m3nus = [_piece(eng, ("whisker", m3w, ("dagger", nu))) for _, nu in vertices]
            for f2, g2 in pairs2:
                for f1, g1 in pairs1:
                    fs = eng.compose(eng.whisker_right_obj(f2, c1o), f1)
                    for (e, nu), m3nu in zip(vertices, m3nus):
                        fe = eng.compose(m3nu, fs)
                        ge = ("rung", g2, c2o, g1, nu, n1w)
                        if fe.blocks and _piece(eng, ge).blocks:
                            terms.setdefault(e, []).append((fe, ge))
    return LadderHom(G.src, F.dst, terms)


def ladder_trace(F: LadderHom) -> complex:
    """Only unit channels survive, weighted by d_j^{-1}."""
    if not (_same_obj(F.src.m, F.dst.m) and _same_obj(F.src.n, F.dst.n)):
        raise ShapeMismatch("trace of a non-endomorphism")
    eng = _eng(F.src)
    mw, nw = _mword(F.src), _nword(F.src)
    total = 0.0
    for j in eng.data.units:
        pairs = F.terms.get(j, [])
        if not pairs:
            continue
        ju = eng.simple_obj(j)
        ru = eng.right_unitor(mw, ju)
        lu = eng.dagger(eng.left_unitor(ju, nw))
        for f, g in pairs:
            tm = F.src.mside.trace(eng.compose(ru, f))
            # g: (1_j, n) -> (n) fixes j and n
            tn = eng.derived(("unit_trace", g), lambda: F.src.nside.trace(eng.compose(_piece(eng, g), lu)))
            total += tm * tn / eng.udf.d(j)
    return complex(total)


def act_on_module(F: LadderHom) -> Mor:
    """Image of a ladder morphism under the right action functor
    m (x) c -> m <| c (n-side must be the regular module); on the C-C
    regular ladder this is the balanced tensor functor m (x) n."""
    eng = _eng(F.src)
    m2w = _mword(F.dst)
    c1w = _nword(F.src)
    out = eng.zero(_mword(F.src) + c1w, m2w + _nword(F.dst))
    for c, pairs in F.terms.items():
        for f, g in pairs:
            m2g = _piece(eng, ("whisker", m2w, g))
            out = eng.add(out, eng.compose(m2g, eng.whisker_right(f, c1w)))
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
    of their image under the action functor."""
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
                t2 = mside.trace(act_on_module(F))
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
