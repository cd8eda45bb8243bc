"""Relative Deligne product of module categories via the ladder model.

Hom(m1 (x) n1 -> m2 (x) n2) = (+)_c M(m1 -> m2 <| c) (x) N(c |> n1 -> n2),
with composition by stacking ladders and resolving the doubled middle
string through fusion vertices, and the trace that keeps only the unit
channels with a d_j^{-1} weight.

Module sides are realized inside the fusion-tree engine: the regular
C-module on either side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
        return self.eng.hom_basis((m1,), (m2, self.eng.simple_obj(c)))

    def trace(self, f: Mor) -> complex:
        return self.eng.categorical_trace(f)


class RegularLeft:
    def __init__(self, eng: Engine):
        self.eng = eng

    def word(self, n):
        return (n,)

    def hom(self, c, n1, n2):
        return self.eng.hom_basis((self.eng.simple_obj(c), n1), (n2,))

    def trace(self, f: Mor) -> complex:
        return self.eng.categorical_trace(f)


# --- ladder category ----------------------------------------------------


@dataclass
class LadderObject:
    mside: object
    nside: object
    m: object
    n: object
    # (id(m2), id(n2)) -> (m2, n2, hom bases to that target), filled by
    # ladder_hom_bases; holding m2 and n2 keeps their ids from being
    # reused, and holds no reference back to this object
    _homs: dict = field(default_factory=dict, repr=False, compare=False)

    def check_shared(self, other: "LadderObject"):
        if self.mside is not other.mside or self.nside is not other.nside:
            raise ShapeMismatch("ladder objects from different products")


@dataclass
class LadderHom:
    """Sum of elementary tensors: per middle simple c, a list of pairs
    (f: m1 -> m2 <| c, g: c |> n1 -> n2)."""

    src: LadderObject
    dst: LadderObject
    terms: dict  # c -> list[(Mor, Mor)]


def _eng(L: LadderObject) -> Engine:
    return L.mside.eng


def _mword(L: LadderObject):
    return L.mside.word(L.m)


def _nword(L: LadderObject):
    return L.nside.word(L.n)


def ladder_hom_bases(src: LadderObject, dst: LadderObject):
    """c -> (basis of M(m1 -> m2 <| c), basis of N(c |> n1 -> n2)) for
    the channels where both are nonempty, built once per (src, dst) and
    kept on src. Callers only read the bases."""
    src.check_shared(dst)
    key = (id(dst.m), id(dst.n))
    hit = src._homs.get(key)
    if hit is not None:
        return hit[2]
    eng = _eng(src)
    out = {}
    for c in eng.data.simples:
        fs = src.mside.hom(src.m, dst.m, c)
        if not fs:
            continue
        gs = src.nside.hom(c, src.n, dst.n)
        if gs:
            out[c] = (fs, gs)
    src._homs[key] = (dst.m, dst.n, out)
    return out


def ladder_hom_dim(src: LadderObject, dst: LadderObject) -> int:
    return sum(len(fs) * len(gs) for fs, gs in ladder_hom_bases(src, dst).values())


def random_ladder(src: LadderObject, dst: LadderObject, rng) -> LadderHom:
    eng = _eng(src)
    terms = {}
    for c, (fs, gs) in ladder_hom_bases(src, dst).items():
        lst = []
        for f in fs:
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
        ru = eng.right_unitor(mw, ju)  # (m, 1_j) -> (m)
        lu = eng.left_unitor(ju, nw)  # (1_j, n) -> (n)
        f = eng.dagger(ru)
        g = lu
        if f.blocks and g.blocks:
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
            # the fusion vertices nu: e -> c2 (x) c1, one per tree
            vertices = [
                (e, nu)
                for e in eng.support((c2o, c1o))
                for nu in eng.hom_basis((eng.simple_obj(e),), (c2o, c1o))
            ]
            for f2, g2 in pairs2:
                for f1, g1 in pairs1:
                    fs = eng.compose(eng.whisker_right_obj(f2, c1o), f1)
                    gs = eng.compose(g2, eng.whisker_left((c2o,), g1))
                    for e, nu in vertices:
                        fe = eng.compose(eng.whisker_left(m3w, eng.dagger(nu)), fs)
                        ge = eng.compose(gs, eng.whisker_right(nu, n1w))
                        if fe.blocks and ge.blocks:
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
            tn = F.src.nside.trace(eng.compose(g, lu))
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
            out = eng.add(
                out,
                eng.compose(eng.whisker_left(m2w, g), eng.whisker_right(f, c1w)),
            )
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
