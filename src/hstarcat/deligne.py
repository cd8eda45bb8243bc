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
from .numcore import InputError, ShapeMismatch, sample_rng, worst


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
# endomorphism built from one piece. A sampled check is a fixed linear or
# bilinear form in the coefficients, kept per ladder object L = m (x) n:
#   ("action_form", side, m, n)   the ladder trace and the action image's
#                                 trace of each basis ladder of End(L)
#   ("trace_form", m, n)          tr(e_i e_j) on the basis ladders e_i


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


def _coefficients(rng, shape) -> np.ndarray:
    """Sampled coefficients of the given shape, drawn from the stream that
    random_ladder reads: real part, then imaginary part, term by term."""
    d = rng.standard_normal((*shape, 2))
    return d[..., 0] + 1j * d[..., 1]


def _basis_ladders(L: LadderObject) -> list:
    """The one-term ladders, coefficient 1, on the basis of End(L), in
    random_ladder's term order: F = sum_t z_t e_t."""
    return [
        LadderHom(L, L, {c: [(1.0, f, g)]})
        for c, (fs, gs) in ladder_hom_bases(L, L).items()
        for f in fs
        for g in gs
    ]


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


def _action_form(mside, L: LadderObject) -> np.ndarray:
    """Rows w1, w2 over the basis ladders e_t of End(L): w1[t] is the
    ladder trace of e_t and w2[t] the module trace of its action image,
    so a ladder F = sum_t z_t e_t has the two traces z @ w1 and z @ w2."""
    eng = mside.eng

    def build():
        ones = _basis_ladders(L)
        w1 = [ladder_trace(e) for e in ones]
        w2 = [_trace(mside, "act", a, lambda: _piece(eng, a)) for e in ones for _, a in _act_terms(e)]
        return np.array([w1, w2])

    return eng.derived(("action_form", type(mside).__name__, L.m, L.n), build)


def right_action_isometry(
    mside, eng: Engine, m_objects, samples: int = 20, seed: int = 0
) -> Certificate:
    """Compare the ladder trace on endos of m (x) c with the module trace
    of their image under the action functor; both are linear in the
    sampled coefficients, so all samples of one m (x) c are one product
    with the action form."""
    if mside.eng is not eng:
        raise ShapeMismatch("the module side belongs to another engine")
    if not m_objects:
        raise InputError("the right-action check needs a module object")
    nside = RegularLeft(eng)
    rng = sample_rng(samples, seed)
    gaps = []
    for m in m_objects:
        for c in eng.data.simples:
            L = LadderObject(mside, nside, m, eng.simple_obj(c))
            if ladder_hom_dim(L, L) == 0:
                continue
            w1, w2 = _action_form(mside, L)
            z = _coefficients(rng, (samples, len(w1)))
            gaps += np.abs(z @ w1 - z @ w2).tolist()
    details = {"samples": len(gaps)}
    return bounded("action_trace_gap", worst(gaps), eng.tol.bound(), "right-action isometry", details)


TRACE_SCALE = 10.0  # |tr(F G)| for sampled ladders: at most about 8 on the bundled data


def _trace_form(L: LadderObject) -> np.ndarray:
    """K[i, j] = tr(e_i e_j) on the basis ladders e_i of End(L), so
    tr(F G) = sum_ij zF_i zG_j K[i, j] and tr(G F) the same sum against
    the transpose of K."""

    def build():
        ones = _basis_ladders(L)
        return np.array([[ladder_trace(ladder_compose(a, b)) for b in ones] for a in ones])

    return _eng(L).derived(("trace_form", L.m, L.n), build)


def ladder_traciality(eng: Engine, samples: int, seed: int) -> Certificate:
    """tr(F G) against tr(G F) on sampled endos of each c (x) c of the
    regular ladder category, all samples of one c (x) c against its trace
    form at once. Both traces sum the same products zF_i zG_j, formed once
    as ladder_compose forms them, so a symmetric form gives an exact 0."""
    mside, nside = RegularRight(eng), RegularLeft(eng)
    rng = sample_rng(samples, seed)
    gaps = []
    for c in eng.data.simples:
        L = LadderObject(mside, nside, eng.simple_obj(c), eng.simple_obj(c))
        if ladder_hom_dim(L, L) == 0:
            continue
        K = _trace_form(L)
        z = _coefficients(rng, (samples, 2, len(K)))
        P = z[:, 0, :, None] * z[:, 1, None, :]
        gaps += np.abs((P * K).sum(axis=(1, 2)) - (P * K.T).sum(axis=(1, 2))).tolist()
    return bounded("traciality", worst(gaps), eng.tol.bound(TRACE_SCALE), "traciality")
