"""Relative Deligne product of module categories via the ladder model.

Hom(m1 (x) n1 -> m2 (x) n2) = (+)_c M(m1 -> m2 <| c) (x) N(c |> n1 -> n2),
with composition by stacking ladders and resolving the doubled middle
string through fusion vertices, and the trace that keeps only the unit
channels with a d_j^{-1} weight.

Module sides are realized inside the fusion-tree engine: the regular
C-module on either side.

A ladder morphism is its coefficient vector z on the basis ladders
f (x) g of its hom space: the middle simples c in label order, and for each
c the elementary bases (Engine.hom_basis) of M(m1 -> m2 <| c) and
N(c |> n1 -> n2), f major. Composition is bilinear and the trace linear in
the coefficients, so both are fixed tensors on the basis ladders, kept on
the engine (Engine.derived) per ladder objects: T[k, p, q] with
(F o G)_k = T[k, p, q] zF_p zG_q, and the trace vector w with
tr F = w . z. The action images of the basis ladders are kept the same
way, and each check keeps its forms, one per ladder object: the
right-action check stacked by length for its samples, and the traciality
check as a list, read on the basis ladders.

Kept values are keyed by numbers, not words. A ladder object takes two
from its engine's intern table (Engine.intern) when it is built: one for
its product, the types of its module sides, and one for the product with
its objects m and n. A kept key is a name and such numbers, so a warm
ladder call (ladder_hom_dim, random_ladder, ladder_compose, ladder_trace)
costs one dict lookup on a flat key plus its numpy work, and a new sample
or seed does no diagram work. The right-action check draws all its
coefficients in one call; it gathers the coefficients of all forms of
one length as one stack and evaluates them in one pass, and each form's
coefficients are still, bit for bit, the draw of a call of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

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


@dataclass
class LadderObject:
    """m (x) n in the product of two module sides over one engine. At
    construction the engine interns product, for the side types, and key,
    for the product with m and n: sides of one type on one engine are one
    product, and no number is given twice, so equal keys mean one object
    of one product."""

    mside: object
    nside: object
    m: object
    n: object
    eng: Engine = field(init=False, repr=False, compare=False)
    product: int = field(init=False, repr=False, compare=False)
    key: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.eng = self.mside.eng
        if self.nside.eng is not self.eng:
            raise ShapeMismatch("the module sides belong to two engines")
        self.product = self.eng.intern((type(self.mside), type(self.nside)))
        self.key = self.eng.intern((self.product, self.m, self.n))

    def check_shared(self, other: "LadderObject"):
        if self.product != other.product:
            raise ShapeMismatch("ladder objects from different products")


@dataclass
class LadderHom:
    """sum_t z[t] e_t over the basis ladders e_t of Hom(src -> dst)."""

    src: LadderObject
    dst: LadderObject
    z: np.ndarray


class _Channels(NamedTuple):
    """Hom(src -> dst): its dimension, and through, the tuple of (c, span,
    basis of M(m1 -> m2 <| c), basis of N(c |> n1 -> n2)) for the middle
    simples c where both are nonempty: the basis ladders through c, at the
    slice span of the coefficients."""

    dim: int
    through: tuple


def _channels(src: LadderObject, dst: LadderObject) -> _Channels:
    eng = src.eng

    def build():
        # every kept build meets this check, so nothing on two products is kept
        src.check_shared(dst)
        out, offset = [], 0
        for c in eng.data.simples:
            fs = eng.hom_basis(*src.mside.hom(src.m, dst.m, c))
            gs = eng.hom_basis(*src.nside.hom(c, src.n, dst.n))
            if fs and gs:
                span = slice(offset, offset + len(fs) * len(gs))
                out.append((c, span, fs, gs))
                offset = span.stop
        return _Channels(offset, tuple(out))

    return eng.derived(("channels", src.key, dst.key), build)


def ladder_hom_dim(src: LadderObject, dst: LadderObject) -> int:
    return _channels(src, dst).dim


def _coefficients(rng, shape) -> np.ndarray:
    """Sampled coefficients of the given shape: real part, then imaginary
    part, coefficient by coefficient, the stream random_ladder reads."""
    return rng.standard_normal((*shape, 2)).view(np.complex128)[..., 0]


def _by_length(forms) -> tuple:
    """The forms, arrays whose last axis runs over their L coefficients,
    as (total, groups): total the sum of the L, and per L in order of first
    appearance (L, starts, stack), with starts the position of each form's
    first coefficient among all forms' and stack the forms of that length."""
    groups, total = {}, 0
    for form in forms:
        L = form.shape[-1]
        groups.setdefault(L, []).append((total, form))
        total += L
    return total, tuple((L, np.array([s for s, _ in g]), np.stack([f for _, f in g])) for L, g in groups.items())


def _sampled(rng, k, kept):
    """For each group of kept = _by_length(forms): the coefficients of its
    forms as one (n, k, L) stack of k samples each, and the stack of its
    forms. One draw holds them all, form by form in order, so each form's
    block is bit for bit the draw of _coefficients(rng, (k, L)) of its own."""
    total, groups = kept
    z = _coefficients(rng, (k * total,))
    for L, starts, stack in groups:
        yield z[k * starts[:, None] + np.arange(k * L)].reshape(len(starts), k, L), stack


def random_ladder(src: LadderObject, dst: LadderObject, rng) -> LadderHom:
    return LadderHom(src, dst, _coefficients(rng, (ladder_hom_dim(src, dst),)))


def identity_ladder(L: LadderObject) -> LadderHom:
    """Unit channels: graded projections through strict unitors."""
    eng = L.eng
    mw, nw = L.mside.word(L.m), L.nside.word(L.n)
    z = np.zeros(ladder_hom_dim(L, L), dtype=complex)
    for j, span, fs, gs in _channels(L, L).through:
        if j in eng.data.units:
            ju = eng.simple_obj(j)
            f = eng.to_vector(eng.dagger(eng.right_unitor(mw, ju)))  # (m) -> (m, 1_j)
            g = eng.to_vector(eng.left_unitor(ju, nw))  # (1_j, n) -> (n)
            z[span] = np.outer(f, g).reshape(-1)
    return LadderHom(L, L, z)


def _compose_tensor(L1: LadderObject, L2: LadderObject, L3: LadderObject) -> np.ndarray:
    """T[k, p, q], the k-th coefficient of e_p o e_q for the basis ladders
    e_p = f2 (x) g2 of Hom(L2 -> L3) and e_q = f1 (x) g1 of Hom(L1 -> L2):
    each vertex nu: e -> c2 c1 resolves the doubled middle string into the
    M factor (m3 <| nu^dagger)(f2 |> c1) f1 and the N factor
    g2 (c2 |> g1)(nu |> n1) over the middle e."""
    eng = L1.eng

    def build():
        m3w, n1w = L3.mside.word(L3.m), L1.nside.word(L1.n)
        spans = {e: k for e, k, _, _ in _channels(L1, L3).through}
        T = np.zeros((ladder_hom_dim(L1, L3), ladder_hom_dim(L2, L3), ladder_hom_dim(L1, L2)), dtype=complex)
        for c2, p, f2s, g2s in _channels(L2, L3).through:
            c2o = eng.simple_obj(c2)
            for c1, q, f1s, g1s in _channels(L1, L2).through:
                c1o = eng.simple_obj(c1)
                fs = [[eng.compose(eng.whisker_right_obj(f2, c1o), f1) for f1 in f1s] for f2 in f2s]
                gs = [[eng.compose(g2, eng.whisker_left_obj(c2o, g1)) for g1 in g1s] for g2 in g2s]
                for e in eng.support((c2o, c1o)):
                    if e not in spans:
                        continue
                    block = T[spans[e], p, q]
                    for nu in eng.hom_basis((eng.simple_obj(e),), (c2o, c1o)):
                        top = eng.whisker_left(m3w, eng.dagger(nu))
                        bottom = eng.whisker_right(nu, n1w)
                        A = np.array([[eng.to_vector(eng.compose(top, f)) for f in row] for row in fs])
                        B = np.array([[eng.to_vector(eng.compose(g, bottom)) for g in row] for row in gs])
                        # A[f2, f1, f3] B[g2, g1, g3] -> T[(f3, g3), (f2, g2), (f1, g1)], f major
                        block += np.einsum("ika,jlb->abijkl", A, B).reshape(block.shape)
        return T

    return eng.derived(("compose_tensor", L1.key, L2.key, L3.key), build)


def ladder_compose(F: LadderHom, G: LadderHom) -> LadderHom:
    """F o G by stacking and resolving the doubled middle string; G's
    target must be F's source, one object of one product."""
    if G.dst.key != F.src.key:
        raise ShapeMismatch("non-composable ladder morphisms")
    return LadderHom(G.src, F.dst, _compose_tensor(G.src, G.dst, F.dst) @ G.z @ F.z)


def _trace_vector(L: LadderObject) -> np.ndarray:
    """w with tr F = w . z on End(L): only the unit channels j survive, and
    a basis ladder f (x) g of one weighs tr(f) tr(g) / d_j, f and g closed
    through the unitors and traced by their module sides."""
    eng = L.eng

    def build():
        mw, nw = L.mside.word(L.m), L.nside.word(L.n)
        w = np.zeros(ladder_hom_dim(L, L), dtype=complex)
        for j, span, fs, gs in _channels(L, L).through:
            if j not in eng.data.units:
                continue
            ju, dj = eng.simple_obj(j), eng.udf.d(j)
            tms = [L.mside.trace(eng.compose(eng.right_unitor(mw, ju), f)) for f in fs]
            tns = [L.nside.trace(eng.compose(g, eng.dagger(eng.left_unitor(ju, nw)))) for g in gs]
            # scalar by scalar: numpy's complex outer product rounds otherwise
            w[span] = [tm * tn / dj for tm in tms for tn in tns]
        return w

    return eng.derived(("trace_vector", L.key), build)


def ladder_trace(F: LadderHom) -> complex:
    """Only unit channels survive, weighted by d_j^{-1}: w . z."""
    if F.src.key != F.dst.key:
        raise ShapeMismatch("trace of a non-endomorphism")
    return complex(_trace_vector(F.src) @ F.z)


def _images(src: LadderObject, dst: LadderObject) -> list:
    """The images (m2 <| g)(f |> n1) of the basis ladders f (x) g of
    Hom(src -> dst) under the right action functor."""
    eng = src.eng
    m2w, n1w = dst.mside.word(dst.m), src.nside.word(src.n)

    def build():
        out = []
        for _, _, fs, gs in _channels(src, dst).through:
            m2gs = [eng.whisker_left(m2w, g) for g in gs]
            out += [eng.compose(m2g, eng.whisker_right(f, n1w)) for f in fs for m2g in m2gs]
        return out

    return eng.derived(("images", src.key, dst.key), build)


def act_on_module(F: LadderHom) -> Mor:
    """Image of a ladder morphism under the right action functor
    m (x) c -> m <| c (n-side must be the regular module); on the C-C
    regular ladder this is the balanced tensor functor m (x) n."""
    eng = F.src.eng
    out = eng.zero(*(L.mside.word(L.m) + L.nside.word(L.n) for L in (F.src, F.dst)))
    for z, a in zip(F.z, _images(F.src, F.dst)):
        out = eng.add(out, eng.scale(z, a))
    return out


def right_action_isometry(
    mside, eng: Engine, m_objects, samples: int = 20, seed: int = 0
) -> Certificate:
    """Compare the ladder trace on endos of m (x) c with the module trace
    of their image under the action functor. Both are linear in the
    sampled coefficients z: z . w with the trace vector w, and z . v with
    v[t] the module trace of the t-th basis ladder's image. The action
    forms [w, v] of the nonempty m (x) c, m major and c in label order,
    are kept per side type and m_objects, stacked by length (_by_length),
    and all samples are one draw (_sampled): each length costs one
    product of its stacked samples with its stacked w and one with its v.
    The check stays sampled because its callers set the sample count and
    read it back: the benchmark's deligne workload passes samples=5 and
    checks details["samples"]."""
    if mside.eng is not eng:
        raise ShapeMismatch("the module side belongs to another engine")
    ms = tuple(m_objects)
    if not ms:
        raise InputError("the right-action check needs a module object")
    nside = RegularLeft(eng)
    rng = sample_rng(samples, seed)

    def build():
        forms = []
        for m in ms:
            for c in eng.data.simples:
                L = LadderObject(mside, nside, m, eng.simple_obj(c))
                if ladder_hom_dim(L, L):
                    forms.append(np.array([_trace_vector(L), [mside.trace(a) for a in _images(L, L)]]))
        return _by_length(forms)

    kept = eng.derived(("action_forms", type(mside), *ms), build)
    gaps = [np.abs(z @ wv[:, 0, :, None] - z @ wv[:, 1, :, None]) for z, wv in _sampled(rng, samples, kept)]
    gap, details = worst(g.max().item() for g in gaps), {"samples": sum(g.size for g in gaps)}
    return bounded("action_trace_gap", gap, eng.tol.bound(), "right-action isometry", details)


TRACE_SCALE = 10.0  # |tr(e_p e_q)| for basis ladders: d_c^2, 2.6 on the bundled data, 5 on TY(Z_5)


def ladder_traciality(eng: Engine) -> Certificate:
    """tr(F G) against tr(G F) on the endos of each c (x) c of the regular
    ladder category. Both are bilinear in the coefficients: with the trace
    form K[p, q] = tr(e_p e_q) = w . T[:, p, q] of the basis ladders,
    tr(F G) - tr(G F) = zF . (K - K^T) zG, so the identity holds on every
    pair exactly when K is symmetric, and the residual is the largest
    entry of |K - K^T| over the kept forms: the worst pair of basis
    ladders. Nothing is drawn."""

    def build():
        mside, nside = RegularRight(eng), RegularLeft(eng)
        forms = []
        for c in eng.data.simples:
            L = LadderObject(mside, nside, eng.simple_obj(c), eng.simple_obj(c))
            if ladder_hom_dim(L, L):
                forms.append(np.tensordot(_trace_vector(L), _compose_tensor(L, L, L), 1))
        return forms

    gap = worst(np.abs(K - K.T).max().item() for K in eng.derived(("trace_forms",), build))
    return bounded("traciality", gap, eng.tol.bound(TRACE_SCALE), "traciality")
