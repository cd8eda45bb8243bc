"""String-diagram constructions that hstarcat now reads off the fusion
data, kept as references for the tests.

The cups and caps of a simple are built here from its bare pairing trees
(raw_ev, raw_coev) scaled by the dual functor's coefficients, and the
closed loops and the zig-zag are taken by whiskering and composing: the
path the engine took before it read them off blocks and F-symbols. The
tree bases are built one charge at a time, rescanning every (x, e, c), as
before the engine swept all charges of a word at once; and swept per
object with its own tables (SweptBases), as each engine did before the
sweep and its tables moved onto the fusion data. The actions of a
free bimodule are its outer multiplications carried along the fusion, as
before the unit algebra acted by its unitors.

The sampled draws, closed loops and unit weights are kept as the engine
and the sampled checks computed them before each was batched or read off
the blocks directly: two normal draws per random block, real and
imaginary parts added, one product per action form, and closed loops
summed over every simple. Sphericality compares the whiskered loops of
each id_x, and ladder traciality composes and traces every pair of basis
ladders.

The module trace is kept as the dual closure of the module: the right
action and its dagger closed through ev_obj of the module's object,
dressed with bubble^{-1/2} on both released action strands, and read as
psi(iota^dag g iota) on the algebra (trace_alg_end), as intalg took it
before it read the closed loop of one dressed action off the blocks.
"""

import math

import numpy as np

from hstarcat import deligne, intalg
from hstarcat.certify import bounded
from hstarcat.diagram import Engine, Mor, _cup
from hstarcat.numcore import ShapeMismatch, worst


def unit_component(z, u) -> complex:
    """The entry of an endomorphism z of the unit at the unit u."""
    if z.dom != () or z.cod != ():
        raise ShapeMismatch("expected an endomorphism of the unit")
    b = z.blocks.get(u)
    return complex(b[0, 0]) if b is not None else 0.0


def psi_of_unit_endo(eng: Engine, z) -> complex:
    """psi applied to z, one unit_component per unit."""
    psi = eng.udf.psi
    return complex(sum(psi.of_unit(eng.data, u) * unit_component(z, u) for u in eng.data.units))


def closed_loop(eng: Engine, f, ev: bool):
    """Per unit u, the sum over every simple x with a copy in O of |z_x|^2
    tr(f_x), zero sums dropped by their entries."""
    (O,) = f.dom
    if f.cod != f.dom:
        raise ShapeMismatch("trace of a non-endomorphism")
    sums = {}
    for x in eng.data.simples:
        if not eng.mult(O, x):
            continue
        _, _, u, z = _cup(eng.data, eng.udf, x, ev)
        fb = f.blocks.get(x)
        term = abs(z) ** 2 * np.trace(fb) if fb is not None else 0.0
        sums[u] = sums.get(u, 0.0) + term
    blocks = {u: np.full((1, 1), v, dtype=complex) for u, v in sums.items()}
    return Mor((), (), {u: m for u, m in blocks.items() if np.count_nonzero(m)})


def random_mor(eng: Engine, dom, cod, rng):
    """A random morphism, two draws per charge: the real block, then the
    imaginary block."""
    blocks = {}
    for c in eng.support(dom):
        nr, nc = len(eng.basis(cod, c)), len(eng.basis(dom, c))
        if nr and nc:
            blocks[c] = rng.standard_normal((nr, nc)) + 1j * rng.standard_normal((nr, nc))
    return Mor(dom, cod, blocks)


def presentation_sphericality(X):
    """hilb3.presentation_sphericality with the whiskered closed loops of
    id_x for every simple x, weighed one unit at a time."""
    eng, gaps = X.eng, []
    for x in eng.data.simples:
        f = eng.identity((eng.simple_obj(x),))
        left = psi_of_unit_endo(eng, trace_left(eng, f))
        right = psi_of_unit_endo(eng, trace_right(eng, f))
        gaps.append(abs(left - right))
    return bounded("sphericality", worst(gaps), eng.tol.bound(1.0 + eng.udf.psi.total()), "sphericality")


def coefficients(rng, shape) -> np.ndarray:
    """Sampled ladder coefficients: real part, then imaginary part,
    coefficient by coefficient, added."""
    d = rng.standard_normal((*shape, 2))
    return d[..., 0] + 1j * d[..., 1]


def coefficient_blocks(rng, shapes):
    """coefficients(rng, shape) for each shape in turn, from one draw
    sliced in order."""
    sizes = [math.prod(shape) for shape in shapes]
    z, start = coefficients(rng, (sum(sizes),)), 0
    for shape, size in zip(shapes, sizes):
        yield z[start : start + size].reshape(shape)
        start += size


def right_action_isometry(mside, eng: Engine, m_objects, samples, seed):
    """deligne.right_action_isometry with one product per action form."""
    nside, forms = deligne.RegularLeft(eng), []
    for m in m_objects:
        for c in eng.data.simples:
            L = deligne.LadderObject(mside, nside, m, eng.simple_obj(c))
            if deligne.ladder_hom_dim(L, L):
                forms.append(np.array([deligne._trace_vector(L), [mside.trace(a) for a in deligne._images(L, L)]]))
    gaps = []
    rng = np.random.default_rng(seed)
    for (w, v), z in zip(forms, coefficient_blocks(rng, [(samples, len(w)) for w, _ in forms])):
        gaps += np.abs(z @ w - z @ v).tolist()
    return bounded("action_trace_gap", worst(gaps), eng.tol.bound(), "right-action isometry", {"samples": len(gaps)})


def ladder_traciality(eng: Engine):
    """deligne.ladder_traciality by ladder_compose and ladder_trace on
    every pair of basis ladders of each c (x) c."""
    mside, nside, gaps = deligne.RegularRight(eng), deligne.RegularLeft(eng), []
    for c in eng.data.simples:
        L = deligne.LadderObject(mside, nside, eng.simple_obj(c), eng.simple_obj(c))
        units = [deligne.LadderHom(L, L, e) for e in np.eye(deligne.ladder_hom_dim(L, L), dtype=complex)]
        for F in units:
            for G in units:
                FG, GF = deligne.ladder_compose(F, G), deligne.ladder_compose(G, F)
                gaps.append(abs(deligne.ladder_trace(FG) - deligne.ladder_trace(GF)))
    return bounded("traciality", worst(gaps), eng.tol.bound(deligne.TRACE_SCALE), "traciality")


def raw_ev(eng: Engine, c):
    """Dagger of the pairing tree vertex 1_{t(c)} -> dual(c) (x) c."""
    dom = (eng.simple_obj(eng.data.dual[c]), eng.simple_obj(c))
    return eng.mor(dom, (), {eng.data.t(c): np.ones((1, 1))})


def raw_coev(eng: Engine, c):
    """The pairing tree vertex 1_{s(c)} -> c (x) dual(c)."""
    cod = (eng.simple_obj(c), eng.simple_obj(eng.data.dual[c]))
    return eng.mor((), cod, {eng.data.s(c): np.ones((1, 1))})


def ev_simple(eng: Engine, c):
    """ev_c = alpha_c raw_ev."""
    return eng.scale(eng.udf.alpha[c], raw_ev(eng, c))


def coev_simple(eng: Engine, c):
    """coev_c = beta_c raw_coev."""
    return eng.scale(eng.udf.beta[c], raw_coev(eng, c))


def loop(eng: Engine, c, side: str) -> float:
    """The closed c-loop coev_c^dagger coev_c on the 1_{s(c)} sheet (side
    'L') or ev_c ev_c^dagger on the 1_{t(c)} sheet (side 'R')."""
    if side == "L":
        coev = coev_simple(eng, c)
        z, u = eng.compose(eng.dagger(coev), coev), eng.data.s(c)
    else:
        ev = ev_simple(eng, c)
        z, u = eng.compose(ev, eng.dagger(ev)), eng.data.t(c)
    return float(unit_component(z, u).real)


def trace_right(eng: Engine, f):
    """coev_O^dagger (f (x) id_dual(O)) coev_O, an endo of the unit."""
    (O,) = f.dom
    coev = eng.coev_obj(O)
    mid = eng.whisker_right_obj(f, eng.dual_obj(O))
    return eng.compose(eng.dagger(coev), eng.compose(mid, coev))


def trace_left(eng: Engine, f):
    """ev_O (id_dual(O) (x) f) ev_O^dagger, an endo of the unit."""
    (O,) = f.dom
    ev = eng.ev_obj(O)
    mid = eng.whisker_left_obj(eng.dual_obj(O), f)
    return eng.compose(ev, eng.compose(mid, eng.dagger(ev)))


def zigzag_scalar(eng: Engine, c) -> complex:
    """(id_c (x) raw_ev)(raw_coev (x) id_c) = theta_c id_c."""
    left = eng.whisker_right_obj(raw_coev(eng, c), eng.simple_obj(c))
    right = eng.whisker_left_obj(eng.simple_obj(c), raw_ev(eng, c))
    z = eng.compose(right, left)
    return complex(eng.block(z, c)[0, 0])


class PerChargeBases:
    """Right-comb tree bases of tensor words, built for one charge at a
    time with their own cache: entries (x, alpha, e, v, sub_index)."""

    def __init__(self, data):
        self.data = data
        self._basis = {}

    def basis(self, word, c):
        key = (word, c)
        out = self._basis.get(key)
        if out is not None:
            return out
        if not word:
            out = [()] if c in self.data.units else []
        else:
            O, rest = word[0], word[1:]
            out = []
            for x in self.data.simples:
                for alpha in range(O[self.data.index[x]]):
                    for e in self.support(rest):
                        for v in range(self.data.n(x, e, c)):
                            for si in range(len(self.basis(rest, e))):
                                out.append((x, alpha, e, v, si))
        self._basis[key] = out
        return out

    def basis_index(self, word, c):
        return {b: i for i, b in enumerate(self.basis(word, c))}

    def support(self, word):
        return tuple(c for c in self.data.simples if self.basis(word, c))


class SweptBases:
    """Right-comb tree bases of tensor words, swept for every charge of a
    word at once into tables of this object's own, the per-engine sweep
    that FusionData.sweep replaced."""

    def __init__(self, data):
        self.data = data
        self._basis, self._index, self._support = {}, {}, {}

    def basis(self, word, c):
        if (word, c) not in self._basis:
            self._trees(word)
        return self._basis[(word, c)]

    def basis_index(self, word, c):
        self.basis(word, c)
        return self._index[(word, c)]

    def support(self, word):
        if word not in self._support:
            self._trees(word)
        return self._support[word]

    def _trees(self, word):
        trees = {c: [] for c in self.data.simples}
        if not word:
            for u in self.data.units:
                trees[u].append(())
        else:
            O, rest = word[0], word[1:]
            inner = [(e, len(self.basis(rest, e))) for e in self.support(rest)]
            for x in self.data.simples:
                n = O[self.data.index[x]]
                if not n:
                    continue
                fused = [(e, k, self.data.fusion_products(x, e)) for e, k in inner]
                for alpha in range(n):
                    for e, k, products in fused:
                        for c, m in products:
                            out = trees[c]
                            for v in range(m):
                                for si in range(k):
                                    out.append((x, alpha, e, v, si))
        for c, out in trees.items():
            key = (word, c)
            self._basis[key] = out
            self._index[key] = {b: i for i, b in enumerate(out)}
        self._support[word] = tuple(c for c, out in trees.items() if out)


def free_actions(Ai, c, Aj):
    """(lam, rho) of the free bimodule A_i (x) c (x) A_j: mu_i (x) id and
    id (x) mu_j carried along the inverse V of the fusion."""
    eng = Ai.eng
    _, u = eng.fuse((Ai.obj, c, Aj.obj))
    V = eng.dagger(u)
    lam = intalg.carry_left(V, eng.whisker_right(eng.whisker_right_obj(Ai.mu, c), (Aj.obj,)), Ai)
    rho = intalg.carry_right(V, eng.whisker_left((Ai.obj, c), Aj.mu), Aj)
    return lam, rho


def trace_alg_end(A, f) -> complex:
    """Tr^{C_A}_A(f) = psi(iota^dag f iota) on End(A_A)."""
    eng = A.eng
    return eng.psi_of_unit_endo(eng.compose(eng.dagger(A.iota), eng.compose(f, A.iota)))


def module_trace(M, f) -> complex:
    """Module trace of f in End_A(M) for a right A-module M, via the dual
    closure of M dressed with bubble^{-1/2} on both released action
    strands."""
    eng = M.eng
    A = M.right
    m, md = M.obj, eng.dual_obj(M.obj)
    ev = eng.ev_obj(m)  # (md, m) -> ()
    s1 = eng.whisker_right(eng.dagger(ev), (A.obj,))  # (A) -> (md, m, A)
    s2 = eng.whisker_left((md,), M.rho)  # (md, m, A) -> (md, m)
    s3 = eng.whisker_left_obj(md, f)
    s4 = eng.whisker_left((md,), eng.dagger(M.rho))  # -> (md, m, A)
    s5 = eng.whisker_right(ev, (A.obj,))  # -> (A)
    half = A.bubble_pow(-0.5)
    g = eng.compose(half, eng.compose(s5, eng.compose(s4, eng.compose(s3, eng.compose(s2, eng.compose(s1, half))))))
    return trace_alg_end(A, g)
