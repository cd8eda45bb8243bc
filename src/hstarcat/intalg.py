"""Algebra objects inside a skeletal multifusion category.

Certification of the three H*-algebra axioms (Frobenius, separable,
standard), standardization to a special Q-system, group algebras (the
unit summands 1_u among them) and pair algebras c (x) c*, module
categories C_A with the trace psi of the closed loop of r^dag f r
(module_trace), internal ends (checked through internal_end_comparison
only, the unitarity of the canonical map A -> [A, A]), bimodules with the
relative tensor over a middle algebra, and the delta = 0 dual-functor
data on bimodules, whose norm identity compares two Gram matrices on a
basis of bimodule maps (delta0_norm_identity). An action dressed by
bubble^{-1/2} comes from one of two retractions, left_retraction and
right_retraction, the unitors on a splitting of A (x)_A M or M (x)_B B.

One class, Bimodule, carries the intertwiner calculus. A right A-module
is a 1-A bimodule, 1 = group_algebra(eng, units) the tensor unit as an
algebra, so the module category of A is the (1, A) block of a linking.
The unit algebra acts by its unitors: a free bimodule takes the engine's
left or right unitor as the action of a side that is the algebra
group_algebra builds on units (AlgebraObject.acts_by_unitors); by the
strict-unit rule that is its multiplication carried along the fusion.
A free bimodule A (x) c (x) B, and every summand of one, keeps its free
presentation: head, an isometry of its word into the unfused free word.
The algebra as its own bimodule is the summand of A (x) U (x) A, U its
unit summands, cut by the dressed comultiplication, so every simple of a
linking has a head, units included. Over the unit algebra the relative
tensor is the plain fused tensor: both actions are unitors, so the unit
axiom makes the separability projection the identity, and none is
built. Free is left adjoint to forgetful, so Hom_{A-B}(A (x) c (x) B, M)
= Hom(c, M) (Etingof-Gelaki-Nikshych-Ostrik, Tensor Categories, Sec.
7.8): a hom space out of such a source is spanned by act_M (id_A (x) g
(x) id_B) head over the elementary g: c -> M, and cut to an orthonormal
basis (_adjoint_span), which only normalizes a single map. One routine,
Bimodule.span_through, builds every such span, for Bimodule.homs and
for the linking's trees (where act is followed by a separability
projection, pair_projection); the engine whiskers all the g of one
charge as one stack (Engine.elementary_images). The balanced maps of
bimodule_map_basis come the same way from a free right module, so no hom
space is solved for. Every sub-bimodule carries its actions along an
isometry V as V^dag act (id (x) V) (carry_left, carry_right) and its
head as head V (carried). split_summands cuts a bimodule into simple
summands, and summand_classes keeps one per isomorphism class among the
summands of the free bimodules: the simple modules of module_category
and the simples of each block of a linking.

All diagrams are evaluated in the fusion-tree engine; every axiom is a
numeric residual, never a symbolic assumption.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .certify import Certificate, clears, judged, within
from .diagram import Engine, Mor
from .numcore import (
    RANK_CUT,
    ConsistencyError,
    InputError,
    ShapeMismatch,
    frobenius,
    projection_gaps,
    projection_rank,
    row_space,
    split_projection,
    worst,
)

# a condition number above this leaves fewer than four digits of a
# double, so powers and inverses of the bubble are not trusted
CONDITION_CUT = 1e12
# eigenvalues closer than this share of their scale form one cluster: far
# above the roundoff of eigh, far below the spacing of a generic draw
CLUSTER_GAP = 1e-6


def endo_power(eng: Engine, f: Mor, r: float) -> Mor:
    """f^r for a positive invertible chargewise-Hermitian endomorphism.

    Rejects inputs whose condition number exceeds the separability cut.
    """
    if f.dom != f.cod:
        raise ShapeMismatch("power of a non-endomorphism")
    vals_all = []
    blocks = {}
    for c in eng.support(f.dom):
        b = eng.block(f, c)
        if b.size == 0:
            continue
        h = (b + b.conj().T) / 2
        if not within(frobenius(b - h), eng.tol.bound(frobenius(b))):
            raise InputError(f"non-hermitian block at charge {c}")
        vals, vecs = np.linalg.eigh(h)
        vals_all.extend(vals.tolist())
        if vals.min() <= 0:
            raise InputError(f"non-positive eigenvalue {vals.min()} at {c}")
        blocks[c] = (vecs * vals**r) @ vecs.conj().T
    if vals_all and max(vals_all) / min(vals_all) > CONDITION_CUT:
        raise InputError("condition number above separability cut")
    return eng.mor(f.dom, f.cod, blocks)


@dataclass
class AlgebraObject:
    eng: Engine
    obj: tuple  # multiplicity vector
    mu: Mor  # (A, A) -> (A)
    iota: Mor  # () -> (A)
    _powers: dict = field(default_factory=dict)
    _unitors: bool = field(init=False, repr=False)

    def __post_init__(self):
        # mu and iota are never reassigned, so the test is made once
        eng = self.eng
        units = {u for u in eng.data.units if eng.mult(self.obj, u)}
        self._unitors = eng.is_unit_sum(self.obj) and all(
            f.blocks.keys() == units
            and all(b.shape == (1, 1) and b[0, 0] == 1 for b in f.blocks.values())
            for f in (self.mu, self.iota)
        )

    @property
    def word(self):
        return (self.obj,)

    @property
    def mu_dag(self) -> Mor:
        return self.eng.dagger(self.mu)

    @property
    def bubble(self) -> Mor:
        return self.eng.compose(self.mu, self.mu_dag)

    def bubble_pow(self, r: float) -> Mor:
        """bubble^r, made once per r; for an algebra that acts by unitors
        the bubble is the identity, and so is each power, with no eigh."""
        if r not in self._powers:
            self._powers[r] = self.identity() if self._unitors else endo_power(self.eng, self.bubble, r)
        return self._powers[r]

    def identity(self) -> Mor:
        return self.eng.identity(self.word)

    def acts_by_unitors(self) -> bool:
        """Whether this is the algebra that group_algebra builds on units:
        a sum of distinct units, with every block of mu and iota exactly
        [[1]]. Its action on any object is then the unitor. Tested once,
        at construction."""
        return self._unitors


def group_algebra(eng: Engine, labels) -> AlgebraObject:
    """Convolution algebra on a set of invertible simples.

    Coefficient 1 on every fusion channel that lands back in the set;
    channels leaving the set are dropped, so a non-closed set produces a
    candidate that fails certification (a deliberate negative control).
    On units alone it is their sum with its unique algebra structure:
    (u,) gives the trivial algebra 1_u, and all units the tensor unit.
    """
    data = eng.data
    obj = eng.obj({c: 1 for c in labels})
    word = (obj,)
    blocks = {}
    for c in eng.support(word + word):
        dom = eng.basis(word + word, c)
        cod = eng.basis(word, c)
        if not cod:
            continue
        m = np.zeros((len(cod), len(dom)), dtype=complex)
        tgt = eng.basis_index(word, c)[(c, 0, data.t(c), 0, 0)]
        for j, _ in enumerate(dom):
            m[tgt, j] = 1.0
        blocks[c] = m
    mu = eng.mor(word + word, word, blocks)
    iblocks = {}
    for u in data.units:
        if eng.mult(obj, u):
            iblocks[u] = np.ones((1, 1))
    iota = eng.mor((), word, iblocks)
    return AlgebraObject(eng, obj, mu, iota)


def pair_algebra(eng: Engine, O) -> AlgebraObject:
    """c (x) c* with mu = id (x) ev (x) id and iota = coev; the zero
    object, whose pair algebra has no unit summand, is an InputError."""
    if isinstance(O, str):
        O = eng.simple_obj(O)
    if not any(O):
        raise InputError("the pair algebra of the zero object has no unit summand")
    Od = eng.dual_obj(O)
    W = (O, Od)
    A, u = eng.fuse(W)
    mu_raw = eng.whisker_left(
        (O,), eng.whisker_right(eng.ev_obj(O), (Od,))
    )  # (O, Od, O, Od) -> (O, Od)
    mu = eng.compose(u, eng.compose(mu_raw, eng.tensor(eng.dagger(u), eng.dagger(u))))
    iota = eng.compose(u, eng.coev_obj(O))
    return AlgebraObject(eng, A, mu, iota)


def verify_hstar(A: AlgebraObject, *, seed: int = 0) -> Certificate:
    """Certify unitality, associativity, and the H* axioms. seed is
    unused: every check is exhaustive.

    Frobenius: (id (x) mu)(mu^dag (x) id) = mu^dag mu = (mu (x) id)(id (x) mu^dag).
    Separable: mu mu^dag invertible (condition number below the cut).
    Standard: the twisted-trace agreement on every pair of elementary
    tensors f: c -> A, g: c* -> A, for every simple c.
    """
    eng = A.eng
    word = A.word
    ident = eng.identity(word)
    residuals = {}

    lu = eng.compose(A.mu, eng.whisker_right_obj(A.iota, A.obj))
    ru = eng.compose(A.mu, eng.whisker_left_obj(A.obj, A.iota))
    residuals["unitality"] = worst([eng.residual(lu, ident), eng.residual(ru, ident)])

    assoc_l = eng.compose(A.mu, eng.whisker_right_obj(A.mu, A.obj))
    assoc_r = eng.compose(A.mu, eng.whisker_left_obj(A.obj, A.mu))
    residuals["associativity"] = eng.residual(assoc_l, assoc_r)

    md = A.mu_dag
    frob_l = eng.compose(eng.whisker_left_obj(A.obj, A.mu), eng.whisker_right_obj(md, A.obj))
    frob_m = eng.compose(md, A.mu)
    frob_r = eng.compose(eng.whisker_right_obj(A.mu, A.obj), eng.whisker_left_obj(A.obj, md))
    residuals["frobenius"] = worst([eng.residual(frob_l, frob_m), eng.residual(frob_r, frob_m)])

    bubble = A.bubble
    vals = []
    for c in eng.support(word):
        b = eng.block(bubble, c)
        if b.size:
            vals.extend(np.linalg.eigvalsh((b + b.conj().T) / 2).tolist())
    min_eig = float(np.min(vals)) if vals else 1.0
    cond = (max(vals) / min_eig) if vals and min_eig > 0 else float("inf")
    residuals["separability_min_eig"] = min_eig

    pairing = eng.compose(eng.dagger(A.iota), A.mu)  # (A, A) -> ()
    gaps = []
    for c in eng.data.simples:
        C, Cb = eng.simple_obj(c), eng.simple_obj(eng.data.dual[c])
        fs = eng.hom_basis((C,), word)
        gs = eng.hom_basis((Cb,), word)
        if not (fs and gs):
            continue
        coev, coev_b = eng.coev_obj(C), eng.coev_obj(Cb)
        for f in fs:
            for g in gs:
                t1 = eng.psi_of_unit_endo(
                    eng.compose(pairing, eng.compose(eng.tensor(f, g), coev))
                )
                t2 = eng.psi_of_unit_endo(
                    eng.compose(pairing, eng.compose(eng.tensor(g, f), coev_b))
                )
                gaps.append(abs(t1 - t2))
    residuals["standardness"] = worst(gaps)
    bound = eng.tol.bound()
    checks = [
        ("unitality", bound, "unitality"),
        ("associativity", bound, "associativity"),
        ("frobenius", bound, "H*1-frobenius"),
        ("separability_min_eig", bound, "H*2-separability", clears),
        ("condition", CONDITION_CUT, "H*2-separability"),
        ("standardness", bound, "H*3-standardness"),
    ]
    return judged(residuals, checks, {"condition": cond})


def standardize(A: AlgebraObject) -> AlgebraObject:
    """Equivalent standard special Q-system (A, x^{-1} mu, x iota)
    with x = (mu mu^dag)^{1/2}."""
    eng = A.eng
    x = A.bubble_pow(0.5)
    x_inv = A.bubble_pow(-0.5)
    return AlgebraObject(eng, A.obj, eng.compose(x_inv, A.mu), eng.compose(x, A.iota))


# --- intertwiners: hom spaces and carried actions -----------------------


def carry_left(V: Mor, lam: Mor, A: AlgebraObject) -> Mor:
    """The left action lam: (A, word) -> word carried along an isometry
    V: sub -> word, as V^dag lam (id_A (x) V): (A, sub) -> sub."""
    eng = A.eng
    return eng.compose(eng.dagger(V), eng.compose(lam, eng.whisker_left_obj(A.obj, V)))


def carry_right(V: Mor, rho: Mor, B: AlgebraObject) -> Mor:
    """The right action rho: (word, B) -> word carried along an isometry
    V: sub -> word, as V^dag rho (V (x) id_B): (sub, B) -> sub."""
    eng = B.eng
    return eng.compose(eng.dagger(V), eng.compose(rho, eng.whisker_right_obj(V, B.obj)))


def _adjoint_span(eng: Engine, dom, cod, rows: np.ndarray):
    """Orthonormal basis (in the to_vector inner product) of the span of
    the maps dom -> cod whose to_vector are the rows, through the rows of
    an SVD. A single map of finite norm is only normalized, under the cut
    of row_space; a NaN still reaches the SVD, which raises on it."""
    if len(rows) == 1:
        f = eng.from_vector(dom, cod, rows[0])
        if np.isfinite(norm := eng.l2_norm(f)):
            return [eng.scale(1.0 / norm, f)] if norm > RANK_CUT * max(1.0, norm) else []
    return [eng.from_vector(dom, cod, v) for v in row_space(rows)] if len(rows) else []


# --- modules: the 1-A bimodules -----------------------------------------


def module_trace(M: Bimodule, f: Mor) -> complex:
    """Module trace of f in End_A(M) for a right A-module M (the right
    action of a bimodule): psi of the left closed loop of r^dag f r, for
    r = rho (id_m (x) b iota) and b = bubble^{-1/2}. By the interchange
    law it is the dual closure psi(iota^dag b (ev_m (x) id_A) (id_md (x)
    rho^dag f rho) (ev_m^dag (x) id_A) b iota): b iota slides up past
    ev_m^dag onto the A strand of rho, and iota^dag b down to rho^dag."""
    eng = M.eng
    A = M.right
    r = eng.compose(M.rho, eng.whisker_left_obj(M.obj, eng.compose(A.bubble_pow(-0.5), A.iota)))
    return eng.psi_of_unit_endo(eng.trace_left(eng.compose(eng.dagger(r), eng.compose(f, r))))


@dataclass
class ModuleCategory:
    algebra: AlgebraObject
    simples: list  # of Bimodule: the simple right A-modules, as 1-A bimodules
    dims: list  # module trace of the identity per simple
    certificate: Certificate  # every dimension clears the positivity cut


def isometry(eng: Engine, word, cols: dict) -> Mor:
    """The map (O,) -> word whose block at charge c is cols[c] (orthonormal
    columns), where O counts the columns of each block."""
    obj = tuple(cols[c].shape[1] if c in cols else 0 for c in eng.data.simples)
    return eng.mor((obj,), word, cols)


def spectral_pieces(eng: Engine, word, comm, rng):
    """Split the object word along the eigenspaces of a random Hermitian
    element h of its commutant (comm, a basis of the structure-preserving
    endomorphisms).

    Eigenvalues of h are clustered at CLUSTER_GAP of their scale; each cluster
    gives the isometry from its eigenspace into word. A draw with a single
    cluster is degenerate and is re-drawn, at most five times in all.
    """
    for _ in range(5):
        h = eng.zero(word, word)
        for e in comm:
            z = rng.standard_normal() + 1j * rng.standard_normal()
            h = eng.add(h, eng.add(eng.scale(z, e), eng.scale(np.conj(z), eng.dagger(e))))
        eig = {}
        for c in eng.support(word):
            b = eng.block(h, c)
            eig[c] = np.linalg.eigh((b + b.conj().T) / 2)
        vals = sorted(v for ev, _ in eig.values() for v in ev.tolist())
        gap = CLUSTER_GAP * (max(abs(v) for v in vals) or 1.0)
        clusters = []
        for v in vals:
            if clusters and v - clusters[-1][-1] < gap:
                clusters[-1].append(v)
            else:
                clusters.append([v])
        if len(clusters) == 1:
            continue
        return [
            isometry(eng, word, {c: vecs[:, (ev >= cl[0] - gap) & (ev <= cl[-1] + gap)]
                                 for c, (ev, vecs) in eig.items()})
            for cl in clusters
        ]
    raise ConsistencyError("commutant element stayed degenerate after re-randomization")


def split_summands(F: Bimodule, seed: int = 0, depth: int = 0):
    """Simple summands of a bimodule F, each with its head, so that
    F.head^dag piece.head is its inclusion into F: split along the
    spectrum of a random Hermitian element of the commutant F.homs(F),
    and again in each piece, since residual eigenvalue collisions leave
    non-simple pieces. A split into as many pieces as the commutant has
    dimensions needs no second look: that dimension is the sum of m^2
    over the multiplicities m of F's simple summands, and each piece
    holds at least one summand, so every piece is simple. Depth d draws
    from the seed seed + d."""
    eng = F.eng
    # the commutant holds id_F and is spanned by one map per elementary
    # c -> F (homs), so with one such map F is simple
    if eng.hom_dim((F.head.cod[1],), F.word) == 1:
        return [F]
    comm = F.homs(F)
    if len(comm) == 1:
        return [F]
    if depth > 8:
        raise ConsistencyError("splitting did not terminate")
    rng = np.random.default_rng(seed + depth)
    pieces = [F.carried(V) for V in spectral_pieces(eng, F.word, comm, rng)]
    if len(pieces) == len(comm):
        return pieces
    return [piece for P in pieces for piece in split_summands(P, seed, depth + 1)]


def summand_classes(frees, seed: int = 0):
    """One simple summand per isomorphism class among the summands of the
    bimodules frees, in order of first appearance."""
    found = []
    for F in frees:
        for piece in split_summands(F, seed):
            # simples on different objects are never isomorphic
            if not any(piece.obj == old.obj and piece.homs(old) for old in found):
                found.append(piece)
    return found


def module_category(eng: Engine, A: AlgebraObject, *, seed: int = 0) -> ModuleCategory:
    """Enumerate simple right A-modules by splitting the free modules
    c (x) A, as the free 1-A bimodules 1 (x) c (x) A."""
    one = group_algebra(eng, eng.data.units)
    simples = summand_classes(free_bimodules(one, A).values(), seed)
    # module dimensions scale with the unit weights, and so does their cut;
    # like the separability margin, a dimension that does not clear it
    # REJECTs on its own axiom
    cut = eng.tol.bound() * min(eng.udf.psi.psi)
    dims = [module_trace(M, eng.identity(M.word)).real for M in simples]
    least = float(np.min(dims))
    cert = judged(
        {"min_module_dim": least},
        [("min_module_dim", cut, "module-dimension positivity", clears)],
        {"cut": cut},
    )
    return ModuleCategory(A, simples, dims, cert)


def _hom_inner(eng: Engine, dom_mod: Bimodule, g: Mor, h: Mor) -> complex:
    """Tr^{C_A}_{dom}(g^dag h) through the fused domain module."""
    _, u = eng.fuse(g.dom)
    endo = eng.compose(u, eng.compose(eng.dagger(g), eng.compose(h, eng.dagger(u))))
    return module_trace(dom_mod, endo)


def internal_end_comparison(A: AlgebraObject):
    """Unitarity defect of the canonical map A -> [A, A] on the free
    module A, measured simple-by-simple on generalized elements."""
    eng = A.eng
    one = group_algebra(eng, eng.data.units)
    defects = []
    for c in eng.data.simples:
        xs = eng.hom_basis((eng.simple_obj(c),), A.word)
        if not xs:
            continue
        # xs is orthonormal: Tr(x^dag y) / d_c = d_c delta_xy / d_c
        # c |> A as a module; 1 (x) c is one tree, so its fused basis is
        # that of (c, A), which _hom_inner fuses
        cmod = free_bimodule(one, c, A)
        phis = [eng.compose(A.mu, eng.whisker_right_obj(x, A.obj)) for x in xs]
        gram_e = np.array(
            [[_hom_inner(eng, cmod, p, q) / eng.udf.d(c) for q in phis] for p in phis]
        )
        defects.append(float(frobenius(gram_e - np.eye(len(phis)))))
    return worst(defects)


# --- bimodules and the relative tensor ---------------------------------


@dataclass
class Bimodule:
    """A-B bimodule: left action (A, m) -> (m), right action (m, B) -> (m)."""

    left: AlgebraObject
    right: AlgebraObject
    obj: tuple
    lam: Mor
    rho: Mor
    head: Mor = None  # (m) -> (A, c, B) for a summand of the free A (x) c (x) B;
    # a source of homs needs one

    @property
    def eng(self) -> Engine:
        return self.left.eng

    @property
    def word(self):
        return (self.obj,)

    def homs(self, other: "Bimodule"):
        """Basis of bimodule maps self -> other: act (id_A (x) g (x) id_B)
        head over g: c -> other, with act = lam (id_A (x) rho) of other."""
        eng = self.eng
        a, c, _ = self.head.cod
        if not eng.hom_dim((c,), other.word):
            return []
        return self.span_through(eng.compose(other.lam, eng.whisker_left_obj(a, other.rho)))

    def span_through(self, post: Mor):
        """Orthonormal basis of the span of post (id_A (x) g (x) id_B) head
        over the elementary g: c -> word, for post: (A, *word, B) -> cod:
        the one routine of every hom space out of a free presentation. The
        engine applies the whiskers to all the g at once
        (Engine.elementary_images)."""
        eng = self.eng
        return _adjoint_span(eng, self.word, post.cod, eng.elementary_images(self.head, post))

    def carried(self, V: Mor) -> "Bimodule":
        """The sub-bimodule on the domain of an isometry V into self.word."""
        lam, rho = carry_left(V, self.lam, self.left), carry_right(V, self.rho, self.right)
        head = self.eng.compose(self.head, V)
        return Bimodule(self.left, self.right, V.dom[0], lam, rho, head)


def free_bimodule(Ai: AlgebraObject, c, Aj: AlgebraObject) -> Bimodule:
    """A_i (x) c (x) A_j with outer multiplications, fused; its head is
    the inverse of the fusion. A side that acts by unitors (the unit
    algebra) acts on the fused object by its unitor, which is what its
    multiplication carried along the fusion gives."""
    eng = Ai.eng
    if isinstance(c, str):
        c = eng.simple_obj(c)
    fused, u = eng.fuse((Ai.obj, c, Aj.obj))
    V = eng.dagger(u)
    if Ai.acts_by_unitors():
        lam = eng.left_unitor(Ai.obj, (fused,))
    else:
        lam = carry_left(V, eng.whisker_right(eng.whisker_right_obj(Ai.mu, c), (Aj.obj,)), Ai)
    if Aj.acts_by_unitors():
        rho = eng.right_unitor((fused,), Aj.obj)
    else:
        rho = carry_right(V, eng.whisker_left((Ai.obj, c), Aj.mu), Aj)
    return Bimodule(Ai, Aj, fused, lam, rho, V)


def free_bimodules(Ai: AlgebraObject, Aj: AlgebraObject) -> dict:
    """The non-zero free bimodules A_i (x) c (x) A_j, keyed by the simple
    c in label order."""
    frees = {c: free_bimodule(Ai, c, Aj) for c in Ai.eng.data.simples}
    return {c: F for c, F in frees.items() if any(F.obj)}


def verify_bimodule(M: Bimodule) -> float:
    eng = M.eng
    A, B = M.left, M.right
    ident = eng.identity(M.word)
    res = [
        eng.residual(
            eng.compose(M.lam, eng.whisker_right_obj(A.mu, M.obj)),
            eng.compose(M.lam, eng.whisker_left_obj(A.obj, M.lam)),
        ),
        eng.residual(
            eng.compose(M.lam, eng.whisker_right_obj(A.iota, M.obj)), ident
        ),
        eng.residual(
            eng.compose(M.rho, eng.whisker_left_obj(M.obj, B.mu)),
            eng.compose(M.rho, eng.whisker_right_obj(M.rho, B.obj)),
        ),
        eng.residual(
            eng.compose(M.rho, eng.whisker_left_obj(M.obj, B.iota)), ident
        ),
        # middle associativity
        eng.residual(
            eng.compose(M.lam, eng.whisker_left_obj(A.obj, M.rho)),
            eng.compose(M.rho, eng.whisker_right_obj(M.lam, B.obj)),
        ),
    ]
    return worst(res)


def unit_summands(A: AlgebraObject):
    """The units u with 1_u a summand of A, in label order."""
    eng = A.eng
    units = [u for u in eng.data.units if eng.mult(A.obj, u)]
    if not units:
        raise InputError("the monad has no unit summand")
    return units


def algebra_bimodule(A: AlgebraObject) -> Bimodule:
    """A as an A-A bimodule, with head (id_A (x) lam_U^dag) mu^dag
    bubble^{-1/2}: (A) -> (A, U, A) for U the sum of the unit summands of
    A, and lam_U its left unitor. By Frobenius mu^dag is a bimodule map,
    so the head is an isometric one."""
    eng = A.eng
    U = eng.obj(dict.fromkeys(unit_summands(A), 1))
    split = eng.whisker_left_obj(A.obj, eng.dagger(eng.left_unitor(U, A.word)))
    head = eng.compose(split, eng.compose(A.mu_dag, A.bubble_pow(-0.5)))
    return Bimodule(A, A, A.obj, A.mu, A.mu, head)


def separability_projection(M: Bimodule, N: Bimodule) -> Mor:
    """p_{M,N} on (m, n): release the right B-action of M through
    bubble^{-1} into the left B-action of N."""
    if M.right is not N.left:
        if M.right.obj != N.left.obj:
            raise ShapeMismatch("middle algebras differ")
    eng = M.eng
    B = M.right
    s1 = eng.whisker_right(eng.dagger(M.rho), N.word)  # (m, n) -> (m, B, n)
    s2 = eng.whisker_left(M.word, eng.whisker_right_obj(B.bubble_pow(-1.0), N.obj))
    s3 = eng.whisker_left(M.word, N.lam)  # (m, B, n) -> (m, n)
    return eng.compose(s3, eng.compose(s2, s1))


def pair_projection(M: Bimodule, N: Bimodule):
    """(p, ranks): p the separability projection on (m, n), checked to be
    idempotent and self-adjoint on the whole map (at the engine's
    tolerance, scaled by its norm) and an orthogonal projection at each
    charge (numcore.projection_rank, the check of split_projection), and
    ranks its rank at each charge of (m, n), which is the multiplicity of
    that charge in M (x)_B N. One pass over the blocks of p forms each
    p_c^dag, p_c p_c, ||p_c|| and the gaps ||p_c p_c - p_c|| and ||p_c -
    p_c^dag|| once (numcore.projection_gaps); the whole-map residuals sum
    their squares as Engine.residual does, the idempotency gap at the
    charges where p_c p_c is zero last, so both checks see the residual's
    value to the last bit. Over the unit algebra (M.right and N.left
    both act by unitors) p is the identity by the unit axiom: p is None,
    no projection is built or checked, and the ranks are the tree counts
    of (m, n)."""
    eng = M.eng
    word = M.word + N.word
    if M.right.obj == N.left.obj and M.right.acts_by_unitors() and N.left.acts_by_unitors():
        # differing middle algebras still reach separability_projection
        return None, {c: len(eng.basis(word, c)) for c in eng.support(word)}
    p = separability_projection(M, N)
    parts = {c: projection_gaps(b) for c, b in p.blocks.items()}
    bound = eng.tol.bound(float(np.sqrt(sum(norm ** 2 for _, _, norm, _ in parts.values()))))
    # Engine.residual(p p, p) meets the charges where p_c p_c is zero
    # last, as compose drops those blocks
    idem = sorted(parts.values(), key=lambda part: not np.count_nonzero(part[1]))
    if not within(float(np.sqrt(sum(gaps[1] ** 2 for *_, gaps in idem))), bound):
        raise ConsistencyError("separability projection is not idempotent")
    if not within(float(np.sqrt(sum(gaps[0] ** 2 for *_, gaps in parts.values()))), bound):
        raise ConsistencyError("separability projection is not self-adjoint")
    ranks = {c: 0 for c in eng.support(word)}
    for c, part in parts.items():
        ranks[c] = projection_rank(p.blocks[c], part, eng.tol)
    return p, ranks


def relative_tensor(M: Bimodule, N: Bimodule):
    """M (x)_B N: split the separability projection of pair_projection on
    its own blocks. Over the unit algebra the tensor is the plain fused
    tensor eng.fuse(M.word + N.word), with V the dagger of the fusion; no
    projection is built, checked or split.

    Returns (Bimodule over (M.left, N.right), isometry V: T -> (m, n)).
    """
    eng = M.eng
    word = M.word + N.word
    p, _ = pair_projection(M, N)
    if p is None:
        Vw = eng.dagger(eng.fuse(word)[1])
    else:
        cols = {c: split_projection(eng.block(p, c), eng.tol) for c in eng.support(word)}
        Vw = isometry(eng, word, cols)  # (T,) -> (m, n)
    lam = carry_left(Vw, eng.whisker_right(M.lam, N.word), M.left)
    rho = carry_right(Vw, eng.whisker_left(M.word, N.rho), N.right)
    return Bimodule(M.left, N.right, Vw.dom[0], lam, rho), Vw


def left_retraction(M: Bimodule) -> Mor:
    """Coisometry (A, m) -> (m), lam (bubble^{-1/2} (x) id_m) for
    A = M.left: on the splitting of A (x)_A M, the left unitor."""
    eng = M.eng
    return eng.compose(M.lam, eng.whisker_right_obj(M.left.bubble_pow(-0.5), M.obj))


def right_retraction(M: Bimodule) -> Mor:
    """Coisometry (m, B) -> (m), rho (id_m (x) bubble^{-1/2}) for
    B = M.right: on the splitting of M (x)_B B, the right unitor."""
    eng = M.eng
    return eng.compose(M.rho, eng.whisker_left_obj(M.obj, M.right.bubble_pow(-0.5)))


# --- duals of bimodules at delta = 0 -----------------------------------


def dual_bimodule_delta0(M: Bimodule):
    """(M^dual as B-A bimodule, ev0, coev0) for the adjunction between
    - (x)_A M and - (x)_B M^dual, with all bubble dressings at delta = 0.

    ev0: (m^dual, m) -> (B,), coev0: (A,) -> (m, m^dual); both descend
    through the separability projections and satisfy the dressed zig-zags.
    """
    eng = M.eng
    A, B = M.left, M.right
    m = M.obj
    md = eng.dual_obj(m)
    ev_m = eng.ev_obj(m)  # (md, m) -> ()
    coev_m = eng.coev_obj(m)  # () -> (m, md)
    evp = eng.dagger(coev_m)  # (m, md) -> ()
    coevp = eng.dagger(ev_m)  # () -> (md, m)

    s1 = eng.whisker_right(coevp, (B.obj, md))  # (B, md) -> (md, m, B, md)
    s2 = eng.whisker_left((md,), eng.whisker_right(M.rho, (md,)))  # -> (md, m, md)
    s3 = eng.whisker_left((md,), evp)  # -> (md,)
    lam_d = eng.compose(s3, eng.compose(s2, s1))

    t1 = eng.whisker_left((md, A.obj), coev_m)  # (md, A) -> (md, A, m, md)
    t2 = eng.whisker_right(eng.whisker_left((md,), M.lam), (md,))  # -> (md, m, md)
    t3 = eng.whisker_right(ev_m, (md,))  # -> (md,)
    rho_d = eng.compose(t3, eng.compose(t2, t1))
    Md = Bimodule(B, A, md, lam_d, rho_d)

    # ev0: (md, m) -> (B,)
    e1 = eng.whisker_left(
        (md,),
        eng.compose(
            eng.whisker_right_obj(A.bubble_pow(-1.5), m), eng.dagger(M.lam)
        ),
    )  # (md, m) -> (md, A, m)
    e2 = eng.whisker_right(rho_d, (m,))  # -> (md, m)
    e3 = eng.whisker_left((md,), eng.dagger(M.rho))  # -> (md, m, B)
    e4 = eng.whisker_right(ev_m, (B.obj,))  # (md, m, B) -> (B,)
    ev0 = eng.compose(e4, eng.compose(e3, eng.compose(e2, e1)))

    # coev0: (A,) -> (m, md)
    c1 = eng.whisker_left((A.obj,), coev_m)  # (A,) -> (A, m, md)
    c2 = eng.whisker_right(M.lam, (md,))  # -> (m, md)
    c3 = eng.whisker_right(eng.dagger(M.rho), (md,))  # -> (m, B, md)
    c4 = eng.whisker_left((m,), eng.whisker_right_obj(B.bubble_pow(-1.5), md))
    c5 = eng.whisker_left((m,), lam_d)  # (m, B, md) -> (m, md)
    coev0 = eng.compose(c5, eng.compose(c4, eng.compose(c3, eng.compose(c2, c1))))
    return Md, ev0, coev0


def delta0_zigzag_residuals(M: Bimodule, Md: Bimodule, ev0: Mor, coev0: Mor):
    """Residuals of both dressed zig-zag identities."""
    eng = M.eng
    m, md = M.obj, Md.obj
    # m -> (A, m) -> (m, md, m) -> (m, B) -> m
    z1 = eng.compose(
        right_retraction(M),
        eng.compose(
            eng.whisker_left((m,), ev0),
            eng.compose(eng.whisker_right(coev0, (m,)), eng.dagger(left_retraction(M))),
        ),
    )
    r1 = eng.residual(z1, eng.identity(M.word))
    # md -> (md, A) -> (md, m, md) -> (B, md) -> md
    z2 = eng.compose(
        left_retraction(Md),
        eng.compose(
            eng.whisker_right(ev0, (md,)),
            eng.compose(eng.whisker_left((md,), coev0), eng.dagger(right_retraction(Md))),
        ),
    )
    r2 = eng.residual(z2, eng.identity(Md.word))
    return r1, r2


def bimodule_map_basis(N: Bimodule, M: Bimodule, P: Bimodule):
    """Basis of maps f: (n, m) -> (p): right-B-linear in the joint module
    structure and balanced over A between N's right action and M's left
    action, for right modules N over A and P over B (1-A and 1-B
    bimodules). N (x)_A M is a summand of (1, c) (x) M, a summand of the
    free right B-module on (1, c, *mid) for head_N: n -> (1, c, A) and
    head_M: m -> (*mid, B), so the maps are spanned by rho_P (g (x) id_B)
    (id_{1, c} (x) head_M lam_M) (head_N (x) id_m) over
    g: (1, c, *mid) -> p."""
    eng = N.eng
    *pre, _ = N.head.cod
    *mid, b = M.head.cod
    into = eng.compose(
        eng.whisker_left(tuple(pre), eng.compose(M.head, M.lam)),
        eng.whisker_right(N.head, M.word),
    )  # (n, m) -> (1, c, *mid, B)
    rows = [
        eng.to_vector(eng.compose(P.rho, eng.compose(eng.whisker_right_obj(g, b), into)))
        for g in eng.hom_basis((*pre, *mid), P.word)
    ]
    return _adjoint_span(eng, N.word + M.word, P.word, np.array(rows))


def mate_delta0(f: Mor, N: Bimodule, M: Bimodule, coev0: Mor) -> Mor:
    """Mate (n,) -> (p, md) of f: (n, m) -> (p,) under the delta = 0
    adjunction: insert coev0 through the dressed unitor on N."""
    eng = N.eng
    A = M.left
    md = coev0.cod[1]
    s1 = eng.whisker_left(N.word, eng.compose(coev0, A.bubble_pow(-0.5)))
    s4 = eng.whisker_right(f, (md,))  # (n, m, md) -> (p, md)
    return eng.compose(s4, eng.compose(s1, eng.dagger(N.rho)))


def delta0_norm_identity(N: Bimodule, M: Bimodule, P: Bimodule):
    """Tr^{C_B}_{N (x) M}(f^dag f) against Tr^{C_A}_N(mate^dag mate) for
    the bimodule maps f. Both are Hermitian forms in f, as the mate is
    linear, so they agree everywhere exactly when their Gram matrices on
    bimodule_map_basis agree: the gap is the largest entry of the
    difference, over every pair of basis maps."""
    eng = N.eng
    Md, ev0, coev0 = dual_bimodule_delta0(M)
    zz = delta0_zigzag_residuals(M, Md, ev0, coev0)
    basis = bimodule_map_basis(N, M, P)
    if not basis:
        return 0.0, zz
    # N (x) M as a 1-B bimodule, fused to one object
    fused, u = eng.fuse(N.word + M.word)
    lam = carry_left(eng.dagger(u), eng.whisker_right(N.lam, M.word), N.left)
    rho = carry_right(eng.dagger(u), eng.whisker_left(N.word, M.rho), M.right)
    NM = Bimodule(N.left, M.right, fused, lam, rho)
    mates = [mate_delta0(f, N, M, coev0) for f in basis]
    gaps = (
        abs(_hom_inner(eng, NM, f, g) - module_trace(N, eng.compose(eng.dagger(mf), mg)))
        for f, mf in zip(basis, mates)
        for g, mg in zip(basis, mates)
    )
    return worst(gaps), zz
