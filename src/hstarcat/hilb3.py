"""Pre-3-Hilbert presentations and their completions.

A presentation at desk scale is the delooping of an H*-multifusion
category: objects are the unit summands, 1-morphisms are objects of the
category, 2-morphisms are morphisms, and the weight Psi on End(1_a) is
the spherical weight psi. On top of this sit the two completions:

- finite direct sums, whose objects are lists of unit labels and whose
  summand inclusions satisfy the resolution sum ev_j ev_j^dag = id;
- the algebra completion, whose objects carry a certified H*-algebra in
  the endomorphism category, with Psi_A(f) = psi(iota^dag f bubble^-1
  iota) and duals from the delta = 0 bimodule adjunction.

Linking categories (the matrix category of all homs among a finite list
of objects) are assembled as explicit multifusion data by one numeric
builder over the bimodule calculus (separability projections, unitors
from the dressed actions, associator matrix elements in orthonormal
intertwiner bases). Block (i, j) holds one summand per class of the
free bimodules A_i (x) c (x) A_j, split with no draw, so its labels, N
and F gauge follow the data alone. A delooping object 1_u is the trivial
monad on u, so it enters the builder as the algebra group_algebra(eng,
(u,)), like any algebra object; every algebra must have one unit
summand. The assembled data is always pushed back through the full
validator.

The builder forms no relative tensor. A tree of a pair is an isometric
bimodule map z -> (x, y) onto a copy of the simple z in X (x)_B Y, read
as the image of the separability projection p of (x, y) (the identity
over the unit algebra). For a splitting V V^dag = p of the tensor T, the
trees pushed through V are V Hom(Z, T) = p act (id_A (x) Hom(c, (x, y))
(x) id_C) head_Z, for act = (lam_X (x) id_y)(id_{a, x} (x) rho_Y) and the
free presentation head_Z: z -> (a, c, b) of Z, since p is a bimodule map
and V an isometry; so the builder spans that image directly, and the
counts N and the orthonormality are those of Hom(Z, T). A z whose
object exceeds what the earlier copies leave of p's rank at some charge
has no copy in it, and a rank that the copies leave is a ConsistencyError.

The associator needs no relative tensor of a relative tensor. For an
intertwiner r: E -> X (x)_B Y whose dagger is an intertwiner too (every
isometry of an orthonormal intertwiner basis), the separability
projections satisfy p_{XY,Z} (r (x) id_Z) = (r (x) id_Z) p_{E,Z}. So the
splitting V_L of p_{XY,Z} gives V_L V_L^dag (r (x) id_Z) V_EZ =
(r (x) id_Z) V_EZ: every tree of (X (x) Y) (x) Z lifts into (x, y, z)
through the pair trees alone, as (t (x) id_Z) V_EZ for the tree t = V_XY
r, and likewise on the right as (id_X (x) t) V_XG. Each F-matrix entry
is then the scalar z of g^dag f = z id_D for two such lifts f, g out of
a simple D, so one column of D gives it: the lifts are applied, as
vectors, to the first basis vector of D at its first charge, and no
whiskered morphism is formed. A lift reads only its tree, the object of
the strand it adds and that charge, so it is placed once for all the
triples and simples D that share them.

A unit factor needs no projection: the pushed tree of Y in A (x)_A Y is
V (l V)^dag = p l^dag for the left retraction l of Y, and p fixes l^dag
by the module axioms, so the tree is l^dag itself (on the right, the
dagger of X's right retraction).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .certify import Certificate, bounded, judged, within
from .diagram import Engine, Mor
from .fusion import (
    FusionData,
    SphericalWeight,
    dual_engine,
    renorm_scalar,
    validate,
)
from .intalg import (
    AlgebraObject,
    Bimodule,
    algebra_bimodule,
    dual_bimodule_delta0,
    free_bimodules,
    group_algebra,
    left_retraction,
    module_category,
    pair_projection,
    relative_tensor,
    right_retraction,
    summand_classes,
    unit_summands,
    verify_bimodule,
    verify_hstar,
)
from .numcore import (
    DEFAULT_TOL,
    ConsistencyError,
    InputError,
    ShapeMismatch,
    Tolerance,
    worst,
)

# the identity is resolved as a sum of one projection per part, each with
# its own roundoff
RESOLUTION_FACTOR = 10
# a free bimodule's axioms compare composites of several structure maps:
# 1e-8 at the default tolerance
FREE_BIMODULE_FACTOR = 5


# --- objects of a presentation -----------------------------------------


@dataclass(frozen=True)
class DeloopObject:
    """A unit summand of the ambient category."""

    unit: str


@dataclass(frozen=True)
class SumObject:
    """Formal finite direct sum of unit summands (repeats allowed)."""

    parts: tuple


@dataclass
class MonadObject:
    """An H*-algebra in the endomorphism category of the base object."""

    algebra: AlgebraObject


class Pre3HilbPresentation:
    """Finite generator-based presentation backed by one engine.

    Psi on End(1_a) comes from the engine's unit weight for the delooping
    and sum objects; a monad's Psi is the dressed unit formula, monad_psi.
    """

    def __init__(self, eng: Engine, objects):
        self.eng = eng
        self.objects = tuple(objects)

    def unit_obj(self, obj):
        eng = self.eng
        if isinstance(obj, DeloopObject):
            return eng.simple_obj(obj.unit)
        if isinstance(obj, SumObject):
            mults = {}
            for u in obj.parts:
                mults[u] = mults.get(u, 0) + 1
            return eng.obj(mults)
        raise TypeError(f"not a presentation object: {obj!r}")

    def psi_value(self, obj, f: Mor) -> complex:
        """Psi_a applied to an endomorphism of the unit 1-morphism: psi of
        its left closed loop, as every unit has alpha = 1."""
        O = self.unit_obj(obj)
        if f.dom != (O,) or f.cod != (O,):
            raise ShapeMismatch("endomorphism of the wrong unit object")
        return self.eng.psi_of_unit_endo(self.eng.trace_left(f))


def delooping(eng: Engine) -> Pre3HilbPresentation:
    return Pre3HilbPresentation(eng, [DeloopObject(u) for u in eng.data.units])


def monad_psi(A: AlgebraObject, f: Mor) -> complex:
    """Psi_A(f) = psi(iota^dag f bubble^-1 iota) on End of the unit
    1-morphism A of an algebra object."""
    eng = A.eng
    z = eng.compose(
        eng.dagger(A.iota), eng.compose(f, eng.compose(A.bubble_pow(-1.0), A.iota))
    )
    return eng.psi_of_unit_endo(z)


# --- sphericality of an installed Psi ----------------------------------


def presentation_sphericality(X: Pre3HilbPresentation, *, seed: int = 0) -> Certificate:
    """Left/right closed-loop agreement for 1-morphisms between the
    engine-backed objects of the presentation, on id_x for every simple x.

    psi of the two loops of f in End(O) is, read off f's blocks, the sum
    over the simples x of psi_{t(x)} |alpha_x|^2 tr(f_x) (left) against
    psi_{s(x)} |beta_x|^2 tr(f_x) (right). Both are linear in the traces
    tr(f_x), so they agree for every f exactly when they agree on each
    id_x: psi_{t(x)} |alpha_x|^2 = psi_{s(x)} |beta_x|^2, that is, when
    the cups and caps of the udf are spherical for psi. Since tr(id_x) = 1,
    the loops of id_x are Engine.loop(x, 'R') and Engine.loop(x, 'L'),
    read off the cup coefficients with no morphism built, to the bit. The
    check reads the udf on every call, so a rescaled alpha_x or beta_x
    shows. seed is unused: the check draws nothing."""
    eng = X.eng
    data, psi = eng.data, eng.udf.psi
    gaps = [
        abs(psi.of_unit(data, data.t(x)) * eng.loop(x, "R") - psi.of_unit(data, data.s(x)) * eng.loop(x, "L"))
        for x in data.simples
    ]
    scale = 1.0 + psi.total()
    return bounded("sphericality", worst(gaps), eng.tol.bound(scale), "sphericality")


# --- Hilbert direct sum completion -------------------------------------


def hilbert_sum_completion(X: Pre3HilbPresentation) -> Pre3HilbPresentation:
    """Close the object list under formal finite direct sums of the
    engine-backed objects (generated lazily via sum_object)."""
    base = []
    for obj in X.objects:
        if isinstance(obj, DeloopObject):
            base.append(SumObject((obj.unit,)))
        elif isinstance(obj, SumObject):
            base.append(obj)
    return Pre3HilbPresentation(X.eng, base)


def sum_object(X: Pre3HilbPresentation, parts) -> SumObject:
    labels = []
    for p in parts:
        if isinstance(p, DeloopObject):
            p = p.unit
        if p not in X.eng.data.units:
            raise KeyError(f"not a unit summand: {p}")
        labels.append(p)
    return SumObject(tuple(labels))


def sum_isometries(X: Pre3HilbPresentation, S: SumObject):
    """The coordinate inclusions I_j: 1_{a_j} -> 1_S, one per part."""
    eng = X.eng
    O = X.unit_obj(S)
    seen = {}
    out = []
    for u in S.parts:
        alpha = seen.get(u, 0)
        seen[u] = alpha + 1
        out.append(eng.include(O, u, alpha))
    return out


def certify_hilbert_sum(X: Pre3HilbPresentation, S: SumObject, *, seed: int = 0) -> Certificate:
    """Resolution of the identity by the coordinate inclusions and
    additivity of Psi over the summands, on every elementary endomorphism
    of S: both sides are linear, so they agree everywhere exactly when
    they agree on a basis. seed is unused: the check draws nothing."""
    eng = X.eng
    O = X.unit_obj(S)
    incs = sum_isometries(X, S)
    total = eng.zero((O,), (O,))
    for inc in incs:
        total = eng.add(total, eng.compose(inc, eng.dagger(inc)))
    res_defect = eng.residual(total, eng.identity((O,)))
    gaps = []
    for f in eng.hom_basis((O,), (O,)):
        whole = X.psi_value(S, f)
        split = sum(
            X.psi_value(
                DeloopObject(u),
                eng.compose(eng.dagger(inc), eng.compose(f, inc)),
            )
            for u, inc in zip(S.parts, incs)
        )
        gaps.append(abs(whole - split))
    scale = 1.0 + eng.udf.psi.total()
    return judged(
        {"resolution": res_defect, "additivity": worst(gaps)},
        [
            ("resolution", eng.tol.bound() * RESOLUTION_FACTOR, "direct-sum resolution"),
            ("additivity", eng.tol.bound(scale), "Psi additivity"),
        ],
    )


# --- H*-monad completion -----------------------------------------------


def hstar_monad_completion(X: Pre3HilbPresentation, algebras) -> Pre3HilbPresentation:
    """Adjoin certified H*-monads (REJECTed algebras raise)."""
    objects = list(X.objects)
    for A in algebras:
        cert = verify_hstar(A)
        if not cert.ok:
            raise InputError(f"algebra fails H* certification: {cert.failed_axiom}")
        objects.append(MonadObject(A))
    return Pre3HilbPresentation(X.eng, objects)


# --- linking categories ------------------------------------------------


class _LinkingBuilder:
    """Numeric skeletonization of the category of bimodules among a list
    of H*-algebras: simples, fusion rules, duals and F-matrices, all read
    off one table of trees, trees(x, y).

    Simples are numbered in label order: simples[k] is the bimodule,
    blocks[k] its (i, j) pair and labels[k] its label "ij:n"; units holds
    the positions of the algebras themselves, and members[(i, j)] the
    positions of block (i, j). The table is keyed by pairs of positions."""

    def __init__(self, eng: Engine, algebras):
        self.eng = eng
        self.algebras = list(algebras)
        self._trees, self._columns = {}, {}
        self.simples, self.blocks, self.labels, self.units = [], [], [], []
        self.members = {}
        # with two unit summands the algebra is not a simple bimodule over
        # itself, so its block has no unit simple
        if any(len(unit_summands(A)) > 1 for A in self.algebras):
            raise InputError("a linking needs algebras with one unit summand each")
        for A in self.algebras:
            cert = verify_hstar(A)
            if not cert.ok:
                raise InputError(f"algebra fails H* certification: {cert.failed_axiom}")
        n = len(self.algebras)
        for i, j in itertools.product(range(n), range(n)):
            frees = free_bimodules(self.algebras[i], self.algebras[j])
            for c, F in frees.items():
                if not within(verify_bimodule(F), eng.tol.bound() * FREE_BIMODULE_FACTOR):
                    raise ConsistencyError(f"free bimodule on {c} fails the bimodule axioms")
            found = summand_classes(frees.values())
            start = len(self.simples)
            if i == j:
                # canonical representative for the unit: the algebra itself
                unit = algebra_bimodule(self.algebras[i])
                found = [unit] + [p for p in found if not (p.obj == unit.obj and p.homs(unit))]
                self.units.append(start)
            self.simples += found
            self.blocks += [(i, j)] * len(found)
            self.labels += [f"{i}{j}:{m}" for m in range(len(found))]
            self.members[(i, j)] = range(start, len(self.simples))

    def composable(self, *ks) -> bool:
        """No unit among the simples ks, and each block ends where the
        next one begins."""
        return not any(k in self.units for k in ks) and all(
            self.blocks[a][1] == self.blocks[b][0] for a, b in zip(ks, ks[1:])
        )

    # -- trees ----------------------------------------------------------

    def trees(self, x: int, y: int):
        """dict simple z -> orthonormal isometries z -> (x, y): the copies
        of z inside x (x)_A y, spanned in the image of the separability
        projection p of (x, y) as p act (id_A (x) g (x) id_C) head_Z over
        the elementary g: c -> (x, y) (Bimodule.span_through; the module
        docstring says why), with no relative tensor. A unit factor's tree
        is the dagger of the other factor's retraction (the unitor, so the
        unit F-matrices come out strict); no projection is built for it."""
        if (x, y) in self._trees:
            return self._trees[(x, y)]
        eng = self.eng
        X, Y = self.simples[x], self.simples[y]
        if x in self.units:
            out = {y: [eng.dagger(left_retraction(Y))]}
        elif y in self.units:
            out = {x: [eng.dagger(right_retraction(X))]}
        else:
            p, ranks = pair_projection(X, Y)
            # act = (lam_X (x) id_y)(id_{a, x} (x) rho_Y): (a, x, y, b) -> (x, y)
            act = eng.compose(
                eng.whisker_right(X.lam, Y.word), eng.whisker_left((X.left.obj, X.obj), Y.rho)
            )
            post = act if p is None else eng.compose(p, act)
            # the span is orthonormal in tr(g^dag f); out of a simple Z,
            # g^dag f is a scalar times id_Z, whose trace is sum(Z.obj)
            out = {}
            for z in self.members[(self.blocks[x][0], self.blocks[y][1])]:
                Z = self.simples[z]
                # a copy of Z fits in what the earlier copies leave of p's rank
                if any(m > ranks.get(c, 0) for c, m in zip(eng.data.simples, Z.obj)):
                    continue
                basis = Z.span_through(post)
                if basis:
                    out[z] = [eng.scale(np.sqrt(sum(Z.obj)), f) for f in basis]
                    for c, m in zip(eng.data.simples, Z.obj):
                        ranks[c] = ranks.get(c, 0) - len(basis) * m
            # a rank left over is a summand of x (x) y that no simple accounts for
            if left := {c: r for c, r in ranks.items() if r}:
                pair = f"{self.labels[x]}, {self.labels[y]}"
                raise ConsistencyError(f"the trees of {pair} leave ranks {left} unfilled")
        self._trees[(x, y)] = out
        return out

    def fusion_mults(self):
        lab = self.labels
        N = {}
        for x, y in itertools.product(range(len(lab)), repeat=2):
            if self.composable(x, y):
                for z, fs in self.trees(x, y).items():
                    N[(lab[x], lab[y], lab[z])] = len(fs)
        return N

    def duals(self):
        """The dual of x in block (i, j) is the one z in block (j, i)
        whose tensor x (x) z holds the unit of i."""
        dual = {}
        for x, (i, j) in enumerate(self.blocks):
            matches = [z for z in self.members[(j, i)] if self.units[i] in self.trees(x, z)]
            if len(matches) != 1:
                raise ConsistencyError(
                    f"{self.labels[x]} has {len(matches)} dual matches, not one"
                )
            dual[self.labels[x]] = self.labels[matches[0]]
        return dual

    # -- associator matrix elements -------------------------------------

    def _first_columns(self, x: int, y: int):
        """dict charge c -> (ds, vs), grouped by the first charge c of D in
        label order: ds the simples d with that first charge, in the
        order of trees(x, y), and vs[k] the block whose columns are the
        first columns at c of the trees trees(x, y)[ds[k]], in their
        order. A lift placed once at c applies to every block of vs."""
        if (x, y) not in self._columns:
            eng = self.eng
            out = {}
            for d, ts in self.trees(x, y).items():
                c = next(c for c, m in zip(eng.data.simples, self.simples[d].obj) if m)
                ds, vs = out.setdefault(c, ([], []))
                ds.append(d)
                vs.append(np.stack([eng.block(t, c)[:, 0] for t in ts], axis=1))
            self._columns[(x, y)] = out
        return self._columns[(x, y)]

    def f_matrices(self):
        """F^{XYZ}_D[a, b] = col_b^dag row_a as a scalar, with both trees
        lifted to maps D -> (x, y, z) through the table: row (E, up, t) is
        (up (x) id_z) t for up in trees(x, y)[E] and t in trees(E, z)[D],
        and column (G, up, t) is (id_x (x) up) t for up in trees(y, z)[G]
        and t in trees(x, G)[D]. On the simple D, col^dag row = F id_D, so
        one column of D gives the entry: each lift is applied to column 0
        of t at the first charge c of D (engine whisker_right_cols and
        whisker_left_cols), and F = R^T conj(C) for the stacked rows R and
        columns C; a row or column of one block is used as it is. A right
        lift reads only (up, Z, c) and a left lift only (X, up, c), so
        each is placed once for every D whose first charge is c
        (_lift_groups) and every z with object Z, or every x with object
        X in one block: those x lift their columns together at the first
        of them, which are kept until each x reads its own. Only the
        triples that the grading allows are visited; the module docstring
        says why no tensor of a tensor is needed."""
        eng, lab, columns = self.eng, self.labels, self._first_columns
        obj = [S.obj for S in self.simples]
        # i -> the non-unit simples of the blocks (i, -), and (object, j)
        # -> those of the blocks (-, j) with that object, ascending
        starts, same = {}, {}
        for y, (i, j) in enumerate(self.blocks):
            if y not in self.units:
                starts.setdefault(i, []).append(y)
                same.setdefault((obj[y], j), []).append(y)
        F, cols = {}, {}  # cols: (x, y, z, d) -> column blocks at the first charge of D
        for x, (i, j) in enumerate(self.blocks):
            if x in self.units:
                continue
            if (obj[x], j) in same:
                # the x with one object and one block lift their columns
                # together, at the first of them
                xs = same.pop((obj[x], j))
                for y in starts.get(j, []):
                    for z in starts.get(self.blocks[y][1], []):
                        for g, ups in self.trees(y, z).items():
                            groups = _lift_groups((obj[x2], (x2, y, z), columns(x2, g)) for x2 in xs)
                            for (X, c), (keys, blocks) in groups.items():
                                for up in ups:
                                    for key, r in zip(keys, eng.whisker_left_cols(X, up, c, blocks)):
                                        cols.setdefault(key, []).append(r)
            for y in starts.get(j, []):
                zs = starts.get(self.blocks[y][1], [])
                rows = {}  # (z, d) -> column blocks at the first charge of D
                for e, ups in self.trees(x, y).items():
                    groups = _lift_groups((obj[z], (z,), columns(e, z)) for z in zs)
                    for (Z, c), (keys, blocks) in groups.items():
                        for up in ups:
                            for key, r in zip(keys, eng.whisker_right_cols(up, Z, c, blocks)):
                                rows.setdefault(key, []).append(r)
                for z in zs:
                    for d in self.members[(i, self.blocks[z][1])]:
                        C = cols.pop((x, y, z, d), None)
                        if rows.get((z, d)):
                            R = _joined(rows[(z, d)])
                            C = _joined(C) if C else np.zeros((len(R), 0))
                            F[(lab[x], lab[y], lab[z], lab[d])] = R.T @ C.conj()
        return F

    # -- final assembly --------------------------------------------------

    def fusion_data(self):
        lab, units = self.labels, [self.labels[u] for u in self.units]
        dual = self.duals()
        data = FusionData(
            simples=tuple(lab),
            units=tuple(units),
            grading={lx: (units[i], units[j]) for lx, (i, j) in zip(lab, self.blocks)},
            dual=dual,
            N=self.fusion_mults(),
            F=self.f_matrices(),
        )
        weight = SphericalWeight(
            [monad_psi(A, A.identity()).real for A in self.algebras]
        )
        return data, weight


def _lift_groups(tables):
    """(object, c) -> ([owner + (d,)], [block]) over (object, owner,
    _first_columns table): the first-column blocks that one lift at
    charge c serves, for every simple with the object of the strand it
    adds, in the order given."""
    out = {}
    for O, owner, table in tables:
        for c, (ds, vs) in table.items():
            keys, blocks = out.setdefault((O, c), ([], []))
            keys += [owner + (d,) for d in ds]
            blocks += vs
    return out


def _joined(blocks):
    """The column blocks side by side; a single block as it is."""
    return blocks[0] if len(blocks) == 1 else np.hstack(blocks)


def algebra_linking(eng: Engine, algebras):
    return _LinkingBuilder(eng, algebras).fusion_data()


def linking_e1(X: Pre3HilbPresentation, a, b, *, seed: int = 0):
    """The 2x2 linking multifusion category of a pair of objects, with
    its weight; a delooping object 1_u enters as the trivial algebra on
    u. An algebra with more than one unit summand is an input error. The
    output is re-validated before being returned. seed is unused: the
    split draws nothing."""
    algs = []
    for obj in (a, b):
        if isinstance(obj, MonadObject):
            algs.append(obj.algebra)
        elif isinstance(obj, DeloopObject):
            algs.append(group_algebra(X.eng, (obj.unit,)))
        else:
            raise TypeError(f"unsupported linking operand: {obj!r}")
    data, weight = algebra_linking(X.eng, algs)
    cert = validate(data, X.eng.tol)
    if not cert.ok:
        raise ConsistencyError(f"assembled linking data fails validation: {cert.failed_axiom}")
    return data, weight, cert


# --- splitting H*-monads -----------------------------------------------


def _unitarity_residual(eng: Engine, f: Mor) -> float:
    r1 = eng.residual(eng.compose(eng.dagger(f), f), eng.identity(f.dom))
    r2 = eng.residual(eng.compose(f, eng.dagger(f)), eng.identity(f.cod))
    return worst([r1, r2])


@dataclass
class MonadSplitting:
    # every field but algebra and certificate is None when B fails H*
    algebra: AlgebraObject  # the monad, now an object of its own
    bimodule: Bimodule  # B as a (trivial, B) bimodule
    pair: Bimodule  # B (x)_B B^dual with the pair-monad structure
    mu_T: Mor
    iota_T: Mor
    u: Mor  # B -> B (x)_B B^dual
    certificate: Certificate


def split_monad(B: AlgebraObject, *, seed: int = 0) -> MonadSplitting:
    """Split the monad B over the trivial algebra: exhibit B as
    X (x)_B X^dual for X = B as a (1, B) bimodule, with a certified
    unitary algebra isomorphism u. A B that fails H* certification is
    not split: its certificate is returned, with no structure. seed is
    unused: the splitting draws nothing."""
    eng = B.eng
    unit = unit_summands(B)[0]
    cert0 = verify_hstar(B)
    if not cert0.ok:
        return MonadSplitting(B, None, None, None, None, None, cert0)
    A = group_algebra(eng, (unit,))
    # B as its own right module, a 1_u-B bimodule through the unitor;
    # nothing takes homs out of it, so it needs no head
    M = Bimodule(A, B, B.obj, eng.left_unitor(A.obj, B.word), B.mu)
    Md, ev0, coev0 = dual_bimodule_delta0(M)
    T, Vw = relative_tensor(M, Md)
    m, md = M.obj, Md.obj
    # ev0 ev0^dag is a positive scalar on the connected algebra B; the
    # scalar normalizes the middle contraction of the pair monad
    ee = eng.compose(ev0, eng.dagger(ev0))
    dimB = sum(B.obj)
    lam = (
        sum(np.trace(b) for b in ee.blocks.values()).real / dimB
    )
    ev_norm = eng.residual(ee, eng.scale(lam, eng.identity((B.obj,))))
    # pair-monad structure on T = X (x)_B X^dual
    mid = eng.whisker_left((m,), eng.whisker_right(ev0, (md,)))  # -> (m, B, md)
    absorb = eng.whisker_left((m,), Md.lam)  # (m, B, md) -> (m, md)
    mu_T = eng.scale(
        1.0 / np.sqrt(lam),
        eng.compose(
            eng.dagger(Vw),
            eng.compose(absorb, eng.compose(mid, eng.tensor(Vw, Vw))),
        ),
    )
    c0 = eng.compose(coev0, A.iota)  # () -> (m, md)
    iota_T = eng.compose(eng.dagger(Vw), c0)
    # u: multiply into the left leg of coev0
    w = eng.compose(
        eng.whisker_right_obj(B.mu, md),
        eng.whisker_left((B.obj,), c0),
    )  # (B,) -> (m, md)
    u = eng.compose(eng.dagger(Vw), w)
    resid = {
        "u_unitarity": _unitarity_residual(eng, u),
        "u_multiplicative": eng.residual(
            eng.compose(u, B.mu), eng.compose(mu_T, eng.tensor(u, u))
        ),
        "u_unital": eng.residual(eng.compose(u, B.iota), iota_T),
        "ev_normalization": ev_norm,
    }
    # the largest failing residual names the axiom, a NaN before any number
    bound = eng.tol.bound(1.0 + eng.l2_norm(u))
    order = sorted(resid, key=lambda k: -resid[k] if resid[k] == resid[k] else -np.inf)
    cert = judged(resid, [(k, bound, k) for k in order])
    return MonadSplitting(B, M, T, mu_T, iota_T, u, cert)


# --- weight on module categories and the comparison --------------------


def weight_mod_dagger(eng: Engine, A: AlgebraObject):
    """Psi on module natural endomorphisms of id over the category of
    A-modules at the identity: sum of d_m^2, with the per-component
    rescaling by the reciprocal of the renormalization value."""
    mc = module_category(eng, A)
    dims = list(mc.dims)
    raw = sum(d * d for d in dims)
    _, prefactors = renorm_scalar(eng.udf, eng.tol)
    # modules over an algebra in one component rescale uniformly
    pre = prefactors[unit_summands(A)[0]]
    return {
        "dims": dims,
        "raw": complex(raw),
        "prefactor": pre,
        "rescaled": complex(pre * raw),
        "certificate": mc.certificate,
    }


def theorem_b_check(
    data: FusionData,
    psi: SphericalWeight,
    tol: Tolerance = DEFAULT_TOL,
    *,
    seed: int = 0,
) -> Certificate:
    """Compare Psi at the standard unit monad with the rescaled Psi at
    the column module category; both must equal the unit weight.

    Each call builds its own engine under psi (dual_engine). That engine
    reads the comb tree bases, the F blocks, the group_last unitaries and
    its identity blocks (FusionData.eye) from data, which every earlier
    engine on the same data has filled, so repeated calls build each of
    them once. What reads the engine, such as its unitors and the
    algebras, is built again on each call: nothing derived is kept across
    engines. The unit algebra's bubble powers are identities (bubble_pow).
    seed is unused: the split of the module category draws nothing."""
    if len(data.components()) != 1:
        raise InputError("comparison requires an indecomposable category")
    eng = dual_engine(data, psi, tol)
    u1 = data.units[0]
    psi1 = psi.of_unit(data, u1)
    A = group_algebra(eng, (u1,))
    lhs = monad_psi(A, A.identity()).real
    modules = weight_mod_dagger(eng, A)
    if not modules["certificate"].ok:
        return modules["certificate"]
    rhs = modules["rescaled"].real
    resid = {
        "monad_side": abs(lhs - psi1),
        "module_side": abs(rhs - psi1),
        "gap": abs(lhs - rhs),
    }
    return judged(
        resid,
        [(k, tol.bound(psi1), "weight comparison") for k in resid],
        {"psi_1": psi1, "monad": lhs, "modules": rhs},
    )


# --- uniqueness of the unitary adjoint family --------------------------


def canonical_uaf(eng: Engine):
    """One (ev, coev) pair per simple from the engine's cups."""
    return {
        c: (eng.ev_obj(eng.simple_obj(c)), eng.coev_obj(eng.simple_obj(c)))
        for c in eng.data.simples
    }


def gauge_uaf(eng: Engine, phases: dict):
    """Rescale a candidate by unit phases (zig-zags preserved)."""
    out = {}
    for c, (ev, coev) in canonical_uaf(eng).items():
        z = phases.get(c, 1.0)
        out[c] = (eng.scale(z, ev), eng.scale(1.0 / z, coev))
    return out


def _candidate_sphericality(eng: Engine, cand) -> float:
    gaps = []
    for c, (ev, coev) in cand.items():
        left = eng.psi_of_unit_endo(eng.compose(ev, eng.dagger(ev)))
        right = eng.psi_of_unit_endo(eng.compose(eng.dagger(coev), coev))
        gaps.append(abs(left - right) / max(1.0, abs(left)))
    return worst(gaps)


def uaf_uniqueness_check(eng: Engine, cand1, cand2) -> Certificate:
    """Compare two adjoint-family candidates: after checking each makes
    the loop traces spherical, the mixed comparison cup composite must
    be unitary on every generator."""
    for name, cand in (("first", cand1), ("second", cand2)):
        defect = _candidate_sphericality(eng, cand)
        if not within(defect, eng.tol.bound()):
            raise InputError(
                f"{name} candidate has loop asymmetry {defect:.3e}"
            )
    residuals = {}
    for c in eng.data.simples:
        ev1, _ = cand1[c]
        _, coev2 = cand2[c]
        cb = eng.simple_obj(eng.data.dual[c])
        zeta = eng.compose(
            eng.whisker_right(ev1, (cb,)),
            eng.whisker_left((cb,), coev2),
        )
        residuals[f"zeta[{c}]"] = _unitarity_residual(eng, zeta)
    return judged(residuals, [(k, eng.tol.bound(), "comparison unitarity") for k in residuals])

