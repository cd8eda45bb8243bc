"""Skeletal unitary multifusion categories.

A category is presented by simple labels, unit summands with a grading
(every simple c satisfies c = 1_{s(c)} (x) c (x) 1_{t(c)}), a dual
involution, fusion multiplicities N_{ab}^c, and unitary F-symbols in
fusion-tree bases. A positive weight psi on the unit summands determines
the unitary dual functor, all quantum dimensions, and the loop values.

Conventions: fusion-tree bases are orthonormal (vertices are isometries),
daggers of tree coefficients are conjugate transposes, and all bending is
mediated by explicit cup/cap coefficients pinned by the loop identities.
F^{abc}_d maps the basis {(e; mu in V(a,b;e), nu in V(e,c;d))} of trees
grouped to the left onto the basis {(f; ka in V(b,c;f), la in V(a,f;d))}
grouped to the right, where V(x,y;z) is the vertex space Hom(z -> x(x)y).
F blocks with a unit argument are required to be identities (strict unit).

Validation compiles the data into integer tables once per call (a dense
N[a, b, c] with the strict-unit rules folded in, fusion-product lists, and
F blocks keyed by simple indices with their tree bases, built on first
use) and loops only over admissible tuples. The tables are never stored
on FusionData, so they cannot go stale when F is edited after
construction. Non-finite F entries are a SchemaError at construction; a
non-finite residual that still arises fails its bound test and rejects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .certify import Certificate
from .numcore import DEFAULT_TOL, NonPositiveWeight, Tolerance, unitarity_defect

FP_TOL = 1e-12


class SchemaError(ValueError):
    pass


class UnknownLabel(KeyError):
    pass


class IndependenceViolation(ValueError):
    pass


@dataclass
class FusionData:
    simples: tuple
    units: tuple  # unit summand labels, a subset of simples
    grading: dict  # label -> (source unit label, target unit label)
    dual: dict  # label -> label
    N: dict  # (a, b, c) -> nonnegative int, omitted means 0
    F: dict  # (a, b, c, d) -> complex matrix in the canonical tree order

    def __post_init__(self):
        self.simples = tuple(self.simples)
        self.units = tuple(self.units)
        self.index = {c: i for i, c in enumerate(self.simples)}
        if len(set(self.simples)) != len(self.simples):
            raise SchemaError("duplicate simple labels")
        for u in self.units:
            if u not in self.index:
                raise SchemaError(f"unit {u} is not a simple")
        for c in self.simples:
            if c not in self.grading:
                raise SchemaError(f"missing grading for {c}")
            if c not in self.dual:
                raise SchemaError(f"missing dual for {c}")
            ends = tuple(self.grading[c])
            if len(ends) != 2 or any(u not in self.units for u in ends):
                raise SchemaError(f"grading of {c} is not a pair of units: {ends}")
            if self.dual[c] not in self.index:
                raise SchemaError(f"dual of {c} is not a simple: {self.dual[c]}")
        for table, arity in ((self.N, 3), (self.F, 4)):
            for k in table:
                if len(k) != arity or any(x not in self.index for x in k):
                    raise SchemaError(f"entry with unknown label: {k}")
        self.N = {k: int(v) for k, v in self.N.items() if int(v) != 0}
        self.F = {k: np.asarray(v, dtype=complex) for k, v in self.F.items()}
        for k, m in self.F.items():
            if not np.isfinite(m).all():
                raise SchemaError(f"F^{k[0]},{k[1]},{k[2]}_{k[3]} has a non-finite entry")
        self._fpdims = None

    # --- basic accessors -------------------------------------------------

    def s(self, c) -> str:
        return self.grading[c][0]

    def t(self, c) -> str:
        return self.grading[c][1]

    def n(self, a, b, c) -> int:
        """Multiplicity N_{ab}^c = dim Hom(c -> a (x) b)."""
        if a in self.units:
            return 1 if (b == c and self.s(b) == self.s(a)) else 0
        if b in self.units:
            return 1 if (a == c and self.t(a) == self.s(b)) else 0
        return self.N.get((a, b, c), 0)

    def fusion_products(self, a, b):
        return [c for c in self.simples if self.n(a, b, c) > 0]

    def tree_rows(self, a, b, c, d):
        """Canonical order of the left-grouped tree basis of Hom(d -> abc)."""
        return [
            (e, mu, nu)
            for e in self.simples
            for mu in range(self.n(a, b, e))
            for nu in range(self.n(e, c, d))
        ]

    def tree_cols(self, a, b, c, d):
        """Canonical order of the right-grouped tree basis."""
        return [
            (f, ka, la)
            for f in self.simples
            for ka in range(self.n(b, c, f))
            for la in range(self.n(a, f, d))
        ]

    def f_matrix(self, a, b, c, d) -> np.ndarray:
        rows = self.tree_rows(a, b, c, d)
        cols = self.tree_cols(a, b, c, d)
        if len(rows) != len(cols):
            raise SchemaError(
                f"F^{a},{b},{c}_{d}: tree counts differ ({len(rows)} vs {len(cols)})"
            )
        if not rows:
            return np.zeros((0, 0), dtype=complex)
        return _stored_block(self, (a, b, c, d), len(rows))

    # --- Frobenius-Perron dimensions ------------------------------------

    def fpdim(self, a) -> float:
        """Spectral radius of the left fusion matrix of a, by power iteration."""
        if self._fpdims is None:
            self._fpdims = {}
        if a in self._fpdims:
            return self._fpdims[a]
        n = len(self.simples)
        mat = np.zeros((n, n))
        for bi, b in enumerate(self.simples):
            for ci, c in enumerate(self.simples):
                mat[ci, bi] = self.n(a, b, c)
        # power iteration on M + M^T M guard: iterate on the symmetrized
        # product with the dual to stay on the right graded block
        dual_mat = np.zeros((n, n))
        ab = self.dual[a]
        for bi, b in enumerate(self.simples):
            for ci, c in enumerate(self.simples):
                dual_mat[ci, bi] = self.n(ab, b, c)
        prod = dual_mat @ mat  # nonnegative, spectral radius FPdim(a)^2
        v = np.ones(n)
        val = 1.0
        for _ in range(10000):
            w = prod @ v
            nw = np.linalg.norm(w)
            if nw == 0:
                val = 0.0
                break
            w = w / nw
            newval = float(w @ (prod @ w))
            if abs(newval - val) < FP_TOL:
                val = newval
                break
            val, v = newval, w
        self._fpdims[a] = float(np.sqrt(max(val, 0.0)))
        return self._fpdims[a]

    def fpdim_total(self, component=None) -> float:
        """FPdim(C) = sum of FPdim(c)^2 over the simples of a component."""
        simples = component if component is not None else self.simples
        return float(sum(self.fpdim(c) ** 2 for c in simples))

    # --- indecomposable components --------------------------------------

    def components(self):
        """Connected components of units, linked when some simple c has
        s(c), t(c) in the pair. Returns a list of (unit labels, simples)."""
        parent = {u: u for u in self.units}

        def find(u):
            while parent[u] != u:
                parent[u] = parent[parent[u]]
                u = parent[u]
            return u

        for c in self.simples:
            a, b = find(self.s(c)), find(self.t(c))
            if a != b:
                parent[a] = b
        groups = {}
        for u in self.units:
            groups.setdefault(find(u), []).append(u)
        out = []
        for us in groups.values():
            us = tuple(u for u in self.units if u in us)
            cs = tuple(c for c in self.simples if self.s(c) in us)
            out.append((us, cs))
        return out

    # --- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        def num(z):
            return [z.real, z.imag]

        return {
            "simples": list(self.simples),
            "units": list(self.units),
            "grading": {c: list(self.grading[c]) for c in self.simples},
            "dual": dict(self.dual),
            "N": {"{},{},{}".format(*k): v for k, v in self.N.items()},
            "F": {
                "{},{},{},{}".format(*k): [[num(z) for z in row] for row in m]
                for k, m in self.F.items()
            },
        }

    @classmethod
    def from_json(cls, data: dict) -> "FusionData":
        try:
            simples = data["simples"]
            units = data["units"]
            grading = {c: tuple(v) for c, v in data["grading"].items()}
            dual = data["dual"]
            N = {tuple(k.split(",")): v for k, v in data.get("N", {}).items()}
            F = {}
            for k, m in data.get("F", {}).items():
                key = tuple(k.split(","))
                rows = []
                for row in m:
                    out = []
                    for z in row:
                        if isinstance(z, (list, tuple)):
                            out.append(complex(z[0], z[1]))
                        else:
                            out.append(complex(z))
                    rows.append(out)
                F[key] = np.array(rows, dtype=complex)
            return cls(simples, units, grading, dual, N, F)
        except (KeyError, TypeError, IndexError) as exc:
            raise SchemaError(f"malformed fusion data: {exc}") from exc


@dataclass(frozen=True)
class SphericalWeight:
    psi: tuple  # one positive real per unit summand, in unit order

    def __post_init__(self):
        object.__setattr__(self, "psi", tuple(float(p) for p in self.psi))
        if any(p <= 0 for p in self.psi):
            raise NonPositiveWeight("psi must be strictly positive")

    def total(self) -> float:
        """psi(id_1) = sum over unit summands."""
        return float(sum(self.psi))

    def of_unit(self, data: FusionData, u) -> float:
        return self.psi[data.units.index(u)]


def validate(data: FusionData, tol: Tolerance = DEFAULT_TOL) -> Certificate:
    """Certify grading/dual integer identities, F-unitarity, and the
    pentagon equation.

    Each call compiles its own integer tables from the data. The integer
    identities are comparisons of the dense table N[a, b, c], and the tree
    counts sum_e N[a,b,e] N[e,c,d] and sum_f N[b,c,f] N[a,f,d] of every
    F^{abc}_d must agree. F-unitarity is checked on the quadruples that
    have trees and no unit argument (unit blocks are identities), and the
    pentagon on admissible instances only (see pentagon_residual). Every
    bound test reads `not (residual <= bound)`, so a NaN residual rejects
    on its axiom.
    """
    S, idx = data.simples, data.index
    N = _fusion_table(data)
    problems = []
    for c in S:
        cb = data.dual[c]
        if data.dual.get(cb) != c:
            problems.append(f"dual not involutive at {c}")
        if data.grading[cb] != (data.t(c), data.s(c)):
            problems.append(f"dual grading mismatch at {c}")
        i, ib = idx[c], idx[cb]
        if N[i, ib, idx[data.s(c)]] != 1 or N[ib, i, idx[data.t(c)]] != 1:
            problems.append(f"dual pairing multiplicity wrong at {c}")
    for a, b, c in data.N:
        if data.t(a) != data.s(b) or data.s(c) != data.s(a) or data.t(c) != data.t(b):
            problems.append(f"grading incompatibility in N at {(a, b, c)}")
    # Frobenius reciprocity: N_{ab}^c = N_{a* c}^b = N_{c b*}^a
    D = [idx[data.dual[c]] for c in S]
    frob = (N != N[D].transpose(0, 2, 1)) | (N != N[:, D].transpose(2, 1, 0))
    for a, b, c in np.argwhere(frob).tolist():
        problems.append(f"Frobenius reciprocity fails at {(S[a], S[b], S[c])}")
    int_ok = not problems
    residuals = {"integer_checks": 0.0 if int_ok else 1.0}

    rows = np.einsum("abe,ecd->abcd", N, N)
    cols = np.einsum("bcf,afd->abcd", N, N)
    has_trees = (rows != 0) | (cols != 0)
    unit = [c in data.units for c in S]
    defects = []
    for (a, b, c, d), r, k in zip(
        np.argwhere(has_trees).tolist(), rows[has_trees].tolist(), cols[has_trees].tolist()
    ):
        key = (S[a], S[b], S[c], S[d])
        if r != k:
            return Certificate(
                False,
                {"integer_checks": 1.0},
                {"problem": "tree count mismatch at F^{}{}{}_{}".format(*key)},
                failed_axiom="fusion-associativity",
            )
        if not (unit[a] or unit[b] or unit[c]):
            defects.append(unitarity_defect(_stored_block(data, key, r)))
    residuals["f_unitarity"] = _worst(defects)
    residuals["pentagon"] = pentagon_residual(data)

    axiom = None
    if not int_ok:
        axiom = "grading/duality"
    elif not residuals["f_unitarity"] <= 1e-10:
        axiom = "F-unitarity"
    elif not residuals["pentagon"] <= 1e-8:
        axiom = "pentagon"
    return Certificate(axiom is None, residuals, {"problems": problems[:5]}, failed_axiom=axiom)


def pentagon_residual(data: FusionData) -> float:
    """Max Frobenius-norm gap between the two F-move paths from the left
    comb (((ab)c)d) to the right comb (a(b(cd))) over all pentagon
    instances.

    Each composable (a, b, c, d) is visited once, and only at the total
    charges u that some left comb ((ab)c)d reaches; the F entries are read
    from tables local to this call."""
    tables = _Tables(data)
    S = range(len(data.simples))
    src = [data.s(c) for c in data.simples]
    tgt = [data.t(c) for c in data.simples]
    gaps = []
    for a in S:
        for b in S:
            if tgt[a] != src[b]:
                continue
            for c in S:
                if tgt[b] != src[c]:
                    continue
                for d in S:
                    if tgt[c] != src[d]:
                        continue
                    for u, start in tables.left_combs(a, b, c, d).items():
                        gaps.append(tables.pentagon_gap(a, b, c, d, u, start))
    return _worst(gaps)


def _worst(values) -> float:
    """The largest value, 0.0 for none. A NaN propagates, where Python's
    max would drop it depending on its position."""
    return float(np.max(values, initial=0.0))


def _stored_block(data: FusionData, key, dim: int) -> np.ndarray:
    """The F block at a label key whose tree bases have dim elements: the
    identity when an argument is a unit (strict unit) or no block is
    stored, else the stored matrix, which must be dim x dim."""
    a, b, c, d = key
    m = data.F.get(key)
    if m is None or a in data.units or b in data.units or c in data.units:
        return np.eye(dim, dtype=complex)
    if m.shape != (dim, dim):
        raise SchemaError(f"F^{a},{b},{c}_{d} has shape {m.shape}")
    return m


def _fusion_table(data: FusionData) -> np.ndarray:
    """Dense N[a, b, c] over simple indices, equal to FusionData.n: the
    strict-unit rules replace any stored entry with a unit argument."""
    S, idx = data.simples, data.index
    N = np.zeros((len(S),) * 3, dtype=int)
    for (a, b, c), m in data.N.items():
        N[idx[a], idx[b], idx[c]] = m
    units = [idx[u] for u in data.units]
    N[units] = 0
    N[:, units] = 0
    for u in data.units:
        for i, x in enumerate(S):
            if x not in data.units and data.t(x) == data.s(u):
                N[i, idx[u], i] = 1
            if data.s(x) == data.s(u):
                N[idx[u], i, i] = 1
    return N


class _Tables:
    """Integer tables of one FusionData for one pentagon_residual call:
    multiplicities as nested lists, fusion products per pair, and F blocks
    keyed by simple indices, each built on first use as (entries as nested
    lists, left-tree index map, right-tree list). Entries are Python
    complex numbers, whose scalar arithmetic rounds exactly like numpy's."""

    def __init__(self, data: FusionData):
        self.data = data
        N = _fusion_table(data)
        self.n = N.tolist()
        self.prods = [[np.flatnonzero(row).tolist() for row in plane] for plane in N]
        self.blocks = {}

    def left_combs(self, a, b, c, d):
        """Total charge u -> left-comb trees (e, m1, g, m2, m3) of
        ((ab)c)d at u, in canonical order."""
        n, prods = self.n, self.prods
        out = {}
        for e in prods[a][b]:
            for m1 in range(n[a][b][e]):
                for g in prods[e][c]:
                    for m2 in range(n[e][c][g]):
                        for u in prods[g][d]:
                            for m3 in range(n[g][d][u]):
                                out.setdefault(u, []).append((e, m1, g, m2, m3))
        return out

    def row(self, a, b, c, d, tree):
        """(right tree, entry) pairs of the row of F^{abc}_d at a left tree."""
        key = (a, b, c, d)
        if key not in self.blocks:
            self.blocks[key] = self._block(key)
        m, rows, cols = self.blocks[key]
        return zip(cols, m[rows[tree]])

    def _block(self, key):
        a, b, c, d = key
        n, prods = self.n, self.prods
        rows = [
            (e, mu, nu)
            for e in prods[a][b]
            for mu in range(n[a][b][e])
            for nu in range(n[e][c][d])
        ]
        cols = [
            (f, ka, la)
            for f in prods[b][c]
            for ka in range(n[b][c][f])
            for la in range(n[a][f][d])
        ]
        labels = tuple(self.data.simples[i] for i in key)
        if len(rows) != len(cols):
            raise SchemaError(
                "F^{},{},{}_{}: tree counts differ ({} vs {})".format(*labels, len(rows), len(cols))
            )
        m = _stored_block(self.data, labels, len(rows))
        return m.tolist(), {r: i for i, r in enumerate(rows)}, cols

    def pentagon_gap(self, a, b, c, d, u, start) -> float:
        """Frobenius norm of the gap between the two paths of one pentagon
        instance at total charge u, on the given left-comb trees."""
        n = self.n
        final = [
            (f2, l2, f3, l3, k3)
            for f2 in range(len(n))
            for l2 in range(n[a][f2][u])
            for f3 in self.prods[c][d]
            for l3 in range(n[b][f3][f2])
            for k3 in range(n[c][d][f3])
        ]
        if not final:
            return 0.0
        fidx = {x: i for i, x in enumerate(final)}
        pa = [[0j] * len(start) for _ in final]
        pb = [[0j] * len(start) for _ in final]
        for si, (e, m1, g, m2, m3) in enumerate(start):
            # path A: F^{abc}_g, then F^{a f1 d}_u, then F^{bcd}_{f2}
            for (f1, k1, l1), co1 in self.row(a, b, c, g, (e, m1, m2)):
                if co1 == 0:
                    continue
                for (f2, k2, l2), x in self.row(a, f1, d, u, (g, l1, m3)):
                    co2 = co1 * x
                    if co2 == 0:
                        continue
                    for (f3, k3, l3), y in self.row(b, c, d, f2, (f1, k1, k2)):
                        co3 = co2 * y
                        if co3 != 0:
                            pa[fidx[(f2, l2, f3, l3, k3)]][si] += co3
            # path B: F^{ecd}_u then F^{abh}_u
            for (h, tau, sig), co1 in self.row(e, c, d, u, (g, m2, m3)):
                if co1 == 0:
                    continue
                for (k, rho, om), x in self.row(a, b, h, u, (e, m1, sig)):
                    co2 = co1 * x
                    if co2 != 0:
                        pb[fidx[(k, om, h, rho, tau)]][si] += co2
        return float(np.linalg.norm(np.array(pa) - np.array(pb)))


@dataclass
class UdfData:
    """Unitary dual functor data induced by a spherical weight.

    Quantum dimensions d_c, the one-sided dims dim_L, dim_R, and the
    cup/cap coefficients alpha_c (evaluation), beta_c (coevaluation):
    ev_c = alpha_c * (dual pairing vertex)^dagger, coev_c = beta_c * vertex.
    """

    data: FusionData
    psi: SphericalWeight
    dims: dict = field(default_factory=dict)  # label -> d_c
    alpha: dict = field(default_factory=dict)
    beta: dict = field(default_factory=dict)

    def d(self, c) -> float:
        return self.dims[c]

    def dim_left(self, c) -> float:
        return self.dims[c] / self.dims[self.data.s(c)]

    def dim_right(self, c) -> float:
        return self.dims[c] / self.dims[self.data.t(c)]


def udf_from_weight(
    data: FusionData, psi: SphericalWeight, tol: Tolerance = DEFAULT_TOL
) -> UdfData:
    """The unique unitary dual functor for which psi is spherical.

    d_c = sqrt(psi_{s(c)} psi_{t(c)}) FPdim(c), forced by the constraint
    chain d_{s(c)} dim_L(c) = d_c = d_{t(c)} dim_R(c) and the weight
    classification. Cup/cap coefficients are installed so the zig-zag and
    the loop identities hold; the loop values are re-derived numerically
    by loop_eval rather than trusted.
    """
    if len(psi.psi) != len(data.units):
        raise NonPositiveWeight("need one psi entry per unit summand")
    udf = UdfData(data, psi)
    for c in data.simples:
        ps = psi.of_unit(data, data.s(c))
        pt = psi.of_unit(data, data.t(c))
        udf.dims[c] = float(np.sqrt(ps * pt) * data.fpdim(c))
    chain = 0.0
    for c in data.simples:
        chain = max(chain, abs(udf.dims[data.s(c)] * udf.dim_left(c) - udf.dims[c]))
        chain = max(chain, abs(udf.dims[data.t(c)] * udf.dim_right(c) - udf.dims[c]))
    if chain > tol.bound():
        raise IndependenceViolation(f"dimension chain residual {chain}")

    from .diagram import Engine

    eng = Engine(data, None)
    for c in data.simples:
        beta = float(np.sqrt(udf.dims[c] / udf.dims[data.s(c)]))
        theta = eng.zigzag_scalar(c)
        if abs(theta) < 1e-14:
            raise SchemaError(f"degenerate duality pairing for {c}")
        udf.beta[c] = beta
        udf.alpha[c] = 1.0 / (theta * beta)
    return udf


def loop_eval(udf: UdfData, c, side: str) -> float:
    """Closed c-loop on the 1_{s(c)} sheet (side 'L') or the 1_{t(c)}
    sheet (side 'R'), evaluated through the cup/cap coefficients."""
    if c not in udf.data.index:
        raise UnknownLabel(c)
    from .diagram import Engine

    eng = Engine(udf.data, udf)
    if side == "L":
        loop = eng.compose(eng.dagger(eng.coev_simple(c)), eng.coev_simple(c))
        unit = udf.data.s(c)
    elif side == "R":
        loop = eng.compose(eng.ev_simple(c), eng.dagger(eng.ev_simple(c)))
        unit = udf.data.t(c)
    else:
        raise ValueError("side must be 'L' or 'R'")
    val = eng.unit_component(loop, unit)
    return float(val.real)


def renorm_scalar(data: FusionData, psi: SphericalWeight, tol: Tolerance = DEFAULT_TOL):
    """The functor-trace renormalization of an indecomposable component.

    v_i = sum over simples c with s(c) = i of d_c^2 / d_{1_i}, constant in
    i and equal to FPdim(C) psi(id) / k^2; the returned prefactor is the
    reciprocal k^2 / (FPdim(C) psi(id)).
    Returns ({unit: v_i}, {unit: prefactor}).
    """
    udf = udf_from_weight(data, psi, tol)
    values = {}
    prefactors = {}
    for units, simples in data.components():
        k = len(units)
        psi_id = sum(psi.of_unit(data, u) for u in units)
        closed = data.fpdim_total(simples) * psi_id / (k * k)
        for i in units:
            v = sum(udf.dims[c] ** 2 for c in simples if data.s(c) == i) / udf.dims[i]
            if abs(v - closed) > tol.bound(closed):
                raise IndependenceViolation(
                    f"component value at {i} is {v}, closed form {closed}"
                )
            values[i] = v
            prefactors[i] = 1.0 / closed
    return values, prefactors

