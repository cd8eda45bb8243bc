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
        self.N = {k: int(v) for k, v in self.N.items() if int(v) != 0}
        self.F = {k: np.asarray(v, dtype=complex) for k, v in self.F.items()}
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
        if a in self.units or b in self.units or c in self.units:
            # strict unit: the identification is the identity matrix
            return np.eye(len(rows), dtype=complex)
        if (a, b, c, d) in self.F:
            m = self.F[(a, b, c, d)]
            if m.shape != (len(rows), len(cols)):
                raise SchemaError(f"F^{a},{b},{c}_{d} has shape {m.shape}")
            return m
        return np.eye(len(rows), dtype=complex)

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
    pentagon equation."""
    residuals = {}
    # integer checks: grading compatibility, duality, Frobenius reciprocity
    int_ok = True
    problems = []
    for c in data.simples:
        cb = data.dual[c]
        if data.dual.get(cb) != c:
            int_ok = False
            problems.append(f"dual not involutive at {c}")
        if data.grading[cb] != (data.t(c), data.s(c)):
            int_ok = False
            problems.append(f"dual grading mismatch at {c}")
        if data.n(c, cb, data.s(c)) != 1 or data.n(cb, c, data.t(c)) != 1:
            int_ok = False
            problems.append(f"dual pairing multiplicity wrong at {c}")
    for (a, b, c), m in data.N.items():
        if a not in data.index or b not in data.index or c not in data.index:
            raise SchemaError(f"N entry with unknown label: {(a, b, c)}")
        if data.t(a) != data.s(b) or data.s(c) != data.s(a) or data.t(c) != data.t(b):
            int_ok = False
            problems.append(f"grading incompatibility in N at {(a, b, c)}")
    for a in data.simples:
        for b in data.simples:
            for c in data.simples:
                n = data.n(a, b, c)
                if n != data.n(data.dual[a], c, b) or n != data.n(c, data.dual[b], a):
                    int_ok = False
                    problems.append(f"Frobenius reciprocity fails at {(a, b, c)}")
    residuals["integer_checks"] = 0.0 if int_ok else 1.0

    # F-unitarity
    f_defect = 0.0
    for a in data.simples:
        for b in data.simples:
            for c in data.simples:
                for d in data.simples:
                    rows = data.tree_rows(a, b, c, d)
                    cols = data.tree_cols(a, b, c, d)
                    if len(rows) != len(cols):
                        return Certificate(
                            False,
                            {"integer_checks": 1.0},
                            {"problem": f"tree count mismatch at F^{a}{b}{c}_{d}"},
                            failed_axiom="fusion-associativity",
                        )
                    if rows:
                        f_defect = max(f_defect, unitarity_defect(data.f_matrix(a, b, c, d)))
    residuals["f_unitarity"] = f_defect

    residuals["pentagon"] = pentagon_residual(data)

    ok = int_ok and f_defect <= 1e-10 and residuals["pentagon"] <= 1e-8
    axiom = None
    if not int_ok:
        axiom = "grading/duality"
    elif f_defect > 1e-10:
        axiom = "F-unitarity"
    elif residuals["pentagon"] > 1e-8:
        axiom = "pentagon"
    return Certificate(ok, residuals, {"problems": problems[:5]}, failed_axiom=axiom)


def pentagon_residual(data: FusionData) -> float:
    """Max Frobenius-norm gap between the two F-move paths from the left
    comb (((ab)c)d) to the right comb (a(b(cd))) over all pentagon
    instances."""
    worst = 0.0
    S = data.simples
    for a in S:
        for b in S:
            if data.t(a) != data.s(b):
                continue
            for c in S:
                if data.t(b) != data.s(c):
                    continue
                for d in S:
                    if data.t(c) != data.s(d):
                        continue
                    for u in S:
                        worst = max(worst, _pentagon_instance(data, a, b, c, d, u))
    return worst


def _pentagon_instance(data: FusionData, a, b, c, d, u) -> float:
    """One pentagon instance at total charge u."""
    start = [
        (e, m1, g, m2, m3)
        for e in data.simples
        for m1 in range(data.n(a, b, e))
        for g in data.simples
        for m2 in range(data.n(e, c, g))
        for m3 in range(data.n(g, d, u))
    ]
    final = [
        (f2, l2, f3, l3, k3)
        for f2 in data.simples
        for l2 in range(data.n(a, f2, u))
        for f3 in data.simples
        for l3 in range(data.n(b, f3, f2))
        for k3 in range(data.n(c, d, f3))
    ]
    if not start or not final:
        return 0.0
    fidx = {x: i for i, x in enumerate(final)}

    def fmat(x, y, z, w):
        m = data.f_matrix(x, y, z, w)
        rows = {r: i for i, r in enumerate(data.tree_rows(x, y, z, w))}
        cols = {cc: i for i, cc in enumerate(data.tree_cols(x, y, z, w))}
        return m, rows, cols

    pa = np.zeros((len(final), len(start)), dtype=complex)
    pb = np.zeros((len(final), len(start)), dtype=complex)
    for si, (e, m1, g, m2, m3) in enumerate(start):
        # path A: F^{abc}_g, then F^{a f1 d}_u, then F^{bcd}_{f2}
        m_abc, r_abc, c_abc = fmat(a, b, c, g)
        for f1 in data.fusion_products(b, c):
            for k1 in range(data.n(b, c, f1)):
                for l1 in range(data.n(a, f1, g)):
                    co1 = m_abc[r_abc[(e, m1, m2)], c_abc[(f1, k1, l1)]]
                    if co1 == 0:
                        continue
                    m_afd, r_afd, c_afd = fmat(a, f1, d, u)
                    for f2 in data.fusion_products(f1, d):
                        for k2 in range(data.n(f1, d, f2)):
                            for l2 in range(data.n(a, f2, u)):
                                co2 = co1 * m_afd[r_afd[(g, l1, m3)], c_afd[(f2, k2, l2)]]
                                if co2 == 0:
                                    continue
                                m_bcd, r_bcd, c_bcd = fmat(b, c, d, f2)
                                for f3 in data.fusion_products(c, d):
                                    for k3 in range(data.n(c, d, f3)):
                                        for l3 in range(data.n(b, f3, f2)):
                                            co3 = co2 * m_bcd[
                                                r_bcd[(f1, k1, k2)], c_bcd[(f3, k3, l3)]
                                            ]
                                            if co3 != 0:
                                                pa[fidx[(f2, l2, f3, l3, k3)], si] += co3
        # path B: F^{ecd}_u then F^{abh}_u
        m_ecd, r_ecd, c_ecd = fmat(e, c, d, u)
        for h in data.fusion_products(c, d):
            for tau in range(data.n(c, d, h)):
                for sig in range(data.n(e, h, u)):
                    co1 = m_ecd[r_ecd[(g, m2, m3)], c_ecd[(h, tau, sig)]]
                    if co1 == 0:
                        continue
                    m_abh, r_abh, c_abh = fmat(a, b, h, u)
                    for k in data.fusion_products(b, h):
                        for rho in range(data.n(b, h, k)):
                            for om in range(data.n(a, k, u)):
                                co2 = co1 * m_abh[r_abh[(e, m1, sig)], c_abh[(k, rho, om)]]
                                if co2 != 0:
                                    pb[fidx[(k, om, h, rho, tau)], si] += co2
    return float(np.linalg.norm(pa - pb))


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

