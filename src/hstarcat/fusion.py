"""Skeletal unitary multifusion categories.

A category is presented by simple labels, unit summands with a grading
(every simple c satisfies c = 1_{s(c)} (x) c (x) 1_{t(c)}), a dual
involution, fusion multiplicities N_{ab}^c, and unitary F-symbols in
fusion-tree bases. A positive weight psi on the unit summands determines
the unitary dual functor, all quantum dimensions, and the loop values.

dual_engine builds a diagram.Engine together with that dual functor, so a
command builds one engine; udf_from_weight and loop_eval remain for
callers that hold only a UdfData, such as the benchmark.

Conventions: fusion-tree bases are orthonormal (vertices are isometries),
daggers of tree coefficients are conjugate transposes, and all bending is
mediated by explicit cup/cap coefficients pinned by the loop identities.
F^{abc}_d maps the basis {(e; mu in V(a,b;e), nu in V(e,c;d))} of trees
grouped to the left onto the basis {(f; ka in V(b,c;f), la in V(a,f;d))}
grouped to the right, where V(x,y;z) is the vertex space Hom(z -> x(x)y).
F blocks with a unit argument are required to be identities (strict unit).

N and F are fixed at construction: N, F, grading and dual are read-only
mappings, each F block a read-only copy of the caller's. What they fix
lives on the data, and every diagram.Engine on it reads it, whatever its
weight or tolerance: the dense N[a, b, c] with the strict-unit rules
folded in (FusionData.table, off which n, fusion_products and every
FPdim, the largest singular value of a fusion matrix, are read), and, on
demand, the tree orders (tree_rows, tree_cols) and the block (f_matrix)
of each F-move, the right-comb tree bases of each tensor word, swept for
every charge at once and stored only at the charges that have trees
(sweep; diagram.Engine reads any other charge as one shared empty
value), and the grouped-basis unitaries of diagram.Engine.group_last.
These tables hold labels, numbers and read-only arrays, never an engine.
Validation gathers every F block that has trees, in index order, with its
entries in one flat array (_Blocks). Tree bases are numbered by pairs of
vertices, and the pentagon evaluates all its instances in one batch of
integer index arrays and float64 arithmetic, in the order of a scalar
loop over them, so its residual is the loop's to the last bit (see
pentagon_residual).
Non-finite F entries are an InputError at construction; a non-finite
residual that still arises (a huge finite entry overflows) fails its
bound test and rejects, without a warning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .certify import Certificate, bounded, clears, judged, within
from .diagram import Engine
from .numcore import (
    DEFAULT_TOL, ConsistencyError, InputError, ShapeMismatch, Tolerance, unitarity_defect, worst,
)

# F-symbols are given data, so their unitarity holds to roundoff: 1e-10
# at the default tolerance
F_UNITARITY_DIVISOR = 20
# a pentagon gap compares a path of two F-moves with one of three, each
# a sum over intermediate trees: 1e-8 at the default tolerance
PENTAGON_FACTOR = 5
# a zig-zag scalar is one F-symbol entry, 1/FPdim up to a phase on
# unitary data; at or below this cut (or NaN) it cannot be divided out
PAIRING_CUT = 1e-14
# start trees per batch of the pentagon, which bounds its working memory
_CHUNK = 512


@dataclass
class FusionData:
    simples: tuple
    units: tuple  # unit summand labels, a subset of simples
    grading: dict  # read-only: label -> (source unit label, target unit label)
    dual: dict  # read-only: label -> label
    N: dict  # read-only: (a, b, c) -> nonnegative int, omitted means 0
    F: dict  # (a, b, c, d) -> read-only complex matrix in the canonical tree order

    def __post_init__(self):
        self.simples = tuple(self.simples)
        self.units = tuple(self.units)
        self.index = {c: i for i, c in enumerate(self.simples)}
        if len(set(self.simples)) != len(self.simples):
            raise InputError("duplicate simple labels")
        for u in self.units:
            if u not in self.index:
                raise InputError(f"unit {u} is not a simple")
        for c in self.simples:
            if c not in self.grading:
                raise InputError(f"missing grading for {c}")
            if c not in self.dual:
                raise InputError(f"missing dual for {c}")
            ends = tuple(self.grading[c])
            if len(ends) != 2 or any(u not in self.units for u in ends):
                raise InputError(f"grading of {c} is not a pair of units: {ends}")
            if self.dual[c] not in self.index:
                raise InputError(f"dual of {c} is not a simple: {self.dual[c]}")
        for table, arity in ((self.N, 3), (self.F, 4)):
            for k in table:
                if len(k) != arity or any(x not in self.index for x in k):
                    raise InputError(f"entry with unknown label: {k}")
        # a whole number below 2**31, so that tree counts (sums of products
        # of two) fit int64 tables; NaN and infinity fail the range test
        for k, v in self.N.items():
            if not (0 <= v < 2**31 and v == int(v)):
                raise InputError(
                    f"N^{k[0]},{k[1]}_{k[2]} = {v:.3g} is not an integer in [0, 2**31)"
                )
        self.N = MappingProxyType({k: int(v) for k, v in self.N.items() if v})
        # a copy of each block is frozen, never the caller's array
        self.F = MappingProxyType({k: np.array(v, dtype=complex) for k, v in self.F.items()})
        for k, m in self.F.items():
            if not np.isfinite(m).all():
                raise InputError(f"F^{k[0]},{k[1]},{k[2]}_{k[3]} has a non-finite entry")
            m.flags.writeable = False
        self.grading = MappingProxyType({c: tuple(self.grading[c]) for c in self.simples})
        self.dual = MappingProxyType(dict(self.dual))
        if not self.units:
            raise InputError("no unit summand")
        self._compile()

    def _compile(self):
        """The fusion rules as table[a, b, c] = N_{ab}^c over simple
        indices, with the strict-unit rules in place of any stored entry
        with a unit argument: 1_u (x) x = x when s(x) = s(u), and x (x) 1_u
        = x when t(x) = s(u) for a simple x that is not a unit. The lookups
        of n and fusion_products, and every FPdim, are read off it."""
        S, n = self.simples, len(self.simples)
        table = np.zeros((n,) * 3, dtype=int)
        for (a, b, c), m in self.N.items():
            table[self.index[a], self.index[b], self.index[c]] = m
        unit = np.array([c in self.units for c in S])
        s = np.array([self.index[self.s(c)] for c in S])
        t = np.array([self.index[self.t(c)] for c in S])
        table[unit] = 0
        table[:, unit] = 0
        u, x = (unit[:, None] & (s[:, None] == s)).nonzero()
        table[u, x, x] = 1
        x, u = (~unit[:, None] & unit & (t[:, None] == s)).nonzero()
        table[x, u, x] = 1
        self.table = table
        self._n, products = {}, {}
        a, b, c = table.nonzero()
        for i, j, k, m in zip(a.tolist(), b.tolist(), c.tolist(), table[a, b, c].tolist()):
            self._n[(S[i], S[j], S[k])] = m
            products.setdefault((S[i], S[j]), []).append((S[k], m))
        # tuples, since every caller shares them
        self._products = {k: tuple(v) for k, v in products.items()}
        # FPdim(a)^2 is the spectral radius of L_{a*} L_a = L_a^T L_a for
        # the fusion matrix L_a[c, b] = N_{ab}^c (Frobenius reciprocity)
        sv = np.linalg.svd(table.astype(float), compute_uv=False)
        self._fpdims = dict(zip(S, sv[:, 0].tolist()))
        # filled on demand: the F-move tree orders and blocks per (a, b, c,
        # d), one identity block per size, the comb tree tables per word
        # (sweep), and the grouped-basis unitaries per (word, object,
        # charge), built by Engine.group_last
        self._rows, self._cols, self._blocks, self._eyes = {}, {}, {}, {}
        self.comb_bases, self.comb_indices, self.comb_supports = {}, {}, {}
        self.grouped_unitaries = {}

    # --- basic accessors -------------------------------------------------

    def s(self, c) -> str:
        return self.grading[c][0]

    def t(self, c) -> str:
        return self.grading[c][1]

    def n(self, a, b, c) -> int:
        """Multiplicity N_{ab}^c = dim Hom(c -> a (x) b)."""
        return self._n.get((a, b, c), 0)

    def fusion_products(self, a, b):
        """The charges c of a (x) b with their multiplicities N_{ab}^c, in
        the order of the simples."""
        return self._products.get((a, b), ())

    def tree_rows(self, a, b, c, d) -> dict:
        """The left-grouped tree basis of Hom(d -> abc) in canonical order,
        each tree mapped to its position; built once per (a, b, c, d) and
        kept on the data."""
        key = (a, b, c, d)
        out = self._rows.get(key)
        if out is None:
            out = self._rows[key] = {}
            for e, m in self.fusion_products(a, b):
                for mu in range(m):
                    for nu in range(self.n(e, c, d)):
                        out[(e, mu, nu)] = len(out)
        return out

    def tree_cols(self, a, b, c, d) -> dict:
        """The right-grouped tree basis, kept on the data as tree_rows is."""
        key = (a, b, c, d)
        out = self._cols.get(key)
        if out is None:
            out = self._cols[key] = {}
            for f, m in self.fusion_products(b, c):
                for ka in range(m):
                    for la in range(self.n(a, f, d)):
                        out[(f, ka, la)] = len(out)
        return out

    def sweep(self, word) -> None:
        """The right-comb tree bases of Hom(c -> word) at every charge c,
        in one sweep over the fusion products x (x) e of the first object
        of word with the charges e of the rest; the rest is swept first if
        it has not been. Each charge gets its trees in the order (x, alpha,
        e, v, sub_index): strand simple x, copy alpha, inner charge e,
        vertex v in V(x, e; c) and tree index into the basis of word[1:] at
        e; the empty word has the one tree () at each unit.

        The results go into comb_bases[(word, c)] (the tree list),
        comb_indices[(word, c)] (tree -> position) and comb_supports[word]
        (the charges with trees, in the order of the simples); the first
        two key only the charges in comb_supports[word], and
        diagram.Engine reads any other charge as one shared, immutable
        empty value (most charges of a long word have no tree). They depend
        on N alone, hold only labels and numbers, are keyed by word values,
        and live as long as the data: every diagram.Engine on this data
        reads them, and none stores its own."""
        trees = {c: [] for c in self.simples}
        if not word:
            for u in self.units:
                trees[u].append(())
        else:
            O, rest = word[0], word[1:]
            if rest not in self.comb_supports:
                self.sweep(rest)
            inner = [(e, len(self.comb_bases[(rest, e)])) for e in self.comb_supports[rest]]
            for i, x in enumerate(self.simples):
                n = O[i]
                if not n:
                    continue
                fused = [(e, k, self.fusion_products(x, e)) for e, k in inner]
                for alpha in range(n):
                    for e, k, products in fused:
                        for c, m in products:
                            out = trees[c]
                            for v in range(m):
                                for si in range(k):
                                    out.append((x, alpha, e, v, si))
        support = []
        for c, out in trees.items():
            if out:
                key = (word, c)
                self.comb_bases[key] = out
                self.comb_indices[key] = {b: i for i, b in enumerate(out)}
                support.append(c)
        self.comb_supports[word] = tuple(support)

    def f_matrix(self, a, b, c, d) -> np.ndarray:
        """F^{abc}_d from the trees of tree_rows to those of tree_cols
        (_block); InputError when their counts differ."""
        rows, cols = len(self.tree_rows(a, b, c, d)), len(self.tree_cols(a, b, c, d))
        if rows != cols:
            raise InputError(f"F^{a},{b},{c}_{d}: tree counts differ ({rows} vs {cols})")
        return self._block((a, b, c, d), rows)

    def _block(self, key, dim: int) -> np.ndarray:
        """The F block at a label key whose tree bases have dim elements,
        read-only, built once and kept: the identity when an argument is a
        unit (strict unit), the tree bases are empty or no block is stored,
        else the stored block, which must be dim x dim (InputError)."""
        m = self._blocks.get(key)
        if m is None:
            a, b, c, d = key
            m = self.F.get(key)
            if m is None or not dim or a in self.units or b in self.units or c in self.units:
                m = self._eyes.get(dim)
                if m is None:
                    m = self._eyes[dim] = np.eye(dim, dtype=complex)
                    m.flags.writeable = False
            elif m.shape != (dim, dim):
                raise InputError(f"F^{a},{b},{c}_{d} has shape {m.shape}")
            self._blocks[key] = m
        return m

    # --- Frobenius-Perron dimensions ------------------------------------

    def fpdim(self, a) -> float:
        """FPdim(a), the largest singular value of the fusion matrix of a."""
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
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            raise InputError(f"malformed fusion data: {exc}") from exc
        return cls(simples, units, grading, dual, N, F)


@dataclass(frozen=True)
class SphericalWeight:
    psi: tuple  # one positive real per unit summand, in unit order

    def __post_init__(self):
        object.__setattr__(self, "psi", tuple(float(p) for p in self.psi))
        if not all(clears(p, 0) for p in self.psi):
            raise InputError("psi must be strictly positive")

    def total(self) -> float:
        """psi(id_1) = sum over unit summands."""
        return float(sum(self.psi))

    def of_unit(self, data: FusionData, u) -> float:
        return self.psi[data.units.index(u)]


def validate(data: FusionData, tol: Tolerance = DEFAULT_TOL) -> Certificate:
    """Certify grading/dual integer identities, F-unitarity, and the
    pentagon equation.

    N is compiled at construction (data.table), and each F block is read
    once per data and kept on it (see _Blocks). The grading check runs over
    the stored entries of N, and so does the strict-unit check: a stored
    entry with a unit argument must equal n(a, b, c), the value of the
    rule that construction put in its place. The other integer identities
    are comparisons of the dense table N[a, b, c], and the tree counts
    sum_e N[a,b,e] N[e,c,d] and sum_f N[b,c,f] N[a,f,d] of every F^{abc}_d
    must agree.
    F-unitarity is checked on the blocks that have trees and no unit
    argument (unit blocks are identities): the 1x1 blocks in one array
    expression that rounds exactly like numcore.unitarity_defect, each
    larger block by unitarity_defect. The pentagon is checked on
    admissible instances without a unit leg only, all in one batch (see
    pentagon_residual). Every bound test reads `not (residual <= bound)`,
    so a NaN residual rejects on its axiom.

    The bounds scale with tol.bound(), the bound at unit scale: F-unitarity
    at tol.bound() / F_UNITARITY_DIVISOR (20) and the pentagon at
    tol.bound() * PENTAGON_FACTOR (5), exactly 1e-10 and 1e-8 at the
    default tolerance (2e-9), so a smaller tol never accepts more.
    """
    S, idx = data.simples, data.index
    N = data.table
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
    for (a, b, c), m in data.N.items():
        if data.t(a) != data.s(b) or data.s(c) != data.s(a) or data.t(c) != data.t(b):
            problems.append(f"grading incompatibility in N at {(a, b, c)}")
        if (a in data.units or b in data.units) and m != data.n(a, b, c):
            problems.append(f"stored N breaks the strict-unit rule at {(a, b, c)}")
    # Frobenius reciprocity: N_{ab}^c = N_{a* c}^b = N_{c b*}^a
    D = [idx[data.dual[c]] for c in S]
    frob = (N != N[D].transpose(0, 2, 1)) | (N != N[:, D].transpose(2, 1, 0))
    for a, b, c in np.argwhere(frob).tolist():
        problems.append(f"Frobenius reciprocity fails at {(S[a], S[b], S[c])}")
    residuals = {"integer_checks": 1.0 if problems else 0.0}
    details = {"problems": problems[:5]}

    blocks = _Blocks(data)
    if blocks.mismatch:
        # no F block past the mismatch is built; a grading or duality
        # problem, checked first, keeps its name
        details["problem"] = "tree count mismatch at F^{}{}{}_{}".format(*blocks.mismatch[0])
        axiom = "grading/duality" if problems else "fusion-associativity"
        return bounded("integer_checks", 1.0, 0.0, axiom, details)
    residuals["f_unitarity"] = blocks.unitarity()
    residuals["pentagon"] = worst(_pentagon_gaps(blocks).tolist())
    checks = [
        ("integer_checks", 0.0, "grading/duality"),
        ("f_unitarity", tol.bound() / F_UNITARITY_DIVISOR, "F-unitarity"),
        ("pentagon", tol.bound() * PENTAGON_FACTOR, "pentagon"),
    ]
    return judged(residuals, checks, details)


def pentagon_residual(data: FusionData) -> float:
    """Max Frobenius-norm gap between the two F-move paths from the left
    comb (((ab)c)d) to the right comb (a(b(cd))) over all pentagon
    instances.

    An instance is a composable (a, b, c, d) without a unit among them and
    a total charge u that some left comb ((ab)c)d reaches. An instance
    with a unit leg is skipped: under the strict-unit identity blocks both
    of its paths reduce to the same single F-move, multiplied by exact
    1.0, so its gap is exactly 0.0. Every block is checked first, in index
    order: the first with differing tree counts, or a stored block of the
    wrong shape, raises InputError.

    All instances are evaluated in one batch, with the arithmetic of a
    scalar loop over them (the reference loop in the tests). A tree is a
    pair of vertices, and a pentagon state a triple; each F-move looks up
    the row of two adjacent vertices and replaces them by the column of
    each entry. The start trees of every instance, in canonical order,
    are gathered as integer index arrays, and so are the terms of each
    path, F^{abc}_g F^{afd}_u F^{bcd}_f on path A and F^{ecd}_u F^{abh}_u
    on path B, in chunks of start trees that bound the working memory.
    Each product is formed left to right from float64 parts,
    (xr*yr - xi*yi, xr*yi + xi*yr), which rounds like Python's complex
    multiply; numpy's complex multiply of arrays does not always. As in
    the loop, a zero F entry at a path's first move and a zero product
    of its first two moves end the term; the zero terms the loop drops
    after that change no sum. Each (final tree, start tree) entry of an
    instance sums its terms in loop order with np.bincount; an instance
    with one start tree has one final tree, so the final trees are
    numbered only when some instance has more (_Trees.finals). The gap
    is the norm of path A minus path B: sqrt(dr*dr + di*di) for a single
    entry, which is what np.linalg.norm returns for it, and
    np.linalg.norm of the instance's entries in row-major order for a
    larger instance."""
    blocks = _Blocks(data)
    if blocks.mismatch:
        key, r, k = blocks.mismatch
        raise InputError("F^{},{},{}_{}: tree counts differ ({} vs {})".format(*key, r, k))
    return worst(_pentagon_gaps(blocks).tolist())


class _Blocks:
    """The F blocks that have trees, of one FusionData for one validate or
    pentagon_residual call, on the tree counts of data.table, which
    construction compiled; each block is the data's own (FusionData._block,
    the store behind f_matrix), read once per data and kept.

    Blocks are read in index order of their (a, b, c, d) up to the first
    whose tree counts differ; a stored block of the wrong shape before it
    raises InputError. mismatch is that block's (labels, rows, cols), and
    then nothing more is built, or None. Block i has indices keys[k][i]
    (k = 0..3), dims[i] trees and matrix mats[i], an identity unless
    plain[i] (no unit among a, b, c), and its entries lie row by row in
    vals from at[i]. trees[a, b, c, d] counts the left trees of every
    quadruple, and unit marks the unit simples."""

    def __init__(self, data: FusionData):
        self.data, N = data, data.table
        S, n = data.simples, len(data.simples)
        self.trees = np.einsum("abe,ecd->abcd", N, N)
        cols = np.einsum("bcf,afd->abcd", N, N)
        has = (self.trees != 0) | (cols != 0)
        self.keys = has.nonzero()
        self.unit = np.zeros(n, dtype=bool)
        self.unit[[data.index[u] for u in data.units]] = True
        x, y, z, _ = self.keys
        self.plain = ~(self.unit[x] | self.unit[y] | self.unit[z])
        dims, cols = self.trees[self.keys], cols[self.keys]
        bad = (dims != cols).nonzero()[0]
        stop = bad[0] if bad.size else len(dims)
        rows = zip(*(i[:stop].tolist() for i in self.keys), dims.tolist())
        self.mats = [data._block((S[i], S[j], S[k], S[l]), r) for i, j, k, l, r in rows]
        self.mismatch = None
        if bad.size:
            key = tuple(S[i[stop]] for i in self.keys)
            self.mismatch = (key, int(dims[stop]), int(cols[stop]))
            return
        self.dims = dims
        self.at = np.add.accumulate(dims * dims) - dims * dims
        self.vals = np.concatenate([m.ravel() for m in self.mats] or [np.zeros(0, complex)])

    def unitarity(self) -> float:
        """Worst unitarity defect of the blocks with no unit argument."""
        # conj(z) z - 1 of each 1x1 block, rounded as matmul and norm round it
        z = self.vals[self.at[self.plain & (self.dims == 1)]]
        zr, zi = z.real, z.imag
        dr = zr * zr + zi * zi - 1.0
        di = zr * zi - zi * zr
        larger = (self.plain & (self.dims > 1)).nonzero()[0].tolist()
        defects = np.sqrt(dr * dr + di * di).tolist()
        return worst(defects + [unitarity_defect(self.mats[i]) for i in larger])


def _runs(counts: np.ndarray):
    """Runs of the given lengths laid end to end: the run of each position
    and the position within its run."""
    run = np.arange(len(counts)).repeat(counts)
    return run, np.arange(len(run)) - (np.add.accumulate(counts) - counts)[run]


def _times(xr, xi, yr, yi):
    """The complex product x y from float64 parts, rounded like Python's;
    an overflow gives a non-finite part, and so a non-finite gap."""
    with np.errstate(over="ignore", invalid="ignore"):
        return xr * yr - xi * yi, xr * yi + xi * yr


class _Trees:
    """The vertices and trees of the blocks of one _Blocks.

    A vertex (x, y; z) is one multiplicity index of N[x, y, z]; vertices
    are numbered in index order, and vertex v has x n + y = vxy[v], y =
    vy[v], z = vz[v] and index vmu[v]. A tree is a pair of vertices: the
    left trees (x, y; e)(e, z; w) and the right trees (y, z; f)(x, f; w)
    of a block are numbered alike, block by block, in canonical order.
    Left tree r is (rv1[r], rv2[r]) of block rblk[r], and row[v1, v2]
    numbers the left tree (v1, v2). The entries of left tree r lie in
    blocks.vals from row_at[r], one per right tree of its block (in_row[r],
    or in_row_nz[r] for the nonzero ones); entry k is in column ecol[k],
    whose vertices are ev3[k] and ev4[k].

    finals() numbers the right trees as final trees, which only an
    instance with more than one start tree needs, so it is built on
    demand: (col, csuf, cdim), where col[v4, v3] numbers the right tree
    (v3, v4), csuf[c] is the position of right tree c of block (b, c, d,
    f) among the final trees (f3, l3, k3) through f, and cdim[c] is the
    size of its block."""

    def __init__(self, blocks: _Blocks):
        N, dims = blocks.data.table, blocks.dims
        bx, by, bz, bw = blocks.keys
        n = len(N)
        counts = N.ravel()
        vid = np.add.accumulate(counts) - counts
        lin = np.arange(n**3).repeat(counts)
        self.vmu = np.arange(len(lin)) - vid[lin]
        self.vxy, self.vz = lin // n, lin % n
        self.vy = self.vxy % n
        vid = vid.reshape(N.shape)
        nv = len(lin)
        first = np.add.accumulate(dims) - dims
        # left trees of block (x, y, z, w) through each e
        inner = N[:, bz, bw].T
        wr = N[bx, by, :] * inner
        sb, se = wr.nonzero()
        run, pos = _runs(wr[sb, se])
        k = inner[sb, se][run]
        self.rv1 = vid[bx[sb], by[sb], se][run] + pos // k
        self.rv2 = vid[se, bz[sb], bw[sb]][run] + pos % k
        self.rblk = rblk = sb[run]
        self.row = np.full((nv, nv), -1)
        self.row[self.rv1, self.rv2] = np.arange(len(rblk))
        width = dims[rblk]
        self.row_at = blocks.at[rblk] + (np.arange(len(rblk)) - first[rblk]) * width
        # right trees of block (x, y, z, w) through each f; the final trees
        # through f are ordered (f, la, ka)
        inner = N[bx, :, bw]
        nyz = N[by, bz, :]
        wc = nyz * inner
        sb, sf = wc.nonzero()
        run, pos = _runs(wc[sb, sf])
        k = inner[sb, sf][run]
        ka, la = pos // k, pos % k
        cv3 = vid[by[sb], bz[sb], sf][run] + ka
        cv4 = vid[bx[sb], sf, bw[sb]][run] + la

        def finals():
            col = np.full((nv, nv), -1)
            col[cv4, cv3] = np.arange(len(cv3))
            csuf = (np.add.accumulate(wc, axis=1) - wc)[sb, sf][run] + la * nyz[sb, sf][run] + ka
            return col, csuf, dims[sb[run]]

        self.finals = finals
        # the entries of each row, and those of them that are not zero
        self.in_row = np.arange(dims.max()) < width[:, None]
        r, j = self.in_row.nonzero()
        self.ecol = first[rblk[r]] + j
        self.ev3, self.ev4 = cv3[self.ecol], cv4[self.ecol]
        self.in_row_nz = self.in_row.copy()
        self.in_row_nz[r, j] = blocks.vals != 0

    def entries(self, mask, p, q):
        """The source index and the entry of every entry of the left trees
        (p, q) that the mask keeps, in order."""
        r = self.row[p, q]
        src, j = mask[r].nonzero()
        return src, self.row_at[r[src]] + j


def _start_trees(blocks: _Blocks, tr: _Trees, pair: np.ndarray, comp: np.ndarray):
    """The start trees (P, Q, R) = (a, b; e)(e, c; g)(g, d; u) of all
    instances, a vertex P and a left tree (Q, R) of block (e, c, d, u), with
    a, b and c, d composable non-unit pairs (pair[x n + y]) and b, c
    composable; instances in key order, each one's start trees in
    canonical order, and the instance key of each."""
    n = len(blocks.data.simples)
    bx, by, bz, bw = blocks.keys
    P = pair[tr.vxy].nonzero()[0]
    rows = pair[by * n + bz][tr.rblk].nonzero()[0]
    lo = np.searchsorted(bx[tr.rblk[rows]], np.arange(n + 1))
    e = tr.vz[P]
    run, j = _runs(lo[e + 1] - lo[e])
    P, rows = P[run], rows[lo[e][run] + j]
    blk = tr.rblk[rows]
    keep = comp[tr.vy[P], by[blk]].nonzero()[0]
    inst = tr.vxy[P] * n**3 + (by[blk] * n + bz[blk]) * n + bw[blk]
    keep = keep[inst[keep].argsort(kind="stable")]
    rows = rows[keep]
    return P[keep], tr.rv1[rows], tr.rv2[rows], inst[keep]


def _terms(tr: _Trees, vals: np.ndarray, P, Q, R, col):
    """The terms of both paths on the start trees (P, Q, R), path A's
    first, each path's in loop order: the start tree t, the vertex X =
    (a, f2; u) and the right tree c of block (b, c, d, f2) of the final
    tree, and the value (wr, wi) of each term, and the number of path A's
    terms. X and c are None without col (_Trees.finals), which numbers
    the right trees. A zero entry or product ends a term where the loop
    ends it."""
    m = len(P)
    vr, vi = vals.real, vals.imag
    # F^{abc}_g on path A and F^{ecd}_u on path B
    s, e = tr.entries(tr.in_row_nz, np.concatenate((P, Q)), np.concatenate((Q, R)))
    k = np.searchsorted(s, m)
    ta, x1, y1 = s[:k], tr.ev3[e[:k]], tr.ev4[e[:k]]  # y1 = (a, f1; g)
    tb, x4, y4 = s[k:] - m, tr.ev3[e[k:]], tr.ev4[e[k:]]  # x4 = (c, d; h)
    # then F^{a f1 d}_u on path A and F^{abh}_u on path B
    s, e2 = tr.entries(tr.in_row, np.concatenate((y1, P[tb])), np.concatenate((R[ta], y4)))
    pr, pi = _times(vr[e][s], vi[e][s], vr[e2], vi[e2])
    nz = ((pr != 0) | (pi != 0)).nonzero()[0]
    s, e, pr, pi = s[nz], e2[nz], pr[nz], pi[nz]
    k2 = np.searchsorted(s, k)
    # then F^{bcd}_{f2} on path A
    sa, sb, eb = s[:k2], s[k2:] - k, e[k2:]
    s3, e3 = tr.entries(tr.in_row, x1[sa], tr.ev3[e[:k2]])
    ar, ai = _times(pr[s3], pi[s3], vr[e3], vi[e3])
    t = np.concatenate((ta[sa][s3], tb[sb]))
    X = c = None
    if col is not None:
        X = np.concatenate((tr.ev4[e[:k2]][s3], tr.ev4[eb]))
        c = np.concatenate((tr.ecol[e3], col[tr.ev3[eb], x4[sb]]))
    return t, X, c, np.concatenate((ar, pr[k2:])), np.concatenate((ai, pi[k2:])), len(s3)


def _pentagon_gaps(blocks: _Blocks) -> np.ndarray:
    """The gap of every pentagon instance, by the batched method of
    pentagon_residual."""
    data, N = blocks.data, blocks.data.table
    n = len(data.simples)
    free = ~blocks.unit
    source = np.array([data.index[data.s(c)] for c in data.simples])
    target = np.array([data.index[data.t(c)] for c in data.simples])
    comp = target[:, None] == source
    pair = (free[:, None] & free & comp).ravel()
    if not (pair.reshape(n, n, 1) & (N != 0)).any():
        return np.zeros(0)
    tr = _Trees(blocks)
    P, Q, R, inst = _start_trees(blocks, tr, pair, comp)
    if not len(P):
        return np.zeros(0)
    new = np.empty(len(inst), dtype=bool)
    new[0] = True
    np.not_equal(inst[1:], inst[:-1], out=new[1:])
    head = new.nonzero()[0]  # first start tree of each instance
    inst = np.add.accumulate(new) - 1
    size = np.bincount(inst)  # start trees, equal to final trees
    base = np.add.accumulate(size * size) - size * size
    # an instance with one start tree has one final tree, 0; the final
    # trees are numbered only when some instance has more
    many = (size > 1).nonzero()[0]
    col = None
    if many.size:
        col, csuf, cdim = tr.finals()
        # final tree (f2, l2, f3, l3, k3), the vertices (c, d; f3)(b, f3;
        # f2)(a, f2; u), is number lead[f2] + l2 T[b,c,d,f2] + its position
        # among the right trees of block (b, c, d, f2) through f3; lead is
        # kept only for instances with more than one start tree, the
        # others read row 0
        h = head[many]
        # N[a, f, u] T[b, c, d, f] of P = (a, b; e), Q = (e, c; g), R = (g, d; u)
        p, q, r = P[h], Q[h], R[h]
        wf = N[tr.vxy[p] // n, :, tr.vz[r]] * blocks.trees[tr.vy[p], tr.vxy[q] % n, tr.vy[r], :]
        lead = np.zeros((len(many) + 1, n), dtype=int)
        lead[1:] = np.add.accumulate(wf, axis=1) - wf
        lead_row = np.zeros(len(size), dtype=int)
        lead_row[many] = np.arange(1, len(many) + 1)
    # entry (final, start) of an instance is slot base + final size + start,
    # path A's sums in row 0 of sums and path B's in row 1. Each slot is one
    # start tree's, so the start trees go in chunks, which bound the
    # memory, each adding its window of slots; the other chunks add +0.0
    ms = int(base[-1] + size[-1] ** 2)
    sums_r, sums_i = np.zeros((2, ms)), np.zeros((2, ms))
    for lo in range(0, len(P), _CHUNK):
        part = slice(lo, lo + _CHUNK)
        t, X, c, wr, wi, na = _terms(tr, blocks.vals, P[part], Q[part], R[part], col)
        t += lo
        i = inst[t]
        last = inst[min(lo + _CHUNK, len(P)) - 1]
        w0 = base[inst[lo]]
        w = int(base[last] + size[last] ** 2 - w0)
        at = base[i] - w0
        if col is not None:
            fin = lead[lead_row[i], tr.vy[X]] + tr.vmu[X] * cdim[c] + csuf[c]
            at += fin * size[i] + t - head[i]
        at[na:] += w
        sums_r[:, w0 : w0 + w] += np.bincount(at, wr, 2 * w).reshape(2, w)
        sums_i[:, w0 : w0 + w] += np.bincount(at, wi, 2 * w).reshape(2, w)
    dr, di = sums_r[0], sums_i[0]
    dr -= sums_r[1]
    di -= sums_i[1]
    r0, i0 = dr[base], di[base]
    # a huge F entry overflows a gap to a non-finite one, which fails its
    # bound
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = np.sqrt(r0 * r0 + i0 * i0)
        if many.size:
            diff = np.empty(ms, dtype=complex)
            diff.real, diff.imag = dr, di
            ends = base + size * size
            for i in many.tolist():
                gaps[i] = np.linalg.norm(diff[base[i] : ends[i]])
    return gaps


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


def dual_engine(data: FusionData, psi: SphericalWeight, tol: Tolerance = DEFAULT_TOL) -> Engine:
    """The diagram engine of data with the unique unitary dual functor
    for which psi is spherical, carrying tol for every check on it.

    d_c = sqrt(psi_{s(c)} psi_{t(c)}) FPdim(c), forced by the constraint
    chain d_{s(c)} dim_L(c) = d_c = d_{t(c)} dim_R(c) and the weight
    classification. Cup/cap coefficients are installed from zig-zags taken
    on the returned engine, so the zig-zag and the loop identities hold;
    Engine._cup alone reads them, and Engine.loop reads the loops off them.
    """
    if len(psi.psi) != len(data.units):
        raise ShapeMismatch("need one psi entry per unit summand")
    udf = UdfData(data, psi)
    for c in data.simples:
        ps = psi.of_unit(data, data.s(c))
        pt = psi.of_unit(data, data.t(c))
        udf.dims[c] = float(np.sqrt(ps * pt) * data.fpdim(c))
    chain = worst(
        abs(udf.dims[u] * dim(c) - udf.dims[c])
        for c in data.simples
        for u, dim in ((data.s(c), udf.dim_left), (data.t(c), udf.dim_right))
    )
    if not within(chain, tol.bound()):
        raise ConsistencyError(f"dimension chain residual {chain}")
    eng = Engine(data, udf, tol)
    for c in data.simples:
        beta = float(np.sqrt(udf.dims[c] / udf.dims[data.s(c)]))
        theta = eng.zigzag_scalar(c)
        if not clears(abs(theta), PAIRING_CUT):
            raise InputError(f"degenerate duality pairing for {c}")
        udf.beta[c] = beta
        udf.alpha[c] = 1.0 / (theta * beta)
    return eng


def udf_from_weight(
    data: FusionData, psi: SphericalWeight, tol: Tolerance = DEFAULT_TOL
) -> UdfData:
    """The dual functor of dual_engine, for callers that need no engine."""
    return dual_engine(data, psi, tol).udf


def loop_eval(udf: UdfData, c, side: str) -> float:
    """Engine.loop on a fresh engine, for callers that hold only udf."""
    return Engine(udf.data, udf).loop(c, side)


def renorm_scalar(udf: UdfData, tol: Tolerance = DEFAULT_TOL):
    """The functor-trace renormalization of each component under udf.

    v_i = sum over simples c with s(c) = i of d_c^2 / d_{1_i}, constant in
    i and equal to FPdim(C) psi(id) / k^2; the returned prefactor is the
    reciprocal k^2 / (FPdim(C) psi(id)).
    Returns ({unit: v_i}, {unit: prefactor}).
    """
    data, psi = udf.data, udf.psi
    values = {}
    prefactors = {}
    for units, simples in data.components():
        k = len(units)
        psi_id = sum(psi.of_unit(data, u) for u in units)
        closed = data.fpdim_total(simples) * psi_id / (k * k)
        for i in units:
            v = sum(udf.dims[c] ** 2 for c in simples if data.s(c) == i) / udf.dims[i]
            if not within(abs(v - closed), tol.bound(closed)):
                raise ConsistencyError(
                    f"component value at {i} is {v}, closed form {closed}"
                )
            values[i] = v
            prefactors[i] = 1.0 / closed
    return values, prefactors

