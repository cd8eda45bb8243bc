"""Skeletal unitary multifusion categories.

A category is presented by simple labels, unit summands with a grading
(every simple c satisfies c = 1_{s(c)} (x) c (x) 1_{t(c)}), a dual
involution, fusion multiplicities N_{ab}^c, and unitary F-symbols in
fusion-tree bases. A positive weight psi on the unit summands determines
the unitary dual functor, all quantum dimensions, and the loop values.

dual_engine builds a diagram.Engine together with that dual functor, so a
command builds one engine; udf_from_weight and loop_eval remain for
callers that hold only a UdfData, such as the benchmark, and loop_eval
builds no engine: it reads the cup coefficient (diagram.loop).

Conventions: fusion-tree bases are orthonormal (vertices are isometries),
daggers of tree coefficients are conjugate transposes, and all bending is
mediated by explicit cup/cap coefficients pinned by the loop identities.
F^{abc}_d maps the basis {(e; mu in V(a,b;e), nu in V(e,c;d))} of trees
grouped to the left onto the basis {(f; ka in V(b,c;f), la in V(a,f;d))}
grouped to the right, where V(x,y;z) is the vertex space Hom(z -> x(x)y).
F blocks with a unit argument are required to be identities (strict unit).

N and F are fixed at construction: N, F, grading and dual are read-only
mappings, and F is compiled flat, one read-only array of every stored
entry (FusionData.f_entries) with each F block a read-only view into it.
What they fix lives on the data, and every diagram.Engine on it reads it,
whatever its weight or tolerance: the dense N[a, b, c] with the
strict-unit rules folded in (FusionData.table; n, fusion_products and
every FPdim are read off it), and, on demand, the tree orders
(tree_rows, tree_cols) and block (f_matrix) of each F-move, the
right-comb tree bases of each tensor word at the charges that have trees
(sweep), and the grouped-basis unitaries of diagram.Engine.group_last:
labels, numbers and read-only arrays, never an engine.
validate runs on integer index arrays and float64 batches, with the
arithmetic of scalar loops to the last bit. Non-finite F entries are an
InputError at construction; a non-finite residual that still arises (a
huge finite entry overflows) rejects, without a warning.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .certify import Certificate, bounded, clears, judged, within
from .diagram import Engine, loop
from .numcore import (
    DEFAULT_TOL, ConsistencyError, InputError, ShapeMismatch, Tolerance, frobenius_rows, unitarity_defect, worst,
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
_CHUNK = 2048
# validate's integer problems, by the index of the flag that finds them:
# the dual c* of a simple c, and a stored entry of N
_DUAL_PROBLEMS = (
    "dual not involutive at {}",
    "dual grading mismatch at {}",
    "dual pairing multiplicity wrong at {}",
)
_N_PROBLEMS = ("grading incompatibility in N at {}", "stored N breaks the strict-unit rule at {}")


@dataclass
class FusionData:
    simples: tuple
    units: tuple  # unit summand labels, a subset of simples
    grading: dict  # read-only: label -> (source unit label, target unit label)
    dual: dict  # read-only: label -> label
    N: dict  # read-only: (a, b, c) -> nonnegative int, omitted means 0
    F: dict  # (a, b, c, d) -> read-only view of f_entries, in the canonical tree order

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
        for k in self.N:
            if len(k) != 3 or any(x not in self.index for x in k):
                raise InputError(f"entry with unknown label: {k}")
        # the linear simple index ((a n + b) n + c) n + d of each F key
        n, fkeys = len(self.simples), array("q")
        for k in self.F:
            row = [self.index.get(x, -1) for x in k]
            if len(row) != 4 or -1 in row:
                raise InputError(f"entry with unknown label: {k}")
            a, b, c, d = row
            fkeys.append(((a * n + b) * n + c) * n + d)
        # a whole number below 2**31, so that a product of two of validate's
        # vertex and tree counts fits int64; NaN and infinity fail the range test
        for k, v in self.N.items():
            if not (0 <= v < 2**31 and v == int(v)):
                raise InputError(
                    f"N^{k[0]},{k[1]}_{k[2]} = {v:.3g} is not an integer in [0, 2**31)"
                )
        self.N = MappingProxyType({k: int(v) for k, v in self.N.items() if v})
        self._compile_f(fkeys)
        self.grading = MappingProxyType({c: tuple(self.grading[c]) for c in self.simples})
        self.dual = MappingProxyType(dict(self.dual))
        if not self.units:
            raise InputError("no unit summand")
        self._compile()

    def _compile_f(self, fkeys):
        """F as one read-only flat array, f_entries, of the entries of every
        stored block, row by row in F order, each F[k] a read-only view
        into it: one copy of F, and never the caller's array. A non-finite
        entry is an InputError naming the first such block in F order.
        Kept for validate: the linear simple indices of the stored keys
        (fkeys) in sorted order, and the side of each block (-1 unless it
        is square) and the offset of its entries."""
        mats = [np.asarray(m, dtype=complex) for m in self.F.values()]
        flat = np.concatenate(mats, axis=None) if mats else np.zeros(0, dtype=complex)
        flat.flags.writeable = False
        views, at, sides, i = {}, array("q"), array("q"), 0
        for k, m in zip(self.F, mats):
            views[k] = flat[i : i + m.size].reshape(m.shape)
            at.append(i)
            sides.append(len(m) if m.ndim == 2 and len(m) == m.shape[1] else -1)
            i += m.size
        at = np.frombuffer(at, dtype=np.int64)
        bad = ~np.isfinite(flat)
        if bad.any():
            k = list(self.F)[np.searchsorted(at, bad.argmax(), "right") - 1]
            raise InputError(f"F^{k[0]},{k[1]},{k[2]}_{k[3]} has a non-finite entry")
        self.f_entries, self.F = flat, MappingProxyType(views)
        lin = np.frombuffer(fkeys, dtype=np.int64)
        order = lin.argsort()
        self._f_keys, self._f_at = lin[order], at[order]
        self._f_sides = np.frombuffer(sides, dtype=np.int64)[order]

    def _compile(self):
        """The fusion rules as table[a, b, c] = N_{ab}^c over simple
        indices, with the strict-unit rules in place of any stored entry
        with a unit argument: 1_u (x) x = x when s(x) = s(u), and x (x) 1_u
        = x when t(x) = s(u) for a simple x that is not a unit. The lookups
        of n and fusion_products, and every FPdim, are read off it; the
        components of the units, which the grading fixes, are found here
        too. The index arrays that validate checks are kept as well: the
        source, target and dual of each simple, the unit mask, and (a, b,
        c, m) of each stored entry of N in N order."""
        S, n = self.simples, len(self.simples)
        table = np.zeros((n,) * 3, dtype=int)
        ix = self.index
        stored = [(ix[a], ix[b], ix[c], m) for (a, b, c), m in self.N.items()]
        self._stored_n = np.array(stored, dtype=int).reshape(-1, 4).T
        a, b, c, m = self._stored_n
        table[a, b, c] = m
        self._unit = unit = np.array([c in self.units for c in S])
        self._source = s = np.array([self.index[self.s(c)] for c in S])
        self._target = t = np.array([self.index[self.t(c)] for c in S])
        self._dual = np.array([self.index[self.dual[c]] for c in S])
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
        self._components = self._find_components()
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
                m = self.eye(dim)
            elif m.shape != (dim, dim):
                raise InputError(f"F^{a},{b},{c}_{d} has shape {m.shape}")
            self._blocks[key] = m
        return m

    def eye(self, dim: int) -> np.ndarray:
        """The read-only dim x dim identity, one per size, shared by the F
        blocks and the grouped-basis unitaries."""
        m = self._eyes.get(dim)
        if m is None:
            m = self._eyes[dim] = np.eye(dim, dtype=complex)
            m.flags.writeable = False
        return m

    def is_eye(self, m: np.ndarray) -> bool:
        """Whether m is the shared identity of its size: an is test, so an
        equal copy is not."""
        return self._eyes.get(len(m)) is m

    # --- Frobenius-Perron dimensions ------------------------------------

    def fpdim(self, a) -> float:
        """FPdim(a), the largest singular value of the fusion matrix of a."""
        return self._fpdims[a]

    def fpdim_total(self, component=None) -> float:
        """FPdim(C) = sum of FPdim(c)^2 over the simples of a component."""
        simples = component if component is not None else self.simples
        return float(sum(self.fpdim(c) ** 2 for c in simples))

    # --- indecomposable components --------------------------------------

    def components(self) -> tuple:
        """Connected components of units, linked when some simple c has
        s(c), t(c) in the pair: a tuple of (unit labels, simples), found
        once by _compile."""
        return self._components

    def _find_components(self) -> tuple:
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
        return tuple(out)

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
                # each entry is exactly an [re, im] pair, as to_json writes it
                rows = [[complex(real, imag) for real, imag in row] for row in m]
                F[tuple(k.split(","))] = np.array(rows, dtype=complex)
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

    The integer checks run on index arrays: the dual checks over the
    simples, the grading and strict-unit checks over the stored entries of
    N (one with a unit argument must equal n(a, b, c), the rule put in its
    place), then Frobenius reciprocity on N[a, b, c]; problems are listed
    in that order. The left and right tree counts of every F^{abc}_d must
    agree; both come from the trees that one vertex join lists (_Trees).
    F-unitarity is checked on the blocks that have trees and no unit
    argument: the 1x1 blocks in one array expression that rounds like
    numcore.unitarity_defect, the larger ones by it, one stack per size.
    The pentagon residual is the worst gap of _pentagon_gaps, NaN if any
    gap is NaN (numcore.worst), taken in one reduction.
    Every bound test reads `not (residual <= bound)`, so a NaN residual
    rejects on its axiom.

    The bounds scale with tol.bound(), the bound at unit scale: F-unitarity
    at tol.bound() / F_UNITARITY_DIVISOR (20) and the pentagon at
    tol.bound() * PENTAGON_FACTOR (5), exactly 1e-10 and 1e-8 at the
    default tolerance (2e-9), so a smaller tol never accepts more.
    """
    S, N = data.simples, data.table
    s, t, D, unit = data._source, data._target, data._dual, data._unit
    i = np.arange(len(S))
    # per simple c, the three identities of its dual c*
    dual = np.array([D[D] != i, (s[D] != t) | (t[D] != s), (N[i, D, s] != 1) | (N[D, i, t] != 1)])
    # per stored entry (a, b, c) of N, in N order: its grading, and the
    # strict-unit rule, which construction put in place of an entry with a
    # unit argument
    abc, m = data._stored_n[:3], data._stored_n[3]
    (sa, sb, sc), (ta, tb, tc), (ua, ub, _) = s[abc], t[abc], unit[abc]
    stored = np.array([(ta != sb) | (sc != sa) | (tc != tb), (ua | ub) & (m != N[tuple(abc)])])
    # Frobenius reciprocity: N_{ab}^c = N_{a* c}^b = N_{c b*}^a
    frob = (N != N[D].transpose(0, 2, 1)) | (N != N[:, D].transpose(2, 1, 0))
    problems = []
    if dual.any():
        problems += [_DUAL_PROBLEMS[k].format(S[c]) for c, k in zip(*dual.T.nonzero())]
    if stored.any():
        keys = list(data.N)
        problems += [_N_PROBLEMS[k].format(tuple(keys[e])) for e, k in zip(*stored.T.nonzero())]
    if frob.any():
        problems += [f"Frobenius reciprocity fails at {(S[a], S[b], S[c])}" for a, b, c in np.argwhere(frob).tolist()]
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
    # a huge F entry overflows to a non-finite gap, which fails its bound
    with np.errstate(over="ignore", invalid="ignore"):
        residuals["pentagon"] = float(_pentagon_gaps(blocks).max(initial=0.0))
    checks = [
        ("integer_checks", 0.0, "grading/duality"),
        ("f_unitarity", tol.bound() / F_UNITARITY_DIVISOR, "F-unitarity"),
        ("pentagon", tol.bound() * PENTAGON_FACTOR, "pentagon"),
    ]
    return judged(residuals, checks, details)


class _Blocks:
    """The F blocks that have trees, of one FusionData for one validate
    call, from data.table and FusionData.f_entries.

    The blocks and their trees are those of tr (_Trees). Blocks are taken
    in index order of their (a, b, c, d) up to the first whose left and
    right tree counts differ; a stored plain block of the wrong shape
    before it raises InputError (the first in index order). mismatch is
    that block's (labels, rows, cols), and then nothing more is built, or
    None. Block i has linear index lin[i], indices keys[k][i] (k = 0..3)
    and dims[i] trees, and its entries lie row by row in vals from at[i]:
    the stored block if it is plain[i] (no unit among a, b, c) and stored,
    else the identity, each placed by one scatter."""

    def __init__(self, data: FusionData):
        self.data, S = data, data.simples
        self.tr = tr = _Trees(data.table)
        self.lin = lin = tr.lin
        self.keys = np.unravel_index(lin, (len(S),) * 4)
        x, y, z, _ = self.keys
        self.plain = ~(data._unit[x] | data._unit[y] | data._unit[z])
        dims, cols = tr.dims, tr.cols
        bad = (dims != cols).nonzero()[0]
        stop = bad[0] if bad.size else len(dims)
        # the stored plain blocks before the mismatch, and where F holds them
        fkeys = data._f_keys
        pos = np.searchsorted(fkeys, lin[:stop])
        blk = (self.plain[:stop] & (pos < len(fkeys))).nonzero()[0]
        blk = blk[fkeys[pos[blk]] == lin[blk]]
        pos = pos[blk]
        wrong = (data._f_sides[pos] != dims[blk]).nonzero()[0]
        if wrong.size:
            key = tuple(S[i[blk[wrong[0]]]] for i in self.keys)
            raise InputError("F^{},{},{}_{} has shape {}".format(*key, data.F[key].shape))
        self.mismatch = None
        if bad.size:
            key = tuple(S[i[stop]] for i in self.keys)
            self.mismatch = (key, int(dims[stop]), int(cols[stop]))
            return
        self.dims = dims
        size = dims * dims
        self.at = np.add.accumulate(size) - size
        self.vals = np.zeros(size.sum(), dtype=complex)
        run, j = _runs(dims)
        self.vals[self.at[run] + j * (dims[run] + 1)] = 1.0
        run, j = _runs(size[blk])
        self.vals[self.at[blk][run] + j] = data.f_entries[data._f_at[pos][run] + j]

    def unitarity(self) -> float:
        """Worst unitarity defect of the blocks with no unit argument, NaN
        if any is NaN (numcore.worst)."""
        # conj(z) z - 1 of each 1x1 block, rounded as matmul and norm round
        # it; an overflow gives a non-finite defect, which fails its bound
        z = self.vals[self.at[self.plain & (self.dims == 1)]]
        zr, zi = z.real, z.imag
        with np.errstate(over="ignore", invalid="ignore"):
            dr = zr * zr + zi * zi - 1.0
            di = zr * zi - zi * zr
            out = np.sqrt(dr * dr + di * di).max(initial=0.0)
        larger = self.plain & (self.dims > 1)
        for d in set(self.dims[larger].tolist()):
            at = self.at[larger & (self.dims == d)]
            out = worst((out, unitarity_defect(self.vals[at[:, None] + np.arange(d * d)].reshape(-1, d, d))))
        return float(out)


def _runs(counts: np.ndarray):
    """Runs of the given lengths laid end to end: the run of each position
    and the position within its run."""
    run = np.arange(len(counts)).repeat(counts)
    return run, np.arange(len(run)) - (np.add.accumulate(counts) - counts)[run]


def _times(xr, xi, yr, yi):
    """The complex product x y from float64 parts, rounded like Python's;
    an overflow gives a non-finite part, and so a non-finite gap."""
    return xr * yr - xi * yi, xr * yi + xi * yr


class _Trees:
    """The vertices of a fusion table N, and the trees of every block
    (x, y, z, w) that has any, found by one join.

    A vertex (x, y; z) is one multiplicity index of N[x, y, z], numbered
    in index order: vertex v has x n + y = vxy[v], y = vy[v], z = vz[v],
    index vmu[v] and multiplicity vn[v] = N[x, y, z]. A tree is a pair of
    vertices; the left trees (x, y; e)(e, z; w) and the right trees (y,
    z; f)(x, f; w) of a block are numbered alike, block by block, in
    canonical order (e, mu, nu) and (f, ka, la). Block i, in index order,
    has linear index lin[i], dims[i] left and cols[i] right trees. Left
    tree r is (rv1[r], rv2[r]) of block rblk[r], right tree c (cv3[c],
    cv4[c]).

    tables(vals), once the counts agree, adds the pentagon's lookups:
    row[v1 nv + v2] numbers the left tree (v1, v2), whose entries in vals,
    one per right tree of its block, are in_row[r] (-1 past them), the
    nonzero ones in_row_nz[r]; entry k is in column ecol[k], whose
    vertices are ev3[k] and ev4[k]. finals() numbers the right trees as
    final trees, which only an instance with several start trees needs:
    (col, csuf, cdim), where col[v4 nv + v3] numbers the right tree (v3,
    v4), csuf[c] is the position of right tree c of block (b, c, d, f)
    among the final trees (f3, l3, k3) through f, and cdim[c] is the size
    of its block. Tables are read by take or a 1-d index."""

    def __init__(self, N):
        n = len(N)
        vlin, self.vmu = _runs(N.ravel())
        self.vn = N.ravel()[vlin]
        self.vxy, self.vz = divmod(vlin, n)
        vx, self.vy = divmod(self.vxy, n)
        self.nv = len(vx)

        def join(second, key, head, tail):
            # pair each vertex v with the u of second (sorted by key) at key
            # vz[v]; a stable sort by block, head[v] + tail[u], keeps v, then u, in order
            at = np.searchsorted(key[second], np.arange(n + 1))
            v, j = _runs(np.diff(at)[self.vz])
            u = second[at[self.vz[v]] + j]
            lin = head[v] + tail[u]
            order = lin.argsort(kind="stable")
            return lin[order], v[order], u[order]

        # (e, z; w) after (x, y; e), from the vertices in index order, and
        # (x, f; w) after (y, z; f), from them in (y, x, z, mu) order
        left, self.rv1, self.rv2 = join(np.arange(self.nv), vx, self.vxy * n * n, vlin % (n * n))
        right, self.cv3, self.cv4 = join(self.vy.argsort(kind="stable"), self.vy, self.vxy * n, vx * n**3 + self.vz)
        # the union of the block keys, each key at the start of its run; a stable
        # sort, as in the joins, since np.sort's default pages in 0.25 MB more code
        both = np.sort(np.concatenate((left, right)), kind="stable")
        self.lin = lin = both[np.searchsorted(both, both) == np.arange(len(both))]
        self.dims = np.searchsorted(left, lin, "right") - np.searchsorted(left, lin)
        self.cols = np.searchsorted(right, lin, "right") - np.searchsorted(right, lin)
        self.rblk = np.arange(len(lin)).repeat(self.dims)

    def tables(self, vals):
        nv, dims, rblk = self.nv, self.dims, self.rblk
        self.row = np.full(nv * nv, -1)
        self.row[self.rv1 * nv + self.rv2] = np.arange(len(rblk))
        w = dims.max()
        r, j = _runs(dims[rblk])
        e = np.arange(len(r))
        self.in_row, self.in_row_nz = np.full((2, len(rblk), w), -1)
        at = r * w + j
        self.in_row.ravel()[at] = e
        self.in_row_nz.ravel()[at] = np.where(vals != 0, e, -1)
        self.ecol = (np.add.accumulate(dims) - dims)[rblk[r]] + j
        self.ev3, self.ev4 = self.cv3[self.ecol], self.cv4[self.ecol]

    def finals(self):
        cv3, cv4, nv = self.cv3, self.cv4, self.nv
        col = np.full(nv * nv, -1)
        col[cv4 * nv + cv3] = np.arange(len(cv3))
        # right tree (y, z; f, ka)(x, f; w, la) is number pos = lead + ka
        # N[x, f, w] + la of its block, and final tree lead + la N[y, z, f] + ka
        cblk, pos = _runs(self.cols)
        ka, la = self.vmu[cv3], self.vmu[cv4]
        lead = pos - ka * self.vn[cv4] - la
        return col, lead + la * self.vn[cv3] + ka, self.dims[cblk]

    def entries(self, table, p, q):
        """The source index and the entry of every entry of the left trees
        (p, q) that the table (in_row or in_row_nz) keeps, in order."""
        e = table.take(self.row[p * self.nv + q], axis=0).ravel()
        src = (e >= 0).nonzero()[0]
        return src // table.shape[1], e[src]


def _start_trees(blocks: _Blocks, tr: _Trees, pair: np.ndarray, comp: np.ndarray):
    """The start trees (P, Q, R) = (a, b; e)(e, c; g)(g, d; u) of all
    instances, a vertex P and a left tree (Q, R) of block (e, c, d, u), with
    a, b and c, d composable non-unit pairs (pair[x n + y]) and b, c
    composable; instances in key order, each one's start trees in
    canonical order, and the instance key of each."""
    n = len(blocks.data.simples)
    bx, by, bz, _ = blocks.keys
    P = pair[tr.vxy].nonzero()[0]
    rows = pair[by * n + bz][tr.rblk].nonzero()[0]
    lo = np.searchsorted(bx[tr.rblk[rows]], np.arange(n + 1))
    e = tr.vz[P]
    run, j = _runs(lo[e + 1] - lo[e])
    P, rows = P[run], rows[lo[e][run] + j]
    blk = tr.rblk[rows]
    keep = comp.ravel()[tr.vy[P] * n + by[blk]].nonzero()[0]
    inst = tr.vxy[P] * n**3 + blocks.lin[blk] % n**3
    keep = keep[inst[keep].argsort(kind="stable")]
    rows = rows[keep]
    return P[keep], tr.rv1[rows], tr.rv2[rows], inst[keep]


def _terms(tr: _Trees, vals: np.ndarray, P, Q, R, col):
    """The terms of both paths on the start trees (P, Q, R), path A's
    first, each path's in loop order: the start tree t, the vertex X =
    (a, f2; u) and the right tree c of block (b, c, d, f2) of the final
    tree, the values, real parts then imaginary parts, and the number of
    path A's terms. X and c are None without col (_Trees.finals), which
    numbers the right trees. A zero entry or product ends a term where
    the loop ends it."""
    m = len(P)
    vr, vi = vals.real, vals.imag
    # F^{abc}_g on path A and F^{ecd}_u on path B
    s, e = tr.entries(tr.in_row_nz, np.concatenate((P, Q)), np.concatenate((Q, R)))
    k = np.searchsorted(s, m)
    ta, x1, y1 = s[:k], tr.ev3[e[:k]], tr.ev4[e[:k]]  # y1 = (a, f1; g)
    tb, x4, y4 = s[k:] - m, tr.ev3[e[k:]], tr.ev4[e[k:]]  # x4 = (c, d; h)
    # then F^{a f1 d}_u on path A and F^{abh}_u on path B
    s, e2 = tr.entries(tr.in_row, np.concatenate((y1, P[tb])), np.concatenate((R[ta], y4)))
    e = e[s]
    pr, pi = _times(vr[e], vi[e], vr[e2], vi[e2])
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
        c = np.concatenate((tr.ecol[e3], col[tr.ev3[eb] * tr.nv + x4[sb]]))
    return t, X, c, np.concatenate((ar, pr[k2:], ai, pi[k2:])), len(s3)


def _pentagon_gaps(blocks: _Blocks) -> np.ndarray:
    """The gap of every pentagon instance: the Frobenius-norm gap between
    the two F-move paths from the left comb (((ab)c)d) to the right comb
    (a(b(cd))), on blocks without a tree-count mismatch.

    An instance is a composable (a, b, c, d) without a unit among them and
    a total charge u that some left comb ((ab)c)d reaches. An instance
    with a unit leg is skipped: under the strict-unit identity blocks both
    of its paths reduce to the same single F-move, multiplied by exact
    1.0, so its gap is exactly 0.0.

    All instances are evaluated in one batch, with the arithmetic of a
    scalar loop over them. A tree is a pair of vertices; each F-move looks
    up the row of two adjacent vertices and replaces them by the column of
    each entry. The terms of path A, F^{abc}_g F^{afd}_u F^{bcd}_f, and of
    path B, F^{ecd}_u F^{abh}_u, are gathered as index arrays in chunks of
    start trees that bound the memory. Each product is formed left to
    right from float64 parts, (xr*yr - xi*yi, xr*yi + xi*yr), which rounds
    like Python's complex multiply (numpy's array multiply does not
    always). As in the loop, a zero first F entry or zero product of the
    first two moves ends a term; the later zero terms change no sum.
    np.bincount sums each (final tree, start tree) entry in loop order;
    final trees are numbered only when an instance has more than one
    (_Trees.finals). The gap is the norm of path A minus path B:
    sqrt(dr*dr + di*di) for one entry, and frobenius_rows of a larger
    instance's row-major entries, one stack per size."""
    data = blocks.data
    n = len(data.simples)
    free = ~data._unit
    comp = data._target[:, None] == data._source
    pair = (free[:, None] & free & comp).ravel()
    if not pair.any():
        return np.zeros(0)
    tr = blocks.tr
    tr.tables(blocks.vals)
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
        # among the right trees of block (b, c, d, f2) through f3; lead sums
        # N[a, f, u] T[b, c, d, f] over f < f2 for P = (a, b; e), Q = (e, c;
        # g), R = (g, d; u), T read off the run of blocks (b, c, d, .), for
        # the instances with more than one start tree (the rest read row 0)
        h = head[many]
        p, q, r = P[h], Q[h], R[h]
        key = ((tr.vy[p] * n + tr.vy[q]) * n + tr.vy[r]) * n
        lo = np.searchsorted(blocks.lin, key)
        i, j = _runs(np.searchsorted(blocks.lin, key + n) - lo)
        j += lo[i]
        f = blocks.lin[j] % n
        lead = np.zeros((len(many) + 1, n), dtype=int)
        lead[1 + i, f] = data.table[tr.vxy[p[i]] // n, f, tr.vz[r[i]]] * blocks.dims[j]
        lead[1:] = np.add.accumulate(lead[1:], axis=1) - lead[1:]
        lead_row = np.zeros(len(size), dtype=int)
        lead_row[many] = np.arange(n, lead.size, n)
    # entry (final, start) of an instance is slot base + final size + start,
    # path A's real sums in row 0 of sums, path B's in row 1, and their
    # imaginary sums in rows 2 and 3. Each slot is one start tree's, so the
    # start trees go in chunks, which bound the memory, each adding its
    # window of slots; the other chunks add +0.0
    ms = int(base[-1] + size[-1] ** 2)
    sums = np.zeros((4, ms))
    for lo in range(0, len(P), _CHUNK):
        part = slice(lo, lo + _CHUNK)
        t, X, c, vals, na = _terms(tr, blocks.vals, P[part], Q[part], R[part], col)
        t += lo
        i = inst[t]
        last = inst[min(lo + _CHUNK, len(P)) - 1]
        w0 = base[inst[lo]]
        w = int(base[last] + size[last] ** 2 - w0)
        at = base[i] - w0
        if col is not None:
            fin = lead.ravel()[lead_row[i] + tr.vy[X]] + tr.vmu[X] * cdim[c] + csuf[c]
            at += fin * size[i] + t - head[i]
        at[na:] += w
        sums[:, w0 : w0 + w] += np.bincount(np.concatenate((at, at + 2 * w)), vals, 4 * w).reshape(4, w)
    dr, di = sums[0], sums[2]
    dr -= sums[1]
    di -= sums[3]
    r0, i0 = dr[base], di[base]
    gaps = np.sqrt(r0 * r0 + i0 * i0)
    if many.size:
        diff = np.empty(ms, dtype=complex)
        diff.real, diff.imag = dr, di
        sq = size[many] ** 2
        for k in set(sq.tolist()):
            i = many[sq == k]
            gaps[i] = frobenius_rows(diff[base[i, None] + np.arange(k)])
    return gaps


@dataclass
class UdfData:
    """Unitary dual functor data induced by a spherical weight.

    Quantum dimensions d_c, whose one-sided dims are d_c / d_{s(c)} and
    d_c / d_{t(c)}, and the cup/cap coefficients alpha_c (evaluation),
    beta_c (coevaluation): ev_c = alpha_c * (dual pairing vertex)^dagger,
    coev_c = beta_c * vertex.
    """

    data: FusionData
    psi: SphericalWeight
    dims: dict = field(default_factory=dict)  # label -> d_c
    alpha: dict = field(default_factory=dict)
    beta: dict = field(default_factory=dict)

    def d(self, c) -> float:
        return self.dims[c]


def dual_engine(data: FusionData, psi: SphericalWeight, tol: Tolerance = DEFAULT_TOL) -> Engine:
    """The diagram engine of data with the unique unitary dual functor
    for which psi is spherical, carrying tol for every check on it.

    d_c = sqrt(psi_{s(c)} psi_{t(c)}) FPdim(c), forced by the constraint
    chain d_{s(c)} dim_L(c) = d_c = d_{t(c)} dim_R(c) and the weight
    classification; for equal weights the root is the weight itself, which
    sqrt(psi^2) rounds to unless psi^2 overflows or underflows. Cup/cap
    coefficients are installed from zig-zags taken on the returned engine,
    so the zig-zag and the loop identities hold; diagram._cup alone reads
    them, and diagram.loop the loops. A d_c that is zero, subnormal or not
    finite is an InputError naming c, raised before any division.
    """
    if len(psi.psi) != len(data.units):
        raise ShapeMismatch("need one psi entry per unit summand")
    udf = UdfData(data, psi)
    dims = udf.dims
    # math.sqrt rounds as np.sqrt does
    for c in data.simples:
        p, q = psi.of_unit(data, data.s(c)), psi.of_unit(data, data.t(c))
        d = dims[c] = (p if p == q else math.sqrt(p * q)) * data.fpdim(c)
        if not sys.float_info.min <= d < math.inf:
            raise InputError(f"d_{c} = {d} is zero, subnormal or not finite")
    # d_u dim(c) - d_c, the one-sided dims at u = s(c) and u = t(c)
    chain = worst(abs(dims[u] * (dims[c] / dims[u]) - dims[c]) for c in data.simples for u in data.grading[c])
    if not within(chain, tol.bound()):
        raise ConsistencyError(f"dimension chain residual {chain}")
    eng = Engine(data, udf, tol)
    for c in data.simples:
        beta = math.sqrt(dims[c] / dims[data.s(c)])
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
    """Engine.loop for callers that hold only udf (diagram.loop)."""
    return loop(udf.data, udf, c, side)


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

