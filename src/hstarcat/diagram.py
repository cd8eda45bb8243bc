"""String-diagram engine over a skeletal multifusion category.

Objects are multiplicity vectors over the simples; a tensor word is a
tuple of such vectors. A morphism between words is stored chargewise:
Hom(X -> Y) = (+)_c Hom(c -> Y) (x) Hom(c -> X)^*, with both hom spaces
in their right-comb fusion-tree bases. Tree vertices are isometries, so
composition is blockwise matrix multiplication and the dagger is the
blockwise conjugate transpose.

Right whiskering f (x) id is computed through the grouped-basis unitary
that re-expresses "tree of W fused with one extra strand" trees in the
right-comb basis; that unitary is assembled recursively from one F-symbol
per level. Both whiskers place each block of f by one slice assignment
per run of trees that share their top vertex, since those runs are
contiguous in the grouped and the comb bases; whisker_right_cols and
whisker_left_cols apply a whiskered map at one charge to a few vectors
through the same placements, without forming the whiskered morphism.
Cups and caps carry explicit coefficients alpha_c, beta_c from the
unitary dual functor that the engine is built with (fusion.dual_engine),
read by _cup alone; cups and caps are built by ev_obj and coev_obj only,
loops by _closed_loop.

What the fusion data fixes is read off it, not drawn. F blocks with a
unit argument are identities (the strict-unit rule of fusion), so a cup
or cap whiskered by strands keeps its pairing tree with coefficient 1:
the evaluation and coevaluation of a direct sum are placed on the comb
trees of their copies, both closed loops of an endomorphism f are sums
over the simples x of |alpha_x|^2 tr(f_x) or |beta_x|^2 tr(f_x), and the
zig-zag of a simple c is one entry of F^{c, dual(c), c}_c. The same rule
makes the unit itself cost nothing: for U a sum of distinct units, the
trees of W (x) U at a charge c with t(c) in U are those of W, in the same
order, so f (x) id_U keeps f's blocks at those charges and both unitors
are identity blocks; neither meets group_last.

N and F are fixed when the FusionData is built, and what they fix lives
on the data, shared by every engine on it whatever its dual functor or
tolerance: the comb tree bases, swept once per word for every charge and
stored only at the charges that have trees (FusionData.sweep; basis and
basis_index read any other charge as one shared, immutable empty value),
the F blocks (FusionData.f_matrix) and the grouped-basis unitaries, which
group_last builds into the data's table. Only what reads the dual functor
or the tolerance, the derived values, stays on the engine.

Engine.mor is the one door that checks block shapes; the engine's own
operations build their results without re-checking them. Both drop a
block only when every entry equals zero.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .numcore import DEFAULT_TOL, InputError, ShapeMismatch

_UNBUILT = object()  # Engine.derived's mark for a key not built yet
_SERIAL = itertools.count()  # Engine.intern's numbers, one count for all engines
# what basis and basis_index read at a charge outside a word's support,
# which the data's tables do not key: one immutable value each, shared by
# every engine
_NO_TREES = ()
_NO_INDEX = MappingProxyType({})


@dataclass
class Mor:
    """Chargewise matrix presentation of a morphism dom -> cod."""

    dom: tuple
    cod: tuple
    blocks: dict  # simple label -> (dim Hom(c->cod), dim Hom(c->dom)) matrix


def _nonzero(blocks) -> dict:
    """The blocks of a morphism without those whose every entry compares
    equal to zero; a block that holds a NaN is kept."""
    return {c: m for c, m in blocks.items() if np.count_nonzero(m)}


class Engine:
    """Morphisms over data under the dual functor udf, and the tolerance
    tol that every check on them reads; fusion.dual_engine builds it with
    a command's tolerance."""

    def __init__(self, data, udf, tol=DEFAULT_TOL):
        self.data = data
        self.udf = udf
        self.tol = tol
        # the data's comb tree tables, shared with every engine on it
        # (FusionData.sweep); held here so that a hit is one dict lookup
        self._bases = data.comb_bases
        self._indices = data.comb_indices
        self._supports = data.comb_supports
        self._group = data.grouped_unitaries
        self._simple = {}
        self._derived = {}
        self._interned = {}
        self._is_unit = tuple(c in data.units for c in data.simples)

    # --- objects and words ----------------------------------------------

    def obj(self, mults):
        """Multiplicity vector over the simples, from a dict or sequence."""
        if isinstance(mults, dict):
            for k in mults:
                if k not in self.data.index:
                    raise KeyError(f"unknown simple {k}")
            return tuple(int(mults.get(c, 0)) for c in self.data.simples)
        out = tuple(int(m) for m in mults)
        if len(out) != len(self.data.simples):
            raise ShapeMismatch("one multiplicity per simple required")
        return out

    def simple_obj(self, c):
        o = self._simple.get(c)
        if o is None:
            o = self._simple[c] = self.obj({c: 1})
        return o

    def dual_obj(self, O):
        out = [0] * len(self.data.simples)
        for i, c in enumerate(self.data.simples):
            out[self.data.index[self.data.dual[c]]] += O[i]
        return tuple(out)

    def mult(self, O, x) -> int:
        return O[self.data.index[x]]

    def is_unit_sum(self, O) -> bool:
        """Whether O is a sum of distinct unit objects 1_u; the zero object
        is the empty sum."""
        return all(m == 0 or (m == 1 and u) for m, u in zip(O, self._is_unit))

    # --- tree bases ------------------------------------------------------

    def basis(self, word, c):
        """Right-comb tree basis of Hom(c -> word), from the data's tables
        (FusionData.sweep), or the shared empty _NO_TREES at a charge
        outside the support of word. Entries for nonempty words are (x,
        alpha, e, v, sub_index): strand simple x, copy alpha, inner charge
        e, vertex v in V(x, e; c), tree index into basis(word[1:], e)."""
        out = self._bases.get((word, c))
        if out is None:
            if word in self._supports:
                return _NO_TREES
            self.data.sweep(word)
            out = self._bases.get((word, c), _NO_TREES)
        return out

    def basis_index(self, word, c):
        """Each tree of basis(word, c) mapped to its position, or the shared
        empty _NO_INDEX at a charge outside the support of word."""
        out = self._indices.get((word, c))
        if out is None:
            if word in self._supports:
                return _NO_INDEX
            self.data.sweep(word)
            out = self._indices.get((word, c), _NO_INDEX)
        return out

    def support(self, word):
        out = self._supports.get(word)
        if out is None:
            self.data.sweep(word)
            out = self._supports[word]
        return out

    def hom_dim(self, X, Y) -> int:
        return sum(
            len(self.basis(Y, c)) * len(self.basis(X, c)) for c in self.support(X)
        )

    # --- morphism constructors -------------------------------------------

    def block(self, f: Mor, c) -> np.ndarray:
        b = f.blocks.get(c)
        if b is None:
            return np.zeros((len(self.basis(f.cod, c)), len(self.basis(f.dom, c))), dtype=complex)
        return b

    def mor(self, dom, cod, blocks) -> Mor:
        """The shape-checked door for morphisms built outside the engine."""
        out = {}
        for c, m in blocks.items():
            m = out[c] = np.asarray(m, dtype=complex)
            shape = (len(self.basis(cod, c)), len(self.basis(dom, c)))
            if m.shape != shape:
                raise ShapeMismatch(f"block {c}: shape {m.shape}, expected {shape}")
        return Mor(dom, cod, _nonzero(out))

    def identity(self, word) -> Mor:
        return Mor(
            word,
            word,
            {c: np.eye(len(self.basis(word, c)), dtype=complex) for c in self.support(word)},
        )

    def zero(self, dom, cod) -> Mor:
        return Mor(dom, cod, {})

    def random_mor(self, dom, cod, rng) -> Mor:
        blocks = {}
        for c in self.support(dom):
            nr, nc = len(self.basis(cod, c)), len(self.basis(dom, c))
            if nr and nc:
                blocks[c] = rng.standard_normal((nr, nc)) + 1j * rng.standard_normal((nr, nc))
        return Mor(dom, cod, blocks)

    # --- dagger category operations --------------------------------------

    def compose(self, f: Mor, g: Mor) -> Mor:
        """f o g."""
        if g.cod != f.dom:
            raise ShapeMismatch("composition word mismatch")
        blocks = {}
        for c, gb in g.blocks.items():
            fb = f.blocks.get(c)
            if fb is not None:
                blocks[c] = fb @ gb
        return Mor(g.dom, f.cod, _nonzero(blocks))

    def dagger(self, f: Mor) -> Mor:
        return Mor(f.cod, f.dom, {c: b.conj().T for c, b in f.blocks.items()})

    def add(self, f: Mor, g: Mor) -> Mor:
        if f.dom != g.dom or f.cod != g.cod:
            raise ShapeMismatch("sum word mismatch")
        blocks = dict(f.blocks)
        for c, b in g.blocks.items():
            blocks[c] = blocks.get(c, 0) + b
        return Mor(f.dom, f.cod, _nonzero(blocks))

    def scale(self, z, f: Mor) -> Mor:
        return Mor(f.dom, f.cod, _nonzero({c: z * b for c, b in f.blocks.items()}))

    def sub(self, f: Mor, g: Mor) -> Mor:
        return self.add(f, self.scale(-1.0, g))

    def l2_norm(self, f: Mor) -> float:
        return float(np.sqrt(sum(np.linalg.norm(b) ** 2 for b in f.blocks.values())))

    def residual(self, f: Mor, g: Mor) -> float:
        return self.l2_norm(self.sub(f, g))

    # --- whiskering -------------------------------------------------------

    def _grouped(self, W, O, c):
        """Basis of Hom(c -> W (x) O) grouped as vertex V(d, y; c) on a tree
        of W at charge d, one strand y from O: entries (y, beta, d, u, ti)."""
        out = []
        for y in self.data.simples:
            if self.mult(O, y) == 0:
                continue
            for beta in range(self.mult(O, y)):
                for d in self.support(W):
                    for u in range(self.data.n(d, y, c)):
                        for ti in range(len(self.basis(W, d))):
                            out.append((y, beta, d, u, ti))
        return out

    def group_last(self, W, O, c):
        """Unitary from the grouped basis of Hom(c -> W (x) O) to the
        right-comb basis of the concatenated word. Returns (grouped,
        index dict, read-only matrix), kept in data.grouped_unitaries for
        every engine. Column (y, beta, d, u, ti), with ti the tree (x1,
        a1, e1, v1, si) of W at d, is the F-move of its top two vertices,
        sum over (g, t, r) of F^{x1 e1 y}_c[(d, v1, u), (g, t, r)] times
        the column (y, beta, e1, t, si) of group_last(W[1:], O, g) placed
        on the comb trees (x1, a1, g, r, .), which are contiguous: one
        slice per F coefficient."""
        key = (W, O, c)
        hit = self._group.get(key)
        if hit is not None:
            return hit
        target = W + (O,)
        comb_idx = self.basis_index(target, c)
        grouped = self._grouped(W, O, c)
        gidx = {g: i for i, g in enumerate(grouped)}
        U = np.zeros((len(self.basis(target, c)), len(grouped)), dtype=complex)
        if not W:
            for col, (y, beta, d, u, ti) in enumerate(grouped):
                # d is the unit s(y); the vertex is the strict unitor
                tgt = (y, beta, self.data.t(y), 0, 0)
                U[comb_idx[tgt], col] = 1.0
        else:
            Wp, data = W[1:], self.data
            for col, (y, beta, d, u, ti) in enumerate(grouped):
                x1, a1, e1, v1, si = self.basis(W, d)[ti]
                k = (x1, e1, y, c)
                row = data.f_matrix(*k)[data.tree_rows(*k)[(d, v1, u)], :]
                for j, (g, t, r) in enumerate(data.tree_cols(*k)):
                    coeff = row[j]
                    if coeff == 0:
                        continue
                    gp, gp_idx, Up = self.group_last(Wp, O, g)
                    # the comb trees (x1, a1, g, r, .) are contiguous
                    i = comb_idx[(x1, a1, g, r, 0)]
                    U[i : i + Up.shape[0], col] += coeff * Up[:, gp_idx[(y, beta, e1, t, si)]]
        U.flags.writeable = False
        self._group[key] = (grouped, gidx, U)
        return self._group[key]

    def _right_parts(self, f: Mor, O, c):
        """(UX, M, UY) with (f (x) id_O)_c = UY M UX^dag: in the grouped
        bases the trees of one group (y, beta, d, u) are contiguous, so each
        block f_d lands in one rectangle of M per group."""
        gX, _, UX = self.group_last(f.dom, O, c)
        _, gYi, UY = self.group_last(f.cod, O, c)
        M = np.zeros((UY.shape[1], UX.shape[1]), dtype=complex)
        for j, (y, beta, d, u, ti) in enumerate(gX):
            fb = f.blocks.get(d)
            if ti == 0 and fb is not None:
                i = gYi[(y, beta, d, u, 0)]
                M[i : i + fb.shape[0], j : j + fb.shape[1]] = fb
        return UX, M, UY

    def whisker_right_obj(self, f: Mor, O) -> Mor:
        """f (x) id_O for a single object O, one block UY M UX^dag per
        charge (_right_parts). For O a sum of distinct units the result is
        f's blocks at the charges c with t(c) in O (strict unit)."""
        X, Y = f.dom, f.cod
        # charges in the order of the simples (as support lists them), so
        # that the block order, and with it every later sum over blocks,
        # does not depend on hashing
        if self.is_unit_sum(O):
            blocks = {c: f.blocks[c] for c in self.support(X + (O,)) if c in f.blocks}
            return Mor(X + (O,), Y + (O,), blocks)
        blocks = {}
        cod_support = self.support(Y + (O,))
        for c in self.support(X + (O,)):
            if c in cod_support:
                UX, M, UY = self._right_parts(f, O, c)
                blocks[c] = UY @ M @ UX.conj().T
        return Mor(X + (O,), Y + (O,), _nonzero(blocks))

    def whisker_right_cols(self, f: Mor, O, c, v) -> np.ndarray:
        """(f (x) id_O)_c v for columns v in the comb basis of f.dom + (O,)
        at charge c, as UY (M (UX^dag v)): no block of f (x) id_O is
        formed."""
        cod = f.cod + (O,)
        if c in self.support(cod):
            if not self.is_unit_sum(O):
                UX, M, UY = self._right_parts(f, O, c)
                return UY @ (M @ (UX.conj().T @ v))
            fb = f.blocks.get(c)
            if fb is not None:
                return fb @ v
        return np.zeros((len(self.basis(cod, c)),) + v.shape[1:], dtype=complex)

    def _left_block(self, O, f: Mor, c) -> np.ndarray:
        """(id_O (x) f)_c: each block f_e lands in one rectangle per run of
        trees (x, alpha, e, v) of the comb basis."""
        cod_idx = self.basis_index((O,) + f.cod, c)
        dom_basis = self.basis((O,) + f.dom, c)
        M = np.zeros((len(cod_idx), len(dom_basis)), dtype=complex)
        for j, (x, alpha, e, v, ti) in enumerate(dom_basis):
            fb = f.blocks.get(e)
            if ti == 0 and fb is not None:
                i = cod_idx[(x, alpha, e, v, 0)]
                M[i : i + fb.shape[0], j : j + fb.shape[1]] = fb
        return M

    def whisker_left_obj(self, O, f: Mor) -> Mor:
        """id_O (x) f, one block per charge (_left_block)."""
        dom, cod = (O,) + f.dom, (O,) + f.cod
        blocks = {c: self._left_block(O, f, c) for c in self.support(dom)}
        return Mor(dom, cod, _nonzero(blocks))

    def whisker_left_cols(self, O, f: Mor, c, v) -> np.ndarray:
        """(id_O (x) f)_c v for columns v in the comb basis of (O,) + f.dom
        at charge c; only the block at c is formed."""
        return self._left_block(O, f, c) @ v

    def whisker_right(self, f: Mor, word) -> Mor:
        for O in word:
            f = self.whisker_right_obj(f, O)
        return f

    def whisker_left(self, word, f: Mor) -> Mor:
        for O in reversed(word):
            f = self.whisker_left_obj(O, f)
        return f

    def tensor(self, f: Mor, g: Mor) -> Mor:
        return self.compose(self.whisker_left(f.cod, g), self.whisker_right(f, g.dom))

    def _unitor(self, U, word, dom, side) -> Mor:
        """dom -> word for dom = (U,) + word or word + (U,), U a sum of
        distinct units: the trees of dom at a charge c are those of word,
        in the same order (strict unit), so every block is an identity;
        built once per (side, U, word)."""

        def build():
            if not self.is_unit_sum(U):
                raise InputError(f"the {side} unitor needs a sum of distinct units, got {U}")
            eyes = {c: np.eye(len(self.basis(word, c)), dtype=complex) for c in self.support(dom)}
            return Mor(dom, word, eyes)

        return self.derived((f"{side}_unitor", U, word), build)

    def left_unitor(self, U, word) -> Mor:
        """(U, word) -> (word) for U a sum of distinct unit objects 1_u;
        InputError for any other U."""
        return self._unitor(U, word, (U,) + word, "left")

    def right_unitor(self, word, U) -> Mor:
        """(word, U) -> (word) for U a sum of distinct unit objects 1_u;
        InputError for any other U."""
        return self._unitor(U, word, word + (U,), "right")

    def derived(self, key, build):
        """build(), made once per engine and key: a value fixed by the data
        alone, such as a unitor or a ladder tensor. Keys are values, never
        id(). Callers only read. The key is hashed once on a hit, as Python
        caches no tuple's hash; ladder keys are a name and interned numbers
        (intern), so theirs is cheap."""
        value = self._derived.get(key, _UNBUILT)
        if value is _UNBUILT:
            value = self._derived[key] = build()
        return value

    def intern(self, key) -> int:
        """A number for the value key: the same for equal keys on this
        engine, and one no other key on any engine gets, as one count runs
        across all engines. A caller hashes its key once and then keys by
        the number, whose hash is free."""
        n = self._interned.get(key)
        if n is None:
            n = self._interned[key] = next(_SERIAL)
        return n

    # --- fusing a word into a single object -------------------------------

    def fuse(self, word):
        """(O, u) with u: word -> (O,) unitary; O[c] = dim Hom(c -> word).

        The comb tree basis is itself the identification, so every block
        of u is an identity matrix in the canonical orders.
        """
        O = tuple(len(self.basis(word, c)) for c in self.data.simples)
        blocks = {
            c: np.eye(len(self.basis(word, c)), dtype=complex)
            for c in self.support(word)
        }
        return O, self.mor(word, (O,), blocks)

    # --- inclusions, cups, caps ------------------------------------------

    def include(self, O, x, alpha) -> Mor:
        """Isometry (x,) -> (O,) onto copy alpha of the simple x."""
        c = x
        idx = self.basis_index((O,), c)[(x, alpha, self.data.t(x), 0, 0)]
        m = np.zeros((len(self.basis((O,), c)), 1), dtype=complex)
        m[idx, 0] = 1.0
        return self.mor((self.simple_obj(x),), (O,), {c: m})

    def _pairing(self, a, b, u):
        """Check that Hom(1_u -> a (x) b) is the one pairing tree."""
        if self.data.n(a, b, u) != 1:
            raise InputError(f"the pairing of {a} and {b} at {u} is not one tree")

    def zigzag_scalar(self, c) -> complex:
        """(id_c (x) e)(k (x) id_c) = theta_c id_c for the bare pairing
        trees k of (c, dual(c)) and e^dag of (dual(c), c), read off the
        data: theta_c = F^{c, dual(c), c}_c[(s(c), 0, 0), (t(c), 0, 0)].
        Whiskering the coevaluation tree by c regroups it through that F
        block onto the comb trees (c, 0, g, r, .), and the evaluation
        keeps only g = t(c); the F blocks that move the inner pairing tree
        have a unit argument and are identities by the strict-unit rule."""
        data, cb = self.data, self.data.dual[c]
        s, t = data.s(c), data.t(c)
        self._pairing(c, cb, s)
        self._pairing(cb, c, t)
        k = (c, cb, c, c)
        row, col = data.tree_rows(*k)[(s, 0, 0)], data.tree_cols(*k)[(t, 0, 0)]
        return complex(data.f_matrix(*k)[row, col])

    def _cup(self, x, ev: bool):
        """(a, b, u, z) of the evaluation (ev) or coevaluation of the
        simple x: its pairing tree of (a, b) = (dual(x), x) at u = t(x)
        with coefficient alpha_x, or of (x, dual(x)) at u = s(x) with
        beta_x; the pairing is checked to be one tree."""
        xb = self.data.dual[x]
        if ev:
            a, b, u, z = xb, x, self.data.t(x), self.udf.alpha[x]
        else:
            a, b, u, z = x, xb, self.data.s(x), self.udf.beta[x]
        self._pairing(a, b, u)
        return a, b, u, z

    def _pairings(self, O, word, ev: bool) -> dict:
        """Per unit u, the comb coefficients at charge u of the sum over
        the copies (x, alpha) in O of the evaluation (ev) or coevaluation
        of x: alpha_x or beta_x on the pairing tree (a, alpha, b, 0, alpha)
        of word, with (a, b) = (dual(x), x) for ev and (x, dual(x)) for
        coev, and zero elsewhere."""
        blocks = {}
        for x in self.data.simples:
            n = self.mult(O, x)
            if not n:
                continue
            a, b, u, z = self._cup(x, ev)
            idx = self.basis_index(word, u)
            v = blocks.get(u)
            if v is None:
                v = blocks[u] = np.zeros(len(idx), dtype=complex)
            for alpha in range(n):
                # added to zero, as the terms of a sum are: a part of z that
                # is -0.0 reads +0.0
                v[idx[(a, alpha, b, 0, alpha)]] += z
        return blocks

    def ev_obj(self, O) -> Mor:
        """dual(O) (x) O -> unit: the direct sum of the evaluations of the
        simples, pairing copy alpha of dual(x) with copy alpha of x. Its
        1 x n block at 1_{t(x)} holds alpha_x at the pairing tree
        (dual(x), alpha, x, 0, alpha) of each copy and zeros elsewhere:
        the inclusions of the two copies carry that tree, and no other,
        onto the pairing tree of (dual(x), x) with coefficient 1, since
        whiskering an inclusion by a strand meets only F blocks with a
        unit argument, which are identities (the strict-unit rule of
        fusion). Built anew on each call and never kept in derived, as it
        reads the udf, which callers may change."""
        word = (self.dual_obj(O), O)
        blocks = {u: v[None, :] for u, v in self._pairings(O, word, True).items()}
        return Mor(word, (), _nonzero(blocks))

    def coev_obj(self, O) -> Mor:
        """unit -> O (x) dual(O): the direct sum of the coevaluations of the
        simples. Its n x 1 block at 1_{s(x)} holds beta_x at the pairing
        tree (x, alpha, dual(x), 0, alpha) of each copy and zeros
        elsewhere, by the strict-unit rule as for ev_obj; built anew on
        each call, as ev_obj is."""
        word = (O, self.dual_obj(O))
        blocks = {u: v[:, None] for u, v in self._pairings(O, word, False).items()}
        return Mor((), word, _nonzero(blocks))

    # --- traces -----------------------------------------------------------

    def categorical_trace(self, f: Mor) -> complex:
        """Tr(f) = sum_c d_c tr(f_c) for an endomorphism of a word."""
        if f.dom != f.cod:
            raise ShapeMismatch("trace of a non-endomorphism")
        return complex(sum(self.udf.d(c) * np.trace(b) for c, b in f.blocks.items()))

    def loop(self, c, side: str) -> float:
        """The closed loop of id_c on the 1_{s(c)} sheet (side 'L') or the
        1_{t(c)} sheet (side 'R'): |beta_c|^2 or |alpha_c|^2."""
        O = self.simple_obj(c)
        if side not in ("L", "R"):
            raise InputError("side must be 'L' or 'R'")
        # id_c on its one tree: identity((O,)) would sweep the word's trees
        z = self._closed_loop(Mor((O,), (O,), {c: np.eye(1, dtype=complex)}), side == "R")
        unit = self.data.t(c) if side == "R" else self.data.s(c)
        return float(self.unit_component(z, unit).real)

    def _closed_loop(self, f: Mor, ev: bool) -> Mor:
        """Per unit u, the sum over the simples x in O of |z_x|^2 tr(f_x),
        with (u, z_x) = (t(x), alpha_x) for ev and (s(x), beta_x) else."""
        (O,) = f.dom
        if f.cod != f.dom:
            raise ShapeMismatch("trace of a non-endomorphism")
        sums = {}
        for x in self.data.simples:
            if not self.mult(O, x):
                continue
            _, _, u, z = self._cup(x, ev)
            fb = f.blocks.get(x)
            term = abs(z) ** 2 * np.trace(fb) if fb is not None else 0.0
            sums[u] = sums.get(u, 0.0) + term
        blocks = {u: np.full((1, 1), v, dtype=complex) for u, v in sums.items()}
        return Mor((), (), _nonzero(blocks))

    def trace_right(self, f: Mor) -> Mor:
        """Right closed loop coev_O^dagger (f (x) id_dual(O)) coev_O of f in
        End((O,)), as an endo of the unit: at 1_u, the sum over the simples
        x with s(x) = u of |beta_x|^2 tr(f_x). Read off f's blocks: the
        coevaluation puts beta_x on the pairing tree of each copy of x,
        and the grouped tree of f (x) id meets it through F^{x, t(x),
        dual(x)} blocks, which have a unit argument and are identities by
        the strict-unit rule, so copy alpha pairs with copy alpha alone."""
        return self._closed_loop(f, False)

    def trace_left(self, f: Mor) -> Mor:
        """Left closed loop ev_O (id_dual(O) (x) f) ev_O^dagger of f in
        End((O,)), as an endo of the unit: at 1_u, the sum over the simples
        x with t(x) = u of |alpha_x|^2 tr(f_x), read off f's blocks as for
        trace_right; left whiskering places f_x on the pairing trees of x
        with no F block at all."""
        return self._closed_loop(f, True)

    def unit_component(self, z: Mor, u) -> complex:
        if z.dom != () or z.cod != ():
            raise ShapeMismatch("expected an endomorphism of the unit")
        b = z.blocks.get(u)
        return complex(b[0, 0]) if b is not None else 0.0

    def psi_of_unit_endo(self, z: Mor) -> complex:
        """psi applied to an endomorphism of the tensor unit."""
        psi = self.udf.psi
        return complex(
            sum(
                psi.of_unit(self.data, u) * self.unit_component(z, u)
                for u in self.data.units
            )
        )

    # --- hom spaces as inner product spaces -------------------------------

    def hom_basis(self, X, Y):
        """Elementary-matrix basis of Hom(X -> Y), canonical charge order."""
        out = []
        for c in self.support(X):
            nr, nc = len(self.basis(Y, c)), len(self.basis(X, c))
            for i in range(nr):
                for j in range(nc):
                    m = np.zeros((nr, nc), dtype=complex)
                    m[i, j] = 1.0
                    out.append(self.mor(X, Y, {c: m}))
        return out

    def to_vector(self, f: Mor) -> np.ndarray:
        parts = []
        for c in self.support(f.dom):
            parts.append(self.block(f, c).reshape(-1))
        return np.concatenate(parts) if parts else np.zeros(0, dtype=complex)

    def from_vector(self, X, Y, v) -> Mor:
        blocks = {}
        pos = 0
        for c in self.support(X):
            nr, nc = len(self.basis(Y, c)), len(self.basis(X, c))
            blocks[c] = np.asarray(v[pos : pos + nr * nc]).reshape(nr, nc)
            pos += nr * nc
        return self.mor(X, Y, blocks)
