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
whisker_left_cols apply a whiskered map at one charge to a list of
column blocks through the same placements, made once for the list, with
each product kept to the shape of its block and no whiskered morphism
formed.
The placements take blocks with a leading stack axis as well, so that
elementary_images whiskers all the elementary maps of a hom space at one
charge in one pass. A regrouping unitary that is the identity is the
data's shared identity, and the right whiskers skip their product with
it.
Cups and caps carry explicit coefficients alpha_c, beta_c from the
unitary dual functor that the engine is built with (fusion.dual_engine),
read by _cup alone; cups and caps are built by ev_obj and coev_obj only,
the closed loops of a morphism by _closed_loop, which reads the traces of
its blocks, and the loop of a simple is read off its cup coefficient
(loop, which needs no engine).

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
are identity blocks; neither meets group_last. Every identity block, of
identity, the unitors and fuse, is the data's one read-only identity of
its size (FusionData.eye), and nothing writes into a block in place.

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
block only when every entry equals zero. Norms are numcore.frobenius,
np.linalg.norm's arithmetic without its wrapper, and residual takes
the norm of f - g block by block, with no difference morphism formed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .numcore import DEFAULT_TOL, InputError, ShapeMismatch, frobenius

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


def _stack(f: Mor) -> tuple:
    """The leading stack axes of f's blocks: () for one morphism, (K,) for
    a stack of K morphisms that share dom and cod (elementary_images)."""
    for b in f.blocks.values():
        return b.shape[:-2]
    return ()


def _nonzero(blocks) -> dict:
    """The blocks of a morphism without those whose every entry compares
    equal to zero; a block that holds a NaN is kept."""
    return {c: m for c, m in blocks.items() if np.count_nonzero(m)}


def _pairing(data, a, b, u):
    """Check that Hom(1_u -> a (x) b) is the one pairing tree."""
    if data.n(a, b, u) != 1:
        raise InputError(f"the pairing of {a} and {b} at {u} is not one tree")


def _cup(data, udf, x, ev: bool):
    """(a, b, u, z) of the evaluation (ev) or coevaluation of the simple x
    under udf: its pairing tree of (a, b) = (dual(x), x) at u = t(x) with
    coefficient alpha_x, or of (x, dual(x)) at u = s(x) with beta_x; the
    pairing is checked to be one tree."""
    xb = data.dual[x]
    if ev:
        a, b, u, z = xb, x, data.t(x), udf.alpha[x]
    else:
        a, b, u, z = x, xb, data.s(x), udf.beta[x]
    _pairing(data, a, b, u)
    return a, b, u, z


def loop(data, udf, c, side: str) -> float:
    """The closed loop of id_c on the 1_{s(c)} sheet (side 'L') or the
    1_{t(c)} sheet (side 'R') under udf: |beta_c|^2 or |alpha_c|^2, read
    off the coefficient of the cup (_cup), which is what _closed_loop of
    id_c gives there, to the last bit, since tr(id_c) = 1."""
    if c not in data.index:
        raise KeyError(f"unknown simple {c}")
    if side not in ("L", "R"):
        raise InputError("side must be 'L' or 'R'")
    _, _, _, z = _cup(data, udf, c, side == "R")
    return float(abs(z) ** 2)


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
        self._unit_sums = {}

    # --- objects and words ----------------------------------------------

    def obj(self, mults):
        """Multiplicity vector over the simples, from a dict or sequence;
        InputError for a multiplicity that is not a nonnegative whole
        number (NaN and infinity fail the range test)."""
        if isinstance(mults, dict):
            index = self.data.index
            out = [0] * len(index)
            for k, m in mults.items():
                if k not in index:
                    raise KeyError(f"unknown simple {k}")
                out[index[k]] = m
        else:
            out = list(mults)
            if len(out) != len(self.data.simples):
                raise ShapeMismatch("one multiplicity per simple required")
        if not all(0 <= m < math.inf and m == int(m) for m in out):
            raise InputError(f"multiplicities must be nonnegative whole numbers, not {out}")
        return tuple(int(m) for m in out)

    def simple_obj(self, c):
        o = self._simple.get(c)
        if o is None:
            o = self._simple[c] = self.obj({c: 1})
        return o

    def dual_obj(self, O):
        data = self.data
        out = [0] * len(data.simples)
        for c, m in zip(data.simples, O):
            if m:
                out[data.index[data.dual[c]]] += m
        return tuple(out)

    def mult(self, O, x) -> int:
        return O[self.data.index[x]]

    def is_unit_sum(self, O) -> bool:
        """Whether O is a sum of distinct unit objects 1_u; the zero object
        is the empty sum. Kept per object, as every right whisker asks."""
        out = self._unit_sums.get(O)
        if out is None:
            out = self._unit_sums[O] = all(m == 0 or (m == 1 and u) for m, u in zip(O, self._is_unit))
        return out

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
        eye = self.data.eye
        return Mor(word, word, {c: eye(len(self.basis(word, c))) for c in self.support(word)})

    def zero(self, dom, cod) -> Mor:
        return Mor(dom, cod, {})

    def random_mor(self, dom, cod, rng) -> Mor:
        """Normal real and imaginary parts, from one draw that holds, per
        charge in order, the real block and then the imaginary block: the
        stream of two draws per charge."""
        shapes, size = [], 0
        for c in self.support(dom):
            nr, nc = len(self.basis(cod, c)), len(self.basis(dom, c))
            if nr and nc:
                shapes.append((c, nr, nc))
                size += 2 * nr * nc
        d = rng.standard_normal(size)
        di, end, blocks = 1j * d, 0, {}
        for c, nr, nc in shapes:
            k = nr * nc
            blocks[c] = d[end : end + k].reshape(nr, nc) + di[end + k : end + 2 * k].reshape(nr, nc)
            end += 2 * k
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
                m = fb @ gb
                if np.count_nonzero(m):
                    blocks[c] = m
        return Mor(g.dom, f.cod, blocks)

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
        return float(np.sqrt(sum(frobenius(b) ** 2 for b in f.blocks.values())))

    def residual(self, f: Mor, g: Mor) -> float:
        """l2_norm(sub(f, g)), in one pass over the blocks and with no Mor
        formed: f_c - g_c, f_c or g_c in the order of sub's blocks, f's
        charges and then g's others. The same value to the last bit for
        finite entries; an infinite entry of g reads inf here, where sub's
        scale by -1.0 can make it NaN, and either fails a finite bound."""
        if f.dom != g.dom or f.cod != g.cod:
            raise ShapeMismatch("sum word mismatch")
        fbs, gbs = f.blocks, g.blocks
        total = sum(frobenius(b - gbs[c] if c in gbs else b) ** 2 for c, b in fbs.items())
        total = sum((frobenius(b) ** 2 for c, b in gbs.items() if c not in fbs), total)
        return float(np.sqrt(total))

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
        every engine; an identity is the data's shared one of its size
        (FusionData.eye). Column (y, beta, d, u, ti), with ti the tree (x1,
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
        n = len(U)
        if U.shape[1] == n and U.diagonal().tolist() == [1] * n and np.count_nonzero(U) == n:
            # the identity: the right whiskers skip their product with it
            U = self.data.eye(n)
        U.flags.writeable = False
        self._group[key] = (grouped, gidx, U)
        return self._group[key]

    def _right_parts(self, f: Mor, O, c):
        """(UX, M, UY) with (f (x) id_O)_c = UY M UX^dag: in the grouped
        bases the trees of one group (y, beta, d, u) are contiguous, so each
        block f_d lands in one rectangle of M per group. Blocks with a
        leading stack axis give M that axis."""
        gX, _, UX = self.group_last(f.dom, O, c)
        _, gYi, UY = self.group_last(f.cod, O, c)
        M = np.zeros(_stack(f) + (UY.shape[1], UX.shape[1]), dtype=complex)
        blocks = f.blocks
        for j, (y, beta, d, u, ti) in enumerate(gX):
            if ti == 0 and (fb := blocks.get(d)) is not None:
                i = gYi[(y, beta, d, u, 0)]
                M[..., i : i + fb.shape[-2], j : j + fb.shape[-1]] = fb
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
                if not self.data.is_eye(UY):
                    M = UY @ M
                if not self.data.is_eye(UX):
                    M = M @ UX.conj().T
                if np.count_nonzero(M):
                    blocks[c] = M
        return Mor(X + (O,), Y + (O,), blocks)

    def whisker_right_cols(self, f: Mor, O, c, vs) -> list:
        """(f (x) id_O)_c v for each block of columns v in the list vs, all
        in the comb basis of f.dom + (O,) at charge c, as UY (M (UX^dag
        v)): the parts are placed once for the list (_right_parts), each
        product keeps the shape of its block, and no block of f (x) id_O
        is formed."""
        cod = f.cod + (O,)
        if c in self.support(cod):
            if not self.is_unit_sum(O):
                UX, M, UY = self._right_parts(f, O, c)
                UXh = None if self.data.is_eye(UX) else UX.conj().T
                out = [M @ (v if UXh is None else UXh @ v) for v in vs]
                return out if self.data.is_eye(UY) else [UY @ v for v in out]
            fb = f.blocks.get(c)
            if fb is not None:
                return [fb @ v for v in vs]
        return self._zero_cols(cod, c, vs)

    def _zero_cols(self, cod, c, vs) -> list:
        """One zero block per block of columns in vs, with the rows of the
        comb basis of cod at charge c."""
        n = len(self.basis(cod, c))
        return [np.zeros((n,) + v.shape[1:], dtype=complex) for v in vs]

    def _left_block(self, O, f: Mor, c):
        """(id_O (x) f)_c: each block f_e lands in one rectangle per run of
        trees (x, alpha, e, v) of the comb basis; None, with nothing
        allocated, where no block of f lands. Blocks with a leading stack
        axis give the result that axis."""
        cod_idx = self.basis_index((O,) + f.cod, c)
        dom_basis = self.basis((O,) + f.dom, c)
        M, blocks = None, f.blocks
        for j, (x, alpha, e, v, ti) in enumerate(dom_basis):
            if ti == 0 and (fb := blocks.get(e)) is not None:
                if M is None:
                    M = np.zeros(_stack(f) + (len(cod_idx), len(dom_basis)), dtype=complex)
                i = cod_idx[(x, alpha, e, v, 0)]
                M[..., i : i + fb.shape[-2], j : j + fb.shape[-1]] = fb
        return M

    def whisker_left_obj(self, O, f: Mor) -> Mor:
        """id_O (x) f, one block per charge where a block of f lands
        (_left_block)."""
        dom, cod = (O,) + f.dom, (O,) + f.cod
        blocks = {}
        for c in self.support(dom):
            M = self._left_block(O, f, c)
            if M is not None and np.count_nonzero(M):
                blocks[c] = M
        return Mor(dom, cod, blocks)

    def whisker_left_cols(self, O, f: Mor, c, vs) -> list:
        """(id_O (x) f)_c v for each block of columns v in the list vs, all
        in the comb basis of (O,) + f.dom at charge c: the block at c is
        placed once for the list (_left_block), and each product keeps the
        shape of its block."""
        M = self._left_block(O, f, c)
        if M is None:
            return self._zero_cols((O,) + f.cod, c, vs)
        return [M @ v for v in vs]

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
            eye = self.data.eye
            return Mor(dom, word, {c: eye(len(self.basis(word, c))) for c in self.support(dom)})

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
        of u is an identity matrix in the canonical orders, the data's
        shared one of its size.
        """
        simples, eye = self.data.simples, self.data.eye
        O = tuple(len(self.basis(word, c)) for c in simples)
        return O, Mor(word, (O,), {c: eye(n) for c, n in zip(simples, O) if n})

    # --- inclusions, cups, caps ------------------------------------------

    def include(self, O, x, alpha) -> Mor:
        """Isometry (x,) -> (O,) onto copy alpha of the simple x."""
        c = x
        idx = self.basis_index((O,), c)[(x, alpha, self.data.t(x), 0, 0)]
        m = np.zeros((len(self.basis((O,), c)), 1), dtype=complex)
        m[idx, 0] = 1.0
        return self.mor((self.simple_obj(x),), (O,), {c: m})

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
        _pairing(data, c, cb, s)
        _pairing(data, cb, c, t)
        k = (c, cb, c, c)
        row, col = data.tree_rows(*k)[(s, 0, 0)], data.tree_cols(*k)[(t, 0, 0)]
        return complex(data.f_matrix(*k)[row, col])

    def _pairings(self, O, word, ev: bool) -> dict:
        """Per unit u, the comb coefficients at charge u of the sum over
        the copies (x, alpha) in O of the evaluation (ev) or coevaluation
        of x: alpha_x or beta_x on the pairing tree (a, alpha, b, 0, alpha)
        of word, with (a, b) = (dual(x), x) for ev and (x, dual(x)) for
        coev, and zero elsewhere."""
        blocks = {}
        for x, n in zip(self.data.simples, O):
            if not n:
                continue
            a, b, u, z = _cup(self.data, self.udf, x, ev)
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
        """The closed loop of id_c on a sheet (loop)."""
        return loop(self.data, self.udf, c, side)

    def _closed_loop(self, f: Mor, ev: bool) -> Mor:
        """Per unit u, the sum over the simples x in O of |z_x|^2 tr(f_x),
        with (u, z_x) = (t(x), alpha_x) for ev and (s(x), beta_x) else, for
        f in End((O,)); a sum that equals zero gives no block."""
        if f.cod != f.dom:
            raise ShapeMismatch("trace of a non-endomorphism")
        if len(f.dom) != 1:
            raise ShapeMismatch(f"a closed loop needs a word of one object, not {len(f.dom)}")
        sums, blocks = {}, f.blocks
        for x, n in zip(self.data.simples, f.dom[0]):
            if n:
                _, _, u, z = _cup(self.data, self.udf, x, ev)
                fb = blocks.get(x)
                term = abs(z) ** 2 * fb.trace() if fb is not None else 0.0
                sums[u] = sums.get(u, 0.0) + term
        # a NaN sum compares unequal to zero, and is kept
        return Mor((), (), {u: np.array([[v]], dtype=complex) for u, v in sums.items() if v != 0})

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

    def psi_of_unit_endo(self, z: Mor) -> complex:
        """psi applied to an endomorphism of the tensor unit: the sum over
        the units u, in order, of psi_u times z's entry at u."""
        if z.dom != () or z.cod != ():
            raise ShapeMismatch("expected an endomorphism of the unit")
        b = z.blocks
        terms = zip(self.udf.psi.psi, self.data.units)
        return complex(sum(p * (complex(b[u][0, 0]) if u in b else 0.0) for p, u in terms))

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
        """f's blocks flattened in charge order; blocks with a leading
        stack axis give one row per morphism of the stack."""
        lead, parts = _stack(f), []
        for c in self.support(f.dom):
            b = f.blocks.get(c)
            if b is None:
                b = np.zeros(lead + (len(self.basis(f.cod, c)), len(self.basis(f.dom, c))), dtype=complex)
            parts.append(b.reshape(lead + (-1,)))
        return np.concatenate(parts, axis=-1) if parts else np.zeros(lead + (0,), dtype=complex)

    def elementary_images(self, head: Mor, post: Mor) -> np.ndarray:
        """The K x D array whose row k is to_vector(post (id_a (x) g_k (x)
        id_b) head), for head: dom -> (a, c, b), post: (a, *word, b) -> cod
        and g_k the K elementary maps (c,) -> word in hom_basis order. The
        elementary maps at one charge go through the whiskers and composes
        as one stack (blocks with a leading axis), so no Mor is formed per
        map."""
        a, c, b = head.cod
        word = post.dom[1:-1]
        rows = []
        for e in self.support((c,)):
            nr, nc = len(self.basis(word, e)), len(self.basis((c,), e))
            k = nr * nc
            if k:
                g = Mor((c,), word, {e: self.data.eye(k).reshape(k, nr, nc)})
                w = self.whisker_left_obj(a, self.whisker_right_obj(g, b))
                stack = self.compose(post, self.compose(w, head))
                # a stack without blocks is k zero maps
                rows.append(self.to_vector(stack) if stack.blocks else self._zero_rows(k, head, post))
        return np.concatenate(rows) if rows else self._zero_rows(0, head, post)

    def _zero_rows(self, k, head: Mor, post: Mor) -> np.ndarray:
        """The rows of k zero maps head.dom -> post.cod."""
        return np.zeros((k, self.hom_dim(head.dom, post.cod)), dtype=complex)

    def from_vector(self, X, Y, v) -> Mor:
        """The morphism X -> Y whose to_vector is v; each block is cut to
        its shape, so none is re-checked."""
        blocks = {}
        pos = 0
        for c in self.support(X):
            nr, nc = len(self.basis(Y, c)), len(self.basis(X, c))
            blocks[c] = np.asarray(v[pos : pos + nr * nc], dtype=complex).reshape(nr, nc)
            pos += nr * nc
        return Mor(X, Y, _nonzero(blocks))
