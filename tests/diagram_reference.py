"""String-diagram constructions that hstarcat now reads off the fusion
data, kept as references for the tests.

The closed loops and the zig-zag are taken here by whiskering and
composing, the path the engine took before it read them off blocks and
F-symbols; the tree bases are built one charge at a time, rescanning
every (x, e, c), as before the engine swept all charges of a word at once.
"""

from hstarcat.diagram import Engine


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
    left = eng.whisker_right_obj(eng._raw_coev(c), eng.simple_obj(c))
    right = eng.whisker_left_obj(eng.simple_obj(c), eng._raw_ev(c))
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
