"""The dense constraint solve, kept as the reference for the hom spaces
that hstarcat reads off the free-forgetful adjunction.

A hom space is the null space of stacked constraint matrices: each
constraint is a linear map on Hom(dom_pair), written out column by column
on the engine's hom basis. Slow and memory-hungry (a tall SVD of all
constraints at once), but it assumes nothing about the source.
"""

import numpy as np

from hstarcat.numcore import RANK_CUT


def null_space(m):
    """Orthonormal basis (as columns) of the kernel of m. A reduced SVD
    already gives every right singular vector when rows >= cols."""
    _, s, vh = np.linalg.svd(m, full_matrices=m.shape[0] < m.shape[1])
    rank = int((s > RANK_CUT * max(1.0, s[0] if s.size else 0.0)).sum())
    return vh[rank:].conj().T


def linear_matrix(eng, fun, dom_pair, cod_pair):
    """Matrix of the linear map fun: Hom(dom_pair) -> Hom(cod_pair)."""
    cols = [eng.to_vector(fun(b)) for b in eng.hom_basis(*dom_pair)]
    if not cols:
        return np.zeros((eng.hom_dim(*cod_pair), 0), dtype=complex)
    return np.stack(cols, axis=1)


def solve(eng, dom_pair, constraints):
    """Basis of Hom(dom_pair) killed by the given (map, cod pair)s."""
    n = eng.hom_dim(*dom_pair)
    if n == 0:
        return []
    mats = [linear_matrix(eng, fun, dom_pair, cp) for fun, cp in constraints]
    ns = null_space(np.vstack(mats) if mats else np.zeros((0, n)))
    return [eng.from_vector(dom_pair[0], dom_pair[1], ns[:, k]) for k in range(ns.shape[1])]


def left_linear(act_dom, act_cod, A):
    """f act_dom = act_cod (id_A (x) f), for left A-actions."""
    eng = A.eng
    return (
        lambda f: eng.sub(eng.compose(f, act_dom), eng.compose(act_cod, eng.whisker_left_obj(A.obj, f))),
        (act_dom.dom, act_cod.cod),
    )


def right_linear(act_dom, act_cod, B):
    """f act_dom = act_cod (f (x) id_B), for right B-actions."""
    eng = B.eng
    return (
        lambda f: eng.sub(eng.compose(f, act_dom), eng.compose(act_cod, eng.whisker_right_obj(f, B.obj))),
        (act_dom.dom, act_cod.cod),
    )


def module_hom_basis(M1, M2):
    """Basis of right-module maps M1 -> M2, for right modules as 1-A
    bimodules: the left action of the tensor unit constrains nothing."""
    return solve(M1.eng, (M1.word, M2.word), [right_linear(M1.rho, M2.rho, M1.right)])


def bimodule_homs(M1, M2):
    """Basis of maps M1 -> M2 intertwining both actions."""
    constraints = [left_linear(M1.lam, M2.lam, M1.left), right_linear(M1.rho, M2.rho, M1.right)]
    return solve(M1.eng, (M1.word, M2.word), constraints)


def bimodule_map_basis(N, M, P):
    """Basis of maps (n, m) -> (p), right-B-linear and balanced over A
    between N's action and M's left action."""
    eng = N.eng

    def balance(f):
        return eng.sub(
            eng.compose(f, eng.whisker_right(N.rho, M.word)),
            eng.compose(f, eng.whisker_left(N.word, M.lam)),
        )

    constraints = [
        right_linear(eng.whisker_left(N.word, M.rho), P.rho, M.right),
        (balance, (N.word + (M.left.obj,) + M.word, P.word)),
    ]
    return solve(eng, (N.word + M.word, P.word), constraints)
