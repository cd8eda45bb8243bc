"""Seeded fusion-category families for the benchmark.

All three families are multiplicity free and have a single unit "0":

- Vec(Z_n): simples "0".."n-1", a (x) b = a + b mod n, trivial F;
- Vec(Z_n) twisted by the standard 3-cocycle
  omega(a, b, c) = exp(2 pi i p a (b + c - [b + c]_n) / n^2);
- Tambara-Yamagami TY(Z_n) (J. Algebra 209, 1998): the group simples plus
  "m" with m (x) m = sum of all group elements, bicharacter
  chi(a, b) = exp(2 pi i a b / n) and tau = sign / sqrt(n).

`gauge` applies a random unitary phase change on the vertex spaces, which
leaves every verdict unchanged but fills every F block; `sign_flip` negates
one scalar F block, which keeps F unitary and breaks the pentagon.
"""

from __future__ import annotations

import numpy as np

from hstarcat.fusion import FusionData


def _cat(labels, N, F):
    return FusionData(
        simples=labels,
        units=("0",),
        grading={c: ("0", "0") for c in labels},
        dual={c: _dual(c, len(labels) - (1 if "m" in labels else 0)) for c in labels},
        N=N,
        F=F,
    )


def _dual(c, n):
    return c if c == "m" else str(-int(c) % n)


def vec_zn(n: int, p: int = 0) -> FusionData:
    """Vec(Z_n), twisted by the cocycle with parameter p (p = 0: untwisted)."""
    labels = tuple(str(a) for a in range(n))
    N = {(str(a), str(b), str((a + b) % n)): 1 for a in range(1, n) for b in range(1, n)}
    F = {}
    if p % n:
        for a in range(1, n):
            for b in range(1, n):
                for c in range(1, n):
                    carry = b + c - (b + c) % n
                    w = np.exp(2j * np.pi * p * a * carry / n**2)
                    F[(str(a), str(b), str(c), str((a + b + c) % n))] = np.array([[w]])
    return _cat(labels, N, F)


def ty_zn(n: int, sign: int = 1) -> FusionData:
    """TY(Z_n) with chi(a, b) = exp(2 pi i a b / n) and tau = sign / sqrt(n)."""
    G = range(n)
    labels = tuple(str(a) for a in G) + ("m",)

    def chi(a, b):
        return np.exp(2j * np.pi * a * b / n)

    N = {(str(a), str(b), str((a + b) % n)): 1 for a in G for b in G if a and b}
    for a in G:
        N[("m", "m", str(a))] = 1
        if a:
            N[(str(a), "m", "m")] = 1
            N[("m", str(a), "m")] = 1
    one = np.ones((1, 1), dtype=complex)
    F = {}
    for a in range(1, n):
        for b in range(1, n):
            F[(str(a), "m", str(b), "m")] = chi(a, b) * one
            F[(str(a), str(b), "m", "m")] = one
            F[("m", str(a), str(b), "m")] = one
        for b in G:
            F[(str(a), "m", "m", str(b))] = one
            F[("m", "m", str(a), str(b))] = one
            F[("m", str(a), "m", str(b))] = chi(a, b) * one
    F[("m", "m", "m", "m")] = (
        sign / np.sqrt(n) * np.array([[chi(a, b).conjugate() for b in G] for a in G])
    )
    return _cat(labels, N, F)


def _vertices(data: FusionData):
    """Admissible vertices (x, y; z) with both legs non-unit."""
    S = [c for c in data.simples if c not in data.units]
    return [(x, y, z) for x in S for y in S for z in data.simples if data.n(x, y, z)]


def f_blocks(data: FusionData):
    """Keys of every non-empty F block with no unit argument."""
    S = [c for c in data.simples if c not in data.units]
    return [
        (a, b, c, d)
        for a in S
        for b in S
        for c in S
        for d in data.simples
        if data.tree_rows(a, b, c, d)
    ]


def gauge(data: FusionData, rng: np.random.Generator) -> FusionData:
    """Random vertex-phase gauge of multiplicity-free data:
    F'[e, f] = u(a,b;e) u(e,c;d) F[e, f] / (u(b,c;f) u(a,f;d)),
    with u = 1 on every vertex with a unit leg."""
    u = {v: np.exp(2j * np.pi * rng.random()) for v in _vertices(data)}

    def ph(x, y, z):
        return u.get((x, y, z), 1.0)

    F = {}
    for a, b, c, d in f_blocks(data):
        m = data.f_matrix(a, b, c, d)
        rows = data.tree_rows(a, b, c, d)
        cols = data.tree_cols(a, b, c, d)
        left = np.array([ph(a, b, e) * ph(e, c, d) for e, _, _ in rows])
        right = np.array([ph(b, c, f) * ph(a, f, d) for f, _, _ in cols])
        F[(a, b, c, d)] = left[:, None] * m / right[None, :]
    return FusionData(data.simples, data.units, data.grading, data.dual, data.N, F)


def sign_flip(data: FusionData, rng: np.random.Generator):
    """Negate one seeded scalar F block; returns (corrupted data, flipped key).

    The only larger block in these families is F^{mmm}_m of TY, and negating
    it gives TY with the other sign of tau, which is again a solution."""
    keys = [k for k in f_blocks(data) if data.f_matrix(*k).shape == (1, 1)]
    key = keys[int(rng.integers(len(keys)))]
    F = dict(data.F)
    F[key] = -data.f_matrix(*key)
    return FusionData(data.simples, data.units, data.grading, data.dual, data.N, F), key
