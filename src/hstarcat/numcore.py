"""Dense complex linear algebra primitives and the tolerance policy.

The operations here are the single row-space routine, the single
tolerance convention, the Frobenius norm of the engine's blocks
(frobenius) and the one check that a matrix is an orthogonal projection,
which projection_rank makes on the values of projection_gaps before it
counts the rank. Nothing here forms eigenvectors: intalg calls numpy's
eigh itself, once per job (endo_power, spectral_pieces and
relative_tensor's split of a checked projection), and eigvalsh in
verify_hstar.

The package raises three exception classes of its own, one per kind of
failure, all defined here: InputError (the input breaks its format or a
precondition), ShapeMismatch (operands that do not fit together) and
ConsistencyError (a check that the mathematics guarantees for valid input
failed). Python's TypeError, KeyError and NotImplementedError keep their
usual meanings: a wrong object type, an unknown label, an unsupported
schema keyword.

The tolerance policy: a bound is tol.bound(scale), possibly times a
fixed factor, and a residual passes it iff residual <= bound
(certify.within), so a NaN residual fails. Residuals are folded with
worst, which keeps a NaN that Python's max would drop. A command's
tolerance lives on its one engine (fusion.dual_engine stores it as
Engine.tol), and every check on that engine's morphisms reads it there;
functions that run before an engine exists or without one take tol.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certify import within


class InputError(ValueError):
    """The input breaks its format or a precondition."""


class ShapeMismatch(ValueError):
    """Operands that do not fit together: counts, shapes or words."""


class ConsistencyError(ArithmeticError):
    """A result failed a check that the mathematics guarantees for valid
    input, so it cannot be trusted."""


@dataclass(frozen=True)
class Tolerance:
    """Uniform numerical tolerance: one epsilon, absolute and relative."""

    eps: float = 1e-9

    def __post_init__(self):
        if not (np.isfinite(self.eps) and self.eps >= 0):
            raise InputError("tolerances must be finite and nonnegative")

    def bound(self, scale: float = 1.0) -> float:
        return self.eps + self.eps * abs(scale)


DEFAULT_TOL = Tolerance()


def worst(values):
    """The largest of the values, 0.0 for none; the first of equal maxima
    is returned as it is, like Python's max(0.0, *values). A NaN is
    returned at once, where max would keep or drop it by position."""
    out = 0.0
    for v in values:
        if v != v:
            return v
        if v > out:
            out = v
    return out


def sample_rng(samples: int, seed) -> np.random.Generator:
    """The generator of a sampled check, which needs a sample: with none,
    its residual would be worst of nothing, 0.0, and it would ACCEPT
    anything. The one sampled check is deligne's right action; every
    other check runs on a basis and draws nothing."""
    if samples < 1:
        raise InputError(f"a sampled check needs at least one sample, not {samples}")
    return np.random.default_rng(seed)


def _require_square(m: np.ndarray):
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ShapeMismatch(f"expected square matrix, got shape {m.shape}")


def frobenius(m: np.ndarray) -> np.float64:
    """The Frobenius norm of a float or complex array by np.linalg.norm's
    own arithmetic, sqrt(xr.xr + xi.xi) on the real and imaginary views of
    m.ravel(order="K"), so the same value to the last bit, without the
    wrapper's argument handling."""
    x = m.ravel(order="K")
    xr, xi = x.real, x.imag
    return np.sqrt(xr.dot(xr) + xi.dot(xi))


def frobenius_rows(x: np.ndarray) -> np.ndarray:
    """frobenius of each row (last axis), to the last bit: its two dots as
    (1, L) @ (L, 1) matmuls, which run ndarray.dot's routine."""
    x = x[..., None, :]
    xr, xi = x.real, x.imag
    return np.sqrt(xr @ xr.swapaxes(-1, -2) + xi @ xi.swapaxes(-1, -2))[..., 0, 0]


def projection_gaps(p: np.ndarray):
    """(p^dag, p p, ||p||, [||p - p^dag||, ||p p - p||]) of a square
    matrix p, each formed once: what projection_rank reads, and what a
    caller that also sums the gaps over charges reads (intalg's
    pair_projection)."""
    ph = p.conj().T
    pp = p @ p
    return ph, pp, frobenius(p), [frobenius(p - ph), frobenius(pp - p)]


def projection_rank(p: np.ndarray, parts, tol: Tolerance) -> int:
    """The rank of p, from its projection_gaps parts, once p is checked to
    be an orthogonal projection within tol: the worse gap within
    tol.bound(max(1, ||p||)), else ConsistencyError. The rank is the count
    of eigenvalues of the Hermitian part above 1/2, with no eigenvectors
    formed."""
    ph, _, norm, gaps = parts
    if not within(worst(gaps), tol.bound(max(1.0, float(norm)))):
        raise ConsistencyError("input is not an orthogonal projection within tolerance")
    return int(np.sum(np.linalg.eigvalsh((p + ph) / 2) > 0.5))


# singular values at or below RANK_CUT * max(1, sigma_max) count as zero:
# absolute for small matrices, since the engine's maps are O(1)-normalized
# and a purely relative cut reads an all-roundoff matrix as full rank
RANK_CUT = 1e-8


def row_space(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis (as rows) of the span of the rows of m, the
    singular values above RANK_CUT. The rows of vh are kept as they are:
    each is a combination of the rows of m, where its conjugate in general
    is not."""
    _, s, vh = np.linalg.svd(m, full_matrices=False)
    return vh[: int((s > RANK_CUT * max(1.0, s[0] if s.size else 0.0)).sum())]


def unitarity_defect(m: np.ndarray) -> float:
    """max(||M*M - I||_F, ||M M* - I||_F), zero iff M is unitary; of a
    stack of matrices, the worst, NaN if any is. A stacked matmul's slice
    is the 2-d product, and frobenius_rows gives frobenius's bits."""
    m = np.asarray(m, dtype=complex)
    _require_square(m)
    mh, d = m.conj().swapaxes(-1, -2), m.shape[-1]
    eye, rows = np.eye(d), m.shape[:-2] + (1, d * d)
    # a huge entry overflows to a non-finite defect, which fails its bound
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.concatenate(((mh @ m - eye).reshape(rows), (m @ mh - eye).reshape(rows)))
        return float(frobenius_rows(g).max(initial=0.0))
