"""Dense complex linear algebra primitives and the tolerance policy.

The operations here are the single row-space routine and the single
tolerance convention; intalg also calls numpy's eigh and eigvalsh itself
(endo_power, verify_hstar, spectral_pieces).

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
    anything."""
    if samples < 1:
        raise InputError(f"a sampled check needs at least one sample, not {samples}")
    return np.random.default_rng(seed)


def as_cmatrix(entries) -> np.ndarray:
    """Coerce input to a 2d complex ndarray (the working CMatrix form)."""
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2:
        raise ShapeMismatch("CMatrix must be 2-dimensional")
    return m


# an eigenvector coordinate above PHASE_CUT fixes the column's phase: the
# columns are unit vectors, so roundoff sits far below it
PHASE_CUT = 1e-12


def _sorted_eigh(m: np.ndarray):
    """Hermitian eigendecomposition, eigenvalues descending, deterministic
    column phases: first nonzero coordinate of each eigenvector is positive
    real."""
    vals, vecs = np.linalg.eigh(m)
    order = np.argsort(-vals)
    vals = vals[order]
    vecs = vecs[:, order]
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        nz = np.flatnonzero(np.abs(col) > PHASE_CUT)
        if nz.size:
            phase = col[nz[0]] / abs(col[nz[0]])
            vecs[:, j] = col / phase
    return vals, vecs


def _require_square(m: np.ndarray):
    if m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"expected square matrix, got shape {m.shape}")


def split_projection(p: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Split an orthogonal projection P as V V-dagger with V-dagger V = I.

    Columns of V: eigenvectors of P with eigenvalue 1, descending order,
    phase-normalized. Rank is the count of eigenvalues above 1/2.
    """
    p = as_cmatrix(p)
    _require_square(p)
    scale = max(1.0, float(np.linalg.norm(p)))
    defect = worst([np.linalg.norm(p - p.conj().T), np.linalg.norm(p @ p - p)])
    if not within(defect, tol.bound(scale)):
        raise ConsistencyError("input is not an orthogonal projection within tolerance")
    h = (p + p.conj().T) / 2
    vals, vecs = _sorted_eigh(h)
    rank = int(np.sum(vals > 0.5))
    return vecs[:, :rank]


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
    """max(||M*M - I||_F, ||M M* - I||_F); zero iff M is unitary."""
    m = as_cmatrix(m)
    _require_square(m)
    eye = np.eye(m.shape[0])
    # a huge entry overflows to a non-finite defect, which fails its bound
    with np.errstate(over="ignore", invalid="ignore"):
        defects = [np.linalg.norm(m.conj().T @ m - eye), np.linalg.norm(m @ m.conj().T - eye)]
    return float(worst(defects))
