"""Frames as matrices: validation, frame bounds, tightness, transforms.

A frame for R^N is a spanning set of M >= N vectors, stored column-wise in
an N x M synthesis matrix.  All objects here are immutable value objects;
every transform returns a new frame, so instances can be shared freely
between concurrent workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, NotAFrame, NotOrthogonal

# Singular values below sigma_max * max(N, M) * eps * RANK_SLACK do not
# count towards the numerical rank.
RANK_SLACK = 100.0

DEFAULT_TIGHT_TOL = 1e-9
DEFAULT_ORTHOGONAL_TOL = 1e-9


def numerical_rank(a: np.ndarray) -> int:
    """Rank of ``a`` with the package-wide singular value threshold."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    cutoff = s[0] * max(a.shape) * np.finfo(float).eps * RANK_SLACK
    return int(np.count_nonzero(s > cutoff))


@lru_cache(maxsize=64)
def _all_columns(m: int) -> tuple:
    """The tuple (0, ..., m - 1), one per size: the subset of every decide
    on all columns and the support of full-support weights share it, so
    callers that keep thousands of results keep one copy."""
    return tuple(range(m))


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Frame:
    """An N x M synthesis matrix whose columns are the frame vectors."""

    matrix: np.ndarray
    n: int
    m: int
    rank: int
    degenerate: bool  # true iff some column is the zero vector

    @property
    def columns(self) -> np.ndarray:
        """The frame vectors as an iterable of length-N arrays."""
        return self.matrix.T

    def column(self, k: int) -> np.ndarray:
        return self.matrix[:, k]

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.matrix, axis=0)

    def gram_dual(self) -> np.ndarray:
        """The N x N matrix Phi Phi^T whose extreme eigenvalues are the
        optimal frame bounds."""
        return self.matrix @ self.matrix.T


@dataclass(frozen=True)
class FrameBounds:
    lower: float
    upper: float


@dataclass(frozen=True)
class Tightness:
    tight: bool
    residual: float
    alpha: float  # Tr(Phi Phi^T) / N, the only possible tight constant


@dataclass(frozen=True, slots=True)
class ScalingWeights:
    """Nonnegative squared scalars u_k = c_k^2, normalized to sum 1.

    ``alpha`` is the tight constant of the reweighted frame:
    Phi diag(u) Phi^T = alpha I.  It always equals (1/N) sum u_k |phi_k|^2.
    ``residual`` is the Frobenius defect of that identity as computed
    against the frame the weights were built for.
    """

    u: np.ndarray
    alpha: float
    support: tuple
    residual: float
    u_exact: tuple | None = field(default=None, compare=False)
    alpha_exact: object | None = field(default=None, compare=False)

    @property
    def support_size(self) -> int:
        return len(self.support)

    def scalars(self, parseval: bool = False) -> np.ndarray:
        """The column scalars c_k = sqrt(u_k); with ``parseval`` they are
        divided by sqrt(alpha) so the rescaled frame has bound exactly 1."""
        c = np.sqrt(self.u)
        if parseval:
            c = c / np.sqrt(self.alpha)
        return c

    def verify(self, frame: Frame, tol: float = DEFAULT_TIGHT_TOL) -> bool:
        return weights_residual(frame, self.u)[1] <= tol * self.alpha


def weights_residual(frame: Frame, u: np.ndarray) -> tuple[float, float]:
    """Return (alpha, ||Phi diag(u) Phi^T - alpha I||_F) for weights u."""
    u = np.asarray(u, dtype=float)
    if u.shape != (frame.m,):
        raise DimensionMismatch(f"expected {frame.m} weights, got {u.shape}")
    alpha = float(np.sum(u * frame.norms() ** 2) / frame.n)
    s = (frame.matrix * u) @ frame.matrix.T
    residual = float(np.linalg.norm(s - alpha * np.eye(frame.n)))
    return alpha, residual


def make_weights(frame: Frame, u: np.ndarray, *, normalize: bool = True,
                 u_exact=None, alpha_exact=None) -> ScalingWeights:
    """Clamp, normalize and package a raw weight vector for ``frame``."""
    u = np.asarray(u, dtype=float).copy()
    if u.shape != (frame.m,):
        raise DimensionMismatch(f"expected {frame.m} weights, got {u.shape}")
    u[u < 0] = 0.0
    total = u.sum()
    if total <= 0:
        raise ValueError("weight vector must have positive mass")
    if normalize:
        u /= total
    alpha, residual = weights_residual(frame, u)
    nonzero = np.flatnonzero(u > 0.0)
    support = (_all_columns(frame.m) if nonzero.size == frame.m
               else tuple(nonzero.tolist()))
    return ScalingWeights(u=_frozen(u), alpha=alpha,
                          support=support, residual=residual,
                          u_exact=u_exact, alpha_exact=alpha_exact)


def build_frame(n: int, vectors) -> Frame:
    """Validate a list of M >= n finite length-n vectors as a frame for R^n."""
    if n < 1:
        raise DimensionMismatch("ambient dimension must be at least 1")
    vecs = [np.asarray(v, dtype=float).reshape(-1) for v in vectors]
    for i, v in enumerate(vecs):
        if v.shape != (n,):
            raise DimensionMismatch(
                f"vector {i} has length {v.shape[0]}, expected {n}")
    if len(vecs) < n:
        raise NotAFrame(f"{len(vecs)} vectors cannot span R^{n}")
    matrix = np.column_stack(vecs)
    if not np.all(np.isfinite(matrix)):
        raise NotAFrame("frame vectors must have finite entries")
    rank = numerical_rank(matrix)
    if rank < n:
        raise NotAFrame(f"rank {rank} < {n}: the vectors do not span R^{n}")
    degenerate = bool(np.any(np.all(matrix == 0.0, axis=0)))
    return Frame(matrix=_frozen(matrix), n=n, m=len(vecs), rank=rank,
                 degenerate=degenerate)


def frame_bounds(frame: Frame) -> FrameBounds:
    """Optimal lower/upper frame bounds: extreme eigenvalues of Phi Phi^T."""
    eig = np.linalg.eigvalsh(frame.gram_dual())
    return FrameBounds(lower=float(eig[0]), upper=float(eig[-1]))


def is_tight(frame: Frame, tol: float = DEFAULT_TIGHT_TOL) -> Tightness:
    """Test tightness: is Phi Phi^T a multiple of the identity?

    The candidate constant is forced to Tr(Phi Phi^T)/N; the reported
    residual is the Frobenius distance to that multiple of the identity.
    """
    g = frame.gram_dual()
    alpha = float(np.trace(g) / frame.n)
    residual = float(np.linalg.norm(g - alpha * np.eye(frame.n)))
    return Tightness(tight=bool(residual <= tol * alpha), residual=residual,
                     alpha=alpha)


def apply_orthogonal(frame: Frame, t: np.ndarray) -> Frame:
    """Rotate/reflect every frame vector by the orthogonal matrix ``t``.

    Scalability verdicts are invariant under this operation.
    """
    t = np.asarray(t, dtype=float)
    if t.shape != (frame.n, frame.n):
        raise DimensionMismatch(f"transform must be {frame.n} x {frame.n}")
    defect = float(np.linalg.norm(t.T @ t - np.eye(frame.n)))
    if defect > DEFAULT_ORTHOGONAL_TOL:
        raise NotOrthogonal(f"|t'T t - I|_F = {defect:.3e} > "
                            f"{DEFAULT_ORTHOGONAL_TOL:.1e}")
    return build_frame(frame.n, (t @ frame.matrix).T)


def apply_scaling(frame: Frame, weights: ScalingWeights,
                  parseval: bool = False) -> Frame:
    """Rescale columns by c_k = sqrt(u_k); Parseval mode lands on bound 1.

    Zero-weight columns become zero vectors, so the result can be a
    degenerate frame.
    """
    c = weights.scalars(parseval=parseval)
    return build_frame(frame.n, (frame.matrix * c).T)
