"""The quadratic transform that linearizes the tightness equations.

A frame can be rescaled to a tight frame exactly when the squared scalars
solve a homogeneous linear system.  The carrier of that system is the map

    F : R^N -> R^d,   d = (N-1)(N+2)/2   (d = 0 when N = 1),

whose blocks are the differences of squares against the first coordinate
followed by all pairwise products:

    F_0(x) = (x_1^2 - x_2^2, ..., x_1^2 - x_N^2)          (length N-1)
    F_k(x) = (x_k x_{k+1}, ..., x_k x_N),  k = 1..N-1     (length N-k)

This module also exposes the set of rank-one outer products phi_k phi_k^T,
its linear/affine dimensions (which bound the scalability index), and the
correspondence between vectors in R^d and trace-free quadratic forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .frames import Frame, _frozen, numerical_rank


def target_dim(n: int) -> int:
    """d = (n-1)(n+2)/2, the length of the transformed vectors."""
    return (n - 1) * (n + 2) // 2


def ambient_from_target(d: int) -> int:
    """Invert d = (n-1)(n+2)/2; raises when d is not of that form."""
    disc = 8 * d + 9
    root = int(round(disc ** 0.5))
    if root * root != disc or (root - 1) % 2 != 0:
        raise DimensionMismatch(f"{d} is not (n-1)(n+2)/2 for integer n")
    return (root - 1) // 2


def pair_index(n: int, i: int, j: int) -> int:
    """0-based position of the x_i x_j product (i < j, 0-based) in F(x)."""
    if not 0 <= i < j < n:
        raise DimensionMismatch(f"need 0 <= i < j < {n}, got ({i}, {j})")
    return (i + 1) * (2 * n - i - 2) // 2 + j - 1


def f_vector(x) -> np.ndarray:
    """Evaluate the transform at one vector, or the columns of a matrix.

    Nonvanishing: for N >= 2 and x != 0, F(x) != 0, because all pairwise
    products zero plus all squares equal forces x = 0.  For N = 1 the image
    is empty (d = 0): every nonzero vector on the line is already tight.
    """
    x = np.asarray(x)
    n = x.shape[0]
    parts = [x[0] ** 2 - x[1:] ** 2]
    for k in range(n - 1):
        parts.append(x[k] * x[k + 1:])
    return np.concatenate(parts)


@dataclass(frozen=True)
class FImage:
    """The d x M matrix whose k-th column is F(phi_k)."""

    matrix: np.ndarray
    d: int
    n: int
    m: int

    def columns(self, subset=None) -> np.ndarray:
        if subset is None:
            return self.matrix
        return self.matrix[:, list(subset)]


def f_image(frame: Frame) -> FImage:
    """Columnwise transform of a whole frame."""
    return FImage(matrix=_frozen(f_vector(frame.matrix)),
                  d=target_dim(frame.n), n=frame.n, m=frame.m)


@dataclass(frozen=True)
class OuterProductSet:
    """The rank-one matrices phi_k phi_k^T and the dimensions of their span.

    ``linear_dim`` is dim span of the set inside the N(N+1)/2-dimensional
    space of symmetric matrices; ``affine_dim`` is the dimension of its
    affine hull.  For unit-norm frames the members are orthogonal
    projections, which forces affine_dim = linear_dim - 1.
    """

    projections: tuple
    linear_dim: int
    affine_dim: int


def svec(s: np.ndarray) -> np.ndarray:
    """Vectorize a symmetric matrix: diagonal, then upper triangle scaled
    by sqrt(2) so Euclidean inner products match Hilbert-Schmidt ones."""
    s = np.asarray(s, dtype=float)
    n = s.shape[0]
    iu = np.triu_indices(n, k=1)
    return np.concatenate([np.diagonal(s), np.sqrt(2.0) * s[iu]])


def outer_svec_rows(frame: Frame, subset=None) -> np.ndarray:
    """Rows svec(phi_k phi_k^T) for k in ``subset`` (default: all), built
    for all k at once with the products and the order of ``svec``."""
    x = frame.matrix if subset is None else frame.matrix[:, list(subset)]
    i, j = np.triu_indices(frame.n, k=1)
    return np.vstack([x * x, np.sqrt(2.0) * (x[i] * x[j])]).T


def outer_dims(frame: Frame) -> OuterProductSet:
    """Outer products with the linear and affine dimension of their span."""
    rows = outer_svec_rows(frame)
    linear = numerical_rank(rows)
    if frame.m == 1:
        affine = 0
    else:
        affine = numerical_rank(rows[1:] - rows[0])
    projections = tuple(_frozen(np.outer(frame.column(k), frame.column(k)))
                        for k in range(frame.m))
    return OuterProductSet(projections=projections, linear_dim=linear,
                           affine_dim=affine)


@dataclass(frozen=True)
class QuadForm:
    """A coefficient vector a in R^d with its trace-free symmetric matrix.

    The pairing <F(x), a> = <Q x, x> holds for all x; Tr(Q) == 0.0 exactly.
    """

    coeffs: np.ndarray
    matrix: np.ndarray
    n: int
    d: int

    def evaluate(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(x @ self.matrix @ x)


def q_matrix(a) -> QuadForm:
    """Build the symmetric matrix of the quadratic form paired with ``a``.

    Layout (1-based): Q(1,1) = sum_k a_k over the first N-1 coefficients,
    Q(l,l) = -a_{l-1} for l >= 2, and Q(k,l) = a_idx/2 on the off-diagonal,
    where idx walks the pairwise-product blocks in the same order the
    transform emits them.
    """
    a = np.asarray(a)
    d = a.shape[0]
    n = ambient_from_target(d)
    exact = a.dtype == object
    q = np.zeros((n, n), dtype=object if exact else float)
    q[0, 0] = a[:n - 1].sum()
    for l in range(1, n):
        q[l, l] = -a[l - 1]
    for i in range(n - 1):
        for j in range(i + 1, n):
            half = a[pair_index(n, i, j)] / 2
            q[i, j] = half
            q[j, i] = half
    # The trace must vanish exactly.  In exact arithmetic the running sum
    # below is a[n-2] and the assignment reproduces -a[n-2]; in floats it
    # deviates from that by at most the rounding of the sum, and the final
    # trace addition cancels to literal zero.
    running = q[0, 0]
    for l in range(1, n - 1):
        running = running + q[l, l]
    q[n - 1, n - 1] = -running
    for _ in range(4):  # guard against a non-sequential trace summation
        r = np.trace(q)
        if r == 0.0:
            break
        q[n - 1, n - 1] -= r
    else:
        raise ArithmeticError("trace correction did not converge")
    if not exact:
        q = _frozen(q)
        a = _frozen(a)
    return QuadForm(coeffs=a, matrix=q, n=n, d=d)


def f_frame_rank(frame: Frame) -> tuple[int, bool]:
    """Rank of the transformed frame matrix, with a spans-R^d flag."""
    fi = f_image(frame)
    rank = numerical_rank(fi.matrix)
    return rank, rank == fi.d
