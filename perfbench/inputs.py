"""Seeded frame generators for the benchmark workloads (numpy only).

Each generator returns an N x M matrix whose columns are the frame vectors.
The benchmark passes only these matrices (or files holding them) to
framescale; what it knows about how they were made stays here.
"""

from __future__ import annotations

import numpy as np


def tight_then_rescale(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """Scalable by construction, with strictly positive weights.

    A Gaussian matrix is made Parseval, (Phi Phi^T)^{-1/2} Phi, and its
    columns are multiplied by factors drawn from [0.5, 2].  The draws match
    ``random_scalable_frame`` in the test suite's conftest.
    """
    mat = rng.standard_normal((n, m))
    vals, vecs = np.linalg.eigh(mat @ mat.T)
    mat = vecs @ np.diag(1.0 / np.sqrt(vals)) @ vecs.T @ mat
    return mat * rng.uniform(0.5, 2.0, size=m)


def gaussian(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    return rng.standard_normal((n, m))


def cone_gaussian(rng: np.random.Generator, n: int, m: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Not scalable by construction: Gaussian vectors kept inside the cone
    x'Qx > |x|^2 lambda_max(Q) / 10 of a seeded trace-free form Q.

    Returns the matrix and the separator h in F coordinates for which
    h'F(x) = x'Qx, so h'F(phi_k) > 0 for every column.
    """
    a = rng.standard_normal((n, n))
    q = (a + a.T) / 2.0
    q -= np.trace(q) / n * np.eye(n)
    floor = np.linalg.eigvalsh(q)[-1] / 10.0
    cols = []
    while len(cols) < m:
        x = rng.standard_normal(n)
        if x @ q @ x > floor * (x @ x):
            cols.append(x)
    h = [-q[l, l] for l in range(1, n)]
    h += [2.0 * q[k, j] for k in range(n - 1) for j in range(k + 1, n)]
    return np.column_stack(cols), np.array(h)


def planted(rng: np.random.Generator, n: int, m: int, s: int) -> np.ndarray:
    """Gaussian columns whose first ``s`` columns are replaced by a
    scalable-by-construction s-column frame, so the scalability index is
    at most s.  Placing them first makes the subset search accept on its
    first candidate at every size above s and reject every candidate of
    size s - 1 (when s - 1 > n), so its decide count does not depend on
    the draw."""
    mat = gaussian(rng, n, m)
    mat[:, :s] = tight_then_rescale(rng, n, s)
    return mat
