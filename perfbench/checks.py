"""Output checks that share no code with framescale.

Every function here recomputes what a certificate claims from the frame's
entries alone, with its own quadratic transform and its own residual, and
returns ``None`` when the claim holds or a one-line reason when it does not.

The transform follows the coordinate layout framescale documents for F:
first the differences x_1^2 - x_l^2 (l = 2..N), then the products x_k x_j
(k < j) in row-major order.  Separators are vectors in those coordinates.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np

WEIGHT_TOL = 1e-9   # residual bound, relative to the tight constant
SUM_TOL = 1e-9      # |sum u - 1|


def f_columns(mat: np.ndarray) -> np.ndarray:
    """F applied to every column of an N x M matrix: a d x M matrix."""
    n = mat.shape[0]
    rows = [mat[0] ** 2 - mat[l] ** 2 for l in range(1, n)]
    rows += [mat[k] * mat[j] for k in range(n - 1) for j in range(k + 1, n)]
    return np.vstack(rows)


def f_exact(x) -> list:
    """F at one vector of Fractions."""
    n = len(x)
    out = [x[0] * x[0] - x[l] * x[l] for l in range(1, n)]
    out += [x[k] * x[j] for k in range(n - 1) for j in range(k + 1, n)]
    return out


def check_weights(mat: np.ndarray, u, *, strict: bool = False,
                  support=None) -> str | None:
    """Weights u on the columns of ``mat`` make the frame tight.

    Checks u >= 0, sum u = 1 and |Phi diag(u) Phi^T - alpha I|_F <=
    WEIGHT_TOL * alpha with alpha = sum u_k |phi_k|^2 / N.  Columns outside
    ``support`` (default: all columns) must carry zero weight; with
    ``strict`` every column inside it must carry positive weight.
    """
    u = np.asarray(u, dtype=float)
    n, m = mat.shape
    if u.shape != (m,):
        return f"expected {m} weights, got shape {u.shape}"
    if np.any(u < 0.0):
        return f"negative weight {u.min():.3e}"
    if abs(u.sum() - 1.0) > SUM_TOL:
        return f"weights sum to {u.sum():.12g}"
    inside = np.zeros(m, dtype=bool)
    inside[list(range(m) if support is None else support)] = True
    if np.any(u[~inside] != 0.0):
        return "weight outside the reported support"
    if strict and np.any(u[inside] <= 0.0):
        return "strict verdict with a zero weight"
    alpha = float(np.sum(u * np.sum(mat * mat, axis=0)) / n)
    if alpha <= 0.0:
        return "tight constant is not positive"
    residual = float(np.linalg.norm((mat * u) @ mat.T - alpha * np.eye(n)))
    if residual > WEIGHT_TOL * alpha:
        return f"residual {residual:.3e} exceeds {WEIGHT_TOL:g} * alpha"
    return None


def check_separator(mat: np.ndarray, h, indices=None) -> str | None:
    """min over the tested columns of h'F(phi_k) is strictly positive."""
    h = np.asarray(h, dtype=float)
    g = f_columns(mat)
    if indices is not None:
        g = g[:, list(indices)]
    if h.shape != (g.shape[0],):
        return f"separator has shape {h.shape}, expected ({g.shape[0]},)"
    margin = float(np.min(h @ g))
    if not margin > 0.0:
        return f"separator margin {margin:.3e} is not positive"
    return None


def check_weights_exact(vectors, u_rational, alpha_rational) -> str | None:
    """sum_k u_k phi_k phi_k^T == alpha I, literally, over Fractions.

    ``vectors`` are the frame vectors as floats (converted exactly);
    ``u_rational`` and ``alpha_rational`` are the report's strings.
    """
    cols = [[Fraction(v) for v in vec] for vec in vectors]
    u = [Fraction(s) for s in u_rational]
    alpha = Fraction(alpha_rational)
    if len(u) != len(cols):
        return f"expected {len(cols)} rational weights, got {len(u)}"
    if any(v < 0 for v in u):
        return "negative rational weight"
    if sum(u) != 1:
        return f"rational weights sum to {sum(u)}"
    n = len(cols[0])
    for i in range(n):
        for j in range(i, n):
            s = sum((uk * c[i] * c[j] for uk, c in zip(u, cols) if uk),
                    Fraction(0))
            if s != (alpha if i == j else 0):
                return f"entry ({i}, {j}) of Phi diag(u) Phi^T is not alpha I"
    return None


def check_separator_exact(vectors, h_rational, indices) -> str | None:
    """min over the tested columns of h'F(phi_k) > 0, over Fractions."""
    h = [Fraction(s) for s in h_rational]
    margins = []
    for k in indices:
        g = f_exact([Fraction(v) for v in vectors[k]])
        if len(g) != len(h):
            return f"separator has length {len(h)}, expected {len(g)}"
        margins.append(sum((a * b for a, b in zip(h, g)), Fraction(0)))
    if not min(margins) > 0:
        return f"rational separator margin {min(margins)} is not positive"
    return None


def highs_scalable(g: np.ndarray) -> bool:
    """Scalability of the columns G of an F-image by scipy's HiGHS:
    is {u >= 0 : G u = 0, sum u = 1} nonempty?"""
    from scipy.optimize import linprog
    d, k = g.shape
    a_eq = np.vstack([g, np.ones((1, k))])
    b_eq = np.zeros(d + 1)
    b_eq[-1] = 1.0
    res = linprog(np.zeros(k), A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs")
    if res.status not in (0, 2):
        raise RuntimeError(f"HiGHS ended with status {res.status}")
    return res.status == 0


def check_index_minimal(mat: np.ndarray, index: int) -> str | None:
    """No column subset of size index - 1 is scalable, according to HiGHS."""
    g = f_columns(mat)
    for subset in combinations(range(mat.shape[1]), index - 1):
        if highs_scalable(g[:, subset]):
            return f"HiGHS finds subset {subset} of size {index - 1} scalable"
    return None
