"""Exact rational arithmetic for the verification back-end.

Float verdicts elsewhere in the package are cross-checked against routines
in this module, which are deliberately independent of the numpy code
paths.  One exact representation serves every exact caller: the frame's
columns as integer vectors over one common denominator D
(``integer_columns``; a float is the dyadic rational it represents), and
their transform, which is then an integer matrix over D^2 because F is
quadratic (``f_image_exact``).  Checking a direction on it is a product
of integers.  ``Fraction`` columns are built from that image only where a
rational LP runs.  Feasibility of the normalized weight polytope is
decided by enumerating its basic solutions.  One elimination serves every
solve: fraction-free (Bareiss) elimination over integers,
``fraction_free_echelon``.  Ranks read its pivots, kernels back-substitute
its rows, square systems are read off a kernel, and the vertex enumeration
solves over its rows.

Instances are small by contract (a dozen columns or so), which keeps the
enumeration and the big-integer growth trivial.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, lcm
from typing import NamedTuple

import numpy as np

from .errors import TooLarge

MAX_BASES = 2 * 10 ** 5  # most column bases polytope_vertices enumerates


def to_fractions(vectors) -> list[list[Fraction]]:
    """Convert a list of vectors to exact rationals.

    Accepts ints, Fractions, strings like ``"2/3"`` and floats; a float
    converts to the rational it exactly represents.
    """
    return [[Fraction(v) for v in vec] for vec in vectors]


def frame_to_fractions(frame, rational=None) -> list[list[Fraction]]:
    """Columns of ``frame`` as rational vectors.

    ``rational`` optionally supplies the exact entries (same layout as the
    frame vectors: M sequences of length N), for callers whose true inputs
    are not float-representable; entries with radicals should be passed as
    high-precision rational approximations (50 or more decimal digits),
    in which case the verdict applies to that approximant.
    """
    if rational is not None:
        cols = to_fractions(rational)
        if len(cols) != frame.m or any(len(c) != frame.n for c in cols):
            raise ValueError("rational entries do not match the frame shape")
        return cols
    return to_fractions(frame.columns)


def integers(values) -> tuple[list[int], int]:
    """Rationals (ints, floats or ``Fraction``s) as integers over their
    least common denominator D: the list of D v, and D."""
    ratios = [v.as_integer_ratio() for v in values]
    den = lcm(*(q for _, q in ratios))
    return [p * (den // q) for p, q in ratios], den


def integer_columns(frame, rational=None) -> tuple[list[list[int]], int]:
    """The columns of ``frame`` as integer vectors D phi_k over one common
    denominator D, and D: the frame's floats, or the ``rational`` entries
    of ``frame_to_fractions``."""
    if rational is None:
        values = frame.matrix.T.ravel().tolist()
    else:
        values = [v for col in frame_to_fractions(frame, rational)
                  for v in col]
    flat, den = integers(values)
    return [flat[i:i + frame.n] for i in range(0, len(flat), frame.n)], den


def f_vector_exact(x: list[Fraction]) -> list[Fraction]:
    """Rational re-implementation of the quadratic transform ([] at N = 1);
    integer entries give an integer vector."""
    n = len(x)
    out = [x[0] * x[0] - x[l] * x[l] for l in range(1, n)]
    for k in range(n - 1):
        out.extend(x[k] * x[j] for j in range(k + 1, n))
    return out


_FRACTION = np.frompyfunc(Fraction, 2, 1)


class Image(NamedTuple):
    """The exact F-image of some columns: the integer d x k matrix ``g``
    over the denominator ``den``, so column k is F(phi_k) = g_k / den."""

    g: np.ndarray  # object dtype, Python ints
    den: int

    def floats(self) -> np.ndarray:
        """F(phi_k), each entry rounded to the nearest float; raises
        ``OverflowError`` rather than round to inf."""
        return (self.g / self.den).astype(float)

    def fractions(self) -> np.ndarray:
        """F(phi_k) as ``Fraction``s."""
        return _FRACTION(self.g, self.den)


def f_image_exact(cols: list[list[int]], den: int, subset) -> Image:
    """The exact F-image of the columns ``subset`` of the integer columns
    ``cols`` over the denominator ``den`` (``integer_columns``)."""
    g = np.array([f_vector_exact(cols[k]) for k in subset], dtype=object)
    return Image(g.T, den * den)


def norm2_exact(x: list[Fraction]) -> Fraction:
    return sum((v * v for v in x), Fraction(0))


def _integer_rows(rows) -> list[list[int]]:
    out = []
    for row in rows:
        row = [Fraction(v) for v in row]
        den = lcm(*(v.denominator for v in row)) if row else 1
        out.append([int(v * den) for v in row])
    return out


def fraction_free_echelon(rows) -> tuple[list[list[int]], list[int]]:
    """Bareiss row echelon form of a rational matrix.

    Rows are first scaled to integers (which leaves the kernel unchanged);
    every division in the Bareiss update is exact, so the echelon form is
    exact integer data.  Returns the echelon matrix and the pivot columns.
    """
    mat = _integer_rows(rows)
    if not mat:
        return [], []
    m, n = len(mat), len(mat[0])
    pivots = []
    prev = 1
    rank = 0
    for col in range(n):
        pr = next((i for i in range(rank, m) if mat[i][col] != 0), -1)
        if pr < 0:
            continue
        if pr != rank:
            mat[rank], mat[pr] = mat[pr], mat[rank]
        p = mat[rank][col]
        for i in range(rank + 1, m):
            hit = mat[i][col]
            for j in range(col, n):
                num = p * mat[i][j] - hit * mat[rank][j]
                q, r = divmod(num, prev)
                if r:
                    raise ArithmeticError("inexact Bareiss division")
                mat[i][j] = q
        prev = p
        pivots.append(col)
        rank += 1
    return mat[:rank], pivots


def rank_exact(rows) -> int:
    return len(fraction_free_echelon(rows)[1])


def kernel_basis(rows) -> list[list[Fraction]]:
    """Basis of {x : R x = 0} for a rational matrix given by rows."""
    if not rows:
        return []
    n = len(rows[0])
    ech, pivots = fraction_free_echelon(rows)
    free = [j for j in range(n) if j not in pivots]
    basis = []
    for fc in free:
        x = [Fraction(0)] * n
        x[fc] = Fraction(1)
        for i in range(len(ech) - 1, -1, -1):
            pc = pivots[i]
            s = sum((Fraction(ech[i][j]) * x[j] for j in range(pc + 1, n)
                     if x[j] != 0), Fraction(0))
            x[pc] = -s / ech[i][pc]
        basis.append(x)
    return basis


def solve_square(a_rows, b) -> list[Fraction] | None:
    """Solve a square rational system A x = b; None when A is singular.

    Reads the kernel of [A | -b] off the Bareiss echelon: x solves the
    system exactly when (x, 1) spans that kernel.  Any other kernel, of
    two or more basis vectors or with last coordinate 0, means A is
    singular.
    """
    kernel = kernel_basis([[*row, -bv] for row, bv in zip(a_rows, b)])
    if len(kernel) != 1 or kernel[0][-1] == 0:
        return None
    return kernel[0][:-1]


def polytope_vertices(a_rows, b) -> list[list[Fraction]]:
    """All vertices of {u >= 0 : A u = b}, by basis enumeration.

    The Bareiss echelon of [A | b] reduces the system to full row rank; a
    pivot in its last column means the system is inconsistent.  Every
    vertex is the unique solution supported on some nonsingular column
    basis of the integer echelon rows, so the enumeration over column
    subsets is exhaustive.  More than ``MAX_BASES`` candidate bases raise
    ``TooLarge``.
    """
    n = len(a_rows[0])
    ech, pivots = fraction_free_echelon(
        [[*row, bv] for row, bv in zip(a_rows, b)])
    if pivots and pivots[-1] == n:
        return []
    r = len(ech)
    if r == 0:  # A = 0 and b = 0: the origin is the only vertex
        return [[Fraction(0)] * n]
    if comb(n, r) > MAX_BASES:
        raise TooLarge(f"vertex enumeration over C({n},{r}) bases refused")
    rhs = [row[-1] for row in ech]
    verts = {}  # keyed by the vertex, in order of first basis
    for cols in combinations(range(n), r):
        sol = solve_square([[row[j] for j in cols] for row in ech], rhs)
        if sol is None or any(s < 0 for s in sol):
            continue
        u = [Fraction(0)] * n
        for j, s in zip(cols, sol):
            u[j] = s
        verts.setdefault(tuple(u), u)
    return list(verts.values())
