"""Exact rational linear algebra for the verification back-end.

Float verdicts elsewhere in the package are cross-checked against routines
in this module, so everything here works over ``Fraction`` entries and is
deliberately independent of the numpy code paths: the transform is
re-evaluated in rational arithmetic, kernels come from fraction-free
(Bareiss) elimination over integers, and feasibility of the normalized
weight polytope is decided by enumerating its basic solutions.

Instances are small by contract (a dozen columns or so), which keeps the
enumeration and the big-integer growth trivial.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm

from .errors import DimensionTooSmall, TooLarge

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


def f_vector_exact(x: list[Fraction]) -> list[Fraction]:
    """Rational re-implementation of the quadratic transform."""
    n = len(x)
    if n < 2:
        raise DimensionTooSmall("the transform needs dimension >= 2")
    out = [x[0] * x[0] - x[l] * x[l] for l in range(1, n)]
    for k in range(n - 1):
        out.extend(x[k] * x[j] for j in range(k + 1, n))
    return out


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


def _rref_augmented(a_rows, b) -> list[list[Fraction]] | None:
    """Reduced row echelon form of [A | b]; None when inconsistent."""
    aug = [[Fraction(v) for v in row] + [Fraction(bv)]
           for row, bv in zip(a_rows, b)]
    m = len(aug)
    n = len(aug[0]) - 1
    rank = 0
    for col in range(n):
        pr = next((i for i in range(rank, m) if aug[i][col] != 0), -1)
        if pr < 0:
            continue
        aug[rank], aug[pr] = aug[pr], aug[rank]
        piv = aug[rank][col]
        aug[rank] = [v / piv for v in aug[rank]]
        for i in range(m):
            if i != rank and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [v - f * p for v, p in zip(aug[i], aug[rank])]
        rank += 1
    for i in range(rank, m):
        if aug[i][-1] != 0:
            return None
    return aug[:rank]


def solve_square(a_rows, b) -> list[Fraction] | None:
    """Solve a square rational system; None when singular."""
    n = len(a_rows)
    aug = [[Fraction(v) for v in row] + [Fraction(bv)]
           for row, bv in zip(a_rows, b)]
    for col in range(n):
        pr = next((i for i in range(col, n) if aug[i][col] != 0), -1)
        if pr < 0:
            return None
        aug[col], aug[pr] = aug[pr], aug[col]
        piv = aug[col][col]
        aug[col] = [v / piv for v in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [v - f * p for v, p in zip(aug[i], aug[col])]
    return [aug[i][-1] for i in range(n)]


def polytope_vertices(a_rows, b) -> list[list[Fraction]]:
    """All vertices of {u >= 0 : A u = b}, by basis enumeration.

    The system is first reduced to full row rank; every vertex is the
    unique solution supported on some nonsingular column basis, so the
    enumeration over column subsets is exhaustive.  More than
    ``MAX_BASES`` candidate bases raise ``TooLarge``.
    """
    reduced = _rref_augmented(a_rows, b)
    if reduced is None:
        return []
    r = len(reduced)
    n = len(a_rows[0])
    if r == 0:
        # A = 0: feasible iff b = 0, and then the only vertex set is empty
        # support; with the normalization row present r >= 1 always.
        return [[Fraction(0)] * n]
    from math import comb
    if comb(n, r) > MAX_BASES:
        raise TooLarge(f"vertex enumeration over C({n},{r}) bases refused")
    verts = []
    seen = set()
    for cols in combinations(range(n), r):
        sub = [[reduced[i][j] for j in cols] for i in range(r)]
        rhs = [reduced[i][-1] for i in range(r)]
        sol = solve_square(sub, rhs)
        if sol is None or any(s < 0 for s in sol):
            continue
        u = [Fraction(0)] * n
        for j, s in zip(cols, sol):
            u[j] = s
        key = tuple(u)
        if key not in seen:
            seen.add(key)
            verts.append(u)
    return verts
