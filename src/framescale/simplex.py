"""Dense two-phase simplex over float64 or ``Fraction``.

Problems are given in standard form

    minimize c'x  subject to  A x = b,  x >= 0,

with A dense and small (up to a few hundred rows and columns);
everything the rest of the package needs fits there after adding
slack/surplus variables and splitting free variables.  One tableau routine
serves both number types: ``solve_lp`` runs it over float64 arrays with
small tolerances, ``solve_lp_exact`` over object arrays of ``Fraction``
with zero tolerances, so its verdicts are exact.

Float pivots enter the column with the most negative reduced cost
(Dantzig's rule).  Only degenerate pivots can cycle, so after
``DEGENERATE_RUN`` of them in a row the float simplex enters by Bland's
rule (the first improving column; Math. Oper. Res. 2, 1977) until a pivot
makes progress, which keeps the method finite.  Rational pivots always
use Bland's rule.  The leaving row is the smallest basic index among the
minimal ratios under both rules.  Each result counts its pivots and the
ones taken under Bland's guard.

The final basis is part of the result because the feasibility certificates
elsewhere in the package are read off basic solutions.  An infeasible
result carries the phase-1 duals instead: a Farkas ray y with y'A <= 0 and
y'b > 0, which is how the package turns an empty weight polytope into a
separating direction.  A phase 1 that ends without an optimum raises
``LPNumericalFailure``; a phase 2 that ends without one (unbounded, or out
of iterations) returns its status with its last basic point, which is
still primal feasible.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import LPNumericalFailure

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration limit"

DEFAULT_COST_TOL = 1e-9
DEFAULT_PIVOT_TOL = 1e-11
DEFAULT_FEAS_TOL = 1e-9
MAX_ITERATIONS = 20000
DEGENERATE_RUN = 50  # degenerate float pivots in a row before Bland's rule

_to_fraction = np.frompyfunc(Fraction, 1, 1)


@dataclass
class LPResult:
    status: str
    x: np.ndarray | None            # last basic point unless INFEASIBLE
    objective: float | Fraction | None
    basis: list | None
    ray: np.ndarray | None = None   # Farkas ray of an INFEASIBLE result
    pivots: int = 0                 # simplex pivots, both phases
    guarded: int = 0                # of those, taken by Bland's guard


def _pivot(t: np.ndarray, obj: np.ndarray, basis: list, row: int, col: int):
    pr = t[row] / t[row, col]
    coef = t[:, col].copy()
    coef[row] = 0
    # Rows with a zero multiplier would not change; skipping them saves
    # their update, most of all on Fraction tableaux.
    nz = coef != 0
    if np.any(nz):
        t[nz] -= np.outer(coef[nz], pr)
    t[row] = pr
    if obj[col] != 0:
        obj -= obj[col] * pr
    basis[row] = col


def _run_simplex(t: np.ndarray, obj: np.ndarray, basis: list, ncols: int,
                 cost_tol, pivot_tol, counts: Counter) -> str:
    """Pivot to optimality over the first ``ncols`` columns.

    Float tableaus enter the most negative reduced cost (Dantzig) until
    ``DEGENERATE_RUN`` pivots in a row have made no progress, then Bland's
    first improving column until one does; rational tableaus always take
    Bland's.  ``counts`` adds up the pivots and the guarded ones.
    """
    dantzig = t.dtype != object
    stalled = 0  # consecutive degenerate pivots
    for _ in range(MAX_ITERATIONS):
        if dantzig and stalled < DEGENERATE_RUN:
            entering = int(np.argmin(obj[:ncols]))
            if obj[entering] >= -cost_tol:
                return OPTIMAL
        else:
            entering = -1
            for j in range(ncols):
                if obj[j] < -cost_tol:
                    entering = j
                    break
            if entering < 0:
                return OPTIMAL
            if dantzig:
                counts["guarded"] += 1
        col = t[:, entering]
        # A float entry far below the column's largest one is elimination
        # residue, and pivoting on it wrecks the tableau; exact arithmetic
        # leaves none.
        tol = pivot_tol * max(1, col.max()) if pivot_tol else 0
        rows = np.flatnonzero(col > tol)
        if rows.size == 0:
            return UNBOUNDED
        # b stays nonnegative in exact arithmetic; clamp float drift so a
        # ratio never goes negative.
        ratios = np.maximum(t[rows, -1], 0) / col[rows]
        best = ratios.min()
        # A step within the pivot tolerance counts as no progress: a cycle
        # can consist of such pivots only.
        stalled = 0 if best > pivot_tol else stalled + 1
        # Bland tie-break: among minimal ratios leave the smallest basic index.
        tied = rows[ratios <= best]
        leaving = min(tied, key=lambda i: basis[i])
        _pivot(t, obj, basis, int(leaving), entering)
        counts["pivots"] += 1
    return ITERATION_LIMIT


def _objective_row(t: np.ndarray, basis: list, costs: np.ndarray,
                   zero) -> np.ndarray:
    obj = np.append(costs, zero)
    for i, bi in enumerate(basis):
        if obj[bi] != 0:
            obj -= obj[bi] * t[i]
    return obj


def _extract(t: np.ndarray, basis: list, c: np.ndarray, n: int,
             zero, status: str, counts: Counter) -> LPResult:
    x = np.full(n, zero, dtype=t.dtype)
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = t[i, -1]
    return LPResult(status, x, c @ x, list(basis),
                    pivots=counts["pivots"], guarded=counts["guarded"])


def _two_phase(a: np.ndarray, b: np.ndarray, c: np.ndarray, initial_basis,
               zero, cost_tol, pivot_tol, feas_tol) -> LPResult:
    """The simplex proper, on arrays whose entries are all of the type of
    ``zero`` (float64 arrays, or object arrays of ``Fraction``)."""
    m, n = a.shape
    counts = Counter()
    t = np.hstack([a, b.reshape(-1, 1)])
    neg = t[:, -1] < 0
    t[neg] *= -1

    if initial_basis is not None:
        basis = list(initial_basis)
    else:
        # Phase 1: artificial identity basis, minimize the artificial mass.
        one = zero + 1
        art = np.full((m, m), zero, dtype=t.dtype)
        np.fill_diagonal(art, one)
        t = np.hstack([t[:, :n], art, t[:, -1:]])
        basis = [n + i for i in range(m)]
        costs1 = np.concatenate([np.full(n, zero, dtype=t.dtype),
                                 np.full(m, one, dtype=t.dtype)])
        obj = _objective_row(t, basis, costs1, zero)
        status = _run_simplex(t, obj, basis, n + m, cost_tol, pivot_tol,
                              counts)
        if status != OPTIMAL:
            raise LPNumericalFailure(f"phase 1 ended with {status}")
        if -obj[-1] > feas_tol:
            # The duals of the flipped rows are 1 minus the reduced costs
            # of the artificials; unflipping the rows gives y'A <= 0 and
            # y'b = the phase-1 optimum > 0.
            ray = one - obj[n:n + m]
            ray[neg] *= -1
            return LPResult(INFEASIBLE, None, None, None, ray,
                            counts["pivots"], counts["guarded"])

        # Drive leftover artificials out of the basis; drop redundant rows.
        keep = []
        for i in range(m):
            if basis[i] < n:
                keep.append(i)
                continue
            pivot_col = next((j for j in range(n) if abs(t[i, j]) > pivot_tol),
                             -1)
            if pivot_col >= 0:
                _pivot(t, obj, basis, i, pivot_col)
                keep.append(i)
        if len(keep) < m:
            t = t[keep]
            basis = [basis[i] for i in keep]
        t = np.hstack([t[:, :n], t[:, -1:]])

    obj = _objective_row(t, basis, c, zero)
    status = _run_simplex(t, obj, basis, n, cost_tol, pivot_tol, counts)
    return _extract(t, basis, c, n, zero, status, counts)


def solve_lp(a, b, c, *, initial_basis=None) -> LPResult:
    """Two-phase simplex over float64.

    ``initial_basis`` may name one column per row; those columns must
    already form an identity submatrix of A, with b >= 0, and phase 1 is
    skipped.  ``solve_lp_exact`` takes the same basis.
    """
    a, b, c = (np.asarray(v, dtype=float) for v in (a, b, c))
    res = _two_phase(a, b, c, initial_basis, 0.0,
                     DEFAULT_COST_TOL, DEFAULT_PIVOT_TOL, DEFAULT_FEAS_TOL)
    if res.objective is not None:
        res.objective = float(res.objective)
    return res


def solve_lp_exact(a, b, c, *, initial_basis=None) -> LPResult:
    """The same two-phase simplex over ``Fraction`` entries, zero tolerance.

    Inputs are nested sequences or arrays of ints, floats or Fractions;
    every entry becomes a ``Fraction``.  Statuses, solutions and rays are
    exact (``x`` and ``ray`` are object arrays of ``Fraction``), so a sign
    read off the optimum is a proof.  ``initial_basis`` is as for
    ``solve_lp``.
    """
    a, b, c = (_to_fraction(np.array(v, dtype=object)) for v in (a, b, c))
    return _two_phase(a, b, c, initial_basis, Fraction(0), 0, 0, 0)
