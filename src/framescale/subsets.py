"""Subset-level questions: m-scalability, support reduction, the index.

A frame is m-scalable when some m of its columns already form a scalable
frame.  Enumeration is the last resort: an m = N query reduces entirely to
finding N pairwise-orthogonal columns, a negative full-frame verdict kills
every subset at once, and a positive one can be compressed below the
dimension of the outer-product span before any enumeration starts.

Once the full frame is known scalable, separators prune the enumeration.
A direction h with <F(phi_k), h> > 0 for every k in a subset T keeps 0 out
of the convex hull of F_T, so T is not scalable.  Each search keeps the
separators its subset decides return and rejects a later candidate without
an LP when a kept h clears the threshold on every column of it; that test
is the re-verification of h on the candidate.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .errors import BudgetExceeded, DimensionMismatch, NumericalStall
from .exact import f_vector_exact, frame_to_fractions, kernel_basis
from .feasibility import DEFAULT_BOUNDARY_BAND, Separator, Verdict, decide
from .fmap import f_image, outer_svec_rows
from .frames import Frame, ScalingWeights, make_weights, numerical_rank

DEFAULT_SUBSET_BUDGET = 10 ** 6
DEFAULT_ORTHO_TOL = 1e-10

# Singular value (relative) below which a dependence among outer products
# is accepted during support reduction.
DEPENDENCE_TOL = 1e-8

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SubsetVerdict:
    scalable: bool
    m: int
    strict: bool
    witness: tuple | None
    weights: ScalingWeights | None
    verdict: Verdict | None = None


@dataclass(frozen=True)
class ScalabilityIndex:
    index: int | None         # smallest verified m; None when not scalable
    not_scalable: bool
    unknown_below: int | None  # set when the budget stopped the search
    witness: tuple | None
    weights: ScalingWeights | None


class _SubsetSearch:
    """``decide`` over the candidate subsets of one search, pruned by the
    separators found so far.

    Row r of ``pos`` marks the columns k with <F(phi_k), h_r> above the
    threshold, for the r-th kept separator h_r.  A candidate marked in
    every column of some row is rejected without an LP.  Float mode keeps
    the normalized ``Separator.h`` with ``DEFAULT_BOUNDARY_BAND`` as the
    threshold, the margin ``decide`` accepts a float separator with, so a
    candidate on which h falls inside the band still goes to ``decide``.
    Exact mode keeps ``Separator.h_exact`` with threshold 0 over the
    rational F-image, so every rejection is a proof.  The F-image is built
    when the first separator arrives.
    """

    def __init__(self, frame: Frame, mode: str):
        self.frame = frame
        self.mode = mode
        self.g = None
        self.pos = np.zeros((0, frame.m), dtype=bool)
        self.tried = self.rejected = 0

    def decide(self, idx: tuple) -> Verdict | None:
        """The verdict on ``idx``, or None when a kept separator rejects it."""
        self.tried += 1
        if self.pos[:, list(idx)].all(axis=1).any():
            self.rejected += 1
            return None
        v = decide(self.frame, idx, mode=self.mode)
        if isinstance(v.certificate, Separator):
            self._keep(v.certificate)
        return v

    def _keep(self, sep: Separator) -> None:
        if self.mode == "exact":
            if self.g is None:
                self.g = np.array([f_vector_exact(c) for c in
                                   frame_to_fractions(self.frame)],
                                  dtype=object).T
            row = np.array(sep.h_exact, dtype=object) @ self.g > 0
        else:
            if self.g is None:
                self.g = f_image(self.frame).matrix
            row = sep.h @ self.g > DEFAULT_BOUNDARY_BAND
        self.pos = np.vstack([self.pos, row])

    def log(self, query: str) -> None:
        logger.debug("%s: %d subsets enumerated, %d rejected by a kept "
                     "separator, %d sent to decide", query, self.tried,
                     self.rejected, self.tried - self.rejected)


def orthogonal_subbasis(frame: Frame,
                        tol: float = DEFAULT_ORTHO_TOL) -> tuple | None:
    """N pairwise-orthogonal nonzero columns, or None.

    Existence is equivalent to N-scalability (and to strict
    N-scalability).  Orthogonality is relative: |<phi_i, phi_j>| <=
    tol |phi_i| |phi_j|.  Repeated identical columns never qualify as
    distinct members, since they are not orthogonal to each other.
    """
    norms = frame.norms()
    cand = [k for k in range(frame.m) if norms[k] > 0.0]
    if len(cand) < frame.n:
        return None
    gram = np.abs(frame.matrix.T @ frame.matrix)
    bound = tol * np.outer(norms, norms)

    def extend(chosen: list, start: int):
        if len(chosen) == frame.n:
            return tuple(chosen)
        for pos in range(start, len(cand)):
            k = cand[pos]
            if all(gram[k, c] <= bound[k, c] for c in chosen):
                hit = extend(chosen + [k], pos + 1)
                if hit:
                    return hit
        return None

    return extend([], 0)


def is_m_scalable(frame: Frame, m: int, strict: bool = False, *,
                  budget: int = DEFAULT_SUBSET_BUDGET,
                  mode: str = "float") -> SubsetVerdict:
    """Does some size-m column subset form a (strictly) scalable frame?

    Positive answers always carry a witness subset re-verified by
    ``decide``.  Candidates go through ``decide`` in ``combinations``
    order, except those that a separator kept from an earlier candidate
    rejects (see ``_SubsetSearch``).  When every pruning rule fails and
    the subset count exceeds ``budget``, the query raises
    ``BudgetExceeded`` rather than guessing.
    """
    if not frame.n <= m <= frame.m:
        raise DimensionMismatch(f"need {frame.n} <= m <= {frame.m}, got {m}")
    full = decide(frame, mode=mode)
    if not full.scalable:
        # No subset can beat the whole frame: subset weights pad with zeros.
        return SubsetVerdict(False, m, False, None, None, full)
    if m == frame.n:
        basis = orthogonal_subbasis(frame)
        if basis is None:
            return SubsetVerdict(False, m, False, None, None, None)
        v = decide(frame, basis, mode=mode)
        return SubsetVerdict(True, m, v.strict, basis, v.certificate, v)

    pool = list(range(frame.m))
    if strict:
        norms = frame.norms()
        pool = [k for k in pool if norms[k] > 0.0]
        if len(pool) < m:
            return SubsetVerdict(False, m, False, None, None, None)
    else:
        reduced = caratheodory_reduce(frame, full.certificate)
        if len(reduced.support) <= m:
            witness = _pad(reduced.support, m, frame.m)
            v = decide(frame, witness, mode=mode)
            if v.scalable:
                return SubsetVerdict(True, m, v.strict, witness,
                                     v.certificate, v)

    if comb(len(pool), m) > budget:
        raise BudgetExceeded(
            f"C({len(pool)},{m}) subsets exceed the budget {budget}")
    search = _SubsetSearch(frame, mode)
    result = SubsetVerdict(False, m, False, None, None, None)
    for idx in combinations(pool, m):
        v = search.decide(idx)
        if v is not None and v.scalable and (v.strict or not strict):
            result = SubsetVerdict(True, m, v.strict, idx, v.certificate, v)
            break
    search.log("is_m_scalable")
    return result


def _pad(support, m: int, total: int) -> tuple:
    chosen = list(support)
    for k in range(total):
        if len(chosen) >= m:
            break
        if k not in support:
            chosen.append(k)
    return tuple(sorted(chosen))


def caratheodory_reduce(frame: Frame, weights: ScalingWeights, *,
                        tol: float = 1e-8) -> ScalingWeights:
    """Shrink the support of verified weights to at most dim span of the
    outer products, preserving the tightness identity.

    Norms are first absorbed into the weights so the outer products become
    projections; while the support exceeds the rank of their span, some
    dependence (automatically affine, by the trace) is subtracted with the
    largest step that keeps the weights nonnegative, killing at least one
    support point per round.
    """
    if not weights.verify(frame, tol):
        raise ValueError("input weights do not verify on this frame")
    norms = frame.norms()
    u = np.array(weights.u, dtype=float)
    u[norms == 0.0] = 0.0  # zero columns contribute nothing
    w = u * norms ** 2     # unit-norm absorbed weights
    for _ in range(frame.m + 1):
        support = np.flatnonzero(w > 0.0)
        rows = outer_svec_rows(frame, support)
        rows = rows / (norms[support] ** 2)[:, None]
        rank = numerical_rank(rows)
        if len(support) <= rank:
            break
        lam = _dependence(frame, support, rows)
        if np.max(lam) <= 0.0:
            lam = -lam
        ws = w[support]
        steps = np.full(len(support), np.inf)
        pos = lam > 0.0
        steps[pos] = ws[pos] / lam[pos]
        kill = int(np.argmin(steps))
        theta = steps[kill]
        ws = ws - theta * lam
        ws[kill] = 0.0
        ws[ws < 0.0] = 0.0
        # tied ratios leave ulp-level residue on entries that hit zero
        # together with the killed one
        ws[ws <= 1e-12 * ws.max()] = 0.0
        w[:] = 0.0
        w[support] = ws
    else:
        raise NumericalStall("support reduction did not terminate")
    out = np.zeros(frame.m)
    nz = w > 0.0
    out[nz] = w[nz] / norms[nz] ** 2
    result = make_weights(frame, out)
    if result.residual > tol * result.alpha:
        raise NumericalStall(
            f"reduced weights verify poorly: residual {result.residual:.3e}")
    return result


def _dependence(frame: Frame, support, rows: np.ndarray) -> np.ndarray:
    """A nonzero combination of the support projections summing to zero."""
    lam = _left_null_vector(rows)
    if lam is not None:
        return lam
    # Exact fallback: the projections are rational whenever the frame
    # entries are, so the dependence can be read off an exact kernel.
    cols = frame_to_fractions(frame)
    exact_rows = []
    for k in support:
        col = cols[k]
        n2 = sum(v * v for v in col)
        exact_rows.append([col[i] * col[j] / n2
                           for i in range(frame.n) for j in range(i, frame.n)])
    basis = kernel_basis([[row[i] for row in exact_rows]
                          for i in range(len(exact_rows[0]))])
    if not basis:
        raise NumericalStall("no dependence found despite the rank bound")
    return np.array([float(v) for v in basis[0]])


def _left_null_vector(rows: np.ndarray) -> np.ndarray | None:
    """Unit lambda with lambda' rows ~ 0, if one exists numerically."""
    u, sing, _ = np.linalg.svd(rows, full_matrices=True)
    smax = sing[0] if sing.size else 0.0
    k = rows.shape[0]
    if sing.size < k:
        return u[:, -1]
    if sing[-1] <= DEPENDENCE_TOL * max(smax, 1e-300):
        return u[:, -1]
    return None


def scalability_index(frame: Frame, *, budget: int = DEFAULT_SUBSET_BUDGET,
                      mode: str = "float") -> ScalabilityIndex:
    """Smallest m for which the frame is m-scalable.

    Starts from the support-reduced weights (an upper bound no worse than
    the dimension of the outer-product span) and walks downward by
    enumeration; m = N is settled by the orthogonal-subbasis criterion.
    One set of kept separators serves every size of the walk, and subsets
    that one of them rejects skip ``decide`` but still count against
    ``budget``.  On budget exhaustion the best verified upper bound is
    returned with an explicit marker for the smallest unexplored size.
    """
    full = decide(frame, mode=mode)
    if not full.scalable:
        return ScalabilityIndex(None, True, None, None, None)
    basis = orthogonal_subbasis(frame)
    if basis is not None:
        v = decide(frame, basis, mode=mode)
        return ScalabilityIndex(frame.n, False, None, basis, v.certificate)
    reduced = caratheodory_reduce(frame, full.certificate)
    best = len(reduced.support)
    witness = reduced.support
    weights = reduced
    search = _SubsetSearch(frame, mode)
    used = 0
    unknown_below = None
    m = best - 1
    while m > frame.n:  # m = n settled above: no orthogonal subbasis
        found = None
        for idx in combinations(range(frame.m), m):
            used += 1
            if used > budget:
                unknown_below = m
                break
            v = search.decide(idx)
            if v is not None and v.scalable:
                found = (idx, v)
                break
        if found is None:
            break
        witness, v = found
        weights = v.certificate
        best = m
        m -= 1
    search.log("scalability_index")
    return ScalabilityIndex(best, False, unknown_below, witness, weights)
