"""Subset-level questions: m-scalability, support reduction, the index.

A frame is m-scalable when some m of its columns already form a scalable
frame.  Enumeration is the last resort: an m = N query reduces entirely to
finding N pairwise-orthogonal columns, a negative full-frame verdict kills
every subset at once, and a positive one pushes its weights to a vertex of
the weight polytope before any enumeration starts (``caratheodory_reduce``):
a subset of their support, of at most dim span{phi_k phi_k^T} columns.

Once the full frame is known scalable, separators prune the enumeration,
which both queries run through one walk (``_SubsetSearch.walk``).  A
direction h with <F(phi_k), h> > 0 for every k in a subset T keeps 0 out
of the convex hull of F_T, so T is not scalable, and neither is any
subset of the columns h clears.  Frames of small redundancy are scalable
only on a nowhere dense set, so almost every candidate of at most d
columns has an affine hull that misses the origin, and its point x
nearest the origin is such an h.  In float mode the walk finds those x
for many candidates with one batched solve (``_separated``), which is
``decide``'s own least-norm kernel and band rule in ``feasibility``, so
this module holds no least-norm solve and no band of its own.  It keeps,
for each x that certifies its own candidate and for each separator of an
earlier ``decide``, the boolean row of the columns it clears, and rejects
without an LP every candidate that lies inside a kept row.  That test is
the re-verification of h on the candidate, and one matrix product tests
a whole chunk of candidates against every row.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import chain, combinations, islice
from math import comb

import numpy as np

from . import exact
from .errors import BudgetExceeded, DimensionMismatch, NumericalStall
from .feasibility import (WOLFE_POS_TOL, Separator, Verdict,
                          _caratheodory_push, _clears, _nearest_points,
                          decide)
from .fmap import f_image
from .frames import (Frame, ScalingWeights, _rank_of_singular_values,
                     make_weights)

DEFAULT_SUBSET_BUDGET = 10 ** 6
DEFAULT_ORTHO_TOL = 1e-10
REDUCE_TOL = 1e-8  # relative residual the weights of a reduction must meet
CHUNK_FIRST, CHUNK_CAP = 8, 1024  # candidates per chunk of the walk
CHUNK_SAMPLE = 64  # candidates of a chunk solved before the others

logger = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class SubsetVerdict:
    scalable: bool
    m: int
    strict: bool
    witness: tuple | None
    weights: ScalingWeights | None
    verdict: Verdict | None = None


@dataclass(frozen=True, slots=True)
class ScalabilityIndex:
    index: int | None         # smallest verified m; None when not scalable
    not_scalable: bool
    unknown_below: int | None  # set when the budget stopped the search
    witness: tuple | None
    weights: ScalingWeights | None


# The one result for a frame that is not scalable: callers that keep
# thousands of results keep one copy.
_NOT_SCALABLE = ScalabilityIndex(None, True, None, None, None)


class _SubsetSearch:
    """The candidate walk of one search: ``decide`` over the subsets of
    each size in ``combinations`` order, skipping those that a separator
    already shows not scalable.

    The separators found so far are kept as the boolean ``rows``, one per
    separator h, true in column k when <F(phi_k), h> is above the
    threshold.  A candidate whose columns are all true in one row is
    rejected without an LP.  Only maximal rows are kept, since a candidate
    under a dropped row is under the row that dropped it.  A separator of
    ``decide`` is kept as the normalized ``Separator.h`` in float mode,
    with the band rule of ``decide`` (``feasibility._clears``) as the
    threshold, so a candidate on which h falls inside the band still goes
    to ``decide``.  Exact mode keeps
    ``Separator.h_exact``, scaled to integers, with threshold 0 over the
    integer F-image of ``exact.f_image_exact``, so every rejection is a
    proof.

    The walk takes candidates in chunks: ``CHUNK_FIRST`` first, so that a
    search that accepts an early candidate pays little, then
    ``CHUNK_CAP``.  Each chunk is tested against the rows at once.  In
    float mode, the candidates of at most d columns, the ones whose affine
    hull generically misses the origin, that no row rejects go to
    ``_separated``, ``decide``'s least-norm kernel on a batch: first an
    evenly spread sample of ``CHUNK_SAMPLE`` of them, then those that the
    sample's rows leave.  The row of each least-norm point x it certifies
    is kept, by the same band rule, so one x rejects every candidate
    inside the columns it clears, not only its own.  The F-image is built
    when the walk or the first separator needs it.
    """

    def __init__(self, frame: Frame, mode: str):
        self.frame = frame
        self.mode = mode
        self.g = None
        self.rows = np.zeros((0, frame.m), dtype=bool)
        self.tried = self.rejected = self.solved = 0

    def walk(self, pool, m: int, accept, budget: int):
        """The first size-m subset of ``pool`` whose verdict passes
        ``accept``, with that verdict, or None when there is none.

        Every candidate counts in ``tried``, and one that a separator
        rejects without ``decide`` also in ``rejected``; ``solved`` counts
        the systems of the batched least-norm solve.  The walk raises
        ``BudgetExceeded`` rather than try more than ``budget`` candidates
        over the life of the search.
        """
        candidates = combinations(pool, m)
        left = comb(len(pool), m)
        batched = self.mode == "float" and m <= self._image().shape[0]
        size = CHUNK_FIRST
        while left:
            room = min(size, budget - self.tried, left)
            if room <= 0:
                raise BudgetExceeded(
                    f"more than {budget} subsets in the search")
            cols = np.fromiter(chain.from_iterable(islice(candidates, room)),
                               np.intp, count=room * m).reshape(room, m)
            left -= room
            size = CHUNK_CAP
            todo = np.flatnonzero(~self._covered(cols))
            if batched and todo.size:
                step = -(-todo.size // CHUNK_SAMPLE)
                self._certify(cols[todo[::step]])
                todo = todo[~self._covered(cols[todo])]
                if step > 1 and todo.size:
                    self._certify(cols[todo])
                    todo = todo[~self._covered(cols[todo])]
            done = 0
            for i in todo.tolist():
                self.tried += i - done
                self.rejected += i - done
                done = i + 1
                idx = tuple(cols[i].tolist())
                v = self.decide(idx)
                if v is not None and accept(v):
                    return idx, v
            self.tried += room - done
            self.rejected += room - done
        return None

    def decide(self, idx: tuple) -> Verdict | None:
        """The verdict on ``idx``, or None when a kept separator rejects it."""
        self.tried += 1
        if self._covered(np.array([idx], dtype=np.intp))[0]:
            self.rejected += 1
            return None
        v = decide(self.frame, idx, mode=self.mode)
        if isinstance(v.certificate, Separator):
            self._keep(self._row(v.certificate)[None])
        return v

    def _row(self, sep: Separator) -> np.ndarray:
        """The columns that a separator of ``decide`` clears."""
        if self.mode == "exact":
            h = np.array(exact.integers(sep.h_exact)[0], dtype=object)
            return (h @ self._image() > 0).astype(bool)
        return _clears(sep.h, self._image())

    def _image(self) -> np.ndarray:
        """The F-image of the frame, over the integers in exact mode."""
        if self.g is None:
            self.g = (exact.f_image_exact(*exact.integer_columns(self.frame),
                                          range(self.frame.m)).g
                      if self.mode == "exact"
                      else f_image(self.frame).matrix)
        return self.g

    def _certify(self, cols: np.ndarray) -> None:
        """Keep the rows that ``_separated`` certifies for the candidates
        ``cols``."""
        self.solved += len(cols)
        self._keep(_separated(self.g, cols))

    def _covered(self, cols: np.ndarray) -> np.ndarray:
        """Which candidates, the rows of ``cols``, lie inside a kept row:
        those with as many columns in some row as they have columns."""
        members = np.zeros((len(cols), self.frame.m), dtype=np.float32)
        members[np.arange(len(cols))[:, None], cols] = 1.0
        hits = self.rows.astype(np.float32) @ members.T
        return (hits == cols.shape[1]).any(axis=0)

    def _keep(self, rows: np.ndarray) -> None:
        """Add the nonempty ``rows`` to the kept ones, keeping only the
        maximal rows, and the first of equal ones."""
        if not rows.any():
            return
        rows = np.concatenate([self.rows, rows[rows.any(axis=1)]])
        ones = rows.astype(np.float32)
        inside = (1.0 - ones) @ ones.T == 0.0  # [j, i]: row i inside row j
        order = np.arange(len(rows))
        before = order[:, None] < order  # [j, i]: row j comes before row i
        self.rows = rows[~(inside & (~inside.T | before)).any(axis=0)]

    def log(self, query: str) -> None:
        logger.debug("%s: %d subsets enumerated, %d sent to the batched "
                     "least-norm solve, %d rejected by a separator without "
                     "decide, %d sent to decide", query, self.tried,
                     self.solved, self.rejected, self.tried - self.rejected)


def _separated(g: np.ndarray, chunk: np.ndarray) -> np.ndarray:
    """The columns of the float F-image g that the least-norm separator of
    each candidate clears, one boolean row per candidate (a row of
    ``chunk``, of at most d columns), false throughout for a candidate it
    does not certify.

    One call of ``decide``'s kernel, ``feasibility._nearest_points``, on the
    whole chunk gives each candidate's point x of its affine hull nearest
    the origin, and its row is the columns of g that x clears by
    ``feasibility._clears``, the band rule of ``decide`` and of the kept
    rows.  The candidate is certified when its own columns are all in the
    row; that test re-verifies x, however accurate the solve is.  A chunk
    with a zero column or an exactly singular K certifies nothing, and
    neither does a candidate whose x is not finite.
    """
    x = _nearest_points(g.T[chunk])
    if x is None:
        return np.zeros((len(chunk), g.shape[1]), dtype=bool)
    rows = _clears(x, g)
    rows &= rows[np.arange(len(chunk))[:, None], chunk].all(axis=1,
                                                           keepdims=True)
    return rows


def orthogonal_subbasis(frame: Frame) -> tuple | None:
    """N pairwise-orthogonal nonzero columns, or None.

    Existence is equivalent to N-scalability (and to strict
    N-scalability).  Orthogonality is relative: |<phi_i, phi_j>| <=
    ``DEFAULT_ORTHO_TOL`` |phi_i| |phi_j|.  Repeated identical columns
    never qualify as distinct members, since they are not orthogonal to
    each other.
    """
    norms = frame.norms()
    gram = np.abs(frame.matrix.T @ frame.matrix)
    orthogonal = gram <= DEFAULT_ORTHO_TOL * np.outer(norms, norms)
    # A member is orthogonal to the N - 1 others, all of them nonzero.
    nonzero = norms > 0.0
    partners = orthogonal[:, nonzero].sum(axis=1)
    cand = np.flatnonzero(nonzero & (partners >= frame.n - 1)).tolist()
    if len(cand) < frame.n:
        return None
    orthogonal = orthogonal.tolist()

    def extend(chosen: list, start: int):
        if len(chosen) == frame.n:
            return tuple(chosen)
        for pos in range(start, len(cand)):
            k = cand[pos]
            if all(orthogonal[k][c] for c in chosen):
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
    order, except those that a least-norm separator of their own columns
    or a separator kept from an earlier candidate shows not scalable (see
    ``_SubsetSearch``).  When every pruning rule fails and the subset count
    exceeds ``budget``, the query raises ``BudgetExceeded`` rather than
    guessing.
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
    found = search.walk(pool, m,
                        lambda v: v.scalable and (v.strict or not strict),
                        budget)
    search.log("is_m_scalable")
    if found is None:
        return SubsetVerdict(False, m, False, None, None, None)
    idx, v = found
    return SubsetVerdict(True, m, v.strict, idx, v.certificate, v)


def _pad(support, m: int, total: int) -> tuple:
    rest = [k for k in range(total) if k not in support]
    return tuple(sorted([*support, *rest[:m - len(support)]]))


def caratheodory_reduce(frame: Frame,
                        weights: ScalingWeights) -> ScalingWeights:
    """Move verified weights to a vertex of the weight polytope on their
    support with no LP, preserving the tightness identity.

    On their support S, without zero columns and weights at most
    ``WOLFE_POS_TOL``, ``feasibility._caratheodory_push`` (the step that
    starts phase 2 of ``decide``) moves the weights along the kernel of
    [F_S; 1'], the right singular vectors of its scaled rows past the rank
    of ``numerical_rank``.  A push that zeroes two weights leaves one of
    rounding size, which leaves S before the kernel is taken again, until
    it is empty.  The new support T is then a subset of S with independent
    columns (F(phi_k), 1).  Since F vanishes only on multiples of the
    identity, which the outer products on a scalable T span, |T| is at
    most dim span{phi_k phi_k^T : k in T} <= N(N+1)/2.
    """
    if not weights.verify(frame, REDUCE_TOL):
        raise ValueError("input weights do not verify on this frame")
    g = f_image(frame).matrix
    g = g / (np.max(np.abs(g), initial=0.0) or 1.0)
    u = np.where(frame.norms() > 0.0, weights.u, 0.0)
    while True:
        u[u <= WOLFE_POS_TOL] = 0.0
        support = np.flatnonzero(u)
        a = np.vstack([g[:, support], np.ones(len(support))])
        _, sv, vt = np.linalg.svd(a)
        rank = _rank_of_singular_values(sv, a.shape)
        if rank == len(support):
            break
        pushed = u[support]
        if _caratheodory_push(pushed, vt[rank:]) is None:
            raise NumericalStall("no push along the kernel on the support")
        u[support] = pushed
    result = make_weights(frame, u)
    if result.residual > REDUCE_TOL * result.alpha:
        raise NumericalStall(
            f"reduced weights verify poorly: residual {result.residual:.3e}")
    return result


def scalability_index(frame: Frame, *, budget: int = DEFAULT_SUBSET_BUDGET,
                      mode: str = "float") -> ScalabilityIndex:
    """Smallest m for which the frame is m-scalable.

    Starts from the support-reduced weights (an upper bound no worse than
    the dimension of the outer-product span) and walks downward by
    enumeration; m = N is settled by the orthogonal-subbasis criterion.
    One candidate walk (``_SubsetSearch``), with one set of kept
    separators, serves every size.  Subsets that a separator rejects,
    their own least-norm one or a kept one, skip ``decide`` but still count
    against ``budget``.  On budget exhaustion the best verified upper bound
    is returned with an explicit marker for the smallest unexplored size.
    Every frame that is not scalable gets one shared result.
    """
    full = decide(frame, mode=mode)
    if not full.scalable:
        return _NOT_SCALABLE
    basis = orthogonal_subbasis(frame)
    if basis is not None:
        v = decide(frame, basis, mode=mode)
        return ScalabilityIndex(frame.n, False, None, basis, v.certificate)
    reduced = caratheodory_reduce(frame, full.certificate)
    best = len(reduced.support)
    witness = reduced.support
    weights = reduced
    search = _SubsetSearch(frame, mode)
    unknown_below = None
    m = best - 1
    while m > frame.n:  # m = n settled above: no orthogonal subbasis
        try:
            found = search.walk(range(frame.m), m, lambda v: v.scalable,
                                 budget)
        except BudgetExceeded:
            unknown_below = m
            break
        if found is None:
            break
        witness, v = found
        weights = v.certificate
        best = m
        m -= 1
    search.log("scalability_index")
    return ScalabilityIndex(best, False, unknown_below, witness, weights)
