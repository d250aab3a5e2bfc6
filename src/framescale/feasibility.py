"""The decision core: can a frame be rescaled into a tight frame?

A frame is scalable exactly when 0 lies in the convex hull of the
transformed columns F(phi_k), and strictly scalable when it lies in the
relative interior; otherwise a direction h separates them all,
<F(phi_k), h> > 0.  ``decide`` answers both questions with the
max-min-weight program

    maximize s  subject to  F u = 0,  sum u = 1,  u = v + s 1,  v, s >= 0.

In float mode, the columns are first read off their least-norm weights
mu: the affine weights of the point x = F mu of their affine hull nearest
the origin, the least-norm point of {F u = 0, sum u = 1} when x is the
origin.  x has <x, F(phi_k)> = |x|^2 for every k, so an x away from the
origin is the separator.  This is why frames of small redundancy are
scalable only on a nowhere dense set: k <= d generic columns have an
affine hull that misses the origin.  For k <= d + 1 affinely independent
columns at the origin, mu is the only point of {F u = 0, sum u = 1}, and
when mu >= 0 the weight polytope is {mu}, with no LP.  For more than
d + 1 columns with mu > 0, the constructive step of Caratheodory's
theorem, ``_caratheodory_push``, which ``subsets.caratheodory_reduce``
shares, moves mu along the kernel onto d + 1 columns, and phase 2 runs
from there to the optimum s*.  Otherwise Wolfe's minimum-norm-point
algorithm (Math. Prog. 11, 1976) runs on the columns.  A point x of their
hull with min_k <x, F(phi_k)> > 0 is the separator, and no LP runs.  When
x reaches the origin, phase 2 runs from Wolfe's corral.  Both enter
phase 2 through ``_phase_2``: by Caratheodory's theorem a point of the
weight polytope on at most d + 1 columns is a vertex, a basic feasible
solution, once the lowest-index columns outside complete those columns
to d + 1 with weight 0, and the basis is used when it is well conditioned
and feasible.  The basis only sets where phase 2 starts, not s*.
Otherwise the program runs
as a two-phase simplex: its phase 1 is phase 1 on the weight polytope
{F u = 0, sum u = 1, u >= 0}, and when that polytope is empty the Farkas
duals y = (h, s) satisfy -h'F(phi_k) >= s > 0 for every k, so -h is the
separator.  The phase-2 point is the weights certificate.

Mode ``"exact"`` reads the frame as integer columns over one common
denominator, whose transform is an integer matrix (``exact.Image``), and
runs this float program first on that image rounded to floats.  A frame
is not scalable exactly when some h has <h, F(phi_k)> > 0 for every k, so
a float separator is a candidate proof: every float is a dyadic rational,
so h scales to an integer vector H, and min_k <H, G_k> > 0 over the
integer image G, O(d k) integer products, proves it with no rational
pivot (``_exact_separator``, as QSopt_ex checks float LP answers).  When
the float program finds weights, its separator fails that check, or the
columns overflow a float, the two-phase program runs with rational
pivots on ``Fraction`` columns, so scalable exact verdicts always come
from it, and its Farkas separator passes the same check.

Each certificate rule is stated once, here:

- a weight at most ``WOLFE_POS_TOL`` counts as zero in float mode, and
  s* is strict above it (above 0 in exact mode).  A float s* at most it
  leaves the weights on the phase-2 vertex, with support at most d + 1;
- weights are re-checked on the frame, tight to ``tol_tight`` alpha;
- a separator h is re-checked by its margin, min_k <h, F(phi_k)> at
  |h|_inf = 1 (``separator_margin``).  A float separator whose margin is
  at most ``DEFAULT_BOUNDARY_BAND`` is flagged and checked in rationals;
  when that check fails, it is re-decided by the rational LP if at most
  ``EXACT_CAP`` columns are active.

``separator_search`` runs Wolfe's algorithm on to the minimum-norm point,
the separator of largest margin at |h|_2 = 1 (Wolfe's algorithm is the
only separator engine), for callers that want the best margin;
``exact_oracle`` (vertex enumeration) is the reference.
"""

from __future__ import annotations

import logging
from collections import namedtuple
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from . import exact, simplex
from .errors import (DimensionTooSmall, FrameScaleError, Infeasible,
                     LPNumericalFailure, NotStrictlyScalable, TooLarge,
                     ZeroColumn)
from .fmap import FImage, f_image, f_vector
from .frames import (DEFAULT_TIGHT_TOL, Frame, ScalingWeights, _all_columns,
                     _frozen, make_weights, numerical_rank)

DEFAULT_BOUNDARY_BAND = 1e-9  # a float separator's margin must clear this
EXACT_CAP = 12  # most active columns an exact escalation is tried on

# Wolfe's tolerances (his Z1-Z3), relative to the largest squared column
# norm except for the weights, which sum to 1.
WOLFE_OPT_TOL = 1e-12    # x is the minimum-norm point: <x, g_j> >= |x|^2 - tol
# A float weight at most this is zero: it leaves Wolfe's corral, declines
# the least-norm weights and the reduced support, and an s* at most this
# is not strict.
WOLFE_POS_TOL = 1e-10
WOLFE_ZERO_TOL = 1e-20   # x is the origin: |x|^2 <= tol
WOLFE_MAX_MAJOR = 5      # major cycles per column before Wolfe gives up
WOLFE_MAX_COND = 1e12    # a corral basis above this condition is singular
WOLFE_UPDATE_TOL = 1e-10  # kept K^-1 lost accuracy: pivot or residual past it

logger = logging.getLogger(__name__)

SignWitness = namedtuple("SignWitness", "i j sign")
ConeFlags = namedtuple("ConeFlags", "pointed polar_interior_empty")
Wolfe = namedtuple("Wolfe", "x corral stop major minor refreshes",
                   defaults=(0,))
# u and s* on a nonempty weight polytope, else the separator h
WeightProgram = namedtuple("WeightProgram", "u s_star h route")
# a separator checked in rationals: h at |h|_inf = 1 and its margin
ExactSeparator = namedtuple("ExactSeparator", "h margin")


@dataclass(frozen=True, slots=True)
class Separator:
    """A direction with strictly positive margin against every tested
    transformed column; certifies that the tested subset is not scalable."""

    h: np.ndarray
    margin: float
    indices: tuple
    h_exact: tuple | None = field(default=None, compare=False)
    margin_exact: object | None = field(default=None, compare=False)

    def verify(self, fi: FImage) -> float:
        """Recompute the margin (``separator_margin``)."""
        return float(separator_margin(self.h, fi.columns(self.indices)))


def separator_margin(h: np.ndarray, g: np.ndarray):
    """The margin min_k <h, g_k> of the direction h on the columns g, with
    h scaled to |h|_inf = 1 first, over floats or ``Fraction``s: h
    separates exactly when it is positive.  Every separator is checked by
    this margin."""
    return np.min(h / np.max(np.abs(h)) @ g)


@dataclass(frozen=True, slots=True)
class Verdict:
    """Outcome of ``decide``.

    ``t_star`` is the re-verified margin of the separator
    (``separator_margin``) on non-scalable verdicts and 0.0 on scalable
    ones.  A float separator is the point x = F mu of the least-norm
    weights mu of k <= d columns, the point of their affine hull nearest
    the origin, with margin |x|^2 / |x|_inf; or
    Wolfe's point, taken once its margin at |h|_inf = 1 clears
    ``DEFAULT_BOUNDARY_BAND`` or at the minimum-norm point; or the Farkas
    one when the two-phase fallback runs.  So t* is a certified margin but
    not the best one: ``separator_search`` gives the separator of largest
    margin at |h|_2 = 1, with its margin reported at |h|_inf = 1.  In
    exact mode, and in ``exact_oracle``, t* is the exact margin of that
    float separator, checked in rationals, or of the Farkas separator of
    the rational program when the check fails.  ``s_star`` is the optimum
    of the max-min-weight program on scalable verdicts, whichever basis
    phase 2 started from, or min mu when the least-norm weights mu are the
    whole weight polytope; ``None`` there means that phase 2 did not reach
    its optimum, so strictness was not determined (``strict`` is False
    then and the weights are its last, verified point).  A float s* at most
    ``WOLFE_POS_TOL`` is not strict, and its weights are the phase-2
    vertex, on at most d + 1 columns.  ``boundary_flag`` marks a float
    separator whose margin is at most ``DEFAULT_BOUNDARY_BAND``, and a
    float certificate that failed its re-check.
    """

    scalable: bool
    strict: bool
    certificate: object | None  # ScalingWeights | Separator | None
    boundary_flag: bool
    t_star: float | None
    s_star: float | None
    subset: tuple
    spans: bool
    resolved_by: str  # "float" or "exact"

    @property
    def support_size(self) -> int | None:
        if isinstance(self.certificate, ScalingWeights):
            return self.certificate.support_size
        return None


def _normalize_subset(frame: Frame, subset) -> tuple:
    if subset is None:
        return _all_columns(frame.m)
    idx = tuple(sorted(int(k) for k in subset))
    if not idx:
        raise ValueError("subset must be nonempty")
    if len(set(idx)) != len(idx) or idx[0] < 0 or idx[-1] >= frame.m:
        raise ValueError(f"subset {idx} is not a set of column indices")
    return idx


def _active_columns(frame: Frame, subset) -> tuple:
    if not frame.degenerate:  # no zero column anywhere
        return subset
    active = tuple(k for k in subset if np.any(frame.column(k) != 0.0))
    return subset if active == subset else active  # a separator shares it


def _shifted_gram_inverse(rs: np.ndarray):
    """K^-1 for K = rs rs' + 1 1' (a pseudo-inverse when K is singular) and
    the condition number of K, from one eigendecomposition."""
    vals, vecs = np.linalg.eigh(rs @ rs.T + 1.0)
    keep = vals > 1e-15 * vals[-1]  # the cutoff of numpy's pinv
    kinv = (vecs[:, keep] / vals[keep]) @ vecs[:, keep].T
    return kinv, vals[-1] / vals[0] if vals[0] > 0.0 else np.inf


def _affine_weights(rs: np.ndarray, kinv: np.ndarray):
    """The affine weights mu = K^-1 1 / 1'K^-1 1 of the point of the affine
    hull of the rows rs nearest the origin, K = rs rs' + 1 1', after one
    step of iterative refinement against K; and whether K^-1 held, that is
    whether the residual the step corrects is at most
    ``WOLFE_UPDATE_TOL`` |K^-1 1|_1."""
    y = kinv.sum(axis=1)
    r = 1.0 - rs @ (rs.T @ y) - y.sum()
    held = np.max(np.abs(r)) <= WOLFE_UPDATE_TOL * np.sum(np.abs(y))
    y += kinv @ r
    return y / y.sum(), held


def _wolfe(g: np.ndarray, band=DEFAULT_BOUNDARY_BAND) -> Wolfe:
    """Wolfe's minimum-norm-point algorithm on the float columns g.

    The point x walks through conv(g) towards the origin.  Each major cycle
    adds the column with the least product <x, g_j> to the corral, a set of
    affinely independent columns that carries x with positive weights.
    Each minor cycle moves x towards the point of the corral's affine hull
    nearest the origin and drops the columns whose weight reaches zero on
    the way.  That point has the weights mu = K^-1 1 / 1'K^-1 1 on the
    corral S, where K = G_S / c + 1 1' is its Gram matrix scaled by the
    largest squared column norm c and shifted by the all-ones matrix: K is
    positive definite exactly when S is affinely independent.  K^-1 is
    kept across cycles, bordered when a column enters and downdated when
    one leaves, each in O(|S|^2), and K^-1 1 gets one step of iterative
    refinement against K.  When the bordered pivot (a Schur complement)
    or the residual that refinement corrects shows that the kept inverse
    has lost accuracy, K^-1 is recomputed from the corral; ``refreshes``
    counts those times.
    ``stop`` says why it ended:

    - "separator": min_k <x, g_k> > 0, and either that margin at
      |x|_inf = 1 clears ``band``, by default ``DEFAULT_BOUNDARY_BAND``,
      the band of ``decide``, or x is the minimum-norm point, the
      direction of the largest margin at |x|_2 = 1 (``separator_search``
      passes ``band=None`` to run on to it);
    - "zero": x is the origin up to rounding, so the corral carries a
      point of the weight polytope (at once when d = 0);
    - "stalled": the entering column is already in the corral;
    - "cycle cap": ``WOLFE_MAX_MAJOR`` major cycles per column ran out;
    - "no separation": the minimum-norm point neither is the origin nor
      separates.
    """
    k = g.shape[1]
    norms = np.einsum("ij,ij->j", g, g)
    scale = np.max(norms)
    corral = [int(np.argmin(norms))]
    x = g[:, corral[0]]
    if scale == 0.0:  # d = 0: every column is the origin of R^0
        return Wolfe(x, corral, "zero", 0, 0)
    rows = np.ascontiguousarray(g.T) / np.sqrt(scale)  # K = rs rs' + 1 1'
    kinv = np.array([[1.0 / (norms[corral[0]] / scale + 1.0)]])
    lam = np.ones(1)
    major = minor = refreshes = 0
    while True:
        xx = x @ x
        if xx <= WOLFE_ZERO_TOL * scale:
            return Wolfe(x, corral, "zero", major, minor, refreshes)
        p = x @ g
        j = int(np.argmin(p))
        stop = None
        if band is not None and p[j] > band * np.max(np.abs(x)):
            stop = "separator"
        elif p[j] >= xx - WOLFE_OPT_TOL * scale:
            stop = "separator" if p[j] > 0 else "no separation"
        elif j in corral:
            stop = "stalled"
        elif major == WOLFE_MAX_MAJOR * k:
            stop = "cycle cap"
        if stop is not None:
            return Wolfe(x, corral, stop, major, minor, refreshes)
        major += 1
        corral.append(j)
        lam = np.append(lam, 0.0)
        rs = rows[corral]
        # Border K^-1 with the entering column: its pivot is the Schur
        # complement of K in the bordered matrix.
        col = rs @ rs[-1] + 1.0
        w = kinv @ col[:-1]
        pivot = col[-1] - col[:-1] @ w
        fresh = pivot <= WOLFE_UPDATE_TOL
        if fresh:
            refreshes += 1
        else:
            bordered = np.empty((len(corral), len(corral)))
            bordered[:-1, :-1] = kinv + np.outer(w, w / pivot)
            bordered[:-1, -1] = bordered[-1, :-1] = -w / pivot
            bordered[-1, -1] = 1.0 / pivot
            kinv = bordered
        while True:
            if fresh:
                kinv = _shifted_gram_inverse(rs)[0]
            mu, held = _affine_weights(rs, kinv)
            if not (fresh or held):
                fresh = True
                refreshes += 1
                continue
            fresh = False
            if np.all(mu > WOLFE_POS_TOL):
                lam = mu
                break
            minor += 1
            # Step from lam towards mu until the first weight reaches zero.
            fall = (mu <= WOLFE_POS_TOL) & (lam > mu)
            ratios = np.full(len(corral), np.inf)
            ratios[fall] = lam[fall] / (lam[fall] - mu[fall])
            i = int(np.argmin(ratios))
            lam = lam + min(ratios[i], 1.0) * (mu - lam)
            if ratios[i] <= 1.0:
                lam[i] = 0.0
            # Downdate K^-1 for each leaving column, last first.
            leaving = lam <= WOLFE_POS_TOL
            for q in np.flatnonzero(leaving)[::-1]:
                keep = np.arange(len(corral)) != q
                v = kinv[keep, q]
                kinv = kinv[np.ix_(keep, keep)] - np.outer(v, v / kinv[q, q])
                del corral[q]
            rs = rs[~leaving]
            lam = lam[~leaving]
            lam /= np.sum(lam)
        x = g[:, corral] @ lam


def _caratheodory_push(u: np.ndarray, z: np.ndarray) -> list | None:
    """Caratheodory's constructive step, in place: weights u >= 0 on the
    columns of [g; 1'] move along each row of z, a basis of its kernel,
    until a weight reaches zero; that column leaves, and later rows are
    cleared on it.  Returns the kept columns, or None on a row z_r >= 0."""
    keep = np.ones(len(u), dtype=bool)
    for r, zr in enumerate(z):
        fall = np.flatnonzero(zr < 0.0)
        if fall.size == 0:
            return None
        i = fall[np.argmin(u[fall] / -zr[fall])]
        u += (u[i] / -zr[i]) * zr
        u[i], keep[i] = 0.0, False
        z[r + 1:] -= np.outer(z[r + 1:, i] / zr[i], zr)
        z[r + 1:, i] = 0.0
    return np.flatnonzero(keep).tolist()


def _least_norm(g: np.ndarray) -> WeightProgram | None:
    """The max-min-weight program on float columns g read off their
    least-norm weights mu, or None when mu decides nothing.

    mu are the affine weights of the point x = g mu of the columns' affine
    hull nearest the origin, the least-norm point of {g u = 0, sum u = 1}
    when x is the origin.  x is orthogonal to every difference of columns,
    so <x, g_k> = |x|^2 for every k: an x away from the origin, possible
    only for k <= d columns, is the separator when its margin clears
    ``DEFAULT_BOUNDARY_BAND``.

    For k <= d + 1 columns, mu = K^-1 1 / 1'K^-1 1 with K = g'g / c + 1 1'
    (``_affine_weights``), and K past ``WOLFE_MAX_COND`` (affinely
    dependent columns) declines.  At the origin, mu is then the only point
    of {g u = 0, sum u = 1}; k = d + 1 columns solve for it from the square
    [g; 1'] mu = e, whose condition number is the square root of K's.  When
    mu >= 0 the weight polytope is {mu}: weights up to ``WOLFE_POS_TOL``
    become zero, as Wolfe drops them from his corral, and s* = min mu, with
    no LP.  A negative weight declines.

    For k > d + 1 columns, mu = P 1 / 1'P 1, where P 1 = 1 - g'(g g')^-1 g 1
    projects the ones vector onto the kernel of g: one d x d solve, and a
    weight of mu at most ``WOLFE_POS_TOL`` declines at once (on every frame
    that is not scalable, and on many that are).  A positive mu lies in the
    weight polytope, and ``_caratheodory_push`` moves it onto d + 1
    columns along the kernel of [g; 1'], in which the trailing k - d - 1
    columns of the complete QR factor of [g; 1]' lie.  ``_phase_2`` starts
    from those columns.  None when a weight of the basis ends at most
    ``WOLFE_POS_TOL``, or when ``_phase_2`` refuses the basis, as it does
    a singular one when [g; 1'] has rank below d + 1.
    """
    d, k = g.shape
    if k > d + 1:
        try:
            w = 1.0 - g.T @ np.linalg.solve(g @ g.T, g.sum(axis=1))
        except np.linalg.LinAlgError:
            return None
        if np.min(w) <= WOLFE_POS_TOL * np.sum(w):
            return None
    scale = np.max(np.einsum("ij,ij->j", g, g))
    if scale == 0.0:  # d = 0, or every column underflowed to the origin
        return None
    if k <= d + 1:
        rs = g.T / np.sqrt(scale)
        kinv, cond = _shifted_gram_inverse(rs)
        if cond > WOLFE_MAX_COND:
            return None
        mu = _affine_weights(rs, kinv)[0]
        x = g @ mu
        if x @ x > WOLFE_ZERO_TOL * scale:
            if np.min(x @ g) > DEFAULT_BOUNDARY_BAND * np.max(np.abs(x)):
                return WeightProgram(None, None, x, "least-norm separator")
            return None
        if k == d + 1:  # [g; 1'] is square: solve it at its own condition
            mu = np.linalg.solve(np.vstack([rs.T, np.ones(k)]), np.eye(k)[-1])
        if np.min(mu) < -WOLFE_POS_TOL:
            return None
        u = np.where(mu > WOLFE_POS_TOL, mu, 0.0)
        u /= u.sum()
        return WeightProgram(u, np.min(u), None, "least-norm weights")
    u = w / np.sum(w)
    a = np.vstack([g / np.sqrt(scale), np.ones(k)])
    # a' = Q R: the last k - d - 1 columns of Q lie in the kernel of a.
    q = np.linalg.qr(a.T, mode="complete")[0]
    corral = _caratheodory_push(u, q[:, d + 1:].T)
    if corral is None or np.min(u[corral]) <= WOLFE_POS_TOL:
        return None
    return _phase_2(g, corral, "least-norm basis and phase 2")[0]


def _phase_2(g: np.ndarray, corral: list, route: str):
    """Phase 2 of the max-min-weight program on float columns g, started
    from a corral of at most d + 1 columns that carries a point of the
    weight polytope: Wolfe's at the origin, or the least-norm one
    (``_least_norm``).  Returns the result and None, or None and the reason
    the corral gives no feasible basis.  This is the only way into phase 2
    from a basis.

    A corral of r < d + 1 columns is completed with the d + 1 - r
    lowest-index columns outside it.  They carry weight 0, so the corral's
    point is a basic feasible solution on the completed basis B.  One
    inverse of B gives its condition number (in the 1-norm), its
    feasibility and the canonical form B^-1 (A, b), with the identity on
    B's columns.  Past ``WOLFE_MAX_COND`` B counts as singular: so it does
    when [g; 1'] has rank below d + 1, or when the completing columns are
    dependent on the corral's."""
    a, b, c = _program(g)
    d, k = g.shape
    basis = (corral + np.delete(np.arange(k), corral).tolist())[:d + 1]
    square = a[:, basis]
    try:
        binv = np.linalg.inv(square)
    except np.linalg.LinAlgError:
        return None, "singular corral basis"
    if np.linalg.norm(square, 1) * np.linalg.norm(binv, 1) > WOLFE_MAX_COND:
        return None, "singular corral basis"
    t = binv @ np.column_stack([a, b])
    if np.min(t[:, -1]) < -simplex.DEFAULT_FEAS_TOL:
        return None, "infeasible corral basis"
    t[:, basis] = np.eye(d + 1)
    return _solve_program(t[:, :-1], np.maximum(t[:, -1], 0.0), c, basis,
                          route), None


def _program(g: np.ndarray):
    """(A, b, c) of the max-min-weight program on float or ``Fraction``
    columns g: {g u = 0, sum u = 1, u >= 0} in standard form, with the s
    column, the sum of the v columns, appended."""
    d, k = g.shape
    a = np.ones((d + 1, k + 1), dtype=g.dtype)
    a[:d, :k] = g
    a[:, k] = np.append(g.sum(axis=1), k)
    b = np.zeros(d + 1, dtype=g.dtype)
    b[d] = 1
    c = np.zeros(k + 1, dtype=g.dtype)
    c[k] = -1
    return a, b, c


def _max_min_weight(g: np.ndarray) -> WeightProgram:
    """The max-min-weight program on float columns g: u = v + s 1, v,
    s >= 0,

        maximize s  subject to  g u = 0,  sum u = 1.

    The least-norm weights come first (``_least_norm``):
    a separator there is returned as h, unique nonnegative weights of
    k <= d + 1 columns as u with s* = min u and no LP, and positive ones of
    more columns, reduced to d + 1 columns, start phase 2 with no Wolfe
    cycle.  When they decide nothing, Wolfe's algorithm runs.  A separating
    point is returned as h, with no LP; a corral at the origin starts phase
    2, completed to d + 1 columns when it is shorter, unless ``_phase_2``
    refuses its basis.  The basis only picks where phase 2 starts, so s* is
    the same LP optimum.  Otherwise the two-phase simplex runs, and an
    empty weight polytope gives the separator h from the Farkas duals.
    On exact columns, ``_exact_program`` runs this program first and the
    two-phase simplex only when its separator fails.  A scalable
    result carries u, the last basic point, and s*, ``None`` when phase 2
    stopped short of its optimum.  ``route`` names the way taken, Wolfe's
    cycles and refreshes of K^-1, and the simplex pivots.  The s column is
    the sum of the v columns, so in exact arithmetic Bland's rule lets it
    enter only once the v columns are done: phase 1 pivots as it would on
    the weight polytope alone.
    """
    prog = _least_norm(g)
    if prog is not None:
        return prog
    w = _wolfe(g)
    cycles = f"{w.major} major and {w.minor} minor Wolfe cycles"
    if w.refreshes:
        cycles += f" ({w.refreshes} fresh K^-1)"
    if w.stop == "separator":
        return WeightProgram(None, None, w.x, f"Wolfe separator after {cycles}")
    why = f"Wolfe {w.stop}"
    if w.stop == "zero":
        prog, why = _phase_2(g, w.corral,
                             f"Wolfe basis and phase 2 after {cycles}")
        if why is None:
            return prog
    return _solve_program(*_program(g), None,
                          f"two-phase fallback ({why}) after {cycles}")


def _exact_separator(h: np.ndarray, g: exact.Image) -> ExactSeparator | None:
    """Check the float direction h on the exact columns g.  Every float is
    a dyadic rational, so h scales to the integer vector H
    (``exact.integers``), and it separates when min_k <H, G_k> is positive
    over the integer image G.  Returns h at |h|_inf = 1 with its exact
    ``separator_margin``, min_k <H, G_k> / (|H|_inf den), in
    ``Fraction``s; else None."""
    if not np.all(np.isfinite(h)):
        return None
    big = exact.integers(h.tolist())[0]
    top = max(map(abs, big))
    if top == 0:
        return None
    low = min(np.array(big, dtype=object) @ g.g)
    if low <= 0:
        return None
    return ExactSeparator(tuple(Fraction(v, top) for v in big),
                          Fraction(low, top * g.den))


def _float_attempt(g: exact.Image):
    """The float program (``_max_min_weight``) on the exact columns g
    rounded to floats, and None; or None and why it did not run: a column
    overflows a float (the rounding raises ``OverflowError`` rather than
    round to inf), or the program raised an error or a floating-point
    exception.  Its result counts only once checked."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return _max_min_weight(g.floats()), None
    except (ArithmeticError, ValueError, FrameScaleError,
            RuntimeWarning) as exc:
        return None, f"float attempt skipped ({type(exc).__name__})"


def _exact_program(g: exact.Image, prog: WeightProgram | None = None,
                   lp: bool = True) -> WeightProgram | None:
    """The max-min-weight program on the exact columns g, exactly.

    The float program runs first, unless the caller passes its result
    ``prog``.  A separator that passes its check in rationals
    (``_exact_separator``) is the answer, with no rational pivot.
    Otherwise the two-phase simplex runs with rational pivots on the
    ``Fraction`` columns, and its route says why: the float program found
    weights, its separator failed the check, or the attempt was skipped.
    With ``lp`` False, None stands for that simplex.  Scalable verdicts
    thus always come from the rational LP.  A checked float separator
    comes back as its ``ExactSeparator``, and a Farkas one as the
    ``Fraction`` direction that ``_package_separator`` checks."""
    route = ""
    if prog is None:
        prog, why = _float_attempt(g)
        if prog is not None:
            route = f"{prog.route}; "
    if prog is not None:
        h = None if prog.h is None else _exact_separator(prog.h, g)
        if h is not None:
            return WeightProgram(None, None, h, f"{route}checked in rationals")
        why = ("float found weights" if prog.h is None
               else "float separator failed its exact check")
    if not lp:
        return None
    return _solve_program(*_program(g.fractions()), None,
                          f"{route}{why}, so two-phase, exact")


def _solve_program(a, b, c, basis, route: str) -> WeightProgram:
    """Run the max-min-weight program (A, b, c) of ``_program`` from the
    feasible ``basis`` (phase 2 only) or from none (both phases), over the
    number type of A, and add the pivots to ``route``."""
    d, k = a.shape[0] - 1, a.shape[1] - 1
    solve = simplex.solve_lp if a.dtype != object else simplex.solve_lp_exact
    res = solve(a, b, c, initial_basis=basis)
    route += (f"; {'phase 2' if basis else 'both phases'}: {res.pivots} "
              f"pivots, {res.guarded} under Bland's guard")
    if res.status == simplex.INFEASIBLE:
        return WeightProgram(None, None, -res.ray[:d], route)
    s = res.x[k]
    if res.status != simplex.OPTIMAL:
        logger.warning("strictness not determined: phase 2 ended with %s",
                       res.status)
    # u = v + s 1, but an s that is not strict is rounding: v alone keeps
    # the support of the phase-2 vertex, at most d + 1 columns.
    u = res.x[:k] + s if _strict(s, a.dtype == object) else res.x[:k]
    return WeightProgram(u, s if res.status == simplex.OPTIMAL else None,
                         None, route)


def _strict(s_star, rational: bool) -> bool:
    """Does the max-min weight s* show strict scalability: is it above 0
    over rational columns, and above ``WOLFE_POS_TOL`` over floats?"""
    return bool(s_star > (0 if rational else WOLFE_POS_TOL))


def separator_search(fi: FImage) -> tuple[float, np.ndarray]:
    """The separator of largest margin at |h|_2 = 1, and its margin t*
    reported at |h|_inf = 1.

    h is the minimum-norm point of the convex hull of the transformed
    columns (Wolfe's algorithm run to its end), so <h, F(phi_k)> >= |h|^2
    for every k.  t* > 0 means the frame is not scalable.  When Wolfe
    reaches the origin, t* is a literal 0.0 and h the zero vector, so
    callers can test t* > 0 without a tolerance.  When Wolfe stops short,
    the max-min-weight program of ``decide`` answers: 0.0 when it finds
    weights, else its separator with that separator's margin.
    """
    g = fi.matrix
    w = _wolfe(g, band=None)
    h = w.x
    if w.stop != "separator":
        h = None if w.stop == "zero" else _max_min_weight(g).h
    if h is None:
        return 0.0, np.zeros(fi.d)
    return float(separator_margin(h, g)), h


def weight_recovery(frame: Frame, strict: bool = False) -> ScalingWeights:
    """The weights certificate of ``decide``, escalated as ``decide`` does.
    Raises ``Infeasible`` on a non-scalable verdict; strict mode raises
    ``NotStrictlyScalable``, carrying s*, on a non-strict one and
    ``LPNumericalFailure`` when s* was not determined."""
    v = decide(frame)
    if not v.scalable:
        raise Infeasible("the frame is not scalable")
    if strict and v.s_star is None:
        raise LPNumericalFailure("max-min-weight program stopped short "
                                 "of its optimum")
    if strict and not v.strict:
        raise NotStrictlyScalable(v.s_star)
    return v.certificate


def _verified_weights(frame: Frame, g: np.ndarray, active, u_active,
                      tol_tight: float) -> ScalingWeights:
    """Float weights on the active columns g, re-checked; a first failure
    gets one least-squares step onto {g u = 0, sum u = 1} on the support."""
    u = np.zeros(frame.m)
    u[list(active)] = u_active
    w = make_weights(frame, u)
    if w.residual > tol_tight * w.alpha:
        s = np.flatnonzero(u_active > 0.0)
        a = np.vstack([g[:, s], np.ones(len(s))])
        r = a @ u_active[s]
        r[-1] -= 1.0
        u[np.asarray(active)[s]] -= np.linalg.lstsq(a, r, rcond=None)[0]
        w = make_weights(frame, u)
    if w.residual > tol_tight * w.alpha:
        raise Infeasible(
            f"recovered weights verify poorly: residual {w.residual:.3e}")
    return w


def _package_separator(g, h, indices) -> Separator:
    """Scale h to |h|_inf = 1 and take its margin on the columns g, floats,
    ``Fraction``s or an ``exact.Image`` (read as ``Fraction``s).  Over
    exact columns the margin must be positive, and the separator keeps its
    exact direction and margin.  An ``ExactSeparator`` h comes checked,
    with both, and g is not read."""
    if isinstance(h, ExactSeparator):
        hn, margin = h
    else:
        scale = np.max(np.abs(h))
        if scale == 0:
            raise LPNumericalFailure("separator direction is zero")
        hn = h / scale
        if isinstance(g, exact.Image):
            g = g.fractions()
        margin = separator_margin(hn, g)  # |hn|_inf is exactly 1
        if g.dtype != object:
            return Separator(h=_frozen(hn), margin=float(margin),
                             indices=tuple(indices))
        if margin <= 0:
            raise ArithmeticError("exact separator failed its margin check")
    return Separator(h=_frozen(hn), margin=float(margin),
                     indices=tuple(indices), h_exact=tuple(hn),
                     margin_exact=margin)


def _verdict_no_columns(subset) -> Verdict:
    # A subset of zero vectors cannot be a frame; there is no certificate
    # of either kind for it (the transform collapses to the zero column).
    return Verdict(scalable=False, strict=False, certificate=None,
                   boundary_flag=False, t_star=None, s_star=None,
                   subset=subset, spans=False, resolved_by="float")


def _decide_columns(prog: WeightProgram, g, frame: Frame, subset, active,
                    weights, rank) -> Verdict:
    """The verdict on the columns g of the active subset, floats or an
    ``exact.Image``, from the result ``prog`` of the max-min-weight
    program on them.  ``weights(u)`` packages and re-verifies the weights,
    and ``rank()`` gives the rank of the subset, read only for a separated
    proper subset: ``build_frame`` refuses frames of rank below n, so all
    columns span."""
    rational = isinstance(g, exact.Image)
    resolved_by = "exact" if rational else "float"
    if prog.u is None:
        sep = _package_separator(g, prog.h, active)
        spans = len(subset) == frame.m or rank() == frame.n
        return Verdict(scalable=False, strict=False, certificate=sep,
                       boundary_flag=False, t_star=sep.margin, s_star=None,
                       subset=subset, spans=spans, resolved_by=resolved_by)
    s_star = prog.s_star
    return Verdict(scalable=True,
                   strict=s_star is not None and _strict(s_star, rational),
                   certificate=weights(prog.u), boundary_flag=False,
                   t_star=0.0,
                   s_star=None if s_star is None else float(s_star),
                   subset=subset, spans=True, resolved_by=resolved_by)


def decide(frame: Frame, subset=None, mode: str = "float", *,
           tol_tight: float = DEFAULT_TIGHT_TOL,
           rational=None) -> Verdict:
    """Decide scalability of a column subset, with a verified certificate.

    Zero columns are carried with weight zero: they never affect the
    verdict and can never be separated.  Non-spanning subsets come back
    non-scalable with ``spans`` False; a decide on every column spans
    without a rank computation, in either mode, because ``build_frame``
    refuses frames that do not.  In float mode the least-norm weights of
    the active columns come first: they give the separator of at most d
    columns, the weights of at most d + 1 columns with no LP, or, when
    positive on more columns, d + 1 of them that start phase 2 of the
    max-min-weight program with no Wolfe cycle; otherwise Wolfe's
    minimum-norm-point algorithm either returns the separator or starts
    phase 2 from its corral at the origin, completed to d + 1 columns; the
    two-phase LP is the fallback when that basis is singular or
    infeasible, or Wolfe stops short.  Only the active columns are
    transformed.  Mode ``"exact"`` runs the same float program and checks
    its separator in rationals; the two-phase LP with rational pivots runs
    only when there is no separator that passes.  A float separator whose
    re-verified margin is at most ``DEFAULT_BOUNDARY_BAND`` is checked in
    rationals at any size; when that fails, it and a float certificate
    that fails its re-check are re-decided through the rational LP when
    the subset has at most ``EXACT_CAP`` active columns.  The verdict then
    carries ``boundary_flag``.  Above the cap a band separator that fails
    its exact check is only flagged, and a failed re-check raises.  Each
    returned verdict logs one DEBUG record naming the route taken
    ("least-norm separator", "least-norm weights", "least-norm basis and
    phase 2", Wolfe's separator or basis, or a two-phase fallback), Wolfe's
    cycle counts and the simplex pivots; in exact mode it adds "checked in
    rationals", or why rational pivots ran.
    """
    if mode not in ("float", "exact"):
        raise ValueError(f"unknown mode {mode!r}")
    subset = _normalize_subset(frame, subset)
    if mode == "exact":
        v, route = _decide_exact(frame, subset,
                                 exact.integer_columns(frame, rational))
    else:
        v, route = _decide_float(frame, subset, tol_tight, rational)
    logger.debug("decide (%s) on %d columns: %s", mode, len(subset), route)
    return v


def _decide_float(frame: Frame, subset, tol_tight, rational):
    """Float mode of ``decide``: the verdict and the route it took."""
    active = _active_columns(frame, subset)
    if not active:
        return _verdict_no_columns(subset), "no active columns"
    g = f_vector(frame.matrix[:, list(active)])
    prog = _max_min_weight(g)
    can_escalate = len(active) <= EXACT_CAP

    def escalate(why: str, lp: bool = True):
        v, route = _decide_exact(frame, subset,
                                 exact.integer_columns(frame, rational),
                                 prog, lp)
        return (None if v is None else replace(v, boundary_flag=True),
                f"{prog.route}; {why}, so exact: {route}")

    try:
        v = _decide_columns(
            prog, g, frame, subset, active,
            lambda u: _verified_weights(frame, g, active, u, tol_tight),
            lambda: numerical_rank(frame.matrix[:, list(subset)]))
    except Infeasible:  # the weights failed their re-check
        if can_escalate:
            return escalate("weights failed their re-check")
        raise
    if v.scalable or v.t_star > DEFAULT_BOUNDARY_BAND:
        return v, prog.route
    # A band separator is checked in rationals at any size; only the
    # rational LP needs the cap.
    why = f"separator margin {v.t_star:.3g} within the band"
    checked, route = escalate(why, lp=can_escalate)
    if checked is not None:
        return checked, route
    if v.t_star <= 0.0:
        raise LPNumericalFailure("separator failed re-verification")
    return replace(v, boundary_flag=True), f"{route}, flagged"


# --- sign-based quick rejection ---------------------------------------------

def sign_quick_reject(frame: Frame) -> SignWitness | None:
    """Coordinate pair whose products are one-signed across all columns.

    If phi_k(i) phi_k(j) > 0 for every k (or < 0 for every k, which a
    diagonal sign flip reduces to the positive case), the frame cannot be
    scalable; no LP is needed.  Absence of a witness proves nothing.
    """
    if frame.n < 2:
        raise DimensionTooSmall("sign test needs dimension >= 2")
    for i in range(frame.n - 1):
        for j in range(i + 1, frame.n):
            prod = frame.matrix[i] * frame.matrix[j]
            if np.all(prod > 0.0):
                return SignWitness(i, j, +1)
            if np.all(prod < 0.0):
                return SignWitness(i, j, -1)
    return None


def separator_from_sign(frame: Frame, witness: SignWitness) -> Separator:
    """The witness made explicit: a signed coordinate direction."""
    from .fmap import pair_index, target_dim
    h = np.zeros(target_dim(frame.n))
    h[pair_index(frame.n, witness.i, witness.j)] = float(witness.sign)
    return _package_separator(f_image(frame).matrix, h, range(frame.m))


# --- cone geometry ----------------------------------------------------------

def cone_pointed(fi: FImage) -> ConeFlags:
    """Pointedness of the cone generated by the transformed columns.

    The cone fails to be pointed exactly when a nonzero nonnegative kernel
    combination exists (every transformed column of a nonzero vector is
    nonzero, so a kernel vector folds the cone onto a line), which is the
    weight polytope of ``decide`` being nonempty; the polar cone has empty
    interior in exactly the same case.  Zero columns are refused, and so
    is d = 0, where every column is the zero vector of R^0.
    """
    if fi.d == 0:
        raise DimensionTooSmall("cone test needs d >= 1; the transform of "
                                "a frame on the line has d = 0")
    g = fi.matrix
    if np.any(np.all(g == 0.0, axis=0)):
        raise ZeroColumn("cone test is undefined for zero frame vectors")
    pointed = _max_min_weight(g).u is None
    return ConeFlags(pointed=pointed, polar_interior_empty=not pointed)


# --- exact back-ends ----------------------------------------------------------

def _exact_weights_to_scaling(frame: Frame, active, columns,
                              u_active) -> ScalingWeights:
    """Rational weights on the ``active`` integer columns D phi_k of
    ``columns`` (``exact.integer_columns``), normalized and checked."""
    cols, den = columns
    total = sum(u_active, Fraction(0))
    u_norm = [v / total for v in u_active]
    scaled = sum((u * exact.norm2_exact(cols[k])
                  for u, k in zip(u_norm, active)), Fraction(0)) / frame.n
    # The tightness identity must hold literally in rational arithmetic;
    # on the columns D phi_k its constant is D^2 alpha.
    c = np.array([cols[k] for k in active], dtype=object)
    if np.any((c.T * u_norm) @ c != np.eye(frame.n, dtype=int) * scaled):
        raise ArithmeticError("exact weights failed the tightness check")
    u_full = [Fraction(0)] * frame.m
    for u, k in zip(u_norm, active):
        u_full[k] = u
    return make_weights(frame, np.array([float(v) for v in u_full]),
                        normalize=False,
                        u_exact=tuple(u_full),
                        alpha_exact=scaled / (den * den))


def exact_oracle(frame: Frame, *, rational=None) -> Verdict:
    """Certificate-exact decision over rational arithmetic.

    Existence of a nonnegative (resp. everywhere-positive) kernel point
    of the transformed subset is decided by enumerating the vertices of
    the normalized weight polytope; when the subset has no kernel, that
    system is inconsistent and the enumeration returns no vertex at once.
    The dual branch is the verdict of ``decide(mode="exact")`` on the same
    exact image, which must agree: its separator is the certificate, the
    float one checked in rationals or else the Farkas separator of the
    rational max-min-weight program, and t* is that separator's exact
    margin at |h|_inf = 1.

    Frame entries convert losslessly to rationals; pass ``rational`` when
    the intended entries are not float-representable (e.g. 50-digit
    approximations of radicals) and read the verdict as applying to that
    approximant, with the certificate margin quantifying its robustness.
    """
    subset = tuple(range(frame.m))
    columns = exact.integer_columns(frame, rational)
    active = tuple(k for k in subset if any(columns[0][k]))
    if not active:
        return replace(_verdict_no_columns(subset), resolved_by="exact")
    if len(active) > EXACT_CAP:
        raise TooLarge(f"{len(active)} columns exceed the exact cap {EXACT_CAP}")
    # The rows of the integer image are those of F times den, which leaves
    # {F u = 0, sum u = 1} unchanged.
    g_rows = exact.f_image_exact(*columns, active).g.tolist()

    verts = exact.polytope_vertices(g_rows + [[1] * len(active)],
                                    [0] * len(g_rows) + [1])
    if verts:
        supports = [frozenset(i for i, v in enumerate(u) if v > 0)
                    for u in verts]
        union = frozenset().union(*supports)
        strict = union == frozenset(range(len(active)))
        if strict:
            count = len(verts)
            u_active = [sum((u[i] for u in verts), Fraction(0)) / count
                        for i in range(len(active))]
        else:
            u_active = list(verts[0])
        w = _exact_weights_to_scaling(frame, active, columns, u_active)
        s_star = float(min(w.u_exact[k] for k in active)) if strict else 0.0
        return Verdict(scalable=True, strict=strict, certificate=w,
                       boundary_flag=False, t_star=0.0, s_star=s_star,
                       subset=subset, spans=True, resolved_by="exact")

    v = _decide_exact(frame, subset, columns)[0]
    if v.scalable:
        raise ArithmeticError(
            "exact routes disagree: no vertex, yet the program finds weights")
    return v


def _decide_exact(frame: Frame, subset, columns, prog=None, lp: bool = True):
    """Mode "exact" of ``decide``, so every verdict is exact: the program
    of ``_exact_program`` on the exact image of the integer ``columns``
    (``exact.integer_columns``), given the float result ``prog`` when the
    caller has one.  Returns the verdict and the route; the verdict is
    None when the float separator fails its check and ``lp`` is False."""
    cols, den = columns
    active = tuple(k for k in subset if any(cols[k]))
    if not active:
        return (replace(_verdict_no_columns(subset), resolved_by="exact"),
                "no active columns")
    g = exact.f_image_exact(cols, den, active)
    prog = _exact_program(g, prog, lp)
    if prog is None:
        return None, "float separator failed its exact check"
    return _decide_columns(
        prog, g, frame, subset, active,
        lambda u: _exact_weights_to_scaling(frame, active, columns, list(u)),
        lambda: exact.rank_exact([[cols[k][i] for k in subset]
                                  for i in range(frame.n)])), prog.route
