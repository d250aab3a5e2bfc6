"""The decision core: can a frame be rescaled into a tight frame?

A frame is scalable exactly when 0 lies in the convex hull of the
transformed columns F(phi_k), and strictly scalable when it lies in the
relative interior; otherwise a direction h separates them all,
<F(phi_k), h> > 0.  ``decide`` answers both questions with the
max-min-weight program

    maximize s  subject to  F u = 0,  sum u = 1,  u = v + s 1,  v, s >= 0.

In float mode Wolfe's minimum-norm-point algorithm (Math. Prog. 11, 1976)
runs first on the columns.  A point x of their hull with
min_k <x, F(phi_k)> > 0 is the separator, and no LP runs.  When x reaches
the origin, Wolfe's corral of d + 1 columns is a feasible basis of the
program, and phase 2 runs from there to the optimum s*.  Otherwise the
program runs as a two-phase simplex: its phase 1 is phase 1 on the weight
polytope {F u = 0, sum u = 1, u >= 0}, and when that polytope is empty the
Farkas duals y = (h, s) satisfy -h'F(phi_k) >= s > 0 for every k, so -h is
the separator.  The phase-2 point is the weights certificate, strict when
s* clears a threshold and a basic point with support at most d + 1 when
s* = 0.  Both certificates are re-checked before they are returned.

Mode ``"exact"`` runs the two-phase program with rational pivots.  Float
separators whose re-verified margin falls inside a small band are flagged
and re-decided that way when at most ``EXACT_CAP`` columns are active.
``separator_search`` keeps the max-margin program

    maximize t  subject to  <F(phi_k), h> >= t  for k in the subset,
                            |h|_inf <= 1

for callers that want the best margin; the decision never runs it, nor
``exact_oracle`` (vertex enumeration), which is the reference.
"""

from __future__ import annotations

import logging
from collections import namedtuple
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from . import exact, simplex
from .errors import (DimensionTooSmall, Infeasible, LPNumericalFailure,
                     NotStrictlyScalable, TooLarge, ZeroColumn)
from .fmap import FImage, f_image, outer_svec_rows, svec
from .frames import (DEFAULT_TIGHT_TOL, Frame, ScalingWeights, _all_columns,
                     _frozen, make_weights, numerical_rank)

DEFAULT_BOUNDARY_BAND = 1e-9
DEFAULT_STRICT_THRESHOLD = 1e-10
EXACT_CAP = 12  # most active columns an exact escalation is tried on

# Wolfe's tolerances (his Z1-Z3), relative to the largest squared column
# norm except for the weights, which sum to 1.
WOLFE_OPT_TOL = 1e-12    # x is the minimum-norm point: <x, g_j> >= |x|^2 - tol
WOLFE_POS_TOL = 1e-10    # an affine weight at most this leaves the corral
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
        """Recompute the margin (min product against |h|_inf = 1)."""
        g = fi.columns(self.indices)
        scale = float(np.max(np.abs(self.h)))
        return float(np.min(self.h @ g) / scale)


@dataclass(frozen=True, slots=True)
class Verdict:
    """Outcome of ``decide``.

    ``t_star`` is the re-verified margin of the separator on non-scalable
    verdicts and 0.0 on scalable ones.  A float separator is Wolfe's
    point, taken once its margin at |h|_inf = 1 clears
    ``DEFAULT_BOUNDARY_BAND`` or at the minimum-norm point (the Farkas
    one when the two-phase fallback runs), so t* is a certified margin
    but not the best one (``separator_search`` gives that).  ``s_star``
    is the optimum of the max-min-weight program on scalable verdicts,
    whichever basis phase 2 started from; ``None`` there means that phase
    2 did not reach its optimum, so strictness was not determined
    (``strict`` is False then and the weights are its last, verified
    point).
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


# --- LP programs ------------------------------------------------------------
# Each program builds its standard form with 0/1 integer constants, which
# suit float64 columns and object columns of Fraction (``solve_lp_exact``
# converts every entry).

def _solve(g: np.ndarray, a, b, c, basis=None) -> simplex.LPResult:
    """Solve over the number type of ``g``: rational for object arrays."""
    solve = simplex.solve_lp_exact if g.dtype == object else simplex.solve_lp
    return solve(a, b, c, initial_basis=basis)


def _separator_lp(g: np.ndarray):
    """Optimum t* and maximizing h of the separator program on columns g.

    Variables: h = p - q with p, q >= 0 and p_i + q_i <= 1 (equivalent to
    the infinity-norm box), t split into tp - tm, a surplus per margin row.
    The surplus/slack columns form a feasible identity start, so no
    artificial phase is needed and a scalable instance never leaves the
    all-zero vertex: its optimum is returned as literal 0.0.
    """
    d, k = g.shape
    nvar = 2 * d + 2 + k + d
    a = np.zeros((k + d, nvar), dtype=g.dtype)
    b = np.zeros(k + d, dtype=g.dtype)
    for r in range(k):
        a[r, :d] = -g[:, r]
        a[r, d:2 * d] = g[:, r]
        a[r, 2 * d] = 1
        a[r, 2 * d + 1] = -1
        a[r, 2 * d + 2 + r] = 1
    for i in range(d):
        a[k + i, i] = 1
        a[k + i, d + i] = 1
        a[k + i, 2 * d + 2 + k + i] = 1
        b[k + i] = 1
    c = np.zeros(nvar, dtype=g.dtype)
    c[2 * d] = -1
    c[2 * d + 1] = 1
    basis = list(range(2 * d + 2, 2 * d + 2 + k + d))
    res = _solve(g, a, b, c, basis)
    if res.status != simplex.OPTIMAL:
        raise LPNumericalFailure(f"separator LP ended with {res.status}")
    return res.x[2 * d] - res.x[2 * d + 1], res.x[:d] - res.x[d:2 * d]


def separator_search(fi: FImage) -> tuple[float, np.ndarray]:
    """Best margin t* and a direction achieving it.

    t* > 0 means the open half-space cones of the transformed columns
    share a point, so the frame is not scalable; t* = 0 means the origin
    lies in their convex hull and the frame is scalable.
    """
    t_star, h = _separator_lp(fi.matrix)
    return float(t_star), h


def weight_polytope(g: np.ndarray):
    """Standard form (A, b) of the weight polytope {g u = 0, sum u = 1,
    u >= 0} on the columns g, over their number type."""
    d, k = g.shape
    a = np.zeros((d + 1, k), dtype=g.dtype)
    a[:d] = g
    a[d] = 1
    b = np.zeros(d + 1, dtype=g.dtype)
    b[-1] = 1
    return a, b


def _wolfe(g: np.ndarray) -> Wolfe:
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
      |x|_inf = 1 clears ``DEFAULT_BOUNDARY_BAND`` or x is the
      minimum-norm point;
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
        if p[j] > DEFAULT_BOUNDARY_BAND * np.max(np.abs(x)):
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
                kinv = np.linalg.pinv(rs @ rs.T + 1.0, hermitian=True)
            y = kinv.sum(axis=1)
            r = 1.0 - rs @ (rs.T @ y) - y.sum()
            if not fresh and np.max(np.abs(r)) > \
                    WOLFE_UPDATE_TOL * np.sum(np.abs(y)):
                fresh = True
                refreshes += 1
                continue
            fresh = False
            y += kinv @ r  # one step of iterative refinement
            mu = y / y.sum()
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


def _wolfe_basis(g: np.ndarray, w: Wolfe):
    """Wolfe's corral at the origin as a feasible basis of the max-min-weight
    program, or ``None`` and the reason it is not one."""
    d = g.shape[0]
    if w.stop != "zero":
        return None, f"Wolfe {w.stop}"
    if len(w.corral) < d + 1:
        return None, f"corral of {len(w.corral)} < d + 1 = {d + 1} columns"
    b, e = weight_polytope(g[:, w.corral])
    if np.linalg.cond(b) > WOLFE_MAX_COND:
        return None, "singular corral basis"
    if np.min(np.linalg.solve(b, e)) < -simplex.DEFAULT_FEAS_TOL:
        return None, "infeasible corral basis"
    return list(w.corral), None


def _max_min_weight(g: np.ndarray) -> WeightProgram:
    """The max-min-weight program on columns g: u = v + s 1 with v, s >= 0,

        maximize s  subject to  g u = 0,  sum u = 1.

    Over float columns Wolfe's algorithm runs first.  A separating point
    is returned as h, with no LP; a corral at the origin that is a
    feasible basis starts phase 2.  Otherwise, and always over
    ``Fraction`` columns, the two-phase simplex runs, and an empty weight
    polytope gives the separator h from the Farkas duals.  A scalable
    result carries u, the last basic point, and s*, ``None`` when phase 2
    stopped short of its optimum.  ``route`` names the way taken, Wolfe's
    cycles and refreshes of K^-1, and the simplex pivots.  The s column is
    the sum of the v columns, so in exact arithmetic Bland's rule lets it
    enter only once the v columns are done: phase 1 pivots as it would on
    the weight polytope alone.
    """
    d, k = g.shape
    basis, route = None, "two-phase, exact"
    if g.dtype != object:
        w = _wolfe(g)
        cycles = f"{w.major} major and {w.minor} minor Wolfe cycles"
        if w.refreshes:
            cycles += f" ({w.refreshes} fresh K^-1)"
        if w.stop == "separator":
            return WeightProgram(None, None, w.x,
                                 f"Wolfe separator after {cycles}")
        basis, why = _wolfe_basis(g, w)
        route = (f"Wolfe basis and phase 2 after {cycles}" if why is None
                 else f"two-phase fallback ({why}) after {cycles}")
    a, b = weight_polytope(g)
    a = np.column_stack([a, np.append(g.sum(axis=1), k)])
    c = np.zeros(k + 1, dtype=g.dtype)
    c[k] = -1
    res = _solve(g, a, b, c, basis)
    route += (f"; {'phase 2' if basis else 'both phases'}: {res.pivots} "
              f"pivots, {res.guarded} under Bland's guard")
    if res.status == simplex.INFEASIBLE:
        return WeightProgram(None, None, -res.ray[:d], route)
    s_star = res.x[k]
    if res.status != simplex.OPTIMAL:
        logger.warning("strictness not determined: phase 2 ended with %s",
                       res.status)
        s_star = None
    return WeightProgram(res.x[:k] + res.x[k], s_star, None, route)


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


def _package_separator(g: np.ndarray, h: np.ndarray, indices) -> Separator:
    """Scale h to |h|_inf = 1 and take its margin on the columns g.  Over
    ``Fraction`` columns the margin must be positive, and the separator
    keeps its exact direction and margin."""
    scale = np.max(np.abs(h))
    if scale == 0:
        raise LPNumericalFailure("separator direction is zero")
    hn = h / scale
    margin = np.min(hn @ g)
    sep = Separator(h=_frozen(hn), margin=float(margin), indices=tuple(indices))
    if g.dtype != object:
        return sep
    if margin <= 0:
        raise ArithmeticError("exact separator failed its margin check")
    return replace(sep, h_exact=tuple(hn), margin_exact=margin)


def _verdict_no_columns(subset) -> Verdict:
    # A subset of zero vectors cannot be a frame; there is no certificate
    # of either kind for it (the transform collapses to the zero column).
    return Verdict(scalable=False, strict=False, certificate=None,
                   boundary_flag=False, t_star=None, s_star=None,
                   subset=subset, spans=False, resolved_by="float")


def _decide_columns(prog: WeightProgram, g: np.ndarray, subset, active,
                    weights, spans) -> Verdict:
    """The verdict on the columns g of the active subset from the result
    ``prog`` of the max-min-weight program on them.  ``weights(u)``
    packages and re-verifies the weights, ``spans()`` tells whether the
    subset spans, and s* counts as strict above 0 for ``Fraction`` columns
    and above ``DEFAULT_STRICT_THRESHOLD`` for floats."""
    threshold, resolved_by = ((0, "exact") if g.dtype == object
                              else (DEFAULT_STRICT_THRESHOLD, "float"))
    if prog.u is None:
        sep = _package_separator(g, prog.h, active)
        return Verdict(scalable=False, strict=False, certificate=sep,
                       boundary_flag=False, t_star=sep.margin, s_star=None,
                       subset=subset, spans=spans(), resolved_by=resolved_by)
    s_star = prog.s_star
    return Verdict(scalable=True,
                   strict=s_star is not None and bool(s_star > threshold),
                   certificate=weights(prog.u), boundary_flag=False,
                   t_star=0.0,
                   s_star=None if s_star is None else float(s_star),
                   subset=subset, spans=True, resolved_by=resolved_by)


def decide(frame: Frame, subset=None, mode: str = "float", *,
           band: float = DEFAULT_BOUNDARY_BAND,
           tol_tight: float = DEFAULT_TIGHT_TOL,
           rational=None) -> Verdict:
    """Decide scalability of a column subset, with a verified certificate.

    Zero columns are carried with weight zero: they never affect the
    verdict and can never be separated.  Non-spanning subsets come back
    non-scalable with ``spans`` False.  In float mode Wolfe's
    minimum-norm-point algorithm runs first and either returns the
    separator or starts phase 2 of the max-min-weight program; the
    two-phase LP of mode ``"exact"`` is the fallback.  A float separator
    whose re-verified margin is at most ``band``, and a float certificate
    that fails its re-check, are re-decided through the exact LP when the
    subset has at most ``EXACT_CAP`` active columns; the verdict then
    carries ``boundary_flag``.  Above the cap a band separator is only
    flagged, and a failed re-check raises.  Each returned verdict logs one
    DEBUG record naming the route taken, Wolfe's cycle counts and the
    simplex pivots.
    """
    if mode not in ("float", "exact"):
        raise ValueError(f"unknown mode {mode!r}")
    subset = _normalize_subset(frame, subset)
    if mode == "exact":
        v, route = _decide_exact_lp(frame, subset, rational=rational)
    else:
        v, route = _decide_float(frame, subset, band, tol_tight, rational)
    logger.debug("decide (%s) on %d columns: %s", mode, len(subset), route)
    return v


def _decide_float(frame: Frame, subset, band, tol_tight, rational):
    """Float mode of ``decide``: the verdict and the route it took."""
    active = _active_columns(frame, subset)
    if not active:
        return _verdict_no_columns(subset), "no active columns"
    g = f_image(frame).columns(active)
    prog = _max_min_weight(g)
    can_escalate = len(active) <= EXACT_CAP

    def escalate(why: str):
        v, route = _decide_exact_lp(frame, subset, rational=rational)
        return (replace(v, boundary_flag=True),
                f"{prog.route}; {why}, so exact: {route}")

    try:
        v = _decide_columns(
            prog, g, subset, active,
            lambda u: _verified_weights(frame, g, active, u, tol_tight),
            lambda: numerical_rank(frame.matrix[:, list(subset)]) == frame.n)
    except Infeasible:  # the weights failed their re-check
        if can_escalate:
            return escalate("weights failed their re-check")
        raise
    if v.scalable or v.t_star > band:
        return v, prog.route
    if can_escalate:
        return escalate(f"separator margin {v.t_star:.3g} within the band")
    if v.t_star <= 0.0:
        raise LPNumericalFailure("separator failed re-verification")
    return (replace(v, boundary_flag=True),
            f"{prog.route}; separator margin {v.t_star:.3g} within the band, "
            "flagged")


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


# --- alternative formulation over outer products ------------------------------

def identity_in_outer_hull(frame: Frame) -> bool:
    """Scalability via the raw matrix formulation: is some positive
    multiple of the identity a convex combination of the outer products?

    Solved as a feasibility LP over vectorized symmetric matrices; kept as
    an independent route for cross-checking the transform-based decision.
    """
    active = _active_columns(frame, _all_columns(frame.m))
    rows = outer_svec_rows(frame, active)  # one row per column of the frame
    ident = svec(np.eye(frame.n))
    k = len(active)
    a = np.zeros((ident.size + 1, k + 1))
    a[:ident.size, :k] = rows.T
    a[:ident.size, k] = -ident
    a[ident.size, :k] = 1.0
    b = np.zeros(ident.size + 1)
    b[-1] = 1.0
    res = simplex.solve_lp(a, b, np.zeros(k + 1))
    return res.status == simplex.OPTIMAL


# --- exact back-ends ----------------------------------------------------------

def _exact_weights_to_scaling(frame: Frame, active, cols,
                              u_active) -> ScalingWeights:
    total = sum(u_active, Fraction(0))
    u_norm = [v / total for v in u_active]
    alpha = sum((u * exact.norm2_exact(cols[k])
                 for u, k in zip(u_norm, active)), Fraction(0)) / frame.n
    # The tightness identity must hold literally in rational arithmetic.
    c = np.array([cols[k] for k in active], dtype=object)
    if np.any((c.T * u_norm) @ c != np.eye(frame.n, dtype=int) * alpha):
        raise ArithmeticError("exact weights failed the tightness check")
    u_full = [Fraction(0)] * frame.m
    for u, k in zip(u_norm, active):
        u_full[k] = u
    return make_weights(frame, np.array([float(v) for v in u_full]),
                        normalize=False,
                        u_exact=tuple(u_full), alpha_exact=alpha)


def _exact_spans(cols, active, n) -> bool:
    rows = [[cols[k][i] for k in active] for i in range(n)]
    return exact.rank_exact(rows) == n


def exact_oracle(frame: Frame, *, rational=None) -> Verdict:
    """Certificate-exact decision over rational arithmetic.

    Existence of a nonnegative (resp. everywhere-positive) kernel point
    of the transformed subset is decided by enumerating the vertices of
    the normalized weight polytope; when the subset has no kernel, that
    system is inconsistent and the enumeration returns no vertex at once.
    The dual branch produces an exact separating direction from the
    rational-pivot simplex and the two branches are asserted to agree.

    Frame entries convert losslessly to rationals; pass ``rational`` when
    the intended entries are not float-representable (e.g. 50-digit
    approximations of radicals) and read the verdict as applying to that
    approximant, with the certificate margin quantifying its robustness.
    """
    subset = tuple(range(frame.m))
    cols = exact.frame_to_fractions(frame, rational)
    active = tuple(k for k in subset if any(v != 0 for v in cols[k]))
    if not active:
        return replace(_verdict_no_columns(subset), resolved_by="exact")
    if len(active) > EXACT_CAP:
        raise TooLarge(f"{len(active)} columns exceed the exact cap {EXACT_CAP}")
    g_cols = [exact.f_vector_exact(cols[k]) for k in active]
    g_rows = [[col[i] for col in g_cols] for i in range(len(g_cols[0]))]

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
        w = _exact_weights_to_scaling(frame, active, cols, u_active)
        s_star = float(min(w.u_exact[k] for k in active)) if strict else 0.0
        return Verdict(scalable=True, strict=strict, certificate=w,
                       boundary_flag=False, t_star=0.0, s_star=s_star,
                       subset=subset, spans=True, resolved_by="exact")

    g = np.array(g_cols, dtype=object).T
    t_star, h = _separator_lp(g)
    if t_star <= 0:
        raise ArithmeticError(
            "exact routes disagree: no vertex, yet no positive separator")
    sep = _package_separator(g, h, active)
    return Verdict(scalable=False, strict=False, certificate=sep,
                   boundary_flag=False, t_star=float(t_star), s_star=None,
                   subset=subset, spans=_exact_spans(cols, subset, frame.n),
                   resolved_by="exact")


def _decide_exact_lp(frame: Frame, subset, rational=None):
    """Mode "exact" of ``decide``: the two-phase LP with rational pivots,
    so every verdict is exact; returns the verdict and the route."""
    cols = exact.frame_to_fractions(frame, rational)
    active = tuple(k for k in subset if any(v != 0 for v in cols[k]))
    if not active:
        return (replace(_verdict_no_columns(subset), resolved_by="exact"),
                "no active columns")
    g = np.array([exact.f_vector_exact(cols[k]) for k in active],
                 dtype=object).T
    prog = _max_min_weight(g)
    return _decide_columns(
        prog, g, subset, active,
        lambda u: _exact_weights_to_scaling(frame, active, cols, list(u)),
        lambda: _exact_spans(cols, subset, frame.n)), prog.route
