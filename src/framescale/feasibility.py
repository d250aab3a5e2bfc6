"""The decision core: can a frame be rescaled into a tight frame?

A frame is scalable exactly when the transformed columns F(phi_k) admit a
nonnegative, nontrivial kernel combination; otherwise a strictly separating
direction exists.  ``decide`` runs the separator program first

    maximize t  subject to  <F(phi_k), h> >= t  for k in the subset,
                            |h|_inf <= 1,

whose optimum t* is the verdict: t* > 0 certifies non-scalability through
the maximizing h, while t* = 0 sends us to weight recovery, which returns a
basic feasible point of {F u = 0, sum u = 1, u >= 0} (and, for the strict
question, the max-min-weight point).  Exactly one of the two certificates
verifies; both are re-checked before being returned.

Mode ``"exact"`` runs the same programs with rational pivots.  Verdicts
inside a small band around t* = 0 are flagged and, by default, re-decided
that way when at most ``EXACT_CAP`` columns are active.  The decision
never calls ``exact_oracle`` (vertex enumeration): it is the reference.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from . import exact, simplex
from .errors import (DimensionTooSmall, Infeasible, LPNumericalFailure,
                     NotStrictlyScalable, TooLarge, ZeroColumn)
from .fmap import FImage, f_image, outer_svec_rows, svec
from .frames import (DEFAULT_TIGHT_TOL, Frame, ScalingWeights, _frozen,
                     make_weights, numerical_rank)

DEFAULT_BOUNDARY_BAND = 1e-9
DEFAULT_STRICT_THRESHOLD = 1e-10
EXACT_CAP = 12  # most active columns an exact escalation is tried on

SignWitness = namedtuple("SignWitness", "i j sign")
ConeFlags = namedtuple("ConeFlags", "pointed polar_interior_empty")


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Verdict:
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
        return tuple(range(frame.m))
    idx = tuple(sorted(int(k) for k in subset))
    if not idx:
        raise ValueError("subset must be nonempty")
    if len(set(idx)) != len(idx) or idx[0] < 0 or idx[-1] >= frame.m:
        raise ValueError(f"subset {idx} is not a set of column indices")
    return idx


def _active_columns(frame: Frame, subset) -> tuple:
    return tuple(k for k in subset if np.any(frame.column(k) != 0.0))


# --- LP assemblies ----------------------------------------------------------
# One builder per program; its 0/1 integer constants suit float64 columns
# and object columns of Fraction (``solve_lp_exact`` converts every entry).

def _solve(g: np.ndarray, a, b, c, basis=None) -> simplex.LPResult:
    """Solve over the number type of ``g``: rational for object arrays.

    ``solve_lp_exact`` keeps its public contract of returning ``x`` as a
    list; it is turned back into an object array here so that the callers
    can index and multiply it like the float ``x``."""
    if g.dtype == object:
        res = simplex.solve_lp_exact(a, b, c, initial_basis=basis)
        if res.x is not None:
            res.x = np.array(res.x, dtype=object)
        return res
    return simplex.solve_lp(a, b, c, initial_basis=basis)


def _separator_arrays(g: np.ndarray):
    """Standard form for the separator program.

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
    return a, b, c, basis


def _separator_lp(g: np.ndarray):
    """Optimum t* and maximizing h of the separator program on columns g."""
    a, b, c, basis = _separator_arrays(g)
    res = _solve(g, a, b, c, basis)
    if res.status != simplex.OPTIMAL:
        raise LPNumericalFailure(f"separator LP ended with {res.status}")
    d = g.shape[0]
    return res.x[2 * d] - res.x[2 * d + 1], res.x[:d] - res.x[d:2 * d]


def separator_search(fi: FImage, subset=None) -> tuple[float, np.ndarray]:
    """Best margin t* and a direction achieving it.

    t* > 0 means the open half-space cones of the tested columns share a
    point, so the subset is not scalable; t* = 0 means the origin lies in
    the convex hull of the tested columns and the subset is scalable.
    """
    g = fi.columns(subset)
    if g.shape[1] == 0:
        raise ValueError("subset must be nonempty")
    t_star, h = _separator_lp(g)
    return float(t_star), h


def _weights_arrays(g: np.ndarray):
    """The normalized kernel polytope {g u = 0, sum u = 1, u >= 0}."""
    d, k = g.shape
    a = np.vstack([g, np.ones((1, k), dtype=g.dtype)])
    b = np.zeros(d + 1, dtype=g.dtype)
    b[-1] = 1
    c = np.zeros(k, dtype=g.dtype)
    return a, b, c


def _strict_arrays(g: np.ndarray):
    """Max-min-weight program: u = v + s*1 with v, s >= 0, maximize s.

    It only runs on subsets already known to be scalable, where s = 0 is
    feasible, so s needs no negative part.
    """
    d, k = g.shape
    a = np.zeros((d + 1, k + 1), dtype=g.dtype)
    a[:d, :k] = g
    a[:d, k] = g.sum(axis=1)
    a[d, :k] = 1
    a[d, k] = k
    b = np.zeros(d + 1, dtype=g.dtype)
    b[-1] = 1
    c = np.zeros(k + 1, dtype=g.dtype)
    c[k] = -1
    return a, b, c


def _embed(frame: Frame, active, u_active) -> np.ndarray:
    u = np.zeros(frame.m)
    for pos, k in enumerate(active):
        u[k] = u_active[pos]
    return u


def weight_recovery(fi: FImage, frame: Frame, subset=None,
                    strict: bool = False, *,
                    tol_tight: float = DEFAULT_TIGHT_TOL,
                    strict_threshold: float = DEFAULT_STRICT_THRESHOLD
                    ) -> ScalingWeights:
    """Recover verified scaling weights on a subset already known scalable.

    Non-strict mode returns a basic feasible point of the normalized kernel
    polytope, so the support size never exceeds d + 1.  Strict mode solves
    the max-min-weight program and returns its optimizer when the optimum
    s* clears the strictness threshold; otherwise ``NotStrictlyScalable``
    is raised, carrying s*.
    """
    subset = _normalize_subset(frame, subset)
    active = _active_columns(frame, subset)
    if not active:
        raise Infeasible("subset has no nonzero columns")
    g = fi.columns(active)
    if not strict:
        res = _solve(g, *_weights_arrays(g))
        if res.status != simplex.OPTIMAL:
            raise Infeasible(f"weight recovery LP ended with {res.status}")
        w = make_weights(frame, _embed(frame, active, res.x))
        if w.residual > tol_tight * w.alpha:
            raise Infeasible(
                f"recovered weights verify poorly: residual {w.residual:.3e}")
        return w
    res = _solve(g, *_strict_arrays(g))
    if res.status == simplex.INFEASIBLE:
        raise Infeasible("strict weight LP infeasible")
    if res.status != simplex.OPTIMAL:
        raise LPNumericalFailure(f"strict weight LP ended with {res.status}")
    k = len(active)
    s_star = float(res.x[k])
    if s_star <= strict_threshold:
        raise NotStrictlyScalable(s_star)
    w = make_weights(frame, _embed(frame, active, res.x[:k] + s_star))
    if w.residual > tol_tight * w.alpha:
        raise LPNumericalFailure(
            f"strict weights verify poorly: residual {w.residual:.3e}")
    return w


def _package_separator(fi: FImage, h: np.ndarray, active) -> Separator:
    scale = float(np.max(np.abs(h)))
    if scale == 0.0:
        raise LPNumericalFailure("separator direction is zero")
    hn = h / scale
    margin = float(np.min(hn @ fi.columns(active)))
    return Separator(h=_frozen(hn), margin=margin, indices=tuple(active))


def _verdict_no_columns(subset) -> Verdict:
    # A subset of zero vectors cannot be a frame; there is no certificate
    # of either kind for it (the transform collapses to the zero column).
    return Verdict(scalable=False, strict=False, certificate=None,
                   boundary_flag=False, t_star=None, s_star=None,
                   subset=subset, spans=False, resolved_by="float")


def _decide_dim1(frame: Frame, subset, resolved_by="float") -> Verdict:
    """Dimension 1 never reaches the transform: every spanning system on
    the line is already tight, so uniform weights always work."""
    active = _active_columns(frame, subset)
    if not active:
        return _verdict_no_columns(subset)
    u = np.zeros(frame.m)
    u[list(subset)] = 1.0 / len(subset)
    w = make_weights(frame, u)
    return Verdict(scalable=True, strict=True, certificate=w,
                   boundary_flag=False, t_star=0.0, s_star=1.0 / len(subset),
                   subset=subset, spans=True, resolved_by=resolved_by)


def decide(frame: Frame, subset=None, mode: str = "float", *,
           band: float = DEFAULT_BOUNDARY_BAND,
           tol_tight: float = DEFAULT_TIGHT_TOL,
           strict_threshold: float = DEFAULT_STRICT_THRESHOLD,
           on_boundary: str = "resolve",
           rational=None) -> Verdict:
    """Decide scalability of a column subset, with a verified certificate.

    Zero columns are carried with weight zero: they never affect the
    verdict and can never be separated.  Non-spanning subsets come back
    non-scalable with ``spans`` False.  ``on_boundary`` controls what
    happens when t* falls in the tolerance band around 0: ``"resolve"``
    re-decides through the exact LP of mode ``"exact"`` (when the subset
    has at most ``EXACT_CAP`` active columns), ``"flag"`` only marks the
    verdict.
    """
    if mode not in ("float", "exact"):
        raise ValueError(f"unknown mode {mode!r}")
    subset = _normalize_subset(frame, subset)
    if frame.n == 1:
        return _decide_dim1(frame, subset,
                            resolved_by="exact" if mode == "exact" else "float")
    if mode == "exact":
        return _decide_exact_lp(frame, subset, rational=rational)
    active = _active_columns(frame, subset)
    if not active:
        return _verdict_no_columns(subset)
    fi = f_image(frame)
    t_star, h = separator_search(fi, active)
    if t_star < -band:
        raise LPNumericalFailure(f"separator optimum {t_star} below zero")
    boundary = t_star != 0.0 and abs(t_star) <= band

    def escalate() -> Verdict | None:
        if len(active) <= EXACT_CAP:
            v = _decide_exact_lp(frame, subset, rational=rational)
            return replace(v, boundary_flag=True)
        return None

    if boundary and on_boundary == "resolve":
        resolved = escalate()
        if resolved is not None:
            return resolved

    if t_star > 0.0 and (t_star > band or boundary):
        sep = _package_separator(fi, h, active)
        if sep.margin <= 0.0:
            resolved = escalate()
            if resolved is not None:
                return resolved
            raise LPNumericalFailure("separator failed re-verification")
        spans = numerical_rank(frame.matrix[:, list(subset)]) == frame.n
        return Verdict(scalable=False, strict=False, certificate=sep,
                       boundary_flag=boundary, t_star=t_star, s_star=None,
                       subset=subset, spans=spans, resolved_by="float")

    try:
        weights = weight_recovery(fi, frame, subset, strict=False,
                                  tol_tight=tol_tight)
    except Infeasible:
        resolved = escalate()
        if resolved is not None:
            return resolved
        raise
    s_star = None
    strict = False
    try:
        strict_weights = weight_recovery(fi, frame, subset, strict=True,
                                         tol_tight=tol_tight,
                                         strict_threshold=strict_threshold)
        strict = True
        s_star = float(np.min(strict_weights.u[list(active)]))
        weights = strict_weights
    except NotStrictlyScalable as e:
        s_star = float(e.s_star)
    return Verdict(scalable=True, strict=strict, certificate=weights,
                   boundary_flag=boundary, t_star=t_star, s_star=s_star,
                   subset=subset, spans=True, resolved_by="float")


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
    fi = f_image(frame)
    indices = tuple(range(frame.m))
    margin = float(np.min(h @ fi.matrix))
    return Separator(h=_frozen(h), margin=margin, indices=indices)


# --- cone geometry ----------------------------------------------------------

def cone_pointed(fi: FImage, subset=None) -> ConeFlags:
    """Pointedness of the cone generated by the transformed columns.

    The cone fails to be pointed exactly when a nonzero nonnegative kernel
    combination exists (every transformed column of a nonzero vector is
    nonzero, so a kernel vector folds the cone onto a line), which is the
    separator program reporting t* = 0; the polar cone has empty interior
    in exactly the same case.  Zero columns are refused.
    """
    if subset is None:
        subset = tuple(range(fi.m))
    g = fi.columns(subset)
    if np.any(np.all(g == 0.0, axis=0)):
        raise ZeroColumn("cone test is undefined for zero frame vectors")
    t_star, _ = separator_search(fi, subset)
    pointed = t_star > 0.0
    return ConeFlags(pointed=pointed, polar_interior_empty=not pointed)


# --- alternative formulation over outer products ------------------------------

def identity_in_outer_hull(frame: Frame, subset=None,
                           feas_tol: float = 1e-9) -> bool:
    """Scalability via the raw matrix formulation: is some positive
    multiple of the identity a convex combination of the outer products?

    Solved as a feasibility LP over vectorized symmetric matrices; kept as
    an independent route for cross-checking the transform-based decision.
    """
    subset = _normalize_subset(frame, subset)
    active = _active_columns(frame, subset)
    if not active:
        return False
    rows = outer_svec_rows(frame, active)  # one row per column of the frame
    ident = svec(np.eye(frame.n))
    k = len(active)
    a = np.zeros((ident.size + 1, k + 1))
    a[:ident.size, :k] = rows.T
    a[:ident.size, k] = -ident
    a[ident.size, :k] = 1.0
    b = np.zeros(ident.size + 1)
    b[-1] = 1.0
    res = simplex.solve_lp(a, b, np.zeros(k + 1), feas_tol=feas_tol)
    return res.status == simplex.OPTIMAL


# --- exact back-ends ----------------------------------------------------------

def _exact_weights_to_scaling(frame: Frame, subset, active, cols,
                              u_active) -> ScalingWeights:
    n = frame.n
    alpha = sum((u_active[pos] * exact.norm2_exact(cols[k])
                 for pos, k in enumerate(active)), Fraction(0)) / n
    total = sum(u_active, Fraction(0))
    u_norm = [v / total for v in u_active]
    alpha = alpha / total
    # The tightness identity must hold literally in rational arithmetic.
    s = [[Fraction(0)] * n for _ in range(n)]
    for pos, k in enumerate(active):
        col = cols[k]
        uk = u_norm[pos]
        if uk == 0:
            continue
        for i in range(n):
            for j in range(n):
                s[i][j] += uk * col[i] * col[j]
    for i in range(n):
        for j in range(n):
            expect = alpha if i == j else Fraction(0)
            if s[i][j] != expect:
                raise ArithmeticError("exact weights failed the tightness check")
    u_full = [Fraction(0)] * frame.m
    for pos, k in enumerate(active):
        u_full[k] = u_norm[pos]
    w = make_weights(frame, np.array([float(v) for v in u_full]),
                     normalize=False,
                     u_exact=tuple(u_full), alpha_exact=alpha)
    return w


def _exact_separator_package(frame: Frame, active, g_cols, t_star, h
                             ) -> Separator:
    scale = max(abs(v) for v in h)
    if scale == 0:
        raise LPNumericalFailure("exact separator direction is zero")
    hn = [v / scale for v in h]
    margin = min(sum((hv * gv for hv, gv in zip(hn, col)), Fraction(0))
                 for col in g_cols)
    if margin <= 0:
        raise ArithmeticError("exact separator failed its margin check")
    return Separator(h=_frozen(np.array([float(v) for v in hn])),
                     margin=float(margin), indices=tuple(active),
                     h_exact=tuple(hn), margin_exact=margin)


def _exact_spans(cols, active, n) -> bool:
    rows = [[cols[k][i] for k in active] for i in range(n)]
    return exact.rank_exact(rows) == n


def exact_oracle(frame: Frame, subset=None, *, rational=None) -> Verdict:
    """Certificate-exact decision over rational arithmetic.

    The kernel of the transformed subset is computed by fraction-free
    elimination; existence of a nonnegative (resp. everywhere-positive)
    kernel point is then decided by enumerating the vertices of the
    normalized weight polytope.  The dual branch produces an exact
    separating direction from the rational-pivot simplex and the two
    branches are asserted to agree.

    Frame entries convert losslessly to rationals; pass ``rational`` when
    the intended entries are not float-representable (e.g. 50-digit
    approximations of radicals) and read the verdict as applying to that
    approximant, with the certificate margin quantifying its robustness.
    """
    subset = _normalize_subset(frame, subset)
    if frame.n == 1:
        return _decide_dim1(frame, subset, resolved_by="exact")
    cols = exact.frame_to_fractions(frame, rational)
    active = tuple(k for k in subset if any(v != 0 for v in cols[k]))
    if not active:
        return replace(_verdict_no_columns(subset), resolved_by="exact")
    if len(active) > EXACT_CAP:
        raise TooLarge(f"{len(active)} columns exceed the exact cap {EXACT_CAP}")
    g_cols = [exact.f_vector_exact(cols[k]) for k in active]
    g_rows = [[col[i] for col in g_cols] for i in range(len(g_cols[0]))]

    kernel = exact.kernel_basis(g_rows)
    verts = []
    if kernel:
        ones = [Fraction(1)] * len(active)
        verts = exact.polytope_vertices(g_rows + [ones],
                                        [Fraction(0)] * len(g_rows) + [Fraction(1)])
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
        w = _exact_weights_to_scaling(frame, subset, active, cols, u_active)
        s_star = float(min(w.u_exact[k] for k in active)) if strict else 0.0
        return Verdict(scalable=True, strict=strict, certificate=w,
                       boundary_flag=False, t_star=0.0, s_star=s_star,
                       subset=subset, spans=True, resolved_by="exact")

    t_star, h = _separator_lp(np.array(g_cols, dtype=object).T)
    if t_star <= 0:
        raise ArithmeticError(
            "exact routes disagree: no vertex, yet no positive separator")
    sep = _exact_separator_package(frame, active, g_cols, t_star, h)
    return Verdict(scalable=False, strict=False, certificate=sep,
                   boundary_flag=False, t_star=float(t_star), s_star=None,
                   subset=subset, spans=_exact_spans(cols, subset, frame.n),
                   resolved_by="exact")


def _decide_exact_lp(frame: Frame, subset, rational=None) -> Verdict:
    """Mode "exact" of ``decide``: the same LP programs as the float path,
    run with rational pivots so every verdict is exact."""
    cols = exact.frame_to_fractions(frame, rational)
    active = tuple(k for k in subset if any(v != 0 for v in cols[k]))
    if not active:
        return replace(_verdict_no_columns(subset), resolved_by="exact")
    g_cols = [exact.f_vector_exact(cols[k]) for k in active]
    g = np.array(g_cols, dtype=object).T
    t_star, h = _separator_lp(g)
    if t_star > 0:
        sep = _exact_separator_package(frame, active, g_cols, t_star, h)
        return Verdict(scalable=False, strict=False, certificate=sep,
                       boundary_flag=False, t_star=float(t_star), s_star=None,
                       subset=subset,
                       spans=_exact_spans(cols, subset, frame.n),
                       resolved_by="exact")

    res = _solve(g, *_weights_arrays(g))
    if res.status != simplex.OPTIMAL:
        raise ArithmeticError("exact weight recovery contradicts t* = 0")
    u_active = list(res.x)
    res = _solve(g, *_strict_arrays(g))
    if res.status != simplex.OPTIMAL:
        raise ArithmeticError("exact strict LP failed on a scalable subset")
    k = len(active)
    s_star = res.x[k]
    strict = s_star > 0
    if strict:
        u_active = list(res.x[:k] + s_star)
    w = _exact_weights_to_scaling(frame, subset, active, cols, u_active)
    return Verdict(scalable=True, strict=strict, certificate=w,
                   boundary_flag=False, t_star=float(t_star),
                   s_star=float(s_star), subset=subset, spans=True,
                   resolved_by="exact")
