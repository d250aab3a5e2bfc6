import logging
import re
import time
from fractions import Fraction

import numpy as np
import pytest

import framescale as fs
from framescale import exact, feasibility, simplex
from framescale.feasibility import Separator
from framescale.frames import ScalingWeights
from conftest import random_orthogonal, random_scalable_frame


# --- separator search -------------------------------------------------------

def test_separator_on_quadrant_frame(quadrant):
    # All products phi(0) phi(1) are positive, so the pure product
    # coordinate (0, 1) is feasible; maximizing over the box gives 0.4:
    # min(0.5 h2, 0.4 h2 +/- 0.6 h1) peaks at h = (0, 1).
    t_star, h = fs.separator_search(fs.f_image(quadrant))
    assert t_star == pytest.approx(0.4, abs=1e-9)
    fi = fs.f_image(quadrant)
    assert np.min(h @ fi.matrix) > 0.0


def test_separator_on_onb_is_zero(onb2):
    t_star, _ = fs.separator_search(fs.f_image(onb2))
    assert t_star == 0.0


def test_separator_on_mercedes_nonpositive(mercedes):
    # The transformed columns average to zero: (1/3) sum F(phi_k) = 0.
    fi = fs.f_image(mercedes)
    np.testing.assert_allclose(fi.matrix @ np.full(3, 1 / 3), 0, atol=1e-15)
    t_star, _ = fs.separator_search(fi)
    assert t_star <= 0.0


# --- weight recovery --------------------------------------------------------

def test_weight_recovery_onb(onb2):
    w = fs.weight_recovery(onb2)
    np.testing.assert_allclose(w.u, [0.5, 0.5])
    assert w.alpha == pytest.approx(0.5)
    np.testing.assert_allclose(w.scalars(parseval=True), [1.0, 1.0])


def test_weight_recovery_forces_zero_weight(witness_base):
    # Exact oracle first: the kernel of the transformed columns is one
    # dimensional and kills the appended diagonal vector.
    cols = exact.frame_to_fractions(witness_base)
    g_cols = [exact.f_vector_exact(c) for c in cols]
    rows = [[c[i] for c in g_cols] for i in range(5)]
    basis = exact.kernel_basis(rows)
    assert len(basis) == 1 and basis[0][3] == 0
    w = fs.weight_recovery(witness_base)
    assert w.u[3] == 0.0
    np.testing.assert_allclose(w.u[:3], [1 / 3] * 3, atol=1e-12)
    with pytest.raises(fs.NotStrictlyScalable) as err:
        fs.weight_recovery(witness_base, strict=True)
    assert abs(err.value.s_star) <= 1e-10


def test_weight_recovery_strict_mercedes(mercedes):
    w = fs.weight_recovery(mercedes, strict=True)
    np.testing.assert_allclose(w.u, [1 / 3] * 3, atol=1e-12)
    assert w.alpha == pytest.approx(0.5, abs=1e-12)
    assert np.min(w.u) == pytest.approx(1 / 3, abs=1e-12)


def test_strict_weights_on_scalable_10x60_frame():
    # Phase 1 of the strict weight LP used to stop on a drifted reduced
    # cost and report "unbounded" on this frame.
    f = random_scalable_frame(np.random.default_rng(13), 10, 60)
    w = fs.weight_recovery(f, strict=True)
    assert w.residual <= 1e-9 * w.alpha and np.min(w.u) > 1e-10
    v = fs.decide(f)
    assert v.scalable and v.strict
    u = v.certificate.u
    assert np.min(u) > 1e-10 and v.s_star == pytest.approx(np.min(u))
    s = (f.matrix * u) @ f.matrix.T
    assert np.max(np.abs(s - v.certificate.alpha * np.eye(10))) \
        <= 1e-8 * v.certificate.alpha


def test_weights_at_10x60_get_one_least_squares_step():
    # The max-min-weight point of this frame leaves a residual of
    # 1.7e-9 alpha, and 60 columns are above EXACT_CAP: one least-squares
    # step on the support brings it back under the 1e-9 alpha check.
    f = random_scalable_frame(np.random.default_rng(381), 10, 60)
    v = fs.decide(f)
    assert v.scalable and v.strict and v.resolved_by == "float"
    w = v.certificate
    assert w.residual <= 1e-12 * w.alpha
    assert np.min(w.u) == pytest.approx(0.0046442, abs=1e-7)


def test_decide_planted_10x60_frame():
    # A degenerate tie used to pick a pivot element of 1e-11 in a column
    # whose largest entry is 54, and phase 1 then reported "unbounded".
    rng = np.random.default_rng(98)
    mat = rng.standard_normal((10, 60))
    mat[:, :30] = random_scalable_frame(rng, 10, 30).matrix
    f = fs.build_frame(10, mat.T)
    v = fs.decide(f)
    assert v.scalable and v.certificate.verify(f)


def test_weight_recovery_infeasible_on_separated_frame(quadrant):
    with pytest.raises((fs.Infeasible, fs.NotStrictlyScalable)):
        fs.weight_recovery(quadrant)


# --- decide -----------------------------------------------------------------

def test_decide_onb_strictly_scalable(onb2):
    v = fs.decide(onb2)
    assert v.scalable and v.strict
    assert isinstance(v.certificate, ScalingWeights)
    assert not v.boundary_flag


def test_decide_quadrant_not_scalable(quadrant):
    v = fs.decide(quadrant)
    assert not v.scalable and not v.strict
    assert isinstance(v.certificate, Separator)
    assert v.certificate.margin > 0.0
    assert v.t_star == v.certificate.verify(fs.f_image(quadrant))
    # the pure product coordinate works as a separator here
    fi = fs.f_image(quadrant)
    e_last = np.zeros(fi.d)
    e_last[-1] = 1.0
    assert np.all(e_last @ fi.matrix > 0.0)


def test_decide_onb_plus_support(onb_plus):
    v = fs.decide(onb_plus)
    assert v.scalable and not v.strict
    assert v.certificate.support == (0, 1)
    assert v.support_size == 2
    assert v.s_star == pytest.approx(0.0, abs=1e-10)


def test_decide_subset_restricts_columns(onb_plus):
    v = fs.decide(onb_plus, subset=(0, 2))
    assert not v.scalable  # e1 and the diagonal vector are not orthogonal
    v2 = fs.decide(onb_plus, subset=(0, 1))
    assert v2.scalable and v2.strict


def test_decide_non_spanning_subset_reported(onb2):
    v = fs.decide(onb2, subset=(0,))
    assert not v.scalable and not v.spans
    assert isinstance(v.certificate, Separator)


def test_decide_zero_columns_carried_with_zero_weight():
    f = fs.build_frame(2, [(1, 0), (0, 1), (0, 0)])
    v = fs.decide(f)
    assert v.scalable
    assert v.certificate.u[2] == 0.0
    all_zero = fs.decide(f, subset=(2,))
    assert not all_zero.scalable and all_zero.certificate is None


def test_decide_separates_random_10x100_frame():
    # The max-margin separator program used to exhaust the simplex
    # iteration budget here; the phase-1 Farkas duals of the weight
    # polytope do not.
    f = fs.random_frame(10, 100, seed=0)
    v = fs.decide(f)
    assert not v.scalable and isinstance(v.certificate, Separator)
    assert v.certificate.verify(fs.f_image(f)) >= 1e-10
    assert fs.cone_pointed(fs.f_image(f)).pointed


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_decide_never_runs_the_separator_program(
        onb2, quadrant, mercedes, onb_plus, monkeypatch, mode):
    def fail(*args, **kwargs):
        raise AssertionError("separator program called")

    monkeypatch.setattr(feasibility, "_separator_lp", fail)
    frames = (onb2, quadrant, mercedes, onb_plus)
    verdicts = [fs.decide(f, mode=mode) for f in frames]
    assert [v.scalable for v in verdicts] == [True, False, True, True]
    for frame, v in zip(frames, verdicts):
        if v.scalable:
            w = v.certificate
            assert w.residual <= 1e-9 * w.alpha and v.t_star == 0.0
        else:
            assert v.certificate.verify(fs.f_image(frame)) > 0.0
            if mode == "exact":
                assert v.certificate.margin_exact > 0


@pytest.mark.parametrize("mode", ["float", "exact"])
@pytest.mark.parametrize("error", [fs.LPNumericalFailure, fs.Infeasible])
def test_strict_lp_failure_keeps_verified_weights(mercedes, monkeypatch,
                                                  caplog, mode, error):
    if error is fs.LPNumericalFailure:
        # Phase 2 stops at once at its starting vertex: the weights there
        # are verified, strictness stays unknown.  Exact mode runs phase 1
        # first; float mode starts phase 2 at Wolfe's corral.
        run, calls = simplex._run_simplex, []
        phase_2 = 1 if mode == "float" else 2

        def stop_phase_2(*args):
            calls.append(args)
            if len(calls) == phase_2:
                return simplex.ITERATION_LIMIT
            return run(*args)

        monkeypatch.setattr(simplex, "_run_simplex", stop_phase_2)
        v = fs.decide(mercedes, mode=mode)
        assert len(calls) == phase_2
        assert v.scalable and not v.strict and v.s_star is None
        w = v.certificate
        assert w.residual <= 1e-9 * w.alpha
        assert "strictness not determined" in caplog.text
        return
    # The weights fail their re-check once.  There is no second point to
    # fall back to: float decide escalates, exact decide raises.
    name = "_verified_weights" if mode == "float" else \
        "_exact_weights_to_scaling"
    check, calls = getattr(feasibility, name), []

    def fail_once(*args):
        calls.append(args)
        if len(calls) == 1:
            raise fs.Infeasible("injected")
        return check(*args)

    monkeypatch.setattr(feasibility, name, fail_once)
    if mode == "exact":
        with pytest.raises(fs.Infeasible):
            fs.decide(mercedes, mode=mode)
        return
    v = fs.decide(mercedes)
    assert v.resolved_by == "exact" and v.boundary_flag
    assert v.scalable and v.strict


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_decide_solves_one_lp(mercedes, quadrant, monkeypatch, mode):
    calls = []

    def counted(solve):
        def wrapper(*args, **kwargs):
            calls.append(solve.__name__)
            return solve(*args, **kwargs)
        return wrapper

    for name in ("solve_lp", "solve_lp_exact"):
        monkeypatch.setattr(simplex, name, counted(getattr(simplex, name)))
    frames = [mercedes, quadrant]
    if mode == "float":  # rational pivots at 10 x 60 take minutes
        frames.append(random_scalable_frame(np.random.default_rng(13), 10, 60))
    for frame in frames:
        calls.clear()
        v = fs.decide(frame, mode=mode)
        assert v.resolved_by == mode
        if mode == "exact":
            assert calls == ["solve_lp_exact"]
        elif frame is quadrant:  # Wolfe's point separates: no LP at all
            assert calls == []
        else:
            assert calls in ([], ["solve_lp"])


@pytest.mark.parametrize("seed", [None, *range(6)])
def test_float_and_exact_s_star_agree(mercedes, seed):
    f = mercedes if seed is None else \
        random_scalable_frame(np.random.default_rng(9000 + seed), 3, 7)
    vf, ve = fs.decide(f), fs.decide(f, mode="exact")
    assert vf.strict and ve.strict
    assert abs(vf.s_star - float(ve.s_star)) <= 1e-12


def test_band_applies_to_the_separator_margin(quadrant):
    # The returned separator of quadrant is Wolfe's point, margin 0.4.
    # Tiled to 15 columns the frame is above EXACT_CAP, so a band case is
    # only flagged.
    tiled = fs.build_frame(2, np.tile(quadrant.matrix, 5).T)
    assert tiled.m > feasibility.EXACT_CAP
    v = fs.decide(tiled, band=1.0)
    assert v.boundary_flag and v.resolved_by == "float"
    assert v.t_star == pytest.approx(0.4) and not v.scalable
    assert not fs.decide(tiled).boundary_flag
    v = fs.decide(quadrant, band=0.5)
    assert v.boundary_flag and v.resolved_by == "exact"
    assert not v.scalable and v.certificate.margin_exact > 0
    assert not fs.decide(quadrant, band=0.3).boundary_flag


def _stalled_wolfe(g):
    return feasibility.Wolfe(None, [], "stalled", 0, 0)


def _must_not_run(*args, **kwargs):
    raise AssertionError("called")


def test_decide_separates_random_15x200_frame(monkeypatch):
    # Phase 1 of the two-phase LP ran out of iterations here and raised
    # LPNumericalFailure after 3.7 s; Wolfe's point separates in ~0.3 s.
    monkeypatch.setattr(simplex, "solve_lp", _must_not_run)
    f = fs.random_frame(15, 200, seed=1)
    start = time.perf_counter()
    v = fs.decide(f)
    assert time.perf_counter() - start < 3.0
    assert not v.scalable and v.resolved_by == "float"
    assert v.certificate.verify(fs.f_image(f)) > 0.0


@pytest.mark.parametrize("seed", range(5))
def test_non_scalable_float_decide_runs_no_lp(seed, monkeypatch):
    monkeypatch.setattr(simplex, "solve_lp", _must_not_run)
    f = fs.random_frame(10, 60, seed=seed)
    v = fs.decide(f)
    assert not v.scalable and v.t_star > feasibility.DEFAULT_BOUNDARY_BAND
    assert v.t_star == v.certificate.verify(fs.f_image(f))


@pytest.mark.parametrize("seed", range(5))
def test_wolfe_started_phase_2_keeps_the_two_phase_optimum(
        seed, monkeypatch, caplog):
    f = random_scalable_frame(np.random.default_rng(seed), 10, 60)
    with caplog.at_level(logging.DEBUG, logger=feasibility.__name__):
        v = fs.decide(f)
    assert "Wolfe basis and phase 2" in caplog.text
    monkeypatch.setattr(feasibility, "_wolfe", _stalled_wolfe)
    two_phase = fs.decide(f)
    assert v.strict and two_phase.strict
    assert abs(v.s_star - two_phase.s_star) <= 1e-9 * two_phase.s_star


def test_stalled_wolfe_falls_back_to_the_two_phase_lp(
        onb2, quadrant, mercedes, onb_plus, monkeypatch, caplog):
    monkeypatch.setattr(feasibility, "_wolfe", _stalled_wolfe)
    frames = (onb2, quadrant, mercedes, onb_plus)
    with caplog.at_level(logging.DEBUG, logger=feasibility.__name__):
        verdicts = [fs.decide(f) for f in frames]
    assert [v.scalable for v in verdicts] == [True, False, True, True]
    assert [v.strict for v in verdicts] == [True, False, True, False]
    assert verdicts[1].t_star == pytest.approx(0.25)  # the Farkas separator
    assert verdicts[2].s_star == pytest.approx(1 / 3)
    assert all("two-phase fallback (Wolfe stalled)" in r.getMessage()
               for r in caplog.records)
    assert len(caplog.records) == len(frames)


def test_decide_logs_one_record_naming_its_route(
        quadrant, mercedes, onb_plus, caplog):
    cases = [(quadrant, 1e-9, "Wolfe separator"),
             (mercedes, 1e-9, "Wolfe basis and phase 2"),
             (onb_plus, 1e-9, "two-phase fallback (corral of 2 < d + 1 = 3"),
             (quadrant, 0.5, "within the band, so exact: two-phase, exact")]
    for frame, band, route in cases:
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger=feasibility.__name__):
            fs.decide(frame, band=band)
        [record] = caplog.records
        assert record.levelno == logging.DEBUG
        assert route in record.getMessage()
        assert re.search(r"\d+ major and \d+ minor Wolfe cycles",
                         record.getMessage())
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger=feasibility.__name__):
        fs.decide(mercedes, mode="exact")
    [record] = caplog.records
    assert "two-phase, exact" in record.getMessage()


def test_decide_dimension_one():
    f = fs.build_frame(1, [(2.0,), (-1.0,)])
    v = fs.decide(f)
    assert v.scalable and v.strict
    assert v.certificate.alpha == pytest.approx(2.5)


@pytest.mark.parametrize("route", ["float", "exact", "oracle"])
def test_dimension_one_zero_column_gets_no_weight(route):
    # Zero columns carry weight zero in every dimension, the line included.
    f = fs.build_frame(1, [(2,), (0,), (-1,)])
    v = fs.exact_oracle(f) if route == "oracle" else fs.decide(f, mode=route)
    assert v.scalable and v.strict
    assert v.certificate.u[1] == 0.0 and v.certificate.support == (0, 2)
    assert v.s_star == 0.5


def test_packager_refuses_zero_and_nonpositive_separators():
    g = np.array([[1.0, -1.0]])
    with pytest.raises(fs.LPNumericalFailure):
        feasibility._package_separator(g, np.zeros(1), (0, 1))
    g = np.array([[Fraction(1), Fraction(-1)]], dtype=object)
    with pytest.raises(ArithmeticError):
        feasibility._package_separator(g, np.array([Fraction(2)],
                                                   dtype=object), (0, 1))
    sep = feasibility._package_separator(
        g[:, :1], np.array([Fraction(2)], dtype=object), (0,))
    assert sep.h_exact == (1,) and sep.margin_exact == 1


def test_decide_rejects_bad_subset(onb2):
    with pytest.raises(ValueError):
        fs.decide(onb2, subset=(0, 0))
    with pytest.raises(ValueError):
        fs.decide(onb2, subset=(5,))


# --- sign-based rejection ---------------------------------------------------

def test_sign_quick_reject_quadrant(quadrant):
    assert fs.sign_quick_reject(quadrant) == (0, 1, +1)


def test_sign_quick_reject_onb_none(onb2):
    assert fs.sign_quick_reject(onb2) is None


def test_sign_quick_reject_negative_products():
    f = fs.build_frame(2, [(1, -1), (2, -1)])
    wit = fs.sign_quick_reject(f)
    assert wit == (0, 1, -1)
    v = fs.decide(f)
    assert not v.scalable


def test_sign_witness_yields_explicit_separator(quadrant):
    wit = fs.sign_quick_reject(quadrant)
    sep = fs.separator_from_sign(quadrant, wit)
    assert sep.margin > 0.0


# --- cone flags ---------------------------------------------------------------

def test_cone_not_pointed_for_onb(onb2):
    flags = fs.cone_pointed(fs.f_image(onb2))
    assert not flags.pointed and flags.polar_interior_empty


def test_cone_pointed_for_quadrant(quadrant):
    flags = fs.cone_pointed(fs.f_image(quadrant))
    assert flags.pointed and not flags.polar_interior_empty


def test_cone_not_pointed_for_mercedes(mercedes):
    flags = fs.cone_pointed(fs.f_image(mercedes))
    assert not flags.pointed


def test_cone_rejects_zero_columns():
    f = fs.build_frame(2, [(1, 0), (0, 1), (0, 0)])
    with pytest.raises(fs.ZeroColumn):
        fs.cone_pointed(fs.f_image(f))


def test_cone_test_refuses_dimension_zero(monkeypatch):
    # The transform of a frame on the line has d = 0: every column is the
    # zero vector of R^0, which is not a zero frame vector.
    monkeypatch.setattr(feasibility, "_max_min_weight", _must_not_run)
    f = fs.build_frame(1, [(2,), (0,), (-1,)])
    with pytest.raises(fs.DimensionTooSmall, match="d = 0"):
        fs.cone_pointed(fs.f_image(f))


@pytest.mark.parametrize("seed", range(10))
def test_cone_flags_agree_with_decide(seed):
    rng = np.random.default_rng(3000 + seed)
    n = int(rng.integers(2, 4))
    m = int(rng.integers(n, 8))
    f = fs.random_frame(n, m, rng=rng)
    flags = fs.cone_pointed(fs.f_image(f))
    v = fs.decide(f)
    assert flags.pointed == (not v.scalable)
    assert flags.polar_interior_empty == v.scalable


# --- exact back-ends ----------------------------------------------------------

def test_exact_oracle_onb_unique_vertex(onb2):
    v = fs.exact_oracle(onb2)
    assert v.scalable and v.strict and v.resolved_by == "exact"
    assert v.certificate.u_exact == (Fraction(1, 2), Fraction(1, 2))


def test_exact_oracle_zero_weight_forced(witness_base):
    v = fs.exact_oracle(witness_base)
    assert v.scalable and not v.strict
    assert v.certificate.u_exact[3] == 0
    # every vertex of the normalized kernel polytope drops the fourth column
    cols = exact.frame_to_fractions(witness_base)
    g_cols = [exact.f_vector_exact(c) for c in cols]
    rows = [[c[i] for c in g_cols] for i in range(5)]
    verts = exact.polytope_vertices(rows + [[Fraction(1)] * 4],
                                    [Fraction(0)] * 5 + [Fraction(1)])
    assert verts and all(u[3] == 0 for u in verts)
    # cross-check the float path on the same instance
    vf = fs.decide(witness_base)
    assert vf.scalable == v.scalable and vf.strict == v.strict


def test_exact_oracle_quadrant_dual_certificate(quadrant):
    v = fs.exact_oracle(quadrant)
    assert not v.scalable
    sep = v.certificate
    assert sep.margin_exact > 0
    # independent re-check of the exact certificate
    cols = exact.frame_to_fractions(quadrant)
    for k in range(quadrant.m):
        g = exact.f_vector_exact(cols[k])
        prod = sum(hv * gv for hv, gv in zip(sep.h_exact, g))
        assert prod >= sep.margin_exact


def test_exact_oracle_respects_size_cap():
    f = fs.random_frame(2, 13, seed=0)
    with pytest.raises(fs.TooLarge):
        fs.exact_oracle(f)


def test_exact_oracle_with_supplied_rationals(mercedes):
    # 50-digit rational approximation of sqrt(3)/2 for the tilted columns.
    s = Fraction(
        "0.86602540378443864676372317075293618347140262690519")
    rational = [[0, 1], [-s, Fraction(-1, 2)], [s, Fraction(-1, 2)]]
    v = fs.exact_oracle(mercedes, rational=rational)
    assert v.scalable and v.strict
    u = v.certificate.u_exact
    assert sum(u) == 1 and all(w > 0 for w in u)
    for w in u:
        assert abs(w - Fraction(1, 3)) < Fraction(1, 10 ** 20)


def test_decide_exact_mode_matches_float(mercedes, quadrant, onb_plus):
    for frame in (mercedes, quadrant, onb_plus):
        vf = fs.decide(frame)
        ve = fs.decide(frame, mode="exact")
        assert ve.resolved_by == "exact"
        assert (vf.scalable, vf.strict) == (ve.scalable, ve.strict)


def test_exact_mode_certificates_are_exact(mercedes):
    v = fs.decide(mercedes, mode="exact")
    w = v.certificate
    assert w.u_exact is not None and w.alpha_exact is not None
    assert sum(w.u_exact) == 1


# --- cross-route invariants ---------------------------------------------------

@pytest.mark.parametrize("seed", range(25))
def test_exactly_one_certificate_verifies(seed):
    rng = np.random.default_rng(4000 + seed)
    n = int(rng.integers(2, 5))
    m = int(rng.integers(n, 11))
    f = fs.random_frame(n, m, rng=rng)
    v = fs.decide(f)
    if v.scalable:
        w = v.certificate
        assert isinstance(w, ScalingWeights)
        assert w.residual <= 1e-9 * w.alpha
    else:
        s = v.certificate
        assert isinstance(s, Separator)
        assert s.verify(fs.f_image(f)) > 0.0


@pytest.mark.parametrize("seed", range(10))
def test_verdict_invariant_under_orthogonal_maps(seed):
    rng = np.random.default_rng(5000 + seed)
    n = int(rng.integers(2, 5))
    m = int(rng.integers(n, 9))
    f = fs.random_frame(n, m, rng=rng)
    t = random_orthogonal(rng, n)
    v1 = fs.decide(f)
    v2 = fs.decide(fs.apply_orthogonal(f, t))
    assert v1.scalable == v2.scalable
    assert v1.strict == v2.strict


@pytest.mark.parametrize("seed", range(10))
def test_verdict_invariant_under_positive_column_scaling(seed):
    rng = np.random.default_rng(6000 + seed)
    n = int(rng.integers(2, 5))
    m = int(rng.integers(n, 9))
    f = fs.random_frame(n, m, rng=rng)
    lam = rng.uniform(0.25, 4.0, size=m)
    g = fs.build_frame(n, (f.matrix * lam).T)
    assert fs.decide(f).scalable == fs.decide(g).scalable


@pytest.mark.parametrize("seed", range(20))
def test_three_routes_agree(seed):
    rng = np.random.default_rng(7000 + seed)
    n = int(rng.integers(2, 4))
    m = int(rng.integers(n, 7))
    num = rng.integers(-16, 17, size=(n, m))
    if fs.numerical_rank(num / 8.0) < n:
        return
    f = fs.build_frame(n, (num / 8.0).T)
    vf = fs.decide(f)
    if vf.boundary_flag:
        assert vf.resolved_by == "exact"
        return
    assert vf.scalable == fs.exact_oracle(f).scalable \
        == fs.identity_in_outer_hull(f)


@pytest.mark.parametrize("seed", range(8))
def test_scalable_weights_solve_full_system(seed):
    rng = np.random.default_rng(8000 + seed)
    f = random_scalable_frame(rng, 3, 8)
    v = fs.decide(f)
    assert v.scalable
    u = v.certificate.u
    alpha = v.certificate.alpha
    s = (f.matrix * u) @ f.matrix.T
    # every one of the N(N+1)/2 equations, not only the homogeneous part
    assert np.max(np.abs(s - alpha * np.eye(f.n))) <= 1e-8 * alpha


def test_sign_witness_implies_not_scalable():
    rng = np.random.default_rng(99)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(n, 9))
        mat = rng.standard_normal((n, m))
        f = fs.build_frame(n, mat.T)
        wit = fs.sign_quick_reject(f)
        if wit is not None:
            assert not fs.decide(f).scalable
