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
from references import identity_in_outer_hull


# --- separator search -------------------------------------------------------

def test_separator_on_quadrant_frame(quadrant):
    # All products phi(0) phi(1) are positive, so the pure product
    # coordinate (0, 1) separates.  The margins are
    # min(0.5 h2, 0.4 h2 +/- 0.6 h1); the l2 and l_inf optima coincide at
    # h = (0, 1), where the margin is 0.4.
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


# (15, 200, 1): the l_inf max-margin LP this search once ran ended at its
# iteration limit there.
MIN_NORM_CASES = [(6, 30, 1), (10, 60, 0), (15, 200, 1)]


@pytest.mark.parametrize("n, m, seed", MIN_NORM_CASES)
def test_separator_search_returns_the_minimum_norm_point(n, m, seed):
    fi = fs.f_image(fs.random_frame(n, m, seed=seed))
    g = fi.matrix
    t_star, h = fs.separator_search(fi)
    assert t_star > 0.0
    assert t_star == np.min(h / np.max(np.abs(h)) @ g)
    # Optimality: no column lies nearer the origin along h than h itself.
    assert np.all(h @ g >= (h @ h) * (1 - 1e-9))
    # h is a point of conv(g): phase 1 finds u >= 0, sum u = 1, g u = h.
    a = np.vstack([g, np.ones(m)])
    res = simplex.solve_lp(a, np.append(h, 1.0), np.zeros(m))
    assert res.status == simplex.OPTIMAL


@pytest.mark.parametrize("n, m, seed", MIN_NORM_CASES)
def test_separator_search_certifies_the_larger_radius(n, m, seed):
    # The radius grows with min <h, g> / |h|_2, which the minimum-norm
    # point maximizes, so no certificate of decide certifies more.
    f = fs.random_frame(n, m, seed=seed)
    fi = fs.f_image(f)
    _, h = fs.separator_search(fi)
    best = feasibility._package_separator(fi.matrix, h, range(m))
    v = fs.decide(f)
    assert not v.scalable
    assert fs.separation_radius(f, best) >= \
        (1 - 1e-9) * fs.separation_radius(f, v.certificate)


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


def test_full_frame_spans_without_a_rank(monkeypatch):
    # build_frame refuses rank < n, so every column together spans.
    f = fs.random_frame(10, 60, seed=0)
    monkeypatch.setattr(feasibility, "numerical_rank", _must_not_run)
    v = fs.decide(f)
    assert not v.scalable and v.spans
    assert fs.decide(f, subset=range(f.m)).spans


def test_exact_full_frame_spans_without_a_rank(monkeypatch):
    # One spans rule in both modes: a proper subset reads its exact rank,
    # and the whole frame, non-scalable here, spans without one.
    f = fs.build_frame(3, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)])
    assert not fs.decide(f, subset=(0, 1, 2), mode="exact").spans
    f = fs.random_frame(3, 6, seed=0)
    monkeypatch.setattr(exact, "rank_exact", _must_not_run)
    v = fs.decide(f, mode="exact")
    assert not v.scalable and v.spans and v.resolved_by == "exact"
    assert fs.decide(f, subset=range(f.m), mode="exact").spans


def test_proper_subsets_still_read_their_rank(onb_plus):
    v = fs.decide(onb_plus, subset=(0, 2))
    assert not v.scalable and v.spans
    f = fs.build_frame(3, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)])
    v = fs.decide(f, subset=(0, 1, 2))
    assert not v.spans


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
        onb2, quadrant, mercedes, onb_plus, mode):
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


def _wolfe_basis_frame():
    """k = 4 > d + 1 columns in R^2 with a negative least-norm weight:
    Wolfe's corral starts phase 2."""
    return random_scalable_frame(np.random.default_rng(0), 2, 4)


def _two_onbs():
    """Two orthonormal bases of R^2: the least-norm weights are uniform,
    but the push onto d + 1 = 3 columns zeroes two at once, and Wolfe
    reaches the origin on a corral of two columns."""
    r = 1 / np.sqrt(2.0)
    return fs.build_frame(2, [(1, 0), (0, 1), (r, r), (r, -r)])


def _twin_columns():
    """An orthonormal basis of R^2 with its first vector repeated: Wolfe
    reaches the origin on a corral of one twin and (0, 1), and the twin
    left out completes it to a singular basis."""
    return fs.build_frame(2, [(1.0, 0.0), (1.0, 0.0), (0.0, 1.0)])


@pytest.mark.parametrize("mode", ["float", "exact"])
@pytest.mark.parametrize("error", [fs.LPNumericalFailure, fs.Infeasible])
def test_strict_lp_failure_keeps_verified_weights(mercedes, monkeypatch,
                                                  caplog, mode, error):
    if error is fs.LPNumericalFailure:
        # Phase 2 stops at once at its starting vertex: the weights there
        # are verified, strictness stays unknown.  Exact mode runs phase 1
        # first; float mode starts phase 2 at Wolfe's corral on a frame of
        # k > d + 1 columns whose least-norm weights decline (mercedes has
        # k = d + 1 and takes them with no LP).
        run, calls = simplex._run_simplex, []
        phase_2 = 1 if mode == "float" else 2
        frame = mercedes if mode == "exact" else _wolfe_basis_frame()

        def stop_phase_2(*args):
            calls.append(args)
            if len(calls) == phase_2:
                return simplex.ITERATION_LIMIT
            return run(*args)

        monkeypatch.setattr(simplex, "_run_simplex", stop_phase_2)
        with caplog.at_level(logging.DEBUG, logger=feasibility.__name__):
            v = fs.decide(frame, mode=mode)
        assert len(calls) == phase_2
        if mode == "float":
            assert "Wolfe basis and phase 2" in caplog.text
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
        if frame is quadrant:  # Wolfe's point separates: no LP at all,
            assert calls == []    # and exact mode checks it in rationals
        elif mode == "exact":
            assert calls == ["solve_lp_exact"]
        else:
            assert calls in ([], ["solve_lp"])


@pytest.mark.parametrize("seed", [None, *range(6)])
def test_float_and_exact_s_star_agree(mercedes, seed):
    f = mercedes if seed is None else \
        random_scalable_frame(np.random.default_rng(9000 + seed), 3, 7)
    vf, ve = fs.decide(f), fs.decide(f, mode="exact")
    assert vf.strict and ve.strict
    assert abs(vf.s_star - float(ve.s_star)) <= 1e-12


def _inside_the_band(copies):
    """``copies`` copies of two columns with the images (1, 5e-10) and
    (-1, 5e-10): every separator has margin at most 5e-10 at
    |h|_inf = 1, inside the band."""
    return fs.build_frame(2, [_with_image(1.0, 5e-10),
                              _with_image(-1.0, 5e-10)] * copies)


def test_band_applies_to_the_separator_margin(quadrant):
    # The best margin, separator_search's, lies inside the band.  Seven
    # copies are above EXACT_CAP, but the band separator passes its check
    # in rationals, which needs no cap; six are at the cap, and exact mode
    # resolves it too.
    f = _inside_the_band(7)
    assert f.m > feasibility.EXACT_CAP
    t_best = fs.separator_search(fs.f_image(f))[0]
    assert 0.0 < t_best <= feasibility.DEFAULT_BOUNDARY_BAND
    v = fs.decide(f)
    assert v.boundary_flag and v.resolved_by == "exact"
    assert v.t_star == pytest.approx(5e-10) and not v.scalable
    assert v.certificate.margin_exact > 0
    f = _inside_the_band(6)
    assert f.m == feasibility.EXACT_CAP
    v = fs.decide(f)
    assert v.boundary_flag and v.resolved_by == "exact"
    assert not v.scalable and v.certificate.margin_exact > 0
    # The returned separator of quadrant is Wolfe's point, margin 0.4,
    # well outside the band, tiled to 15 columns or not.
    tiled = fs.build_frame(2, np.tile(quadrant.matrix, 5).T)
    assert not fs.decide(tiled).boundary_flag
    assert not fs.decide(quadrant).boundary_flag


def test_band_separator_failing_its_exact_check_needs_the_cap(
        monkeypatch, caplog):
    # Only the rational LP is bound by EXACT_CAP: a band separator that
    # fails its check in rationals is re-decided by that LP at the cap and
    # only flagged above it.
    monkeypatch.setattr(feasibility, "_exact_separator", lambda h, g: None)
    v, route = _route_of(_inside_the_band(7), caplog)
    assert v.boundary_flag and v.resolved_by == "float" and not v.scalable
    assert route.endswith("within the band, so exact: float separator "
                          "failed its exact check, flagged")
    v, route = _route_of(_inside_the_band(6), caplog)
    assert v.boundary_flag and v.resolved_by == "exact" and not v.scalable
    assert ("within the band, so exact: float separator failed its exact "
            "check, so two-phase, exact; both phases") in route


def _stalled_wolfe(g):
    return feasibility.Wolfe(None, [], "stalled", 0, 0)


def _must_not_run(*args, **kwargs):
    raise AssertionError("called")


def _wolfe_cycles(route):
    """The major and minor Wolfe cycles a route record names."""
    found = re.search(r"(\d+) major and (\d+) minor Wolfe cycles", route)
    return int(found.group(1)), int(found.group(2))


def test_decide_separates_random_15x200_frame(monkeypatch, caplog):
    # Phase 1 of the two-phase LP ran out of iterations here and raised
    # LPNumericalFailure after 3.7 s; Wolfe's point separates in ~0.3 s.
    monkeypatch.setattr(simplex, "solve_lp", _must_not_run)
    f = fs.random_frame(15, 200, seed=1)
    start = time.perf_counter()
    v, route = _route_of(f, caplog)
    assert time.perf_counter() - start < 3.0
    assert not v.scalable and v.resolved_by == "float"
    # The work the time bound stands for: Wolfe separates after 144 major
    # and 41 minor cycles, with room here for twice as many.
    assert "Wolfe separator" in route
    major, minor = _wolfe_cycles(route)
    assert major <= 288 and minor <= 82
    assert not v.boundary_flag
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
    # These frames take the least-norm basis; declining it puts them on
    # Wolfe's corral.
    monkeypatch.setattr(feasibility, "_least_norm", lambda g: None)
    with caplog.at_level(logging.DEBUG, logger=feasibility.__name__):
        v = fs.decide(f)
    assert "Wolfe basis and phase 2" in caplog.text
    monkeypatch.setattr(feasibility, "_wolfe", _stalled_wolfe)
    two_phase = fs.decide(f)
    assert v.strict and two_phase.strict
    assert abs(v.s_star - two_phase.s_star) <= 1e-9 * two_phase.s_star


def test_stalled_wolfe_falls_back_to_the_two_phase_lp(
        onb2, quadrant, mercedes, onb_plus, monkeypatch, caplog):
    # The least-norm weights would decide onb2, mercedes and onb_plus.
    monkeypatch.setattr(feasibility, "_least_norm", lambda g: None)
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


def test_decide_logs_one_record_naming_its_route(quadrant, mercedes, caplog):
    cases = [(quadrant, "Wolfe separator"),
             (_wolfe_basis_frame(), "Wolfe basis and phase 2"),
             (_two_onbs(), "Wolfe basis and phase 2"),
             (_twin_columns(), "two-phase fallback (singular corral basis)"),
             (_inside_the_band(1),
              "within the band, so exact: checked in rationals")]
    for frame, route in cases:
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger=feasibility.__name__):
            fs.decide(frame)
        [record] = caplog.records
        assert record.levelno == logging.DEBUG
        assert route in record.getMessage()
        assert re.search(r"\d+ major and \d+ minor Wolfe cycles",
                         record.getMessage())
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger=feasibility.__name__):
        fs.decide(mercedes, mode="exact")
    [record] = caplog.records
    assert "float found weights, so two-phase, exact" in record.getMessage()


def test_route_record_names_pivots_and_phase(mercedes, caplog):
    cases = [(_wolfe_basis_frame(), "float", r"Wolfe basis and phase 2 .*; "
              r"phase 2: (\d+) pivots, 0 under Bland's guard$"),
             (_two_onbs(), "float", r"Wolfe basis and phase 2 .*; "
              r"phase 2: (\d+) pivots, 0 under Bland's guard$"),
             (_twin_columns(), "float", r"two-phase fallback .*; both "
              r"phases: (\d+) pivots, 0 under Bland's guard$"),
             (mercedes, "exact", r"; both phases: (\d+) pivots, 0 under "
              r"Bland's guard$")]
    for frame, mode, pattern in cases:
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger=feasibility.__name__):
            fs.decide(frame, mode=mode)
        [record] = caplog.records
        assert re.search(pattern, record.getMessage())
    f = random_scalable_frame(np.random.default_rng(0), 10, 60)
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger=feasibility.__name__):
        fs.decide(f)
    [record] = caplog.records
    assert "fresh K^-1" not in record.getMessage()
    assert int(re.search(r"phase 2: (\d+) pivots", record.getMessage())
               .group(1)) > 0


def _planted(seed, n, s, m):
    """A scalable n x s subframe and m - s Gaussian columns."""
    rng = np.random.default_rng(seed)
    sub = random_scalable_frame(rng, n, s).matrix
    gaussians = rng.standard_normal((n, m - s))
    return fs.build_frame(n, np.hstack([sub, gaussians]).T)


def _planted_4x13(seed):
    """A scalable 4 x 5 subframe and 8 Gaussian columns: scalable, not
    strictly, and Wolfe reaches the origin on a corral of fewer than
    d + 1 = 10 columns."""
    return _planted(seed, 4, 5, 13)


@pytest.mark.parametrize("frame", [_two_onbs(), _planted_4x13(0)],
                         ids=["two-onbs", "planted-4x13"])
def test_short_corral_is_completed_to_a_basis(frame, monkeypatch, caplog):
    v, route = _route_of(frame, caplog)
    assert "Wolfe basis and phase 2" in route and "both phases" not in route
    assert v.scalable and v.certificate.verify(frame)
    monkeypatch.setattr(feasibility, "_least_norm", lambda g: None)
    monkeypatch.setattr(feasibility, "_wolfe", _stalled_wolfe)
    two_phase = fs.decide(frame)
    assert v.strict == two_phase.strict
    assert abs(v.s_star - two_phase.s_star) <= 1e-12


@pytest.mark.parametrize("frame", [_planted_4x13(2), _planted(1, 10, 30, 60)],
                         ids=["planted-4x13", "planted-10x60"])
def test_non_strict_weights_keep_the_support_of_the_phase_2_vertex(frame):
    # Phase 2 ends with s* at rounding level, 2.8e-18 and 4.5e-18: not
    # strict.  u = v + s* 1 would give every column a weight; the vertex v
    # has at most d + 1 = n(n + 1)/2 positive entries.
    v = fs.decide(frame)
    assert v.scalable and not v.strict and v.resolved_by == "float"
    assert 0.0 < v.s_star <= feasibility.WOLFE_POS_TOL
    assert v.support_size <= frame.n * (frame.n + 1) // 2 < frame.m
    assert v.certificate.verify(frame)


def test_decide_separates_random_20x400_frame(monkeypatch, caplog):
    # 2.2 s with a least-squares solve per Wolfe minor cycle; ~0.2 s with
    # the kept inverse.  The bound leaves room for a loaded machine, and
    # the work behind it is 332 major and 128 minor Wolfe cycles, with room
    # here for twice as many.
    monkeypatch.setattr(simplex, "solve_lp", _must_not_run)
    f = fs.random_frame(20, 400, seed=1)
    start = time.perf_counter()
    v, route = _route_of(f, caplog)
    assert time.perf_counter() - start < 1.0
    assert "Wolfe separator" in route
    major, minor = _wolfe_cycles(route)
    assert major <= 664 and minor <= 256
    assert not v.scalable and v.t_star > feasibility.DEFAULT_BOUNDARY_BAND
    assert v.certificate.verify(fs.f_image(f)) > 0.0


def test_decide_determines_strictness_at_20x400(caplog):
    # 5.9 s with Bland's rule in phase 2 and a least-squares solve per
    # Wolfe minor cycle; ~0.7 s with Dantzig pricing and the kept inverse.
    # The work behind the bound is 1,362 phase-2 pivots, none under
    # Bland's guard, with room here for twice as many.
    f = random_scalable_frame(np.random.default_rng(0), 20, 400)
    start = time.perf_counter()
    v, route = _route_of(f, caplog)
    assert time.perf_counter() - start < 3.0
    pivots = re.search(r"; phase 2: (\d+) pivots, 0 under Bland's guard$",
                       route)
    assert pivots and int(pivots.group(1)) <= 2724
    assert v.scalable and v.strict and v.s_star is not None
    w = v.certificate
    assert w.residual <= 1e-9 * w.alpha


def test_results_keep_no_instance_dict_and_share_full_support(mercedes,
                                                               quadrant):
    v = fs.decide(mercedes)
    assert v.strict and v.certificate.support is v.subset
    sep = fs.decide(quadrant).certificate
    found = fs.is_m_scalable(mercedes, 3)
    index = fs.scalability_index(mercedes)
    for obj in (v, v.certificate, sep, found, index):
        assert not hasattr(obj, "__dict__")
    # Every frame that is not scalable shares one index result.
    assert fs.scalability_index(quadrant) is fs.scalability_index(quadrant)


def test_active_columns_reads_no_column_of_a_frame_without_zero_columns(
        mercedes, monkeypatch):
    f = fs.build_frame(2, [(1, 0), (0, 0), (0, 1)])
    assert feasibility._active_columns(f, (0, 1, 2)) == (0, 2)
    monkeypatch.setattr(fs.Frame, "column", _must_not_run)
    subset = (0, 2)
    assert feasibility._active_columns(mercedes, subset) is subset


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


def _corral_at_the_origin(corral):
    def wolfe(g):
        return feasibility.Wolfe(np.zeros(g.shape[0]), list(corral), "zero",
                                 0, 0)
    return wolfe


def _at_angles(*degrees):
    return fs.build_frame(2, [(np.cos(np.radians(t)), np.sin(np.radians(t)))
                              for t in degrees])


@pytest.mark.parametrize("twin", [(1.0, 0.0), (1.0, 1e-13)])
def test_singular_corral_basis_falls_back_to_two_phases(twin, monkeypatch,
                                                        caplog):
    # Columns 0 and 1 are (nearly) one vector: a corral holding both is no
    # basis, whether its inverse fails outright or is merely ill-conditioned.
    f = fs.build_frame(2, [(1.0, 0.0), twin, (0.0, 1.0)])
    monkeypatch.setattr(feasibility, "_wolfe", _corral_at_the_origin([0, 1, 2]))
    v, route = _route_of(f, caplog)
    assert "two-phase fallback (singular corral basis)" in route
    assert "both phases" in route
    assert v.scalable and v.certificate.verify(f)


@pytest.mark.parametrize("copies, n", [(2, 3), (4, 4)],
                         ids=["2-copies-of-I3", "4-copies-of-I4"])
def test_unions_of_orthonormal_bases_reach_the_two_phase_fallback(
        copies, n, caplog):
    # Copies of one orthonormal basis give [F; 1'] rank n, below d + 1:
    # k = d + 1 = 6 columns make K singular, k = 16 > d + 1 make g g'
    # singular, and Wolfe's corral, completed with a copy, is no basis.
    f = fs.build_frame(n, np.vstack([np.eye(n)] * copies))
    v, route = _route_of(f, caplog)
    assert "two-phase fallback (singular corral basis)" in route
    assert "both phases" in route
    e = fs.decide(f, mode="exact")
    assert v.scalable and v.strict and e.strict
    assert e.s_star == 1 / (copies * n)
    assert v.s_star == pytest.approx(e.s_star, rel=1e-12)
    assert v.certificate.verify(f)


def test_infeasible_corral_basis_falls_back_to_two_phases(monkeypatch,
                                                          caplog):
    # F(x) = (cos 2t, sin 2t / 2) |x|^2 at angle t: three columns within 30
    # degrees keep the origin out of their triangle, so the corral's affine
    # weights at the origin have a negative entry.
    f = _at_angles(10, 20, 30)
    monkeypatch.setattr(feasibility, "_wolfe", _corral_at_the_origin([0, 1, 2]))
    v, route = _route_of(f, caplog)
    assert "two-phase fallback (infeasible corral basis)" in route
    assert not v.scalable and v.certificate.verify(fs.f_image(f)) > 0.0


def _started_program(monkeypatch, g, corral):
    """What ``_phase_2`` hands the simplex: (t, e, c, basis, route)."""
    started = []
    monkeypatch.setattr(feasibility, "_solve_program",
                        lambda *args: started.append(args) or "result")
    assert feasibility._phase_2(g, corral, "route") == ("result", None)
    [args] = started
    return args


def test_phase_2_starts_from_the_program_in_canonical_form(mercedes,
                                                          monkeypatch):
    g = fs.f_image(mercedes).matrix
    w = feasibility._wolfe(g)
    t, e, _, basis, _ = _started_program(monkeypatch, g, w.corral)
    assert basis == w.corral
    # B^-1 (A, b) with B = A on the corral: the uniform weights, which
    # solve A u = b with s = 0, solve t u = e too.
    np.testing.assert_array_equal(t[:, w.corral], np.eye(3))
    np.testing.assert_allclose(t[:, :3] @ np.full(3, 1 / 3), e, atol=1e-12)
    assert np.all(e >= 0.0)


def test_phase_2_completes_a_short_corral_without_changing_it(monkeypatch):
    # (1, 0) and (0, 1) carry the origin of F's image; the lowest-index
    # column outside that corral completes it, with weight 0.
    g = fs.f_image(_two_onbs()).matrix
    corral = [1, 0]
    t, e, _, basis, _ = _started_program(monkeypatch, g, corral)
    assert corral == [1, 0] and basis == [1, 0, 2]
    np.testing.assert_array_equal(t[:, basis], np.eye(3))
    np.testing.assert_allclose(e, [0.5, 0.5, 0.0], atol=1e-15)


def _route_of(frame, caplog, **kwargs):
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger=feasibility.__name__):
        v = fs.decide(frame, **kwargs)
    [record] = caplog.records
    return v, record.getMessage()


# --- least-norm route ---------------------------------------------------------

def _frame_10x60(kind, seed):
    if kind == "scalable":
        return random_scalable_frame(np.random.default_rng(seed), 10, 60)
    return fs.random_frame(10, 60, seed=seed)


@pytest.mark.parametrize("kind", ["scalable", "random"])
@pytest.mark.parametrize("seed", range(5))
def test_least_norm_basis_keeps_wolfes_verdict(kind, seed, monkeypatch):
    f = _frame_10x60(kind, seed)
    v = fs.decide(f)
    monkeypatch.setattr(feasibility, "_least_norm", lambda g: None)
    w = fs.decide(f)
    assert (v.scalable, v.strict, v.support_size) == \
        (w.scalable, w.strict, w.support_size)
    assert v.scalable == (kind == "scalable")
    if v.scalable:
        assert v.s_star == pytest.approx(w.s_star, rel=1e-9)
        assert v.certificate.verify(f)


def _least_norm_weights(f):
    """The point of least norm of {F u = 0, sum u = 1}."""
    a = np.vstack([fs.f_image(f).matrix, np.ones(f.m)])
    return np.linalg.lstsq(a, np.eye(len(a))[-1], rcond=None)[0]


@pytest.mark.parametrize("seed", range(5))
def test_scalable_10x60_frames_skip_wolfe(seed, monkeypatch, caplog):
    f = _frame_10x60("scalable", seed)
    positive = np.min(_least_norm_weights(f)) > 0.0
    assert positive == (seed not in (2, 4))
    if positive:
        monkeypatch.setattr(feasibility, "_wolfe", _must_not_run)
    v, route = _route_of(f, caplog)
    if positive:
        assert re.search(r"on 60 columns: least-norm basis and phase 2; "
                         r"phase 2: \d+ pivots", route)
    else:
        assert "Wolfe basis and phase 2" in route
    assert v.strict


@pytest.mark.parametrize("seed", range(5))
def test_random_10x60_frames_decline_the_least_norm_basis(seed, caplog):
    f = _frame_10x60("random", seed)
    assert feasibility._least_norm(fs.f_image(f).matrix) is None
    v, route = _route_of(f, caplog)
    assert "Wolfe separator" in route and not v.scalable


def _zero_in_coordinate_0_or_1():
    # Every column has phi(0) phi(1) = 0, so that row of [F; 1'] is zero.
    rng = np.random.default_rng(0)
    cols = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    for i in range(6):
        v = rng.standard_normal(3)
        v[i % 2] = 0.0
        cols.append(v)
    return fs.build_frame(3, cols)


@pytest.mark.parametrize("rotate", [False, True])
def test_rank_deficient_columns_decline_the_least_norm_basis(rotate, caplog):
    # The zero row makes the normal equations singular.  A rotation mixes
    # it into the others: the normal equations solve, and the least-norm
    # weights are positive, but [F; 1'] still has rank d.  The exact
    # verdict is the unrotated frame's: rotations keep scalability.
    f = base = _zero_in_coordinate_0_or_1()
    if rotate:
        f = fs.apply_orthogonal(base, random_orthogonal(
            np.random.default_rng(0), 3))
    g = fs.f_image(f).matrix
    assert fs.numerical_rank(np.vstack([g, np.ones(f.m)])) == fs.target_dim(3)
    assert feasibility._least_norm(g) is None
    if rotate:
        assert np.min(_least_norm_weights(f)) > 0.0
    v, route = _route_of(f, caplog)
    assert "Wolfe" in route and "least-norm" not in route
    e = fs.decide(base, mode="exact")
    assert (v.scalable, v.strict) == (e.scalable, e.strict) == (True, True)


def _onb_and_gaussians(seed):
    """An orthonormal basis of R^3 and four Gaussian vectors: scalable."""
    rng = np.random.default_rng(seed)
    return fs.build_frame(3, np.vstack([np.eye(3),
                                        rng.standard_normal((4, 3))]))


def test_negative_least_norm_weights_decline(caplog):
    # Not strictly scalable, and the least-norm weights have a negative
    # entry.
    f = _onb_and_gaussians(0)
    assert np.min(_least_norm_weights(f)) < 0.0
    assert feasibility._least_norm(fs.f_image(f).matrix) is None
    v, route = _route_of(f, caplog)
    assert "Wolfe" in route and "least-norm" not in route
    e = fs.decide(f, mode="exact")
    assert (v.scalable, v.strict) == (e.scalable, e.strict) == (True, False)


@pytest.mark.parametrize("seed", [3, 4])
def test_least_norm_basis_agrees_with_exact_on_small_frames(seed, caplog):
    f = _onb_and_gaussians(seed)
    v, route = _route_of(f, caplog)
    assert "least-norm basis and phase 2" in route
    e = fs.decide(f, mode="exact")
    assert (v.scalable, v.strict) == (e.scalable, e.strict) == (True, True)
    assert v.s_star == pytest.approx(float(e.s_star), rel=1e-9)


def test_refused_least_norm_basis_falls_back_to_wolfe(monkeypatch, caplog):
    # Columns 0-2 keep the origin out of their triangle (see the infeasible
    # corral test above), so their basis is infeasible; the frame is
    # scalable, and Wolfe's corral starts phase 2.  The least-norm basis is
    # swapped for columns 0-2, and the second basis checked is Wolfe's.
    f = _at_angles(10, 20, 30, 70, 130)
    assert "least-norm basis and phase 2" in _route_of(f, caplog)[1]
    g = fs.f_image(f).matrix
    real, corrals = feasibility._phase_2, []
    assert real(g, [0, 1, 2], "route") == (None, "infeasible corral basis")

    def first_basis_infeasible(g, corral, route):
        corrals.append(corral)
        return real(g, [0, 1, 2] if len(corrals) == 1 else corral, route)

    monkeypatch.setattr(feasibility, "_phase_2", first_basis_infeasible)
    v, route = _route_of(f, caplog)
    assert len(corrals) == 2
    assert "Wolfe basis and phase 2" in route and "both phases" not in route
    assert v.scalable and v.strict and v.certificate.verify(f)


# --- least-norm separator and weights: k <= d + 1 ---------------------------

@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("m", range(4, 10))
def test_small_frames_separate_by_their_affine_hull(m, seed, monkeypatch,
                                                   caplog):
    # m <= d = 9 columns: the nearest point x of the affine hull has
    # <x, F(phi_k)> = |x|^2 on every column, with no Wolfe and no LP.
    monkeypatch.setattr(feasibility, "_wolfe", _must_not_run)
    monkeypatch.setattr(simplex, "solve_lp", _must_not_run)
    f = fs.random_frame(4, m, seed=seed)
    v, route = _route_of(f, caplog)
    assert route.endswith("least-norm separator")
    assert not v.scalable and not v.boundary_flag
    products = v.certificate.h @ fs.f_image(f).matrix
    np.testing.assert_allclose(products, np.max(products), rtol=1e-9)
    assert v.t_star == v.certificate.verify(fs.f_image(f))


def test_small_scalable_frames_take_the_affine_weights(onb2, monkeypatch,
                                                       caplog):
    monkeypatch.setattr(feasibility, "_wolfe", _must_not_run)
    monkeypatch.setattr(simplex, "solve_lp", _must_not_run)
    frames = [onb2] + [random_scalable_frame(np.random.default_rng(seed), 4, m)
                       for seed in range(3) for m in (5, 7)]
    for f in frames:
        v, route = _route_of(f, caplog)
        assert route.endswith("least-norm weights")
        assert v.scalable and v.strict and not v.boundary_flag
        w = v.certificate
        assert w.support == tuple(range(f.m)) and w.verify(f)
        assert v.s_star == pytest.approx(np.min(w.u[list(w.support)]),
                                         rel=1e-12)
    assert v.s_star > 0.0


def test_origin_outside_the_convex_hull_goes_to_wolfe(caplog):
    # F(1, 0) = (1, 0) and F(2, 0) = (4, 0): the affine hull of the two is
    # the axis, through the origin with weights (4/3, -1/3), and Wolfe
    # separates them at (1, 0).
    f = fs.build_frame(2, [(1.0, 0.0), (2.0, 0.0), (0.0, 1.0)])
    v, route = _route_of(f, caplog, subset=(0, 1))
    assert "Wolfe separator" in route
    assert not v.scalable and not v.boundary_flag
    assert v.t_star == pytest.approx(1.0)


def _with_image(a, b):
    """A vector of R^2 whose image F = (x1^2 - x2^2, x1 x2) is (a, b)."""
    r, t = np.hypot(a, 2 * b) ** 0.5, np.arctan2(2 * b, a) / 2
    return r * np.cos(t), r * np.sin(t)


def test_affine_point_inside_the_band_goes_to_wolfe(caplog):
    # The images (1e-6, -1e-12) and (2e-6, -1e-12) span a line 1e-12 from
    # the origin: its nearest point separates with margin 1e-12, inside the
    # band, while Wolfe's point (1e-6, -1e-12) separates with margin 1e-6.
    f = fs.build_frame(2, [_with_image(1e-6, -1e-12),
                           _with_image(2e-6, -1e-12), (0.0, 1.0)])
    v, route = _route_of(f, caplog, subset=(0, 1))
    assert "Wolfe separator" in route
    assert not v.scalable and not v.boundary_flag
    assert v.t_star == pytest.approx(1e-6)


def test_affinely_dependent_columns_go_to_wolfe(caplog):
    # e1 and 2 e1 have parallel images, so the weight polytope of
    # {e1, 2 e1, e2, e3} is a segment, not a point: s* is the LP's.
    f = fs.build_frame(3, [(1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1)])
    v, route = _route_of(f, caplog)
    assert "least-norm" not in route and "phase" in route
    exact = fs.decide(f, mode="exact")
    assert v.strict and exact.strict
    assert v.s_star == pytest.approx(exact.s_star, rel=1e-9)


def test_underflowed_columns_skip_the_affine_route():
    # F squares the entries, so columns of 1e-200 map to the origin of R^2:
    # there is no norm to scale K by, and the affine route declines.
    f = fs.build_frame(2, [(1e-200, 0.0), (0.0, 1e-200)])
    assert not np.any(fs.f_image(f).matrix)
    assert feasibility._least_norm(fs.f_image(f).matrix) is None
    v = fs.decide(f)
    assert v.scalable and v.strict


def _dyadic_frames():
    """Frames with entries k/8 and m <= d columns: their F-image is exact
    in float.  Every third one holds a signed basis, so it is scalable."""
    rng = np.random.default_rng(11)
    for n in (3, 4):
        for m in range(n, fs.target_dim(n) + 1):
            for trial in range(4):
                mat = rng.integers(-8, 9, size=(n, m)) / 8
                if trial % 3 == 0:
                    mat[:, :n] = np.diag(rng.choice([-1.0, 1.0], size=n))
                if fs.numerical_rank(mat) == n:
                    yield fs.build_frame(n, mat.T)


def test_affine_route_agrees_with_exact_on_dyadic_frames(caplog):
    routes = set()
    for f in _dyadic_frames():
        v, route = _route_of(f, caplog)
        routes.add(route.split(": ", 1)[1].split(";")[0].split(" after")[0])
        if v.boundary_flag:
            continue
        e = fs.decide(f, mode="exact")
        assert (v.scalable, v.strict) == (e.scalable, e.strict), route
    assert {"least-norm separator", "least-norm weights"} <= routes


def test_d_plus_1_columns_take_the_unique_weights(mercedes, onb_plus,
                                                  quadrant, monkeypatch,
                                                  caplog):
    # k = d + 1 = 3 columns in R^2: {F u = 0, sum u = 1} is one point.
    g = fs.f_image(quadrant).matrix
    assert feasibility._least_norm(g) is None  # a negative weight
    v, route = _route_of(quadrant, caplog)
    assert "Wolfe separator" in route and not v.scalable
    monkeypatch.setattr(feasibility, "_wolfe", _must_not_run)
    monkeypatch.setattr(simplex, "solve_lp", _must_not_run)
    v, route = _route_of(mercedes, caplog)
    assert route.endswith("least-norm weights")
    assert v.scalable and v.strict
    assert v.s_star == pytest.approx(1 / 3, rel=1e-12)
    v, route = _route_of(onb_plus, caplog)
    assert route.endswith("least-norm weights")
    assert v.scalable and not v.strict
    assert v.certificate.support == (0, 1) and v.s_star == 0.0
    # Images (1, 0), (-1, -1e-12) and (0, 1): the third weight is 5e-13,
    # at most WOLFE_POS_TOL, so it counts as zero, as in Wolfe's corral.
    f = fs.build_frame(2, [_with_image(1, 0), _with_image(-1, -1e-12),
                           _with_image(0, 1)])
    v, route = _route_of(f, caplog)
    assert route.endswith("least-norm weights")
    assert v.certificate.support == (0, 1) and v.s_star == 0.0


def _d_plus_1_frames(n):
    d = fs.target_dim(n)
    for seed in range(6):
        yield random_scalable_frame(np.random.default_rng(seed), n, d + 1)
        yield fs.random_frame(n, d + 1, seed=seed)


@pytest.mark.parametrize("n", [2, 3])
def test_float_and_exact_agree_at_d_plus_1_columns(n, caplog):
    routes = set()
    for f in _d_plus_1_frames(n):
        v, route = _route_of(f, caplog)
        routes.add(route.split(": ", 1)[1].split(";")[0].split(" after")[0])
        e = fs.decide(f, mode="exact")
        assert (v.scalable, v.strict) == (e.scalable, e.strict), route
        if v.strict:
            assert v.s_star == pytest.approx(float(e.s_star), rel=1e-9)
    assert "least-norm weights" in routes


def test_d_plus_1_weights_keep_the_accuracy_of_the_lp(caplog):
    # K = [g; 1']'[g; 1'] has condition 2e9 here: mu read off K^-1 missed
    # s* by 1.3e-8 relative, where phase 2 on the same columns gets 2e-14.
    # Solving the square [g; 1'] mu = e keeps the LP's accuracy.
    f = random_scalable_frame(np.random.default_rng(5011), 5, 15)
    v, route = _route_of(f, caplog)
    assert route.endswith("least-norm weights")
    e = fs.decide(f, mode="exact")
    assert v.strict and e.strict
    assert v.s_star == pytest.approx(float(e.s_star), rel=1e-12)


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


def _cone_frame(seed, n, m):
    """Not scalable: Gaussian columns x kept inside the cone
    x'Qx > lambda_max(Q) |x|^2 / 10 of a seeded trace-free form Q."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    q = (a + a.T) / 2.0
    q -= np.trace(q) / n * np.eye(n)
    floor = np.linalg.eigvalsh(q)[-1] / 10.0
    cols = []
    while len(cols) < m:
        x = rng.standard_normal(n)
        if x @ q @ x > floor * (x @ x):
            cols.append(x)
    return fs.build_frame(n, cols)


def _count_exact_lps(monkeypatch):
    calls = []
    solve = simplex.solve_lp_exact

    def counted(*args, **kwargs):
        calls.append("solve_lp_exact")
        return solve(*args, **kwargs)

    monkeypatch.setattr(simplex, "solve_lp_exact", counted)
    return calls


def _assert_exact_separator(frame, v):
    # h_exact . F_exact(phi_k) >= margin_exact > 0 in Fractions, with
    # equality at the worst column and |h_exact|_inf = 1.
    sep = v.certificate
    cols = exact.frame_to_fractions(frame)
    prods = [sum(h * g for h, g in zip(sep.h_exact,
                                       exact.f_vector_exact(cols[k])))
             for k in sep.indices]
    assert sep.margin_exact > 0 and min(prods) == sep.margin_exact
    assert max(abs(h) for h in sep.h_exact) == 1
    assert v.t_star == float(sep.margin_exact)


@pytest.mark.parametrize("n, m", [(3, 6), (3, 8), (4, 9), (4, 13)])
@pytest.mark.parametrize("seed", range(3))
def test_exact_decide_checks_the_float_separator_in_rationals(
        n, m, seed, monkeypatch, caplog):
    calls = _count_exact_lps(monkeypatch)
    f = _cone_frame(seed, n, m)
    v, route = _route_of(f, caplog, mode="exact")
    assert calls == []
    assert route.endswith("; checked in rationals")
    assert not v.scalable and v.resolved_by == "exact" and v.spans
    _assert_exact_separator(f, v)


def test_failed_exact_check_falls_back_to_one_rational_lp(
        quadrant, monkeypatch, caplog):
    # The float program is made to return -h, which fails its check in
    # rationals: one rational LP decides, as before the check.
    float_program = feasibility._max_min_weight

    def flipped(g):
        prog = float_program(g)
        return prog if prog.h is None else prog._replace(h=-prog.h)

    monkeypatch.setattr(feasibility, "_max_min_weight", flipped)
    calls = _count_exact_lps(monkeypatch)
    for f in (quadrant, _cone_frame(0, 3, 7)):
        calls.clear()
        v, route = _route_of(f, caplog, mode="exact")
        assert calls == ["solve_lp_exact"]
        assert ("; float separator failed its exact check, so two-phase, "
                "exact; both phases") in route
        assert not v.scalable and v.resolved_by == "exact"
        _assert_exact_separator(f, v)


@pytest.mark.parametrize("scale, error", [(1e160, "OverflowError"),
                                          (1e80, "FloatingPointError")])
def test_exact_decide_skips_the_float_attempt_on_overflow(
        scale, error, caplog):
    # Near 1e160, F(phi) overflows a float, so the rational columns do not
    # convert; near 1e80 the squared column norms overflow inside the
    # float program.  The rational LP decides either way, as it always
    # did, and nothing is raised or warned.
    mat = np.random.default_rng(0).standard_normal((3, 7)) * scale
    v, route = _route_of(fs.build_frame(3, mat.T), caplog, mode="exact")
    assert (f"columns: float attempt skipped ({error}), so two-phase, "
            "exact; both phases") in route
    assert not v.scalable and v.resolved_by == "exact"
    assert v.certificate.margin_exact > 0


def _fraction_margin(frame, h_exact, rational=None):
    """The reference: ``separator_margin`` of h_exact over the ``Fraction``
    F-columns of the frame."""
    cols = exact.frame_to_fractions(frame, rational)
    g = np.array([exact.f_vector_exact(c) for c in cols], dtype=object).T
    return feasibility.separator_margin(np.array(h_exact, dtype=object), g)


def _thirds_cone_frame(seed):
    """A cone 3x7 frame with entries in thirds, as floats and as exact
    ``Fraction``s, which the floats only approximate."""
    ints = np.round(30 * _cone_frame(seed, 3, 7).matrix).astype(int)
    rational = [[Fraction(int(v), 3) for v in col] for col in ints.T]
    return fs.build_frame(3, ints.T / 3.0), rational


INTEGER_CHECK_CASES = ([(f"cone{n}x{m}-{seed}", n, m, seed, 1.0)
                        for n, m in [(3, 6), (3, 8), (4, 9), (4, 13)]
                        for seed in range(3)]
                       + [(f"cone3x7-{seed}-2^{p}", 3, 7, seed, 2.0 ** p)
                          for seed in range(2) for p in (300, -300)])


@pytest.mark.parametrize("name, n, m, seed, scale", INTEGER_CHECK_CASES)
def test_integer_check_agrees_with_the_fraction_reference(name, n, m, seed,
                                                          scale):
    # _exact_separator checks h over the integer image; its direction and
    # margin must be those of separator_margin over Fraction F-columns,
    # and so must the verdict's, whichever way exact mode took.
    f = fs.build_frame(n, (_cone_frame(seed, n, m).matrix * scale).T)
    image = exact.f_image_exact(*exact.integer_columns(f), range(m))
    v = fs.decide(f, mode="exact")
    sep = v.certificate
    assert not v.scalable and sep.margin_exact > 0
    assert max(map(abs, sep.h_exact)) == 1
    assert sep.margin_exact == _fraction_margin(f, sep.h_exact)
    if scale != 1.0:
        return
    h = feasibility._max_min_weight(image.floats()).h
    checked = feasibility._exact_separator(h, image)
    hq = [Fraction(x) for x in h.tolist()]
    top = max(map(abs, hq))
    assert checked.h == tuple(x / top for x in hq) == sep.h_exact
    assert checked.margin == _fraction_margin(f, checked.h) == sep.margin_exact
    assert feasibility._exact_separator(-h, image) is None


def test_integer_check_refuses_zero_margins_and_directions():
    # h = (0, 1) reads x1 x2: 0 on the column (1, 0), 1 and 2 on the others.
    f = fs.build_frame(2, [(1, 0), (1, 1), (1, 2)])
    cols, den = exact.integer_columns(f)
    image = exact.f_image_exact(cols, den, range(3))
    for h in ([0.0, 1.0], [0.0, 0.0], [np.nan, 1.0], [np.inf, 1.0]):
        assert feasibility._exact_separator(np.array(h), image) is None
    checked = feasibility._exact_separator(
        np.array([0.0, 0.5]), exact.f_image_exact(cols, den, (1, 2)))
    assert checked == ((0, 1), 1)


@pytest.mark.parametrize("seed", range(3))
def test_integer_check_reads_rational_entries(seed):
    # Thirds are not dyadic: the common denominator is 3, and the check
    # and the Farkas separator agree with the Fraction reference of the
    # exact entries, not of their floats.
    f, rational = _thirds_cone_frame(seed)
    cols, den = exact.integer_columns(f, rational)
    assert den == 3 and cols == [[int(3 * x) for x in c] for c in rational]
    v = fs.decide(f, mode="exact", rational=rational)
    sep = v.certificate
    assert not v.scalable and v.resolved_by == "exact"
    assert sep.margin_exact == _fraction_margin(f, sep.h_exact, rational) > 0
    oracle = fs.exact_oracle(f, rational=rational).certificate
    assert (oracle.h_exact, oracle.margin_exact) == (sep.h_exact,
                                                     sep.margin_exact)


def test_farkas_separator_agrees_with_the_fraction_reference(monkeypatch):
    # The float program is made to return -h, so the rational LP's Farkas
    # separator is the certificate, on float and on rational entries.
    float_program = feasibility._max_min_weight

    def flipped(g):
        prog = float_program(g)
        return prog if prog.h is None else prog._replace(h=-prog.h)

    monkeypatch.setattr(feasibility, "_max_min_weight", flipped)
    f, rational = _thirds_cone_frame(0)
    for frame, entries in ((_cone_frame(1, 3, 6), None), (f, rational)):
        sep = fs.decide(frame, mode="exact", rational=entries).certificate
        assert max(map(abs, sep.h_exact)) == 1
        assert sep.margin_exact == _fraction_margin(frame, sep.h_exact,
                                                    entries) > 0


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
        == identity_in_outer_hull(f)


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


# --- known float/exact contradictions (strict xfails) -------------------------
# Each case fails today and names the open fault it reproduces; the change
# that mends the fault turns its xfail into a pass, which strict=True reports.

def _with_column_scaled(mat, factor):
    mat = np.array(mat, dtype=float)
    mat[:, 0] *= factor
    return fs.build_frame(mat.shape[0], mat.T)


@pytest.mark.xfail(strict=True, raises=fs.Infeasible, reason=(
    "FOUND (ROADMAP item 1): verdicts depend on the column scale; a "
    "strictly scalable frame with one column scaled by 1e8 raises "
    "Infeasible in float mode"))
def test_a_long_column_keeps_the_strict_verdict():
    f = _with_column_scaled(
        random_scalable_frame(np.random.default_rng(5), 4, 13).matrix, 1e8)
    exact = fs.decide(f, mode="exact")
    assert exact.scalable and exact.strict
    v = fs.decide(f)
    assert v.scalable and v.strict


def _cone_gaussian(rng, n, m):
    """Gaussian columns inside the cone x'Qx > |x|^2 lambda_max(Q) / 10 of
    a trace-free form Q, so not scalable by construction (the generator
    of the benchmark's cone frames)."""
    a = rng.standard_normal((n, n))
    q = (a + a.T) / 2.0
    q -= np.trace(q) / n * np.eye(n)
    floor = np.linalg.eigvalsh(q)[-1] / 10.0
    cols = []
    while len(cols) < m:
        x = rng.standard_normal(n)
        if x @ q @ x > floor * (x @ x):
            cols.append(x)
    return np.column_stack(cols)


@pytest.mark.xfail(strict=True, raises=fs.Infeasible, reason=(
    "FOUND (ROADMAP item 1): verdicts depend on the column scale; a cone "
    "frame with one column scaled by 1e-8 raises Infeasible in float mode"))
def test_a_short_column_keeps_the_cone_verdict():
    f = _with_column_scaled(
        _cone_gaussian(np.random.default_rng(3), 4, 13), 1e-8)
    assert not fs.decide(f, mode="exact").scalable
    assert not fs.decide(f).scalable


@pytest.mark.xfail(strict=True, reason=(
    "FOUND (ROADMAP item 6): float decide is silently overconfident when "
    "m <= d; it says strictly scalable, unflagged, where exact mode says "
    "not scalable"))
@pytest.mark.parametrize("seed", range(4))
def test_float_verdict_at_m_below_d_agrees_with_exact_or_is_flagged(seed):
    f = random_scalable_frame(np.random.default_rng(seed), 3, 4)
    exact = fs.decide(f, mode="exact")
    v = fs.decide(f)
    assert v.boundary_flag or (v.scalable, v.strict) == \
        (exact.scalable, exact.strict)
