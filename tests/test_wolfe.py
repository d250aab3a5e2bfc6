"""Wolfe's minimum-norm-point algorithm against a from-scratch reference.

``_wolfe`` keeps the inverse of the corral's shifted Gram matrix across
cycles; the reference below solves the bordered system of each minor cycle
afresh with ``lstsq``.  Both must walk the same way.
"""

import logging

import numpy as np
import pytest

import framescale as fs
from framescale import feasibility as fz
from conftest import random_scalable_frame


def reference_wolfe(g):
    """Wolfe's algorithm with a dense least-squares solve per minor cycle."""
    k = g.shape[1]
    norms = np.einsum("ij,ij->j", g, g)
    scale = np.max(norms)
    corral, lam = [int(np.argmin(norms))], np.ones(1)
    x = g[:, corral[0]]
    major = minor = 0
    while True:
        xx = x @ x
        if xx <= fz.WOLFE_ZERO_TOL * scale:
            return fz.Wolfe(x, corral, "zero", major, minor)
        p = x @ g
        j = int(np.argmin(p))
        stop = None
        if p[j] > fz.DEFAULT_BOUNDARY_BAND * np.max(np.abs(x)):
            stop = "separator"
        elif p[j] >= xx - fz.WOLFE_OPT_TOL * scale:
            stop = "separator" if p[j] > 0 else "no separation"
        elif j in corral:
            stop = "stalled"
        elif major == fz.WOLFE_MAX_MAJOR * k:
            stop = "cycle cap"
        if stop is not None:
            return fz.Wolfe(x, corral, stop, major, minor)
        major += 1
        corral.append(j)
        lam = np.append(lam, 0.0)
        while True:
            # [G 1; 1' 0] (mu, nu) = (0, 1), the border scaled to G.
            gs = g[:, corral]
            size = len(corral)
            border = np.zeros((size + 1, size + 1))
            border[:size, :size] = gs.T @ gs
            border[:size, size] = border[size, :size] = scale
            rhs = np.zeros(size + 1)
            rhs[size] = scale
            mu = np.linalg.lstsq(border, rhs, rcond=None)[0][:size]
            if np.all(mu > fz.WOLFE_POS_TOL):
                lam = mu
                break
            minor += 1
            fall = (mu <= fz.WOLFE_POS_TOL) & (lam > mu)
            ratios = np.full(size, np.inf)
            ratios[fall] = lam[fall] / (lam[fall] - mu[fall])
            i = int(np.argmin(ratios))
            lam = lam + min(ratios[i], 1.0) * (mu - lam)
            if ratios[i] <= 1.0:
                lam[i] = 0.0
            keep = np.flatnonzero(lam > fz.WOLFE_POS_TOL)
            corral = [corral[q] for q in keep]
            lam = lam[keep] / np.sum(lam[keep])
        x = g[:, corral] @ lam


def planted_4x13(seed):
    """A Gaussian 4 x 13 frame whose first 8 columns are scalable."""
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((4, 13))
    mat[:, :8] = random_scalable_frame(rng, 4, 8).matrix
    return fs.build_frame(4, mat.T)


def cases():
    for seed in range(5):
        yield f"random-{seed}", fs.f_image(fs.random_frame(10, 60, seed=seed)
                                           ).matrix
        yield f"scalable-{seed}", fs.f_image(random_scalable_frame(
            np.random.default_rng(seed), 10, 60)).matrix
    for seed in range(3):
        g = fs.f_image(planted_4x13(seed)).matrix
        for subset in (range(8), range(7), range(1, 9), range(13)):
            yield f"planted-{seed}-{subset.start}:{subset.stop}", \
                g[:, list(subset)]


CASES = dict(cases())


@pytest.mark.parametrize("name", CASES)
def test_kept_inverse_walks_like_the_reference(name):
    g = CASES[name]
    w, ref = fz._wolfe(g), reference_wolfe(g)
    assert w.stop == ref.stop
    assert sorted(w.corral) == sorted(ref.corral)
    np.testing.assert_allclose(w.x, ref.x, rtol=0, atol=1e-9)


def test_the_cases_reach_both_ends():
    stops = {fz._wolfe(g).stop for g in CASES.values()}
    assert {"separator", "zero"} <= stops


@pytest.mark.parametrize("name", ["random-0", "scalable-0", "planted-0-0:8"])
def test_forced_fresh_inverse_walks_the_same_way(name, monkeypatch):
    g = CASES[name]
    kept = fz._wolfe(g)
    assert kept.refreshes == 0
    # A negative tolerance fails every residual check: each minor cycle
    # recomputes K^-1 from the corral.
    monkeypatch.setattr(fz, "WOLFE_UPDATE_TOL", -1.0)
    fresh = fz._wolfe(g)
    assert fresh.refreshes > 0
    assert fresh.stop == kept.stop
    assert sorted(fresh.corral) == sorted(kept.corral)
    np.testing.assert_allclose(fresh.x, kept.x, rtol=0, atol=1e-9)


def test_forced_fresh_inverse_keeps_the_verdicts(onb2, quadrant, mercedes,
                                                 onb_plus, monkeypatch,
                                                 caplog):
    frames = [onb2, quadrant, mercedes, onb_plus, planted_4x13(0),
              fs.random_frame(10, 60, seed=0),
              random_scalable_frame(np.random.default_rng(0), 10, 60)]
    kept = [fs.decide(f) for f in frames]
    monkeypatch.setattr(fz, "WOLFE_UPDATE_TOL", -1.0)
    with caplog.at_level(logging.DEBUG, logger=fz.__name__):
        fresh = [fs.decide(f) for f in frames]
    assert any("fresh K^-1" in r.getMessage() for r in caplog.records)
    for a, b in zip(kept, fresh):
        assert (a.scalable, a.strict, a.support_size, a.boundary_flag) == \
            (b.scalable, b.strict, b.support_size, b.boundary_flag)
        if a.strict:
            assert b.s_star == pytest.approx(a.s_star, rel=1e-9)
        if not a.scalable:
            assert b.t_star == pytest.approx(a.t_star, rel=1e-6)


def test_dimension_zero_stops_at_once():
    g = np.zeros((0, 3))
    w = fz._wolfe(g)
    assert w.stop == "zero" and len(w.corral) == 1
    assert (w.major, w.minor, w.refreshes) == (0, 0, 0)
