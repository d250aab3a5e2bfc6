import numpy as np
import pytest

import framescale as fs
from conftest import parseval_from, random_orthogonal, random_scalable_frame


def test_build_frame_identity():
    f = fs.build_frame(2, [(1, 0), (0, 1)])
    assert (f.n, f.m, f.rank) == (2, 2, 2)
    assert not f.degenerate


def test_build_frame_collinear_rejected():
    with pytest.raises(fs.NotAFrame):
        fs.build_frame(2, [(1, 0), (2, 0)])


def test_build_frame_onb_plus_diagonal():
    r = 1 / np.sqrt(3.0)
    f = fs.build_frame(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (r, r, r)])
    assert f.rank == 3 and not f.degenerate


def test_build_frame_length_mismatch():
    with pytest.raises(fs.DimensionMismatch):
        fs.build_frame(2, [(1, 0), (0, 1, 5)])


def test_build_frame_too_few_vectors():
    with pytest.raises(fs.NotAFrame):
        fs.build_frame(3, [(1, 0, 0), (0, 1, 0)])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_build_frame_rejects_non_finite_entries(bad):
    # Without the check, NaN reaches the SVD of the rank test and raises
    # numpy's LinAlgError.
    with pytest.raises(fs.NotAFrame, match="finite"):
        fs.build_frame(2, [(1, 0), (0, bad), (1, 1)])


def test_zero_column_sets_degenerate_flag():
    f = fs.build_frame(2, [(1, 0), (0, 1), (0, 0)])
    assert f.degenerate


def test_bounds_onb(onb2):
    b = fs.frame_bounds(onb2)
    assert b.lower == pytest.approx(1.0) and b.upper == pytest.approx(1.0)


def test_bounds_repeated_vector():
    f = fs.build_frame(2, [(1, 0), (0, 1), (1, 0)])
    b = fs.frame_bounds(f)
    assert (b.lower, b.upper) == pytest.approx((1.0, 2.0))


def test_bounds_mercedes(mercedes):
    # Oracle: multiply out Phi Phi^T directly; the sum of the three outer
    # products is 1.5 I, so both optimal bounds are 3/2.
    g = sum(np.outer(c, c) for c in mercedes.columns)
    np.testing.assert_allclose(g, 1.5 * np.eye(2), atol=1e-12)
    b = fs.frame_bounds(mercedes)
    assert b.lower == pytest.approx(1.5, abs=1e-12)
    assert b.upper == pytest.approx(1.5, abs=1e-12)


def test_is_tight_onb(onb2):
    t = fs.is_tight(onb2)
    assert t.tight and t.residual == 0.0 and t.alpha == pytest.approx(1.0)


def test_is_tight_mercedes(mercedes):
    t = fs.is_tight(mercedes)
    assert t.tight and t.alpha == pytest.approx(1.5, abs=1e-12)


def test_is_tight_rejects_onb_plus(onb_plus):
    # Phi Phi^T = [[1.5, .5], [.5, 1.5]]: off-diagonal 1/2 breaks tightness.
    t = fs.is_tight(onb_plus)
    assert not t.tight
    assert t.residual == pytest.approx(np.sqrt(0.5), rel=1e-12)


def test_apply_orthogonal_rotation(onb2):
    ang = np.pi / 4
    rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    g = fs.apply_orthogonal(onb2, rot)
    r = 1 / np.sqrt(2.0)
    np.testing.assert_allclose(g.matrix, [[r, -r], [r, r]], atol=1e-15)
    assert fs.is_tight(g).tight


def test_apply_orthogonal_identity(mercedes):
    g = fs.apply_orthogonal(mercedes, np.eye(2))
    np.testing.assert_array_equal(g.matrix, mercedes.matrix)


def test_apply_orthogonal_reflection(quadrant):
    g = fs.apply_orthogonal(quadrant, np.diag([1.0, -1.0]))
    np.testing.assert_allclose(g.matrix[1], -quadrant.matrix[1])


def test_apply_orthogonal_rejects_non_orthogonal(onb2):
    with pytest.raises(fs.NotOrthogonal):
        fs.apply_orthogonal(onb2, np.array([[1.0, 0.0], [0.5, 1.0]]))


@pytest.mark.parametrize("seed", range(8))
def test_bounds_invariant_under_orthogonal(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    m = int(rng.integers(n, 9))
    f = fs.random_frame(n, m, rng=rng)
    t = random_orthogonal(rng, n)
    before = fs.frame_bounds(f)
    after = fs.frame_bounds(fs.apply_orthogonal(f, t))
    assert after.lower == pytest.approx(before.lower, rel=1e-10)
    assert after.upper == pytest.approx(before.upper, rel=1e-10)


@pytest.mark.parametrize("seed", range(6))
def test_tight_iff_equal_bounds(seed):
    rng = np.random.default_rng(100 + seed)
    n, m = 3, 7
    loose = fs.random_frame(n, m, rng=rng)
    tightened = fs.build_frame(n, parseval_from(loose.matrix).T)
    for frame in (loose, tightened):
        t = fs.is_tight(frame)
        b = fs.frame_bounds(frame)
        assert t.tight == (abs(b.upper - b.lower) <= 1e-9 * t.alpha)


@pytest.mark.parametrize("seed", range(6))
def test_accepted_weights_satisfy_trace_identity(seed):
    rng = np.random.default_rng(200 + seed)
    f = random_scalable_frame(rng, 3, 6)
    v = fs.decide(f)
    assert v.scalable
    w = v.certificate
    alpha_trace = np.sum(w.u * f.norms() ** 2) / f.n
    assert w.alpha == pytest.approx(alpha_trace, rel=1e-12)
    assert w.residual <= 1e-9 * w.alpha


def test_make_weights_normalizes_and_supports(onb_plus):
    w = fs.make_weights(onb_plus, np.array([2.0, 2.0, 0.0]))
    np.testing.assert_allclose(w.u, [0.5, 0.5, 0.0])
    assert w.support == (0, 1)
    assert w.alpha == pytest.approx(0.5)


def test_make_weights_rejects_zero_mass(onb2):
    with pytest.raises(ValueError):
        fs.make_weights(onb2, np.array([0.0, 0.0]))


def test_apply_scaling_parseval(onb_plus):
    v = fs.decide(onb_plus)
    scaled = fs.apply_scaling(onb_plus, v.certificate, parseval=True)
    g = scaled.gram_dual()
    assert np.linalg.norm(g - np.eye(2)) <= 1e-9


def test_frame_is_immutable(onb2):
    with pytest.raises(ValueError):
        onb2.matrix[0, 0] = 5.0
