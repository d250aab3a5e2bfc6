import numpy as np
import pytest

import framescale as fs


# --- random frames --------------------------------------------------------------

def test_random_frame_shape_and_rank():
    f = fs.random_frame(2, 3, seed=42)
    assert (f.n, f.m, f.rank) == (2, 3, 2)


def test_random_frame_high_redundancy_rank():
    assert fs.random_frame(3, 10, seed=7).rank == 3


def test_random_frame_deterministic_per_seed():
    a = fs.random_frame(2, 2, seed=5)
    b = fs.random_frame(2, 2, seed=5)
    np.testing.assert_array_equal(a.matrix, b.matrix)


def test_random_frame_rejects_bad_shape():
    with pytest.raises(ValueError):
        fs.random_frame(2, 1, seed=0)


# --- generic dimension probe ------------------------------------------------------

def test_probe_small_full_fraction():
    p = fs.generic_dimension_probe(2, 3, 100, seed=21)
    assert p.fraction == 1.0 and p.target == 3 and p.failures == ()


def test_probe_redundant_full_fraction():
    p = fs.generic_dimension_probe(3, 10, 100, seed=22)
    assert p.fraction == 1.0 and p.target == 6


def test_probe_validates_trials():
    with pytest.raises(ValueError):
        fs.generic_dimension_probe(2, 3, 0, seed=0)


def test_probe_rejects_too_few_vectors():
    with pytest.raises(ValueError):
        fs.generic_dimension_probe(2, 1, 10, seed=0)


# --- perturbation witness ----------------------------------------------------------

def test_witness_on_appended_diagonal(witness_base):
    wit = fs.nonscalable_witness(witness_base, 1e-2, seed=3)
    assert wit.column == 0  # first positively weighted column
    assert wit.distance <= 1e-2
    assert not wit.verdict.scalable
    assert wit.verdict.certificate.margin > 0.0


def test_witness_on_plain_onb():
    f = fs.build_frame(2, [(1, 0), (0, 1)])
    wit = fs.nonscalable_witness(f, 1e-3, seed=11)
    assert wit.distance <= 1e-3
    assert not wit.verdict.scalable
    # a two-vector frame is scalable exactly when orthogonal
    psi = wit.perturbed.columns
    assert abs(psi[0] @ psi[1]) > 0.0


def test_witness_invariants(witness_base):
    wit = fs.nonscalable_witness(witness_base, 1e-1, seed=9)
    assert np.linalg.norm(wit.perturbed.matrix - wit.base.matrix) \
        == pytest.approx(wit.delta, rel=1e-12)
    rows = fs.fmap.outer_svec_rows(wit.base)
    stacked = np.vstack([rows, fs.svec(wit.s_matrix)])
    assert fs.numerical_rank(stacked) == wit.base.m + 1
    # the perturbed column accounts for the whole update
    j = wit.column
    diff = np.outer(wit.perturbed.column(j), wit.perturbed.column(j)) \
        - np.outer(wit.base.column(j), wit.base.column(j))
    np.testing.assert_allclose(diff, wit.s_matrix, atol=1e-12)


def test_witness_deterministic_per_seed(witness_base):
    a = fs.nonscalable_witness(witness_base, 1e-2, seed=4)
    b = fs.nonscalable_witness(witness_base, 1e-2, seed=4)
    np.testing.assert_array_equal(a.perturbed.matrix, b.perturbed.matrix)


def test_witness_requires_scalable_base(quadrant):
    with pytest.raises(fs.HypothesisViolated):
        fs.nonscalable_witness(quadrant, 1e-2, seed=0)


def test_witness_requires_low_redundancy(mercedes):
    with pytest.raises(fs.HypothesisViolated):
        fs.nonscalable_witness(mercedes, 1e-2, seed=0)


def test_witness_requires_independent_outer_products():
    f = fs.build_frame(3, [(1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    with pytest.raises(fs.HypothesisViolated):
        fs.nonscalable_witness(f, 1e-2, seed=0)


def test_witness_requires_positive_epsilon(witness_base):
    with pytest.raises(ValueError):
        fs.nonscalable_witness(witness_base, 0.0, seed=0)


# --- closedness probe ----------------------------------------------------------------

def test_closedness_probe_all_nonscalable(quadrant):
    probe = fs.closedness_probe(quadrant, seed=17, samples=100)
    assert probe.radius > 0.0
    # the max-margin separator, not the verdict's smaller Farkas one
    assert probe.margin == pytest.approx(0.4)
    assert probe.fraction_nonscalable == 1.0


def test_closedness_probe_rejects_scalable(mercedes):
    with pytest.raises(ValueError):
        fs.closedness_probe(mercedes, seed=0)


def test_separation_radius_positive(quadrant):
    v = fs.decide(quadrant)
    r = fs.separation_radius(quadrant, v.certificate)
    assert 0.0 < r < 1.0
