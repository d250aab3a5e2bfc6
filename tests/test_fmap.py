from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import framescale as fs
from framescale import exact


def test_f_vector_axis():
    np.testing.assert_allclose(fs.f_vector(np.array([1.0, 0.0])), [1.0, 0.0])


def test_f_vector_diagonal():
    np.testing.assert_allclose(fs.f_vector(np.array([1.0, 1.0])), [0.0, 1.0])


def test_f_vector_three_dims():
    np.testing.assert_allclose(fs.f_vector(np.array([1.0, 2.0, 3.0])),
                               [-3.0, -8.0, 2.0, 3.0, 6.0])


def test_f_vector_dimension_one_is_empty():
    assert fs.target_dim(1) == 0
    assert fs.f_vector(np.array([1.0])).shape == (0,)
    assert fs.f_image(fs.build_frame(1, [(2.0,), (-1.0,)])).matrix.shape \
        == (0, 2)
    assert exact.f_vector_exact([Fraction(3)]) == []


def test_target_dim_values():
    assert [fs.target_dim(n) for n in (2, 3, 4, 5)] == [2, 5, 9, 14]


def test_f_image_onb(onb2):
    fi = fs.f_image(onb2)
    np.testing.assert_allclose(fi.matrix, [[1.0, -1.0], [0.0, 0.0]])


def test_f_image_onb_plus(onb_plus):
    fi = fs.f_image(onb_plus)
    np.testing.assert_allclose(fi.matrix.T, [(1, 0), (-1, 0), (0, 0.5)],
                               atol=1e-15)


def test_f_image_mercedes(mercedes):
    # Oracle: evaluate (x1^2 - x2^2, x1 x2) per column by hand.
    expect = []
    for x in mercedes.columns:
        expect.append([x[0] ** 2 - x[1] ** 2, x[0] * x[1]])
    fi = fs.f_image(mercedes)
    np.testing.assert_allclose(fi.matrix.T, expect, atol=1e-15)
    s3 = np.sqrt(3.0)
    np.testing.assert_allclose(
        fi.matrix.T, [(-1, 0), (0.5, s3 / 4), (0.5, -s3 / 4)], atol=1e-15)


def test_outer_dims_onb(onb2):
    dims = fs.outer_dims(onb2)
    assert (dims.linear_dim, dims.affine_dim) == (2, 1)
    assert all(p.shape == (2, 2) for p in dims.projections)


def test_outer_dims_onb_plus(onb_plus):
    # Oracle: exact rank of the three vectorized outer products over the
    # rationals the float entries represent.
    rows = [[float(v) for v in fs.svec(np.outer(c, c))]
            for c in onb_plus.columns]
    assert exact.rank_exact(rows) == 3
    dims = fs.outer_dims(onb_plus)
    assert (dims.linear_dim, dims.affine_dim) == (3, 2)


def test_outer_dims_generic_gaussian():
    f = fs.random_frame(3, 10, seed=1234)
    dims = fs.outer_dims(f)
    assert dims.linear_dim == 6
    rows = [[float(v) for v in fs.svec(np.outer(c, c))] for c in f.columns]
    assert exact.rank_exact(rows) == 6


@pytest.mark.parametrize("n", range(2, 7))
def test_outer_rows_equal_the_svec_of_each_outer_product(n):
    # The rows are built for all columns at once; they must be bit-equal
    # to svec of each outer product, in the frame's and a subset's order.
    f = fs.random_frame(n, 3 * n, seed=n)
    rows = np.vstack([fs.svec(np.outer(c, c)) for c in f.columns])
    assert np.array_equal(fs.fmap.outer_svec_rows(f), rows)
    subset = (n, 0, 2)
    assert np.array_equal(fs.fmap.outer_svec_rows(f, subset),
                          rows[list(subset)])


def test_q_matrix_two_dims_layout():
    q = fs.q_matrix(np.array([3.0, 4.0]))
    np.testing.assert_allclose(q.matrix, [[3.0, 2.0], [2.0, -3.0]])


def test_q_matrix_three_dims_layout():
    q = fs.q_matrix(np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
    np.testing.assert_allclose(q.matrix, np.diag([1.0, -1.0, 0.0]))
    full = fs.q_matrix(np.arange(1.0, 6.0))
    # diagonal: (a1 + a2, -a1, -a2); off-diagonals: a3/2, a4/2, a5/2.
    np.testing.assert_allclose(full.matrix,
                               [[3.0, 1.5, 2.0],
                                [1.5, -1.0, 2.5],
                                [2.0, 2.5, -2.0]])


def test_q_matrix_zero():
    q = fs.q_matrix(np.zeros(2))
    np.testing.assert_array_equal(q.matrix, np.zeros((2, 2)))


def test_q_matrix_length_mismatch():
    with pytest.raises(fs.DimensionMismatch):
        fs.q_matrix(np.ones(4))  # no n has (n-1)(n+2)/2 = 4


@pytest.mark.parametrize("seed", range(10))
def test_q_matrix_trace_is_exact_zero(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    a = rng.standard_normal(fs.target_dim(n)) * 10.0 ** rng.integers(-3, 4)
    q = fs.q_matrix(a)
    assert np.trace(q.matrix) == 0.0


def test_q_matrix_exact_arithmetic():
    a = np.array([Fraction(1, 3), Fraction(-2, 7)], dtype=object)
    q = fs.q_matrix(a)
    assert q.matrix[0, 0] == Fraction(1, 3)
    assert q.matrix[0, 1] == Fraction(-1, 7)
    assert sum(q.matrix[i, i] for i in range(2)) == 0


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10 ** 9))
def test_pairing_identity(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    a = rng.standard_normal(fs.target_dim(n))
    fx = fs.f_vector(x)
    lhs = float(fx @ a)
    rhs = fs.q_matrix(a).evaluate(x)
    scale = max(np.linalg.norm(fx) * np.linalg.norm(a), 1e-300)
    assert abs(lhs - rhs) <= 1e-12 * scale


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10 ** 9),
       st.floats(-100.0, 100.0, allow_nan=False))
def test_quadratic_homogeneity(n, seed, lam):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    fx = fs.f_vector(x)
    diff = np.linalg.norm(fs.f_vector(lam * x) - lam ** 2 * fx)
    assert diff <= 1e-12 * max(lam ** 2 * np.linalg.norm(fx), 1e-300)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_transform_never_vanishes(n):
    rng = np.random.default_rng(n)
    for _ in range(500):
        x = rng.standard_normal(n)
        assert np.linalg.norm(fs.f_vector(x)) > 0.0


@pytest.mark.parametrize("seed", range(6))
def test_unit_norm_affine_dim_drops_by_one(seed):
    rng = np.random.default_rng(300 + seed)
    n = int(rng.integers(2, 5))
    m = int(rng.integers(n, 10))
    f = fs.random_frame(n, m, rng=rng)
    unit = fs.build_frame(n, (f.matrix / f.norms()).T)
    dims = fs.outer_dims(unit)
    assert dims.affine_dim == dims.linear_dim - 1


@pytest.mark.parametrize("seed", range(6))
def test_kernel_vector_matches_full_tightness_system(seed):
    # A nonnegative kernel combination of the transformed columns is the
    # same thing as the full set of tightness equations holding.
    from conftest import random_scalable_frame
    rng = np.random.default_rng(400 + seed)
    f = random_scalable_frame(rng, 3, 7)
    v = fs.decide(f)
    assert v.scalable
    u = v.certificate.u
    fi = fs.f_image(f)
    assert np.linalg.norm(fi.matrix @ u) <= 1e-9
    alpha, residual = fs.weights_residual(f, u)
    assert residual <= 1e-8 * alpha


def test_f_frame_rank_onb(onb2):
    rank, spans = fs.f_frame_rank(onb2)
    assert (rank, spans) == (1, False)


def test_f_frame_rank_mercedes(mercedes):
    rank, spans = fs.f_frame_rank(mercedes)
    assert (rank, spans) == (2, True)


def test_f_frame_rank_onb_plus(onb_plus):
    rank, spans = fs.f_frame_rank(onb_plus)
    assert (rank, spans) == (2, True)


def test_pair_index_matches_block_layout():
    # The off-diagonal coefficient index must walk the product blocks in
    # the same order the transform emits them.
    n = 4
    x = np.arange(1.0, n + 1)
    fx = fs.f_vector(x)
    for i in range(n - 1):
        for j in range(i + 1, n):
            assert fx[fs.pair_index(n, i, j)] == x[i] * x[j]
