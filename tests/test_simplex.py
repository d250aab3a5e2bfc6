from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import framescale as fs
from framescale import simplex
from conftest import random_scalable_frame


def brute_force_minimum(a, b, c, tol=1e-9):
    """Oracle: enumerate all basic solutions of Ax = b, x >= 0."""
    m, n = a.shape
    best = None
    for cols in combinations(range(n), m):
        sub = a[:, cols]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x_b = np.linalg.solve(sub, b)
        if np.any(x_b < -tol):
            continue
        x = np.zeros(n)
        x[list(cols)] = x_b
        val = float(c @ x)
        if best is None or val < best:
            best = val
    return best


def random_feasible_lp(rng, m, n):
    a = rng.standard_normal((m, n))
    x0 = np.abs(rng.standard_normal(n))
    b = a @ x0
    c = rng.standard_normal(n)
    return a, b, c


@pytest.mark.parametrize("seed", range(20))
def test_optimum_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 4))
    n = int(rng.integers(m + 1, m + 5))
    a, b, c = random_feasible_lp(rng, m, n)
    oracle = brute_force_minimum(a, b, c)
    res = simplex.solve_lp(a, b, c)
    if oracle is None:
        assert res.status != simplex.OPTIMAL
    elif res.status == simplex.UNBOUNDED:
        pass  # brute force over vertices cannot see recession directions
    else:
        assert res.status == simplex.OPTIMAL
        assert res.objective == pytest.approx(oracle, rel=1e-7, abs=1e-7)
        np.testing.assert_allclose(a @ res.x, b, atol=1e-8)
        assert np.all(res.x >= -1e-9)


def test_detects_infeasible():
    a = np.array([[-1.0, -1.0]])
    b = np.array([1.0])
    res = simplex.solve_lp(a, b, np.zeros(2))
    assert res.status == simplex.INFEASIBLE


@pytest.mark.parametrize("solve", [simplex.solve_lp, simplex.solve_lp_exact])
def test_infeasible_result_carries_farkas_ray(solve):
    # x1 + x2 = 1 and x1 + x2 = -2 (a flipped row) cannot both hold:
    # the ray needs y'A <= 0 and y'b > 0.
    a = [[1, 1, 0], [1, 1, 1], [1, 1, 0]]
    b = [1, 3, -2]
    res = solve(a, b, [0, 0, 0])
    assert res.status == simplex.INFEASIBLE
    y = res.ray
    assert np.all(y @ np.array(a, dtype=object) <= 0)
    assert y @ np.array(b, dtype=object) > 0
    if solve is simplex.solve_lp_exact:
        assert all(type(v) is Fraction for v in y)


def test_detects_unbounded():
    a = np.array([[1.0, -1.0, 0.0]])
    b = np.array([0.0])
    c = np.array([0.0, 0.0, -1.0])
    res = simplex.solve_lp(a, b, c)
    assert res.status == simplex.UNBOUNDED
    # The last basic point comes back, and it is still feasible.
    np.testing.assert_allclose(a @ res.x, b, atol=1e-12)
    assert np.all(res.x >= 0.0)


def test_degenerate_problem_terminates():
    # Several coinciding vertices at the origin: Bland's rule must not cycle.
    a = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, -1.0, 0.0, 1.0]])
    b = np.array([0.0, 0.0])
    c = np.array([-1.0, -2.0, 0.0, 0.0])
    res = simplex.solve_lp(a, b, c)
    assert res.status in (simplex.OPTIMAL, simplex.UNBOUNDED)


@pytest.mark.parametrize("seed", range(10))
def test_exact_agrees_with_float(seed):
    rng = np.random.default_rng(1000 + seed)
    m, n = 3, 6
    a_int = rng.integers(-5, 6, size=(m, n))
    x0 = rng.integers(0, 4, size=n)
    b_int = a_int @ x0
    c_int = rng.integers(-4, 5, size=n)
    res_f = simplex.solve_lp(a_int.astype(float), b_int.astype(float),
                             c_int.astype(float))
    res_e = simplex.solve_lp_exact(a_int.tolist(), b_int.tolist(),
                                   c_int.tolist())
    assert res_f.status == res_e.status
    if res_f.status == simplex.OPTIMAL:
        assert res_f.objective == pytest.approx(float(res_e.objective),
                                                rel=1e-9, abs=1e-9)


def test_exact_solution_is_rational():
    a = [[1, 1, 1]]
    b = [1]
    c = [3, 1, 2]
    res = simplex.solve_lp_exact(a, b, c)
    assert res.status == simplex.OPTIMAL
    assert res.objective == Fraction(1)
    assert list(res.x) == [Fraction(0), Fraction(1), Fraction(0)]
    # Integer inputs must not leak through as int (or, after an int/int
    # division in a pivot, as float): every number is a Fraction.
    assert type(res.objective) is Fraction
    assert all(type(v) is Fraction for v in res.x)


def test_initial_basis_skips_artificial_phase():
    # max x1 + x2 s.t. x1 + s1 = 1, x2 + s2 = 2 with slack start.
    a = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])
    b = np.array([1.0, 2.0])
    c = np.array([-1.0, -1.0, 0.0, 0.0])
    res = simplex.solve_lp(a, b, c, initial_basis=[2, 3])
    assert res.status == simplex.OPTIMAL
    assert res.objective == pytest.approx(-3.0)


@pytest.mark.parametrize("seed", range(12))
def test_separator_optimum_is_literal_zero_for_scalable_frames(seed):
    # Wolfe's point reaches the origin on scalable instances, and that
    # "zero" stop returns t* as a literal 0.0, so callers of
    # separator_search can test t* > 0 without a tolerance.
    rng = np.random.default_rng(2000 + seed)
    f = random_scalable_frame(rng, int(rng.integers(2, 5)), 8)
    t_star, _ = fs.separator_search(fs.f_image(f))
    assert t_star == 0.0


def beale():
    """Beale's LP (Naval Res. Logist. Q. 2, 1955) in standard form, slacks
    first: Dantzig's rule cycles from the slack basis."""
    a = np.array([[1, 0, 0, 1 / 4, -60, -1 / 25, 9],
                  [0, 1, 0, 1 / 2, -90, -1 / 50, 3],
                  [0, 0, 1, 0, 0, 1, 0]])
    b = np.array([0.0, 0.0, 1.0])
    c = np.array([0, 0, 0, -3 / 4, 150, -1 / 50, 6])
    return a, b, c


def test_bland_guard_breaks_beales_cycle(monkeypatch):
    a, b, c = beale()
    res = simplex.solve_lp(a, b, c, initial_basis=[0, 1, 2])
    assert res.status == simplex.OPTIMAL
    assert res.objective == pytest.approx(-1 / 20, abs=1e-12)
    np.testing.assert_allclose(res.x, [3 / 100, 0, 0, 1 / 25, 0, 1, 0],
                               atol=1e-12)
    assert 0 < res.guarded < res.pivots
    # Without the guard, Dantzig's rule cycles until the iteration cap.
    monkeypatch.setattr(simplex, "DEGENERATE_RUN", simplex.MAX_ITERATIONS)
    res = simplex.solve_lp(a, b, c, initial_basis=[0, 1, 2])
    assert res.status == simplex.ITERATION_LIMIT


def test_exact_mode_keeps_blands_rule():
    a, b, c = beale()
    to_exact = [[Fraction(v).limit_denominator(100) for v in row] for row in a]
    res = simplex.solve_lp_exact(to_exact, b.tolist(),
                                 [Fraction(v).limit_denominator(100)
                                  for v in c], initial_basis=[0, 1, 2])
    assert res.status == simplex.OPTIMAL
    assert res.objective == Fraction(-1, 20)
    assert res.guarded == 0 and res.pivots == 6


def test_float_phase_2_prices_by_dantzigs_rule():
    # min -x1 - 3 x2 s.t. x1 + x2 + s1 = 1, x1 - x2 + s2 = 1: Bland's rule
    # enters x1 first and takes two pivots; the largest reduced cost, x2,
    # reaches the optimum in one.
    a = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, -1.0, 0.0, 1.0]])
    b = np.array([1.0, 1.0])
    c = np.array([-1.0, -3.0, 0.0, 0.0])
    res = simplex.solve_lp(a, b, c, initial_basis=[2, 3])
    assert res.status == simplex.OPTIMAL
    assert res.objective == pytest.approx(-3.0)
    assert (res.pivots, res.guarded) == (1, 0)
    exact = simplex.solve_lp_exact(a.astype(int).tolist(),
                                   b.astype(int).tolist(),
                                   c.astype(int).tolist(),
                                   initial_basis=[2, 3])
    assert exact.objective == -3 and exact.pivots == 2
