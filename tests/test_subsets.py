import logging
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import framescale as fs
import framescale.subsets as subsets
from framescale import feasibility, simplex
from framescale.exact import f_vector_exact, frame_to_fractions
from conftest import random_orthogonal, random_scalable_frame


# --- orthogonal subbasis ------------------------------------------------------

def test_subbasis_found_in_onb_plus(onb_plus):
    assert fs.orthogonal_subbasis(onb_plus) == (0, 1)


def test_subbasis_absent_in_mercedes(mercedes):
    # Oracle: all pairwise inner products equal -1/2, never zero.
    g = mercedes.matrix.T @ mercedes.matrix
    off = g[np.triu_indices(3, k=1)]
    np.testing.assert_allclose(off, -0.5, atol=1e-12)
    assert fs.orthogonal_subbasis(mercedes) is None


def test_subbasis_skips_earlier_nonorthogonal_pairs():
    f = fs.build_frame(2, [(1, 1), (1, -1), (3, 0)])
    assert fs.orthogonal_subbasis(f) == (0, 1)


def test_subbasis_ignores_zero_columns():
    f = fs.build_frame(2, [(0, 0), (1, 0), (0, 2)])
    assert fs.orthogonal_subbasis(f) == (1, 2)


def test_subbasis_rejects_duplicate_columns_as_pair():
    f = fs.build_frame(2, [(1, 0), (1, 0), (1, 1)])
    assert fs.orthogonal_subbasis(f) is None


# --- m-scalability ------------------------------------------------------------

def test_onb_plus_basis_subset_strictly_scalable(onb_plus):
    res = fs.is_m_scalable(onb_plus, 2, strict=True)
    assert res.scalable and res.strict and res.witness == (0, 1)


def test_onb_plus_not_strictly_scalable_at_full_size(onb_plus):
    res = fs.is_m_scalable(onb_plus, 3, strict=True)
    assert not res.scalable


def test_mercedes_pair_vs_triple(mercedes):
    assert not fs.is_m_scalable(mercedes, 2).scalable
    res = fs.is_m_scalable(mercedes, 3, strict=True)
    assert res.scalable and res.strict
    np.testing.assert_allclose(res.weights.u, [1 / 3] * 3, atol=1e-12)


def test_m_bounds_validated(mercedes):
    with pytest.raises(fs.DimensionMismatch):
        fs.is_m_scalable(mercedes, 1)
    with pytest.raises(fs.DimensionMismatch):
        fs.is_m_scalable(mercedes, 4)


def test_non_scalable_frame_fails_all_m(quadrant):
    for m in (2, 3):
        assert not fs.is_m_scalable(quadrant, m).scalable


def test_budget_exceeded_raises():
    rng = np.random.default_rng(11)
    f = random_scalable_frame(rng, 2, 6)
    with pytest.raises(fs.BudgetExceeded):
        fs.is_m_scalable(f, 4, strict=True, budget=2)


def test_strict_queries_exclude_zero_columns():
    f = fs.build_frame(2, [(1, 0), (0, 1), (0, 0)])
    res = fs.is_m_scalable(f, 2, strict=True)
    assert res.scalable and 2 not in res.witness


@pytest.mark.parametrize("seed", range(8))
def test_monotone_in_m(seed):
    rng = np.random.default_rng(500 + seed)
    f = random_scalable_frame(rng, 2, 6)
    results = [fs.is_m_scalable(f, m).scalable for m in range(2, 7)]
    for lo, hi in zip(results, results[1:]):
        assert hi >= lo  # once true, padding keeps it true


@pytest.mark.parametrize("seed", range(8))
def test_size_n_query_equals_subbasis_search(seed):
    rng = np.random.default_rng(600 + seed)
    n = int(rng.integers(2, 4))
    m = int(rng.integers(n, 7))
    f = fs.random_frame(n, m, rng=rng)
    res_enum = None
    from itertools import combinations
    for idx in combinations(range(m), n):
        if fs.decide(f, idx).scalable:
            res_enum = idx
            break
    found = fs.orthogonal_subbasis(f)
    assert (found is None) == (res_enum is None)


# --- support reduction ----------------------------------------------------------

def test_reduce_duplicated_onb():
    f = fs.build_frame(2, [(1, 0), (0, 1), (1, 0), (0, 1)])
    w = fs.make_weights(f, np.full(4, 0.25))
    r = fs.caratheodory_reduce(f, w)
    assert len(r.support) == 2
    assert r.residual <= 1e-12


def test_reduce_two_rotated_bases():
    ang = np.pi / 6
    rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    cols = [(1, 0), (0, 1)] + [tuple(rot @ e) for e in np.eye(2)]
    f = fs.build_frame(2, cols)
    w = fs.make_weights(f, np.full(4, 0.25))
    r = fs.caratheodory_reduce(f, w)
    assert len(r.support) <= 3
    assert r.residual <= 1e-8 * r.alpha
    # Oracle: exact vertex enumeration of the normalized kernel polytope
    # also finds a supporting point on at most 3 columns.
    from fractions import Fraction
    from framescale import exact
    g_cols = [exact.f_vector_exact(c)
              for c in exact.frame_to_fractions(f)]
    rows = [[c[i] for c in g_cols] for i in range(2)]
    verts = exact.polytope_vertices(rows + [[Fraction(1)] * 4],
                                    [Fraction(0)] * 2 + [Fraction(1)])
    assert verts and min(sum(1 for v in u if v > 0) for u in verts) <= 3


def test_reduce_leaves_minimal_support_alone(mercedes):
    v = fs.decide(mercedes)
    r = fs.caratheodory_reduce(mercedes, v.certificate)
    assert r.support == (0, 1, 2)
    np.testing.assert_allclose(r.u, v.certificate.u, atol=1e-12)


def test_reduce_rejects_bad_weights(mercedes):
    bogus = fs.make_weights(mercedes, np.array([0.9, 0.05, 0.05]))
    with pytest.raises(ValueError):
        fs.caratheodory_reduce(mercedes, bogus)


def _rotated_bases(seed):
    rng = np.random.default_rng(700 + seed)
    n = int(rng.integers(2, 4))
    copies = int(rng.integers(2, 5))
    cols = []
    for _ in range(copies):
        q = random_orthogonal(rng, n)
        cols.extend(q.T)
    f = fs.build_frame(n, cols)
    return f, fs.make_weights(f, np.full(f.m, 1.0 / f.m))


def _scalable_10x60(seed):
    f = random_scalable_frame(np.random.default_rng(seed), 10, 60)
    return f, fs.decide(f).certificate


def _strict_4x13(seed):
    f = random_scalable_frame(np.random.default_rng(seed), 4, 13)
    v = fs.decide(f)
    assert v.strict and v.certificate.support_size == 13
    return f, v.certificate


def _exact_3x7(seed):
    f = random_scalable_frame(np.random.default_rng(seed), 3, 7)
    v = fs.decide(f, mode="exact")
    assert v.scalable and v.resolved_by == "exact"
    return f, v.certificate


# Seeds 18 and 38 give three bases of R^3 on which one push zeroes two
# weights at once, so a single round of pushes ends on dependent columns.
@pytest.mark.parametrize(
    "make, seed",
    [pytest.param(_rotated_bases, s, id=str(s)) for s in (*range(10), 18, 38)]
    + [pytest.param(_scalable_10x60, s, id=f"10x60-{s}") for s in (710, 711)]
    + [pytest.param(_strict_4x13, s, id=f"4x13-{s}") for s in (720, 721)]
    + [pytest.param(_exact_3x7, s, id=f"exact-3x7-{s}") for s in (730, 731)])
def test_reduce_support_bounded_by_span_dimension(make, seed):
    f, w = make(seed)
    r = fs.caratheodory_reduce(f, w)
    n = f.n
    m_phi = fs.outer_dims(f).linear_dim
    assert len(r.support) <= m_phi <= n * (n + 1) // 2
    assert set(r.support) <= set(w.support)
    assert r.residual <= 1e-8 * r.alpha
    # Carathéodory on the reduced support itself: the columns
    # (F(phi_k), 1) are linearly independent there.
    g = fs.f_image(f).columns(r.support)
    lifted = np.vstack([g, np.ones(len(r.support))])
    assert fs.numerical_rank(lifted) == len(r.support)


def test_reduce_runs_no_lp(monkeypatch):
    f, w = _strict_4x13(740)

    def refuse(*args, **kwargs):
        raise AssertionError("caratheodory_reduce ran an LP")

    for module in (simplex, subsets):
        for name in ("solve_lp", "solve_lp_exact"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    r = fs.caratheodory_reduce(f, w)
    assert len(r.support) <= 10 and r.residual <= 1e-8 * r.alpha


def test_reduce_stalls_when_the_push_refuses(monkeypatch):
    f, w = _strict_4x13(740)
    monkeypatch.setattr(subsets, "_caratheodory_push", lambda u, z: None)
    with pytest.raises(fs.NumericalStall):
        fs.caratheodory_reduce(f, w)


@pytest.mark.parametrize("seed", range(8))
def test_reduce_leaves_rounding_level_weights_out(seed):
    # A scalable 4 x 7 frame and 6 Gaussian columns that carry weights of
    # rounding size: pushing from those weights would spend the kernel's
    # directions on them, so they stay out of the support.  The 7 columns
    # (F(phi_k), 1) in R^10 are independent, so nothing is left to push.
    rng = np.random.default_rng(seed)
    base = random_scalable_frame(rng, 4, 7)
    f = fs.build_frame(4, np.hstack([base.matrix,
                                     rng.standard_normal((4, 6))]).T)
    u = np.concatenate([fs.decide(base).certificate.u, np.full(6, 1e-17)])
    r = fs.caratheodory_reduce(f, fs.make_weights(f, u))
    assert r.support == tuple(range(7))
    assert r.residual <= 1e-8 * r.alpha


@pytest.mark.parametrize("factor", [1e-6, 1e6])
def test_reduce_does_not_depend_on_the_frame_scale(factor):
    f, w = _strict_4x13(750)
    scaled = fs.build_frame(4, factor * f.matrix.T)
    r = fs.caratheodory_reduce(scaled, fs.make_weights(scaled, w.u))
    assert r.support == fs.caratheodory_reduce(f, w).support
    assert r.residual <= 1e-8 * r.alpha


def test_reduce_dimension_one():
    f = fs.build_frame(1, [(2,), (-1,), (3,)])
    w = fs.make_weights(f, np.full(3, 1 / 3))
    r = fs.caratheodory_reduce(f, w)
    assert len(r.support) == 1
    assert r.residual <= 1e-8 * r.alpha


# --- scalability index ----------------------------------------------------------

def test_index_onb_plus_is_dimension(onb_plus):
    res = fs.scalability_index(onb_plus)
    assert res.index == 2 and not res.not_scalable


def test_index_mercedes(mercedes):
    res = fs.scalability_index(mercedes)
    assert res.index == 3
    assert res.witness == (0, 1, 2)


def test_index_quadrant_not_scalable(quadrant):
    res = fs.scalability_index(quadrant)
    assert res.not_scalable and res.index is None


def test_index_mercedes_plus_junk_column(mercedes):
    cols = list(mercedes.columns) + [np.array([0.9, 0.1])]
    f = fs.build_frame(2, cols)
    res = fs.scalability_index(f)
    assert res.index == 3
    v = fs.decide(f, res.witness)
    assert v.scalable


@pytest.mark.parametrize("seed", range(8))
def test_index_bounded_by_span_dimension(seed):
    rng = np.random.default_rng(800 + seed)
    f = random_scalable_frame(rng, int(rng.integers(2, 4)), 7)
    res = fs.scalability_index(f)
    assert not res.not_scalable
    assert res.index <= fs.outer_dims(f).linear_dim
    assert res.unknown_below is None


def test_index_budget_returns_upper_bound():
    rng = np.random.default_rng(12)
    f = random_scalable_frame(rng, 3, 9)
    res = fs.scalability_index(f, budget=1)
    assert res.index is not None
    v = fs.decide(f, res.witness)
    assert v.scalable


# --- appended-vector family -----------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("seed", range(3))
def test_appended_unit_vector_strictness_flips(n, seed):
    rng = np.random.default_rng(900 + 10 * n + seed)
    phi = rng.standard_normal(n)
    phi /= np.linalg.norm(phi)
    f = fs.build_frame(n, list(np.eye(n)) + [phi])
    assert fs.is_m_scalable(f, n, strict=True).scalable
    assert not fs.is_m_scalable(f, n + 1, strict=True).scalable


def test_strictly_full_size_scalable_low_count_has_full_transform_rank(
        mercedes):
    # A frame strictly scalable at size d + 1 but not scalable at size d:
    # its transformed columns must span the whole target space.
    assert fs.is_m_scalable(mercedes, 3, strict=True).scalable
    assert not fs.is_m_scalable(mercedes, 2).scalable
    rank, spans = fs.f_frame_rank(mercedes)
    assert spans and rank == fs.target_dim(2)


# --- separator reuse against brute force ------------------------------------------

def _hadamard_plus_integers(seed):
    """4 x 9 integer frame: the columns of a 4 x 4 Hadamard matrix (an
    orthogonal basis) among five small random integer columns."""
    rng = np.random.default_rng(seed)
    cols = list(rng.integers(-2, 3, size=(5, 4)).astype(float))
    cols += [np.array(r, dtype=float) for r in
             [(1, 1, 1, 1), (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1)]]
    return fs.build_frame(4, [cols[k] for k in rng.permutation(9)])


def _tetrahedron_plus_integers(seed):
    """3 x 7 integer frame: the vertices of a regular tetrahedron (sum of
    outer products 4 I, no two of them orthogonal) among three small random
    integer columns.  Its reduced support is 5 and its index 4, so the
    index walk steps down once."""
    rng = np.random.default_rng(seed)
    cols = list(rng.integers(-2, 3, size=(3, 3)).astype(float))
    cols += [np.array(r, dtype=float) for r in
             [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]]
    return fs.build_frame(3, [cols[k] for k in rng.permutation(7)])


def _with_zero_column(seed):
    f = random_scalable_frame(np.random.default_rng(seed), 3, 6)
    cols = list(f.columns)
    cols.insert(2, np.zeros(3))
    return fs.build_frame(3, cols)


BRUTE_FRAMES = {
    "3x7-seed0": lambda: random_scalable_frame(np.random.default_rng(0), 3, 7),
    "3x7-seed1": lambda: random_scalable_frame(np.random.default_rng(1), 3, 7),
    "4x9-seed0": lambda: random_scalable_frame(np.random.default_rng(0), 4, 9),
    "4x9-integer": lambda: _hadamard_plus_integers(0),
    "3x7-tetrahedron": lambda: _tetrahedron_plus_integers(5),
    "zero-column": lambda: _with_zero_column(2),
    "quadrant": None, "mercedes": None, "onb_plus": None,
}


# Not in exact mode: rounded to floats, the m = d columns of "4x9-seed0"
# have no exact kernel, so every exact verdict is "not scalable", and brute
# force over its 382 subsets takes seconds.
BRUTE_CASES = [(name, mode) for name in BRUTE_FRAMES
               for mode in ("float", "exact")
               if (name, mode) != ("4x9-seed0", "exact")]


@pytest.mark.parametrize("name, mode", BRUTE_CASES)
def test_searches_agree_with_brute_force(name, mode, request):
    make = BRUTE_FRAMES[name]
    f = make() if make else request.getfixturevalue(name)
    nonzero = set(np.flatnonzero(f.norms() > 0.0))
    # The reference: decide on every subset, in combinations order.
    brute = {m: [(idx, fs.decide(f, idx, mode=mode))
                 for idx in combinations(range(f.m), m)]
             for m in range(f.n, f.m + 1)}

    def first(m, strict):
        for idx, v in brute[m]:
            if strict and not nonzero.issuperset(idx):
                continue  # strict queries enumerate nonzero columns only
            if v.scalable and (v.strict or not strict):
                return idx, v
        return None

    full = fs.decide(f, mode=mode)
    support = (fs.caratheodory_reduce(f, full.certificate).support
               if full.scalable else ())
    for m in range(f.n, f.m + 1):
        for strict in (False, True):
            res = fs.is_m_scalable(f, m, strict, mode=mode)
            ref = first(m, strict)
            assert res.scalable == (ref is not None), (m, strict)
            if not res.scalable:
                continue
            if m == f.n or strict or m < len(support):
                # orthogonal basis or enumeration: the first hit
                assert res.witness == ref[0], (m, strict)
                np.testing.assert_array_equal(res.weights.u,
                                              ref[1].certificate.u)
            else:  # padded support of the reduced full-frame weights
                assert res.witness == subsets._pad(support, m, f.m)

    res = fs.scalability_index(f, mode=mode)
    sizes = [m for m in brute if first(m, False) is not None]
    assert res.not_scalable == (not sizes)
    assert res.unknown_below is None
    if sizes:
        assert res.index == sizes[0]
        if res.index == f.n or res.index < len(support):
            ref = first(res.index, False)
            assert res.witness == ref[0]
            np.testing.assert_array_equal(res.weights.u, ref[1].certificate.u)
        else:  # no subset smaller than the reduced support is scalable
            assert res.witness == support


def _count_decides(monkeypatch):
    calls = []
    real = subsets.decide

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(subsets, "decide", counting)
    return calls


def test_index_search_reuses_separators(monkeypatch, caplog):
    f = random_scalable_frame(np.random.default_rng(0), 4, 13)
    calls = _count_decides(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="framescale.subsets"):
        res = fs.scalability_index(f)
    assert res.index == 10 and res.unknown_below is None
    # Without reuse the walk decides the full frame and all C(13, 9) = 715
    # subsets of size 9.
    assert len(calls) <= 100
    [rec] = [r for r in caplog.records if r.name == "framescale.subsets"]
    query, enumerated, solved, rejected, decided = rec.args
    assert query == "scalability_index"
    assert (enumerated, decided) == (715, len(calls) - 1)
    assert rejected == enumerated - decided > 0
    # The rows of the first certified candidates reject most of the others
    # before the batched least-norm solve, which used to take all 715.
    assert 0 < solved <= 120


def test_rejected_subsets_count_against_the_budget(monkeypatch):
    f = random_scalable_frame(np.random.default_rng(0), 4, 13)
    calls = _count_decides(monkeypatch)
    res = fs.scalability_index(f, budget=300)
    # Fewer than 300 subsets reach decide; the budget still stops the walk
    # partway through size 9, as it does without separator reuse.
    assert len(calls) < 300
    assert (res.index, res.unknown_below) == (10, 9)
    assert fs.decide(f, res.witness).scalable


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_kept_separator_rejects_only_above_its_threshold(mode, monkeypatch):
    # In dimension 2, F(x) = (x1^2 - x2^2, x1 x2), so h = (0, 1) reads
    # x1 x2: 0 on the basis, 1 and 2 on columns 2 and 3, 5e-10 on column 4.
    f = fs.build_frame(2, [(1, 0), (0, 1), (1, 1), (1, 2), (1, 5e-10)])
    search = subsets._SubsetSearch(f, mode)
    search._keep(search._row(fs.Separator(
        h=np.array([0.0, 1.0]), margin=1.0, indices=(2, 3),
        h_exact=(Fraction(0), Fraction(1))))[None])
    calls = _count_decides(monkeypatch)
    assert search.decide((2, 3)) is None
    assert search.decide((0, 1)).scalable  # h is 0 there: no rejection
    # 5e-10 lies inside the float band but is a positive rational.
    assert (search.decide((2, 4)) is None) == (mode == "exact")
    assert len(calls) == 1 + (mode == "float")


# --- pruning by kept rows ----------------------------------------------------

def _reference_row(search, sep):
    """The columns a kept separator clears, computed afresh by the
    boolean-matrix rule."""
    f = search.frame
    if search.mode == "exact":
        g = np.array([f_vector_exact(c) for c in frame_to_fractions(f)],
                     dtype=object).T
        return np.array(sep.h_exact, dtype=object) @ g > 0
    return sep.h @ fs.f_image(f).matrix > feasibility.DEFAULT_BOUNDARY_BAND


@pytest.mark.parametrize("mode, n, m, sizes", [("float", 4, 13, (9, 8)),
                                               ("exact", 3, 7, (5, 4))])
def test_kept_rows_reject_as_the_boolean_rule(mode, n, m, sizes):
    f = random_scalable_frame(np.random.default_rng(3), n, m)
    search = subsets._SubsetSearch(f, mode)
    pos = np.zeros((0, m), dtype=bool)
    rejected = equal_rows = kept = 0
    for idx in (idx for size in sizes for idx in combinations(range(m), size)):
        expect = bool(pos[:, list(idx)].all(axis=1).any())
        v = search.decide(idx)
        assert (v is None) == expect, idx
        rejected += expect
        if v is None or not isinstance(v.certificate, fs.Separator):
            continue
        row = _reference_row(search, v.certificate)
        pos = np.vstack([pos, row])
        # A candidate whose columns are exactly the kept row is rejected too.
        same = tuple(np.flatnonzero(row).tolist())
        kept += 1
        equal_rows += bool((search.rows == row).all(axis=1).any())
        assert search.decide(same) is None
    assert rejected > 0 and equal_rows > 0
    assert search.rejected == rejected + kept
    # Only maximal rows are kept, each once.
    assert len(search.rows) < kept
    assert not any(i != j and (a <= b).all()
                   for i, a in enumerate(search.rows)
                   for j, b in enumerate(search.rows))


def _planted_4x13(rng, s):
    mat = rng.standard_normal((4, 13))
    mat[:, :s] = random_scalable_frame(rng, 4, s).matrix
    return fs.build_frame(4, mat.T)


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("kind", ["tight", "planted5", "planted7"])
def test_index_does_not_depend_on_the_affine_route(kind, seed, monkeypatch):
    rng = np.random.default_rng(seed)
    f = (random_scalable_frame(rng, 4, 13) if kind == "tight"
         else _planted_4x13(rng, int(kind[-1])))
    res = fs.scalability_index(f)
    # Off: no least-norm route in decide and no batched least-norm test in
    # the walk, so every candidate a kept separator misses runs Wolfe.
    monkeypatch.setattr(feasibility, "_least_norm", lambda g: None)
    monkeypatch.setattr(subsets, "_separated",
                        lambda g, chunk: np.zeros(len(chunk), dtype=bool))
    off = fs.scalability_index(f)
    assert (res.index, res.not_scalable, res.unknown_below) == \
        (off.index, off.not_scalable, off.unknown_below)
    assert res.index <= (13 if kind == "tight" else int(kind[-1]))


# --- the batched least-norm test ------------------------------------------------

def _gaussian_4x13(rng):
    return fs.build_frame(4, rng.standard_normal((13, 4)))


CERTIFY_FRAMES = {
    "tight": lambda: random_scalable_frame(np.random.default_rng(11), 4, 13),
    "planted7": lambda: _planted_4x13(np.random.default_rng(12), 7),
    "gaussian": lambda: _gaussian_4x13(np.random.default_rng(13)),
}


def _assert_certified_are_separated(f, sizes):
    g = fs.f_image(f).matrix
    certified = separated = 0
    for size in sizes:
        chunk = np.array(list(combinations(range(f.m), size)))
        rows = subsets._separated(g, chunk)
        # A certified candidate lies inside its own row; the others get none.
        own = rows[np.arange(len(chunk))[:, None], chunk].all(axis=1)
        np.testing.assert_array_equal(own, rows.any(axis=1))
        for idx, cert in zip(chunk, own):
            v = fs.decide(f, idx)
            is_separated = isinstance(v.certificate, fs.Separator)
            separated += is_separated
            if cert:
                assert is_separated and not v.scalable, tuple(idx)
                assert not v.boundary_flag, tuple(idx)
                certified += 1
    return certified, separated


@pytest.mark.parametrize("name", CERTIFY_FRAMES)
def test_every_certified_candidate_is_separated_by_decide(name):
    f = CERTIFY_FRAMES[name]()
    certified, separated = _assert_certified_are_separated(f, (9, 6))
    # Not vacuous: the test certifies all but a few separated candidates.
    assert certified >= 0.9 * separated > 0


@pytest.mark.parametrize("name", [name for name in BRUTE_FRAMES
                                  if name != "zero-column"])
def test_every_certified_brute_force_candidate_is_separated(name, request):
    make = BRUTE_FRAMES[name]
    f = make() if make else request.getfixturevalue(name)
    d = fs.f_image(f).matrix.shape[0]
    sizes = range(f.n, min(d, f.m) + 1)
    certified, separated = _assert_certified_are_separated(f, sizes)
    assert certified <= separated


def _assert_rejected_are_separated(f, sizes):
    """Walk every subset of ``sizes`` in one search, with one store of rows,
    and check each candidate rejected through a kept row with ``decide``."""
    search = subsets._SubsetSearch(f, "float")
    covered = search._covered
    rejected = set()

    def recording(cols):
        hit = covered(cols)
        rejected.update(map(tuple, cols[hit].tolist()))
        return hit

    search._covered = recording
    for size in sizes:
        assert search.walk(range(f.m), size, lambda v: False, 10 ** 6) is None
    assert len(rejected) == search.rejected
    for idx in rejected:
        v = fs.decide(f, idx)
        assert not v.scalable and not v.boundary_flag, idx
    return rejected, search.solved


@pytest.mark.parametrize("name", CERTIFY_FRAMES)
def test_every_candidate_a_kept_row_rejects_is_separated(name):
    f = CERTIFY_FRAMES[name]()
    rejected, solved = _assert_rejected_are_separated(f, (9, 6))
    # Rows born in a batch reject candidates that were never solved.
    assert solved < len(rejected)


@pytest.mark.parametrize("name", BRUTE_FRAMES)
def test_every_brute_force_candidate_a_kept_row_rejects_is_separated(
        name, request):
    make = BRUTE_FRAMES[name]
    f = make() if make else request.getfixturevalue(name)
    d = fs.f_image(f).matrix.shape[0]
    _assert_rejected_are_separated(f, range(f.n, min(d, f.m) + 1))


def test_a_repeated_or_zero_column_certifies_nothing_in_its_chunk():
    f = CERTIFY_FRAMES["gaussian"]()
    g = fs.f_image(f).matrix
    chunk = np.array(list(combinations(range(f.m), 6))[:64])
    assert subsets._separated(g, chunk).any(axis=1).all()
    repeated = chunk.copy()
    repeated[-1, 1] = repeated[-1, 0]  # K exactly singular
    assert not subsets._separated(g, repeated).any()
    zero = g.copy()
    zero[:, chunk[-1, -1]] = 0.0
    assert not subsets._separated(zero, chunk).any()
    # A frame with a zero column keeps every search result (brute force
    # checks "zero-column"); no chunk holding the column certifies.
    f0 = BRUTE_FRAMES["zero-column"]()
    g0 = fs.f_image(f0).matrix
    for size in range(f0.n, g0.shape[0] + 1):
        chunk = np.array(list(combinations(range(f0.m), size)))
        assert not subsets._separated(g0, chunk).any()


def test_budget_counts_every_candidate_of_a_batched_walk():
    f = random_scalable_frame(np.random.default_rng(0), 4, 13)
    # The walk tries all C(13, 9) = 715 candidates of size 9, nearly all
    # certified in batches, and finds none scalable.
    assert fs.scalability_index(f, budget=715).unknown_below is None
    res = fs.scalability_index(f, budget=714)
    assert (res.index, res.unknown_below) == (10, 9)
