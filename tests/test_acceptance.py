"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines for
passing criteria as well.  Every tolerance is pinned here; nothing is
deferred to later calibration.
"""

import io
import json
import time

import numpy as np

import framescale as fs
from framescale import cli
from framescale.feasibility import Separator
from framescale.frames import ScalingWeights
from conftest import random_orthogonal
from references import identity_in_outer_hull


def _report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_certificate_exclusivity():
    # 1000 seeded random frames, N in {2,3,4}, M in {N..10}: exactly one
    # verifying certificate each; weights residual <= 1e-9 alpha,
    # separator margin >= 1e-10; under 60 s.
    started = time.perf_counter()
    rng = np.random.default_rng(20260808)
    weight_fails = separator_fails = double = 0
    scalable_count = 0
    for _ in range(1000):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(n, 11))
        frame = fs.random_frame(n, m, rng=rng)
        verdict = fs.decide(frame)
        is_w = isinstance(verdict.certificate, ScalingWeights)
        is_s = isinstance(verdict.certificate, Separator)
        if is_w == is_s:
            double += 1
            continue
        if verdict.scalable != is_w:
            double += 1
            continue
        if is_w:
            scalable_count += 1
            w = verdict.certificate
            if not (w.residual <= 1e-9 * w.alpha):
                weight_fails += 1
        else:
            margin = verdict.certificate.verify(fs.f_image(frame))
            if not (margin >= 1e-10):
                separator_fails += 1
    elapsed = time.perf_counter() - started
    ok = (weight_fails == 0 and separator_fails == 0 and double == 0
          and elapsed <= 60.0)
    _report("criterion-1 certificate exclusivity", ok,
            f"scalable {scalable_count}/1000, weight fails {weight_fails}, "
            f"separator fails {separator_fails}, double {double}, "
            f"{elapsed:.1f}s")


def test_criterion_2_decider_agreement():
    # 500 seeded rational frames (N in {2,3}, M <= 6): float decision,
    # exact enumeration and the outer-product hull LP agree outside the
    # boundary band; band cases <= 1% and all resolved exactly.
    rng = np.random.default_rng(777)
    made = band = disagree = unresolved = 0
    while made < 500:
        n = int(rng.integers(2, 4))
        m = int(rng.integers(n, 7))
        mat = rng.integers(-16, 17, size=(n, m)) / 8.0
        if fs.numerical_rank(mat) < n:
            continue
        made += 1
        frame = fs.build_frame(n, mat.T)
        flagged = fs.decide(frame)
        if flagged.boundary_flag:  # re-decided through exact when M <= 12
            band += 1
            if flagged.resolved_by != "exact":
                unresolved += 1
            continue
        exact_v = fs.exact_oracle(frame)
        hull = identity_in_outer_hull(frame)
        if not (flagged.scalable == exact_v.scalable == hull):
            disagree += 1
    ok = disagree == 0 and band <= 5 and unresolved == 0
    _report("criterion-2 decider agreement", ok,
            f"band {band}/500, disagreements {disagree}, "
            f"unresolved {unresolved}")


def test_criterion_3_appended_vector_strictness():
    # For N in {2,3,4,5}, 100 random unit vectors appended to the standard
    # basis: strictly N-scalable, never strictly (N+1)-scalable.
    rng = np.random.default_rng(42)
    failures = 0
    for n in (2, 3, 4, 5):
        for _ in range(100):
            phi = rng.standard_normal(n)
            phi /= np.linalg.norm(phi)
            frame = fs.build_frame(n, list(np.eye(n)) + [phi])
            good_n = fs.is_m_scalable(frame, n, strict=True).scalable
            bad_n1 = fs.is_m_scalable(frame, n + 1, strict=True).scalable
            if not good_n or bad_n1:
                failures += 1
    _report("criterion-3 appended-vector strictness", failures == 0,
            f"failures {failures}/400")


def test_criterion_4_support_reduction_bound():
    # 200 seeded scalable frames (unions of rotated orthonormal bases of
    # R^2 and R^3, M up to 12): reduced support <= dim span of the outer
    # products <= N(N+1)/2, residual <= 1e-8 alpha.
    rng = np.random.default_rng(1414)
    failures = 0
    for _ in range(200):
        n = int(rng.integers(2, 4))
        copies = int(rng.integers(2, 7 if n == 2 else 5))
        cols = []
        for _ in range(copies):
            q = random_orthogonal(rng, n)
            cols.extend(q.T)
        frame = fs.build_frame(n, cols)
        weights = fs.make_weights(frame, np.full(frame.m, 1.0 / frame.m))
        reduced = fs.caratheodory_reduce(frame, weights)
        m_phi = fs.outer_dims(frame).linear_dim
        ok = (len(reduced.support) <= m_phi <= n * (n + 1) // 2
              and reduced.residual <= 1e-8 * reduced.alpha)
        if not ok:
            failures += 1
    _report("criterion-4 support reduction bound", failures == 0,
            f"failures {failures}/200")


def test_criterion_5_perturbation_witness():
    # Base frame e1, e2, e3, diagonal: a verified non-scalable frame
    # within every epsilon in {1e-1, 1e-2, 1e-3}, 10 seeds each.
    r = 1 / np.sqrt(3.0)
    base = fs.build_frame(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (r, r, r)])
    failures = 0
    for eps in (1e-1, 1e-2, 1e-3):
        for seed in range(10):
            wit = fs.nonscalable_witness(base, eps, seed=seed)
            ok = (wit.distance <= eps
                  and not wit.verdict.scalable
                  and isinstance(wit.verdict.certificate, Separator)
                  and wit.verdict.certificate.margin > 0.0)
            if not ok:
                failures += 1
    _report("criterion-5 perturbation witness", failures == 0,
            f"failures {failures}/30")


def test_criterion_6_generic_dimension():
    # Probe fraction 1.0 on the whole grid N in {2,3,4}, N <= M <= 12,
    # 100 trials per cell.
    misses = []
    for n in (2, 3, 4):
        for m in range(n, 13):
            probe = fs.generic_dimension_probe(n, m, 100,
                                               seed=10000 * n + m)
            if probe.fraction != 1.0:
                misses.append((n, m, probe.fraction))
    _report("criterion-6 generic dimension", not misses,
            f"misses {misses}")


def test_criterion_7_transform_identities():
    # Pairing and homogeneity at 1e-12 relative over 1e4 samples; the
    # quadratic-form matrix has exactly zero trace; the transform never
    # vanishes on nonzero inputs.
    rng = np.random.default_rng(20240202)
    pairing_bad = homog_bad = trace_bad = vanish_bad = 0
    for _ in range(10 ** 4):
        n = int(rng.integers(2, 7))
        x = rng.standard_normal(n)
        a = rng.standard_normal(fs.target_dim(n))
        lam = float(rng.uniform(-10.0, 10.0))
        fx = fs.f_vector(x)
        q = fs.q_matrix(a)
        lhs = float(fx @ a)
        rhs = q.evaluate(x)
        pair_scale = max(np.linalg.norm(fx) * np.linalg.norm(a), 1e-300)
        if abs(lhs - rhs) > 1e-12 * pair_scale:
            pairing_bad += 1
        homog_scale = max(lam ** 2 * np.linalg.norm(fx), 1e-300)
        if np.linalg.norm(fs.f_vector(lam * x) - lam ** 2 * fx) \
                > 1e-12 * homog_scale:
            homog_bad += 1
        if np.trace(q.matrix) != 0.0:
            trace_bad += 1
        if np.linalg.norm(fx) == 0.0:
            vanish_bad += 1
    ok = pairing_bad == homog_bad == trace_bad == vanish_bad == 0
    _report("criterion-7 transform identities", ok,
            f"pairing {pairing_bad}, homogeneity {homog_bad}, "
            f"trace {trace_bad}, vanishing {vanish_bad} (of 1e4)")


def test_criterion_8_sign_test_soundness():
    # 200 seeded one-signed-quadrant frames: the sign witness always fires
    # and the decision always returns a separator.
    rng = np.random.default_rng(808)
    made = failures = 0
    while made < 200:
        n = int(rng.integers(2, 5))
        m = int(rng.integers(n, 9))
        mat = (np.abs(rng.standard_normal((n, m))) + 0.05) \
            * rng.choice([-1.0, 1.0], size=n)[:, None]
        if fs.numerical_rank(mat) < n:
            continue
        made += 1
        frame = fs.build_frame(n, mat.T)
        witness = fs.sign_quick_reject(frame)
        verdict = fs.decide(frame)
        ok = (witness is not None and not verdict.scalable
              and isinstance(verdict.certificate, Separator))
        if not ok:
            failures += 1
    _report("criterion-8 sign test soundness", failures == 0,
            f"failures {failures}/200")


def test_criterion_9_cli_end_to_end(tmp_path):
    # analyze -> scale -> tightness closes on the three-vector fixture;
    # equal weights to 1e-9; byte-identical reports modulo timings.
    s3 = np.sqrt(3.0)
    path = tmp_path / "mercedes.json"
    path.write_text(json.dumps({
        "n": 2, "vectors": [[0.0, 1.0], [-s3 / 2, -0.5], [s3 / 2, -0.5]],
    }))

    def run(argv):
        out = io.StringIO()
        code = cli.run(argv, stdout=out, stderr=io.StringIO())
        return code, out.getvalue()

    code1, out1 = run(["analyze", str(path), "--seed", "0"])
    code2, out2 = run(["analyze", str(path), "--seed", "0"])
    report = json.loads(out1)
    second = json.loads(out2)
    report_nt = {k: v for k, v in report.items() if k != "timings"}
    second_nt = {k: v for k, v in second.items() if k != "timings"}
    deterministic = (json.dumps(report_nt, sort_keys=True)
                     == json.dumps(second_nt, sort_keys=True))
    u = report["certificate"]["u"]
    weights_equal = max(abs(a - b) for a in u for b in u) <= 1e-9

    code3, out3 = run(["scale", "--parseval", str(path)])
    doc = json.loads(out3)
    scaled = fs.build_frame(doc["n"], doc["vectors"])
    tight = fs.is_tight(scaled, tol=1e-9)
    residual_ok = tight.tight and tight.residual <= 1e-9

    ok = (code1 == code2 == code3 == 0 and report["verdict"]["scalable"]
          and deterministic and weights_equal and residual_ok)
    _report("criterion-9 CLI end to end", ok,
            f"deterministic {deterministic}, weights equal {weights_equal}, "
            f"final residual {tight.residual:.2e}")
