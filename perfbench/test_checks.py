"""The benchmark's output checks accept framescale's certificates and reject
tampered ones.  Run with ``python -m pytest perfbench``."""

import io
import json
import pathlib
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import framescale as fs  # noqa: E402
from framescale import cli  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402


@pytest.fixture
def scalable():
    mat = inputs.tight_then_rescale(np.random.default_rng(5), 4, 12)
    return mat, fs.decide(fs.build_frame(4, mat.T))


@pytest.fixture
def not_scalable():
    mat = inputs.cone_gaussian(np.random.default_rng(5), 4, 12)[0]
    return mat, fs.decide(fs.build_frame(4, mat.T))


def _exact_report(tmp_path, mat):
    path = tmp_path / "frame.json"
    path.write_text(json.dumps({"n": mat.shape[0], "vectors": mat.T.tolist()}))
    out = io.StringIO()
    assert cli.run(["analyze", str(path), "--mode", "exact"], stdout=out,
                   stderr=io.StringIO()) == 0
    return json.loads(out.getvalue())["certificate"]


def test_transform_matches_the_program():
    mat = np.random.default_rng(0).standard_normal((5, 7))
    expect = fs.f_image(fs.build_frame(5, mat.T)).matrix
    assert np.allclose(checks.f_columns(mat), expect, rtol=0, atol=1e-15)
    exact = [checks.f_exact([float(v) for v in col]) for col in mat.T]
    assert np.allclose(np.array(exact, dtype=float).T, expect, atol=1e-15)


def test_weights_accepted_then_one_negated_rejected(scalable):
    mat, v = scalable
    assert v.scalable and v.strict
    u = np.array(v.certificate.u)
    assert checks.check_weights(mat, u, strict=True) is None
    u[3] = -u[3]
    assert "negative weight" in checks.check_weights(mat, u)


def test_weights_that_do_not_tighten_rejected(scalable):
    mat, v = scalable
    u = np.array(v.certificate.u)
    u[[0, 1]] = u[[1, 0]]
    assert "residual" in checks.check_weights(mat, u)


def test_weights_outside_support_rejected(scalable):
    mat, v = scalable
    u = np.array(v.certificate.u)
    assert "outside" in checks.check_weights(mat, u, support=range(11))


def test_separator_accepted_then_flipped_rejected(not_scalable):
    mat, v = not_scalable
    assert not v.scalable
    h = np.array(v.certificate.h)
    assert checks.check_separator(mat, h, v.certificate.indices) is None
    assert "not positive" in checks.check_separator(mat, -h)


def test_cone_frames_carry_their_separator():
    mat, h = inputs.cone_gaussian(np.random.default_rng(1), 4, 13)
    assert checks.check_separator(mat, h) is None


def test_exact_weights_accepted_then_one_negated_rejected(tmp_path, scalable):
    mat = scalable[0]
    cert = _exact_report(tmp_path, mat)
    vectors = mat.T.tolist()
    u = list(cert["u_rational"])
    assert checks.check_weights_exact(vectors, u, cert["alpha_rational"]) \
        is None
    u[2] = "-" + u[2]
    assert "negative" in checks.check_weights_exact(
        vectors, u, cert["alpha_rational"])


def test_exact_weights_with_wrong_alpha_rejected(tmp_path, scalable):
    mat = scalable[0]
    cert = _exact_report(tmp_path, mat)
    assert "alpha I" in checks.check_weights_exact(
        mat.T.tolist(), cert["u_rational"], "1/3")


def test_exact_separator_accepted_then_flipped_rejected(tmp_path,
                                                         not_scalable):
    mat = not_scalable[0]
    cert = _exact_report(tmp_path, mat)
    vectors = mat.T.tolist()
    h = cert["h_rational"]
    assert checks.check_separator_exact(vectors, h, cert["indices"]) is None
    flipped = [s[1:] if s.startswith("-") else "-" + s for s in h]
    assert "not positive" in checks.check_separator_exact(
        vectors, flipped, cert["indices"])


def test_index_minimality_by_highs():
    pytest.importorskip("scipy")
    r = 1 / np.sqrt(2.0)
    mat = np.array([[1.0, 0.0, r], [0.0, 1.0, r]])  # index 2: columns 0, 1
    assert checks.check_index_minimal(mat, 2) is None
    assert "scalable" in checks.check_index_minimal(mat, 3)
