import argparse
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import framescale as fs
from framescale import cli, exact


def run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    code = cli.run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def run_module(*argv):
    from conftest import SRC
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "framescale.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)


@pytest.fixture
def mercedes_file(tmp_path):
    s3 = np.sqrt(3.0)
    path = tmp_path / "mercedes.json"
    path.write_text(json.dumps({
        "n": 2,
        "vectors": [[0.0, 1.0], [-s3 / 2, -0.5], [s3 / 2, -0.5]],
    }))
    return str(path)


@pytest.fixture
def onb_plus_file(tmp_path):
    r = 1 / np.sqrt(2.0)
    path = tmp_path / "onb_plus.json"
    path.write_text(json.dumps({
        "n": 2, "vectors": [[1.0, 0.0], [0.0, 1.0], [r, r]],
    }))
    return str(path)


@pytest.fixture
def quadrant_file(tmp_path):
    path = tmp_path / "quadrant.json"
    path.write_text(json.dumps({
        "n": 2,
        "vectors": [[1 / np.sqrt(2), 1 / np.sqrt(2)],
                    [2 / np.sqrt(5), 1 / np.sqrt(5)],
                    [1 / np.sqrt(5), 2 / np.sqrt(5)]],
    }))
    return str(path)


# --- parsing --------------------------------------------------------------------

def test_parser_is_built_once_and_keeps_no_options(mercedes_file):
    parser = cli._build_parser()
    assert cli._build_parser() is parser
    first = parser.parse_args(["subsets", mercedes_file, "--m", "2",
                               "--mode", "exact", "--strict"])
    second = parser.parse_args(["analyze", mercedes_file])
    assert (first.mode, first.strict) == ("exact", True)
    assert second.mode == "float" and not hasattr(second, "strict")


def test_each_command_takes_only_the_options_it_reads():
    subparsers = next(a for a in cli._build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    taken = {name: [a.option_strings[0] if a.option_strings else a.dest
                    for a in p._actions if a.dest != "help"]
             for name, p in subparsers.choices.items()}
    assert taken == {
        "analyze": ["file", "--mode", "--tol", "--band", "--seed", "--out"],
        "certify": ["file", "--mode", "--tol", "--band", "--out"],
        "scale": ["file", "--mode", "--tol", "--band", "--parseval",
                  "--out"],
        "fmap": ["file", "--out"],
        "subsets": ["file", "--mode", "--m", "--strict", "--budget",
                    "--out"],
        "witness": ["file", "--mode", "--eps", "--seed", "--out"],
        "random": ["--n", "--m", "--seed", "--out"],
    }
    assert sum(map(len, taken.values())) == 34


def command_argv(command, **paths):
    return [token.format(**paths) for token in command.split()]


@pytest.mark.parametrize("command", [
    "analyze {tmp}/missing.json",
    "certify {tmp}",
    "fmap {tmp}/missing.csv",
    "analyze {frame} --out {tmp}/no-such-dir/report.json",
    "random --n 2 --m 3 --out {tmp}/no-such-dir/frame.json",
], ids=["missing-file", "directory", "missing-csv", "out-into-missing-dir",
        "random-out-into-missing-dir"])
def test_unreadable_input_or_unwritable_out_exits_2(tmp_path, mercedes_file,
                                                    command):
    code, out, err = run_cli(command_argv(command, tmp=tmp_path,
                                          frame=mercedes_file))
    assert code == cli.EXIT_PARSE
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command, expected", [
    ("random --n 0 --m 5", cli.EXIT_PARSE),
    ("random --n -1 --m 5", cli.EXIT_PARSE),
    ("random --n 3 --m 2", cli.EXIT_NOT_A_FRAME),
    ("witness {frame} --eps -1", cli.EXIT_PARSE),
    ("witness {frame} --eps 0", cli.EXIT_PARSE),
    ("witness {frame} --eps nan", cli.EXIT_PARSE),
    ("witness {frame} --eps inf", cli.EXIT_PARSE),
], ids=["n-0", "n-negative", "n-above-m", "eps-negative", "eps-0", "eps-nan",
        "eps-inf"])
def test_out_of_range_option_values_exit_cleanly(mercedes_file, capsys,
                                                 command, expected):
    # argparse refuses a value that is wrong in itself with a usage line
    # and one error line; run reports the rest with one error line.
    try:
        code, out, err = run_cli(command_argv(command, frame=mercedes_file))
    except SystemExit as e:
        code, out, err = e.code, *capsys.readouterr()
    assert code == expected
    assert out == "" and "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert errors == err.splitlines()[-1:]


def test_missing_file_as_script_exits_2_without_traceback(tmp_path):
    proc = run_module("analyze", str(tmp_path / "missing.json"))
    assert proc.returncode == cli.EXIT_PARSE
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: cannot read ")
    assert proc.stderr.count("\n") == 1


def test_invalid_json_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(["analyze", str(path)])
    assert code == cli.EXIT_PARSE
    assert "error" in err


@pytest.mark.parametrize("raw", [
    b'{"vectors": [[1, 0]]}',
    b'{"n": 2, "vectors": 5}',
    b'{"n": 2, "vectors": null}',
    b'{"n": true, "vectors": [[1], [0]]}',
    b'{"n": 2, "vectors": [[1, 0], [0, 1' + b"0" * 400 + b']]}',
    b'{"n": 2, "vectors": [[1, 0], [0, 1' + b"0" * 5000 + b']]}',
    b'\xff\xfe{"n": 2, "vectors": [[1, 0], [0, 1]]}',
], ids=["missing-keys", "vectors-int", "vectors-null", "n-bool",
        "int-past-float-range", "int-past-digit-limit", "not-utf8"])
def test_missing_keys_exit_2(tmp_path, raw):
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    code, _, err = run_cli(["analyze", str(path)])
    assert code == cli.EXIT_PARSE
    assert err.startswith("error: ")


@pytest.mark.parametrize("name, text", [
    ("nan.json", '{"n": 2, "vectors": [[1, 0], [0, NaN], [1, 1]]}'),
    ("nan.csv", "1,0\n0,nan\n1,1\n"),
    ("inf.json", '{"n": 2, "vectors": [[1, 0], [0, Infinity], [1, 1]]}'),
])
def test_non_finite_entry_exits_3(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    code, _, err = run_cli(["analyze", str(path)])
    assert code == cli.EXIT_NOT_A_FRAME
    assert err.startswith("error: ")


def test_csv_bad_entry_reports_location(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,0\n0,oops\n")
    with pytest.raises(fs.FrameFileError) as err:
        cli.load_frame_file(str(path))
    assert err.value.line == 2 and err.value.field == 2


def test_csv_parses_rows_as_vectors(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("1,0\n0,1\n0.5,0.5\n")
    ff = cli.load_frame_file(str(path))
    assert ff.n == 2 and len(ff.vectors) == 3


def test_rank_deficient_exits_3(tmp_path):
    path = tmp_path / "flat.json"
    path.write_text('{"n": 2, "vectors": [[1.0, 0.0], [2.0, 0.0]]}')
    code, _, err = run_cli(["analyze", str(path)])
    assert code == cli.EXIT_NOT_A_FRAME


def test_labels_must_match_vector_count(tmp_path):
    path = tmp_path / "lab.json"
    path.write_text('{"n": 2, "vectors": [[1, 0], [0, 1]], "labels": ["a"]}')
    code, _, _ = run_cli(["analyze", str(path)])
    assert code == cli.EXIT_PARSE


# --- subcommands ------------------------------------------------------------------

def test_analyze_mercedes(mercedes_file):
    code, out, _ = run_cli(["analyze", mercedes_file])
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["verdict"]["scalable"] and report["verdict"]["strict"]
    u = report["certificate"]["u"]
    assert max(abs(a - b) for a in u for b in u) <= 1e-9
    assert report["certificate"]["alpha"] == pytest.approx(0.5, abs=1e-12)
    assert report["frame_bounds"]["lower"] == pytest.approx(1.5, abs=1e-12)
    assert report["condition_number"]["after"] == pytest.approx(1.0, abs=1e-9)


def test_analyze_dimension_one(tmp_path):
    path = tmp_path / "line.json"
    path.write_text(json.dumps({"n": 1, "vectors": [[2.0], [-1.0], [3.0]]}))
    code, out, _ = run_cli(["analyze", str(path)])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"]["scalable"]
    assert report["verdict"]["scalability_index_upper_bound"] == 1


@pytest.mark.parametrize("mode", ["float", "exact"])
@pytest.mark.parametrize("command", ["analyze", "certify", "scale", "fmap",
                                     "subsets --m 1", "witness --eps 0.1"])
def test_every_command_on_dimension_one(tmp_path, command, mode):
    # On the line F maps to R^0 and every frame is scalable; a witness
    # needs M < N(N+1)/2 = 1 vectors, which no frame has.
    path = tmp_path / "line.json"
    path.write_text(json.dumps({"n": 1, "vectors": [[2.0], [-1.0], [3.0]]}))
    name, *flags = command.split()
    if name != "fmap":  # the only command here that reads no --mode
        flags += ["--mode", mode]
    code, out, err = run_cli([name, str(path), *flags])
    if name == "witness":
        assert code == cli.EXIT_HYPOTHESIS
        assert err.startswith("error: ") and not out
        return
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    if name == "fmap":
        assert doc["d"] == 0 and doc["columns"] == [[], [], []]
    elif name == "scale":
        assert doc["n"] == 1 and len(doc["vectors"]) == 3
    else:
        assert doc.get("scalable", doc.get("verdict", {}).get("scalable"))


def test_certify_quadrant_emits_separator(quadrant_file):
    code, out, _ = run_cli(["certify", quadrant_file])
    assert code == 0
    doc = json.loads(out)
    assert not doc["scalable"]
    assert doc["certificate"]["type"] == "separator"
    assert doc["certificate"]["margin"] > 0


def test_scale_parseval_zeroes_redundant_column(onb_plus_file):
    code, out, _ = run_cli(["scale", "--parseval", onb_plus_file])
    assert code == 0
    doc = json.loads(out)
    scaled = fs.build_frame(doc["n"], doc["vectors"])
    assert np.linalg.norm(scaled.gram_dual() - np.eye(2)) <= 1e-9
    np.testing.assert_allclose(doc["vectors"][2], [0.0, 0.0], atol=1e-12)


def test_scale_nonscalable_exits_4(quadrant_file):
    code, _, err = run_cli(["scale", quadrant_file])
    assert code == cli.EXIT_HYPOTHESIS


def test_fmap_emits_transform(onb_plus_file):
    code, out, _ = run_cli(["fmap", onb_plus_file])
    assert code == 0
    doc = json.loads(out)
    assert doc["d"] == 2
    np.testing.assert_allclose(doc["columns"],
                               [[1, 0], [-1, 0], [0, 0.5]], atol=1e-15)


def test_subsets_query(onb_plus_file):
    code, out, _ = run_cli(["subsets", onb_plus_file, "--m", "2",
                            "--strict"])
    assert code == 0
    doc = json.loads(out)
    assert doc["scalable"] and doc["witness"] == [0, 1]


def test_subsets_budget_exhausted_exits_5(tmp_path):
    rng = np.random.default_rng(1)
    from conftest import random_scalable_frame
    f = random_scalable_frame(rng, 2, 6)
    path = tmp_path / "f.json"
    path.write_text(json.dumps(
        {"n": 2, "vectors": [list(map(float, c)) for c in f.columns]}))
    code, _, err = run_cli(["subsets", str(path), "--m", "4", "--strict",
                            "--budget", "2"])
    assert code == cli.EXIT_BUDGET


def test_witness_emits_perturbed_frame(tmp_path):
    r = 1 / np.sqrt(3.0)
    path = tmp_path / "base.json"
    path.write_text(json.dumps({
        "n": 3,
        "vectors": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [r, r, r]],
    }))
    code, out, _ = run_cli(["witness", str(path), "--eps", "0.01",
                            "--seed", "5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["distance"] <= 0.01
    assert doc["separator"]["type"] == "separator"
    perturbed = fs.build_frame(doc["perturbed"]["n"],
                               doc["perturbed"]["vectors"])
    assert not fs.decide(perturbed).scalable


def test_witness_hypothesis_violation_exits_4(mercedes_file):
    code, _, err = run_cli(["witness", mercedes_file, "--eps", "0.01"])
    assert code == cli.EXIT_HYPOTHESIS


def test_random_roundtrip(tmp_path):
    out_path = tmp_path / "frame.json"
    code, _, _ = run_cli(["random", "--n", "3", "--m", "5", "--seed", "9",
                          "--out", str(out_path)])
    assert code == 0
    ff = cli.load_frame_file(str(out_path))
    frame = fs.build_frame(ff.n, ff.vectors)
    assert (frame.n, frame.m) == (3, 5)
    np.testing.assert_array_equal(frame.matrix,
                                  fs.random_frame(3, 5, seed=9).matrix)


def test_exact_mode_adds_rational_strings(mercedes_file, quadrant_file):
    code, out, _ = run_cli(["certify", mercedes_file, "--mode", "exact"])
    assert code == 0
    doc = json.loads(out)
    ratio = doc["certificate"]["u_rational"]
    assert len(ratio) == 3
    from fractions import Fraction
    total = sum(Fraction(s) for s in ratio)
    assert total == 1

    # The separator strings: h_rational has margin_rational, exactly,
    # against the rational transform of the file's vectors.
    code, out, _ = run_cli(["certify", quadrant_file, "--mode", "exact"])
    assert code == 0
    cert = json.loads(out)["certificate"]
    h = [Fraction(s) for s in cert["h_rational"]]
    margin = Fraction(cert["margin_rational"])
    vectors = cli.load_frame_file(quadrant_file).vectors
    products = [sum(hi * gi for hi, gi in zip(h, exact.f_vector_exact(x)))
                for x in exact.to_fractions(vectors)]
    assert min(products) == margin > 0


@pytest.mark.parametrize("command, target, error", [
    ("certify", "decide", fs.LPNumericalFailure),
    ("analyze", "decide", fs.Infeasible),
    ("analyze", "caratheodory_reduce", fs.NumericalStall),
    ("witness", "nonscalable_witness", fs.WitnessVerificationFailed),
])
def test_numerical_failure_exits_6(mercedes_file, monkeypatch, command,
                                   target, error):
    def fail(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(cli, target, fail)
    extra = ["--eps", "0.01"] if command == "witness" else []
    code, out, err = run_cli([command, mercedes_file] + extra)
    assert code == cli.EXIT_NUMERICAL
    assert out == ""
    assert err.startswith("error: ") and "injected" in err


def test_module_runs_as_script():
    proc = run_module("random", "--n", "2", "--m", "3", "--seed", "0")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["n"] == 2 and len(doc["vectors"]) == 3


# --- report properties ----------------------------------------------------------

def test_report_deterministic_modulo_timings(mercedes_file):
    _, out1, _ = run_cli(["analyze", mercedes_file, "--seed", "0"])
    _, out2, _ = run_cli(["analyze", mercedes_file, "--seed", "0"])
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("timings")
    d2.pop("timings")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_report_roundtrip_and_certificate_reverifies(mercedes_file,
                                                     quadrant_file):
    for path in (mercedes_file, quadrant_file):
        _, out, _ = run_cli(["analyze", path])
        report = json.loads(out)
        again = json.loads(json.dumps(report))
        assert again == report
        assert cli.verify_report(again)


def test_analyze_scale_tight_pipeline_closes(mercedes_file, tmp_path):
    _, out, _ = run_cli(["analyze", mercedes_file])
    report = json.loads(out)
    assert report["verdict"]["scalable"]
    scaled_path = tmp_path / "scaled.json"
    code, _, _ = run_cli(["scale", "--parseval", mercedes_file,
                          "--out", str(scaled_path)])
    assert code == 0
    doc = json.loads(scaled_path.read_text())
    scaled = fs.build_frame(doc["n"], doc["vectors"])
    tight = fs.is_tight(scaled, tol=1e-9)
    assert tight.tight and tight.alpha == pytest.approx(1.0, abs=1e-9)


def test_out_flag_writes_file(mercedes_file, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(["analyze", mercedes_file, "--out", str(target)])
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["schema"] == 1
