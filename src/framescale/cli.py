"""Command-line surface: frame files in, machine-readable reports out.

Frame files are JSON ``{"n": 2, "vectors": [[1, 0], [0, 1]]}`` (with an
optional ``labels`` list) or CSV with one vector per row; vectors are the
columns of the synthesis matrix.  Every report is JSON with sorted keys
and full double precision, so identical input, flags and seed produce
byte-identical output up to the ``timings`` field, which is excluded from
comparisons.

``run`` is the one runner.  It loads the frame file and builds the frame
(every command but ``random``), calls the command's handler, which
returns its document as a dict, and writes that document as JSON to
``--out`` or stdout.  Each command takes only the options it reads.
Reports are ``schema`` 2, whose ``flags`` record ``mode``, ``tol`` and
``seed``.  The boundary band of a float separator's margin is no option:
it is ``feasibility.DEFAULT_BOUNDARY_BAND``, as in ``decide``.

Exit codes: 0 success, 2 parse or format error (also an unreadable frame
file, an unwritable ``--out`` and an out-of-range option value), 3 not a
frame (also ``random`` with more dimensions than vectors), 4 operation
hypothesis violated, 5 enumeration budget exceeded (unknown), 6 numerical
failure (unknown).
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import (BudgetExceeded, DimensionMismatch, FrameFileError,
                     HypothesisViolated, Infeasible, LPNumericalFailure,
                     NotAFrame, NumericalStall, TooLarge,
                     WitnessVerificationFailed)
from .fmap import f_image, outer_dims
from .frames import (Frame, ScalingWeights, apply_scaling, build_frame,
                     frame_bounds, is_tight, make_weights)
from .feasibility import Separator, decide, separator_margin
from .subsets import caratheodory_reduce, is_m_scalable
from .topology import nonscalable_witness, random_frame

SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NOT_A_FRAME = 3
EXIT_HYPOTHESIS = 4
EXIT_BUDGET = 5
EXIT_NUMERICAL = 6


@dataclass(frozen=True)
class FrameFile:
    n: int
    vectors: list
    labels: list | None
    sha256: str
    path: str


def load_frame_file(path: str) -> FrameFile:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise FrameFileError(f"cannot read {path}: {e.strerror}") from None
    digest = hashlib.sha256(raw).hexdigest()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise FrameFileError(f"not UTF-8 text: {e.reason} at byte "
                             f"{e.start}") from None
    if path.endswith(".csv"):
        n, vectors = _parse_csv(text)
        labels = None
    else:
        n, vectors, labels = _parse_json(text)
    return FrameFile(n=n, vectors=vectors, labels=labels, sha256=digest,
                     path=path)


def _parse_json(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise FrameFileError(f"invalid JSON: {e.msg}", line=e.lineno) from e
    except ValueError as e:  # an integer literal past Python's digit limit
        raise FrameFileError(f"invalid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise FrameFileError("top level must be an object")
    if "n" not in doc or "vectors" not in doc:
        raise FrameFileError('missing required keys "n" and "vectors"')
    n = doc["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise FrameFileError('"n" must be a positive integer')
    if not isinstance(doc["vectors"], list):
        raise FrameFileError('"vectors" must be a list of vectors')
    vectors = []
    for i, vec in enumerate(doc["vectors"]):
        if not isinstance(vec, list) or len(vec) != n:
            raise FrameFileError(
                f"vector {i} must be a list of {n} numbers", field=i)
        row = []
        for j, v in enumerate(vec):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise FrameFileError(
                    f"vector {i} entry {j} is not a number", field=i)
            try:
                row.append(float(v))
            except OverflowError:  # an integer past the float range
                raise FrameFileError(f"vector {i} entry {j} is out of range",
                                     field=i) from None
        vectors.append(row)
    labels = doc.get("labels")
    if labels is not None:
        if (not isinstance(labels, list) or len(labels) != len(vectors)
                or not all(isinstance(s, str) for s in labels)):
            raise FrameFileError('"labels" must list one string per vector')
    return n, vectors, labels


def _parse_csv(text: str):
    vectors = []
    n = None
    for lineno, row in enumerate(csv.reader(io.StringIO(text)), start=1):
        if not row or all(not cell.strip() for cell in row):
            continue
        values = []
        for field, cell in enumerate(row, start=1):
            try:
                values.append(float(cell))
            except ValueError:
                raise FrameFileError("not a number", line=lineno,
                                     field=field) from None
        if n is None:
            n = len(values)
        elif len(values) != n:
            raise FrameFileError(
                f"row has {len(values)} entries, expected {n}", line=lineno)
        vectors.append(values)
    if not vectors:
        raise FrameFileError("no vectors found")
    return n, vectors


def _floats(arr) -> list:
    return [float(v) for v in np.asarray(arr).ravel()]


def _certificate_doc(cert, exact: bool) -> dict:
    if isinstance(cert, ScalingWeights):
        doc = {"type": "weights", "u": _floats(cert.u),
               "alpha": cert.alpha, "support": list(cert.support),
               "residual": cert.residual}
        if exact and cert.u_exact is not None:
            doc["u_rational"] = [str(v) for v in cert.u_exact]
            doc["alpha_rational"] = str(cert.alpha_exact)
        return doc
    if isinstance(cert, Separator):
        doc = {"type": "separator", "h": _floats(cert.h),
               "margin": cert.margin, "indices": list(cert.indices)}
        if exact and cert.h_exact is not None:
            doc["h_rational"] = [str(v) for v in cert.h_exact]
            doc["margin_rational"] = str(cert.margin_exact)
        return doc
    return {"type": "none"}


def _decide(args, frame: Frame):
    return decide(frame, mode=args.mode, tol_tight=args.tol)


def build_report(ff: FrameFile, frame: Frame, args) -> dict:
    started = time.perf_counter()
    bounds = frame_bounds(frame)
    tight = is_tight(frame, tol=args.tol)
    verdict = _decide(args, frame)
    dims = outer_dims(frame)
    cond_before = float(np.sqrt(bounds.upper / bounds.lower))
    cond_after = None
    index_bound = None
    if verdict.scalable:
        scaled = apply_scaling(frame, verdict.certificate)
        sb = frame_bounds(scaled)
        cond_after = float(np.sqrt(sb.upper / sb.lower))
        index_bound = len(
            caratheodory_reduce(frame, verdict.certificate).support)
    return {
        "schema": SCHEMA_VERSION,
        "tool": {"name": "framescale", "version": __version__},
        "input": {"path": ff.path, "sha256": ff.sha256, "n": frame.n,
                  "m": frame.m, "vectors": ff.vectors, "labels": ff.labels},
        "flags": {"mode": args.mode, "tol": args.tol, "seed": args.seed},
        "frame_bounds": {"lower": bounds.lower, "upper": bounds.upper},
        "tightness": {"tight": tight.tight, "residual": tight.residual,
                      "alpha": tight.alpha},
        "outer_span_dim": dims.linear_dim,
        "condition_number": {"before": cond_before, "after": cond_after},
        "verdict": {"scalable": verdict.scalable, "strict": verdict.strict,
                    "boundary_flag": verdict.boundary_flag,
                    "t_star": verdict.t_star, "s_star": verdict.s_star,
                    "resolved_by": verdict.resolved_by,
                    "spans": verdict.spans,
                    "support_size": verdict.support_size,
                    "scalability_index_upper_bound": index_bound},
        "certificate": _certificate_doc(verdict.certificate,
                                        args.mode == "exact"),
        "timings": {"total_s": time.perf_counter() - started},
    }


def verify_report(report: dict) -> bool:
    """Re-check the embedded certificate against the embedded frame."""
    frame = build_frame(report["input"]["n"], report["input"]["vectors"])
    cert = report["certificate"]
    tol = report["flags"]["tol"]
    if cert["type"] == "weights":
        w = make_weights(frame, np.array(cert["u"]), normalize=False)
        return w.residual <= tol * w.alpha
    if cert["type"] == "separator":
        g = f_image(frame).columns(cert["indices"])
        return bool(separator_margin(np.array(cert["h"]), g) > 0.0)
    return False


def _frame_doc(frame: Frame) -> dict:
    return {"n": frame.n,
            "vectors": [_floats(frame.column(k)) for k in range(frame.m)]}


def _cmd_analyze(args, ff: FrameFile, frame: Frame) -> dict:
    # Looks build_report up on each call, so that a wrapper installed
    # after the cached parser was built (perfbench's tracer) sees it.
    return build_report(ff, frame, args)


def _cmd_certify(args, ff: FrameFile, frame: Frame) -> dict:
    verdict = _decide(args, frame)
    return {
        "schema": SCHEMA_VERSION,
        "scalable": verdict.scalable,
        "strict": verdict.strict,
        "boundary_flag": verdict.boundary_flag,
        "resolved_by": verdict.resolved_by,
        "certificate": _certificate_doc(verdict.certificate,
                                        args.mode == "exact"),
    }


def _cmd_scale(args, ff: FrameFile, frame: Frame) -> dict:
    verdict = _decide(args, frame)
    if not verdict.scalable:
        raise HypothesisViolated("frame is not scalable; nothing to scale")
    return _frame_doc(apply_scaling(frame, verdict.certificate,
                                    parseval=args.parseval))


def _cmd_fmap(args, ff: FrameFile, frame: Frame) -> dict:
    fi = f_image(frame)
    return {"schema": SCHEMA_VERSION, "n": frame.n, "m": frame.m, "d": fi.d,
            "columns": [_floats(fi.matrix[:, k]) for k in range(frame.m)]}


def _cmd_subsets(args, ff: FrameFile, frame: Frame) -> dict:
    result = is_m_scalable(frame, args.m, strict=args.strict,
                           budget=args.budget, mode=args.mode)
    return {
        "schema": SCHEMA_VERSION,
        "m": result.m,
        "strict_requested": args.strict,
        "scalable": result.scalable,
        "strict": result.strict,
        "witness": list(result.witness) if result.witness else None,
        "weights": (_certificate_doc(result.weights, args.mode == "exact")
                    if result.weights else None),
    }


def _cmd_witness(args, ff: FrameFile, frame: Frame) -> dict:
    witness = nonscalable_witness(frame, args.eps, seed=args.seed,
                                  mode=args.mode)
    return {
        "schema": SCHEMA_VERSION,
        "epsilon": args.eps,
        "seed": args.seed,
        "column": witness.column,
        "delta": witness.delta,
        "direction": _floats(witness.direction),
        "distance": witness.distance,
        "perturbed": _frame_doc(witness.perturbed),
        "separator": _certificate_doc(witness.verdict.certificate,
                                      args.mode == "exact"),
    }


def _cmd_random(args, ff, frame) -> dict:
    if args.n > args.m:
        raise NotAFrame(f"{args.m} vectors cannot span R^{args.n}")
    return _frame_doc(random_frame(args.n, args.m, seed=args.seed))


@functools.cache  # parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    def at_least(least: int):
        def integer(text: str) -> int:
            value = int(text)
            if value < least:
                raise argparse.ArgumentTypeError(
                    f"must be at least {least}, got {text}")
            return value
        return integer

    def positive_float(text: str) -> float:
        value = float(text)
        if not 0 < value < math.inf:  # also refuses nan
            raise argparse.ArgumentTypeError(
                f"must be positive and finite, got {text}")
        return value

    options = {
        "file": {"help": "frame file (.json or .csv)"},
        "--mode": {"choices": ("float", "exact"), "default": "float"},
        "--tol": {"type": positive_float, "default": 1e-9,
                  "help": "relative tightness tolerance"},
        "--seed": {"type": at_least(0), "default": 0},
        "--parseval": {"action": "store_true",
                       "help": "normalize so the tight constant is 1"},
        "--m": {"type": int, "required": True},
        "--strict": {"action": "store_true"},
        "--budget": {"type": at_least(0), "default": 10 ** 6},
        "--eps": {"type": positive_float, "required": True,
                  "help": "perturbation radius"},
        "--n": {"type": at_least(1), "required": True},
        "--out": {"help": "write the report to this path"},
    }
    parser = argparse.ArgumentParser(
        prog="framescale",
        description="Decide tight-frame rescalability with certificates.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, names in (
            ("analyze", _cmd_analyze, "full scalability report",
             "file --mode --tol --seed"),
            ("certify", _cmd_certify, "certificate only",
             "file --mode --tol"),
            ("scale", _cmd_scale, "emit the rescaled frame",
             "file --mode --tol --parseval"),
            ("fmap", _cmd_fmap, "emit the transformed columns", "file"),
            ("subsets", _cmd_subsets, "m-scalability query",
             "file --mode --m --strict --budget"),
            ("witness", _cmd_witness, "non-scalable perturbation witness",
             "file --mode --eps --seed"),
            ("random", _cmd_random, "generate a seeded frame file",
             "--n --m --seed")):
        p = sub.add_parser(name, help=help_text)
        for option in names.split() + ["--out"]:
            p.add_argument(option, **options[option])
        p.set_defaults(handler=handler)
    return parser


def run(argv, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    args = _build_parser().parse_args(argv)
    try:
        ff = frame = None
        if args.command != "random":
            ff = load_frame_file(args.file)
            frame = build_frame(ff.n, ff.vectors)
        text = json.dumps(args.handler(args, ff, frame), sort_keys=True,
                          indent=2) + "\n"
    except FrameFileError as e:
        stderr.write(f"error: {e}\n")
        return EXIT_PARSE
    except (NotAFrame, DimensionMismatch) as e:
        stderr.write(f"error: {e}\n")
        return EXIT_NOT_A_FRAME
    except HypothesisViolated as e:
        stderr.write(f"error: {e}\n")
        return EXIT_HYPOTHESIS
    except (BudgetExceeded, TooLarge) as e:
        stderr.write(f"error: {e}\n")
        return EXIT_BUDGET
    except (LPNumericalFailure, Infeasible, NumericalStall,
            WitnessVerificationFailed) as e:
        stderr.write(f"error: numerical failure, result unknown: {e}\n")
        return EXIT_NUMERICAL
    if not args.out:
        stdout.write(text)
        return EXIT_OK
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        stderr.write(f"error: cannot write {args.out}: {e.strerror}\n")
        return EXIT_PARSE
    return EXIT_OK


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
