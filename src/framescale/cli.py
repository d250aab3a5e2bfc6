"""Command-line surface: frame files in, machine-readable reports out.

Frame files are JSON ``{"n": 2, "vectors": [[1, 0], [0, 1]]}`` (with an
optional ``labels`` list) or CSV with one vector per row; vectors are the
columns of the synthesis matrix.  Every report is JSON with sorted keys
and full double precision, so identical input, flags and seed produce
byte-identical output up to the ``timings`` field, which is excluded from
comparisons.

Exit codes: 0 success, 2 parse or format error, 3 not a frame,
4 operation hypothesis violated, 5 enumeration budget exceeded (unknown),
6 numerical failure (unknown).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
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
from .feasibility import Separator, decide
from .subsets import caratheodory_reduce, is_m_scalable
from .topology import nonscalable_witness, random_frame

SCHEMA_VERSION = 1

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
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    text = raw.decode("utf-8")
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
    if not isinstance(doc, dict):
        raise FrameFileError("top level must be an object")
    if "n" not in doc or "vectors" not in doc:
        raise FrameFileError('missing required keys "n" and "vectors"')
    n = doc["n"]
    if not isinstance(n, int) or n < 1:
        raise FrameFileError('"n" must be a positive integer')
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
            row.append(float(v))
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


def _frame_from_file(ff: FrameFile) -> Frame:
    return build_frame(ff.n, ff.vectors)


def _floats(arr) -> list:
    return [float(v) for v in np.asarray(arr).ravel()]


def _vectors(frame: Frame) -> list:
    return [_floats(frame.column(k)) for k in range(frame.m)]


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


def build_report(ff: FrameFile, frame: Frame, args) -> dict:
    started = time.perf_counter()
    bounds = frame_bounds(frame)
    tight = is_tight(frame, tol=args.tol)
    verdict = decide(frame, mode=args.mode, band=args.band,
                     tol_tight=args.tol)
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
    report = {
        "schema": SCHEMA_VERSION,
        "tool": {"name": "framescale", "version": __version__},
        "input": {"path": ff.path, "sha256": ff.sha256, "n": frame.n,
                  "m": frame.m, "vectors": ff.vectors, "labels": ff.labels},
        "flags": {"mode": args.mode, "tol": args.tol, "band": args.band,
                  "seed": args.seed},
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
    return report


def verify_report(report: dict) -> bool:
    """Re-check the embedded certificate against the embedded frame."""
    frame = build_frame(report["input"]["n"], report["input"]["vectors"])
    cert = report["certificate"]
    tol = report["flags"]["tol"]
    if cert["type"] == "weights":
        w = make_weights(frame, np.array(cert["u"]), normalize=False)
        return w.residual <= tol * w.alpha
    if cert["type"] == "separator":
        h = np.array(cert["h"])
        g = f_image(frame).columns(cert["indices"])
        margin = float(np.min(h @ g) / np.max(np.abs(h)))
        return margin > 0.0
    return False


def _dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _emit(text: str, args, stdout) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        stdout.write(text)


def _frame_doc(frame: Frame) -> dict:
    return {"n": frame.n, "vectors": _vectors(frame)}


def _cmd_analyze(args, stdout) -> int:
    ff = load_frame_file(args.file)
    frame = _frame_from_file(ff)
    report = build_report(ff, frame, args)
    _emit(_dump(report), args, stdout)
    return EXIT_OK


def _cmd_certify(args, stdout) -> int:
    ff = load_frame_file(args.file)
    frame = _frame_from_file(ff)
    verdict = decide(frame, mode=args.mode, band=args.band,
                     tol_tight=args.tol)
    doc = {
        "schema": SCHEMA_VERSION,
        "scalable": verdict.scalable,
        "strict": verdict.strict,
        "boundary_flag": verdict.boundary_flag,
        "resolved_by": verdict.resolved_by,
        "certificate": _certificate_doc(verdict.certificate,
                                        args.mode == "exact"),
    }
    _emit(_dump(doc), args, stdout)
    return EXIT_OK


def _cmd_scale(args, stdout) -> int:
    ff = load_frame_file(args.file)
    frame = _frame_from_file(ff)
    verdict = decide(frame, mode=args.mode, band=args.band,
                     tol_tight=args.tol)
    if not verdict.scalable:
        raise HypothesisViolated("frame is not scalable; nothing to scale")
    scaled = apply_scaling(frame, verdict.certificate,
                           parseval=args.parseval)
    _emit(_dump(_frame_doc(scaled)), args, stdout)
    return EXIT_OK


def _cmd_fmap(args, stdout) -> int:
    ff = load_frame_file(args.file)
    frame = _frame_from_file(ff)
    fi = f_image(frame)
    doc = {"schema": SCHEMA_VERSION, "n": frame.n, "m": frame.m, "d": fi.d,
           "columns": [_floats(fi.matrix[:, k]) for k in range(frame.m)]}
    _emit(_dump(doc), args, stdout)
    return EXIT_OK


def _cmd_subsets(args, stdout) -> int:
    ff = load_frame_file(args.file)
    frame = _frame_from_file(ff)
    result = is_m_scalable(frame, args.m, strict=args.strict,
                           budget=args.budget, mode=args.mode)
    doc = {
        "schema": SCHEMA_VERSION,
        "m": result.m,
        "strict_requested": args.strict,
        "scalable": result.scalable,
        "strict": result.strict,
        "witness": list(result.witness) if result.witness else None,
        "weights": (_certificate_doc(result.weights, args.mode == "exact")
                    if result.weights else None),
    }
    _emit(_dump(doc), args, stdout)
    return EXIT_OK


def _cmd_witness(args, stdout) -> int:
    ff = load_frame_file(args.file)
    frame = _frame_from_file(ff)
    witness = nonscalable_witness(frame, args.eps, seed=args.seed,
                                  mode=args.mode)
    doc = {
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
    _emit(_dump(doc), args, stdout)
    return EXIT_OK


def _cmd_random(args, stdout) -> int:
    frame = random_frame(args.n, args.m, seed=args.seed)
    _emit(_dump(_frame_doc(frame)), args, stdout)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framescale",
        description="Decide tight-frame rescalability with certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_file=True):
        if needs_file:
            p.add_argument("file", help="frame file (.json or .csv)")
        p.add_argument("--mode", choices=("float", "exact"), default="float")
        p.add_argument("--tol", type=float, default=1e-9,
                       help="relative tightness tolerance")
        p.add_argument("--band", type=float, default=1e-9,
                       help="a float separator whose margin is at most "
                            "this is a boundary case")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="write the report to this path")

    p = sub.add_parser("analyze", help="full scalability report")
    common(p)
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("certify", help="certificate only")
    common(p)
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser("scale", help="emit the rescaled frame")
    common(p)
    p.add_argument("--parseval", action="store_true",
                   help="normalize so the tight constant is 1")
    p.set_defaults(handler=_cmd_scale)

    p = sub.add_parser("fmap", help="emit the transformed columns")
    common(p)
    p.set_defaults(handler=_cmd_fmap)

    p = sub.add_parser("subsets", help="m-scalability query")
    common(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--budget", type=int, default=10 ** 6)
    p.set_defaults(handler=_cmd_subsets)

    p = sub.add_parser("witness", help="non-scalable perturbation witness")
    common(p)
    p.add_argument("--eps", type=float, required=True,
                   help="perturbation radius")
    p.set_defaults(handler=_cmd_witness)

    p = sub.add_parser("random", help="generate a seeded frame file")
    common(p, needs_file=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(handler=_cmd_random)

    return parser


def run(argv, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, stdout)
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


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
