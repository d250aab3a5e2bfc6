"""The three workloads: inputs, the timed call, and the checks on its output.

Each workload builds its inputs from the seed in ``prepare`` (the set-up),
hands out the operations of round ``r`` in ``round_ops``, makes one
top-level framescale call per operation in ``call``, and checks each
output with the benchmark's own computations in ``check``.  Every round
holds the same kinds of operation in the same order, so the share of
operations that fail does not depend on the seed or on how many rounds
a run completes.
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

import framescale as fs
from framescale import cli

import checks
import inputs


@dataclass
class Op:
    label: str            # kind of input, named in failure reports
    mat: np.ndarray       # N x M frame matrix, for the checks
    arg: object           # what the program is given: a Frame or a path
    info: dict = field(default_factory=dict)


def _frame(mat: np.ndarray):
    return fs.build_frame(mat.shape[0], mat.T)


def _check_verdict_certificate(mat, scalable, strict, cert_u, cert_h,
                               indices) -> str | None:
    if scalable:
        return checks.check_weights(mat, cert_u, strict=strict)
    if tuple(indices) != tuple(range(mat.shape[1])):
        return f"separator tested columns {tuple(indices)}, not all"
    return checks.check_separator(mat, cert_h, indices)


class DecideLarge:
    """Float ``decide`` on 10 x 60 frames, half scalable by construction
    and half Gaussian, plus one fixed frame that hits the strict-weight-LP
    fault in every round."""

    name = "decide-large"
    n, m = 10, 60
    blocks = 10       # distinct blocks of frames; round r uses r % blocks
    per_kind = 4      # frames of each kind per block
    fault_seed = 13   # tight_then_rescale(default_rng(13), 10, 60)
    setup_reps = 1    # the set-up decides every frame once; see README

    def prepare(self, seed: int, outdir: str):
        rng = np.random.default_rng(seed)
        blocks = []
        replaced = 0
        for _ in range(self.blocks):
            ops = []
            for _ in range(self.per_kind):
                for label, make in (("planted", inputs.tight_then_rescale),
                                    ("gaussian", inputs.gaussian)):
                    # Draws on which decide raises are replaced: they fail
                    # on some seeds only, so they cannot be kept steady.
                    while True:
                        mat = make(rng, self.n, self.m)
                        frame = _frame(mat)
                        try:
                            fs.decide(frame)
                            break
                        except fs.FrameScaleError:
                            replaced += 1
                    ops.append(Op(label, mat, frame))
            blocks.append(ops)
        mat = inputs.tight_then_rescale(
            np.random.default_rng(self.fault_seed), self.n, self.m)
        fault = Op("fault-strict-lp", mat, _frame(mat))
        try:
            fs.decide(fault.arg)
        except fs.FrameScaleError:
            pass
        return {"blocks": blocks, "fault": fault, "replaced": replaced}

    def round_ops(self, state, r: int) -> list:
        return [state["fault"]] + state["blocks"][r % self.blocks]

    def call(self, op: Op):
        return fs.decide(op.arg)

    def digest(self, out):
        return out

    def scalable(self, v) -> bool:
        return v.scalable

    def check(self, op: Op, v) -> str | None:
        if op.label == "planted" and not v.scalable:
            return "frame scalable by construction decided not scalable"
        cert = v.certificate
        return _check_verdict_certificate(
            op.mat, v.scalable, v.strict,
            getattr(cert, "u", None), getattr(cert, "h", None),
            getattr(cert, "indices", ()))

    def final_checks(self, state, records) -> list:
        return []


class IndexSearch:
    """``scalability_index`` on 4 x 13 frames: Gaussian scalable by
    construction (index generically 10), planted scalable s-subframes, and
    frames that are not scalable by construction.

    A round holds three Gaussian scalable frames between a cheaper planted
    frame (s = 5) and a dearer one (s = 7), so the median over scalable
    calls sits in the middle of the Gaussian cluster rather than between
    two clusters of cost."""

    name = "index-search"
    n, m = 4, 13
    kinds = ("planted5", "tight", "tight", "tight", "planted7") + \
        ("cone",) * 20
    pool = 8          # distinct rounds of frames; round r uses r % pool
    setup_reps = 3

    def _make(self, rng, label):
        if label == "tight":
            return inputs.tight_then_rescale(rng, self.n, self.m), {}
        if label.startswith("planted"):
            s = int(label[len("planted"):])
            return inputs.planted(rng, self.n, self.m, s), {"s": s}
        return inputs.cone_gaussian(rng, self.n, self.m)[0], {}

    def _screen(self, frame, info) -> None:
        """The decides of the search that can reach the weight LPs: the
        whole frame and, on a planted frame, the leading-column subsets
        the search accepts."""
        fs.decide(frame)
        for k in range(info.get("s", 10), 10):
            fs.decide(frame, range(k))

    def prepare(self, seed: int, outdir: str):
        rng = np.random.default_rng(seed)
        rounds = []
        replaced = 0
        for _ in range(self.pool):
            ops = []
            for label in self.kinds:
                # As in decide-large, draws on which those decides raise
                # (about 1 planted frame in 750) are replaced.
                while True:
                    mat, info = self._make(rng, label)
                    frame = _frame(mat)
                    try:
                        self._screen(frame, info)
                        break
                    except fs.FrameScaleError:
                        replaced += 1
                ops.append(Op(label, mat, frame, info))
            rounds.append(ops)
        for op in rounds[0][:2] + rounds[0][-1:]:  # planted5, tight, cone
            fs.scalability_index(op.arg)
        return {"rounds": rounds, "replaced": replaced}

    def round_ops(self, state, r: int) -> list:
        return state["rounds"][r % self.pool]

    def call(self, op: Op):
        return fs.scalability_index(op.arg)

    def digest(self, out):
        return out

    def scalable(self, res) -> bool:
        return not res.not_scalable

    def check(self, op: Op, res) -> str | None:
        if op.label == "cone":
            if not res.not_scalable:
                return "frame not scalable by construction reported scalable"
            return None
        if res.not_scalable or res.index is None:
            return "frame scalable by construction reported not scalable"
        if res.unknown_below is not None:
            return f"search stopped by its budget at size {res.unknown_below}"
        n = self.n
        if not n <= res.index <= n * (n + 1) // 2:
            return f"index {res.index} outside [{n}, {n * (n + 1) // 2}]"
        if "s" in op.info and res.index > op.info["s"]:
            return f"index {res.index} above the planted size {op.info['s']}"
        if len(res.witness) != res.index:
            return f"witness has {len(res.witness)} columns, index {res.index}"
        return checks.check_weights(op.mat, res.weights.u,
                                    support=res.witness)

    def final_checks(self, state, records) -> list:
        """HiGHS re-decides every subset one column smaller than the index
        reported for the first Gaussian scalable frame."""
        target = state["rounds"][0][1]
        res = next((rec.out for rec in records
                    if rec.op is target and rec.err is None), None)
        if res is None or res.index is None:
            return []
        try:
            err = checks.check_index_minimal(target.mat, res.index)
        except ImportError:
            print("note: scipy is not importable; the HiGHS minimality "
                  "check was skipped")
            return []
        return [f"{target.label}: {err}"] if err else []


class AnalyzeExact:
    """``framescale analyze --mode exact`` in process, on 3 x 6..8 frame
    files: half scalable by construction, half not scalable by
    construction."""

    name = "analyze-exact"
    n = 3
    sizes = (6, 7, 8)
    blocks = 96       # distinct blocks of files; round r uses r % blocks
    setup_reps = 3

    def prepare(self, seed: int, outdir: str):
        rng = np.random.default_rng(seed)
        blocks = []
        for b in range(self.blocks):
            ops = []
            for m in self.sizes:
                for label in ("planted", "cone"):
                    if label == "planted":
                        mat = inputs.tight_then_rescale(rng, self.n, m)
                    else:
                        mat = inputs.cone_gaussian(rng, self.n, m)[0]
                    path = os.path.join(outdir, f"b{b}-{label}{m}.json")
                    with open(path, "w", encoding="utf-8") as fh:
                        json.dump({"n": self.n, "vectors": mat.T.tolist()},
                                  fh)
                    ops.append(Op(f"{label}{m}", mat, path))
            blocks.append(ops)
        for op in blocks[0]:
            self.call(op)
        return {"blocks": blocks}

    def round_ops(self, state, r: int) -> list:
        return state["blocks"][r % self.blocks]

    def call(self, op: Op):
        out, err = io.StringIO(), io.StringIO()
        code = cli.run(["analyze", op.arg, "--mode", "exact"],
                       stdout=out, stderr=err)
        return code, out.getvalue(), err.getvalue()

    def digest(self, out):
        code, text, err = out
        return {"code": code, "stderr": err,
                "report": json.loads(text) if code == 0 else None}

    def scalable(self, doc) -> bool:
        return bool(doc["report"] and doc["report"]["verdict"]["scalable"])

    def check(self, op: Op, doc) -> str | None:
        if doc["code"] != 0:
            return f"exit code {doc['code']}: {doc['stderr'].strip()}"
        verdict = doc["report"]["verdict"]
        cert = doc["report"]["certificate"]
        if verdict["scalable"] != op.label.startswith("planted"):
            return f"verdict scalable={verdict['scalable']} contradicts " \
                   "the construction"
        vectors = op.mat.T.tolist()
        if cert["type"] == "weights":
            if "u_rational" not in cert:
                return "exact weights carry no rational strings"
            err = checks.check_weights_exact(vectors, cert["u_rational"],
                                             cert["alpha_rational"])
        elif cert["type"] == "separator":
            if "h_rational" not in cert:
                return "exact separator carries no rational strings"
            if cert["indices"] != list(range(op.mat.shape[1])):
                return f"separator tested columns {cert['indices']}, not all"
            err = checks.check_separator_exact(vectors, cert["h_rational"],
                                               cert["indices"])
        else:
            return f"certificate of type {cert['type']!r}"
        return err or _check_verdict_certificate(
            op.mat, verdict["scalable"], verdict["strict"], cert.get("u"),
            cert.get("h"), cert.get("indices", range(op.mat.shape[1])))

    def final_checks(self, state, records) -> list:
        return []


WORKLOADS = {w.name: w for w in (DecideLarge(), IndexSearch(), AnalyzeExact())}
