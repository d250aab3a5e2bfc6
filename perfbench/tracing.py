"""Spans around the public functions of each framescale layer.

``Tracer.install`` replaces each traced function, in every framescale
module that holds it, by a wrapper that records one span per call: the
layer function's name, start, end and the span that was open when it was
called (its parent).  Patching every module that holds the function
catches calls through the name the caller looks up, e.g. the ``f_image``
that ``framescale.feasibility`` imported by name.  Spans stay in memory
until ``write`` is called.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

import numpy as np

# layer module -> public functions whose calls are recorded
TRACED = {
    "simplex": ("solve_lp", "solve_lp_exact"),
    "fmap": ("f_image",),
    "feasibility": ("decide", "separator_search", "weight_recovery",
                    "exact_oracle"),
    "frames": ("make_weights", "numerical_rank"),
    "exact": ("f_vector_exact", "rank_exact", "polytope_vertices"),
    "subsets": ("scalability_index", "caratheodory_reduce",
                "orthogonal_subbasis"),
    "cli": ("run", "load_frame_file", "build_report"),
}


def _lp_cells(args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    rows, cols = np.shape(a)
    return rows * cols


def _scalable(args, kwargs, result):
    return 1 if result.scalable else 0


# Per-span numbers recorded from the call: rows x cols of the constraint
# matrix for solve_lp, and the verdict for decide.
NOTES = {"simplex.solve_lp": _lp_cells, "feasibility.decide": _scalable}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.note: list = []
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name_of.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.note.append(None)
            self.end.append(0.0)
            self._stack.append(sid)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = perf_counter()
                self._stack.pop()
            if note is not None:
                self.note[sid] = note(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "framescale" or key.startswith("framescale.")]
        for layer, funcs in TRACED.items():
            home = sys.modules[f"framescale.{layer}"]
            for fname in funcs:
                fn = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    def write(self, path) -> None:
        spans = [[self.name_of[i], self.parent[i], self.start[i], self.end[i],
                  self.note[i]] for i in range(len(self.start))]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "parent", "start", "end", "note"],
                       "spans": spans}, fh, separators=(",", ":"))

    def layer_metrics(self, top_calls: int) -> dict:
        """Per-layer metrics, each per top-level call of the workload."""
        count = np.zeros(len(self.names))
        total = np.zeros(len(self.names))
        child = np.zeros(len(self.start))
        dur = np.array(self.end) - np.array(self.start)
        ids = np.array(self.name_of, dtype=int)
        parent = np.array(self.parent, dtype=int)
        if len(ids):
            np.add.at(count, ids, 1)
            np.add.at(total, ids, dur)
            has = parent >= 0
            np.add.at(child, parent[has], dur[has])
        nid = {name: i for i, name in enumerate(self.names)}

        def calls(name):
            return float(count[nid[name]])

        def secs(name):
            return float(total[nid[name]])

        def self_secs(name):
            mask = ids == nid[name]
            return float(np.sum(dur[mask] - child[mask]))

        search = ids == nid["subsets.scalability_index"]
        in_search = (ids == nid["feasibility.decide"]) & (parent >= 0)
        in_search[in_search] = search[parent[in_search]]
        tried = int(np.sum(in_search))
        accepted = sum(self.note[i] for i in np.flatnonzero(in_search)
                       if self.note[i] is not None)
        cells = sum(self.note[i] for i in np.flatnonzero(
            ids == nid["simplex.solve_lp"]) if self.note[i] is not None)
        searches = int(np.sum(search))
        per = 1.0 / max(top_calls, 1)
        decides = calls("feasibility.decide")
        c, s = "count/call", "s/call"
        return {
            "simplex.solve_lp.calls": (calls("simplex.solve_lp") * per, c),
            "simplex.solve_lp.s": (secs("simplex.solve_lp") * per, s),
            "simplex.solve_lp.cells": (cells * per, "cells/call"),
            "simplex.solve_lp_exact.calls":
                (calls("simplex.solve_lp_exact") * per, c),
            "simplex.solve_lp_exact.s":
                (secs("simplex.solve_lp_exact") * per, s),
            "fmap.f_image.calls": (calls("fmap.f_image") * per, c),
            "fmap.f_image.s": (secs("fmap.f_image") * per, s),
            "feasibility.decide.calls": (decides * per, c),
            "feasibility.decide.self_s":
                (self_secs("feasibility.decide") * per, s),
            "feasibility.separator_search.s":
                (secs("feasibility.separator_search") * per, s),
            "feasibility.weight_recovery.calls":
                (calls("feasibility.weight_recovery") * per, c),
            "feasibility.weight_recovery.s":
                (secs("feasibility.weight_recovery") * per, s),
            "feasibility.exact_oracle.calls":
                (calls("feasibility.exact_oracle") * per, c),
            "feasibility.lp_per_decide":
                (calls("simplex.solve_lp") / decides if decides else 0.0,
                 "ratio"),
            "frames.make_weights.calls": (calls("frames.make_weights") * per, c),
            "frames.make_weights.s": (secs("frames.make_weights") * per, s),
            "frames.numerical_rank.calls":
                (calls("frames.numerical_rank") * per, c),
            "frames.numerical_rank.s": (secs("frames.numerical_rank") * per, s),
            "exact.f_vector_exact.s": (secs("exact.f_vector_exact") * per, s),
            "exact.rank_exact.s": (secs("exact.rank_exact") * per, s),
            "exact.polytope_vertices.calls":
                (calls("exact.polytope_vertices") * per, c),
            "subsets.subsets_tried":
                (tried / searches if searches else 0.0, "count/search"),
            "subsets.accept_ratio":
                (accepted / tried if tried else 0.0, "ratio"),
            "subsets.caratheodory_reduce.s":
                (secs("subsets.caratheodory_reduce") * per, s),
            "subsets.orthogonal_subbasis.s":
                (secs("subsets.orthogonal_subbasis") * per, s),
            "cli.load_frame_file.s": (secs("cli.load_frame_file") * per, s),
            "cli.build_report.s": (secs("cli.build_report") * per, s),
            "cli.run.self_s": (self_secs("cli.run") * per, s),
        }
