"""Guards for code cuts.  The benchmark's tracer still finds every function
it wraps, so an API cut that removes a traced name fails here rather than
at ``--trace 1``; the package keeps no unused module-level import and
no private top-level definition that nothing references; only
``feasibility`` imports the LP engine ``simplex``; only ``exact`` builds
exact columns and F-images; one function starts
phase 2 from a basis; one function walks the candidate subsets of the
subset queries; README's command-line table lists the options each
command takes; and every committed
benchmark record ``BENCH_*.json`` covers every workload with
correct runs that report every end-to-end metric."""

import argparse
import ast
import importlib.util
import json
import pathlib
import re

import framescale as fs
import framescale.cli  # noqa: F401  (the tracer wraps cli functions too)

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
PACKAGE = ROOT / "src" / "framescale"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls(mercedes):
    tracing = load_tracing()
    decide = fs.feasibility.decide
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert fs.feasibility.decide is not decide
        fs.decide(mercedes)
    finally:
        tracer.uninstall()
    assert fs.feasibility.decide is decide and fs.decide is decide
    assert len(tracer.names) == sum(map(len, tracing.TRACED.values()))
    assert "feasibility.decide" in tracer.names and tracer.start


def parsed_modules():
    return {p.name: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(PACKAGE.glob("*.py"))}


def loaded_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)}


def test_no_unused_module_level_import():
    unused = []
    for name, tree in parsed_modules().items():
        if name == "__init__.py":  # its imports are the public API
            continue
        used = loaded_names(tree)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}: {bound}")
    assert not unused


def test_every_private_top_level_definition_is_referenced():
    modules = parsed_modules()
    referenced = set()
    for tree in modules.values():
        referenced |= loaded_names(tree)
        referenced |= {alias.name for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom)
                       for alias in node.names}
    unreferenced = []
    for name, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, ast.Assign):
                defined = [t.id for t in node.targets
                           if isinstance(t, ast.Name)]
            else:
                continue
            unreferenced += [f"{name}: {d}" for d in defined
                             if d.startswith("_") and not d.startswith("__")
                             and d not in referenced]
    assert not unreferenced


def test_only_feasibility_imports_the_lp_engine():
    importers = set()
    for name, tree in parsed_modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
                modules += [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            if any(m.split(".")[-1] == "simplex" for m in modules):
                importers.add(name)
    assert importers == {"feasibility.py"}


def test_only_exact_builds_exact_columns_and_images():
    # Every exact caller reads the integer columns and F-image that
    # exact.py builds (integer_columns, f_image_exact); no other module
    # names the column-wise Fraction builders.
    builders = {"to_fractions", "frame_to_fractions", "f_vector_exact"}
    users = set()
    for name, tree in parsed_modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                named = {alias.name for alias in node.names}
            elif isinstance(node, ast.Name):
                named = {node.id}
            elif isinstance(node, ast.Attribute):
                named = {node.attr}
            else:
                continue
            if named & builders:
                users.add(name)
    assert users == {"exact.py"}


def test_one_function_starts_phase_2_from_a_basis():
    # _solve_program(a, b, c, basis, route) runs phase 2 alone when it is
    # given a basis; (*_program(g), None, route) spreads (a, b, c).
    starters = []
    for name, tree in parsed_modules().items():
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for call in ast.walk(func):
                if not (isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Name)
                        and call.func.id == "_solve_program"):
                    continue
                spread = isinstance(call.args[0], ast.Starred)
                basis = [kw.value for kw in call.keywords
                         if kw.arg == "basis"]
                basis += call.args[1 if spread else 3:][:1]
                if not (isinstance(basis[0], ast.Constant)
                        and basis[0].value is None):
                    starters.append(f"{name}: {func.name}")
    assert starters == ["feasibility.py: _phase_2"]


def test_one_function_walks_the_candidate_subsets():
    # is_m_scalable and scalability_index share _SubsetSearch.walk, the
    # one function of subsets.py that calls combinations.
    tree = parsed_modules()["subsets.py"]
    walkers = [func.name for func in ast.walk(tree)
               if isinstance(func, ast.FunctionDef)
               for call in ast.walk(func)
               if isinstance(call, ast.Call)
               and isinstance(call.func, ast.Name)
               and call.func.id == "combinations"]
    assert walkers == ["walk"]


def test_readme_lists_the_options_of_each_command():
    # The table under "Command line" lists each command's options but
    # --out, which every command takes.
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    table = section.split("| command | options |\n", 1)[1].split("\n\n")[0]
    rows = [line.split("|") for line in table.splitlines()[1:]]
    listed = {row[1].strip(): [word for word in re.findall(r"`([^`]+)`",
                                                           row[2])
                               if word == "file" or word.startswith("--")]
              for row in rows}
    subparsers = next(a for a in fs.cli._build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    taken = {name: [a.option_strings[0] if a.option_strings else a.dest
                    for a in p._actions if a.dest not in ("help", "out")]
             for name, p in subparsers.choices.items()}
    assert listed == taken


def test_committed_bench_records_cover_every_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"]}
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        runs = json.loads(path.read_text(encoding="utf-8"))["runs"]
        assert {run["workload"] for run in runs} == workloads, path.name
        for run in runs:
            assert run["side"] in ("parent", "change"), path.name
            assert isinstance(run["seed"], int), path.name
            assert run["result"]["correct"] is True, (path.name, run)
            assert metrics <= set(run["result"]["metrics"]), (path.name, run)
