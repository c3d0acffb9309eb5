"""Source hygiene: every name a library module imports is used in it, every
import sits at module level, only ``product.py`` constructs a
``ProductPomdp``, only ``ltlf.py`` names the atom-name pattern, only
``files.py`` writes or reads artifact files, only ``pomdp.py`` imports
``hashlib``, the seed hash, or builds and positions Philox generators,
outside ``pomdp.py`` only ``planner.rollouts`` draws rollout heads and
mixture picks, only ``pbvi._successors`` tests observations for mass,
the body of ``pomdp.sample_trajectory`` names no ``np.`` attribute, the
body of ``planner.eg_solve`` names no solver function and reads no
``.stopping``, ``planner.py`` reaches the simulator and the
belief walk only through the module attributes perfbench's tracer patches,
and every public top-level function and class
is read somewhere in the package or the benchmark, or is listed in
``UNREAD_PUBLIC`` with its reason.

``__init__.py`` is exempt from the import check: its imports are the package's
re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ltlfplan"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """(bound name, line) for each import outside ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns


def used_names(tree):
    """Names read anywhere in the module, those in quoted annotations included."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return used


def test_library_modules_found():
    assert {"pomdp.py", "product.py", "planner.py", "cli.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{module} imports names it never uses: {', '.join(unused)}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import json, os.path\nfrom numpy import array, zeros\n\n"
                     "def f(x: 'os.PathLike') -> 'zeros':\n    return array(['json'])\n")
    used = used_names(tree)
    assert [name for name, _ in imported_names(tree) if name not in used] == ["json"]


def local_imports(tree):
    """Lines of imports inside a function or class body."""
    for scope in ast.walk(tree):
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for node in ast.walk(scope):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    yield node.lineno


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_imports_are_module_level(module):
    lines = sorted(set(local_imports(ast.parse((SRC / module).read_text(), filename=module))))
    assert not lines, f"{module} imports inside a function or class at lines {lines}"


def test_the_check_sees_a_local_import():
    tree = ast.parse("import os\n\ndef f():\n    import re\n    return re\n\n"
                     "class C:\n    def g(self):\n        from json import dumps\n")
    assert sorted(set(local_imports(tree))) == [4, 9]


def product_constructions(tree):
    """Lines that call ``ProductPomdp(...)``, by bare or dotted name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "ProductPomdp":
                yield node.lineno


def test_only_product_module_constructs_products():
    """A product is fixed by (base, dfa, pairs): build_product, prune_unreachable
    and product_from_dict are the only ways to make one."""
    calls = {path.name: lines for path in sorted(SRC.glob("*.py")) if path.name != "product.py"
             and (lines := list(product_constructions(ast.parse(path.read_text()))))}
    assert not calls, f"ProductPomdp( called outside product.py: {calls}"


def test_the_check_sees_a_product_construction():
    tree = ast.parse("from ltlfplan import product\nfrom ltlfplan.product import ProductPomdp\n"
                     "a = ProductPomdp(m, d, pairs)\nb = product.ProductPomdp(m, d, pairs)\n"
                     "c = isinstance(a, ProductPomdp)\n")
    assert list(product_constructions(tree)) == [3, 4]


def test_only_ltlf_module_names_the_atom_pattern():
    """Atom lists are checked by ltlf.check_atoms alone; other modules call it."""
    named = [path.name for path in sorted(SRC.glob("*.py"))
             if path.name != "ltlf.py" and "_IDENT_RE" in path.read_text()]
    assert not named, f"_IDENT_RE named outside ltlf.py: {named}"


FILE_FORMAT_CALLS = {("json", "dump"), ("json", "load"), ("csv", "DictWriter")}


def file_format_calls(tree):
    """Lines that call ``json.dump``, ``json.load`` or ``csv.DictWriter``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and isinstance(node.func.value, ast.Name) \
                and (node.func.value.id, node.func.attr) in FILE_FORMAT_CALLS:
            yield node.lineno


def test_only_files_module_writes_artifacts():
    """The artifact format is files.write_json, read_json and write_csv."""
    calls = {path.name: lines for path in sorted(SRC.glob("*.py")) if path.name != "files.py"
             and (lines := list(file_format_calls(ast.parse(path.read_text()))))}
    assert not calls, f"json.dump/json.load/csv.DictWriter called outside files.py: {calls}"


def test_the_check_sees_a_file_format_call():
    tree = ast.parse("import csv, json\njson.dump(doc, fh)\nprint(json.dumps(doc))\n"
                     "w = csv.DictWriter(fh, fieldnames=c)\njson.loads(text)\njson.load(fh)\n")
    assert list(file_format_calls(tree)) == [2, 4, 6]



def imported_modules(tree):
    """Top-level package of each import, relative ``from . import`` excluded."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.module.split(".")[0]


def test_only_pomdp_module_imports_hashlib():
    """Seeds are hashed in one place, pomdp.derive_seed."""
    importers = [path.name for path in sorted(SRC.glob("*.py")) if path.name != "pomdp.py"
                 and "hashlib" in imported_modules(ast.parse(path.read_text()))]
    assert not importers, f"hashlib imported outside pomdp.py: {importers}"


def test_the_check_sees_a_hashlib_import():
    tree = ast.parse("import hashlib as h\nfrom hashlib import blake2b\nimport os.path\n"
                     "from .pomdp import derive_seed\n")
    assert list(imported_modules(tree)) == ["hashlib", "hashlib", "os"]


def stream_addressing(tree):
    """Lines that call ``np.random.Philox(`` (by any dotted path ending in
    ``random.Philox``) or assign to a ``bit_generator.state``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "Philox" and isinstance(node.func.value, ast.Attribute) \
                and node.func.value.attr == "random":
            yield node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Attribute) and t.attr == "state"
                and isinstance(t.value, ast.Attribute) and t.value.attr == "bit_generator"
                for t in node.targets):
            yield node.lineno


def test_only_pomdp_module_addresses_streams():
    """Philox generators are built and positioned in one place, pomdp.py, so
    the rollout layout (RolloutCache.draw and .tail) has one home."""
    found = {path.name: lines for path in sorted(SRC.glob("*.py")) if path.name != "pomdp.py"
             and (lines := list(stream_addressing(ast.parse(path.read_text()))))}
    assert not found, f"Philox built or bit_generator.state set outside pomdp.py: {found}"


def test_the_check_sees_stream_addressing():
    tree = ast.parse("import numpy as np\ng = np.random.Philox(key=1)\n"
                     "rng.bit_generator.state = s\nnp.random.default_rng(1)\n"
                     "x = rng.bit_generator.state\nself._rng.bit_generator.state = s\n")
    assert sorted(stream_addressing(tree)) == [2, 3, 6]


def stream_reads(tree, home=None):
    """Lines that name ``.draw`` (``RolloutCache.draw``) or read
    ``_SELECT_STREAM`` (by name, attribute or import), outside the body of
    the function named ``home``."""
    inside = {id(node) for scope in ast.walk(tree)
              if isinstance(scope, ast.FunctionDef) and scope.name == home
              for node in ast.walk(scope)}
    for node in ast.walk(tree):
        if id(node) not in inside and (
                isinstance(node, ast.Attribute) and node.attr in ("draw", "_SELECT_STREAM")
                or isinstance(node, ast.Name) and node.id == "_SELECT_STREAM"
                and isinstance(node.ctx, ast.Load)
                or isinstance(node, ast.alias) and node.name == "_SELECT_STREAM"):
            yield node.lineno


def test_only_rollouts_draws_heads_and_picks():
    """Bulk head rows and mixture sampling have one home, planner.rollouts:
    outside pomdp.py no other code calls RolloutCache.draw or reads the
    selection stream's key."""
    found = {path.name: lines for path in sorted(SRC.glob("*.py")) if path.name != "pomdp.py"
             and (lines := sorted(set(stream_reads(
                 ast.parse(path.read_text()), "rollouts" if path.name == "planner.py" else None))))}
    assert not found, f"RolloutCache.draw or _SELECT_STREAM used outside planner.rollouts: {found}"


def test_the_check_sees_a_stream_read():
    tree = ast.parse("from .planner import _SELECT_STREAM as key\n_SELECT_STREAM = 7\n"
                     "def rollouts(cache):\n    return cache.draw(_SELECT_STREAM, 0, 1)\n"
                     "def other(cache):\n    return cache.draw(planner._SELECT_STREAM, 0, 1)\n"
                     "head = RolloutCache.draw\n")
    assert sorted(set(stream_reads(tree, "rollouts"))) == [1, 6, 7]
    assert sorted(set(stream_reads(tree))) == [1, 4, 6, 7]


def mass_tests(tree, home=None):
    """Lines that test observations for mass, a comparison ``... @ <model>.Z > ...``,
    outside the body of the function named ``home``."""
    inside = {id(node) for scope in ast.walk(tree)
              if isinstance(scope, ast.FunctionDef) and scope.name == home
              for node in ast.walk(scope)}
    for node in ast.walk(tree):
        if id(node) not in inside and isinstance(node, ast.Compare) \
                and isinstance(node.ops[0], ast.Gt) and isinstance(node.left, ast.BinOp) \
                and isinstance(node.left.op, ast.MatMult) \
                and isinstance(node.left.right, ast.Attribute) and node.left.right.attr == "Z":
            yield node.lineno


def test_only_successors_tests_observations_for_mass():
    """Every Bayes successor of a belief (each action, each observation with
    mass) comes from one place, pbvi._successors; exact_value_oracle, the
    independent reference, keeps its own step."""
    found = {path.name: lines for path in sorted(SRC.glob("*.py"))
             if (lines := sorted(set(mass_tests(
                 ast.parse(path.read_text()), "_successors" if path.name == "pbvi.py" else None))))}
    assert not found, f"observations tested for mass outside pbvi._successors: {found}"


def test_the_check_sees_a_mass_test():
    tree = ast.parse("def _successors(prod, b):\n    return np.nonzero(b @ prod.Z > 0)\n"
                     "def walk(prod, b):\n    live = b @ prod.Z > 0\n"
                     "    draw = b @ prod.Z\n    return (b @ model.Z > 1e-12), b @ prod.P > 0\n")
    assert sorted(set(mass_tests(tree, "_successors"))) == [4, 6]
    assert sorted(set(mass_tests(tree))) == [2, 4, 6]


def body_nodes(tree, function):
    """Every node in the body of the function named ``function``."""
    for scope in ast.walk(tree):
        if isinstance(scope, ast.FunctionDef) and scope.name == function:
            yield from (node for stmt in scope.body for node in ast.walk(stmt))


def numpy_attributes(tree, function):
    """Lines in the body of the function named ``function`` that name an
    attribute of ``np`` (a call such as ``np.array`` or a name such as ``np.int64``)."""
    for node in body_nodes(tree, function):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "np":
            yield node.lineno


def test_the_simulator_step_path_names_no_numpy():
    """pomdp.sample_trajectory records plain lists and returns them; a
    Trajectory builds its arrays only when they are read."""
    found = sorted(set(numpy_attributes(ast.parse((SRC / "pomdp.py").read_text()),
                                        "sample_trajectory")))
    assert not found, f"pomdp.sample_trajectory names an np. attribute at lines {found}"


def test_the_check_sees_a_numpy_attribute():
    tree = ast.parse("import numpy as np\n\ndef sample_trajectory(m, x: np.ndarray):\n"
                     "    rows = [m.random()]\n    return np.array(rows, dtype=np.int64)\n\n"
                     "def other():\n    return np.zeros(3)\n")
    assert sorted(set(numpy_attributes(tree, "sample_trajectory"))) == [5]
    assert sorted(set(numpy_attributes(tree, "other"))) == [8]


SOLVER_NAMES = {"solve_discounted", "solve_finite_horizon", "mdp_q_table", "start_bound",
                "start_value", "expand_beliefs_random_walk"}


def solver_reads(tree, function):
    """Lines in the body of the function named ``function`` that name a
    solver function of SOLVER_NAMES (bare or as an attribute) or read a
    ``.stopping`` attribute."""
    for node in body_nodes(tree, function):
        if isinstance(node, ast.Name) and node.id in SOLVER_NAMES \
                or isinstance(node, ast.Attribute) and node.attr in SOLVER_NAMES | {"stopping"}:
            yield node.lineno


def test_eg_solve_makes_one_solver_call():
    """planner.eg_solve is the paper's loop: solve (planner.solve_at, which
    holds the stopping rule, the belief walk and the warm starts), evaluate,
    update the multiplier."""
    found = sorted(set(solver_reads(ast.parse((SRC / "planner.py").read_text()), "eg_solve")))
    assert not found, f"planner.eg_solve names a solver function or .stopping at lines {found}"


def test_the_check_sees_a_solver_read():
    tree = ast.parse("def eg_solve(problem, cfg):\n    prod = problem.product\n"
                     "    if prod.stopping.kind == 'fixed':\n"
                     "        return solve_finite_horizon(prod, r, 3, cfg)\n"
                     "    walk = pbvi.expand_beliefs_random_walk\n"
                     "    return solve_at(prod, 1.0, 0.1, cfg), start_value\n\n"
                     "def solve_at(prod):\n    return mdp_q_table(prod, prod.stopping)\n")
    assert sorted(set(solver_reads(tree, "eg_solve"))) == [3, 4, 5, 6]
    assert sorted(set(solver_reads(tree, "solve_at"))) == [9]


# Functions perfbench/tracer.py patches on a module, so that the planner's
# calls of them are counted and timed: name -> the module they are patched on.
PATCHED = {"sample_trajectory": "product", "expand_beliefs_random_walk": "pbvi"}


def reaches(tree):
    """(line, reached as its patched module attribute) for each place that
    names a function of PATCHED: as ``module.name`` with the module it is
    patched on (True), or as a bare name, an import or an attribute of
    anything else (False)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in PATCHED:
            yield node.lineno, isinstance(node.value, ast.Name) \
                and node.value.id == PATCHED[node.attr]
        elif isinstance(node, ast.Name) and node.id in PATCHED \
                or isinstance(node, ast.alias) and node.name in PATCHED:
            yield node.lineno, False


def test_planner_calls_the_simulator_and_the_walk_where_they_are_patched():
    """planner.rollouts runs every rollout through product.sample_trajectory
    and planner.solve_at walks through pbvi.expand_beliefs_random_walk, the
    attributes the tracer patches; a name bound another way would escape it."""
    found = list(reaches(ast.parse((SRC / "planner.py").read_text())))
    bypass = sorted({line for line, patched in found if not patched})
    assert not bypass, f"planner.py reaches a patched function another way at lines {bypass}"
    assert sum(patched for _, patched in found) == len(PATCHED)


def test_the_check_sees_a_reach_past_the_patch():
    tree = ast.parse("from . import pbvi, pomdp, product\nfrom .pomdp import sample_trajectory\n"
                     "def rollouts(prod, policy):\n    yield sample_trajectory(prod, policy, 0)\n"
                     "    yield product.sample_trajectory(prod, policy, 0)\n"
                     "    yield pomdp.sample_trajectory(prod, policy, 0)\n"
                     "walk = pbvi.expand_beliefs_random_walk\n"
                     "from .pbvi import expand_beliefs_random_walk as walk\n")
    assert sorted(set(reaches(tree))) == [(2, False), (4, False), (5, True), (6, False),
                                          (7, True), (8, False)]


# Public top-level functions and classes that nothing in src/ltlfplan or
# perfbench/ reads, by reason; every other one must have a reader there.
UNREAD_PUBLIC = {
    "library entry points documented in README": {"load_dfa", "load_product", "progress",
                                                  "save_model"},
    "reference oracles": {"evaluate_trace", "exact_value_oracle", "satisfaction_table"},
    "test fixtures": {"RandomPolicy", "accepting_sink_instance", "coupling_suite"},
}
PERFBENCH = SRC.parents[1] / "perfbench"


def public_definitions(tree):
    """Names of the module's public top-level functions and classes."""
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]


def name_reads(tree):
    """(name, enclosing top-level definition or None) for each name read,
    bare or as an attribute."""
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield node.id, owner
            elif isinstance(node, ast.Attribute):
                yield node.attr, owner


def unread_definitions(library, others=()):
    """Sorted public top-level definitions of the ``library`` trees (file
    name -> tree) that no tree reads outside the definition's own body;
    ``others`` holds more (file name, tree) readers."""
    readers = {}
    for where, tree in [*library.items(), *others]:
        for name, owner in name_reads(tree):
            readers.setdefault(name, set()).add((where, owner))
    return sorted(name for where, tree in library.items() for name in public_definitions(tree)
                  if not readers.get(name, set()) - {(where, name)})


def test_every_public_definition_has_a_reader():
    """A public name kept only for the tests is a second spelling of a job
    the package does another way, unless it is listed with its reason."""
    library = {path.name: ast.parse(path.read_text())
               for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    benchmark = [(str(path), ast.parse(path.read_text()))
                 for path in sorted(PERFBENCH.rglob("*.py"))]
    unread = set(unread_definitions(library, benchmark))
    listed = set().union(*UNREAD_PUBLIC.values())
    assert not unread - listed, f"public names nothing reads: {sorted(unread - listed)}"
    assert not listed - unread, f"listed as unread, but read or gone: {sorted(listed - unread)}"


def test_the_check_sees_an_unlisted_unread_name():
    tree = ast.parse("def used():\n    return 1\n\ndef unused():\n    return used()\n\n"
                     "def recursive(n):\n    return recursive(n - 1)\n\n"
                     "class Thing:\n    pass\n\ndef _private():\n    return 0\n")
    reader = ast.parse("import m\n\ndef make():\n    return m.Thing()\n")
    assert unread_definitions({"m.py": tree}) == ["Thing", "recursive", "unused"]
    assert unread_definitions({"m.py": tree}, [("r.py", reader)]) == ["recursive", "unused"]
