"""What importing tilealg loads: never numpy or `dataclasses` (with the
inspect, ast, dis and tokenize modules it pulls in), and each CLI
subcommand only the layers it runs; the lazy package root still offers
every public name.

The pytest process has every layer loaded already, so the load checks
run in a fresh interpreter with only `src` on the path.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tilealg

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).parent / "data"

SCRIPT = """
import io, json, sys
import tilealg, tilealg.cli

def run(argv):
    out = io.StringIO()
    return tilealg.cli.main(argv, out=out), out.getvalue()

report = {"after_import": "numpy" in sys.modules, "runs": {}}
for argv in json.loads(sys.argv[1]):
    report["runs"][" ".join(argv)] = [*run(argv), "numpy" in sys.modules]
print(json.dumps(report))
"""


def test_no_subcommand_imports_numpy():
    d = str(DATA)
    commands = [
        ["check", f"{d}/fixA.quiver"],
        ["check", f"{d}/pent.tiling"],
        ["strings", f"{d}/fixA.quiver"],
        ["strings", f"{d}/kron.tiling", "--max-len", "3"],
        ["ar-quiver", f"{d}/fixA.quiver"],
        ["hom", f"{d}/fixA.quiver", "b- c d c- b", "b- c d c- b"],
        ["tiling-algebra", f"{d}/digon.tiling"],
        ["arcs", f"{d}/pent.tiling", "a1"],
        ["pivot", f"{d}/loop.tiling", "triv x +", "--end", "s"],
        ["tau", f"{d}/loop.tiling", "a1"],
        ["rep-type", f"{d}/kron.tiling"],
        ["complete", f"{d}/digon.tiling"],
        ["hom", f"{d}/fixA.quiver", "b- c d c- b", "b- c d c- b", "--oracle"],
        ["hom", f"{d}/kron.tiling", "band a1 a2-", "band a1 a2-", "--oracle"],
    ]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(commands)],
                          capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["after_import"] is False
    runs = report["runs"]
    assert {argv: (code, numpy) for argv, (code, _, numpy) in runs.items()} == {
        " ".join(argv): (0, False) for argv in commands}
    assert runs[" ".join(commands[-2])][1] == "hom 2\noracle 2\n"


FOOTPRINT = """
import io, json, sys

def loaded():
    return sorted([n[len("tilealg."):] for n in sys.modules if n.startswith("tilealg.")]
                  + [n for n in ("numpy", "dataclasses", "inspect", "ast", "dis", "tokenize")
                     if n in sys.modules])

import tilealg
report = {"package": loaded()}
import tilealg.cli
report["cli"] = loaded()
report["runs"] = []
for argv in json.loads(sys.argv[1]):
    code = tilealg.cli.main(argv, out=io.StringIO())
    report["runs"].append([argv, code, loaded()])
print(json.dumps(report))
"""

CLI = ["algebra", "cli"]


D = str(DATA)
# footprint name -> (commands, the tilealg submodules they load; numpy,
# dataclasses, inspect, ast, dis and tokenize are listed if they get loaded,
# so they must never appear)
FOOTPRINTS = {
    "check-quiver": ([["check", f"{D}/fixA.quiver"]], CLI),
    "strings": ([["strings", f"{D}/fixA.quiver"]], CLI + ["strings"]),
    "ar-quiver": ([["ar-quiver", f"{D}/fixA.quiver"]], CLI + ["artheory", "strings"]),
    "tiling": ([["check", f"{D}/pent.tiling"], ["tiling-algebra", f"{D}/digon.tiling"],
                ["complete", f"{D}/digon.tiling"]], CLI + ["surface"]),
    "arcs": ([["arcs", f"{D}/pent.tiling", "a1"],
              ["pivot", f"{D}/loop.tiling", "triv x +", "--end", "s"],
              ["tau", f"{D}/loop.tiling", "a1"], ["rep-type", f"{D}/kron.tiling"]],
             CLI + ["arcs", "strings", "surface"]),
    "hom": ([["hom", f"{D}/fixA.quiver", "b- c d c- b", "b- c d c- b"]],
            CLI + ["homs", "strings"]),
    "hom-oracle": ([["hom", f"{D}/fixA.quiver", "b- c d c- b", "b- c d c- b", "--oracle"]],
                   CLI + ["homs", "oracle", "strings"]),
}


@pytest.mark.parametrize("case", list(FOOTPRINTS))
def test_each_subcommand_loads_only_the_layers_it_runs(case):
    """One fresh interpreter per footprint: `import tilealg` loads no
    layer, `import tilealg.cli` loads algebra and cli, and each command
    of the case exits 0 with exactly the case's modules loaded."""
    commands, footprint = FOOTPRINTS[case]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT, json.dumps(commands)],
                          capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["package"] == []
    assert report["cli"] == CLI
    assert report["runs"] == [[argv, 0, sorted(footprint)] for argv in commands]


PUBLIC = [
    "ARQuiver", "AdmissiblePair", "Band", "BandModuleSpec", "FactorDecomposition",
    "GentlePresentation", "GentlenessError", "InputError", "Letter", "MatrixRep",
    "Quiver", "StringRejection", "StringWord", "SubDecomposition", "Tiling",
    "TilingAlgebra", "TilingRejection", "algebra", "ar_quiver_dot", "ar_sequence",
    "artheory", "build_ar_quiver", "canonicalize", "check_gentle",
    "collapse_presentation", "complete_to_triangulation", "detect_band",
    "enumerate_strings", "factor_strings", "hom_dim", "hom_dim_detailed",
    "hom_dim_oracle", "homs", "hook_left", "hook_right", "hooks",
    "is_injective_string", "load_quiver", "oracle", "parse_band",
    "parse_quiver", "parse_string", "presentations_isomorphic", "realize_band_module",
    "realize_string_module", "strings", "substrings", "surface", "tau_inverse",
    "tiling_algebra", "validate_string", "verify_ar_middle",
]
SUBMODULES = {"algebra", "strings", "artheory", "homs", "oracle", "surface"}


def test_public_names_are_unchanged():
    assert tilealg.__all__ == PUBLIC


def test_each_public_name_is_its_home_modules_object():
    for name in PUBLIC:
        value = getattr(tilealg, name)
        if name in SUBMODULES:
            assert value is importlib.import_module(f"tilealg.{name}")
            continue
        home = value.__module__
        assert home.startswith("tilealg.") and home[len("tilealg."):] in SUBMODULES, name
        assert value is getattr(importlib.import_module(home), name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from tilealg import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        tilealg.nonexistent


# Public functions of library modules that no module outside tests/ names,
# each kept on purpose: `window_key` is read by the acceptance criteria
# (test_acceptance.py), and the two fixture sets of `samples` are its
# named fixtures.  The route agreements of scripts/agreements.py call the
# rest of the arcs API and the brute-force window counters.
UNCALLED = {
    "homs": ["window_key"],
    "samples": ["algebra_fixtures", "tiled_fixtures"],
}


def test_public_functions_have_a_caller_outside_the_tests():
    """Every public top-level function of a library module is named by a
    module of src/tilealg, scripts or perfbench: called, imported, read as
    an attribute, or named by a string as `__init__._HOME` and the
    perfbench tracer name functions.  The names no such module names are
    exactly UNCALLED, so a new public name that only tests call fails."""
    library = sorted((ROOT / "src" / "tilealg").glob("*.py"))
    modules = library + sorted((ROOT / "scripts").glob("*.py")) + sorted(
        p for p in (ROOT / "perfbench").rglob("*.py") if "tests" not in p.parts)
    named = set()
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value.rpartition(".")[2])
    uncalled = {}
    for path in library:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_") \
                    and node.name not in named:
                uncalled.setdefault(path.stem, []).append(node.name)
    assert {mod: sorted(names) for mod, names in uncalled.items()} == UNCALLED


# The run-time assertions the library keeps, counted by module and
# enclosing function: the permissibility of every arc the library makes.
ASSERTIONS = {"arcs._made": 1}


def test_library_assertions_are_pinned():
    """The `assert` statements of src/tilealg are exactly ASSERTIONS, so a
    new run-time guard fails until it is named here."""
    found = {}

    def visit(node, module, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Assert):
                key = f"{module}.{owner}"
                found[key] = found.get(key, 0) + 1
            visit(child, module, child.name if isinstance(child, ast.FunctionDef) else owner)

    for path in sorted((ROOT / "src" / "tilealg").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "<module>")
    assert found == ASSERTIONS


# The fields an operand entry keeps: the host, its view and the two parts
# of its match index; an arc's entry adds its verdict and its pivot moves.
ENTRY_FIELDS = {"strings._Entry": ("host", "view", "factor", "sub"),
                "arcs._ArcEntry": ("verdict", "moves")}


def test_entry_fields_are_pinned():
    """The slots of the operand entries are exactly ENTRY_FIELDS, so a new
    per-operand cache fails until it is named here."""
    found = {}
    for key in ENTRY_FIELDS:
        module, name = key.split(".")
        found[key] = getattr(importlib.import_module(f"tilealg.{module}"), name).__slots__
    assert found == ENTRY_FIELDS
