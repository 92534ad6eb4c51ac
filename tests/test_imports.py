"""What importing tilealg loads: numpy only for the matrix oracle, and
each CLI subcommand only the layers it runs; the lazy package root
still offers every public name.

The pytest process has numpy and every layer loaded already, so the
load checks run in a fresh interpreter with only `src` on the path.
"""

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

report = {"after_import": "numpy" in sys.modules, "codes": {}}
for argv in json.loads(sys.argv[1]):
    report["codes"][" ".join(argv)] = run(argv)[0]
report["after_commands"] = "numpy" in sys.modules
report["oracle"] = run(json.loads(sys.argv[2]))
report["after_oracle"] = "numpy" in sys.modules
print(json.dumps(report))
"""


def test_numpy_is_imported_only_by_the_oracle():
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
    ]
    oracle = ["hom", f"{d}/fixA.quiver", "b- c d c- b", "b- c d c- b", "--oracle"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(commands),
                           json.dumps(oracle)],
                          capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["after_import"] is False
    assert report["codes"] == {" ".join(argv): 0 for argv in commands}
    assert report["after_commands"] is False
    assert report["oracle"] == [0, "hom 2\noracle 2\n"]
    assert report["after_oracle"] is True


FOOTPRINT = """
import io, json, sys

def loaded():
    return sorted([n[len("tilealg."):] for n in sys.modules if n.startswith("tilealg.")]
                  + ["numpy"] * ("numpy" in sys.modules))

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
# footprint name -> (commands, the tilealg submodules and numpy they load)
FOOTPRINTS = {
    "check-quiver": ([["check", f"{D}/fixA.quiver"]], CLI),
    "strings": ([["strings", f"{D}/fixA.quiver"]], CLI + ["strings"]),
    "ar-quiver": ([["ar-quiver", f"{D}/fixA.quiver"]], CLI + ["artheory", "strings"]),
    "tiling": ([["check", f"{D}/pent.tiling"], ["tiling-algebra", f"{D}/digon.tiling"],
                ["complete", f"{D}/digon.tiling"]], CLI + ["surface"]),
    "arcs": ([["arcs", f"{D}/pent.tiling", "a1"],
              ["pivot", f"{D}/loop.tiling", "triv x +", "--end", "s"],
              ["tau", f"{D}/loop.tiling", "a1"], ["rep-type", f"{D}/kron.tiling"]],
             CLI + ["arcs", "homs", "strings", "surface"]),
    "hom": ([["hom", f"{D}/fixA.quiver", "b- c d c- b", "b- c d c- b"]],
            CLI + ["homs", "strings"]),
    "hom-oracle": ([["hom", f"{D}/fixA.quiver", "b- c d c- b", "b- c d c- b", "--oracle"]],
                   CLI + ["artheory", "homs", "oracle", "strings", "numpy"]),
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
    "artheory", "assign_signs", "build_ar_quiver", "canonicalize", "check_gentle",
    "collapse_presentation", "complete_to_triangulation", "compose", "detect_band",
    "enumerate_strings", "factor_strings", "hom_dim", "hom_dim_detailed",
    "hom_dim_oracle", "homs", "hook_left", "hook_right", "hooks",
    "is_injective_string", "is_zero_path", "load_quiver", "oracle", "parse_band",
    "parse_quiver", "parse_string", "presentations_isomorphic", "realize_band_module",
    "realize_string_module", "strings", "substrings", "surface", "tau_inverse",
    "tiling_algebra", "validate_string", "validate_tiling", "verify_ar_middle",
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
