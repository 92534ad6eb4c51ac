"""numpy is loaded by the matrix oracle only.

The pytest process has numpy loaded already, so the check runs in a
fresh interpreter with only `src` on the path.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

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
