import importlib.util
import json
from pathlib import Path

import pytest

from tilealg.algebra import Violation

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).parent / "data"


def _script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_random_tiling_audit_runs(capsys):
    assert _script("random_tiling_audit").main(["random_tiling_audit.py", "4", "7"]) == 0
    assert "audited 4 random tilings (seed 7); failures: 0" in capsys.readouterr().out


def test_random_tiling_audit_reports_a_rejected_algebra(monkeypatch, capsys):
    """Both rejections tiling_algebra raises are counted as failures and
    the audit goes on."""
    script = _script("random_tiling_audit")
    errors = iter([script.GentlenessError([Violation("G1", "vertex v is the source of "
                                                     "3 arrows", ("v", ("a", "b", "c")))]),
                   script.TilingRejection("surface is disconnected")])

    def reject(t):
        raise next(errors)

    monkeypatch.setattr(script, "tiling_algebra", reject)
    assert script.main(["random_tiling_audit.py", "2", "7"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("tiling 0: gentle=False (not a gentle presentation: "
                          "(G1) vertex v is the source of 3 arrows)\ntiling\n")
    assert "\ntiling 1: gentle=False (surface is disconnected)\ntiling\n" in out
    assert "audited 2 random tilings (seed 7); failures: 2" in out
    assert "Traceback" not in out


@pytest.mark.parametrize("args", [["abc"], ["-3"], ["0"], ["4", "x"], ["4", "7", "9"]])
def test_random_tiling_audit_rejects_bad_arguments(args, capsys):
    assert _script("random_tiling_audit").main(["random_tiling_audit.py"] + args) == 2
    out = capsys.readouterr().out
    assert "python3 scripts/random_tiling_audit.py [count] [seed]" in out
    assert "audited" not in out


def test_bench_ladder_smallest_rung(tmp_path, capsys):
    """The rungs up to size 50 only, as a smoke test: the first rung of
    each family, and the AR quiver's rungs 8 to 32; nothing is timed
    against a bound."""
    dest = tmp_path / "ladder.json"
    script = _script("bench_ladder")
    assert script.main(["bench_ladder.py", "--out", str(dest), "--max-size", "50"]) == 0
    assert f"-> {dest}" in capsys.readouterr().out
    families = json.loads(dest.read_text())["families"]
    assert list(families) == ["hom zigzag string", "hom zigzag band", "hom kronecker walk",
                              "surface bare polygon", "surface half-kept disc",
                              "from_data kronecker", "ar_quiver path", "arcs fan path",
                              "band canonical form", "hom repeated band"]
    for name, rungs in families.items():
        sizes = [8, 16, 32] if name == "ar_quiver path" else [50]
        assert [r["size"] for r in rungs] == sizes
        assert rungs[0]["exponent"] is None
        assert all(r["best_s"] >= 0 and r["peak_mb"] >= 0 for r in rungs)
    assert script.main(["bench_ladder.py", "--max-size", "x"]) == 2
    assert script.main(["bench_ladder.py", "--out", str(tmp_path / "no" / "x.json"),
                        "--max-size", "0"]) == 2
