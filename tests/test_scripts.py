import importlib.util
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("args", [["abc"], ["-3"], ["0"], ["4", "x"], ["4", "7", "9"]])
def test_random_tiling_audit_rejects_bad_arguments(args, capsys):
    assert _script("random_tiling_audit").main(["random_tiling_audit.py"] + args) == 2
    out = capsys.readouterr().out
    assert "python3 scripts/random_tiling_audit.py [count] [seed]" in out
    assert "audited" not in out


def test_export_ar_quiver_runs(tmp_path, capsys):
    dest = tmp_path / "ar.dot"
    script = _script("export_ar_quiver")
    assert script.main(["export_ar_quiver.py", str(DATA / "digon.tiling"), str(dest)]) == 0
    assert dest.read_text().startswith("digraph")
    assert f"-> {dest}" in capsys.readouterr().out
    # a band-positive algebra has no finite AR quiver of string modules
    assert script.main(["export_ar_quiver.py", str(DATA / "kron.tiling"), str(dest)]) == 2
    assert capsys.readouterr().out.startswith("input error: presentation has a band")


def test_export_ar_quiver_reports_rejections(tmp_path, capsys):
    dest = tmp_path / "ar.dot"
    script = _script("export_ar_quiver")
    cycle = tmp_path / "cycle.quiver"
    cycle.write_text("quiver\nvertex 1\nvertex 2\narrow a 1 2\narrow b 2 1\nend\n")
    assert script.main(["export_ar_quiver.py", str(cycle), str(dest)]) == 1
    assert capsys.readouterr().out.startswith(
        "rejected: not a gentle presentation: (FD) relation-free oriented cycle a b")
    small = tmp_path / "small.tiling"
    small.write_text("tiling\nboundary b1 marked p1 p2 p3\nend\n")
    assert script.main(["export_ar_quiver.py", str(small), str(dest)]) == 1
    assert capsys.readouterr().out == "rejected: a disc needs at least four marked points\n"
    assert not dest.exists()
    latin = tmp_path / "latin.quiver"
    latin.write_bytes(b"quiver\n\xff\xfe\n")
    assert script.main(["export_ar_quiver.py", str(latin), str(dest)]) == 2
    assert capsys.readouterr().out.startswith(f"input error: cannot read {latin}: ")
    unwritable = tmp_path / "missing" / "x.dot"
    assert script.main(["export_ar_quiver.py", "fix_b", str(unwritable)]) == 2
    assert capsys.readouterr().out.startswith(f"input error: cannot write {unwritable}: ")


def test_run_acceptance_runs(capsys):
    assert _script("run_acceptance").main() == 0
    assert "10/10 criteria passed" in capsys.readouterr().out
