import importlib.util
import json
import re
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
    """The summary ends in one count line per route agreement."""
    script = _script("random_tiling_audit")
    assert script.main(["random_tiling_audit.py", "4", "7"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "audited 4 random tilings (seed 7); failures: 0" in out
    counts = out[-len(script.AGREEMENTS):]
    assert [line.split(":")[0] for line in counts] == list(script.AGREEMENTS)
    assert all(re.fullmatch(r"\w+: \d+ checks", line) for line in counts)


def test_random_tiling_audit_reports_a_failed_agreement(monkeypatch, capsys):
    """A tiling on which an agreement fails is counted with its reason and
    printed, and the audit exits 1."""
    script = _script("random_tiling_audit")
    monkeypatch.setattr(script, "check", lambda name, *context: (0, f"{name}: disagrees"))
    assert script.main(["random_tiling_audit.py", "1", "7"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("tiling 0: round_trip: disagrees\ntiling\n")
    assert "audited 1 random tilings (seed 7); failures: 1" in out


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
    each family, the rungs 8 to 32 of the AR quiver and of the
    enumeration and the rungs 25 and 50 of the oracle; nothing is timed
    against a bound."""
    dest = tmp_path / "ladder.json"
    script = _script("bench_ladder")
    assert script.main(["bench_ladder.py", "--out", str(dest), "--max-size", "50"]) == 0
    assert f"-> {dest}" in capsys.readouterr().out
    families = json.loads(dest.read_text())["families"]
    assert list(families) == ["hom zigzag string", "hom zigzag band", "hom kronecker walk",
                              "surface bare polygon", "surface half-kept disc",
                              "surface many holes", "from_data kronecker", "ar_quiver path",
                              "arcs fan path", "arcs tau fan path", "band canonical form",
                              "hom repeated band", "enumerate_strings path",
                              "oracle kronecker walk"]
    for name, rungs in families.items():
        sizes = [8, 16, 32] if name in ("ar_quiver path", "enumerate_strings path") else [50]
        sizes = [25, 50] if name == "oracle kronecker walk" else sizes
        assert [r["size"] for r in rungs] == sizes
        assert rungs[0]["exponent"] is None
        assert all(r["best_s"] >= 0 and r["peak_mb"] >= 0 for r in rungs)
    assert script.main(["bench_ladder.py", "--max-size", "x"]) == 2
    assert script.main(["bench_ladder.py", "--out", str(tmp_path / "no" / "x.json"),
                        "--max-size", "0"]) == 2


def _result(ops_per_s, p50_ms, failed=0):
    """A canned last line of a perfbench run."""
    metrics = {"ops_per_s": ops_per_s, "op_p50_ms": p50_ms}
    return json.dumps({"correct": not failed, "attempted": 600, "failed": failed,
                       "metrics": {k: {"value": v, "unit": "-"} for k, v in metrics.items()}})


def test_ab_bench_summary_of_canned_result_lines():
    """Medians, quartiles, median ratios, rounds won and their sign test,
    and the gain rule, on four pairs of canned result lines; a tie counts
    for neither side."""
    script = _script("ab_bench")
    pairs = [(json.loads(_result(*a)), json.loads(_result(*c))) for a, c in [
        ((100, 2.0), (150, 1.0)), ((110, 2.0), (150, 1.5)),
        ((120, 2.0), (130, 2.0)), ((130, 4.0), (100, 1.0, 3))]]
    lines = script.summary(pairs, {"ops_per_s": "higher", "op_p50_ms": "lower"})
    assert lines[0] == "4 pairs; failed ops: parent 0/2400, change 3/2400"
    assert lines[2].split() == ["ops_per_s", "parent", "115", "107.5", "122.5"]
    assert lines[3].split() == ["ops_per_s", "change", "140", "122.5", "150"]
    # ratios 1.5, 1.3636, 1.0833, 0.7692; then 0.5, 0.75, 1, 0.25
    assert lines[4] == ("ops_per_s    median ratio change/parent 1.2235, higher is "
                        "better; rounds won: change 3, parent 1, sign test p 0.625")
    # 3 of 4 rounds won is short of nine tenths, however far the medians part
    assert lines[5] == ("ops_per_s    gain rule does not hold: change won 3 of 4 rounds, "
                        "4 needed; median gain 25, parent q1-q3 spread 15")
    assert lines[6].split() == ["op_p50_ms", "parent", "2", "2", "2.5"]
    assert lines[8] == ("op_p50_ms    median ratio change/parent 0.6250, lower is "
                        "better; rounds won: change 3, parent 0, sign test p 0.25")
    assert lines[9] == ("op_p50_ms    gain rule does not hold: change won 3 of 4 rounds, "
                        "4 needed; median gain 0.75, parent q1-q3 spread 0.5")
    assert len(lines) == 10
    gain_rule = script.gain_rule
    assert gain_rule([10] * 9 + [11], [9] * 9 + [12], "lower").startswith(
        "gain rule holds: change won 9 of 10 rounds, 9 needed; median gain 1,")
    # nine of ten won, but the medians part by no more than the parent's spread
    assert gain_rule([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], [0.9, 1.9, 2.9, 3.9, 4.9, 5.9, 6.9,
                                                        7.9, 8.9, 11], "lower").startswith(
        "gain rule does not hold: change won 9 of 10 rounds")
    # a tie counts for neither side: 27 of 30 needed, 26 won
    assert "won 26 of 30 rounds, 27 needed" in gain_rule([1] * 30, [2] * 26 + [1] * 4, "higher")
    # 2 (1 + 5) / 2^5: four rounds to one resolves nothing
    assert script.sign_test(4, 1) == script.sign_test(1, 4) == 0.375
    assert script.sign_test(10, 0) == 2 / 1024
    assert script.sign_test(0, 0) == script.sign_test(3, 3) == 1.0


def test_ab_bench_digest_line_of_canned_result_lines():
    """One digest when every run of both sides printed it; else each
    side's distinct digests, in the order they came."""
    digest_line = _script("ab_bench").digest_line

    def pairs(*digests):
        results = []
        for d in digests:
            result = json.loads(_result(100, 1.0))
            result["digest"] = d
            results.append(result)
        return list(zip(results[::2], results[1::2]))

    assert digest_line(pairs("d2a2", "d2a2", "d2a2", "d2a2")) == "digests agree: d2a2"
    assert digest_line(pairs("d2a2", "d2a2", "d2a2", "ffff")) == (
        "digests differ: parent d2a2; change d2a2 ffff")
    assert digest_line(pairs("aaaa", "bbbb", "cccc", "bbbb")) == (
        "digests differ: parent aaaa cccc; change bbbb")


def test_ab_bench_rejects_trees_without_perfbench(tmp_path, capsys):
    main = _script("ab_bench").main
    assert main(["ab_bench.py", str(tmp_path), str(ROOT), "--workload", "hom_matrix"]) == 2
    assert f"no perfbench/run.py under {tmp_path}" in capsys.readouterr().out
    assert main(["ab_bench.py", str(ROOT), str(ROOT), "--workload", "hom_matrix",
                 "--rounds", "0"]) == 2
    assert main(["ab_bench.py", str(ROOT)]) == 2


def _rungs(*times, first=50):
    """Canned rungs of one ladder run, doubling from `first`."""
    return [{"size": first * 2 ** k, "best_s": t, "peak_mb": 0.1, "exponent": None}
            for k, t in enumerate(times)]


def test_ab_bench_ladder_summary_of_canned_rungs():
    """Per rung that every run reached: each side's median time, the
    median ratio and the rounds won, lower being better; the rung at 200
    that one run did not reach is left out."""
    script = _script("ab_bench")
    pairs = [(_rungs(1.0, 2.0, 4.0), _rungs(0.5, 2.0, 3.0)),
             (_rungs(1.2, 2.2, 4.4), _rungs(0.6, 2.4)),
             (_rungs(1.1, 1.8, 4.1), _rungs(0.5, 1.6, 3.9))]
    assert script.ladder_summary(pairs) == [
        "3 pairs; best time per rung in s",
        "  size      parent      change",
        "    50         1.1         0.5  median ratio change/parent 0.5000, lower is "
        "better; rounds won: change 3, parent 0, sign test p 0.25",
        "   100           2           2  median ratio change/parent 1.0000, lower is "
        "better; rounds won: change 1, parent 1, sign test p 1"]


def test_ab_bench_ladder_mode_alternates_the_trees(tmp_path, monkeypatch, capsys):
    """--ladder runs the family once per tree and round, the first side
    swapping each round, and prints each run and the summary; no child
    process is started.  A tree without the ladder script, a failed run
    and a missing mode are refused."""
    script = _script("ab_bench")
    other = tmp_path / "other"
    (other / "scripts").mkdir(parents=True)
    (other / "scripts" / "bench_ladder.py").write_text("")
    calls = []

    def run(tree, args):
        calls.append((tree, args.ladder))
        return _rungs(1.0 if tree == ROOT else 0.8, first=8), ""

    monkeypatch.setattr(script, "_run_ladder", run)
    assert script.main(["ab_bench.py", str(ROOT), str(other), "--ladder", "fam",
                        "--rounds", "3"]) == 0
    assert calls == [(ROOT, "fam"), (other, "fam"), (other, "fam"), (ROOT, "fam"),
                     (ROOT, "fam"), (other, "fam")]
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == ["round 1: parent first", "  parent 8:1", "  change 8:0.8"]
    assert out[3] == "round 2: change first"
    assert out[-1] == ("     8           1         0.8  median ratio change/parent 0.8000, "
                       "lower is better; rounds won: change 3, parent 0, sign test p 0.25")
    assert script.main(["ab_bench.py", str(tmp_path), str(other), "--ladder", "fam"]) == 2
    assert f"no scripts/bench_ladder.py under {tmp_path}" in capsys.readouterr().out
    monkeypatch.setattr(script, "_run_ladder", lambda tree, args: (None, "boom"))
    assert script.main(["ab_bench.py", str(ROOT), str(other), "--ladder", "fam"]) == 1
    assert "  parent run failed:\nboom" in capsys.readouterr().out
    assert script.main(["ab_bench.py", str(ROOT), str(other)]) == 2
    assert script.main(["ab_bench.py", str(ROOT), str(other), "--ladder", "fam",
                        "--workload", "hom_matrix"]) == 2
    compile(script.LADDER_CHILD, "ladder child", "exec")
