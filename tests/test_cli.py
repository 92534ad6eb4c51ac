import io
import re
from pathlib import Path

import pytest

from tilealg.cli import main

DATA = Path(__file__).parent / "data"


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_check_gentle_fixture():
    code, text = run("check", str(DATA / "fixA.quiver"))
    assert code == 0
    assert text == "gentle\n"


def test_check_violation(tmp_path):
    bad = tmp_path / "bad.quiver"
    bad.write_text("quiver\nvertex v\nvertex w\n"
                   "arrow a v w\narrow b v w\narrow c v w\nend\n")
    code, text = run("check", str(bad))
    assert code == 1
    assert "violation G1" in text


def test_check_parse_error(tmp_path):
    bad = tmp_path / "bad.quiver"
    bad.write_text("not a quiver file\n")
    code, text = run("check", str(bad))
    assert code == 2


def test_hom_paper_value_with_oracle():
    code, text = run("hom", str(DATA / "fixA.quiver"),
                     "b- c d c- b", "b- c d c- b", "--oracle")
    assert code == 0
    assert text.splitlines() == ["hom 2", "oracle 2"]


def test_hom_rejects_bad_string():
    code, text = run("hom", str(DATA / "fixA.quiver"), "a b", "a")
    assert code == 1
    assert "rejected" in text


def test_strings_deterministic():
    code1, text1 = run("strings", str(DATA / "fixA.quiver"))
    code2, text2 = run("strings", str(DATA / "fixA.quiver"))
    assert code1 == code2 == 0
    assert text1 == text2
    assert "band none" in text1


def test_strings_of_tiling_file():
    code, text = run("strings", str(DATA / "kron.tiling"), "--max-len", "3")
    assert code == 0
    assert "band a1 a2-" in text


def _parse_dot(dot):
    """Tiny DOT reader for the subset we emit: nodes, solid and dashed
    edges; returns (nodes, edges, dashed)."""
    assert dot.startswith("digraph") and dot.rstrip().endswith("}")
    assert dot.count("{") == dot.count("}") == 1
    nodes, edges, dashed = set(), set(), set()
    body = dot[dot.index("{") + 1:dot.rindex("}")]
    for line in body.splitlines():
        line = line.strip()
        if not line:
            continue
        m = re.fullmatch(r'"([^"]+)" -> "([^"]+)" \[style=dashed, dir=none\];', line)
        if m:
            dashed.add((m.group(1), m.group(2)))
            continue
        m = re.fullmatch(r'"([^"]+)" -> "([^"]+)";', line)
        if m:
            edges.add((m.group(1), m.group(2)))
            continue
        m = re.fullmatch(r'"([^"]+)";', line)
        assert m, line
        nodes.add(m.group(1))
    return nodes, edges, dashed


def test_ar_quiver_dot_roundtrip(tmp_path):
    dot_file = tmp_path / "ar.dot"
    code, text = run("ar-quiver", str(DATA / "fixA.quiver"),
                     "--dot", str(dot_file))
    assert code == 0
    nodes, edges, dashed = _parse_dot(dot_file.read_text())
    from tilealg.artheory import build_ar_quiver
    from tilealg.algebra import load_quiver
    ar = build_ar_quiver(load_quiver(DATA / "fixA.quiver"))
    assert nodes == {w.text() for w in ar.nodes}
    assert edges == {(a.text(), b.text()) for a, b in ar.edges}
    assert dashed == {(a.text(), b.text()) for a, b in ar.tau_pairs}


@pytest.mark.parametrize("where", ["missing/ar.dot", "."])
def test_ar_quiver_unwritable_dot_is_input_error(tmp_path, where):
    dest = tmp_path / where
    code, text = run("ar-quiver", str(DATA / "fixA.quiver"), "--dot", str(dest))
    assert code == 2
    assert text.startswith(f"input error: cannot write {dest}: ")
    assert text.count("\n") == 1   # the report is not printed


def test_tiling_algebra_report():
    code, text = run("tiling-algebra", str(DATA / "digon.tiling"))
    assert code == 0
    assert "type-II" in text
    assert "arrow a1 x -> y at p" in text
    assert "relation a1 a2" in text and "relation a2 a1" in text


def test_arcs_output():
    code, text = run("arcs", str(DATA / "pent.tiling"), "a1")
    assert code == 0
    assert text.startswith("arc-word ")
    assert "intersections x:1 y:1" in text


def test_pivot_output():
    code, text = run("pivot", str(DATA / "loop.tiling"), "triv x +", "--end", "s")
    assert code == 0
    assert "string a1" in text


def test_tau_injective():
    code, text = run("tau", str(DATA / "loop.tiling"), "a1")
    assert code == 0
    assert text == "injective\n"


def test_rep_type_outputs():
    code, text = run("rep-type", str(DATA / "kron.tiling"))
    assert code == 0
    assert text == "infinite; witness closed curve: x y\n"
    code, text = run("rep-type", str(DATA / "pent.tiling"))
    assert text == "finite\n"


def test_complete_reports_isomorphism():
    for name in ("pent", "loop", "digon", "kron"):
        code, text = run("complete", str(DATA / f"{name}.tiling"))
        assert code == 0
        assert "collapse isomorphic to tiling algebra: yes" in text


def test_byte_identical_reruns():
    for args in (["tiling-algebra", str(DATA / "digon.tiling")],
                 ["arcs", str(DATA / "loop.tiling"), "triv x +"],
                 ["complete", str(DATA / "digon.tiling")]):
        assert run(*args) == run(*args)


def test_byte_identical_across_processes():
    import os
    import subprocess
    import sys
    cmd = [sys.executable, "-m", "tilealg.cli", "tiling-algebra",
           str(DATA / "digon.tiling")]
    env = dict(os.environ, PYTHONPATH=str(DATA.parent.parent / "src"))
    out1 = subprocess.run(cmd, capture_output=True, text=True, env=env)
    out2 = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert out1.returncode == out2.returncode == 0
    assert out1.stdout == out2.stdout


def test_strings_band_positive_needs_bound():
    code, text = run("strings", str(DATA / "kron.tiling"))
    assert code == 2
    assert "max_len" in text


def test_hom_band_operand_with_oracle():
    # maps from the quasi-simple band module hit the source simple only
    code, text = run("hom", str(DATA / "kron.tiling"),
                     "band a1 a2-", "triv x +", "--oracle")
    assert code == 0
    assert text.splitlines() == ["hom 1", "oracle 1"]
    code, text = run("hom", str(DATA / "kron.tiling"),
                     "band a1 a2-", "triv x +", "--oracle", "--lam", "2")
    assert code == 0
    assert "oracle 1" in text
    code, text = run("hom", str(DATA / "kron.tiling"),
                     "band a1 a2-", "triv y +", "--oracle")
    assert code == 0
    assert text.splitlines() == ["hom 0", "oracle 0"]


@pytest.mark.parametrize("lam", [[], ["--lam", "3"]], ids=["lam1", "lam3"])
def test_hom_same_band_agrees_with_oracle(capsys, lam):
    import warnings
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, text = run("hom", str(DATA / "kron.tiling"),
                         "band a1 a2-", "band a1 a2-", "--oracle", *lam)
    assert code == 0
    assert text.splitlines() == ["hom 1", "oracle 1"]
    assert caught == []
    assert capsys.readouterr().err == ""


def test_missing_file_is_input_error():
    code, text = run("check", str(DATA / "nope.quiver"))
    assert code == 2


def test_trivial_string_sign_must_be_one_character():
    code, text = run("hom", str(DATA / "fixA.quiver"), "triv 1 +-", "triv 1 +")
    assert code == 2
    assert "triv <vertex> <+|->" in text
    code, text = run("arcs", str(DATA / "pent.tiling"), "triv x +-")
    assert code == 2


PENT = (DATA / "pent.tiling").read_text()


@pytest.mark.parametrize("name, text, message", [
    ("dup.quiver", "quiver\nvertex 1\nvertex 2\nvertex 1\narrow a 1 2\nend\n",
     "line 4: duplicate vertex '1'"),
    ("dup_arc.tiling", PENT.replace("arc y p1 p4\n", "arc y p1 p4\narc x p1 p4\n"),
     "line 5: duplicate arc 'x'"),
    ("dup_fan.tiling", PENT.replace("fan p3 : x.2\n", "fan p3 : x.2\nfan p3 : x.2\n"),
     "line 7: duplicate fan 'p3'"),
    ("dup_marked.tiling", PENT.replace("arc x", "boundary b1 marked p1 p2 p3 p4 p5\narc x", 1),
     "line 3: duplicate boundary 'b1'"),
    ("dup_unmarked.tiling", PENT.replace("arc x", "boundary b1 unmarked inside x\narc x", 1),
     "line 3: duplicate boundary 'b1'"),
])
def test_duplicate_declarations_are_input_errors(tmp_path, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    code, out = run("check", str(path))
    assert code == 2
    assert out == f"input error: {message}\n"


def test_content_after_end_in_a_quiver_file_is_an_input_error(tmp_path):
    path = tmp_path / "after_end.quiver"
    path.write_text("quiver\nvertex 1\nend\n\n# trailing comment\nvertex 2\n")
    code, out = run("check", str(path))
    assert code == 2
    assert out == "input error: line 6: content after 'end'\n"
    path.write_text("quiver\nvertex 1\nend\n\n# trailing comment\n")
    assert run("check", str(path)) == (0, "gentle\n")


def test_content_after_end_in_a_tiling_file_is_an_input_error(tmp_path):
    path = tmp_path / "after_end.tiling"
    path.write_text(PENT + "arc z p1 p3\n")
    code, out = run("tiling-algebra", str(path))
    assert code == 2
    assert out == f"input error: line {len(PENT.splitlines()) + 1}: content after 'end'\n"


def test_a_file_that_is_not_utf8_is_an_input_error(tmp_path):
    path = tmp_path / "latin.quiver"
    path.write_bytes(b"quiver\n\xff\xfe\n")
    code, out = run("check", str(path))
    assert code == 2
    assert out.startswith(f"input error: cannot read {path}: 'utf-8' codec can't decode")


@pytest.mark.parametrize("arrows, expected", [
    ("arrow a 1 2\narrow b 2 1\n",
     ["violation FD: relation-free oriented cycle a b (algebra infinite dimensional)"]),
    ("arrow c 1 2\narrow a 2 3\narrow b 3 1\n",
     ["violation FD: relation-free oriented cycle a b c (algebra infinite dimensional)"]),
    # two relation-free cycles through vertex 2: successors are tried in
    # arrow order, so the witness is a b and not c d
    ("arrow a 1 2\narrow b 2 1\narrow c 2 3\narrow d 3 2\n",
     ["violation G2: arrow a has 2 non-relation successors",
      "violation G2: arrow b has 2 non-relation predecessors",
      "violation G2: arrow c has 2 non-relation predecessors",
      "violation G2: arrow d has 2 non-relation successors",
      "violation FD: relation-free oriented cycle a b (algebra infinite dimensional)"]),
    # the search starts outside the cycle
    ("arrow a 0 1\narrow b 1 2\narrow c 2 1\n",
     ["violation G2: arrow b has 2 non-relation predecessors",
      "violation FD: relation-free oriented cycle b c (algebra infinite dimensional)"]),
])
def test_check_fd_witness_is_pinned(tmp_path, arrows, expected):
    path = tmp_path / "cycle.quiver"
    path.write_text("quiver\nvertex 0\nvertex 1\nvertex 2\nvertex 3\n" + arrows + "end\n")
    code, text = run("check", str(path))
    assert code == 1
    assert text.splitlines() == expected


def test_check_unknown_keyword_is_reported(tmp_path):
    path = tmp_path / "bad.quiver"
    path.write_text("not a file\n")
    code, text = run("check", str(path))
    assert code == 2
    assert text == "input error: line 1: unknown keyword 'not'\n"


@pytest.mark.parametrize("prime", ["0", "1", "4", "-5"])
def test_hom_oracle_rejects_a_prime_that_is_not_prime(prime):
    import warnings
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, text = run("hom", str(DATA / "fixA.quiver"), "b- c d c- b",
                         "b- c d c- b", "--oracle", "--prime", prime)
    assert code == 2
    assert text == ("input error: prime must be a prime number from 2 to 3037000493, "
                    f"got {prime}\n")
    assert caught == []


@pytest.mark.parametrize("lam", ["0", "5"])
def test_hom_oracle_rejects_a_lambda_that_is_zero_mod_the_prime(lam):
    code, text = run("hom", str(DATA / "kron.tiling"), "band a1 a2-", "triv x +",
                     "--oracle", "--lam", lam)
    assert code == 2
    assert text == "input error: lambda must be nonzero in the prime field\n"


@pytest.mark.parametrize("flag, value", [("--prime", "4"), ("--prime", "7"),
                                         ("--lam", "3"), ("--lam", "1")])
def test_hom_oracle_options_need_the_oracle(flag, value):
    code, text = run("hom", str(DATA / "kron.tiling"), "band a1 a2-", "triv x +",
                     flag, value)
    assert code == 2
    assert text == f"input error: {flag} needs --oracle\n"


def test_strings_rejects_a_negative_max_len():
    code, text = run("strings", str(DATA / "fixA.quiver"), "--max-len", "-1")
    assert code == 2
    assert text == "input error: max_len must be >= 0, got -1\n"
    code, text = run("strings", str(DATA / "fixA.quiver"), "--max-len", "0")
    assert code == 0
    assert text == "triv 1 +\ntriv 2 +\ntriv 3 +\ncount 3\nband none\n"


@pytest.mark.parametrize("argv, expected", [
    (["check"], "gentle\n"),
    (["strings"], "triv 1 +\ntriv 2 +\na\ncount 3\nband none\n"),
    (["ar-quiver"], "node triv 1 +\nnode triv 2 +\nnode a\n"
                    "edge triv 2 + -> a\nedge a -> triv 1 +\ntau triv 2 + .. triv 1 +\n"),
    (["hom", "a", "triv 1 +"], "hom 1\n"),
], ids=["check", "strings", "ar-quiver", "hom"])
def test_header_keyword_followed_by_a_comment_is_sniffed(tmp_path, argv, expected):
    path = tmp_path / "commented.quiver"
    path.write_text("quiver# header\nvertex 1\nvertex 2\narrow a 1 2\nend\n")
    assert run(argv[0], str(path), *argv[1:]) == (0, expected)
