import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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


def test_hom_oracle_mismatch_exits_1(monkeypatch):
    import tilealg.oracle
    real = tilealg.oracle.hom_dim_oracle
    monkeypatch.setattr(tilealg.oracle, "hom_dim_oracle",
                        lambda *args, **kwargs: real(*args, **kwargs) + 1)
    code, text = run("hom", str(DATA / "fixA.quiver"),
                     "b- c d c- b", "b- c d c- b", "--oracle")
    assert code == 1
    assert text.splitlines() == ["hom 2", "oracle 3",
                                 "MISMATCH between combinatorial and oracle dimensions"]


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


@pytest.mark.parametrize("name, content, code, start", [
    ("digon.tiling", None, 0, "node "),
    # a band-positive algebra has no finite AR quiver of string modules
    ("kron.tiling", None, 2, "input error: presentation has a band"),
    ("cycle.quiver", "quiver\nvertex 1\nvertex 2\narrow a 1 2\narrow b 2 1\nend\n", 1,
     "rejected: not a gentle presentation: (FD) relation-free oriented cycle a b"),
    ("small.tiling", "tiling\nboundary b1 marked p1 p2 p3\nend\n", 1,
     "rejected: a disc needs at least four marked points\n"),
    ("latin.quiver", b"quiver\n\xff\xfe\n", 2, "input error: cannot read {path}: "),
], ids=["written", "band", "fd_cycle", "three_point_disc", "undecodable"])
def test_ar_quiver_dot_is_written_only_for_an_ar_quiver(tmp_path, name, content, code,
                                                        start):
    path = DATA / name if content is None else tmp_path / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)
    dest = tmp_path / "ar.dot"
    got, text = run("ar-quiver", str(path), "--dot", str(dest))
    assert got == code
    assert text.startswith(start.format(path=path))
    if code:
        assert not dest.exists()
    else:
        assert dest.read_text().startswith("digraph")
        assert text.endswith(f"dot written to {dest}\n")


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


LOOP = (DATA / "loop.tiling").read_text()


@pytest.mark.parametrize("text, code, line", [
    ("tiling\nboundary b1 marked\nend\n",
     2, "input error: line 2: marked boundary needs points"),
    (PENT.replace("arc x", "boundary b2 unmarked inside\narc x", 1),
     2, "input error: line 3: unmarked placement needs 1 or 2 arcs"),
    ("tiling\nboundary b1 open p q\nend\n", 2, "input error: line 2: malformed boundary line"),
    (PENT.replace("arc x p1 p3", "arc x p1"),
     2, "input error: line 3: arc syntax: arc <id> <p> <q>"),
    (PENT.replace("fan p3 : x.2", "fan p3 x.2"),
     2, "input error: line 6: fan syntax: fan <p> : <arc.end> ..."),
    (PENT.replace("fan p3 : x.2", "fan p3 : x2"), 2, "input error: line 6: bad slot 'x2'"),
    ("tiling\nvertex v\nend\n", 2, "input error: line 2: unknown keyword 'vertex'"),
    (PENT.replace("p2\n", "p2 p3\n", 1), 2, "input error: marked point listed twice"),
    ("tiling\nend\n", 2, "input error: a tiling needs at least one marked point"),
    (PENT.replace("arc y p1 p4", "arc y p1 p9"),
     2, "input error: arc y ends at an unknown point"),
    (PENT.replace("end\n", "fan q9 :\nend\n"), 2, "input error: fan at unknown point q9"),
    (PENT.replace("fan p3 : x.2\nfan p4 : y.2", "fan p3 : y.2\nfan p4 : x.2"),
     2, "input error: slot y.2 does not sit at p3"),
    (PENT.replace("arc x", "boundary b2 unmarked inside z\narc x", 1),
     2, "input error: unmarked b2 placed inside unknown arc z"),
    (LOOP.replace("arc x", "boundary b3 unmarked inside x\narc x", 1),
     1, "rejected: two unmarked components in one tile"),
    ("tiling\nboundary b1 marked p1 p2\narc x p1 p2\nfan p1 : x.1\nfan p2 : x.2\nend\n",
     1, "rejected: tile (x boundary) is a digon without an unmarked component"),
], ids=["marked_without_points", "placement_without_arcs", "malformed_boundary",
        "arc_syntax", "fan_syntax", "bad_slot", "unknown_keyword", "point_twice",
        "no_marked_point", "arc_at_unknown_point", "fan_at_unknown_point",
        "slot_elsewhere", "placed_inside_unknown_arc", "two_unmarked_in_one_tile",
        "digon_with_boundary_side"])
def test_tiling_rejection_reasons(tmp_path, text, code, line):
    path = tmp_path / "bad.tiling"
    path.write_text(text)
    assert run("tiling-algebra", str(path)) == (code, line + "\n")


def test_two_disjoint_discs_are_rejected_as_disconnected(tmp_path):
    path = tmp_path / "two_discs.tiling"
    path.write_text("tiling\nboundary b1 marked p1 p2 p3 p4\n"
                    "boundary b2 marked q1 q2 q3 q4\nend\n")
    assert run("check", str(path)) == (1, "rejected: surface is disconnected\n")


DATA_LINES = {p.name: p.read_text().splitlines(keepends=True)
              for p in sorted(DATA.iterdir())}
LINE_POOL = sorted({l for lines in DATA_LINES.values() for l in lines})
OPERANDS = ["triv x +", "triv 1 +", "a1", "a2 a1-", "band a1 a2-", "b- c d c- b", "d",
            "zero", "q7"]


@st.composite
def mutated_data_file(draw):
    """A tests/data file after one to three line edits: delete, duplicate,
    swap with another line, replace by a line of any data file, or drop
    the last word."""
    lines = list(DATA_LINES[draw(st.sampled_from(sorted(DATA_LINES)))])
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["delete", "duplicate", "swap", "replace", "shorten"]))
        if edit == "delete":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, lines[i])
        elif edit == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == "replace":
            lines[i] = draw(st.sampled_from(LINE_POOL))
        else:
            lines[i] = " ".join(lines[i].split()[:-1]) + "\n"
    return "".join(lines)


@st.composite
def subcommand_args(draw):
    """The arguments after the file for one of the ten subcommands."""
    operand = st.sampled_from(OPERANDS)
    command = draw(st.sampled_from(["check", "strings", "ar-quiver", "hom",
                                    "tiling-algebra", "arcs", "pivot", "tau",
                                    "rep-type", "complete"]))
    if command == "hom":
        oracle = ["--oracle"] if draw(st.booleans()) else []
        return command, [draw(operand), draw(operand), *oracle]
    if command == "pivot":
        return command, [draw(operand), "--end", draw(st.sampled_from("st"))]
    if command in ("arcs", "tau"):
        return command, [draw(operand)]
    return command, []


@settings(derandomize=True, deadline=None, max_examples=300)
@given(text=mutated_data_file(), command=subcommand_args())
def test_cli_main_on_mutated_data_files_exits_0_1_or_2(tmp_path_factory, text, command):
    path = tmp_path_factory.getbasetemp() / "fuzzed.txt"
    path.write_text(text)
    name, rest = command
    code, _ = run(name, str(path), *rest)
    assert code in (0, 1, 2)


# -- the CLI surface -------------------------------------------------------

# (name, handler, help, [(option strings, dest, required, choices, type,
# default, nargs, help) of each argument, in order]) of every subcommand
SURFACE = [
    ("check", "cmd_check", "verify gentleness axioms",
     [((), "file", True, None, None, None, None, None)]),
    ("strings", "cmd_strings", "enumerate strings up to inversion",
     [((), "file", True, None, None, None, None, None),
      (("--max-len",), "max_len", False, None, int, None, None, None)]),
    ("ar-quiver", "cmd_ar_quiver", "Auslander-Reiten quiver of string modules",
     [((), "file", True, None, None, None, None, None),
      (("--dot",), "dot", False, None, None, None, None, None)]),
    ("hom", "cmd_hom", "Hom dimension between string/band modules",
     [((), "file", True, None, None, None, None, None),
      ((), "v", True, None, None, None, None, None),
      ((), "w", True, None, None, None, None, None),
      (("--oracle",), "oracle", False, None, None, False, 0, None),
      (("--prime",), "prime", False, None, int, None, None, None),
      (("--lam",), "lam", False, None, int, None, None,
       "band parameter lambda for oracle band modules (default 1)")]),
    ("tiling-algebra", "cmd_tiling_algebra", "tiles and the tiling algebra",
     [((), "file", True, None, None, None, None, None)]),
    ("arcs", "cmd_arcs", "canonical permissible arc of a string",
     [((), "file", True, None, None, None, None, None),
      ((), "string", True, None, None, None, None, None)]),
    ("pivot", "cmd_pivot", "pivot elementary move of the arc of a string",
     [((), "file", True, None, None, None, None, None),
      ((), "string", True, None, None, None, None, None),
      (("--end",), "end", True, ("s", "t"), None, None, None, None)]),
    ("tau", "cmd_tau", "inverse AR translate via arc rotation",
     [((), "file", True, None, None, None, None, None),
      ((), "string", True, None, None, None, None, None)]),
    ("rep-type", "cmd_rep_type", "representation type from the surface",
     [((), "file", True, None, None, None, None, None)]),
    ("complete", "cmd_complete", "complete to a triangulation and verify collapse",
     [((), "file", True, None, None, None, None, None)]),
]


def test_subcommands_and_their_arguments_are_pinned():
    import argparse
    from tilealg.cli import build_parser
    ap = build_parser()
    top = [a for a in ap._actions if not isinstance(a, argparse._HelpAction)]
    assert len(top) == 1 and isinstance(top[0], argparse._SubParsersAction)
    sub = top[0]
    assert (sub.dest, sub.required) == ("command", True)
    assert [(a.dest, a.help) for a in sub._choices_actions] == [
        (name, help) for name, _, help, _ in SURFACE]
    got = []
    for name, p in sub.choices.items():
        args = [(tuple(a.option_strings), a.dest, a.required, a.choices, a.type,
                 a.default, a.nargs, a.help)
                for a in p._actions if not isinstance(a, argparse._HelpAction)]
        got.append((name, p.get_default("func").__name__, p.prog, args))
    assert got == [(name, func, f"tilealg {name}", args)
                   for name, func, _, args in SURFACE]


@pytest.mark.parametrize("argv, err", [
    ([], "usage: tilealg [-h]\n"
         "               {check,strings,ar-quiver,hom,tiling-algebra,arcs,pivot,tau,rep-type,complete}\n"
         "               ...\n"
         "tilealg: error: the following arguments are required: command\n"),
    (["pivot", "f", "s"], "usage: tilealg pivot [-h] --end {s,t} file string\n"
                          "tilealg pivot: error: the following arguments are required: --end\n"),
], ids=["no_subcommand", "pivot_without_end"])
def test_argparse_errors_exit_2(monkeypatch, capsys, argv, err):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("command, rest", [("check", []), ("strings", []),
                                           ("hom", ["a", "b"]), ("tiling-algebra", [])],
                         ids=["check", "strings", "hom", "tiling-algebra"])
@pytest.mark.parametrize("text, reason", [
    ("not a file\n", "line 1: unknown keyword 'not'"),
    ("", "missing 'quiver' header line"),
    ("vertex v\n", "missing 'quiver' header line"),
    ("end\n", "missing 'quiver' header line"),
    ("end\ntiling\n", "line 2: content after 'end'"),
], ids=["unknown_keyword", "empty", "headerless", "only_end", "record_after_end"])
def test_a_file_that_is_not_a_tiling_is_read_as_a_quiver(tmp_path, command, rest, text,
                                                         reason):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    assert run(command, str(path), *rest) == (2, f"input error: {reason}\n")


# Every subcommand on every file of tests/data and on the files given after
# it, in process: the operands are the first strings of each presentation,
# its band and, on a tiling, each string's arc moves; each run prints its
# argv, exit code and output.  Last comes the repr of a presentation.
DUMP = """
import io, sys
from pathlib import Path
from tilealg import samples
from tilealg.cli import _load_any, main
from tilealg.strings import detect_band, enumerate_strings

def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    print(*argv[:1], Path(argv[1]).name, *argv[2:], code)
    print(out.getvalue(), end="")

data, dot, extra = Path(sys.argv[1]), sys.argv[2], sys.argv[3:]
for f in sorted(map(str, data.iterdir())) + extra:
    try:
        pres = _load_any(f)[0]
        band = detect_band(pres)
        texts = [w.text() for w in enumerate_strings(pres, 2)[:4]]
    except ValueError:
        band, texts = None, ["a", "triv 1 +"]
    operands = texts + (["band " + band.text()] if band else [])
    for argv in (["check"], ["strings", "--max-len", "3"], ["ar-quiver", "--dot", dot],
                 ["tiling-algebra"], ["rep-type"], ["complete"]):
        run(argv[0], f, *argv[1:])
    for v in operands:
        for w in operands:
            run("hom", f, v, w)
    for s in texts:
        for argv in (["arcs", s], ["tau", s], ["pivot", s, "--end", "s"],
                     ["pivot", s, "--end", "t"]):
            run(argv[0], f, *argv[1:])
print(repr(samples.fix_a()))
"""


def test_cli_output_does_not_depend_on_the_hash_seed(tmp_path):
    """One dump of every subcommand, in two interpreters with different
    hash seeds, byte for byte; the extra quiver names two unknown-arrow
    relations, which a check in hash order reports differently under
    seeds 0 and 3."""
    quiver = tmp_path / "relations.quiver"
    quiver.write_text("quiver\nvertex 1\narrow a 1 1\nrelation a b\nrelation b a\nend\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    dumps = [subprocess.run([sys.executable, "-c", DUMP, str(DATA), str(tmp_path / "ar.dot"),
                             str(quiver)], capture_output=True, text=True, timeout=120,
                            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed))
             for seed in ("0", "3")]
    assert [d.returncode for d in dumps] == [0, 0], dumps[0].stderr + dumps[1].stderr
    assert dumps[0].stdout == dumps[1].stdout
    assert "relations.quiver 2\ninput error: relation (a,b) references unknown arrow\n" \
        in dumps[0].stdout
    assert dumps[0].stdout.count("\n") > 500
