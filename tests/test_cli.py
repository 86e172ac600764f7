import json

import pytest

from quadeq.cli import main
from quadeq.equations import parse_system
from quadeq.geneq import from_system
from quadeq.parsing import parse_word


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


SOLVABLE = "gens: a b\nvars: x y\n[x,y] [a,b] = 1\n"
UNSOLVABLE = "gens: a b\nvars: x\nx^2 = a\n"


def test_solve_sat(tmp_path, capsys):
    f = write(tmp_path, "eq.txt", SOLVABLE)
    code, out, _ = run(capsys, "solve", f, "--bound", "16")
    assert code == 0
    assert "verdict: sat" in out
    assert "witness:" in out


def test_solve_unsat(tmp_path, capsys):
    f = write(tmp_path, "eq.txt", UNSOLVABLE)
    code, out, _ = run(capsys, "solve", f)
    assert code == 0
    assert "verdict: unsat" in out


@pytest.mark.parametrize("rhs", [
    "a b",      # odd counts of a and b: the balance test decides it
    "a a b b",  # balanced, so the diagram search decides it
])
def test_solve_unsat_square_root(tmp_path, capsys, rhs):
    f = write(tmp_path, "eq.txt", f"gens: a b\nvars: x\nx x = {rhs}\n")
    code, out, _ = run(capsys, "solve", f)
    assert code == 0
    assert "verdict: unsat" in out.splitlines()
    code, out, _ = run(capsys, "solve", f, "--json")
    assert code == 0
    assert json.loads(out)["verdict"] == "unsat"


def test_solve_declared_variable_that_occurs_nowhere(tmp_path, capsys):
    f = write(tmp_path, "eq.txt", "gens: a\nvars: x y\nx a x^-1 = a\n")
    code, out, _ = run(capsys, "solve", f)
    assert code == 0
    assert "verdict: sat" in out
    assert "witness: x = a^-1\nwitness: y = 1\n" in out


def test_solve_bad_file(tmp_path, capsys):
    f = write(tmp_path, "eq.txt", "gens: a\nvars: x\nx q = 1\n")
    code, _, err = run(capsys, "solve", f)
    assert code == 2
    assert "q" in err


def test_solve_trailing_garbage_rejected(tmp_path, capsys):
    f = write(tmp_path, "eq.txt", "gens: a\nvars: x\nx = a )\n")
    code, _, err = run(capsys, "solve", f)
    assert code == 2


def test_non_quadratic_rejected(tmp_path, capsys):
    f = write(tmp_path, "eq.txt", "gens: a\nvars: x\nx a = 1\nx a = 1\nx = a\n")
    code, _, err = run(capsys, "solve", f)
    assert code == 2


def test_determinism(tmp_path, capsys):
    f = write(tmp_path, "eq.txt", SOLVABLE)
    _, out1, _ = run(capsys, "solve", f)
    _, out2, _ = run(capsys, "solve", f)
    assert out1 == out2


def test_json_output(tmp_path, capsys):
    f = write(tmp_path, "eq.txt", SOLVABLE)
    code, out, _ = run(capsys, "solve", f, "--json")
    doc = json.loads(out)
    assert doc["verdict"] == "sat"
    assert doc["command"] == "solve"


def test_solve_bound_exceeded_exit(tmp_path, capsys):
    # x^2 = a^2 is solvable, but its witness x = a is longer than the bound
    f = write(tmp_path, "eq.txt", "gens: a b\nvars: x\nx^2 = a^2\n")
    code, out, _ = run(capsys, "solve", f, "--bound", "0")
    assert code == 3
    assert "verdict: bound_exceeded" in out


def test_oracle(tmp_path, capsys):
    f = write(tmp_path, "eq.txt", "gens: a b\nvars: x\nx^-1 a x = a\n")
    code, out, _ = run(capsys, "oracle", f, "--max-len", "1")
    assert code == 0
    assert "solutions: 3" in out


def test_oracle_inconclusive_exit(tmp_path, capsys):
    f = write(tmp_path, "eq.txt", UNSOLVABLE)
    code, out, _ = run(capsys, "oracle", f, "--max-len", "2")
    assert code == 3
    assert "unsat_within_bound" in out


def test_triangulate(tmp_path, capsys):
    f = write(tmp_path, "eq.txt", "gens: a\nvars: y1 y2 y3 y4 y5\ny1 y2 y3 y4 y5 = 1\n")
    code, out, _ = run(capsys, "triangulate", f)
    assert code == 0
    assert "y1 y2 x1 = 1" in out
    assert "x1^-1 y3 x2 = 1" in out


def test_standardize(tmp_path, capsys):
    f = write(tmp_path, "eq.txt", "gens: a b\nvars: x\nx^2 a = 1\n")
    code, out, _ = run(capsys, "standardize", f)
    assert code == 0
    assert "kind: nonorientable" in out
    assert "genus: 1" in out


def test_standardize_coefficient_lines(tmp_path, capsys):
    f = write(tmp_path, "eq.txt", "gens: a b\nvars: x y\nx^-1 a x y^-1 b y a b = 1\n")
    code, out, _ = run(capsys, "standardize", f)
    assert code == 0
    lines = out.splitlines()
    assert lines[lines.index("coefficients: 2") + 1:][:3] == [
        "coefficient: a", "coefficient: b", "tail: a b"]


def test_timing_only_with_the_flag(tmp_path, capsys):
    f = write(tmp_path, "eq.txt", SOLVABLE)
    code, out, _ = run(capsys, "solve", f, "--timing")
    assert code == 0
    assert out.splitlines()[-1].startswith("timing_ms: ")
    code, out, _ = run(capsys, "solve", f)
    assert code == 0
    assert "timing_ms" not in out
    code, out, _ = run(capsys, "solve", f, "--timing", "--json")
    assert json.loads(out)["timing_ms"] >= 0


def test_genus_command(tmp_path, capsys):
    f = write(tmp_path, "c.txt", "gens: a b\n[a,b]\n")
    code, out, _ = run(capsys, "genus", f)
    assert code == 0
    assert "genus: 1" in out
    code, out, _ = run(capsys, "genus", f, "--kind", "nonorientable")
    assert "genus: 3" in out


def test_genus_at(tmp_path, capsys):
    f = write(tmp_path, "c.txt", "gens: a b\n[a,b]\n")
    code, out, _ = run(capsys, "genus", f, "--at", "1")
    assert code == 0
    assert "verdict: solvable" in out
    assert "witness:" in out


@pytest.mark.parametrize("kind,at,message", [
    ("orientable", "-1", "error: orientable genus must be >= 0"),
    ("nonorientable", "0", "error: nonorientable genus must be >= 1"),
])
def test_genus_at_below_the_least_genus(tmp_path, capsys, kind, at, message):
    f = write(tmp_path, "c.txt", "gens: a b\n[a,b]\n")
    code, out, err = run(capsys, "genus", f, "--kind", kind, "--at", at)
    assert code == 2
    assert out == "" and err.strip() == message


@pytest.mark.parametrize("kind,coefficient,at,symbols", [
    ("orientable", "[a,b]", "32", 66),
    ("nonorientable", "[a,b]^2", "63", 65),
])
def test_genus_at_refuses_a_witness_no_alphabet_holds(tmp_path, capsys, kind, coefficient,
                                                      at, symbols):
    # the standard system has the 2 generators, 2 (orientable) or 1 symbols per
    # genus and no conjugator: more than 64 is refused before the search
    f = write(tmp_path, "c.txt", f"gens: a b\n{coefficient}\n")
    code, out, err = run(capsys, "genus", f, "--kind", kind, "--at", at)
    assert code == 2 and out == ""
    assert err.strip() == (f"error: a witness at genus {at} needs {symbols} symbols, more than "
                           "the 64 an alphabet holds; --no-witness answers without one")
    code, out, _ = run(capsys, "genus", f, "--kind", kind, "--at", at, "--no-witness")
    assert code == 0 and "verdict: solvable" in out


def test_genus_at_builds_the_cliff_witness(tmp_path, capsys):
    # [a,b]^3 at genus 2: the witness is built from the diagram, where the
    # oracle ran to its length bound 24 and did not end
    f = write(tmp_path, "c.txt", "gens: a b\n[a,b]^3\n")
    code, out, _ = run(capsys, "genus", f, "--kind", "orientable", "--at", "2")
    assert code == 0
    assert "verdict: solvable" in out
    witness = {}
    for line in out.splitlines():
        if line.startswith("witness: "):
            name, _, value = line[len("witness: "):].partition(" = ")
            witness[name] = value
    assert sorted(witness) == ["x1", "x2", "y1", "y2"]
    system = parse_system(
        "gens: a b\nvars: x1 y1 x2 y2\n[x1, y1] [x2, y2] [a,b]^3 = 1\n")
    assert system.check({n: parse_word(w, system.alphabet) for n, w in witness.items()})


@pytest.mark.parametrize("text,bound", [
    (SOLVABLE, 0),                                  # orientable: built from the diagram
    ("gens: a b\nvars: x\nx^2 = (a b)^2\n", 2),  # non-orientable: the oracle's x = a b
])
def test_solve_bound_line(tmp_path, capsys, text, bound):
    f = write(tmp_path, "eq.txt", text)
    code, out, _ = run(capsys, "solve", f)
    assert code == 0
    assert "verdict: sat" in out and f"bound: {bound}" in out.splitlines()


def test_surface_torus(tmp_path, capsys):
    f = write(tmp_path, "q.txt", "edges: a b\na b a^-1 b^-1\n")
    code, out, _ = run(capsys, "surface", f)
    assert code == 0
    assert "kind: orientable" in out
    assert "chi: 0" in out
    assert "genus: 1" in out


@pytest.mark.parametrize("cmd,text,message", [
    ("genus", "[a,b]\ngens: a b\n", "error: line 1: coefficients before gens: header"),
    ("genus", "# no header\n", "error: need a gens: header and at least one coefficient"),
    ("surface", "a a\nedges: a\n", "error: line 1: words before edges: header"),
    ("surface", "# no header\n", "error: need an edges: header and at least one word"),
])
def test_word_file_header_errors(tmp_path, capsys, cmd, text, message):
    f = write(tmp_path, "w.txt", text)
    code, out, err = run(capsys, cmd, f)
    assert code == 2
    assert out == "" and err.strip() == message


# a variable named like a generator reads as the same clash whether or not an
# equation follows, where the parse alphabet used to refuse the names first
@pytest.mark.parametrize("text", ["gens: a b\nvars: a\na a = b b\n", "gens: a b\nvars: a\n"],
                         ids=["with_equation", "headers_only"])
def test_solve_generator_variable_name_clash(tmp_path, capsys, text):
    f = write(tmp_path, "eq.txt", text)
    code, out, err = run(capsys, "solve", f)
    assert code == 2
    assert out == "" and err == "error: generator/variable name clash\n"


def test_surface_dot(tmp_path, capsys):
    f = write(tmp_path, "q.txt", "edges: a\na a\n")
    dot = str(tmp_path / "g.dot")
    code, out, _ = run(capsys, "surface", f, "--dot", dot)
    assert code == 0
    assert "graph surface" in open(dot).read()


def test_schema_command(tmp_path, capsys):
    f = write(tmp_path, "s.txt", "gens: a b\nvars: x y z\nx y z = 1\nx = a\ny = b\n")
    code, out, _ = run(capsys, "schema", f)
    assert code == 0
    assert "bound: 133" in out  # |S| (4 + 2 L + lambda |S| + mu) = 7 (4 + 8 + 7 + 0)
    assert "gens: a b" in out
    assert "# map" in out


def test_schema_with_ctriples(tmp_path, capsys):
    f = write(tmp_path, "s.txt", "gens: a b\nvars: x y z\nx y z = 1\nx = a\ny = b\n")
    # count triangles first: the form has one triple here
    ct = write(tmp_path, "ct.txt", "a ; a^-1 ; 1\n")
    code, out, _ = run(capsys, "schema", f, "--ctriples", ct)
    assert code == 0


def test_schema_json_is_one_document(tmp_path, capsys):
    f = write(tmp_path, "s.txt", "gens: a b\nvars: x y z\nx y z = 1\nx = a\ny = b\n")
    code, out, _ = run(capsys, "schema", f, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["system"].startswith("gens: a b")
    assert doc["map"]


def test_schema_trivially_unsolvable(tmp_path, capsys):
    f = write(tmp_path, "s.txt", "gens: a b\nvars: x\nx = 1\na = 1\n")
    code, out, err = run(capsys, "schema", f)
    assert code == 2
    assert out == ""
    assert err == "error: the system is trivially unsolvable (constant relator)\n"


def test_reduce_binpack(tmp_path, capsys):
    code, out, _ = run(
        capsys, "reduce-binpack", "--items", "1,1,2", "--bins", "2", "--cap", "2",
        "--free-form",
    )
    assert code == 0
    assert "vars: z1 z2 z3" in out


@pytest.mark.parametrize("items,verdict", [("2,2,2", "unsat"), ("3,3", "sat")])
def test_reduce_binpack_spacer_form_solves(tmp_path, capsys, items, verdict):
    # the paper's reduction end to end: the spacer form over b, c, d
    code, out, _ = run(capsys, "reduce-binpack", "--items", items, "--bins", "2", "--cap", "3")
    assert code == 0
    assert out.startswith("gens: b c d\n")
    f = write(tmp_path, "pack.txt", out)
    code, out, _ = run(capsys, "solve", f)
    assert code == 0
    assert f"verdict: {verdict}\n" in out


def test_check_equivalence_single(tmp_path, capsys):
    code, out, _ = run(
        capsys, "check-equivalence", "--items", "1,1,2", "--bins", "2", "--cap", "2",
    )
    assert code == 0
    assert "verdict: agree" in out


def test_geneq_trace(tmp_path, capsys):
    f = write(tmp_path, "s.txt", "gens: a b\nvars: x\nx = a\n")
    tr = str(tmp_path / "trace.txt")
    code, out, _ = run(capsys, "geneq-trace", f, "--solve-first", "--trace-out", tr)
    assert code == 0
    assert "status: terminal" in out
    # replay reproduces the terminal equation byte for byte
    code2, out2, _ = run(capsys, "geneq-trace", f, "--replay", tr)
    assert code2 == 0
    # compare the canonical dumps (the part after the report lines)
    dump1 = out.split("bounds ", 1)[1]
    dump2 = out2.split("bounds ", 1)[1]
    assert dump1 == dump2


def test_geneq_trace_solve_first_finds_no_witness_within_the_bound(tmp_path, capsys):
    # x = b conjugates a to b a b^-1, but no value of length 0 does
    f = write(tmp_path, "s.txt", "gens: a b\nvars: x\nx a x^-1 = b a b^-1\n")
    code, out, _ = run(capsys, "geneq-trace", f, "--solve-first", "--max-len", "0")
    assert code == 3
    assert "verdict: no graphical witness within the bound" in out


def test_geneq_trace_binds_a_variable_relator_on_either_side(tmp_path, capsys):
    # 1 = x binds x to 1 just as x = 1 does
    texts = ["gens: a\nvars: x y\n1 = x\nx y = a\n", "gens: a\nvars: x y\nx = 1\nx y = a\n"]
    builds = [from_system(parse_system(t)) for t in texts]
    assert builds[0].geneq.canonical_text() == builds[1].geneq.canonical_text()
    assert builds[0].system == builds[1].system
    f = write(tmp_path, "s.txt", texts[0])
    code, out, _ = run(capsys, "geneq-trace", f)
    assert code == 0
    assert "status: terminal" in out


def test_geneq_trace_json_is_one_document(tmp_path, capsys):
    # the terminal equation goes into the report, in both branches
    f = write(tmp_path, "s.txt", "gens: a b\nvars: x\nx = a\n")
    tr = str(tmp_path / "trace.txt")
    code, out, _ = run(capsys, "geneq-trace", f, "--solve-first", "--trace-out", tr, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "terminal"
    assert doc["terminal"].startswith("bounds ")
    code2, out2, _ = run(capsys, "geneq-trace", f, "--replay", tr, "--json")
    assert code2 == 0
    assert json.loads(out2)["terminal"] == doc["terminal"]
    # the text form still prints the same equation after the report
    code3, out3, _ = run(capsys, "geneq-trace", f, "--replay", tr)
    assert code3 == 0
    assert out3.endswith(doc["terminal"])


def test_geneq_trace_round_budget(tmp_path, capsys):
    # no round allowed: the search is cut before its first round
    f = write(tmp_path, "s.txt", "gens: a b\nvars: x\nx = a\n")
    code, out, _ = run(capsys, "geneq-trace", f, "--budget", "0")
    assert code == 3
    assert "status: budget" in out and "rounds: 0" in out


@pytest.mark.parametrize("text,rounds", [
    ("gens: a b\nvars: x y z\nx b = 1\ny z y x^-1 z = 1\n", 5),
    ("gens: a b\nvars: x y z\nx b a^2 = 1\ny z y x z = 1\n", 6),
])
def test_geneq_trace_search_prunes_bad_cut(tmp_path, capsys, text, rounds):
    # a cut that would delete a boundary still in use prunes its search branch
    f = write(tmp_path, "s.txt", text)
    tr = str(tmp_path / "trace.txt")
    code, out, _ = run(capsys, "geneq-trace", f, "--trace-out", tr)
    assert code == 0
    assert "status: terminal" in out and f"rounds: {rounds}" in out
    code2, out2, _ = run(capsys, "geneq-trace", f, "--replay", tr)
    assert code2 == 0
    assert out.split("bounds ", 1)[1] == out2.split("bounds ", 1)[1]


def test_geneq_trace_search_node_budget(tmp_path, capsys):
    # corpus system 679: the tie search runs out of nodes long before rounds
    f = write(tmp_path, "s.txt", "gens: a b\nvars: x y\nx a b^2 x^-1 = 1\ny^2 = 1\n")
    tr = str(tmp_path / "trace.txt")
    code, out, _ = run(capsys, "geneq-trace", f, "--trace-out", tr)
    assert code == 3
    assert "status: budget" in out
    # it reports the deepest branch it reached, not the untouched input
    rounds = int(out.split("rounds: ", 1)[1].split()[0])
    assert 0 < rounds < 100
    code2, out2, _ = run(capsys, "geneq-trace", f, "--replay", tr)
    assert code2 == 0
    assert out.split("bounds ", 1)[1] == out2.split("bounds ", 1)[1]


def test_geneq_trace_search_exhausted(tmp_path, capsys):
    # corpus system 873: every branch is pruned after one round, no budget ran out
    f = write(tmp_path, "s.txt", "gens: a b\nvars: x y\nx a x = 1\ny^2 = 1\n")
    tr = str(tmp_path / "trace.txt")
    code, out, _ = run(capsys, "geneq-trace", f, "--trace-out", tr)
    assert code == 5
    assert "status: exhausted" in out and "rounds: 1" in out
    code2, out2, _ = run(capsys, "geneq-trace", f, "--replay", tr)
    assert code2 == 0
    assert out.split("bounds ", 1)[1] == out2.split("bounds ", 1)[1]


@pytest.mark.parametrize("argv,trace,message", [
    (["geneq-trace", "{sys}", "--replay", "{trace}"], "tie s1\n",
     "error: trace line 1: expected 'tie NAME INT INT', got 'tie s1'"),
    (["geneq-trace", "{sys}", "--replay", "{trace}"], "contract\n",
     "error: trace line 1: expected 'contract INT', got 'contract'"),
    (["geneq-trace", "{sys}", "--replay", "{trace}"], "contract x\n",
     "error: trace line 1: expected 'contract INT', got 'contract x'"),
    (["geneq-trace", "{sys}", "--replay", "{trace}"], "insert 1 2\n",
     "error: trace line 1: expected 'insert INT', got 'insert 1 2'"),
    (["geneq-trace", "{sys}", "--replay", "{trace}"], "# a comment\n\ntransfer s1\n",
     "error: trace line 3: expected 'transfer NAME NAME', got 'transfer s1'"),
    (["geneq-trace", "{sys}", "--replay", "{trace}"], "tie 1 1 3\n",
     "error: trace line 1: expected 'tie NAME INT INT', got 'tie 1 1 3'"),
    (["geneq-trace", "{sys}", "--replay", "{trace}"], "frobnicate 1\n",
     "error: trace line 1: unknown op 'frobnicate'"),
    (["geneq-trace", "{sys}", "--budget", "-1"], None,
     "error: argument --budget: must be >= 0, got -1"),
    (["reduce-binpack", "--items", "a,1", "--bins", "1", "--cap", "2"], None,
     "error: argument --items: need comma-separated integers, got 'a,1'"),
    (["check-equivalence", "--items", "a,1", "--bins", "1", "--cap", "2"], None,
     "error: argument --items: need comma-separated integers, got 'a,1'"),
    (["check-equivalence", "--items", "1"], None,
     "error: --items needs --bins and --cap"),
    (["oracle", "{sys}", "--max-len", "-1"], None,
     "error: argument --max-len: must be >= 0, got -1"),
    (["oracle", "{sys}", "--limit", "0"], None,
     "error: argument --limit: must be >= 1, got 0"),
    (["oracle", "{sys}", "--limit", "-1"], None,
     "error: argument --limit: must be >= 1, got -1"),
    (["solve", "{sys}", "--bound", "-1"], None,
     "error: argument --bound: must be >= 0, got -1"),
    (["schema", "{sys}", "--lam", "-1"], None,
     "error: argument --lam: must be >= 0, got -1"),
    (["schema", "{sys}", "--mu", "-100"], None,
     "error: argument --mu: must be >= 0, got -100"),
    (["check-equivalence", "--max-items", "-1"], None,
     "error: argument --max-items: must be >= 1, got -1"),
    (["check-equivalence", "--max-cap", "0"], None,
     "error: argument --max-cap: must be >= 1, got 0"),
    (["check-equivalence", "--max-bins", "0"], None,
     "error: argument --max-bins: must be >= 1, got 0"),
    (["solve", "{dir}"], None, "error: cannot read {dir}"),
    (["genus", "{dir}"], None, "error: cannot read {dir}"),
    (["triangulate", "{sys}", "--json"], None, "error: unrecognized arguments: --json"),
    (["reduce-binpack", "--items", "1", "--bins", "1", "--cap", "1", "--timing"], None,
     "error: unrecognized arguments: --timing"),
])
def test_bad_input_exit_code(tmp_path, capsys, argv, trace, message):
    # malformed trace lines and flags are bad input, not internal errors
    paths = {
        "sys": write(tmp_path, "s.txt", "gens: a b\nvars: x y\nx a x = 1\ny^2 = 1\n"),
        "trace": write(tmp_path, "t.txt", trace or ""),
        "dir": str(tmp_path),
    }
    try:
        code = main([a.format(**paths) for a in argv])
    except SystemExit as e:  # argparse rejects the flag
        code = e.code
    err = capsys.readouterr().err
    assert code == 2
    assert message.format(**paths) in err.splitlines()[-1]


def test_triangulate_past_the_generator_limit(tmp_path, capsys):
    # a 120-letter relator over 32 symbols: the chain needs 117 fresh
    # variables, 149 symbols in all, more than a word can hold
    names = [f"x{i}" for i in range(30)]
    relator = " ".join(f"{v} a" for v in names) + " " + " ".join(f"{v}^-1 b" for v in names)
    f = write(tmp_path, "s.txt", f"gens: a b\nvars: {' '.join(names)}\n{relator} = 1\n")
    code, out, err = run(capsys, "triangulate", f)
    assert code == 2
    assert out == ""
    assert err == "error: at most 64 generators supported\n"


@pytest.mark.parametrize("argv", [
    ["surface", "{q}", "--dot", "{missing}/g.dot"],
    ["geneq-trace", "{sys}", "--trace-out", "{missing}/t.txt"],
])
def test_unwritable_output_file(tmp_path, capsys, argv):
    # an output path that cannot be written is bad input, reported before the report
    paths = {
        "q": write(tmp_path, "q.txt", "edges: a\na a\n"),
        "sys": write(tmp_path, "s.txt", "gens: a b\nvars: x\nx = a\n"),
        "missing": str(tmp_path / "missing"),
    }
    argv = [a.format(**paths) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write {argv[-1]}\n"


def test_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    # a bug inside the library is reported on stderr with its own exit code
    def broken(*args, **kwargs):
        raise AssertionError("internal: x")

    monkeypatch.setattr("quadeq.solver.solve_quadratic", broken)
    f = write(tmp_path, "eq.txt", SOLVABLE)
    code, out, err = run(capsys, "solve", f)
    assert code == 4
    assert out == ""
    assert err == "internal error: internal: x\n"


def test_compute_l(capsys):
    code, out, _ = run(None or capsys, "compute-L", "--q", "1", "--delta", "1",
                       "--alphabet", "2")
    assert code == 0
    assert "log2_quotient: 5171200" in out
    code, out, _ = run(capsys, "compute-L", "--q", "1", "--delta", "0", "--alphabet", "1")
    assert "log2_quotient: 5050" in out


def test_unknown_command(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_check_equivalence_sweep(capsys):
    code, out, _ = run(
        capsys, "check-equivalence", "--max-items", "4", "--max-cap", "3", "--no-oracle",
    )
    assert code == 0
    assert "verdict: agree" in out


def _spacer_files(tmp_path):
    """The paper's spacer form of items (2,2,2), N=2, B=3 (unsat at genus 0
    after 648 tabled states), as a system file and a coefficient file."""
    from quadeq.binpack import BinPackInstance, build_equation
    from quadeq.standardize import standardize

    system = build_equation(BinPackInstance((2, 2, 2), 2, 3))
    form = standardize(system).form
    words = [system.alphabet.format(c) for c in (*form.coefficients, form.tail)]
    return (write(tmp_path, "eq.txt", system.render()),
            write(tmp_path, "c.txt", f"gens: {' '.join(system.gens)}\n" + "\n".join(words) + "\n"))


def test_state_cap_is_inconclusive(tmp_path, capsys, monkeypatch):
    import quadeq.solver as sv

    system, coefficients = _spacer_files(tmp_path)
    code, out, _ = run(capsys, "solve", system)
    assert code == 0 and "verdict: unsat" in out
    code, out, _ = run(capsys, "genus", coefficients, "--at", "0")
    assert code == 0 and "verdict: unsolvable" in out
    monkeypatch.setattr(sv, "MAX_STATES", 100)
    code, out, _ = run(capsys, "solve", system)
    assert code == 3 and "verdict: inconclusive" in out
    for at in (("--at", "0"), ()):
        code, out, err = run(capsys, "genus", coefficients, *at)
        assert code == 3 and "verdict: inconclusive" in out and err == ""
