import hashlib
import random

import pytest

from quadeq.equations import Equation, EquationError, parse_system
from quadeq.parsing import parse_word
from quadeq.triangular import triangular_constant_form, triangulate
from quadeq.words import Generator, Word


def sys_of(text):
    return parse_system(text)


def test_parse_system_roundtrip():
    s = sys_of("""
    gens: a b
    vars: x y
    [x,y] [a,b] = 1
    """)
    assert s.gens == ("a", "b")
    assert s.variables == ("x", "y")
    assert s.is_quadratic()
    assert s.total_length() == 8
    # render -> parse is stable
    s2 = parse_system(s.render())
    assert s2 == s


def test_two_sided_equation():
    s = sys_of("gens: a\nvars: x\nx^2 = a a")
    assert s.equations[0].rhs == parse_word("a a", s.alphabet)
    assert s.is_quadratic()


def test_occurrence_counts_and_quadratic():
    s = sys_of("gens: a\nvars: x y\nx a y = 1\ny^-1 a x^-1 = 1")
    assert s.occurrence_counts() == {s.var_sym("x"): 2, s.var_sym("y"): 2}
    assert s.is_quadratic()
    s2 = sys_of("gens: a\nvars: x\nx a = 1")
    assert not s2.is_quadratic()


def test_check_assignment():
    s = sys_of("gens: a b\nvars: x y\n[x,y] [a,b] = 1")
    assert s.check({"x": s.alphabet.word("b"), "y": s.alphabet.word("a")})
    assert not s.check({"x": s.alphabet.word("a"), "y": s.alphabet.word("b")})


def test_bad_system():
    with pytest.raises(EquationError):
        sys_of("vars: x\nx = 1")
    with pytest.raises(EquationError):
        sys_of("gens: a\nvars: a\n")


def test_system_refuses_an_undeclared_symbol_and_builds_its_alphabet_once():
    from quadeq.equations import EquationSystem

    x = Word((Generator(1, 1),))
    with pytest.raises(EquationError, match="undeclared symbol index 2"):
        EquationSystem(("a",), ("x",), (Equation(x, Word((Generator(0, 1), Generator(2, -1)))),))
    s = EquationSystem(("a",), ("x",), (Equation(x, Word()),))
    assert s.alphabet is s.alphabet and s.alphabet.names == ("a", "x")


# --- triangulation -----------------------------------------------------------

def test_triangulate_five_letters():
    s = sys_of("gens: a\nvars: y1 y2 y3 y4 y5\ny1 y2 y3 y4 y5 = 1")
    t = triangulate(s)
    assert len(t.system.equations) == 3
    al = t.system.alphabet
    words = [t.system.format_word(eq.relator()) for eq in t.system.equations]
    assert words == ["y1 y2 x1", "x1^-1 y3 x2", "x2^-1 y4 y5"]
    assert al is not None


def test_triangulate_short_unchanged():
    s = sys_of("gens: a\nvars: x y\nx y a = 1")
    t = triangulate(s)
    assert t.system.equations == (Equation(s.equations[0].relator()),)
    assert t.fresh == ()


def test_triangulate_quadratic_preserved():
    s = sys_of("gens: a\nvars: x y\n[x,y] a = 1")
    assert s.is_quadratic()
    t = triangulate(s)
    assert t.system.is_quadratic()
    counts = t.system.occurrence_counts()
    for name in t.fresh:
        assert counts[t.system.var_sym(name)] == 2


def test_triangulate_size_bound():
    s = sys_of("gens: a b\nvars: x y z\nx a y b z x^-1 y^-1 a z^-1 = 1")
    t = triangulate(s)
    n = s.total_length()
    assert t.system.total_length() <= (n - 2) * 3 * n


def test_triangulate_lift_project():
    s = sys_of("gens: a b\nvars: x y\n[x,y] [a,b] = 1")
    t = triangulate(s)
    # find a solution of S by brute force over tiny words, then lift
    from quadeq.oracle import SearchBound, enumerate_solutions

    sols = list(enumerate_solutions(s, SearchBound(1)))
    assert sols, "sanity: the corpus equation should have a tiny solution"
    for sol in sols[:5]:
        lifted = t.lift(sol)
        assert t.system.check(lifted)
        assert t.project(lifted) == sol


# --- triangular + constant form ----------------------------------------------

def test_tcf_shapes():
    s = sys_of("gens: a b\nvars: x y\nx a y b x^-1 y^-1 = 1")
    f = triangular_constant_form(s)
    assert not f.trivially_false
    # every equation is a pure triple or a constant binding
    base = len(f.system.gens)
    for eq in f.system.equations:
        rel = eq.lhs
        if len(eq.rhs) == 0 and len(rel) == 3:
            assert all(g.sym >= base for g in rel)
        else:
            assert len(eq.lhs) == 1 and eq.lhs[0].sym >= base
            assert f.system.is_constant_word(eq.rhs)
    assert f.system.is_quadratic()


def test_tcf_single_constant_equation():
    s = sys_of("gens: a\nvars: x\nx = a")
    f = triangular_constant_form(s)
    assert f.triples == ()
    assert len(f.constant_eqs) == 1


def test_tcf_lift_solves():
    s = sys_of("gens: a b\nvars: x y\n[x,y] [a,b] = 1")
    f = triangular_constant_form(s)
    from quadeq.oracle import SearchBound, enumerate_solutions

    count = 0
    for sol in enumerate_solutions(s, SearchBound(1), limit=3):
        full = f.lift(sol)
        assert f.system.check(full)
        count += 1
    assert count


def test_tcf_trivially_false():
    s = sys_of("gens: a\nvars: x\na a = 1\nx x^-1 a^0 = 1")
    f = triangular_constant_form(s)
    assert f.trivially_false


# Every 1000th corpus system with a seeded random assignment of its variables
# (not a solution as a rule): (corpus index, digest of the lifted assignment),
# the digest taken as in test_solver.py's pinned corpus solutions.
LIFT_PINS = [
    (0, '8423fd9c9db4725e'),
    (1000, 'd88ea0c02270b0f8'),
    (2000, '1afa869807f7c0f2'),
    (3000, '16648296c6a5b0c3'),
    (4000, 'cb16d7dd55ce806d'),
    (5000, '30953ba4ad653912'),
    (6000, 'd02d217117465274'),
    (7000, 'a7f1a7fec94a3fdc'),
    (8000, '3369bbc9edaa0f6a'),
    (9000, '20e2dc95d84a17c8'),
    (10000, '12dc983fb31c2dc6'),
    (11000, 'a42aa4f26915ecfe'),
    (12000, '10ed53a6228066ba'),
    (13000, '1763653851170ec8'),
    (14000, 'a4756a2771f2979b'),
    (15000, 'c20c4cc39c309ce3'),
    (16000, 'a1d19721f4919b3c'),
    (17000, 'deef249cd04bb365'),
    (18000, '7bb9310eafabc09c'),
    (19000, 'fd7641066b245318'),
    (20000, '352a2c67c4fb0047'),
    (21000, '6b1ddc373f12f85d'),
    (22000, 'aa9185c36d5b2587'),
    (23000, '9343ca491608ef8b'),
    (24000, '0e7d63141f84855e'),
    (25000, '41b20261afb04779'),
    (26000, '38bf86c6c13fe8cf'),
    (27000, '190c8d938e02098c'),
    (28000, '08014b6317867399'),
    (29000, '32aacfa078230a6e'),
]


def _random_word(rng, n_gens, length):
    letters = []
    while len(letters) < length:
        g = Generator(rng.randrange(n_gens), rng.choice((1, -1)))
        if not letters or letters[-1] != g.inv():
            letters.append(g)
    return Word(letters)


def test_tcf_lift_pinned_corpus():
    from corpus import corpus_systems

    systems = corpus_systems()
    for i, pinned in LIFT_PINS:
        s = systems[i]
        f = triangular_constant_form(s)
        rng = random.Random(i)
        sol = {n: _random_word(rng, len(s.gens), rng.randint(0, 3)) for n in s.variables}
        lifted = f.lift(sol)
        text = "; ".join(f"{n} = {f.system.format_word(w)}" for n, w in sorted(lifted.items()))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == pinned, i
