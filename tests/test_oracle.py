import hashlib
import itertools
import random

from quadeq.equations import Equation, EquationSystem, parse_system
from quadeq.oracle import (
    SearchBound,
    _hopeless,
    enumerate_solutions,
    is_satisfiable,
    min_solution_stats,
    reduced_words,
)
from quadeq.words import Alphabet, Word, substitute


def test_reduced_words_order_and_counts():
    ws = reduced_words(2, 2)
    # 1 empty + 4 of length 1 + 12 of length 2
    assert len(ws) == 17
    assert ws[0] == Word()
    lens = [len(w) for w in ws]
    assert lens == sorted(lens)
    # duplicate-free
    assert len({w.letters for w in ws}) == len(ws)
    # length-lex: within a length, keys ascend
    for i in range(1, len(ws)):
        assert ws[i - 1].key() < ws[i].key()


def test_centralizer_enumeration():
    s = parse_system("gens: a b\nvars: x\nx^-1 a x = a")
    got = [sol["x"] for sol in enumerate_solutions(s, SearchBound(1))]
    al = s.alphabet
    assert got == [Word(), al.word("a"), al.word("-a")]


def test_square_root_unsat():
    s = parse_system("gens: a b\nvars: x\nx^2 = a")
    assert list(enumerate_solutions(s, SearchBound(5))) == []


def test_commutator_solutions():
    s = parse_system("gens: a b\nvars: x y\n[x,y] [a,b] = 1")
    sols = list(enumerate_solutions(s, SearchBound(1)))
    pairs = {(s_["x"].letters, s_["y"].letters) for s_ in sols}
    al = s.alphabet
    assert (al.word("b").letters, al.word("a").letters) in pairs
    for sol in sols:
        assert s.check(sol)


def test_stream_is_sorted_and_duplicate_free():
    s = parse_system("gens: a b\nvars: x y\nx^-1 y = 1")
    sols = list(enumerate_solutions(s, SearchBound(2)))
    keys = [tuple(sol[v].key() for v in ("x", "y")) for sol in sols]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    # x = y always: completeness within bound
    assert len(sols) == 17


def test_doubling_bound_keeps_solutions():
    s = parse_system("gens: a b\nvars: x\nx^-1 a x = a")
    small = {sol["x"].letters for sol in enumerate_solutions(s, SearchBound(1))}
    big = {sol["x"].letters for sol in enumerate_solutions(s, SearchBound(2))}
    assert small <= big


def test_min_solution_stats_examples():
    s = parse_system("gens: a b\nvars: x y\n[x,y] [a,b] = 1")
    assert min_solution_stats(s, SearchBound(2)) == 1

    s = parse_system("gens: a b\nvars: x\nx = a")
    assert min_solution_stats(s, SearchBound(2)) == 1

    s = parse_system("gens: a b\nvars: x\nx^2 a^2 = 1")
    assert min_solution_stats(s, SearchBound(2)) == 1

    s = parse_system("gens: a b\nvars: x\nx^2 = a")
    assert min_solution_stats(s, SearchBound(3)) is None

    # the square root of a conjugate: x = b a b^-1
    s = parse_system("gens: a b\nvars: x\nx^2 = b a^2 b^-1")
    assert min_solution_stats(s, SearchBound(3)) == 3


def test_total_bound():
    s = parse_system("gens: a b\nvars: x y\nx^-1 y = 1")
    sols = list(enumerate_solutions(s, SearchBound(2, total=2)))
    assert all(len(sol["x"]) + len(sol["y"]) <= 2 for sol in sols)


def test_total_bound_counts_each_value_once():
    # x = ab with y = 1 fits total 2: the cap counts the values assigned,
    # not also the word that x held before ab in the enumeration, b^-1
    s = parse_system("gens: a b\nvars: x y\nx = a b\ny = 1")
    sols = list(enumerate_solutions(s, SearchBound(2, total=2)))
    assert sols == [{"x": s.alphabet.word("a", "b"), "y": Word()}]


def test_constant_run_bound_counts_other_runs():
    # a x a^-1 x^-1 has two constant letters and nothing to cancel them at
    # bound 0, yet x = 1 solves it: the two runs cancel each other
    s = parse_system("gens: a b\nvars: x\n[a, x] = 1")
    assert is_satisfiable(s, SearchBound(0)) == {"x": Word()}


def test_constant_run_bound_on_squares():
    # x^2 y^2 W^-1 has one constant run, W^-1, so the root is hopeless
    # exactly below |W| / 4, and no bound below that has a solution; the
    # planted W = u^2 v^2 have one with |u|, |v| <= 4
    for i, s in enumerate(_squares_systems(20)):
        w = len(s.equations[0].rhs)
        root = s.relators()[0].packed
        for ell in range(6):
            assert _hopeless(root, ell, 4) == (4 * ell < w), (s.render(), ell)
        least = min_solution_stats(s, SearchBound(4))
        assert least is not None or i % 5 == 4
        assert least is None or 4 * least >= w


def test_witness_for_conjugate_words():
    s = parse_system("gens: a b\nvars: z\nz^-1 (a b) z = b a")
    sol = is_satisfiable(s, SearchBound(2))
    assert sol is not None
    assert s.check(sol)


def test_multi_equation_coupling():
    s = parse_system("gens: a b\nvars: x y\nx a = y\ny^-1 x^-1 = a")
    # x a = y and y x = a^-1 => (x a) x = a^-1
    sols = list(enumerate_solutions(s, SearchBound(3)))
    for sol in sols:
        assert s.check(sol)


# --- the whole stream, pinned ---------------------------------------------------

def _stream_digest(cases) -> str:
    """SHA-256 over (system, bound, limit) cases of every solution's letters,
    in stream order; a separator closes each case's stream."""
    h = hashlib.sha256()
    for system, bound, limit in cases:
        for sol in enumerate_solutions(system, bound, limit):
            h.update(repr([tuple(sol[n]) for n in system.variables]).encode())
        h.update(b"|")
    return h.hexdigest()


XXYY = Alphabet(("a", "b", "x", "y")).word("x", "x", "y", "y")


def _squares_systems(n: int = 50) -> list:
    """Seeded x^2 y^2 = W with W = u^2 v^2 for random u, v of length <= 4,
    every fifth W a random word instead; |W| <= 16."""
    rng = random.Random(16)
    words = reduced_words(2, 4)
    out = []
    for i in range(n):
        if i % 5 == 4:
            w = Word(rng.choice(words).letters + rng.choice(words).letters)
        else:
            u, v = rng.choice(words), rng.choice(words)
            w = u * u * v * v
        out.append(EquationSystem(("a", "b"), ("x", "y"), (Equation(XXYY, w),)))
    return out


# digests of the stream of the Word-based oracle, before it ran on packed
# letters; the capped one with the total cap counting each value once
# (test_total_bound_counts_each_value_once)
STREAM_PINS = {
    "corpus_bound_1": "1b54f88290318ef0b502f3c3fe478ffc2aba2e381a0cb6237fcdbe8cdc1806e4",
    "corpus_bound_2_total_3_limit_20":
        "9a459fe51fe5771f2bae60cefbc7d4c30d066664af4337ce39fd75d9cede42d6",
    "squares_bound_4": "cb3dca2353da6671b684c6f19f326723a27462b6aea688ecd83d2824b98c056c",
}


def test_stream_parity_pinned():
    from corpus import corpus_systems

    systems = corpus_systems()[::25]
    squares = _squares_systems()
    got = {
        "corpus_bound_1": _stream_digest((s, SearchBound(1), None) for s in systems),
        "corpus_bound_2_total_3_limit_20": _stream_digest(
            (s, SearchBound(2, total=3), 20) for s in systems),
        "squares_bound_4": _stream_digest((s, SearchBound(4), None) for s in squares),
    }
    assert got == STREAM_PINS


# --- completeness against a naive enumerator --------------------------------------

# (variables, equations with {0} and {1} for constant words, per-variable
# bound, total cap); each equation reads ``lhs = W``
SHAPES = [
    ("x y", ["x {0} y {1}"], 2, None),  # single occurrences
    ("x", ["x^2 {0}"], 3, None),  # z^n = K
    ("x", ["x^3 {0}"], 2, None),  # not quadratic: enumerated, not closed
    ("x", ["x^-1 {0} x {1}"], 2, None),  # conjugation sandwiches
    ("x", ["x {0} x^-1 {1}"], 2, None),
    ("x", ["x {0} x {1}"], 2, None),  # same sign around a middle
    ("x y", ["x^2 y^2 {0}"], 2, None),
    ("x y", ["[x, y] {0}"], 1, None),
    ("x y", ["x {0} y^-1", "y x {1}"], 2, None),  # two equations coupled
    ("x y", ["x {0}"], 2, None),  # y occurs nowhere
    ("x y", ["x {0} y^-1 {1}"], 2, 2),  # total caps
    ("x y z", ["x {0} y z^-1 {1}"], 1, 2),
    ("x y z", ["x y {0} z"], 1, None),
]


def _naive_solutions(system, bound):
    """Every assignment within the bound that check() accepts, sorted by the
    variables' keys: the stream order of enumerate_solutions."""
    words = reduced_words(system.n_constants, bound.per_var)
    sols = []
    for values in itertools.product(words, repeat=len(system.variables)):
        if bound.total is None or sum(map(len, values)) <= bound.total:
            sol = dict(zip(system.variables, values))
            if system.check(sol):
                sols.append(sol)
    return sorted(sols, key=lambda sol: tuple(sol[v].key() for v in system.variables))


def _system(names, lhs_lines, per_var, planted, rng):
    """The system ``lhs = W`` for each line."""
    base = parse_system(f"gens: a b\nvars: {names}\n" + "\n".join(f"{l} = 1" for l in lhs_lines))
    values = {base.var_sym(n): rng.choice(reduced_words(2, per_var)) for n in base.variables}
    rhs = [substitute(eq.lhs, values) if planted else rng.choice(reduced_words(2, 3))
           for eq in base.equations]
    return EquationSystem(base.gens, base.variables,
                          tuple(Equation(eq.lhs, w) for eq, w in zip(base.equations, rhs)))


AB = Alphabet(("a", "b"))


def test_enumeration_matches_naive_product():
    rng = random.Random(5)
    short = reduced_words(2, 2)
    checked = hits = 0
    for names, lines, per_var, total in SHAPES:
        for i in range(16):
            consts = [rng.choice(short) for _ in range(2)]
            lhs = [line.format(*(f"({AB.format(c)})" for c in consts)) for line in lines]
            s = _system(names, lhs, per_var, i % 2 == 0, rng)
            bound = SearchBound(per_var, total)
            got = list(enumerate_solutions(s, bound))
            assert got == _naive_solutions(s, bound), s.render()
            checked += 1
            hits += bool(got)
    assert checked == 16 * len(SHAPES) and hits >= checked // 2
