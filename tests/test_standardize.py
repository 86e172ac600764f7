import hashlib
import random

import pytest

from quadeq.equations import EquationSystem, Equation, parse_system
from quadeq.oracle import SearchBound, enumerate_solutions
from quadeq.standardize import (
    NONORIENTABLE,
    ORIENTABLE,
    StandardizeError,
    standardize,
)
from quadeq.words import Generator, Word


def std(text):
    return standardize(parse_system(text))


def test_already_standard_orientable():
    nz = std("gens: a b\nvars: x y\n[x,y] [a,b] = 1")
    assert nz.form.kind == ORIENTABLE
    assert nz.form.genus == 1
    assert nz.form.coefficients == ()
    al = nz.original.alphabet
    assert nz.form.tail == al.word("-a", "-b", "a", "b")  # the coefficient [a,b]


def test_already_standard_square():
    nz = std("gens: a b\nvars: x\nx^2 a = 1")
    assert nz.form.kind == NONORIENTABLE
    assert nz.form.genus == 1
    assert nz.form.coefficients == ()
    assert nz.form.tail == nz.original.alphabet.word("a")


def test_mixed_same_sign():
    nz = std("gens: a b\nvars: x\nx a x b = 1")
    assert nz.form.kind == NONORIENTABLE
    assert nz.form.genus == 1


def test_conjugated_coefficient():
    nz = std("gens: a b\nvars: z\nz^-1 a z b = 1")
    assert nz.form.kind == ORIENTABLE
    assert nz.form.genus == 0
    assert len(nz.form.coefficients) == 1


def test_non_quadratic_rejected():
    with pytest.raises(StandardizeError):
        std("gens: a\nvars: x\nx a = 1")
    with pytest.raises(StandardizeError):
        std("gens: a\nvars: x y\nx y = 1\ny x = 1")  # two equations


def test_constants_only():
    nz = std("gens: a b\nvars:\na b = 1")
    assert nz.form.genus == 0 and nz.form.kind == ORIENTABLE
    assert nz.form.tail == nz.original.alphabet.word("a", "b")


def test_kind_matches_same_sign_pairs():
    cases = [
        ("x^2 = a", NONORIENTABLE),
        ("x y x^-1 y^-1 = a b", ORIENTABLE),
        ("x a y b x^-1 y^-1 = 1", ORIENTABLE),
        ("x y x y^-1 = 1", NONORIENTABLE),
    ]
    for eq, kind in cases:
        nz = std(f"gens: a b\nvars: x y\n{eq}" if "y" in eq else f"gens: a b\nvars: x\n{eq}")
        assert nz.form.kind == kind, eq


def test_negative_square_beside_a_handle():
    # phase 1 leaves an adjacent x^-1 x^-1 as it is, so crosscap absorption
    # has to flip it before its script
    system = parse_system("gens: a b\nvars: x y z\nx^-2 [y,z] a^2 = 1")
    nz = standardize(system)
    assert (nz.form.kind, nz.form.genus, nz.form.coefficients) == (NONORIENTABLE, 3, ())
    assert nz.system.render().splitlines()[-1] == "x1^2 x2^2 x3^2 a^2 = 1"
    sols = list(enumerate_solutions(nz.system, SearchBound(1), limit=4))
    assert sols and all(system.check(nz.to_original(sol)) for sol in sols)


# --- randomized transport corpus ----------------------------------------------------


def random_quadratic_equation(rng: random.Random) -> EquationSystem:
    n_vars = rng.randint(1, 3)
    names = tuple("xyz"[:n_vars])
    sys0 = EquationSystem(("a", "b"), names, ())
    al = sys0.alphabet
    letters = []
    for i, n in enumerate(names):
        s = al.index(n)
        letters.append(Generator(s, rng.choice((1, -1))))
        letters.append(Generator(s, rng.choice((1, -1))))
    rng.shuffle(letters)
    word: list[Generator] = []
    consts = ["a", "b", "-a", "-b"]
    for g in letters:
        while rng.random() < 0.4:
            word.append(al.gen(rng.choice(consts).lstrip("-"),
                               -1 if rng.random() < 0.5 else 1))
        word.append(g)
    eq = Equation(Word(word))
    system = EquationSystem(("a", "b"), names, (eq,))
    return system


@pytest.mark.parametrize("seed", range(40))
def test_transport_roundtrip(seed):
    rng = random.Random(seed)
    system = random_quadratic_equation(rng)
    if not system.is_quadratic():
        return  # reduction merged occurrences; skip this draw
    nz = standardize(system)

    # the standard system is a single quadratic equation of the declared shape
    assert nz.system.is_quadratic() or not nz.system.variables

    found = 0
    for sol in enumerate_solutions(system, SearchBound(1), limit=4):
        pushed = nz.to_standard(sol)
        assert nz.system.check(pushed), (system.render(), sol, pushed)
        found += 1

    for sol in enumerate_solutions(nz.system, SearchBound(1), limit=4):
        pulled = nz.to_original(sol)
        assert system.check(pulled), (system.render(), sol, pulled)
        found += 1

    # solvability equivalence in the small: if one side has a tiny solution,
    # the other side is solvable too (its transported witness checks out above)
    _ = found


@pytest.mark.parametrize("seed", range(40))
def test_transport_inverts_any_assignment(seed):
    # the moves are automorphisms, so the transports invert each other on
    # every assignment, solution or not; a variable that vanishes from the
    # standard form comes back as 1, so that direction needs none to vanish
    rng = random.Random(seed)
    system = random_quadratic_equation(rng)
    if not system.is_quadratic():
        return
    nz = standardize(system)
    words = [system.alphabet.word(*w) for w in ((), ("a",), ("b", "-a"), ("a", "a", "b"))]
    u = {n: rng.choice(words) for n in nz.system.variables}
    assert nz.to_standard(nz.to_original(u)) == u
    if len(nz.system.variables) == len(system.variables):
        v = {n: rng.choice(words) for n in system.variables}
        assert nz.to_original(nz.to_standard(v)) == v


@pytest.mark.parametrize("seed", range(40, 60))
def test_standardize_deterministic(seed):
    rng = random.Random(seed)
    system = random_quadratic_equation(rng)
    if not system.is_quadratic():
        return
    nz1 = standardize(system)
    nz2 = standardize(system)
    assert nz1.form == nz2.form
    assert nz1.system.render() == nz2.system.render()


# --- nested coefficient pairs ---------------------------------------------------------
# Assembly places every open pair: the innermost pair has a constant gap K
# and becomes z^-1 K z behind the prefix, which empties its parent's gap.


@pytest.mark.parametrize("vars_,eq,kind,genus,coefficients,tail", [
    # three deep: z inside y inside x
    ("x y z", "x a y b^-1 z b a^-1 z^-1 y^-1 b x^-1 b^-1",
     ORIENTABLE, 0, ("a b", "b a^-1", "b^-1"), "b^-1"),
    # the same depth beside a side-by-side pair w
    ("x y z w", "w a^-1 w^-1 a^-1 x a^-1 y a b z a z^-1 b^-1 y^-1 b^-1 x^-1 a b",
     ORIENTABLE, 0, ("a", "a", "a^-1", "a^-1 b^-1"), "b"),
    # next to a handle
    ("x y z u v", "[u,v] x b a^-1 y b^-1 z a^-1 z^-1 a^-1 y^-1 a x^-1 a^2",
     ORIENTABLE, 1, ("a^-1", "b", "b^-1 a^-1"), "a^2"),
    # a handle inside the nest
    ("x y z u v", "x a^-1 y [u,v] z b^-1 z^-1 a b y^-1 a^-1 x^-1 a",
     ORIENTABLE, 1, ("a b", "a^-2", "b^-1"), "a"),
    # a square inside the nest
    ("x y z u", "x a y b a^-1 u^2 a^2 z b^-1 z^-1 a b y^-1 b^-1 x^-1 a^-1",
     NONORIENTABLE, 1, ("a b^-1", "b a^2 b", "b^-1"), "a^-1"),
])
def test_nested_coefficient_pairs(vars_, eq, kind, genus, coefficients, tail):
    system = parse_system(f"gens: a b\nvars: {vars_}\n{eq} = 1")
    nz = standardize(system)
    al = system.alphabet
    assert (nz.form.kind, nz.form.genus) == (kind, genus)
    assert sorted(al.format(c) for c in nz.form.coefficients) == sorted(coefficients)
    assert al.format(nz.form.tail) == tail
    found = 0
    for sol in enumerate_solutions(nz.system, SearchBound(1), limit=4):
        assert system.check(nz.to_original(sol)), (eq, sol)
        found += 1
    assert found > 0


# --- pinned normal forms ---------------------------------------------------------------


def test_standard_forms_pinned_corpus():
    # solve pins verdicts and sat witnesses only; this pins the form, the
    # standard system and the transport of every 10th single-equation corpus
    # system, sat or not
    from corpus import corpus_systems

    h = hashlib.sha256()
    singles = [s for s in corpus_systems() if len(s.equations) == 1]
    for system in singles[::10]:
        nz = standardize(system)
        al = system.alphabet
        form = nz.form
        trivial = nz.to_original({n: Word() for n in nz.system.variables})
        h.update(repr((
            form.kind, form.genus, [al.format(c) for c in form.coefficients],
            al.format(form.tail), nz.system.render(),
            sorted((n, al.format(w)) for n, w in trivial.items()),
        )).encode())
    assert (len(singles[::10]), h.hexdigest()[:16]) == (482, "986870e1a2c572d5")
