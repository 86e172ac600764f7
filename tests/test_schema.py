import decimal
import random

import pytest

from quadeq.equations import parse_system
from quadeq.oracle import SearchBound, enumerate_solutions, is_satisfiable
from quadeq.schema import (
    CTriple,
    CTripleChoice,
    SchemaError,
    build_schema,
    candidate_length_bound,
    trivial_choice,
    verify_pullback,
)
from quadeq.triangular import triangular_constant_form
from quadeq.words import Alphabet, Word

AL = Alphabet(("a", "b"))


def schema_of(text, length_bound=4):
    f = triangular_constant_form(parse_system(text))
    out = build_schema(f, trivial_choice(len(f.triples), length_bound))
    return f, out


# --- candidate length bound -----------------------------------------------------------


def test_bound_exact_values():
    b = candidate_length_bound(1, 1, 2)
    assert b.exponent == 5050 * 64 * 16 == 5_171_200
    b0 = candidate_length_bound(1, 0, 1)
    assert b0.exponent == 5050
    # q scales L linearly: exponent unchanged, q doubles the value
    b2 = candidate_length_bound(2, 0, 1)
    assert b2.exponent == 5050
    assert b2.expand() == 2 * b0.expand()


def test_bound_digits_small():
    b = candidate_length_bound(1, 0, 1)
    assert b.digits == len(str(1 << 5050))


def test_bound_digits_settle_a_power_of_ten_exactly():
    # 5^k 2^k = 10^k sits on a power of ten, where the logarithm cannot decide
    from quadeq.schema import _digit_count_shifted

    for k in range(1, 41):
        assert _digit_count_shifted(5**k, k) == k + 1


def test_bound_keeps_the_callers_decimal_precision():
    with decimal.localcontext() as ctx:
        ctx.prec = 17
        candidate_length_bound(3, 1, 2)
        assert decimal.getcontext().prec == 17


def test_schema_rejects_negative_parameters():
    f = triangular_constant_form(parse_system("gens: a b\nvars: x y z\nx y z = 1"))
    choice = trivial_choice(len(f.triples), 4)
    with pytest.raises(SchemaError):
        build_schema(f, choice, quasi_lambda=-5)
    with pytest.raises(SchemaError):
        build_schema(f, choice, quasi_mu=-1)


def test_bound_validation():
    with pytest.raises(SchemaError):
        candidate_length_bound(0, 0, 1)
    with pytest.raises(SchemaError):
        candidate_length_bound(1, -1, 1)


# --- schema construction ---------------------------------------------------------------


def test_degenerate_tripod_shapes():
    f, out = schema_of("gens: a b\nvars: z1 z2 z3\nz1 z2 z3 = 1\nz1 = a\nz2 = b")
    # one anchoring equation per constant-bound variable; z3 occurs once in
    # the triangle only, so no matching equation arises for it
    assert len(out.system.equations) == 2
    for eq in out.system.equations:
        assert len(eq.lhs) == 2  # corner pair with trivial candidate word
        assert out.system.is_constant_word(eq.rhs)
    counts = out.system.occurrence_counts()
    assert all(c <= 2 for c in counts.values())


def test_quadratic_preserved():
    f, out = schema_of("gens: a b\nvars: x y\n[x,y] [a,b] = 1")
    counts = out.system.occurrence_counts()
    assert all(c <= 2 for c in counts.values())


def test_size_bound_formula():
    s = parse_system("gens: a b\nvars: x y\nx a y b x^-1 y^-1 a^-1 b^-1 = 1")
    f = triangular_constant_form(s)
    n = f.system.total_length()
    out = build_schema(f, trivial_choice(len(f.triples), 4))
    assert out.system.total_length() <= out.size_bound == n * (4 + 2 * 4 + n)


def test_choice_validation():
    f = triangular_constant_form(parse_system("gens: a\nvars: x y z\nx y z = 1\nx = a"))
    with pytest.raises(SchemaError):
        CTripleChoice((CTriple(AL.word("a"), Word(), Word()),) * len(f.triples), 1)
    # product certificate
    good = CTripleChoice(
        tuple(CTriple(AL.word("a"), AL.word("-a"), Word()) for _ in f.triples), 4
    )
    good.check_products()
    bad = CTripleChoice(
        tuple(CTriple(AL.word("a"), AL.word("a"), Word()) for _ in f.triples), 4
    )
    with pytest.raises(SchemaError):
        bad.check_products()


def test_wrong_triple_count():
    f = triangular_constant_form(parse_system("gens: a\nvars: x y z\nx y z = 1\nx = a"))
    with pytest.raises(SchemaError):
        build_schema(f, trivial_choice(len(f.triples) + 1, 4))


# --- pullback round trips ----------------------------------------------------------------


def test_pullback_tripod():
    s = parse_system("gens: a b\nvars: z1 z2 z3\nz1 z2 z3 = 1\nz2 = a\nz3 = b")
    f = triangular_constant_form(s)
    out = build_schema(f, trivial_choice(len(f.triples), 4))
    phi = is_satisfiable(out.system, SearchBound(2))
    assert phi is not None
    back = verify_pullback(f, out, phi)
    full = dict(back)
    for name, w in f.constant_eqs:
        full.setdefault(name, w)
    assert s.check({n: full[n] for n in s.variables})


def test_pullback_rejects_bad():
    s = parse_system("gens: a b\nvars: z1 z2 z3\nz1 z2 z3 = 1\nz2 = a\nz3 = b")
    f = triangular_constant_form(s)
    out = build_schema(f, trivial_choice(len(f.triples), 4))
    bad = {n: AL.word("a") for n in out.system.variables}
    with pytest.raises(SchemaError):
        verify_pullback(f, out, bad)


def test_identity_solution_roundtrip():
    s = parse_system("gens: a b\nvars: x y\nx y x^-1 y^-1 = 1")
    f = triangular_constant_form(s)
    out = build_schema(f, trivial_choice(len(f.triples), 4))
    phi = {n: Word() for n in out.system.variables}
    assert out.system.check(phi)
    back = verify_pullback(f, out, phi)
    assert all(len(w) == 0 for w in back.values())


@pytest.mark.parametrize("seed", range(25))
def test_random_quadratic_roundtrip(seed):
    from quadeq.schema import tripod_solution
    from test_standardize import random_quadratic_equation

    rng = random.Random(31415 + seed)
    system = random_quadratic_equation(rng)
    if not system.is_quadratic():
        return
    f = triangular_constant_form(system)
    if f.trivially_false:
        return
    out = build_schema(f, trivial_choice(len(f.triples), 4))
    counts = out.system.occurrence_counts()
    assert all(c <= 2 for c in counts.values())
    # solvability transfers via trivial tripods, both directions: a source
    # solution induces corner values; the pullback solves the source again
    for sol in enumerate_solutions(system, SearchBound(1), limit=3):
        full = f.lift(sol)
        phi = tripod_solution(f, out, full)
        back = verify_pullback(f, out, phi)
        merged = dict(back)
        for name, w in f.constant_eqs:
            merged.setdefault(name, w)
        assert system.check({n: merged[n] for n in system.variables})
