import hashlib
import itertools

import pytest

from quadeq.equations import parse_system
from quadeq.geneq import (
    GenEq,
    GenEqError,
    GenEqSolution,
    contract_item,
    entire_transform,
    et1_cut,
    et3_remove_matched,
    et4_remove_lone,
    et5_insert,
    from_system,
    parse_trace,
    render_trace,
    replay_trace,
)
from quadeq.oracle import SearchBound, enumerate_solutions
from quadeq.words import Alphabet, Generator, Word

AL = Alphabet(("a", "b"))


def build(text):
    return from_system(parse_system(text))


# --- construction -------------------------------------------------------------------


def test_from_system_constant_equation():
    b = build("gens: a b\nvars: x\nx = a")
    ge = b.geneq
    # item for x, item for a, twin for a
    assert ge.rho == 3
    assert ge.nbound == 4
    assert len(ge.constant_bases()) == 1
    assert ge.is_quadratic()


def test_from_system_triangular():
    b = build("gens: a b\nvars: x y z\nx y z = 1")
    ge = b.geneq
    # relator split into sides xy | z^-1: one side pair, no repeats
    assert len(ge.nonconstant_bases()) == 2
    assert ge.is_quadratic()


def test_from_system_repeated_variable():
    b = build("gens: a b\nvars: x\nx a = x b")
    ge = b.geneq
    names = {bb.name for bb in ge.bases}
    assert any(n.startswith("v") for n in names)
    assert ge.is_quadratic()


def first_graphical(build_result, system, bound=1, limit=10):
    for sol in enumerate_solutions(system, SearchBound(bound), limit=limit):
        try:
            return sol, build_result.push(sol)
        except GenEqError:
            continue
    return None, None


def test_push_pull_roundtrip():
    s = parse_system("gens: a b\nvars: x y\n[x,y] [a,b] = 1")
    b = from_system(s)
    count = 0
    for sol in enumerate_solutions(s, SearchBound(1), limit=10):
        try:
            gsol = b.push(sol)
        except GenEqError:
            continue  # cancelling assignments have no graphical reading
        assert gsol.verify(b.geneq)
        back = b.pull(gsol)
        assert b.system.check(back)
        count += 1
    assert count


def test_solution_rejects_bad():
    s = parse_system("gens: a b\nvars: x\nx = a")
    b = from_system(s)
    good = b.push({"x": AL.word("a")})
    assert good.verify(b.geneq)
    bad = GenEqSolution(AL.word("b").letters + good.letters[1:], good.at)
    assert not bad.verify(b.geneq)


def test_solution_moved_under_each_boundary_map():
    from quadeq.geneq import _cut, _merge, _split

    # items h_1..h_4 = a, 1, b a, b^-1 on boundaries 1..5
    sol = GenEqSolution(AL.word("a", "b", "a", "-b").letters, (0, 0, 1, 1, 3, 4))

    def items(s):
        return [AL.format(s.item(j)) for j in range(1, len(s.at) - 1)]

    assert items(sol) == ["a", "1", "b a", "b^-1"]
    assert items(sol.moved(_merge(2))) == ["a", "b a", "b^-1"]
    assert items(sol.moved(_split(3), 2)) == ["a", "1", "b", "a", "b^-1"]
    assert items(sol.moved(_cut(4, 1))) == ["a", "1", "b a b^-1"]
    dropped = sol.moved(_cut(1, 2))
    assert items(dropped) == ["b a", "b^-1"]
    assert dropped == GenEqSolution(AL.word("b", "a", "-b").letters, (0, 0, 2, 3))


# --- elementary transformations --------------------------------------------------------


def test_et3_matched_removal():
    from quadeq.geneq import Base

    ge = GenEq(
        gens=("a",),
        nbound=4,
        bases=(
            Base("l", 1, 3, 1, dual="l*"),
            Base("l*", 1, 3, 1, dual="l"),
            Base("k", 3, 4, 1, label=Generator(0, 1)),
        ),
        connections=(),
        rho=3,
    )
    out = et3_remove_matched(ge, "l")
    assert [b.name for b in out.bases] == ["k"]


def test_et4_lone_removal_renumbers():
    from quadeq.geneq import Base

    ge = GenEq(
        gens=("a",),
        nbound=6,
        bases=(
            Base("l", 1, 4, 1, dual="l*"),
            Base("l*", 4, 5, -1, dual="l"),
            Base("k", 5, 6, 1, label=Generator(0, 1)),
        ),
        connections=(),
        rho=5,
    )
    out = et4_remove_lone(ge, "l")
    # interior boundaries 2,3 deleted; spans shift down by 2
    assert out.nbound == 4
    assert {b.name for b in out.bases} == {"k"}
    assert out.base("k").lo == 3


def test_et5_insert_shifts():
    from quadeq.geneq import Base

    ge = GenEq(
        gens=("a",),
        nbound=4,
        bases=(
            Base("l", 1, 3, 1, dual="l*"),
            Base("l*", 1, 3, 1, dual="l"),
            Base("k", 3, 4, 1, label=Generator(0, 1)),
        ),
        connections=((1, "l", 1),),
        rho=3,
    )
    out = et5_insert(ge, 1)
    assert out.nbound == 5
    assert out.base("k").lo == 4
    assert out.connections == ((1, "l", 1),)


def test_et1_cut_with_connection():
    from quadeq.geneq import Base

    ge = GenEq(
        gens=("a",),
        nbound=5,
        bases=(
            Base("l", 1, 3, 1, dual="l*"),
            Base("l*", 3, 5, 1, dual="l"),
        ),
        connections=((2, "l", 4),),
        rho=5,
    )
    out = et1_cut(ge, "l", 2)
    names = sorted(b.name for b in out.bases)
    assert names == ["l*.1", "l*.2", "l.1", "l.2"]
    assert out.base("l.1").hi == 2
    assert out.base("l*.1").lo == 3 and out.base("l*.1").hi == 4

    with pytest.raises(GenEqError):
        et1_cut(ge, "l", 1)  # not internal
    ge2 = GenEq(gens=ge.gens, nbound=5, bases=ge.bases, connections=(), rho=5)
    with pytest.raises(GenEqError):
        et1_cut(ge2, "l", 2)  # no connection


def et_solution_sets(ge, max_len=1):
    """Enumerate all generalized-equation solutions with tiny items."""
    from quadeq.oracle import reduced_words

    words = reduced_words(len(ge.gens), max_len)
    items = list(ge.items())
    sols = []
    for combo in itertools.product(words, repeat=len(items)):
        sol = GenEqSolution(
            sum((w.letters for w in combo), ()), (0, *itertools.accumulate(map(len, combo), initial=0))
        )
        if sol.verify(ge):
            sols.append(tuple(w.letters for w in combo))
    return set(sols)


def test_et_carrier_soundness_small():
    from quadeq.geneq import Base

    ge = GenEq(
        gens=("a", "b"),
        nbound=5,
        bases=(
            Base("l", 1, 3, 1, dual="l*"),
            Base("l*", 3, 5, 1, dual="l"),
        ),
        connections=((2, "l", 4),),
        rho=5,
    )
    before = et_solution_sets(ge)
    after = et_solution_sets(et1_cut(ge, "l", 2))
    # every solution factors through the cut output (identity carrier); the
    # output may admit more graphical solutions (the long-span reading is
    # relaxed), which is the one-sided guarantee elementary moves give
    assert before <= after
    assert before


# --- entire transformation ---------------------------------------------------------


def test_entire_transform_constant_equation_terminal():
    b = build("gens: a b\nvars: x\nx = a")
    sol = b.push({"x": AL.word("a")})
    res = entire_transform(b.geneq, budget=10, solution=sol)
    assert res.status == "terminal"
    assert res.solution.verify(res.terminal)


def test_entire_transform_with_solution_and_no_round_allowed():
    b = build("gens: a b\nvars: x\nx = a")
    res = entire_transform(b.geneq, budget=0, solution=b.push({"x": AL.word("a")}))
    assert res.status == "budget" and res.rounds == 0
    assert res.solution.verify(res.terminal)


def test_entire_transform_triangular_with_constants():
    s = parse_system(
        "gens: a b c\nvars: x y z\nx y z = 1\nx = a\ny = b\nz = (c^-1 b a)^-1"
    )
    # consistency: x y z = a b (a^-1 b^-1 c) ... pick constants that multiply to 1
    al = s.alphabet
    sol = {
        "x": al.word("a"),
        "y": al.word("b"),
        "z": al.word("-b", "-a"),
    }
    s = parse_system(
        "gens: a b c\nvars: x y z\nx y z = 1\nx = a\ny = b\nz = b^-1 a^-1"
    )
    assert s.check(sol)
    b = from_system(s)
    gsol = b.push(sol)
    assert gsol.verify(b.geneq)
    res = entire_transform(b.geneq, budget=b.geneq.nbound, solution=gsol)
    assert res.status == "terminal"
    assert res.rounds <= b.geneq.nbound


def test_entire_transform_trace_replay_byte_exact():
    s = parse_system("gens: a b\nvars: x y\n[x,y] [a,b] = 1")
    b = from_system(s)
    _sol, gsol = first_graphical(b, s, bound=1, limit=20)
    assert gsol is not None
    res = entire_transform(b.geneq, budget=50, solution=gsol)
    assert res.status in ("terminal", "repeat")
    replayed = replay_trace(b.geneq, res.trace)
    assert replayed.canonical_text() == res.terminal.canonical_text()
    # the rendered trace round-trips through its text format
    text = render_trace(res.trace)
    assert [op.render() for op in parse_trace(text)] == [op.render() for op in res.trace]


def test_entire_transform_never_adds_bases_and_stays_quadratic():
    # a triangular+constant system whose solution reads without cancellation
    s = parse_system(
        "gens: a b\nvars: x y z\n"
        "x y z = 1\n"
        "x = a b\n"
        "y = b a\n"
        "z = a^-1 b^-2 a^-1\n"
    )
    al = s.alphabet
    sol = {
        "x": al.word("a", "b"),
        "y": al.word("b", "a"),
        "z": al.word("-a", "-b", "-b", "-a"),
    }
    assert s.check(sol)
    b = from_system(s)
    start_count = len(b.geneq.nonconstant_bases())
    gsol = b.push(sol)

    res = entire_transform(b.geneq, budget=100, solution=gsol)
    assert res.status in ("terminal", "repeat")
    assert len(res.terminal.nonconstant_bases()) <= start_count
    assert res.terminal.is_quadratic()
    # trace replay is byte-exact
    assert replay_trace(b.geneq, res.trace).canonical_text() == res.terminal.canonical_text()


def test_entire_transform_search_mode():
    b = build("gens: a b\nvars: x\nx = a")
    res = entire_transform(b.geneq, budget=6)
    assert res.status == "terminal"
    replayed = replay_trace(b.geneq, res.trace)
    assert replayed.canonical_text() == res.terminal.canonical_text()


# --- pinned runs over the corpus ----------------------------------------------------

# Rows are (corpus index, status, rounds, trace digest, terminal digest); a
# digest is the first 16 hex digits of the sha256 of ``render_trace`` or of the
# terminal ``canonical_text``.  Solution mode: every 10th corpus system with a
# graphical witness at SearchBound(1) (the first of up to 50 enumerated
# solutions that pushes), budget 50.
SOLUTION_PINS = [
    (52, 'terminal', 1, '6d12c2698d60a06e', 'f8a72eb9f5073559'),
    (221, 'terminal', 1, 'eeb2b747161cba58', 'f8a72eb9f5073559'),
    (399, 'terminal', 3, '3314d4bcb3b028b1', 'cf59da6f6ce9b065'),
    (509, 'terminal', 3, '3a8b41c0101869fe', 'cf59da6f6ce9b065'),
    (1147, 'terminal', 1, '6d12c2698d60a06e', 'f8a72eb9f5073559'),
    (1697, 'terminal', 1, 'eeb2b747161cba58', 'f8a72eb9f5073559'),
    (2027, 'terminal', 1, '6d12c2698d60a06e', 'f8a72eb9f5073559'),
    (2193, 'terminal', 3, '6557193b6e880148', '7fc945f3fbd228e9'),
    (2305, 'terminal', 3, '6557193b6e880148', 'cf59da6f6ce9b065'),
    (2451, 'terminal', 3, '0bb31914388e7550', '7fc945f3fbd228e9'),
    (2611, 'terminal', 1, 'ca1dc123b0309d4a', 'f8a72eb9f5073559'),
    (2721, 'terminal', 1, 'ca1dc123b0309d4a', 'f8a72eb9f5073559'),
    (2831, 'terminal', 1, 'ca1dc123b0309d4a', 'f8a72eb9f5073559'),
    (2941, 'terminal', 1, 'ca1dc123b0309d4a', 'f8a72eb9f5073559'),
    (3119, 'terminal', 3, 'f4769fdf8f8e915f', 'cf59da6f6ce9b065'),
    (3229, 'terminal', 3, '11ccb90b414a6422', 'cf59da6f6ce9b065'),
    (3339, 'terminal', 3, '0bb31914388e7550', 'cf59da6f6ce9b065'),
    (3551, 'terminal', 3, 'f4769fdf8f8e915f', '7fc945f3fbd228e9'),
    (3661, 'terminal', 3, '11ccb90b414a6422', '7fc945f3fbd228e9'),
    (3771, 'terminal', 3, '0bb31914388e7550', '7fc945f3fbd228e9'),
    (3931, 'terminal', 1, 'ca1dc123b0309d4a', 'f8a72eb9f5073559'),
    (4057, 'terminal', 3, '2df5b717ddf4d007', 'cf59da6f6ce9b065'),
    (4219, 'terminal', 3, 'a61bf9cec6226d51', 'cf59da6f6ce9b065'),
    (4481, 'terminal', 1, 'ca1dc123b0309d4a', 'f8a72eb9f5073559'),
    (4591, 'terminal', 1, 'ca1dc123b0309d4a', 'f8a72eb9f5073559'),
    (4769, 'terminal', 3, 'a61bf9cec6226d51', 'cf59da6f6ce9b065'),
    (4981, 'terminal', 3, 'd5c06b7d13c896f1', '7fc945f3fbd228e9'),
    (5141, 'terminal', 1, 'ca1dc123b0309d4a', 'f8a72eb9f5073559'),
    (5369, 'terminal', 3, '7f5adb58c57848e1', '7fc945f3fbd228e9'),
    (5531, 'terminal', 3, 'a61bf9cec6226d51', '7fc945f3fbd228e9'),
    (5691, 'terminal', 1, 'ca1dc123b0309d4a', 'f8a72eb9f5073559'),
    (5869, 'terminal', 3, 'd5c06b7d13c896f1', 'cf59da6f6ce9b065'),
    (5979, 'terminal', 3, '75a927562d7859a3', 'cf59da6f6ce9b065'),
    (6089, 'terminal', 3, '75a927562d7859a3', 'cf59da6f6ce9b065'),
    (6199, 'terminal', 3, '75a927562d7859a3', 'cf59da6f6ce9b065'),
    (6309, 'terminal', 3, '75a927562d7859a3', 'cf59da6f6ce9b065'),
    (6629, 'terminal', 3, '24e0ff74878d60b4', 'cf59da6f6ce9b065'),
    (7155, 'terminal', 5, 'b4a8c365775fbf0c', 'cf59da6f6ce9b065'),
    (7507, 'terminal', 1, 'eeb2b747161cba58', 'f8a72eb9f5073559'),
    (8037, 'terminal', 5, 'ab0b9c1ddad55e6c', '7fc945f3fbd228e9'),
    (8355, 'terminal', 3, '1e4185b6c2e5a6d3', '7fc945f3fbd228e9'),
    (8565, 'terminal', 1, 'ca1dc123b0309d4a', 'f8a72eb9f5073559'),
    (8743, 'terminal', 3, '3a8b41c0101869fe', 'cf59da6f6ce9b065'),
    (9225, 'terminal', 1, 'ca1dc123b0309d4a', 'f8a72eb9f5073559'),
    (9505, 'terminal', 5, 'd395755121b2f23e', '7fc945f3fbd228e9'),
    (9665, 'terminal', 1, 'ca1dc123b0309d4a', 'f8a72eb9f5073559'),
    (9945, 'terminal', 5, 'c52e4313b3ecc344', '7fc945f3fbd228e9'),
    (10173, 'terminal', 5, 'ab0b9c1ddad55e6c', 'cf59da6f6ce9b065'),
    (10435, 'terminal', 1, 'ca1dc123b0309d4a', 'f8a72eb9f5073559'),
    (10765, 'terminal', 1, 'ca1dc123b0309d4a', 'f8a72eb9f5073559'),
    (11111, 'terminal', 3, 'eb408aeb3a51b21a', 'cf59da6f6ce9b065'),
    (11645, 'terminal', 1, 'ca1dc123b0309d4a', 'f8a72eb9f5073559'),
    (11925, 'terminal', 5, '3cddd171400a3fe0', '7fc945f3fbd228e9'),
    (12305, 'terminal', 1, 'ca1dc123b0309d4a', 'f8a72eb9f5073559'),
    (12585, 'terminal', 5, '989b07307f338a82', '7fc945f3fbd228e9'),
    (12745, 'terminal', 1, 'ca1dc123b0309d4a', 'f8a72eb9f5073559'),
    (13075, 'terminal', 1, 'ca1dc123b0309d4a', 'f8a72eb9f5073559'),
    (13523, 'terminal', 3, 'eb408aeb3a51b21a', '7fc945f3fbd228e9'),
    (13955, 'terminal', 1, 'ca1dc123b0309d4a', 'f8a72eb9f5073559'),
    (14285, 'terminal', 1, 'ca1dc123b0309d4a', 'f8a72eb9f5073559'),
    (14615, 'terminal', 1, 'ca1dc123b0309d4a', 'f8a72eb9f5073559'),
    (14945, 'terminal', 1, 'ca1dc123b0309d4a', 'f8a72eb9f5073559'),
    (15071, 'terminal', 3, '399507cd6e6b9991', 'cf59da6f6ce9b065'),
    (15385, 'terminal', 1, 'ca1dc123b0309d4a', 'f8a72eb9f5073559'),
    (15935, 'terminal', 1, 'ca1dc123b0309d4a', 'f8a72eb9f5073559'),
    (16061, 'terminal', 3, 'ee99d96ab2ed5d6e', 'cf59da6f6ce9b065'),
    (16375, 'terminal', 1, 'ca1dc123b0309d4a', 'f8a72eb9f5073559'),
    (16603, 'terminal', 3, '24e0ff74878d60b4', '7fc945f3fbd228e9'),
    (16815, 'terminal', 1, 'ca1dc123b0309d4a', 'f8a72eb9f5073559'),
    (16941, 'terminal', 3, 'ee99d96ab2ed5d6e', 'cf59da6f6ce9b065'),
    (17205, 'terminal', 3, '8994fe35041b8130', '7fc945f3fbd228e9'),
    (17433, 'terminal', 3, 'ad48f78e31e634a6', 'cf59da6f6ce9b065'),
    (17593, 'terminal', 3, 'ee99d96ab2ed5d6e', '7fc945f3fbd228e9'),
    (17805, 'terminal', 1, 'ca1dc123b0309d4a', 'f8a72eb9f5073559'),
    (17915, 'terminal', 1, 'eeb2b747161cba58', 'f8a72eb9f5073559'),
    (18093, 'terminal', 3, 'ad48f78e31e634a6', 'cf59da6f6ce9b065'),
    (18203, 'terminal', 3, 'bce3c19167ab31c6', 'cf59da6f6ce9b065'),
    (18635, 'terminal', 5, '8b56f7626cf773a2', '7fc945f3fbd228e9'),
    (18795, 'terminal', 1, 'eeb2b747161cba58', 'f8a72eb9f5073559'),
    (18973, 'terminal', 5, '26394c68b999ea13', 'cf59da6f6ce9b065'),
    (19455, 'terminal', 1, 'ca1dc123b0309d4a', 'f8a72eb9f5073559'),
    (19785, 'terminal', 1, 'ca1dc123b0309d4a', 'f8a72eb9f5073559'),
    (20013, 'terminal', 5, '9400231b5b9af07e', '7fc945f3fbd228e9'),
    (20123, 'terminal', 3, '668165911b672636', '7fc945f3fbd228e9'),
    (20403, 'terminal', 3, '3314d4bcb3b028b1', 'cf59da6f6ce9b065'),
    (20835, 'terminal', 5, '8b56f7626cf773a2', '7fc945f3fbd228e9'),
    (20995, 'terminal', 1, 'eeb2b747161cba58', 'f8a72eb9f5073559'),
    (21173, 'terminal', 5, '26394c68b999ea13', 'cf59da6f6ce9b065'),
    (21655, 'terminal', 1, 'ca1dc123b0309d4a', 'f8a72eb9f5073559'),
    (21985, 'terminal', 1, 'ca1dc123b0309d4a', 'f8a72eb9f5073559'),
    (22213, 'terminal', 5, '9400231b5b9af07e', '7fc945f3fbd228e9'),
    (22323, 'terminal', 3, '668165911b672636', '7fc945f3fbd228e9'),
    (22603, 'terminal', 3, '3314d4bcb3b028b1', 'cf59da6f6ce9b065'),
    (23035, 'terminal', 5, '41d86a51d9a54676', '7fc945f3fbd228e9'),
    (23415, 'terminal', 1, 'eeb2b747161cba58', 'f8a72eb9f5073559'),
    (23745, 'terminal', 1, 'eeb2b747161cba58', 'f8a72eb9f5073559'),
    (24295, 'terminal', 1, 'eeb2b747161cba58', 'f8a72eb9f5073559'),
    (24625, 'terminal', 1, 'ca1dc123b0309d4a', 'f8a72eb9f5073559'),
    (24955, 'terminal', 1, 'ca1dc123b0309d4a', 'f8a72eb9f5073559'),
    (25065, 'terminal', 1, 'eeb2b747161cba58', 'f8a72eb9f5073559'),
    (25395, 'terminal', 1, 'eeb2b747161cba58', 'f8a72eb9f5073559'),
    (25573, 'terminal', 3, '6bc474b49993a158', 'cf59da6f6ce9b065'),
    (25851, 'terminal', 3, 'eb408aeb3a51b21a', 'cf59da6f6ce9b065'),
    (26165, 'terminal', 1, 'eeb2b747161cba58', 'f8a72eb9f5073559'),
    (26495, 'terminal', 1, 'eeb2b747161cba58', 'f8a72eb9f5073559'),
    (26723, 'terminal', 3, 'ce2f2a8719fa40e8', '7fc945f3fbd228e9'),
    (26951, 'terminal', 3, 'eb408aeb3a51b21a', 'cf59da6f6ce9b065'),
    (27113, 'terminal', 5, '3a8620f14a70e072', 'cf59da6f6ce9b065'),
    (27375, 'terminal', 1, 'ca1dc123b0309d4a', 'f8a72eb9f5073559'),
    (27655, 'terminal', 3, 'dc0da3661f266a1c', '7fc945f3fbd228e9'),
    (27815, 'terminal', 1, 'ca1dc123b0309d4a', 'f8a72eb9f5073559'),
    (27993, 'terminal', 3, '3a8b41c0101869fe', 'cf59da6f6ce9b065'),
    (28205, 'terminal', 3, 'dc0da3661f266a1c', '7fc945f3fbd228e9'),
    (28365, 'terminal', 1, 'ca1dc123b0309d4a', 'f8a72eb9f5073559'),
    (28543, 'terminal', 3, '3a8b41c0101869fe', 'cf59da6f6ce9b065'),
    (28805, 'terminal', 1, 'eeb2b747161cba58', 'f8a72eb9f5073559'),
    (29033, 'terminal', 3, '462dffe66090cf95', '7fc945f3fbd228e9'),
    (29245, 'terminal', 1, 'ca1dc123b0309d4a', 'f8a72eb9f5073559'),
    (29371, 'terminal', 3, 'c5435e24137811fc', 'cf59da6f6ce9b065'),
    (29635, 'terminal', 3, 'd2193a1957abb49b', '7fc945f3fbd228e9'),
]

# Search mode, budget 6.  25123 and 25705 end because a cut that would
# delete a boundary still in use prunes its branch.  An ``exhausted`` row pins
# the deepest branch the search reached: every branch was pruned before the
# round budget or the node cap was hit (these three rows read ``budget``
# until the search told the two endings apart; rounds and digests did not
# change).
SEARCH_PINS = [
    (0, 'terminal', 2, 'acc7e2bc69833a4d', 'c8e6d37c1a91b17b'),
    (97, 'terminal', 2, 'c99b224b691178b8', '7b2d11d485b6691f'),
    (291, 'terminal', 4, '06dffa3cc0079f0a', '5235b21fc921bf8e'),
    (388, 'terminal', 3, '23d5dad8346f0a89', 'c8e6d37c1a91b17b'),
    (582, 'terminal', 3, '1bc8eb9c3468eb66', 'a3d935ae64d7611f'),
    (873, 'exhausted', 1, 'feab6b6b147904f1', 'd870b1fd3c553fc1'),
    (1067, 'terminal', 5, 'ca2b80e10aea52b6', 'e17ef7eb0bddffa2'),
    (1649, 'terminal', 5, '78543cc8b90bf7fe', '5645a3683aa57915'),
    (2037, 'terminal', 3, 'f3075eb88d55b32b', '707e7a50d7a5f895'),
    (5141, 'terminal', 3, '40bb9fc09e062f94', '469f148befa81340'),
    (6499, 'terminal', 6, '8828ec834520e66d', 'd92a50527a5d72f5'),
    (6887, 'terminal', 6, '414767ab8cde5924', '5235b21fc921bf8e'),
    (7566, 'terminal', 5, '98a694b8b51597e5', '069b367e9169b6cc'),
    (8730, 'exhausted', 1, '959f2a54671ebc4c', 'de01db878fe60441'),
    (9118, 'exhausted', 1, 'feab6b6b147904f1', '93ec13a4d735a31b'),
    (12804, 'terminal', 4, 'c8c466336f8eb933', '66d8ed3427e3c952'),
    (14453, 'terminal', 5, 'cb3ecbd1604507e1', 'e73a76c8f12547c0'),
    (19400, 'terminal', 4, 'dea4f76eaafecc04', '469f148befa81340'),
    (24735, 'terminal', 4, '2667d9366adf3cf2', '469f148befa81340'),
    (28421, 'terminal', 6, 'a52bb3207c931f0a', 'c8e6d37c1a91b17b'),
    (28809, 'terminal', 3, '484ecc2dd734f74a', '66d8ed3427e3c952'),
    (25123, 'terminal', 5, 'f4268ff7beb68868', '8dae129283ae028e'),
    (25705, 'terminal', 6, '030bdc639865e860', '3fb017da62e334b6'),
]


@pytest.fixture(scope="module")
def corpus_systems():
    import corpus

    return corpus.corpus_systems()


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _pin_row(index, res):
    return (index, res.status, res.rounds, _digest(render_trace(res.trace)),
            _digest(res.terminal.canonical_text()))


def test_entire_transform_pinned_solution_mode(corpus_systems):
    for row in SOLUTION_PINS:
        s = corpus_systems[row[0]]
        b = from_system(s)
        _sol, gsol = first_graphical(b, s, bound=1, limit=50)
        res = entire_transform(b.geneq, budget=50, solution=gsol)
        assert _pin_row(row[0], res) == row


# solution-mode runs of five rounds: their intermediate states carry ties
RENUMBER_RUNS = (7155, 8037, 9505, 9945, 10173, 11925, 12585, 18635, 18973)


def test_insert_then_contract_is_identity_on_traced_states(corpus_systems):
    # every state a pinned run passes through, split and merged at each item
    states = {}
    for index in RENUMBER_RUNS:
        s = corpus_systems[index]
        b = from_system(s)
        _sol, gsol = first_graphical(b, s, bound=1, limit=50)
        trace = entire_transform(b.geneq, budget=50, solution=gsol).trace
        for k in range(len(trace) + 1):
            ge = replay_trace(b.geneq, trace[:k])
            states[ge.canonical_text()] = ge
    checks = 0
    for text, ge in states.items():
        for j in ge.items():
            assert contract_item(et5_insert(ge, j), j + 1).canonical_text() == text
            checks += 1
    assert checks >= 900
    assert sum(1 for ge in states.values() if ge.connections) >= 100


def test_entire_transform_pinned_search_mode(corpus_systems):
    for row in SEARCH_PINS:
        ge = from_system(corpus_systems[row[0]]).geneq
        res = entire_transform(ge, budget=6)
        assert _pin_row(row[0], res) == row
        assert replay_trace(ge, res.trace).canonical_text() == res.terminal.canonical_text()


def test_search_counts_transfers_against_its_node_budget(monkeypatch):
    # corpus 13926 and 24054: a searched tie sends two boundaries of the
    # leading base to one, and a transfer then puts a base back under it
    # again and again; the node budget must end the search
    import quadeq.geneq as geneq

    transfer = geneq.et2_transfer
    for text in ("x a^-3 = 1\ny x z y^-1 z = 1", "x a^-1 b^-2 = 1\ny z y^-1 z^-1 x = 1"):
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            if calls > 20_000:
                raise RuntimeError("the transfer loop outran the node budget")
            return transfer(*args)

        monkeypatch.setattr(geneq, "et2_transfer", counted)
        ge = build("gens: a b\nvars: x y z\n" + text).geneq
        res = entire_transform(ge, budget=6)
        assert res.status == "budget"
        assert replay_trace(ge, res.trace).canonical_text() == res.terminal.canonical_text()


def test_pull_inverts_push_on_corpus_stride(corpus_systems):
    pushed = 0
    for s in corpus_systems[::17]:
        try:
            b = from_system(s)
        except GenEqError:
            continue
        occurring = {
            b.system.var_name(g.sym)
            for eq in b.system.equations
            for g in (*eq.lhs, *eq.rhs)
            if g.sym >= b.system.n_constants
        }
        for sol in enumerate_solutions(s, SearchBound(1), limit=50):
            try:
                gsol = b.push(sol)
            except GenEqError:
                continue
            assert b.pull(gsol) == {n: sol[n] for n in occurring}
            pushed += 1
    assert pushed >= 250


# --- the encoding itself, pinned -----------------------------------------------------

# from_system on hand-written systems: two-sided, a relator that is halved,
# and a chain of bindings (the halving of the first equation comes before
# the binding of z, as in corpus system 8730)
BUILD_SYSTEMS = (
    "gens: a b\nvars: x y\nx a y = y b x",
    "gens: a b\nvars: x y\nx y x^-1 a y^-1 = 1",
    "gens: a b\nvars: x y z\nx^2 y^2 z = 1\nz = 1",
    "gens: a b\nvars: x y z\nx y z a = 1\ny = 1\nz y = 1",
)
BUILD_PIN = "e10a0b462764c51fddb897a9e47f378189b8498a6cbc18fae8e76534683a8f3a"


def _build_record(system):
    """Canonical text, item letters and normalized system of one encoding,
    or the message it raises."""
    try:
        b = from_system(system)
    except GenEqError as e:
        return f"error {e}\n"
    fmt = b.system.alphabet.format
    letters = " ".join(f"{j}:{fmt(Word((g,)))}" for j, g in b.letters.items())
    return b.geneq.canonical_text() + letters + "\n" + b.system.render()


def test_from_system_encoding_pinned(corpus_systems):
    systems = [parse_system(t) for t in BUILD_SYSTEMS] + list(corpus_systems[::7])
    text = "".join(_build_record(s) for s in systems)
    assert hashlib.sha256(text.encode()).hexdigest() == BUILD_PIN


@pytest.mark.parametrize("text", [
    "gens: a b\nvars: x\nx a = a x\nb = 1",
    # x = 1 leaves the second half alone: 1 = a^-1
    "gens: a b\nvars: x\nx a = 1\nx = 1",
])
def test_from_system_refuses_a_constant_relator(text):
    with pytest.raises(GenEqError, match="nontrivial constant relator"):
        build(text)
