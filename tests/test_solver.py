import gc
import hashlib
import random
from collections import Counter
from itertools import chain, permutations, product

import pytest

from quadeq import solver
from quadeq.binpack import BinPackInstance, build_equation, exhaustive_pack, sweep_instances
from quadeq.equations import Equation, EquationSystem, parse_system
from quadeq.oracle import SearchBound, is_satisfiable
from quadeq.solver import (
    CancellationDiagrams,
    SearchLimitError,
    SolveResult,
    SolverError,
    _commutators,
    _diagrams,
    _normalized_discs,
    genus_at,
    solve_quadratic,
    tuple_genus,
)
from quadeq.standardize import NONORIENTABLE, ORIENTABLE, StandardForm, standardize
from quadeq.surfaces import glue
from quadeq.words import Alphabet, Generator, Word, commutator

AB = Alphabet(("a", "b"))
ABC = Alphabet(("a", "b", "c"))
GENS = ("a", "b")
a, b = AB.word("a"), AB.word("b")


# --- classical genus values ------------------------------------------------------

def test_commutator_genus_one():
    assert tuple_genus([commutator(a, b)], ORIENTABLE, GENS) == 1


def test_commutator_square_genus_two():
    assert tuple_genus([commutator(a, b) ** 2], ORIENTABLE, GENS) == 2


def test_commutator_cube_genus_two():
    # the classical cancellation-diagram example: genus 2, not 3
    assert tuple_genus([commutator(a, b) ** 3], ORIENTABLE, GENS) == 2


def test_nonorientable_square():
    assert tuple_genus([a * a], NONORIENTABLE, GENS) == 1


def test_nonorientable_commutator_needs_three():
    # a commutator is not a product of two squares
    assert tuple_genus([commutator(a, b)], NONORIENTABLE, GENS) == 3


def test_unbalanced_tuple_unsolvable():
    assert tuple_genus([a], ORIENTABLE, GENS) is None
    assert tuple_genus([a], NONORIENTABLE, GENS) is None  # a is not a square


def test_conjugate_pair_genus_zero():
    # z^-1 C1 z C = 1 needs C1 ~ C^-1
    assert tuple_genus([a * b, (a * b).inverse()], ORIENTABLE, GENS) == 0
    assert tuple_genus([a * b, a.inverse() * b.inverse()], ORIENTABLE, GENS) == 0
    # (ab, ba) is letter-unbalanced: unsolvable at every genus
    assert tuple_genus([a * b, b * a], ORIENTABLE, GENS) is None


def test_nonconjugate_pair_positive_genus():
    # z^-1 (ab) z (ab) = 1 is impossible orientably, genus 1 non-orientably
    assert tuple_genus([a * b, a * b], ORIENTABLE, GENS) is None
    assert tuple_genus([a * b, a * b], NONORIENTABLE, GENS) == 1


def test_flipped_sphere_costs_one():
    # single-letter version of the same phenomenon
    assert tuple_genus([a, a], NONORIENTABLE, GENS) == 1


# --- genus_* operations (spec-level shapes) -----------------------------------------

def test_genus_orientable_examples():
    r = genus_at([commutator(a, b)], 1, ORIENTABLE, GENS)
    assert r.solvable and r.witness is not None
    r0 = genus_at([commutator(a, b)], 0, ORIENTABLE, GENS, want_witness=False)
    assert not r0.solvable
    triv = genus_at([Word()], 0, ORIENTABLE, GENS)
    assert triv.solvable


def test_genus_nonorientable_examples():
    r = genus_at([a * a], 1, NONORIENTABLE, GENS)
    assert r.solvable and r.witness is not None
    # frozen from oracle exhaustion + Lyndon's theorem: [a,b] needs 3 squares
    assert not genus_at([commutator(a, b)], 2, NONORIENTABLE, GENS, want_witness=False).solvable
    assert genus_at([commutator(a, b)], 3, NONORIENTABLE, GENS, want_witness=False).solvable
    assert not genus_at([a], 1, NONORIENTABLE, GENS, want_witness=False).solvable
    with pytest.raises(SolverError):
        genus_at([a], 0, NONORIENTABLE, GENS)


def test_genus_monotone():
    for g in range(1, 4):
        assert genus_at([commutator(a, b)], g, ORIENTABLE, GENS, want_witness=False).solvable


# each entry point that takes a kind, with its orientable answer on abab: a
# kind it does not know raises SolverError, and does not run the
# non-orientable rules (genus 1) or raise KeyError
@pytest.mark.parametrize("call, orientable", [
    (lambda kind: CancellationDiagrams([a * b * a * b], kind).min_genus(3), None),
    (lambda kind: tuple_genus([a * b * a * b], kind, GENS), None),
    (lambda kind: solver.genus_at([a * b * a * b], 1, kind, GENS, False),
     solver.GenusResult(False, None)),
], ids=["diagrams", "tuple_genus", "genus_at"])
def test_unknown_kind_is_refused(call, orientable):
    assert call(ORIENTABLE) == orientable
    for kind in ("typo", "non-orientable", "Orientable"):
        with pytest.raises(SolverError, match="unknown kind"):
            call(kind)


# --- solve_quadratic ----------------------------------------------------------------

def solve_text(text, bound=None):
    return solve_quadratic(parse_system(text), bound=bound)


def test_solve_square_root():
    r = solve_text("gens: a b\nvars: x\nx^2 = (a b)^2")
    assert r.status == "sat"
    assert r.witness["x"] == a * b


def test_solve_commutator():
    r = solve_text("gens: a b\nvars: x y\n[x,y] = [a,b]")
    assert r.status == "sat"


def test_solve_unsat_square():
    r = solve_text("gens: a b\nvars: x\nx^2 = a")
    assert r.status == "unsat"


def test_solve_coupled_system():
    r = solve_text("gens: a b\nvars: x y\nx a = y\ny^-1 x^-1 = a")
    # y = x a; second: a^-1 x^-1 x^-1 = a  =>  x^2 = a^-2, x = a^-1, y = 1
    assert r.status == "sat"


def test_solve_chained_eliminations():
    # y is eliminated first, as (a z)^-1, and z second: the witness must
    # evaluate z before y
    r = solve_text("gens: a b\nvars: x y z w\ny a z = 1\ny^-1 x^2 = 1\nz^-1 a^-1 w^2 = 1")
    assert r.status == "sat"


@pytest.mark.parametrize("c,status", [("a", "sat"), ("b", "unsat")])
def test_solve_eliminates_an_inverted_occurrence(c, status):
    # x occurs as x^-1 in the relator that defines it, so x = a, not a^-1
    r = solve_text(f"gens: a b\nvars: x y\nx^-1 a = 1\nx y {c}^-1 y^-1 = 1")
    assert r.status == status
    if status == "sat":
        assert r.witness["x"] == a


def test_solve_trivially_unsat_constant():
    # eliminating x leaves the constant relator a^2
    r = solve_text("gens: a b\nvars: x y\nx y = 1\ny^-1 x^-1 a^2 = 1")
    assert r.status == "unsat"


def test_solve_non_quadratic_rejected():
    with pytest.raises(SolverError):
        solve_text("gens: a\nvars: x\nx a = 1")


def test_solve_sets_a_variable_that_occurs_nowhere_to_1():
    # y is declared and never used; x occurs twice, so the system is quadratic
    system = parse_system("gens: a\nvars: x y\nx a x^-1 = a")
    r = solve_quadratic(system)
    assert r.status == "sat"
    assert r.witness["y"] == Word()
    assert system.check(r.witness)


def test_conjugation_equation():
    r = solve_text("gens: a b\nvars: z\nz^-1 (a b) z = b a")
    assert r.status == "sat"


def test_unsolvable_conjugation():
    r = solve_text("gens: a b\nvars: z\nz^-1 a z = b")
    assert r.status == "unsat"


# --- the balance test ------------------------------------------------------------------

def _random_relator(rng):
    """A quadratic one-relator system over a, b, c with 1-3 variables, each
    read x ... x^-1 or twice with one sign, between random constant words;
    half of them get a constant tail that balances their kind."""
    names = ("x", "y", "z")[:rng.randint(1, 3)]
    al = Alphabet(("a", "b", "c", *names))
    while True:
        letters = []
        for n in names:
            sign = rng.choice((1, -1))
            letters += [al.gen(n, sign), al.gen(n, rng.choice((sign, -sign)))]
        rng.shuffle(letters)
        word = Word()
        for g in letters:
            word = word * _random_word(rng, rng.randint(0, 2), ABC) * Word((g,))
        if rng.random() < 0.5:
            count = word.packed.count
            orientable = all(count(2 * s) == count(2 * s + 1) for s in range(3, 3 + len(names)))
            for s, name in enumerate("abc"):
                e = count(2 * s) - count(2 * s + 1)
                word = word * al.word(name) ** (-e if orientable else e % 2)
        system = EquationSystem(("a", "b", "c"), names, (Equation(word),))
        if all(c == 2 for c in system.occurrence_counts().values()):
            return system


def test_balance_test_agrees_with_the_search():
    # a relator the test refuses has no diagram on its standard form and no
    # short solution; one it accepts has standard-form discs it accepts too
    rng = random.Random(7)
    seen = {}
    for _ in range(400):
        system = _random_relator(rng)
        letters = system.equations[0].relator().packed
        orientable = solver._gluable(letters, system.var_syms, True)
        balanced = solver._gluable(letters, range(3), orientable)
        form = standardize(system).form
        assert form.kind == (ORIENTABLE if orientable else NONORIENTABLE)
        seen[balanced, orientable] = seen.get((balanced, orientable), 0) + 1
        if balanced:
            discs = b"".join(core.packed for _, core, _ in _normalized_discs(form))
            assert solver._gluable(discs, range(3), orientable)
        else:
            assert not _diagrams(form).solvable_within(form.genus)
            assert is_satisfiable(system, SearchBound(2)) is None
    assert len(seen) == 4 and min(seen.values()) >= 40, seen


@pytest.mark.parametrize("text", [
    "gens: a b\nvars: x\nx^-1 a x = b",
    "gens: a b\nvars: x\nx^-1 a x = a^-1",  # even counts, but orientable
    "gens: a b\nvars: x\nx x = a b",
    # the first relator is balanced; the second, unbalanced, decides first
    "gens: a b\nvars: x y\nx^2 = a^2\ny^-1 a y = b",
])
def test_unbalanced_relators_never_reach_standardize(text, monkeypatch):
    def refuse(system):
        raise AssertionError("standardize called")

    monkeypatch.setattr(solver, "standardize", refuse)
    assert solve_text(text) == SolveResult("unsat", None, 0)


# --- agreement with the oracle on a small corpus --------------------------------------

CORPUS = [
    "x^2 = a^2",
    "x^2 = a b",
    "x^2 a^2 = 1",
    "x a x b = 1",
    "x a x^-1 = b",
    "x a x^-1 b^-1 = 1",
    "x y x^-1 y^-1 [a,b] = 1",
    "x y x y = a^2",
    "x a y b x^-1 y^-1 = 1",
    "x a y a x^-1 y^-1 = 1",
    "x y a x b y = 1",
    "x^2 y^2 = a^2 b^2",
    "x^2 y^2 [a,b] = 1",
    "x b a x b a = 1",
    "x a b x^-1 a b = 1",
]


@pytest.mark.parametrize("eq", CORPUS)
def test_solver_oracle_agreement(eq):
    s = parse_system(f"gens: a b\nvars: {' '.join(v for v in 'xyz' if v in eq.split('=')[0] or v in eq)}\n{eq}")
    res = solve_quadratic(s)
    oracle_hit = is_satisfiable(s, SearchBound(3))
    if res.status == "sat":
        assert s.check(res.witness)
        # the oracle must re-find a witness at that length
        ell = max((len(w) for w in res.witness.values()), default=0)
        assert is_satisfiable(s, SearchBound(max(ell, 1))) is not None
    else:
        assert res.status == "unsat"
        assert oracle_hit is None, f"oracle found {oracle_hit} but solver says unsat"


# --- pinned least genus of random tuples -------------------------------------------

# min_genus of seeded random coefficient tuples (both kinds, 1-4 discs, at most
# 12 letters over a, b, c; capitals are inverses), recorded with the corner
# matching search that preceded the boundary-cycle search.  Entries read
# "kind disc... genus", with "-" for unsolvable at every genus.
MIN_GENUS_PINS = """
    o A C c a 0 ; n Cab aCbC a Ca 1 ; o A B ba 0 ; n caBACb c b -
    o aaBabAbAAB 1 ; n Ca cb ab 1 ; o A BACaB bacb 1 ; n C a CAcb Bc 0
    o B ab babAb - ; n B BaabA aBB - ; o C bcccBCC 1 ; n Ababb aba 1
    o BAA - ; n BBBC b BBc 1 ; o abaa AAAB 0 ; n bA BA 1
    o aaa b BAAA 0 ; n c Ac caca a 1 ; o a B B Abb 0 ; n B aCCBCbabC 3
    o ABA B ba ba 0 ; n a cBcBAACBCa - ; o B A b a 0 ; n b C -
    o ba BBAbA C Ca - ; n b ba baa aB 1 ; o Baaa AAAb 0 ; n CA cca C 0
    o aabABABAba 1 ; n cB caaacAcb 3 ; o B bbbaBBA 1 ; n bb bABabABa 2
    o B AAB - ; n ABAAAbaBAb 3 ; o bAC BCBBCA - ; n c c 1
    o c C 0 ; n b A B accABabaa 2 ; o AAAbbcab - ; n aB b a 1
    o B cc - ; n A A BA Ab 1 ; o bAbbAA BBBaaa 1 ; n aBaB a ABB AA 1
    o abacBAAC 1 ; n B bCbb BA bac 1 ; o AbaaB a - ; n A a b B 0
    o b ABB ABabaB - ; n a aa a 1 ; o B BcbCA ab 0 ; n aabb 2
    o A a 0 ; n AA 1 ; o CCCAABCBcaa - ; n c abAAc A b 1
    o a cBcB Ba Bc - ; n c BABAA - ; o B ACCbc cac C 0 ; n CC 1
    o Ab a B 0 ; n aabAb AAA 1 ; o abAAb AA AA - ; n AAAbaaBBBA 3
    o bcaBaBAbbc bc - ; n CCbA ACCB 1 ; o aab A babA - ; n aa AA 0
    o c bC B 0 ; n AcBabCA C - ; o CaabCA bAc c BB 0 ; n ABABA aa AA A 1
    o BaabA A 1 ; n a A b b 1 ; o B b 0 ; n A BBB AB 1
    o c bCCBA c a 0 ; n aaBcABaCaa 3 ; o a A 0 ; n b B 0
    o c C 0 ; n b aB a baba 1 ; o A cabc B CC 0 ; n aBAb cbbbc B 2
    o AAB baa 0 ; n bAb AAbab 2 ; o A a 0 ; n abaB BB c C 1
    o B ABBaBAbb - ; n ABA AbACC 2 ; o Ba b A 0 ; n Cb bc 1
    o cbbABCaB 1 ; n BAAc c B 1 ; o CCacAAca 1 ; n BBAAA aaa 1
    o bb bb BA aBBB 0 ; n BC b b cB 0 ; o b b BB 0 ; n C aa C 2
    o b B 0 ; n B B 1 ; o bbb acAACBa b - ; n aBABabAb 3
    o A a 0 ; n BA - ; o CbbcABBa 1 ; n a a a a 2
    o BBA a ba Ab 0 ; n b b 1 ; o Ba - ; n A c Accc cccc 1
    o CCAAAABaC - ; n BABBACA - ; o a ab - ; n BBaBaaBa 2
    o b B 0 ; n a aab b a 1 ; o baabaBABAA 1 ; n ABcA aabACAbb 2
    o aBBAbAba 1 ; n BAbbacaCbA 3 ; o a B BAAAB b - ; n b BAAAA 1
    o AAA a ba aB 0 ; n Abb ba B bb 1 ; o bAb ba B BB 0 ; n BBBAAba A 2
    o BCCBBAbcbbca 2 ; n B bab BB ba 1 ; o CA cb A - ; n A a 0
    o A Ca CBcaCaB - ; n BB b - ; o cA AA aCaa 0 ; n BabcBAbbCAba 4
    o a BBa Ab Ab 0 ; n AbbbA B A A 1 ; o aCCAbAcacB 2 ; n abAb 2
    o ab aBAAbba ab - ; n A B a b 0 ; o caBcbaCCB AbA 1 ; n c a AC 0
    o BBABB abbbb 0 ; n cc cbccacAb A C - ; o AAAAA BB - ; n A a A A 1
    o a A 0 ; n b aaBBBB B 2 ; o ACC caB cb 0 ; n bcbC 2
    o B aaaa bAAAA 0 ; n A A 1 ; o A a 0 ; n baaBABABBA -
    o caac A bCBA C 1 ; n A a B b 0 ; o baaBAAABab 1 ; n BB 1
    o A a 0 ; n aa bbb aa B 2 ; o AA - ; n B B 1
    o A ABA a bbaBa 0 ; n B B aaaaBB 1 ; o aBB CbbcA 1 ; n BB B bAABaBa 2
    o ABab 1 ; n CCaBaCCAAB 4 ; o AACC CA aCB - ; n Ab BAB b 1
    o bC ACB c ac 0 ; n A A 1 ; o b bAb BB Ba 0 ; n b B a a 1
    o BAcA b aaC 0 ; n cbcA cbCb B - ; o BB bcAcAcc - ; n A BaB 1
    o A aa A 0 ; n a b aabbbAb b 1 ; o A BBaa - ; n Ba AB 1
    o AAC a c a 0 ; n a a a A 1 ; o B a b A 0 ; n bb 1
    o a b b aBaBaa - ; n ABAbaBAbbABA 3 ; o bAb AB caab - ; n B Cab cA 0
    o AAbaabABA - ; n A C Bc Ab 1 ; o BAA abbaB 1 ; n acAAcbacbC 4
    o ABA a a b 0 ; n CCBAB c C A 1 ; o CC cc 0 ; n AA 1
    o B b 0 ; n cc 1 ; o ABBaaBaaB A A A - ; n BB b B 1
    o b aB Ab B 0 ; n C b - ; o CC Bc B cAb - ; n AbaBBAAb 2
    o B b 0 ; n ab BBBa 1 ; o bb A Ba B 0 ; n b b B B 0
    o aba bbbab b A - ; n B b 0 ; o A baBA BB bab 0 ; n a A a a 1
    o C CBcba cA 0 ; n a A 0 ; o a A 0 ; n aB BAB a AB 1
    o AB - ; n aBABABAb 3 ; o a A 0 ; n B b BBaB bbaaBa 1
    o aB bbba BAAB 0 ; n bbAb aBBB 0 ; o b aBaaBAbb AA B 1 ; n bbaa aa A a 1
    o c C 0 ; n bA B AAbb a 1 ; o A a 0 ; n C c B b 0
    o B b 0 ; n aa 1 ; o BABA c C baba 0 ; n ccA bcBaC 2
    o B b 0 ; n bc cACa B C 0 ; o bcAcBaCCC c 1 ; n A BBabABA 1
    o B A - ; n A BAbba aBB - ; o BBB bb B bb 0 ; n A A aa 0
    o bab BAB B b 0 ; n A a 0 ; o a b BA 0 ; n A cbb -
    o B b 0 ; n Ab - ; o AbaCB b Bc 1 ; n a b a B 1
    o aB a BA Abb 0 ; n ab BAB aBaaa 1 ; o A Ba b 0 ; n A ab A ab 1
    o a a A A 0 ; n b ba a 1 ; o c aa A AC 0 ; n aBAbaB AbAAA b -
    o B b 0 ; n B BB AAA ab 1 ; o b BaBAA a b 0 ; n bABA BAbbaB 2
    o A a 0 ; n Ba BBB AAA 2 ; o AbabABaB 1 ; n BacbCBccBA 4
    o Ba AB bbb B 0 ; n A BBabbbA BA 1 ; o Baa BAbA b 0 ; n B BBB B b 1
    o a BBB ab abb - ; n b a A B 0 ; o aaBABAbb 1 ; n C C 1
    o baBBAb 1 ; n aabaBa BaaB 1 ; o a BACbac A 1 ; n AA 1
    o a A 0 ; n AbaB 3 ; o cA aa B CbA 0 ; n bb AbbABAbbA B 1
    o B b 0 ; n aBB b bcbcAb 1 ; o b BacBABBA - ; n B A a -
    o aab AcAB C 0 ; n aBaaaaBaBB 2 ; o b B 0 ; n AcbcbaabbA 2
    o aa AA 0 ; n a aBaB BA bAA 1 ; o A a AcbACBB aa - ; n aaBAABa ABB 2
    o CacAB ba A 0 ; n aa Ba a B 1 ; o Ba b - ; n A Ac BAbaBB c 1
    o A a a A 0 ; n AcBcbac - ; o BcB a ACCbbb cB 0 ; n cB CB 1
    o A b a B 0 ; n bA ba bbb bbb 1 ; o A a 0 ; n b bbb 1
    o a cb - ; n aBa a AAA B 1 ; o a A B - ; n B Baac a acaBaB 1
    o a bCC c cAB 0 ; n aCBaaBa c 1 ; o AbaaBAbaBA 2 ; n b BAbacB c 1
    o a A 0 ; n BC abCC C A 1 ; o a BAbbaB A 0 ; n cbb bA aCb 1
    o bb bAA aaBB A - ; n Ba - ; o bca AACaB 1 ; n AAAAAA 1
    o aBC c Ac bC 0 ; n baCbcA cc 3 ; o CCaabCab - ; n aBAc B A AC 1
    o cBBa A aC A - ; n b bb b 1 ; o ACaab BcAca AC 0 ; n a aCC CAA C 1
    o A a 0 ; n Ab b AcAcaBB 1 ; o A a B b 0 ; n B BA B -
    o CaBA cBcACb - ; n aaaabbbAB A 2 ; o A a b B 0 ; n B bc BAB ca 1
    o bC ACBB cbc a 0 ; n cc 1 ; o A BaB A bab 0 ; n BB abaB 1
    o BcB A C abb 0 ; n a aBaab B b 1 ; o ab BBBAbba A 0 ; n ab CBBC aC BC 1
    o acac CCA A 0 ; n A ca C 0 ; o a b AB 0 ; n B AccaB 1
    o a BBA b b 0 ; n C bcbcb b C 1 ; o B b B b 0 ; n A b BA 1
    o baa AAB b B 0 ; n A Cbbb Bc a 1 ; o B B Cbcba A 0 ; n aB B A BB 1
"""


def _pinned_tuples():
    for entry in MIN_GENUS_PINS.replace("\n", ";").split(";"):
        if not entry.strip():
            continue
        kind, *discs, genus = entry.split()
        yield (
            ORIENTABLE if kind == "o" else NONORIENTABLE,
            [Word(ABC.gen(ch.lower(), 1 if ch.islower() else -1) for ch in d) for d in discs],
            None if genus == "-" else int(genus),
        )


def test_min_genus_pinned():
    pins = list(_pinned_tuples())
    assert len(pins) == 360
    for kind, discs, genus in pins:
        n = sum(len(d) for d in discs)
        assert CancellationDiagrams(discs, kind).min_genus(n // 2 + 1) == genus, (kind, discs)


def _reference_orientable_genus(discs):
    """The least orientable genus of the discs by brute force, or None when
    no pairing exists.  Each pairing of every letter with an inverse letter
    glues the discs, as faces, along their letters, as edges; a component of
    V vertices, E edges and F faces has genus (2 - V + E - F) / 2, and the
    genera add up.  It shares no code with ``solver`` or ``surfaces``."""
    ends = {}  # symbol -> (positive letters, negative letters), as (disc, offset)
    for d, w in enumerate(discs):
        for k, g in enumerate(w):
            ends.setdefault(g.sym, ([], []))[g.sign < 0].append((d, k))
    if any(len(p) != len(q) for p, q in ends.values()):
        return None
    best = None
    for choice in product(*(permutations(q) for _, q in ends.values())):
        root = {}  # one union-find over discs and corners, (disc, k) the start of letter k

        def find(x):
            while root.get(x, x) != x:
                x = root[x]
            return x

        for (p, _), q in zip(ends.values(), choice):
            for (d, k), (e, j) in zip(p, q):
                # x runs from corner k to k + 1 of d, and x^-1 from j to j + 1 of e
                root[find((d, k))] = find((e, (j + 1) % len(discs[e])))
                root[find((d, (k + 1) % len(discs[d])))] = find((e, j))
                root[find(d)] = find(e)
        genus = 0
        for c in {find(d) for d in range(len(discs))}:
            faces = [d for d in range(len(discs)) if find(d) == c]
            vertices = {find((d, k)) for d in faces for k in range(len(discs[d]))}
            edges = sum(len(discs[d]) for d in faces) // 2
            genus += (2 - len(vertices) + edges - len(faces)) // 2
        best = genus if best is None else min(best, genus)
    return best


def _orientable_tuples():
    """2,000 seeded tuples of 1-5 cyclically reduced discs over a, b, c, at
    most 12 letters in all.  Nine in ten give each letter an inverse partner
    and cut the shuffled letters into few discs, so that many need handles;
    the others take any letters, and most of those have no pairing."""
    rng = random.Random(5)
    tuples = []
    while len(tuples) < 2000:
        if rng.random() < 0.1:
            letters = [Generator(rng.randrange(3), rng.choice((1, -1)))
                       for _ in range(rng.randint(1, 12))]
        else:
            letters = [g for s in rng.choices(range(3), k=rng.randint(2, 6))
                       for g in (Generator(s, 1), Generator(s, -1))]
            rng.shuffle(letters)
        count = min(len(letters), rng.choice((1, 1, 1, 2, 2, 3, 4, 5)))
        cuts = [0, *sorted(rng.sample(range(1, len(letters)), count - 1)), len(letters)]
        discs = [letters[i:j] for i, j in zip(cuts, cuts[1:])]
        if all(x != y.inv() for d in discs for x, y in zip(d, d[1:] + d[:1])):
            tuples.append([Word(d) for d in discs])
    return tuples


def test_orientable_least_genus_matches_the_reference():
    found = Counter()
    for discs in _orientable_tuples():
        genus = _reference_orientable_genus(discs)
        assert tuple_genus(discs, ORIENTABLE, ("a", "b", "c")) == genus, discs
        found[genus] += 1
    assert found == {None: 427, 0: 1104, 1: 408, 2: 61}


def _pairings(letters):
    """Every way to cut the list of letters into pairs."""
    if not letters:
        yield []
        return
    for i in range(1, len(letters)):
        for rest in _pairings(letters[1:i] + letters[i + 1:]):
            yield [(letters[0], letters[i]), *rest]


def _reference_nonorientable_genus(discs):
    """The least cost of a non-orientable diagram of the discs by brute
    force, or None when no pairing exists.  Each pairing of every letter
    with an inverse or an equal letter glues the discs, as faces, along
    their letters, as edges; an equal pair glues with a twist.  Disc
    orientations are 2-coloured per component, alike across an inverse pair
    and opposite across an equal one.  A pairing costs the sum of 2 - chi
    over its components, plus 1 when every component is orientable and
    some component has a handle or holds an equal pair (a flipped disc).
    It shares no code with ``solver`` or ``surfaces``."""
    ends = {}  # symbol -> its letters, as (disc, offset)
    for d, w in enumerate(discs):
        for k, g in enumerate(w):
            ends.setdefault(g.sym, []).append((d, k))
    if any(len(v) % 2 for v in ends.values()):
        return None
    best = None
    for choice in product(*(list(_pairings(v)) for v in ends.values())):
        root = {}  # one union-find over discs and corners, (disc, k) the start of letter k

        def find(x):
            while root.get(x, x) != x:
                x = root[x]
            return x

        near = {d: [] for d in range(len(discs))}  # disc -> (disc, twisted) across each pair
        for (d, k), (e, j) in chain.from_iterable(choice):
            twisted = discs[d][k] == discs[e][j]
            # x runs from corner k to k + 1 of d; an equal letter runs the same
            # way on e, an inverse one from j + 1 to j
            corners = ((d, k), (d, (k + 1) % len(discs[d])))
            partners = ((e, j), (e, (j + 1) % len(discs[e])))
            for x, y in zip(corners, partners if twisted else partners[::-1]):
                root[find(x)] = find(y)
            root[find(d)] = find(e)
            near[d].append((e, twisted))
            near[e].append((d, twisted))
        colour, costs, orientable, flips = {}, [], True, False
        for start in range(len(discs)):
            if start in colour:
                continue
            colour[start], todo, whole, twists = 0, [start], True, False
            while todo:
                d = todo.pop()
                for e, twisted in near[d]:
                    twists |= twisted
                    if e not in colour:
                        colour[e] = colour[d] ^ twisted
                        todo.append(e)
                    whole &= colour[e] == colour[d] ^ twisted
            faces = [d for d in range(len(discs)) if find(d) == find(start)]
            vertices = {find((d, k)) for d in faces for k in range(len(discs[d]))}
            costs.append(2 - len(vertices) + sum(len(discs[d]) for d in faces) // 2 - len(faces))
            orientable &= whole
            flips |= whole and twists
        cost = sum(costs) + (orientable and (flips or any(costs)))
        best = cost if best is None else min(best, cost)
    return best


def _nonorientable_tuples():
    """2,000 seeded tuples of 1-5 cyclically reduced discs over a, b, c, at
    most 12 letters in all.  Nine in ten give each letter a partner of its
    symbol, of either sign, and cut the shuffled letters into few discs; the
    others take any letters, and many of those have no pairing."""
    rng = random.Random(6)
    tuples = []
    while len(tuples) < 2000:
        if rng.random() < 0.1:
            letters = [Generator(rng.randrange(3), rng.choice((1, -1)))
                       for _ in range(rng.randint(1, 12))]
        else:
            letters = [Generator(s, rng.choice((1, -1)))
                       for s in rng.choices(range(3), k=rng.randint(1, 6)) for _ in (0, 1)]
            rng.shuffle(letters)
        count = min(len(letters), rng.choice((1, 1, 1, 2, 2, 3, 4, 5)))
        cuts = [0, *sorted(rng.sample(range(1, len(letters)), count - 1)), len(letters)]
        discs = [letters[i:j] for i, j in zip(cuts, cuts[1:])]
        if all(x != y.inv() for d in discs for x, y in zip(d, d[1:] + d[:1])):
            tuples.append([Word(d) for d in discs])
    return tuples


def test_nonorientable_least_genus_is_never_below_the_reference():
    # the search charges a flip or an orientable handle's crosscap once per
    # component, where the reference charges it once per diagram, so it may
    # read higher, never lower.  Of the 1,786 tuples with a pairing, 79 read
    # one higher; charged once per diagram, all 1,786 would read equal
    above = Counter()
    for discs in _nonorientable_tuples():
        genus = tuple_genus(discs, NONORIENTABLE, ("a", "b", "c"))
        least = _reference_nonorientable_genus(discs)
        assert (genus is None) == (least is None), discs
        if least is not None:
            assert genus >= max(least, 1), discs
            above[genus - max(least, 1)] += 1
    assert above == {0: 1707, 1: 79}


def test_form_solvable_matches_packing():
    # the abelian cut keeps every verdict and leaves 3,596 of the 55,025
    # states that the search tabled without it; the count is exact, so a
    # change to the orientable search shows here
    instances = sweep_instances(4, 4, 3)
    assert len(instances) == 106
    states = 0
    for inst in instances:
        form = standardize(build_equation(inst, free_form=True)).form
        diag = _diagrams(form)  # what solve_quadratic searches
        assert diag.solvable_within(form.genus) == (exhaustive_pack(inst) is not None), inst
        states += len(diag._failed)
    assert states == 3_596


def test_spacer_forms_match_packing():
    # the paper's own reduction: build_equation without free_form, an
    # orientable genus-0 form over the spacer words
    instances = sweep_instances(3, 3, 2)
    assert len(instances) == 19
    forms = [standardize(build_equation(inst)).form for inst in instances]
    verdicts = [_diagrams(form).solvable_within(form.genus) for form in forms]
    assert verdicts == [exhaustive_pack(inst) is not None for inst in instances]
    assert sum(verdicts) == 11


def test_state_cap_makes_the_verdict_inconclusive(monkeypatch):
    # the spacer form of (2,2,2), N=2, B=3 is unsat after 648 tabled states
    system = build_equation(BinPackInstance((2, 2, 2), 2, 3))
    assert solve_quadratic(system).status == "unsat"
    monkeypatch.setattr(solver, "MAX_STATES", 100)
    assert solve_quadratic(system) == SolveResult("inconclusive", None, 0)
    # an unbalanced relator after it decides the system before any search
    text = system.render().replace("vars: z1 z2 z3", "vars: z1 z2 z3 w") + "w^-1 b w = c\n"
    assert solve_text(text) == SolveResult("unsat", None, 0)
    diag = _diagrams(standardize(system).form)
    with pytest.raises(SearchLimitError):
        diag.solvable_within(0)
    assert len(diag._failed) == 100

def _genus_words():
    """47 products of k commutators of random words of length 1..L, for
    (k, L) in (3, 2), (4, 2), (3, 3), (5, 1), 12 tries each, cyclically
    reduced; the empty product is dropped."""
    rng = random.Random(7)
    words = []
    for k, length in ((3, 2), (4, 2), (3, 3), (5, 1)):
        for _ in range(12):
            w = Word()
            for _ in range(k):
                w = w * commutator(_random_word(rng, rng.randint(1, length)),
                                   _random_word(rng, rng.randint(1, length)))
            core, _ = w.cyclic_reduce()
            if core:
                words.append(core)
    return words


# the least non-orientable genus of each _genus_words() word, found by the
# search without the mod-2 cut, which tabled 27,460 states for them; with
# the mod-2 cut it tabled 10,519
GENUS_WORDS_LEAST = "33333233333334323332333335233443343331333332223"

# SHA-256 over the search tables and certificates of the _genus_words() at
# their least genus, and of the _random_tuples() at theirs (see
# ``_tables``): a change of state, pivot, child order or chosen gluing in a
# non-orientable search shows here
GENUS_WORDS_TABLES = "ef941136a3739964a672fa73f35ab4e2053b09e922a0c464cc72bd697e3b2790"
RANDOM_TUPLES_TABLES = "7741d962f064fb1b624add13029fdc24f02fa426257327183677d0a8e11d017e"


def test_mod2_cut_keeps_least_genus_and_cuts_states():
    words = _genus_words()
    assert len(words) == 47
    least, states, h = [], 0, hashlib.sha256()
    for w in words:
        diag = CancellationDiagrams([w], NONORIENTABLE)
        g = diag.min_genus(len(w) // 2 + 1, 1)
        least.append(g)
        states += len(diag._failed)
        h.update(_tables(diag, g, diag.certificate(g)))
    assert "".join(map(str, least)) == GENUS_WORDS_LEAST
    # 2,374 with every cut.  A search of one disc keeps one open cluster,
    # which the one-cluster bound tests in place of the balance cuts.
    # Without the bound 5,236 when the mod-2 and signed cuts test those
    # children instead, 27,460 when nothing does; without the mod-2 or the
    # signed cut still 2,374
    assert states == 2_374
    assert h.hexdigest() == GENUS_WORDS_TABLES


def _random_word(rng, length, alphabet=AB):
    letters = []
    while len(letters) < length:
        g = alphabet.gen(rng.choice(alphabet.names), rng.choice((1, -1)))
        if not letters or letters[-1] != g.inv():
            letters.append(g)
    return Word(letters)


def _planted_form(rng, genus):
    """An orientable form of ``genus`` with a planted solution: 1-4 random
    coefficients C_j, and C the inverse of prod [x, y] prod z_j^-1 C_j z_j."""
    cs = [_random_word(rng, rng.randint(0, 3)) for _ in range(rng.randint(1, 4))]
    product = Word()
    for _ in range(genus):
        product = product * commutator(_random_word(rng, rng.randint(1, 2)),
                                       _random_word(rng, rng.randint(1, 2)))
    for c in cs:
        z = _random_word(rng, rng.randint(0, 2))
        product = product * z.inverse() * c * z
    return StandardForm(ORIENTABLE, genus, tuple(cs), product.inverse())


# the longest witness value over the equation's length: at most 0.42 on the
# genus-0 forms below, 0.46 on genus 1, 0.55 on genus 2, 0.81 on genus 3 and
# 0.74 on genus 4.  The cited free-group bound for orientable forms is 2s,
# s the coefficients' length, and the paper's bound over torsion-free
# hyperbolic groups is N |Q|^4
WITNESS_PER_LETTER = 1.0


def test_witnesses_check_and_stay_linear():
    # the 60 seeded products of up to four conjugates that the oracle's
    # first solution used to pin, then planted forms of genus 1 to 4
    rng = random.Random(11)
    forms = [_planted_form(rng, 0) for _ in range(60)]
    rng = random.Random(12)
    forms += [_planted_form(rng, genus) for genus in (1, 2, 3, 4) for _ in range(40)]
    worst = dict.fromkeys(range(5), 0.0)
    for form in forms:
        system = form.system(GENS)
        r = genus_at([*form.coefficients, form.tail], form.genus, ORIENTABLE, GENS)
        assert r.solvable and system.check(r.witness), form
        longest = max(map(len, r.witness.values()), default=0)
        assert longest <= WITNESS_PER_LETTER * system.total_length(), form
        if longest:
            worst[form.genus] = max(worst[form.genus], longest / system.total_length())
    # a handle adds about as much as the one before it
    assert worst[2] <= 1.5 * worst[1], worst


def _face_genus(scheme):
    """The genus of one disc whose boundary reads ``scheme``, a word in
    which each symbol occurs once with each sign; a cancelling pair is a
    vertex with its edge, so reducing the word keeps the genus."""
    core, _ = Word(scheme).cyclic_reduce()
    return glue([core]).genus if core else 0


def _exact_commutators(face, cores, partner):
    pairs = _commutators(face, cores, partner)
    product = Word()
    for x, y in pairs:
        product = product * commutator(x, y)
    assert product == Word([cores[d][k] for d, k in face]), face
    return pairs


def test_commutators_multiply_out_to_the_face():
    # faces of one disc, glued by the certificate of a form of genus 1 to 4
    rng = random.Random(3)
    tails = [(commutator(a, b) ** 3, 2)]
    for genus in (1, 2, 3, 4):
        for _ in range(15):
            product = Word()
            for _ in range(genus):
                product = product * commutator(_random_word(rng, rng.randint(1, 3)),
                                               _random_word(rng, rng.randint(1, 3)))
            tails.append((product, genus))
    faces = 0
    for tail, genus in tails:
        core, _ = tail.cyclic_reduce()
        if not core:
            continue
        pairs, surface = _certified_surface([core], ORIENTABLE, genus)
        partner = {}
        for p, q in pairs:
            partner[p], partner[q] = q, p
        face = [(0, k) for k in range(len(core))]
        assert len(_exact_commutators(face, [core], partner)) == surface.genus, core
        faces += 1
    assert faces >= 40
    # random faces glued in inverse pairs, each letter a disc of its own
    for _ in range(300):
        n = rng.randint(1, 8)
        scheme = [Generator(k, sign) for k in range(n) for sign in (1, -1)]
        rng.shuffle(scheme)
        value = [AB.gen(rng.choice(GENS), rng.choice((1, -1))) for _ in range(n)]
        cores = [Word([value[g.sym] if g.sign > 0 else value[g.sym].inv()]) for g in scheme]
        at = {g: i for i, g in enumerate(scheme)}
        partner = {(i, 0): (at[g.inv()], 0) for i, g in enumerate(scheme)}
        face = [(i, 0) for i in range(len(scheme))]
        assert len(_exact_commutators(face, cores, partner)) == _face_genus(scheme), scheme


def _discs(form):
    return [core for core, _ in (c.cyclic_reduce() for c in (*form.coefficients, form.tail)) if core]


def _certified_surface(discs, kind, genus):
    """The certificate's pairs at ``genus``, and the surface they glue from
    the discs, each pair relabelled as its own edge."""
    pairs = CancellationDiagrams(discs, kind).certificate(genus)
    edge = {}
    for k, (p, q) in enumerate(pairs):
        x, y = discs[p[0]][p[1]], discs[q[0]][q[1]]
        assert x.sym == y.sym
        edge[p], edge[q] = Generator(k, x.sign), Generator(k, y.sign)
    assert len(edge) == sum(map(len, discs))
    return pairs, glue([Word([edge[d, i] for i in range(len(w))]) for d, w in enumerate(discs)])


def test_certificate_glues_inverse_pairs_within_the_genus():
    forms = [f for f in (standardize(build_equation(inst, free_form=True)).form
                         for inst in sweep_instances(4, 3, 2))
             if _diagrams(f).solvable_within(f.genus)]
    assert len(forms) == 14
    forms.append(StandardForm(ORIENTABLE, 2, (), commutator(a, b) ** 3))
    rng = random.Random(5)
    forms += [_planted_form(rng, rng.randint(0, 2)) for _ in range(200)]
    for form in forms:
        discs = _discs(form)
        pairs, surface = _certified_surface(discs, ORIENTABLE, form.genus)
        assert all(discs[p[0]][p[1]] == discs[q[0]][q[1]].inv() for p, q in pairs), form
        assert surface.genus <= form.genus, form


def test_certificate_after_rising_budgets():
    # the budget that min_genus proved is replayed without a new search
    diag = CancellationDiagrams([commutator(a, b) ** 3], ORIENTABLE)
    assert diag.certificate(1) is None
    assert diag.min_genus(7) == 2
    assert len(diag.certificate(2)) == 6
    assert CancellationDiagrams([a * b, b * a], ORIENTABLE).certificate(5) is None
    assert CancellationDiagrams([], ORIENTABLE).certificate(0) == []


def test_search_and_certificate_leave_no_reference_cycle():
    # a reference cycle through a memo keeps a discarded instance's tables
    # and memos alive until the collector runs, which slows every later case
    tuples = [([commutator(a, b) ** 3], ORIENTABLE), ([a * b, b.inverse() * a.inverse()], ORIENTABLE),
              ([a * a * b * b], NONORIENTABLE), ([commutator(a, b), a * a], NONORIENTABLE)]
    gc.collect()
    gc.disable()
    try:
        for discs, kind in tuples:
            diag = CancellationDiagrams(discs, kind)
            assert diag.certificate(diag.min_genus(sum(map(len, discs)))) is not None
        del diag
        assert gc.collect() == 0
    finally:
        gc.enable()


def _nonorientable_cost(surface, discs, pairs):
    """The cost table of the solver's module docstring, per component."""
    total = 0
    for comp in surface.components:
        if not comp.orientable:
            total += comp.genus
        elif comp.genus:
            total += 2 * comp.genus + 1
        else:  # a sphere costs a crosscap when some disc must flip
            total += any(discs[p[0]][p[1]] == discs[q[0]][q[1]]
                         for p, q in pairs if p[0] in comp.faces)
    return total


def test_nonorientable_certificate_fits_the_cost_table():
    for kind, discs, genus in _pinned_tuples():
        if kind != NONORIENTABLE or genus is None:
            continue
        pairs, surface = _certified_surface(discs, kind, genus)
        assert _nonorientable_cost(surface, discs, pairs) <= genus, discs


# corpus skeletons whose handle reaches crosscap absorption with a negative
# letter (p^-1 q p q^-1, p^-1 q^-1 p q, p q^-1 p^-1 q), each bare and with the
# corpus's constant variants
ABSORPTION_SYSTEMS = [
    f"{pre}{skeleton}{post}"
    for skeleton in ("x y x z y z^-1", "x y z x z y", "x y z y^-1 x z")
    for pre, post in (("", ""), ("a ", " b^-1"), ("a^-1 b ", " a"))
]


@pytest.mark.parametrize("eq", ABSORPTION_SYSTEMS)
def test_crosscap_absorption_systems(eq):
    s = parse_system(f"gens: a b\nvars: x y z\n{eq} = 1")
    res = solve_quadratic(s)
    assert res.status == ("sat" if is_satisfiable(s, SearchBound(2)) else "unsat")
    if res.status == "sat":
        assert s.check(res.witness)


# Every 10th corpus system: (corpus index, status, witness digest) for each
# one that is not unsat; the digest is the first 16 hex digits of the sha256
# of the witness rendered as sorted ``name = word`` entries joined by "; ".
# Every other sampled system is unsat.
SOLVE_PINS = [
    (60, 'sat', '0db4f1196d49a3f3'), (770, 'sat', '6352153fcd381243'), (830, 'sat', 'edfa2809e1e656ba'),
    (880, 'sat', '6352153fcd381243'), (940, 'sat', '230e6b47dd017583'), (1160, 'sat', '4af9f1ab97a0146f'),
    (1210, 'sat', '582b1d4124eeaca1'), (1380, 'sat', '04b9d747246d01ce'), (1430, 'sat', '6352153fcd381243'),
    (1490, 'sat', 'edfa2809e1e656ba'), (1600, 'sat', '230e6b47dd017583'), (1710, 'sat', '04b9d747246d01ce'),
    (1760, 'sat', 'a21602a31e8cd63e'), (1820, 'sat', '04b9d747246d01ce'), (1870, 'sat', 'eafdaa263741b9cd'),
    (1930, 'sat', 'edfa2809e1e656ba'), (2040, 'sat', 'c0b0d98ca6c305e8'), (2190, 'sat', '42e8fa3b34633ab1'),
    (2250, 'sat', 'e404cad769020a16'), (6410, 'sat', 'd6737c49d98fd21b'), (6460, 'sat', '265457fa01de9d46'),
    (6670, 'sat', 'd92bf6d23ff11b96'), (7100, 'sat', '1375de62fce40871'), (7260, 'sat', '46b945daa7be5b96'),
    (7410, 'sat', '8bffb9a8a45d7949'), (7470, 'sat', '9d6ae314904acd32'), (7520, 'sat', '09532307b211ee33'),
    (7730, 'sat', '35591d1b0ca56495'), (7890, 'sat', '304d2b055224f82e'), (8040, 'sat', '8bffb9a8a45d7949'),
    (8100, 'sat', 'fed838cf4c444d53'), (8150, 'sat', '34e630c1c33c0be0'), (8360, 'sat', '9ea426dccce26c00'),
    (8400, 'sat', 'fe70446bf5a7275d'), (8460, 'sat', '381c59dde38ce6a4'), (8510, 'sat', 'fe70446bf5a7275d'),
    (8570, 'sat', '9aa47c98c10c7404'), (8620, 'sat', 'fe70446bf5a7275d'), (8680, 'sat', '381c59dde38ce6a4'),
    (8730, 'sat', 'fe70446bf5a7275d'), (8840, 'sat', 'fe70446bf5a7275d'), (8900, 'sat', '9aa47c98c10c7404'),
    (8950, 'sat', 'fe70446bf5a7275d'), (9010, 'sat', '9aa47c98c10c7404'), (9060, 'sat', 'fe70446bf5a7275d'),
    (9120, 'sat', '9aa47c98c10c7404'), (9170, 'sat', 'fe70446bf5a7275d'), (9230, 'sat', 'f7ac39de4da2b4d0'),
    (9280, 'sat', 'fe70446bf5a7275d'), (9340, 'sat', '192a296e4e56b520'), (9390, 'sat', 'fe70446bf5a7275d'),
    (9450, 'sat', '9aa47c98c10c7404'), (9500, 'sat', 'fe70446bf5a7275d'), (9560, 'sat', '381c59dde38ce6a4'),
    (9610, 'sat', 'fe70446bf5a7275d'), (9670, 'sat', '9aa47c98c10c7404'), (9720, 'sat', 'fe70446bf5a7275d'),
    (9780, 'sat', '9aa47c98c10c7404'), (9830, 'sat', 'fe70446bf5a7275d'), (9890, 'sat', '9aa47c98c10c7404'),
    (9940, 'sat', 'fe70446bf5a7275d'), (10000, 'sat', '294a2e1e5b5305e4'), (10050, 'sat', 'fe70446bf5a7275d'),
    (10110, 'sat', '6f6138fc966a4828'), (10160, 'sat', 'fe70446bf5a7275d'), (10220, 'sat', '294a2e1e5b5305e4'),
    (10270, 'sat', 'fe70446bf5a7275d'), (10330, 'sat', '9aa47c98c10c7404'), (10380, 'sat', 'fe70446bf5a7275d'),
    (10440, 'sat', '9aa47c98c10c7404'), (10490, 'sat', 'fe70446bf5a7275d'), (10600, 'sat', 'fe70446bf5a7275d'),
    (10660, 'sat', '265457fa01de9d46'), (10710, 'sat', 'fe70446bf5a7275d'), (10820, 'sat', 'fe70446bf5a7275d'),
    (10880, 'sat', 'd92bf6d23ff11b96'), (10930, 'sat', 'fe70446bf5a7275d'), (10990, 'sat', '265457fa01de9d46'),
    (11040, 'sat', 'fe70446bf5a7275d'), (11100, 'sat', 'd92bf6d23ff11b96'), (11150, 'sat', 'fe70446bf5a7275d'),
    (11260, 'sat', 'fe70446bf5a7275d'), (11370, 'sat', 'fe70446bf5a7275d'), (11480, 'sat', 'fe70446bf5a7275d'),
    (11540, 'sat', '42e8fa3b34633ab1'), (11590, 'sat', 'fe70446bf5a7275d'), (11650, 'sat', '7fb37ac8ce3153ec'),
    (11700, 'sat', 'fe70446bf5a7275d'), (11760, 'sat', 'e137d8b66dd9391f'), (11810, 'sat', 'fe70446bf5a7275d'),
    (11920, 'sat', 'fe70446bf5a7275d'), (11980, 'sat', 'd92bf6d23ff11b96'), (12030, 'sat', 'fe70446bf5a7275d'),
    (12090, 'sat', 'e734a382cd42ae96'), (12140, 'sat', 'fe70446bf5a7275d'), (12250, 'sat', 'fe70446bf5a7275d'),
    (12360, 'sat', 'fe70446bf5a7275d'), (12420, 'sat', '265457fa01de9d46'), (12470, 'sat', 'fe70446bf5a7275d'),
    (12530, 'sat', '42e8fa3b34633ab1'), (12580, 'sat', 'fe70446bf5a7275d'), (12640, 'sat', 'ae6f56de4fbf79fc'),
    (12690, 'sat', 'fe70446bf5a7275d'), (12750, 'sat', '343b15807200be84'), (12800, 'sat', 'fe70446bf5a7275d'),
    (12910, 'sat', 'fe70446bf5a7275d'), (12970, 'sat', 'e734a382cd42ae96'), (13020, 'sat', 'fe70446bf5a7275d'),
    (13080, 'sat', '42e8fa3b34633ab1'), (13130, 'sat', 'fe70446bf5a7275d'), (13190, 'sat', 'e734a382cd42ae96'),
    (13240, 'sat', 'fe70446bf5a7275d'), (13300, 'sat', '9aa47c98c10c7404'), (13350, 'sat', 'fe70446bf5a7275d'),
    (13410, 'sat', '294a2e1e5b5305e4'), (13460, 'sat', 'fe70446bf5a7275d'), (13520, 'sat', '9aa47c98c10c7404'),
    (13570, 'sat', 'fe70446bf5a7275d'), (13680, 'sat', 'fe70446bf5a7275d'), (13740, 'sat', '9aa47c98c10c7404'),
    (13790, 'sat', 'fe70446bf5a7275d'), (13850, 'sat', 'e734a382cd42ae96'), (13900, 'sat', 'fe70446bf5a7275d'),
    (13960, 'sat', 'e734a382cd42ae96'), (14010, 'sat', 'fe70446bf5a7275d'), (14070, 'sat', '9aa47c98c10c7404'),
    (14120, 'sat', 'fe70446bf5a7275d'), (14180, 'sat', 'f7ac39de4da2b4d0'), (14230, 'sat', 'fe70446bf5a7275d'),
    (14290, 'sat', '9aa47c98c10c7404'), (14340, 'sat', 'fe70446bf5a7275d'), (14400, 'sat', '9aa47c98c10c7404'),
    (14450, 'sat', 'fe70446bf5a7275d'), (14510, 'sat', '294a2e1e5b5305e4'), (14560, 'sat', 'fe70446bf5a7275d'),
    (14620, 'sat', '4d4b67b844d688ca'), (14670, 'sat', 'fe70446bf5a7275d'), (14730, 'sat', '4d4b67b844d688ca'),
    (14780, 'sat', 'fe70446bf5a7275d'), (14840, 'sat', '294a2e1e5b5305e4'), (14890, 'sat', 'fe70446bf5a7275d'),
    (14950, 'sat', '42e8fa3b34633ab1'), (15000, 'sat', 'fe70446bf5a7275d'), (15060, 'sat', '294a2e1e5b5305e4'),
    (15110, 'sat', 'fe70446bf5a7275d'), (15170, 'sat', '294a2e1e5b5305e4'), (15220, 'sat', 'fe70446bf5a7275d'),
    (15280, 'sat', '4d4b67b844d688ca'), (15330, 'sat', 'fe70446bf5a7275d'), (15390, 'sat', '265457fa01de9d46'),
    (15440, 'sat', 'fe70446bf5a7275d'), (15550, 'sat', 'fe70446bf5a7275d'), (15610, 'sat', '18baa11cec8bb78f'),
    (15660, 'sat', 'fe70446bf5a7275d'), (15720, 'sat', '265457fa01de9d46'), (15770, 'sat', 'fe70446bf5a7275d'),
    (15830, 'sat', 'd92bf6d23ff11b96'), (15880, 'sat', 'fe70446bf5a7275d'), (15940, 'sat', '343b15807200be84'),
    (15990, 'sat', 'fe70446bf5a7275d'), (16050, 'sat', 'd92bf6d23ff11b96'), (16100, 'sat', 'fe70446bf5a7275d'),
    (16160, 'sat', 'd92bf6d23ff11b96'), (16210, 'sat', 'fe70446bf5a7275d'), (16270, 'sat', '294a2e1e5b5305e4'),
    (16320, 'sat', 'fe70446bf5a7275d'), (16380, 'sat', 'd92bf6d23ff11b96'), (16430, 'sat', 'fe70446bf5a7275d'),
    (16490, 'sat', 'c8f70b1bcf73828a'), (16540, 'sat', 'fe70446bf5a7275d'), (16600, 'sat', 'd92bf6d23ff11b96'),
    (16650, 'sat', 'fe70446bf5a7275d'), (16710, 'sat', 'd92bf6d23ff11b96'), (16760, 'sat', 'fe70446bf5a7275d'),
    (16820, 'sat', 'e734a382cd42ae96'), (16870, 'sat', 'fe70446bf5a7275d'), (16930, 'sat', '391adf7c221c1c8a'),
    (16980, 'sat', 'fe70446bf5a7275d'), (17040, 'sat', '381c59dde38ce6a4'), (17090, 'sat', 'fe70446bf5a7275d'),
    (17150, 'sat', 'd92bf6d23ff11b96'), (17200, 'sat', 'fe70446bf5a7275d'), (17260, 'sat', 'd92bf6d23ff11b96'),
    (17310, 'sat', 'fe70446bf5a7275d'), (17370, 'sat', '294a2e1e5b5305e4'), (17420, 'sat', 'fe70446bf5a7275d'),
    (17480, 'sat', 'd92bf6d23ff11b96'), (17530, 'sat', 'fe70446bf5a7275d'), (17590, 'sat', 'd92bf6d23ff11b96'),
    (17640, 'sat', 'fe70446bf5a7275d'), (17700, 'sat', '265457fa01de9d46'), (17750, 'sat', 'fe70446bf5a7275d'),
    (17810, 'sat', '265457fa01de9d46'), (17860, 'sat', 'fe70446bf5a7275d'), (17920, 'sat', 'ae6f56de4fbf79fc'),
    (17970, 'sat', 'fe70446bf5a7275d'), (18030, 'sat', '294a2e1e5b5305e4'), (18080, 'sat', 'fe70446bf5a7275d'),
    (18140, 'sat', 'd92bf6d23ff11b96'), (18190, 'sat', 'fe70446bf5a7275d'), (18300, 'sat', 'fe70446bf5a7275d'),
    (18410, 'sat', 'fe70446bf5a7275d'), (18520, 'sat', 'fe70446bf5a7275d'), (18580, 'sat', '265457fa01de9d46'),
    (18630, 'sat', 'fe70446bf5a7275d'), (18690, 'sat', '7fb37ac8ce3153ec'), (18740, 'sat', 'fe70446bf5a7275d'),
    (18800, 'sat', 'e137d8b66dd9391f'), (18850, 'sat', 'fe70446bf5a7275d'), (18910, 'sat', '859d3c7463d881d1'),
    (18960, 'sat', 'fe70446bf5a7275d'), (19020, 'sat', 'd92bf6d23ff11b96'), (19070, 'sat', 'fe70446bf5a7275d'),
    (19130, 'sat', '265457fa01de9d46'), (19180, 'sat', 'fe70446bf5a7275d'), (19290, 'sat', 'fe70446bf5a7275d'),
    (19400, 'sat', 'fe70446bf5a7275d'), (19510, 'sat', 'fe70446bf5a7275d'), (19620, 'sat', 'fe70446bf5a7275d'),
    (19680, 'sat', '18baa11cec8bb78f'), (19730, 'sat', 'fe70446bf5a7275d'), (19790, 'sat', '7fb37ac8ce3153ec'),
    (19840, 'sat', 'fe70446bf5a7275d'), (19900, 'sat', '265457fa01de9d46'), (19950, 'sat', 'fe70446bf5a7275d'),
    (20010, 'sat', '391adf7c221c1c8a'), (20060, 'sat', 'fe70446bf5a7275d'), (20120, 'sat', 'ae6f56de4fbf79fc'),
    (20170, 'sat', 'fe70446bf5a7275d'), (20230, 'sat', 'e734a382cd42ae96'), (20280, 'sat', 'fe70446bf5a7275d'),
    (20390, 'sat', 'fe70446bf5a7275d'), (20500, 'sat', 'fe70446bf5a7275d'), (20560, 'sat', 'f4013f88f955b99c'),
    (20610, 'sat', 'fe70446bf5a7275d'), (20670, 'sat', 'e734a382cd42ae96'), (20720, 'sat', 'fe70446bf5a7275d'),
    (20780, 'sat', '42e8fa3b34633ab1'), (20830, 'sat', 'fe70446bf5a7275d'), (20890, 'sat', '7fb37ac8ce3153ec'),
    (20940, 'sat', 'fe70446bf5a7275d'), (21000, 'sat', 'f7ac39de4da2b4d0'), (21050, 'sat', 'fe70446bf5a7275d'),
    (21110, 'sat', '391adf7c221c1c8a'), (21160, 'sat', 'fe70446bf5a7275d'), (21220, 'sat', '9aa47c98c10c7404'),
    (21270, 'sat', 'fe70446bf5a7275d'), (21330, 'sat', '294a2e1e5b5305e4'), (21380, 'sat', 'fe70446bf5a7275d'),
    (21440, 'sat', '9aa47c98c10c7404'), (21490, 'sat', 'fe70446bf5a7275d'), (21600, 'sat', 'fe70446bf5a7275d'),
    (21660, 'sat', 'e734a382cd42ae96'), (21710, 'sat', 'fe70446bf5a7275d'), (21770, 'sat', '391adf7c221c1c8a'),
    (21820, 'sat', 'fe70446bf5a7275d'), (21930, 'sat', 'fe70446bf5a7275d'), (21990, 'sat', '7fb37ac8ce3153ec'),
    (22040, 'sat', 'fe70446bf5a7275d'), (22100, 'sat', '294a2e1e5b5305e4'), (22150, 'sat', 'fe70446bf5a7275d'),
    (22210, 'sat', '859d3c7463d881d1'), (22260, 'sat', 'fe70446bf5a7275d'), (22320, 'sat', '9aa47c98c10c7404'),
    (22370, 'sat', 'fe70446bf5a7275d'), (22430, 'sat', '294a2e1e5b5305e4'), (22480, 'sat', 'fe70446bf5a7275d'),
    (22540, 'sat', '9aa47c98c10c7404'), (22590, 'sat', 'fe70446bf5a7275d'), (22700, 'sat', 'fe70446bf5a7275d'),
    (22810, 'sat', 'fe70446bf5a7275d'), (22920, 'sat', 'fe70446bf5a7275d'), (22980, 'sat', '265457fa01de9d46'),
    (23030, 'sat', 'fe70446bf5a7275d'), (23090, 'sat', '35e895acd07e304b'), (23140, 'sat', 'fe70446bf5a7275d'),
    (23250, 'sat', 'fe70446bf5a7275d'), (23310, 'sat', 'e734a382cd42ae96'), (23360, 'sat', 'fe70446bf5a7275d'),
    (23420, 'sat', '9aa47c98c10c7404'), (23470, 'sat', 'fe70446bf5a7275d'), (23530, 'sat', '294a2e1e5b5305e4'),
    (23580, 'sat', 'fe70446bf5a7275d'), (23690, 'sat', 'fe70446bf5a7275d'), (23800, 'sat', 'fe70446bf5a7275d'),
    (23910, 'sat', 'fe70446bf5a7275d'), (24020, 'sat', 'fe70446bf5a7275d'), (24080, 'sat', '4d4b67b844d688ca'),
    (24130, 'sat', 'fe70446bf5a7275d'), (24190, 'sat', '391adf7c221c1c8a'), (24240, 'sat', 'fe70446bf5a7275d'),
    (24300, 'sat', 'c081ad3b67fcbf85'), (24350, 'sat', 'fe70446bf5a7275d'), (24410, 'sat', '9fbb234173450ef1'),
    (24460, 'sat', 'fe70446bf5a7275d'), (24520, 'sat', '42e8fa3b34633ab1'), (24570, 'sat', 'fe70446bf5a7275d'),
    (24630, 'sat', 'e734a382cd42ae96'), (24680, 'sat', 'fe70446bf5a7275d'), (24790, 'sat', 'fe70446bf5a7275d'),
    (24850, 'sat', '859d3c7463d881d1'), (24900, 'sat', 'fe70446bf5a7275d'), (24960, 'sat', 'e734a382cd42ae96'),
    (25010, 'sat', 'fe70446bf5a7275d'), (25070, 'sat', 'd92bf6d23ff11b96'), (25120, 'sat', 'fe70446bf5a7275d'),
    (25180, 'sat', '343b15807200be84'), (25230, 'sat', 'fe70446bf5a7275d'), (25290, 'sat', 'd92bf6d23ff11b96'),
    (25340, 'sat', 'fe70446bf5a7275d'), (25400, 'sat', '192a296e4e56b520'), (25450, 'sat', 'fe70446bf5a7275d'),
    (25510, 'sat', '391adf7c221c1c8a'), (25560, 'sat', 'fe70446bf5a7275d'), (25620, 'sat', 'd92bf6d23ff11b96'),
    (25670, 'sat', 'fe70446bf5a7275d'), (25730, 'sat', '294a2e1e5b5305e4'), (25780, 'sat', 'fe70446bf5a7275d'),
    (25840, 'sat', '4d4b67b844d688ca'), (25890, 'sat', 'fe70446bf5a7275d'), (25950, 'sat', '859d3c7463d881d1'),
    (26000, 'sat', 'fe70446bf5a7275d'), (26060, 'sat', '859d3c7463d881d1'), (26110, 'sat', 'fe70446bf5a7275d'),
    (26170, 'sat', '3c5abdbd553e22e6'), (26220, 'sat', 'fe70446bf5a7275d'), (26330, 'sat', 'fe70446bf5a7275d'),
    (26390, 'sat', 'd92bf6d23ff11b96'), (26440, 'sat', 'fe70446bf5a7275d'), (26500, 'sat', 'c8f70b1bcf73828a'),
    (26550, 'sat', 'fe70446bf5a7275d'), (26610, 'sat', 'e734a382cd42ae96'), (26660, 'sat', 'fe70446bf5a7275d'),
    (26720, 'sat', 'd92bf6d23ff11b96'), (26770, 'sat', 'fe70446bf5a7275d'), (26830, 'sat', '294a2e1e5b5305e4'),
    (26880, 'sat', 'fe70446bf5a7275d'), (26940, 'sat', '4d4b67b844d688ca'), (26990, 'sat', 'fe70446bf5a7275d'),
    (27100, 'sat', 'fe70446bf5a7275d'), (27160, 'sat', 'f4013f88f955b99c'), (27210, 'sat', 'fe70446bf5a7275d'),
    (27320, 'sat', 'fe70446bf5a7275d'), (27380, 'sat', 'e734a382cd42ae96'), (27430, 'sat', 'fe70446bf5a7275d'),
    (27490, 'sat', '265457fa01de9d46'), (27540, 'sat', 'fe70446bf5a7275d'), (27600, 'sat', '9fbb234173450ef1'),
    (27650, 'sat', 'fe70446bf5a7275d'), (27710, 'sat', 'ae6f56de4fbf79fc'), (27760, 'sat', 'fe70446bf5a7275d'),
    (27820, 'sat', '265457fa01de9d46'), (27870, 'sat', 'fe70446bf5a7275d'), (27930, 'sat', '8c198ba5115a98aa'),
    (27980, 'sat', 'fe70446bf5a7275d'), (28040, 'sat', '294a2e1e5b5305e4'), (28090, 'sat', 'fe70446bf5a7275d'),
    (28150, 'sat', 'e734a382cd42ae96'), (28200, 'sat', 'fe70446bf5a7275d'), (28260, 'sat', 'ae6f56de4fbf79fc'),
    (28310, 'sat', 'fe70446bf5a7275d'), (28370, 'sat', '294a2e1e5b5305e4'), (28420, 'sat', 'fe70446bf5a7275d'),
    (28480, 'sat', 'ae6f56de4fbf79fc'), (28530, 'sat', 'fe70446bf5a7275d'), (28590, 'sat', '265457fa01de9d46'),
    (28640, 'sat', 'fe70446bf5a7275d'), (28700, 'sat', '391adf7c221c1c8a'), (28750, 'sat', 'fe70446bf5a7275d'),
    (28810, 'sat', 'ae6f56de4fbf79fc'), (28860, 'sat', 'fe70446bf5a7275d'), (28920, 'sat', '294a2e1e5b5305e4'),
    (28970, 'sat', 'fe70446bf5a7275d'), (29030, 'sat', '8c198ba5115a98aa'), (29080, 'sat', 'fe70446bf5a7275d'),
    (29140, 'sat', '8c198ba5115a98aa'), (29190, 'sat', 'fe70446bf5a7275d'), (29250, 'sat', 'f4013f88f955b99c'),
    (29300, 'sat', 'fe70446bf5a7275d'), (29360, 'sat', '343b15807200be84'), (29410, 'sat', 'fe70446bf5a7275d'),
    (29470, 'sat', '294a2e1e5b5305e4'), (29520, 'sat', 'fe70446bf5a7275d'), (29580, 'sat', 'ae6f56de4fbf79fc'),
    (29630, 'sat', 'fe70446bf5a7275d'),
]


def _witness_digest(system, witness):
    text = "; ".join(f"{n} = {system.alphabet.format(w)}" for n, w in sorted(witness.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_solve_quadratic_pinned_corpus():
    from corpus import corpus_systems

    pins = {row[0]: row for row in SOLVE_PINS}
    systems = corpus_systems()
    for i in range(0, len(systems), 10):
        res = solve_quadratic(systems[i])
        if i in pins:
            assert (i, res.status, _witness_digest(systems[i], res.witness)) == pins[i]
        else:
            assert res.status == "unsat", i


# --- parity pins of the non-orientable pruning ----------------------------------

# SHA-256 digests recorded before the oracle's constant-run bound and the
# diagram search's mod-2 cut, and, for the random tuples, before the exact
# cuts: each only drops work that cannot succeed, so verdicts, oracle
# bounds, witnesses and certificates stay as they were.
PRUNING_PINS = {
    "squares": "e36d9bae0f73c09a30411cf83da995088948f07b571b6d8a0c398554337a01e2",
    "binpack_free": "695f464a6390d717a2d9e52c8d62b0834257367a6208b67a902eb2f584526670",
    "nonorientable_certificates":
        "19d8f7b1002c5ce1ce1f089783ea4a5462fcca6ca7a0fb3a944a39f396605f2c",
    "random_tuples": "46ad5910ed6a800764f078214e3e53933c37b6c6dfc4c352d87167c143d02ddd",
}


def _random_tuples():
    """200 non-orientable tuples of 2-4 random cyclically reduced discs of
    2-9 letters over a, b, c, each with an even count of every symbol, so
    that the balance test passes and the search runs."""
    rng = random.Random(2)
    tuples = []
    while len(tuples) < 200:
        discs, count = [], rng.randint(2, 4)
        while len(discs) < count:
            w = _random_word(rng, rng.randint(2, 9), ABC)
            if w[0] != w[-1].inv():
                discs.append(w)
        symbols = [g.sym for d in discs for g in d]
        if all(symbols.count(s) % 2 == 0 for s in symbols):
            tuples.append((NONORIENTABLE, discs, None))
    return tuples


def _solve_digest(systems):
    """Over each system's verdict, oracle bound and witness digest."""
    h = hashlib.sha256()
    for i, s in enumerate(systems):
        r = solve_quadratic(s)
        w = None if r.witness is None else _witness_digest(s, r.witness)
        h.update(repr((i, r.status, r.bound_used, w)).encode())
    return h.hexdigest()


def _certificate_digest(tuples):
    """Over each tuple's least genus and its certificate there, found after
    the rising budgets of ``min_genus`` and by a fresh search at it."""
    h = hashlib.sha256()
    for kind, discs, _ in tuples:
        diag = CancellationDiagrams(discs, kind)
        g = diag.min_genus(sum(map(len, discs)) // 2 + 1)
        if g is not None:
            fresh = CancellationDiagrams(discs, kind).certificate(g)
            h.update(repr((g, diag.certificate(g), fresh)).encode())
        h.update(b"|")
    return h.hexdigest()


def test_nonorientable_pruning_parity_pinned():
    from test_oracle import _squares_systems

    binpack = [build_equation(inst, free_form=True) for inst in sweep_instances(4, 3, 2)]
    nonorientable = [t for t in _pinned_tuples() if t[0] == NONORIENTABLE]
    assert len(binpack) == 22 and len(nonorientable) == 180
    got = {
        "squares": _solve_digest(_squares_systems()),
        "binpack_free": _solve_digest(binpack),
        "nonorientable_certificates": _certificate_digest(nonorientable),
        "random_tuples": _certificate_digest(_random_tuples()),
    }
    assert got == PRUNING_PINS


def test_exact_cuts_keep_multi_disc_states_down():
    # failed states of min_genus on the random tuples: 9,886 with every cut,
    # 10,573 without the mod-2 cut, 13,771 without the signed cut; without
    # the one-cluster bound 15,673 when the mod-2 and signed cuts test
    # one-cluster children instead, 100,227 when nothing does; 126,722
    # without all three.  The count is exact, so dropping any one of them
    # shows here
    states, h = 0, hashlib.sha256()
    for kind, discs, _ in _random_tuples():
        diag = CancellationDiagrams(discs, kind)
        g = diag.min_genus(sum(map(len, discs)) // 2 + 1)
        states += len(diag._failed)
        h.update(_tables(diag, g, None if g is None else diag.certificate(g)))
    assert states == 9_886
    assert h.hexdigest() == RANDOM_TUPLES_TABLES


# --- parity pin of the search tables ----------------------------------------------

# the first 100 genus queries of the benchmark's planted workload at seed 0,
# capitals for inverse letters
PLANTED_GENUS_WORDS = """
    bABabABa BAbaBBabbA BabA babABBabAB ABabaBAb abABBAba AAbaBaabAABa BabA baBA
    aabABA abABABab ABababbABB ABab bAABaabbABaB baBA abABAbaB baBA ABab baaBAA
    abAB baBBAb baBAbaBA abABBAbabABa AbaBAAbaBa baBAAABaba baBA ABBabbbbaBBA
    AbaB BabABAba bABaBabA baaBAA abABABab aBAbABAAbaaa BAba AAbbaaBBAAbaBa
    aBabAA aBAbbABa BAba AAAbaaBabAbbaBBB aBAbABabbABa baBAAbaB BabABabA
    baBAABabAbaB abAB AAbbaaBB baBBAb BAbaBaabAA BBabbA ABAAbaaa BabbAABa BabA
    BAbaabAABa abABBAba aBAbAbaB BAba bABa BabAbbABaB BBAbabAbaB BabAAbaBBabA
    ABab bABa BAba ABab AbaB ABabbaBA abAB bABaBABabb bABa abABaBAbbaBA aBAb
    abAB BAbbaBabAB BAbbaB BAba abABabAB abAB baaBAbAB bABa BAba ABab abABAbaB
    BAba abAB aBAb BabABAba bABabABa abABaBAb baBBAb AAbbaaBB baBBAb AbaBAbaB
    bABa baBA bABBab baBAbABa AABBaabb AbaB AbaBABab BabABabAAbaB BBabAbbaBA
"""

# SHA-256 over the search tables (``_failed`` and ``_chosen`` in insertion
# order, packed words read as tuples of ints) and the certificates of the
# free-form and spacer binpack forms and of the genus queries above, recorded
# while the diagram search stored cycles as tuples: a change of state, pivot,
# child order or chosen gluing shows here
TABLES_PIN = "2e18e11ed9f701eda93e4070434390f51ab3f1785b45a5a6fc213d3c617f9048"


def _plain(x):
    """``x`` with every bytes object read as a tuple of ints."""
    if isinstance(x, bytes):
        return tuple(x)
    if isinstance(x, (tuple, list)):
        return type(x)(map(_plain, x))
    return x


def _tables(diag, answer, certificate):
    return repr((answer, certificate, _plain(list(diag._failed.items())),
                 _plain(list(diag._chosen.items())))).encode()


def test_search_tables_pinned():
    h = hashlib.sha256()
    for free_form, sweep in ((True, (4, 3, 2)), (False, (3, 3, 2))):
        for inst in sweep_instances(*sweep):
            form = standardize(build_equation(inst, free_form=free_form)).form
            diag = _diagrams(form)
            ok = diag.solvable_within(form.genus)
            h.update(_tables(diag, ok, diag.certificate(form.genus)))
    words = PLANTED_GENUS_WORDS.split()
    assert len(words) == 100
    for text in words:
        w = Word(AB.gen(ch.lower(), 1 if ch.islower() else -1) for ch in text)
        diag = _diagrams(StandardForm(ORIENTABLE, 0, (), w))  # what tuple_genus searches
        g = diag.min_genus(len(w) // 2 + 1, 1)
        h.update(_tables(diag, g, None if g is None else diag.certificate(g)))
    assert h.hexdigest() == TABLES_PIN
