import random

import pytest

from quadeq import binpack
from quadeq.binpack import (
    EMBEDDED_GENS,
    FREE_GENS,
    BinPackError,
    BinPackInstance,
    ReductionParams,
    build_a,
    build_equation,
    check_equivalence,
    default_check_bound,
    exhaustive_pack,
    packing_to_witness,
    sweep_instances,
)
from quadeq.words import Alphabet, Word, commutator

AL3 = Alphabet(EMBEDDED_GENS)
AL2 = Alphabet(FREE_GENS)


# --- the spacer word ---------------------------------------------------------------


def test_build_a_default():
    w = build_a(ReductionParams())
    assert AL3.format(w) == "d c^3 d c^6 d"
    assert len(w) == 3 * 1 + 3 * 1 * (1 + 2)


def test_build_a_single_spacer():
    w = build_a(ReductionParams(spacers=(1,)))
    assert AL3.format(w) == "d c^3 d"


def test_build_a_length_formula_random():
    rng = random.Random(7)
    for _ in range(200):
        i = rng.randint(3, 6)
        d = rng.randint(1, 3)
        n = rng.randint(1, 4)
        sp = []
        t = 0
        for _ in range(n):
            t += rng.randint(1, 3)
            sp.append(t)
        p = ReductionParams(scale=i, power=d, spacers=tuple(sp))
        assert len(build_a(p)) == (n + 1) * d + i * d * sum(sp)


def test_params_validation():
    with pytest.raises(BinPackError):
        ReductionParams(scale=2)
    with pytest.raises(BinPackError):
        ReductionParams(spacers=(2, 2))
    with pytest.raises(BinPackError):
        BinPackInstance((0,), 1, 1)


# --- the equation ------------------------------------------------------------------


def test_single_item_equation_trivial_conjugator():
    inst = BinPackInstance((2,), 1, 2)
    sysq = build_equation(inst, free_form=True)
    assert sysq.is_quadratic()
    assert sysq.check({"z1": Word()})


def test_free_form_shape():
    inst = BinPackInstance((1, 2), 1, 3)
    sysq = build_equation(inst, free_form=True)
    a, b = AL2.word("a"), AL2.word("b")
    eq = sysq.equations[0]
    assert eq.rhs == commutator(a, b ** 3)
    assert sysq.variables == ("z1", "z2")


def test_embedded_form_uses_spacer_word():
    inst = BinPackInstance((1,), 1, 1)
    sysq = build_equation(inst, ReductionParams(), free_form=False)
    # rhs = [a^(3), b^3]
    u = build_a(ReductionParams())
    v = AL3.word("b") ** 3
    assert sysq.equations[0].rhs == commutator(u, v)


def test_extras_are_conjugated_constants():
    inst = BinPackInstance((1,), 1, 1)
    extra = AL2.word("a", "b")
    sysq = build_equation(inst, free_form=True, extras=(extra,))
    assert len(sysq.variables) == 2
    assert sysq.is_quadratic()


def test_three_item_shape_over_variables():
    inst = BinPackInstance((1, 1, 2), 2, 2)
    sysq = build_equation(inst, free_form=True)
    assert sysq.variables == ("z1", "z2", "z3")
    assert sysq.is_quadratic()


# --- packing ------------------------------------------------------------------------


def test_exhaustive_pack_finds():
    assert exhaustive_pack(BinPackInstance((1, 1, 2), 2, 2)) is not None
    assert exhaustive_pack(BinPackInstance((3, 1), 2, 2)) is None  # item > cap
    assert exhaustive_pack(BinPackInstance((2, 2), 3, 2)) is None  # sum mismatch


def test_witness_splitting_identity():
    # r=(1,1), N=1, B=2: [a,b] * (b^-1 [a,b] b) = [a,b^2]
    inst = BinPackInstance((1, 1), 1, 2)
    pack = exhaustive_pack(inst)
    wit = packing_to_witness(inst, pack, free_form=True)
    assert wit["z1"] == Word()
    assert wit["z2"] == AL2.word("b")


def test_witness_trivial_single_bin():
    inst = BinPackInstance((2,), 1, 2)
    wit = packing_to_witness(inst, exhaustive_pack(inst), free_form=True)
    assert wit["z1"] == Word()


def test_witness_rejects_inexact():
    inst = BinPackInstance((1, 1, 2), 2, 2)
    with pytest.raises(BinPackError):
        packing_to_witness(inst, [[0, 1, 2], []], free_form=True)
    with pytest.raises(BinPackError):
        packing_to_witness(inst, [[0], [1]], free_form=True)


@pytest.mark.parametrize("items,n,cap", [
    ((1, 1), 1, 2),
    ((2,), 1, 2),
    ((1, 1, 2), 2, 2),
    ((2, 1, 1), 2, 2),
    ((1, 1, 1, 3), 2, 3),
    ((2, 2, 1, 1), 2, 3),
    ((3, 2, 1), 2, 3),
])
def test_witness_soundness(items, n, cap):
    inst = BinPackInstance(items, n, cap)
    pack = exhaustive_pack(inst)
    assert pack is not None
    for free in (True, False):
        wit = packing_to_witness(inst, pack, free_form=free)
        assert build_equation(inst, free_form=free).check(wit)


def test_witness_embedded_small():
    inst = BinPackInstance((1, 1), 2, 1)
    pack = exhaustive_pack(inst)
    wit = packing_to_witness(inst, pack, ReductionParams(), free_form=False)
    assert build_equation(inst, free_form=False).check(wit)


# --- equivalence -------------------------------------------------------------------


def test_check_equivalence_feasible():
    rep = check_equivalence(BinPackInstance((1, 1, 2), 2, 2))
    assert rep.packing is not None
    assert rep.solver_status == "sat"
    assert rep.oracle_found is True
    assert rep.witness_verified
    assert rep.agree


def test_check_equivalence_sum_mismatch():
    rep = check_equivalence(BinPackInstance((2, 2), 3, 2))
    assert rep.packing is None
    assert rep.solver_status == "unsat"
    assert rep.oracle_found is False
    assert rep.agree


def test_check_equivalence_oversized_item():
    rep = check_equivalence(BinPackInstance((3, 1), 2, 2))
    assert rep.packing is None
    assert rep.solver_status == "unsat"
    assert rep.oracle_found is False
    assert rep.agree


def test_check_equivalence_capped_oracle_miss_agrees(monkeypatch):
    # the oracle's bound is capped: finding nothing within it proves nothing
    monkeypatch.setattr(binpack, "default_check_bound", lambda inst: 0)
    rep = check_equivalence(BinPackInstance((1, 1, 2), 2, 2))
    assert rep.packing is not None and rep.oracle_found is False
    assert rep.agree


def test_check_equivalence_oracle_solution_on_infeasible_disagrees(monkeypatch):
    # a solution the oracle finds is conclusive, so it refutes infeasibility
    monkeypatch.setattr(binpack, "is_satisfiable", lambda system, bound: {})
    rep = check_equivalence(BinPackInstance((3, 1), 2, 2))
    assert rep.packing is None and rep.solver_status == "unsat"
    assert rep.oracle_found is True
    assert not rep.agree


@pytest.mark.parametrize("inst,status", [
    (BinPackInstance((4, 3, 1), 2, 4), "sat"),
    (BinPackInstance((7, 1), 2, 4), "unsat"),
])
def test_check_equivalence_runs_the_solver_on_long_equations(inst, status):
    # over 30 constant letters: the solver decides these too, no size cap
    system = build_equation(inst, free_form=True)
    assert system.equations[0].length() - 2 * len(system.variables) > 30
    rep = check_equivalence(inst)
    assert rep.solver_status == status
    assert rep.oracle_found is (status == "sat")
    assert rep.agree


def test_check_bound_caps_the_oracle_candidates():
    # up to four items the bound is the constructive length, at most 4 (3 from
    # four items on); more items lower it to keep the oracle within reach
    for inst in sweep_instances(4, 4, 3):
        full = inst.capacity + inst.bins - 2
        assert default_check_bound(inst) == min(full, 3 if len(inst.items) >= 4 else 4), inst
    assert default_check_bound(BinPackInstance((2, 1, 1, 1, 1), 2, 3)) == 2
    inst = BinPackInstance((3, 3, 3, 1, 1, 1), 3, 4)
    assert default_check_bound(inst) == 1
    rep = check_equivalence(inst)
    assert rep.solver_status == "sat" and rep.witness_verified
    assert rep.oracle_found is False
    assert rep.agree


def test_sweep_instances_grid():
    grid = sweep_instances(2, 2, 2)
    assert all(sum(i.items) == i.bins * i.capacity for i in grid)
    assert BinPackInstance((2, 2), 2, 2) in grid
    assert BinPackInstance((2,), 1, 2) in grid
