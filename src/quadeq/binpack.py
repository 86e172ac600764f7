"""Bin packing as quadratic-equation solvability.

The reduction encodes an exact packing instance (items r_1..r_s, N bins of
capacity B, sum r_j = N*B) as the quadratic equation

    prod_j  z_j^-1 [u, v^(r_j)] z_j  =  [u^N, v^B]

over the free group: in the free two-generator form u, v are the generators
themselves; in the embedded form u is the spacer word
d^D c^(i t_1 D) d^D c^(i t_2 D) d^D and v = b^i over generators {b, c, d}.

A packing yields explicit conjugators through two commutator identities:

    [x, y^(p+q)] = [x, y^p] * (y^-p [x, y^q] y^p)
    [x y, w]     = (y^-1 [x, w] y) * [y, w]

which split the right side into one conjugated commutator per item; sorting
the product back into item order keeps track of the conjugators exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .equations import Equation, EquationSystem
from .oracle import SearchBound, is_satisfiable, reduced_words
from .solver import hurwitz_sorted, solve_quadratic
from .words import Alphabet, Word, commutator


class BinPackError(ValueError):
    pass


@dataclass(frozen=True)
class BinPackInstance:
    items: tuple[int, ...]
    bins: int
    capacity: int

    def __post_init__(self):
        if not self.items or any(r <= 0 for r in self.items):
            raise BinPackError("item sizes must be positive")
        if self.bins <= 0 or self.capacity <= 0:
            raise BinPackError("bin count and capacity must be positive")

    @property
    def exact_sum(self) -> bool:
        """The exact-packing variant needs sum(items) == bins * capacity."""
        return sum(self.items) == self.bins * self.capacity


@dataclass(frozen=True)
class ReductionParams:
    """Shape parameters: scale i >= 3, exponent D, increasing spacers."""

    scale: int = 3
    power: int = 1
    spacers: tuple[int, ...] = (1, 2)

    def __post_init__(self):
        if self.scale < 3:
            raise BinPackError("the scale parameter must be at least 3")
        if self.power < 1:
            raise BinPackError("the exponent D must be positive")
        if not self.spacers or any(
            b <= a for a, b in zip(self.spacers, self.spacers[1:])
        ):
            raise BinPackError("spacer exponents must be strictly increasing")


EMBEDDED_GENS = ("b", "c", "d")
FREE_GENS = ("a", "b")


def build_a(params: ReductionParams) -> Word:
    """The spacer word d^D c^(i t_1 D) d^D ... d^D c^(i t_n D) d^D."""
    al = Alphabet(EMBEDDED_GENS)
    c, d = al.word("c"), al.word("d")
    out = d ** params.power
    for t in params.spacers:
        out = out * (c ** (params.scale * t * params.power)) * (d ** params.power)
    expected = (len(params.spacers) + 1) * params.power + params.scale * params.power * sum(
        params.spacers
    )
    if len(out) != expected:
        raise AssertionError(f"internal: build_a length {len(out)} != {expected}")
    return out


def _uv(params: ReductionParams, free_form: bool) -> tuple[tuple[str, ...], Word, Word]:
    """(generators, u, v) for the chosen presentation."""
    if free_form:
        al = Alphabet(FREE_GENS)
        return FREE_GENS, al.word("a"), al.word("b")
    al = Alphabet(EMBEDDED_GENS)
    return EMBEDDED_GENS, build_a(params), al.word("b") ** params.scale


def build_equation(
    inst: BinPackInstance,
    params: ReductionParams = ReductionParams(),
    free_form: bool = False,
    extras: Sequence[Word] = (),
) -> EquationSystem:
    """The quadratic equation of the instance (one conjugator per item).

    ``extras`` appends fixed conjugated words after the item terms (the
    intermediate shape with spare coefficients R_1..R_m); they get their own
    conjugators and no special solver handling.
    """
    gens, u, v = _uv(params, free_form)
    s = len(inst.items)
    names = tuple(f"z{j+1}" for j in range(s + len(extras)))
    sys0 = EquationSystem(gens, names, ())
    al = sys0.alphabet

    lhs = Word()
    for j, r in enumerate(inst.items):
        z = Word((al.gen(f"z{j+1}"),))
        term = commutator(u, v ** r)
        lhs = lhs * z.inverse() * term * z
    for m, extra in enumerate(extras):
        z = Word((al.gen(f"z{s+m+1}"),))
        lhs = lhs * z.inverse() * extra * z
    rhs = commutator(u ** inst.bins, v ** inst.capacity)
    out = EquationSystem(gens, names, (Equation(lhs, rhs),))
    if not out.is_quadratic():
        raise AssertionError("internal: the bin-packing equation must be quadratic")
    return out


# --- exhaustive packing -----------------------------------------------------------


def exhaustive_pack(inst: BinPackInstance) -> list[list[int]] | None:
    """Exact packing by backtracking: item indices grouped per bin, or None."""
    if not inst.exact_sum:
        return None
    if max(inst.items) > inst.capacity:
        return None
    order = sorted(range(len(inst.items)), key=lambda j: -inst.items[j])
    bins: list[list[int]] = [[] for _ in range(inst.bins)]
    loads = [0] * inst.bins

    def place(k: int) -> bool:
        if k == len(order):
            return all(l == inst.capacity for l in loads)
        j = order[k]
        seen: set[int] = set()
        for b in range(inst.bins):
            if loads[b] in seen:  # identical partial bins are interchangeable
                continue
            seen.add(loads[b])
            if loads[b] + inst.items[j] > inst.capacity:
                continue
            bins[b].append(j)
            loads[b] += inst.items[j]
            if place(k + 1):
                return True
            bins[b].pop()
            loads[b] -= inst.items[j]
        return False

    if place(0):
        return [sorted(b) for b in bins]
    return None


# --- packing -> witness --------------------------------------------------------------


def packing_to_witness(
    inst: BinPackInstance,
    packing: Sequence[Sequence[int]],
    params: ReductionParams = ReductionParams(),
    free_form: bool = False,
) -> dict[str, Word]:
    """Explicit conjugators realizing the packing; verified by reduction."""
    if len(packing) != inst.bins:
        raise BinPackError("packing must use every bin")
    used = sorted(j for b in packing for j in b)
    if used != list(range(len(inst.items))):
        raise BinPackError("packing must use every item exactly once")
    for b in packing:
        if sum(inst.items[j] for j in b) != inst.capacity:
            raise BinPackError("packing is not exact: some bin misses capacity")

    _, u, v = _uv(params, free_form)

    # derived order: bins first, items ascending inside each bin
    terms: list[tuple[int, Word]] = []  # (item index, conjugator)
    for k, binitems in enumerate(packing, start=1):
        pre = 0
        for j in sorted(binitems):
            conj = (v ** pre) * (u ** (inst.bins - k))
            terms.append((j, conj))
            pre += inst.items[j]

    # Hurwitz moves put the product in item order, updating conjugators exactly
    terms = hurwitz_sorted(terms, [commutator(u, v ** r) for r in inst.items])
    witness = {f"z{j+1}": z for j, z in terms}
    system = build_equation(inst, params, free_form)
    if not system.check(witness):
        raise AssertionError("constructed witness failed verification")
    return witness


# --- the equivalence check --------------------------------------------------------------


@dataclass(frozen=True)
class EquivalenceReport:
    instance: BinPackInstance
    packing: tuple[tuple[int, ...], ...] | None
    solver_status: str
    oracle_found: bool | None
    witness_verified: bool
    agree: bool


def default_check_bound(inst: BinPackInstance) -> int:
    """Per-variable oracle bound for the desk sweep.

    Constructive conjugators have length at most (B-1) + (N-1) in the free
    form; the bound is that, at most 4 (3 from four items on), lowered
    while the oracle would try more than 150,000 values for the conjugators
    but the last, which it solves for (four items at length 3 try
    53^3 = 148,877).  Larger instances get the capped bound; the complete
    diagram solver still decides them exactly.
    """
    bound = min(inst.capacity + inst.bins - 2, 3 if len(inst.items) >= 4 else 4)
    while bound and len(reduced_words(len(FREE_GENS), bound)) ** (len(inst.items) - 1) > 150_000:
        bound -= 1
    return bound


def check_equivalence(
    inst: BinPackInstance,
    params: ReductionParams = ReductionParams(),
    run_oracle: bool = True,
) -> EquivalenceReport:
    """Compare exhaustive packing with the equation-side verdicts (Eq ***)."""
    packing = exhaustive_pack(inst)
    system = build_equation(inst, params, free_form=True)
    solver_status = solve_quadratic(system).status

    witness_ok = False
    if packing is not None:
        witness = packing_to_witness(inst, packing, params, free_form=True)
        witness_ok = system.check(witness)

    oracle_found: bool | None = None
    if run_oracle:
        oracle_found = is_satisfiable(system, SearchBound(default_check_bound(inst))) is not None

    feasible = packing is not None
    # the oracle's bound is capped, so only a solution it finds is conclusive
    agree = ((solver_status == "sat") == feasible and witness_ok == feasible
             and not (oracle_found and not feasible))
    return EquivalenceReport(
        instance=inst,
        packing=tuple(tuple(b) for b in packing) if packing is not None else None,
        solver_status=solver_status,
        oracle_found=oracle_found,
        witness_verified=witness_ok,
        agree=agree,
    )


def sweep_instances(
    max_items: int = 4, max_cap: int = 3, max_bins: int = 3
) -> list[BinPackInstance]:
    """All exact-sum instances with s <= max_items, B <= max_cap, N <= max_bins."""
    out: list[BinPackInstance] = []
    for n in range(1, max_bins + 1):
        for cap in range(1, max_cap + 1):
            total = n * cap
            for s in range(1, max_items + 1):
                for combo in itertools.combinations_with_replacement(
                    range(1, total + 1), s
                ):
                    if sum(combo) == total:
                        out.append(BinPackInstance(tuple(sorted(combo, reverse=True)), n, cap))
    return out
