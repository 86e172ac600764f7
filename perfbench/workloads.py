"""Inputs and known answers of the benchmark workloads.

Every case is rendered to the text the CLI would read, so the program sees
only generated inputs.  A ``solve`` case is a system file (``gens:``,
``vars:`` and one equation per line); a ``genus`` case is a coefficient
file (``gens:`` and one coefficient word per line).

Why these three workloads:

* ``corpus`` -- the 29,685 tiny systems of ``tests/corpus.py``.  Most time
  goes to ``standardize``; diagram search is cheap, so it exercises the word
  and normal-form layers and barely touches the search layers.
* ``binpack`` -- the 22 exact-sum bin-packing equations of
  ``sweep_instances(4, 3, 2)`` in the free two-generator form.  Diagram search
  takes almost all of every case, both on SAT early exits and on complete
  UNSAT searches; the capacity-3 instances are the search cliff.
* ``planted`` -- random equations built around a known solution, plus
  ``tuple_genus`` queries on products of random commutators.  Most time goes
  to witness search; the genus queries rerun diagram search at rising
  budgets.  ``[x,y][u,v] = [a,b]^3`` is the witness-search cliff.
"""

from __future__ import annotations

import hashlib
import importlib.util
import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GENS = ("a", "b")

# (family, conjugator length, cases per pass).  Lengths stop where the
# slowest case stays far under the per-case limit and where no family has a
# small cluster of much slower cases: three conjugates at length 2 put 4-9 %
# of their cases near 0.25 s, and how many land there decides the tail.
PLANTED_STRATA = (
    ("commutator_conjugate", 2, 300),
    ("squares", 2, 200),
    ("squares", 3, 200),
    ("squares", 4, 200),
    ("conjugates", 1, 200),
)
# (commutators per product, factor word length, queries per pass)
GENUS_STRATA = ((2, 2, 200), (3, 1, 200))
GENUS_MAX_LETTERS = 16


@dataclass(frozen=True)
class Case:
    """One input.  ``expect`` is the known answer: ``"sat"``/``"unsat"`` for
    a solve case (``None`` when either verdict is acceptable), the largest
    admissible genus for a genus case."""

    kind: str
    text: str
    expect: str | int | None = None


def digest(cases: list[Case], ordered: bool) -> str:
    """SHA-256 of the rendered inputs; ``ordered=False`` ignores case order."""
    texts = [c.kind + "\n" + c.text for c in cases]
    if not ordered:
        texts.sort()
    return hashlib.sha256("\0".join(texts).encode()).hexdigest()


def corpus_cases(seed: int) -> list[Case]:
    spec = importlib.util.spec_from_file_location("corpus", ROOT / "tests" / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    cases = [Case("solve", s.render()) for s in corpus.iter_corpus()]
    random.Random(seed).shuffle(cases)
    return cases


def binpack_cases(seed: int) -> list[Case]:
    from quadeq import binpack

    cases = [
        Case(
            "solve",
            binpack.build_equation(inst, free_form=True).render(),
            "sat" if binpack.exhaustive_pack(inst) is not None else "unsat",
        )
        for inst in binpack.sweep_instances(max_items=4, max_cap=3, max_bins=2)
    ]
    random.Random(seed).shuffle(cases)
    return cases


def _random_word(rng: random.Random, length: int):
    from quadeq.words import Generator, Word

    letters: list = []
    while len(letters) < length:
        g = Generator(rng.randrange(len(GENS)), rng.choice((1, -1)))
        if not letters or letters[-1] != g.inv():
            letters.append(g)
    return Word(letters)


def _planted_system(family: str, cs: list):
    """The family's equation with its planted solution ``cs``, checked."""
    from quadeq.equations import Equation, EquationSystem
    from quadeq.words import Alphabet, commutator

    names = {"squares": ("x", "y")}.get(family, ("x", "y", "z"))
    al = Alphabet(GENS + names)
    a, b = al.word("a"), al.word("b")
    vs = [al.word(n) for n in names]

    def side(w: list):
        if family == "commutator_conjugate":  # [x,y] z^-1 a z
            return commutator(w[0], w[1]) * a.conjugated_by(w[2])
        if family == "squares":  # x^2 y^2
            return w[0] * w[0] * w[1] * w[1]
        # three conjugates: x^-1 a x . y^-1 b y . z^-1 ab z
        return a.conjugated_by(w[0]) * b.conjugated_by(w[1]) * (a * b).conjugated_by(w[2])

    system = EquationSystem(GENS, names, (Equation(side(vs), side(cs)),))
    if not system.check(dict(zip(names, cs))):
        raise RuntimeError(f"planted solution fails its own {family} equation")
    return system


def _cliff_case() -> Case:
    """[x,y][u,v] = [a,b]^3: genus 2, but brute-force witness search needs minutes."""
    from quadeq.equations import Equation, EquationSystem
    from quadeq.words import Alphabet, commutator

    al = Alphabet(GENS + ("x", "y", "u", "v"))
    x, y, u, v = (al.word(n) for n in "xyuv")
    rhs = commutator(al.word("a"), al.word("b")) ** 3
    system = EquationSystem(GENS, ("x", "y", "u", "v"), (Equation(commutator(x, y) * commutator(u, v), rhs),))
    return Case("solve", system.render(), "sat")


def planted_cases(seed: int) -> list[Case]:
    from quadeq.words import Alphabet, Word, commutator

    rng = random.Random(seed)
    cases = []
    for family, length, count in PLANTED_STRATA:
        n_vars = 2 if family == "squares" else 3
        for _ in range(count):
            cs = [_random_word(rng, length) for _ in range(n_vars)]
            cases.append(Case("solve", _planted_system(family, cs).render(), "sat"))
    al = Alphabet(GENS)
    for k, length, count in GENUS_STRATA:
        for _ in range(count):
            w = Word()
            while not 0 < len(w) <= GENUS_MAX_LETTERS:
                w = Word()
                for _ in range(k):
                    w = w * commutator(
                        _random_word(rng, rng.randint(1, length)),
                        _random_word(rng, rng.randint(1, length)),
                    )
            cases.append(Case("genus", f"gens: {' '.join(GENS)}\n{al.format(w)}\n", k))
    cases.append(_cliff_case())
    rng.shuffle(cases)  # spreads every family over the whole pass
    return cases


GENERATORS = {"corpus": corpus_cases, "binpack": binpack_cases, "planted": planted_cases}


if __name__ == "__main__":
    # prints the digests to pin in pins.json after a deliberate input change
    import sys

    sys.path.insert(0, str(ROOT / "src"))
    for name, make in GENERATORS.items():
        print(name, digest(make(0), ordered=name == "planted"))
