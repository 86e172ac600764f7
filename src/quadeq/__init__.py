"""Quadratic word equations over free groups.

Submodules:

* ``words``      -- alphabets, reduced words, cyclic words, U-decompositions
* ``parsing``    -- the word literal grammar
* ``equations``  -- equation systems and their file format
* ``triangular`` -- chain triangulation, triangular+constant form
* ``oracle``     -- bounded exhaustive solver (ground truth for everything)
* ``standardize``-- normalization of a quadratic equation to standard form
* ``solver``     -- decision procedure + witnesses, genus of tuples
* ``surfaces``   -- quadratic sets of cyclic words, gluing, genus bookkeeping
* ``geneq``      -- combinatorial generalized equations and the rewriting process
* ``schema``     -- triangular-system reduction schema and the L constant
* ``binpack``    -- bin-packing reduction to quadratic equations
* ``cli``        -- command line front end
"""

from .words import (
    Alphabet,
    CyclicWord,
    Generator,
    Word,
    commutator,
    cyclic_normalize,
    reduce,
    substitute,
    u_decompose,
)
from .equations import Equation, EquationSystem, parse_system
from .oracle import SearchBound, enumerate_solutions, min_solution_stats

__all__ = [
    "Alphabet",
    "CyclicWord",
    "Equation",
    "EquationSystem",
    "Generator",
    "SearchBound",
    "Word",
    "commutator",
    "cyclic_normalize",
    "enumerate_solutions",
    "min_solution_stats",
    "parse_system",
    "reduce",
    "substitute",
    "u_decompose",
]
