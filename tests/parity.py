"""Parity digests of the solver's answers on the benchmark's inputs.

    python3 tests/parity.py [corpus] [binpack] [planted]

Prints one line per workload (all three by default): its name, the first
16 hex digits of a SHA-256 over the answers, in case order, and how many
cases it read and how many of them are ``sat``.  Two commits that print the
same lines give the same verdicts, witnesses and ``bound_used`` on these
inputs.  Nothing is timed, and ``perfbench/`` is only read.

* ``corpus``: every system of ``tests/corpus.py``, in ``iter_corpus()`` order.
* ``binpack``: ``build_equation(inst, free_form=True)`` for each instance of
  ``sweep_instances(4, 3, 2)``, in sweep order.
* ``planted``: ``perfbench/workloads.planted_cases(0)``, in its order, each
  case read as the benchmark reads it.

Serialization: each solve adds ``repr((status, sorted((name,
witness.packed) for each witness value), bound_used))``, with no pairs for
an answer without a witness, and each genus query adds
``repr(("genus", g))`` with g from ``tuple_genus``; every record is
encoded as UTF-8 and followed by a newline.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# quadeq from this checkout; the corpus beside this file; the benchmark's inputs
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import workloads
from corpus import iter_corpus
from quadeq.binpack import build_equation, sweep_instances
from quadeq.equations import parse_system
from quadeq.parsing import parse_word
from quadeq.solver import solve_quadratic, tuple_genus
from quadeq.words import Alphabet


def _solved(system) -> str:
    r = solve_quadratic(system)
    pairs = sorted((name, w.packed) for name, w in (r.witness or {}).items())
    return repr((r.status, pairs, r.bound_used))


def _corpus():
    return map(_solved, iter_corpus())


def _binpack():
    return (_solved(build_equation(inst, free_form=True)) for inst in sweep_instances(4, 3, 2))


def _planted():
    for case in workloads.planted_cases(0):
        if case.kind == "genus":  # as perfbench/run.py's decide reads it
            header, *lines = case.text.splitlines()
            gens = tuple(header[len("gens:"):].split())
            discs = [parse_word(line, Alphabet(gens)) for line in lines]
            yield repr(("genus", tuple_genus(discs, "orientable", gens)))
        else:
            yield _solved(parse_system(case.text))


WORKLOADS = {"corpus": _corpus, "binpack": _binpack, "planted": _planted}


def digest(workload: str) -> tuple[str, int, int]:
    """(digest, cases, sat cases) of one workload."""
    h, cases, sat = hashlib.sha256(), 0, 0
    for record in WORKLOADS[workload]():
        h.update(record.encode() + b"\n")
        cases, sat = cases + 1, sat + record.startswith("('sat'")
    return h.hexdigest()[:16], cases, sat


if __name__ == "__main__":
    for name in sys.argv[1:] or WORKLOADS:
        print(name, *digest(name), flush=True)
