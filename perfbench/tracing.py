"""Spans around the library's layer boundaries, installed from outside.

The tracer replaces public module and class attributes of ``quadeq`` with
wrappers for the duration of a traced pass; nothing under ``src/`` is
edited.  Each layer call becomes a span ``[name, start, end, parent, case]``
kept in memory.  Word operations are far too frequent for one span each, so
they are counted and timed as a leaf inside whichever span called them: their
time is also part of that span's self time.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from pathlib import Path
from time import perf_counter

# span name -> metric name of its self time
SPAN_TIMES = {
    "equations.parse": "equations.parse_s",
    "standardize": "standardize.s",
    "solver": "solver.self_s",
    "solver.genus": "solver.genus_s",
    "solver.diagram": "solver.diagram_s",
    "oracle.witness": "oracle.witness_s",
    "equations.check": "equations.check_s",
}
# failures raised outside every span, and wrong or unverified verdicts
NO_SPAN = "case"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.failed: Counter = Counter()
        self.words_s = 0.0
        self.case = -1
        self._in_words = False
        self._innermost_failure: str | None = None
        self._restore: list[tuple[object, str, object]] = []

    # --- per case ---------------------------------------------------------------

    def begin_case(self, case_id: int):
        self.case = case_id
        self.stack.clear()  # a timeout can leave a span open
        self._in_words = False
        self._innermost_failure = None

    def charge_failure(self):
        """Charge the current case's failure to the innermost span it left."""
        self.failed[self._innermost_failure or NO_SPAN] += 1

    # --- wrappers -----------------------------------------------------------------

    def _span(self, name: str, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            rec = [name, start, start, tracer.stack[-1] if tracer.stack else -1, tracer.case]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if tracer._innermost_failure is None:
                    tracer._innermost_failure = name
                raise
            finally:
                rec[2] = perf_counter()
                tracer.stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _leaf(self, key: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[key] += 1
            if tracer._in_words:
                return fn(*args, **kwargs)
            tracer._in_words = True
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.words_s += perf_counter() - start
                tracer._in_words = False

        return wrapper

    def _replace(self, owner, attr: str, wrapper):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self, lib):
        """Wrap the layer entry points of the modules in ``lib``."""
        eq, parsing, solver, words = lib.equations, lib.parsing, lib.solver, lib.words

        def diagram_letters(args, result):
            self.counts["solver.diagram_letters"] += args[0].n

        def witness_letters(args, result):
            if result is not None:
                self.counts["oracle.witness_letters"] += sum(len(w) for w in result.values())

        self._replace(eq, "parse_system", self._span("equations.parse", eq.parse_system))
        self._replace(parsing, "parse_word", self._span("equations.parse", parsing.parse_word))
        self._replace(solver, "standardize", self._span("standardize", solver.standardize))
        self._replace(solver, "solve_quadratic", self._span("solver", solver.solve_quadratic))
        self._replace(solver, "tuple_genus", self._span("solver.genus", solver.tuple_genus))
        diagrams = solver.CancellationDiagrams
        self._replace(diagrams, "solvable_within",
                      self._span("solver.diagram", diagrams.solvable_within, diagram_letters))
        self._replace(solver, "is_satisfiable",
                      self._span("oracle.witness", solver.is_satisfiable, witness_letters))
        system = eq.EquationSystem
        self._replace(system, "check", self._span("equations.check", system.check))
        self._replace(words.Word, "__mul__", self._leaf("words.mul_calls", words.Word.__mul__))
        substitute = self._leaf("words.substitute_calls", words.substitute)
        for module in (words, lib.standardize, lib.oracle, solver, eq):
            self._replace(module, "substitute", substitute)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # --- results --------------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per span name: total span time minus the time of child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(SPAN_TIMES, 0.0)
        for (name, start, end, _, _), c in zip(self.spans, child):
            out[name] += end - start - c
        return out

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        calls = Counter(rec[0] for rec in self.spans)
        genus_ids = {i for i, rec in enumerate(self.spans) if rec[0] == "solver.genus"}
        genus_searches = sum(
            1 for rec in self.spans if rec[0] == "solver.diagram" and rec[3] in genus_ids
        )
        out = {SPAN_TIMES[name]: (seconds, "s") for name, seconds in self.self_times().items()}
        out.update({
            "standardize.calls": (calls["standardize"], "count"),
            "solver.diagram_calls": (calls["solver.diagram"], "count"),
            "solver.diagram_letters": (self.counts["solver.diagram_letters"], "letters"),
            "solver.genus_searches_per_query": (
                genus_searches / len(genus_ids) if genus_ids else 0.0, "searches/query"),
            "oracle.witness_calls": (calls["oracle.witness"], "count"),
            "oracle.witness_letters": (self.counts["oracle.witness_letters"], "letters"),
            "equations.check_calls": (calls["equations.check"], "count"),
            "words.mul_calls": (self.counts["words.mul_calls"], "count"),
            "words.substitute_calls": (self.counts["words.substitute_calls"], "count"),
            "words.s": (self.words_s, "s"),
        })
        for name in (*SPAN_TIMES, NO_SPAN):
            out[f"{name}.failed"] = (self.failed[name], "count")
        return out

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for rec in self.spans:
                f.write(json.dumps(rec) + "\n")
