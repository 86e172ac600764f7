"""Command line front end.

Output is line-oriented ``key: value`` text (deterministic: identical inputs
and flags produce byte-identical output; timing appears only with --timing).
``--json`` emits one JSON document instead; ``geneq-trace`` puts the terminal
equation's canonical text, which it otherwise prints after the report, under
the key ``terminal``.  Exit codes: 0 verdict reached, 2 bad input or flags (an
``error:`` line on stderr), 3 bound exceeded / inconclusive, 4 internal error
(any other exception; ``internal error: <message>`` goes to stderr), 5 the
geneq-trace search pruned every branch before any budget ran out (status
``exhausted``).  ``triangulate`` and ``reduce-binpack`` print a system file
and take neither flag.

``surface`` lists one ``component`` line per connected component, ordered
by the component's least face index.

File formats
------------

system file (solve, oracle, triangulate, standardize, geneq-trace, schema):

    gens: a b
    vars: x y
    [x,y] [a,b] = 1        # one equation per line, '= 1' or '= <word>'

word grammar: NAME | '1' | '[' w ',' w ']' | '(' w ')' with optional '^INT',
terms separated by whitespace; '#' comments.  Parsers reject trailing input.

quadratic-set file (surface):

    edges: a b c
    a b a^-1 b^-1          # one cyclic word per line

coefficient file (genus):

    gens: a b
    [a,b]                  # one coefficient word per line; last one is C

c-triple file (schema): one line per triangular equation, three words
separated by ';', e.g. ``1 ; 1 ; 1``.

trace file (geneq-trace --replay): the line format written by this tool.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from . import binpack as bp
from . import geneq as gq
from . import schema as sc
from . import solver as sv
from . import surfaces as sf
from .equations import EquationError, EquationSystem, header_lines, parse_system
from .oracle import SearchBound, enumerate_solutions
from .parsing import WordSyntaxError, parse_word
from .standardize import StandardizeError, standardize
from .triangular import triangular_constant_form, triangulate
from .words import Alphabet, AlphabetError, Word

EXIT_OK = 0
EXIT_BADINPUT = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4
EXIT_EXHAUSTED = 5


class Report:
    def __init__(self, command: str):
        self.fields: list[tuple[str, object]] = [("command", command)]
        self.t0 = time.monotonic()

    def add(self, key: str, value) -> "Report":
        self.fields.append((key, value))
        return self

    def digest(self, text: str) -> "Report":
        self.add("input_digest", hashlib.sha256(text.encode()).hexdigest()[:16])
        return self

    def emit(self, args) -> None:
        if getattr(args, "timing", False):
            self.add("timing_ms", round(1000 * (time.monotonic() - self.t0), 3))
        if getattr(args, "json", False):
            doc = {}
            for k, v in self.fields:
                if k in doc:  # repeated keys become lists
                    if not isinstance(doc[k], list):
                        doc[k] = [doc[k]]
                    doc[k].append(v)
                else:
                    doc[k] = v
            print(json.dumps(doc, sort_keys=False))
        else:
            for k, v in self.fields:
                print(f"{k}: {v}")


class _CannotRead(OSError):
    pass


class _CannotWrite(OSError):
    pass


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise _CannotRead(path) from e


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise _CannotWrite(path) from e


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_BADINPUT


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _items(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"need comma-separated integers, got {text!r}") from None


def _read_words(text: str, header: str, noun: str) -> tuple[Alphabet, list[Word]]:
    """A ``<header>:`` line naming the alphabet, then one ``noun`` word per line."""
    alphabet: Alphabet | None = None
    words: list[Word] = []
    for lineno, found, line in header_lines(text, (f"{header}:",)):
        if found:
            alphabet = Alphabet(tuple(line.split()))
            continue
        if alphabet is None:
            raise EquationError(f"line {lineno}: {noun}s before {header}: header")
        words.append(parse_word(line, alphabet))
    if alphabet is None or not words:
        article = "an" if header[0] in "aeiou" else "a"
        raise EquationError(f"need {article} {header}: header and at least one {noun}")
    return alphabet, words


def _fmt_witness(system: EquationSystem, witness: dict[str, Word]) -> list[str]:
    al = system.alphabet
    return [f"{name} = {al.format(w)}" for name, w in sorted(witness.items())]


# --- subcommands ------------------------------------------------------------------


def cmd_solve(args) -> int:
    text = _read(args.file)
    system = parse_system(text)
    rep = Report("solve").digest(text)
    res = sv.solve_quadratic(system, bound=args.bound)
    rep.add("verdict", res.status)
    rep.add("bound", res.bound_used)
    if res.status == "sat":
        if not system.check(res.witness):
            raise AssertionError("internal: witness failed verification")
        for line in _fmt_witness(system, res.witness):
            rep.add("witness", line)
    rep.emit(args)
    return EXIT_OK if res.status in ("sat", "unsat") else EXIT_INCONCLUSIVE


def cmd_oracle(args) -> int:
    text = _read(args.file)
    system = parse_system(text)
    rep = Report("oracle").digest(text)
    bound = SearchBound(args.max_len, args.total)
    count = 0
    for sol in enumerate_solutions(system, bound, limit=args.limit):
        rep.add("solution", "; ".join(_fmt_witness(system, sol)))
        count += 1
    rep.add("solutions", count)
    rep.add("bound", args.max_len)
    rep.add("verdict", "sat" if count else "unsat_within_bound")
    rep.emit(args)
    return EXIT_OK if count else EXIT_INCONCLUSIVE


def cmd_triangulate(args) -> int:
    text = _read(args.file)
    system = parse_system(text)
    tri = triangulate(system)
    sys.stdout.write(tri.system.render())
    return EXIT_OK


def cmd_standardize(args) -> int:
    text = _read(args.file)
    system = parse_system(text)
    rep = Report("standardize").digest(text)
    nz = standardize(system)
    al = system.alphabet
    rep.add("kind", nz.form.kind)
    rep.add("genus", nz.form.genus)
    rep.add("coefficients", len(nz.form.coefficients))
    for c in nz.form.coefficients:
        rep.add("coefficient", al.format(c))
    rep.add("tail", al.format(nz.form.tail))
    rep.add("equation", nz.system.format_word(nz.system.equations[0].relator()))
    # the substitution record: original variables through the trivial
    # standard-form assignment (a readable summary of the transport)
    trivial = {n: Word() for n in nz.system.variables}
    back = nz.to_original(trivial)
    for orig in system.variables:
        rep.add("under_trivial", f"{orig} = {al.format(back[orig])}")
    rep.emit(args)
    return EXIT_OK


def _inconclusive(rep: Report, args) -> int:
    """The diagram search reached its state cap (``solver.MAX_STATES``)."""
    rep.add("verdict", "inconclusive")
    rep.emit(args)
    return EXIT_INCONCLUSIVE


def cmd_genus(args) -> int:
    text = _read(args.file)
    rep = Report("genus").digest(text)
    alphabet, coeffs = _read_words(text, "gens", "coefficient")
    gens = alphabet.names
    kind = args.kind
    rep.add("kind", kind)
    if args.at is not None:
        rep.add("genus", args.at)
        try:
            res = sv.genus_at(coeffs, args.at, kind, gens, want_witness=not args.no_witness)
        except sv.SearchLimitError:
            return _inconclusive(rep, args)
        rep.add("verdict", "solvable" if res.solvable else "unsolvable")
        if res.witness:
            if not res.system.check(res.witness):
                raise AssertionError("internal: genus witness failed verification")
            for line in _fmt_witness(res.system, res.witness):
                rep.add("witness", line)
        rep.emit(args)
        return EXIT_OK
    try:
        g = sv.tuple_genus(coeffs, kind, gens)
    except sv.SearchLimitError:
        return _inconclusive(rep, args)
    rep.add("verdict", "solvable" if g is not None else "unsolvable")
    rep.add("genus", g if g is not None else "none")
    rep.emit(args)
    return EXIT_OK


def cmd_surface(args) -> int:
    text = _read(args.file)
    rep = Report("surface").digest(text)
    alphabet, words = _read_words(text, "edges", "word")
    surf = sf.glue(words)
    if args.dot:
        _write(args.dot, _dot_export(surf, alphabet))
    rep.add("kind", surf.qset.kind)
    rep.add("vertices", surf.vertex_count)
    rep.add("edges", surf.edge_count)
    rep.add("faces", surf.face_count)
    rep.add("chi", surf.chi)
    rep.add("components", len(surf.components))
    for comp in surf.components:
        rep.add(
            "component",
            f"faces={','.join(str(f) for f in comp.faces)} chi={comp.chi} "
            f"{'orientable' if comp.orientable else 'nonorientable'} genus={comp.genus}",
        )
    rep.add("genus", surf.genus)
    rep.emit(args)
    return EXIT_OK


def _dot_export(cx: sf.SurfaceComplex, alphabet: Alphabet) -> str:
    lines = ["graph surface {"]
    for f, letters in enumerate(cx.faces):
        for i, g in enumerate(letters):
            v1 = cx.vertex_of(f, i)
            v2 = cx.vertex_of(f, (i + 1) % len(letters))
            if g.sign > 0:
                lines.append(f'  v{v1} -- v{v2} [label="{alphabet.names[g.sym]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_schema(args) -> int:
    text = _read(args.file)
    system = parse_system(text)
    rep = Report("schema").digest(text)
    form = triangular_constant_form(system)
    n = len(form.triples)
    if args.ctriples:
        ct_text = _read(args.ctriples)
        al = Alphabet(system.gens)
        triples = []
        for lineno, _, line in header_lines(ct_text):
            parts = line.split(";")
            if len(parts) != 3:
                return _fail(f"c-triple line {lineno}: need three ';'-separated words")
            ws = [parse_word(p, al) for p in parts]
            triples.append(sc.CTriple(*ws))
        choice = sc.CTripleChoice(tuple(triples), args.l_param)
        choice.check_products()
    else:
        choice = sc.trivial_choice(n, args.l_param)
    out = sc.build_schema(form, choice, quasi_lambda=args.lam, quasi_mu=args.mu)
    rep.add("triangles", n)
    rep.add("size", out.system.total_length())
    rep.add("bound", out.size_bound)
    al_out = out.system.alphabet
    maps = [f"{name} -> {al_out.format(out.images[name])}" for name in sorted(out.images)]
    if args.json:  # one document: the system and the maps go into the report
        rep.add("system", out.system.render())
        for m in maps:
            rep.add("map", m)
        rep.emit(args)
        return EXIT_OK
    rep.emit(args)
    sys.stdout.write(out.system.render())
    for m in maps:
        print(f"# map {m}")
    return EXIT_OK


def cmd_reduce_binpack(args) -> int:
    inst = bp.BinPackInstance(args.items, args.bins, args.cap)
    params = bp.ReductionParams(scale=args.scale, power=args.power)
    system = bp.build_equation(inst, params, free_form=args.free_form)
    sys.stdout.write(system.render())
    return EXIT_OK


def cmd_check_equivalence(args) -> int:
    rep = Report("check-equivalence")
    params = bp.ReductionParams()
    if args.items is not None:
        if args.bins is None or args.cap is None:
            return _fail("--items needs --bins and --cap")
        instances = [bp.BinPackInstance(args.items, args.bins, args.cap)]
    else:
        instances = bp.sweep_instances(args.max_items, args.max_cap, args.max_bins)
    rep.add("instances", len(instances))
    all_agree = True
    results = []
    for inst in instances:
        r = bp.check_equivalence(inst, params, run_oracle=not args.no_oracle)
        results.append(r)
        all_agree = all_agree and r.agree
        rep.add(
            "instance",
            f"items={','.join(str(x) for x in inst.items)} bins={inst.bins} "
            f"cap={inst.capacity} feasible={r.packing is not None} "
            f"solver={r.solver_status} oracle={r.oracle_found} "
            f"witness={'ok' if r.witness_verified else '-'} agree={r.agree}",
        )
    rep.add("verdict", "agree" if all_agree else "disagree")
    rep.emit(args)
    return EXIT_OK if all_agree else EXIT_INCONCLUSIVE


def cmd_geneq_trace(args) -> int:
    text = _read(args.file)
    system = parse_system(text)
    rep = Report("geneq-trace").digest(text)
    build = gq.from_system(system)
    if args.replay:
        trace = gq.parse_trace(_read(args.replay))
        terminal = gq.replay_trace(build.geneq, trace)
        rep.add("replayed_ops", len(trace))
        rep.add("boundaries", terminal.nbound)
        rep.add("bases", len(terminal.bases))
        _emit_with_terminal(rep, args, terminal)
        return EXIT_OK
    solution = None
    if args.solve_first:
        for sol in enumerate_solutions(system, SearchBound(args.max_len), limit=50):
            try:
                solution = build.push(sol)
                break
            except gq.GenEqError:
                continue
        if solution is None:
            rep.add("verdict", "no graphical witness within the bound")
            rep.emit(args)
            return EXIT_INCONCLUSIVE
    res = gq.entire_transform(build.geneq, budget=args.budget, solution=solution)
    rep.add("status", res.status)
    rep.add("rounds", res.rounds)
    rep.add("boundaries", res.terminal.nbound)
    rep.add("bases", len(res.terminal.bases))
    if args.trace_out:
        _write(args.trace_out, gq.render_trace(res.trace))
        rep.add("trace_path", args.trace_out)
    _emit_with_terminal(rep, args, res.terminal)
    if res.status == "exhausted":
        return EXIT_EXHAUSTED
    return EXIT_OK if res.status == "terminal" else EXIT_INCONCLUSIVE


def _emit_with_terminal(rep: Report, args, terminal: gq.GenEq) -> None:
    """The report, then the terminal equation's canonical text; under
    ``--json`` the text goes into the one document as ``terminal``."""
    if args.json:
        rep.add("terminal", terminal.canonical_text())
        rep.emit(args)
    else:
        rep.emit(args)
        sys.stdout.write(terminal.canonical_text())


def cmd_compute_l(args) -> int:
    rep = Report("compute-L")
    b = sc.candidate_length_bound(args.q, args.delta, args.alphabet)
    rep.add("q", b.q)
    rep.add("delta", b.delta)
    rep.add("alphabet", b.alphabet_size)
    rep.add("log2_quotient", b.exponent)
    rep.add("digits", b.digits)
    if args.expand:
        # the limit on int -> str conversion is process-wide: refuse, not raise it
        limit = sys.get_int_max_str_digits()
        if limit and b.digits > limit:
            raise sc.SchemaError(f"--expand: L has {b.digits} digits, past this Python's "
                                 f"limit of {limit} on printing an integer")
        rep.add("value", b.expand())
    rep.emit(args)
    return EXIT_OK


# --- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="quadeq",
        description="quadratic word equations over free groups",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp):
        sp.add_argument("--json", action="store_true", help="emit one JSON document")
        sp.add_argument("--timing", action="store_true", help="include timing_ms")

    sp = sub.add_parser("solve", help="decide a quadratic system")
    sp.add_argument("file")
    sp.add_argument("--bound", type=_nonnegative, default=None,
                    help="cap of the oracle's witness search, which only non-orientable "
                         "equations need (default: 12 s^4)")
    common(sp)
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("oracle", help="bounded exhaustive enumeration")
    sp.add_argument("file")
    sp.add_argument("--max-len", type=_nonnegative, default=2)
    sp.add_argument("--total", type=_nonnegative, default=None)
    sp.add_argument("--limit", type=_positive, default=10)
    common(sp)
    sp.set_defaults(fn=cmd_oracle)

    sp = sub.add_parser("triangulate", help="chain-triangulate a system")
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_triangulate)

    sp = sub.add_parser("standardize", help="normalize one quadratic equation")
    sp.add_argument("file")
    common(sp)
    sp.set_defaults(fn=cmd_standardize)

    sp = sub.add_parser("genus", help="genus of a coefficient tuple")
    sp.add_argument("file")
    sp.add_argument("--kind", choices=["orientable", "nonorientable"],
                    default="orientable")
    sp.add_argument("--at", type=int, default=None,
                    help="decide at this genus instead of searching the least")
    sp.add_argument("--no-witness", action="store_true")
    common(sp)
    sp.set_defaults(fn=cmd_genus)

    sp = sub.add_parser("surface", help="glue a quadratic set of cyclic words")
    sp.add_argument("file")
    sp.add_argument("--dot", default=None, help="write the embedded graph as DOT")
    common(sp)
    sp.set_defaults(fn=cmd_surface)

    sp = sub.add_parser("schema", help="corner-variable reduction of a system")
    sp.add_argument("file")
    sp.add_argument("--ctriples", default=None, help="candidate triple file")
    sp.add_argument("--l-param", type=int, default=4)
    sp.add_argument("--lam", type=_nonnegative, default=1)
    sp.add_argument("--mu", type=_nonnegative, default=0)
    common(sp)
    sp.set_defaults(fn=cmd_schema)

    sp = sub.add_parser("reduce-binpack", help="emit the packing equation")
    sp.add_argument("--items", type=_items, required=True, help="comma separated sizes")
    sp.add_argument("--bins", type=int, required=True)
    sp.add_argument("--cap", type=int, required=True)
    sp.add_argument("--free-form", action="store_true")
    sp.add_argument("--scale", type=int, default=3)
    sp.add_argument("--power", type=int, default=1)
    sp.set_defaults(fn=cmd_reduce_binpack)

    sp = sub.add_parser("check-equivalence", help="packing vs equation sweep")
    sp.add_argument("--items", type=_items, default=None)
    sp.add_argument("--bins", type=int, default=None)
    sp.add_argument("--cap", type=int, default=None)
    sp.add_argument("--max-items", type=_positive, default=3)
    sp.add_argument("--max-cap", type=_positive, default=2)
    sp.add_argument("--max-bins", type=_positive, default=2)
    sp.add_argument("--no-oracle", action="store_true")
    common(sp)
    sp.set_defaults(fn=cmd_check_equivalence)

    sp = sub.add_parser("geneq-trace", help="entire transformation with trace")
    sp.add_argument("file")
    sp.add_argument("--budget", type=_nonnegative, default=100)
    sp.add_argument("--solve-first", action="store_true",
                    help="drive the rewriting with an oracle witness")
    sp.add_argument("--max-len", type=_nonnegative, default=2)
    sp.add_argument("--trace-out", default=None)
    sp.add_argument("--replay", default=None)
    common(sp)
    sp.set_defaults(fn=cmd_geneq_trace)

    sp = sub.add_parser("compute-L", help="candidate length bound constant")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--delta", type=int, required=True)
    sp.add_argument("--alphabet", type=int, required=True)
    sp.add_argument("--expand", action="store_true")
    common(sp)
    sp.set_defaults(fn=cmd_compute_l)

    return p


# the errors that mean bad input: ``main`` reports each as an error line, exit 2
BAD_INPUT = (
    WordSyntaxError,
    EquationError,
    AlphabetError,
    StandardizeError,
    sv.SolverError,
    sf.NotQuadraticError,
    sf.SurfaceError,
    sc.SchemaError,
    bp.BinPackError,
    gq.GenEqError,
)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _CannotRead as e:
        return _fail(f"cannot read {e}")
    except _CannotWrite as e:
        return _fail(f"cannot write {e}")
    except BAD_INPUT as e:
        return _fail(str(e))
    except Exception as e:  # a bug, not bad input: no traceback, its own code
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
