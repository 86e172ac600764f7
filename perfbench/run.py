"""Benchmark of the quadeq decision path.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

Runs one workload (see ``workloads.py``) as a closed loop in this process:
one case at a time, each decided through the library functions behind the
CLI subcommands (``solve``: ``parse_system`` -> ``solve_quadratic`` ->
``EquationSystem.check``; ``genus``: ``parse_word`` -> ``tuple_genus``).
Whole passes over the workload's cases repeat until ``--seconds`` have
passed and at least ``MIN_SAMPLES`` cases have run; a case's time is its
median over the passes.  Each case runs under a CPU-time limit (``SIGVTALRM``), so load from
other processes cannot turn a case into a timeout.  Times are scaled to a
nominal machine speed measured by ``reference.py`` during the timed passes.

Every verdict is checked against the known answer outside the timed region
where the answer can be computed beforehand.  With ``--trace 0`` the last
line of output is a JSON object with the end-to-end metrics; with
``--trace 1`` an untraced pass is followed by a traced pass over the same
cases, the spans go to ``.perfbench_out/`` and the JSON object holds the
per-layer metrics.  ``--workload all`` runs every workload, one after
another, each in a fresh process.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import types
from pathlib import Path
from time import perf_counter, process_time

import reference
import workloads
from tracing import Tracer
from workloads import ROOT, Case

PINS = json.loads((Path(__file__).resolve().parent / "pins.json").read_text())
LIMIT_S = PINS["case_cpu_limit_s"]
# set-up is timed this often before the timed passes and again after them
SETUP_REPEATS = 10
# small workloads repeat passes until every case has several samples
MIN_SAMPLES = 40
# seconds between two samples of the machine's speed during the timed passes
REFERENCE_EVERY_S = 0.25
MODULES = ("words", "parsing", "equations", "oracle", "standardize", "solver")
# decided during set-up so that lazy caches (the oracle's word lists) are warm
WARMUP = (
    Case("solve", "gens: a b\nvars: x y\n[x, y] = [a, b]\n", "sat"),
    Case("solve", "gens: a b\nvars: x\nx^-1 a x = b\n", "unsat"),
    Case("solve", "gens: a b\nvars: x y\nx x y y = a a b b\n", "sat"),
    Case("genus", "gens: a b\na b a^-1 b^-1\n", 1),
)


class CaseTimeout(BaseException):
    """Raised by the CPU-time alarm; a BaseException so no library handler eats it."""


class Alarm:
    """One-shot CPU-time limit.  A signal handled after ``disarm`` is ignored."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.armed = False
        signal.signal(signal.SIGVTALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise CaseTimeout

    def arm(self):
        self.armed = True
        signal.setitimer(signal.ITIMER_VIRTUAL, self.seconds)

    def disarm(self):
        self.armed = False
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)


def import_library() -> types.SimpleNamespace:
    """Fresh import of the library modules the benchmark calls."""
    for name in [m for m in sys.modules if m == "quadeq" or m.startswith("quadeq.")]:
        del sys.modules[name]
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"quadeq.{m}") for m in MODULES}
    )


def decide(lib, case: Case) -> tuple[str, str]:
    """(outcome, verdict) of one case; outcome is ok, wrong or unverified."""
    if case.kind == "genus":
        header, *lines = case.text.splitlines()
        gens = tuple(header[len("gens:"):].split())
        alphabet = lib.words.Alphabet(gens)
        coefficients = [lib.parsing.parse_word(line, alphabet) for line in lines]
        genus = lib.solver.tuple_genus(coefficients, "orientable", gens)
        # every query is a non-trivial product of case.expect commutators
        ok = genus is not None and 1 <= genus <= case.expect
        return ("ok" if ok else "wrong"), f"genus {genus}"
    system = lib.equations.parse_system(case.text)
    result = lib.solver.solve_quadratic(system)
    if result.status == "sat" and not system.check(result.witness):
        return "unverified", result.status
    if result.status not in ("sat", "unsat"):
        return "wrong", result.status
    if case.expect is not None and result.status != case.expect:
        return "wrong", result.status
    return "ok", result.status


def setup() -> tuple[types.SimpleNamespace, list[float], list[float]]:
    """Import plus warm-up, repeated; returns the last library, the times and
    a reference sample taken after each repeat."""
    times = []
    speed = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # the previous repeat's modules are garbage, not set-up work
        start = perf_counter()
        lib = import_library()
        for case in WARMUP:
            outcome, verdict = decide(lib, case)
            if outcome != "ok":
                raise RuntimeError(f"warm-up case gave {verdict}: {case.text!r}")
        times.append(perf_counter() - start)
        speed.append(reference.sample())
    return lib, times, speed


def check_pins(name: str, cases: list[Case]):
    """Stop when a workload's inputs differ from the pinned ones."""
    if name == "planted":
        got = workloads.digest(workloads.planted_cases(0), ordered=True)
    else:
        got = workloads.digest(cases, ordered=False)
    if got != PINS["digests"][name]:
        sys.exit(f"perfbench: {name} inputs changed: digest {got}, pinned {PINS['digests'][name]}")


def oracle_answers(lib, cases: list[Case]) -> list[Case]:
    """Corpus known answers: a solution of length <= 1 found by the oracle means sat."""
    out = []
    for case in cases:
        system = lib.equations.parse_system(case.text)
        found = lib.oracle.is_satisfiable(system, lib.oracle.SearchBound(1))
        out.append(Case(case.kind, case.text, "sat" if found is not None else None))
    return out


def run_passes(lib, cases: list[Case], seconds: float, alarm: Alarm,
               passes: int | None = None, tracer: Tracer | None = None):
    """Closed loop over whole passes; returns (samples, wall seconds, passes,
    reference samples).

    Without ``passes``, passes repeat until ``seconds`` have elapsed and at
    least MIN_SAMPLES cases were run.  A sample is (seconds, outcome,
    verdict); outcome is ok, wrong, unverified, crash or timeout.  Between
    cases the machine's speed is sampled every REFERENCE_EVERY_S; the wall
    time leaves those samples out.
    """
    samples = []
    speed = []
    done = 0
    start = perf_counter()
    next_sample = start
    while True:
        for i, case in enumerate(cases):
            if perf_counter() >= next_sample:
                speed.append(reference.sample())
                next_sample = perf_counter() + REFERENCE_EVERY_S
            if tracer is not None:
                tracer.begin_case(done * len(cases) + i)
            t0, c0 = perf_counter(), process_time()
            try:
                try:
                    alarm.arm()
                    outcome, verdict = decide(lib, case)
                finally:
                    alarm.disarm()
            except CaseTimeout:
                outcome, verdict = "timeout", "timeout"
            except Exception as e:
                outcome, verdict = "crash", type(e).__name__
            # a timeout is timed by the CPU time it used: the limit, whatever
            # the machine's speed and the load from other processes
            t = process_time() - c0 if outcome == "timeout" else perf_counter() - t0
            samples.append((t, outcome, verdict))
            if tracer is not None and outcome != "ok":
                tracer.charge_failure()
        done += 1
        elapsed = perf_counter() - start - sum(speed)
        if passes is None:
            if elapsed >= seconds and len(samples) >= MIN_SAMPLES:
                return samples, elapsed, done, speed
        elif done == passes:
            return samples, elapsed, done, speed


def end_to_end(samples, n_cases: int, setup_s: float,
               slowdown: float) -> dict[str, tuple[float, str]]:
    """Metrics with case times divided by ``slowdown``, the machine's
    reference sample time over the nominal one, except timeouts, which last
    the CPU limit at any speed; ``setup_s`` comes scaled."""
    scaled = [t if outcome == "timeout" else t / slowdown for t, outcome, _ in samples]
    # a failed case is charged at least the limit; a case's time is its
    # median over the passes
    charged = [t if outcome == "ok" else max(t, LIMIT_S)
               for t, (_, outcome, _) in zip(scaled, samples)]
    times = [statistics.median(charged[i::n_cases]) for i in range(n_cases)]
    decided = sum(1 for _, outcome, _ in samples if outcome == "ok")
    return {
        "decided_per_s": (decided / sum(scaled), "cases/s"),
        "latency_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "latency_p99_ms": (statistics.quantiles(times, n=100, method="inclusive")[98] * 1e3, "ms"),
        "case_geomean_ms": (math.exp(statistics.fmean(math.log(t) for t in times)) * 1e3, "ms"),
        "failed_frac": ((len(samples) - decided) / len(samples), "fraction"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def run_workload(args) -> dict:
    cases = workloads.GENERATORS[args.workload](args.seed)
    check_pins(args.workload, cases)
    lib, setup_times, setup_speed = setup()
    if args.workload == "corpus":
        cases = oracle_answers(lib, cases)
    alarm = Alarm(LIMIT_S)
    samples, wall, passes, speed = run_passes(lib, cases, args.seconds, alarm)
    # set-up is timed on both sides of the timed passes, so that it spans the
    # run as the other time metrics do; the modules imported here are dropped
    # and ``lib`` keeps its own
    _, more_times, more_speed = setup()
    setup_times += more_times
    setup_speed += more_speed
    setup_slowdown = statistics.median(setup_speed) / PINS["reference_s"]
    slowdown = statistics.median(speed) / PINS["reference_s"]
    metrics = end_to_end(samples, len(cases), statistics.median(setup_times) / setup_slowdown,
                         slowdown)
    if args.trace:
        tracer = Tracer()
        tracer.install(lib)
        try:
            traced, traced_wall, _, _ = run_passes(lib, cases, args.seconds, alarm, passes, tracer)
        finally:
            tracer.uninstall()
        tracer.write(ROOT / ".perfbench_out" / f"trace-{args.workload}-{args.seed}.jsonl")
        metrics = tracer.metrics()
        metrics["trace.overhead_frac"] = (traced_wall / wall - 1, "fraction")
        samples += traced
    counts = {}
    for _, outcome, verdict in samples:
        counts[outcome] = counts.get(outcome, 0) + 1
        counts[f"verdict {verdict}"] = counts.get(f"verdict {verdict}", 0) + 1
    for key in sorted(counts):
        print(f"# {args.workload} {key}: {counts[key]}")
    print(f"# {args.workload} passes: {passes}, cases per pass: {len(cases)}")
    print(f"# {args.workload} unscaled wall: {wall:.6g} s, setup: {statistics.median(setup_times):.6g} s, "
          f"slowdown: {slowdown:.4f} in the timed passes, {setup_slowdown:.4f} in set-up")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    failed = sum(1 for _, outcome, _ in samples if outcome != "ok")
    return {
        "correct": counts.get("wrong", 0) == 0 and counts.get("unverified", 0) == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.GENERATORS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        for name in workloads.GENERATORS:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            if subprocess.run(cmd).returncode:
                return 1
        return 0
    if not (ROOT / "src" / "quadeq" / "__init__.py").is_file():
        print(f"perfbench: no quadeq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
