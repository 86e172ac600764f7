"""The traced run's counters are deterministic.

    python3 -m pytest perfbench -q
"""

import sys

import run
import workloads
from tracing import Tracer

sys.path.insert(0, str(workloads.ROOT / "src"))


def traced_pass(lib, cases):
    tracer = Tracer()
    tracer.install(lib)
    try:
        samples, _, _, _ = run.run_passes(lib, cases, 0, run.Alarm(run.LIMIT_S), 1, tracer)
    finally:
        tracer.uninstall()
    counts = {name: value for name, (value, unit) in tracer.metrics().items() if unit != "s"}
    return [outcome for _, outcome, _ in samples], counts


def test_counts_repeat_exactly():
    # cases well inside the CPU limit, so no pass is cut at a random point
    planted = [c for c in workloads.planted_cases(0) if c.text != workloads._cliff_case().text]
    cases = workloads.corpus_cases(0)[:400] + planted[::4]
    lib, _, _ = run.setup()
    outcomes, counts = traced_pass(lib, cases)
    assert "timeout" not in outcomes
    assert counts["oracle.witness_letters"] > 0 and counts["solver.diagram_calls"] > 0
    assert traced_pass(lib, cases) == (outcomes, counts)


def test_metric_names_match_benchmark_json():
    import json

    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    e2e = run.end_to_end([(0.001, "ok", "sat"), (0.002, "ok", "unsat")], 2, 0.1, 1.0)
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    layers = [*Tracer().metrics(), "trace.overhead_frac"]
    assert [m["name"] for m in spec["per_layer"]] == layers
    assert all(m["unit"] == e2e[m["name"]][1] for m in spec["end_to_end"])
