"""Smoke test of the benchmark itself, on tiny strips (nx=16).

    python3 nrbench/smoke.py

It checks that every traced registration function counts in exactly one
per-layer time. For every workload, untraced and traced, it checks that
every metric named in BENCHMARK.json is printed with its unit, and that
every time is above 0. It checks that a traced run restores the functions
it wrapped, and that the spans' self times are never negative and sum to no
more than the traced wall time. Registrations on strips this small need not
meet the workloads' error ceilings, so ``correct`` is not checked. Exits 1
on the first failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import run

NX = 16


def fail(message):
    print(f"smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def nrreg_functions():
    """(module name, attribute) -> object for every callable in nrreg."""
    return {(name, attr): value
            for name, mod in list(sys.modules.items())
            if name == "nrreg" or name.startswith("nrreg.")
            for attr, value in vars(mod).items() if callable(value)}


def bench_main(workload, trace):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run.main(["--workload", workload, "--seed", "1", "--seconds", "1",
                         "--trace", str(trace), "--nx", str(NX)])
    if code != 0:
        fail(f"{workload} --trace {trace} exited {code}:\n{err.getvalue()}")
    return json.loads(out.getvalue().splitlines()[-1])


def check_metrics(result, expected, label):
    for metric in expected:
        got = result["metrics"].get(metric["name"])
        if got is None:
            fail(f"{label}: metric {metric['name']} missing")
        if got["unit"] != metric["unit"]:
            fail(f"{label}: {metric['name']} unit {got['unit']!r}, "
                 f"expected {metric['unit']!r}")
        if got["unit"] == "s" and not got["value"] > 0:
            fail(f"{label}: time {metric['name']} reads {got['value']}")
    extra = set(result["metrics"]) - {m["name"] for m in expected}
    if extra:
        fail(f"{label}: unlisted metrics {sorted(extra)}")


def check_self_times(spans_path, label):
    from tracing import Span, self_times
    spans = []
    for line in spans_path.read_text().splitlines():
        rec = json.loads(line)
        if rec.pop("id") != len(spans):
            fail(f"{label}: span ids in {spans_path} are not consecutive")
        spans.append(Span(**rec))
    selfs = self_times(spans)
    runs = {s.run for s in spans}
    for run_id in runs:
        ids = [i for i, s in enumerate(spans) if s.run == run_id]
        wall = sum(spans[i].duration for i in ids if spans[i].parent is None)
        total = sum(selfs[i] for i in ids)
        if min(selfs[i] for i in ids) < -1e-9:
            fail(f"{label}: negative self time in {run_id}")
        if total > wall + 1e-9:
            fail(f"{label}: self times {total} exceed traced wall {wall} "
                 f"in {run_id}")


def check_layer_partition():
    """Every traced registration function counts in exactly one layer time."""
    from tracing import TRACED
    traced = sorted(f"{mod.split('.')[-1]}.{fn}" for mod, fn in TRACED
                    if mod != "nrreg.synthesis")
    grouped = sorted(s for spans in run.LAYER_TIMES.values() for s in spans)
    if traced != grouped:
        fail(f"layer times group {grouped}, but the traced functions are {traced}")


def main():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_layer_partition()
    for workload in (w["name"] for w in bench["workloads"]):
        result = bench_main(workload, 0)
        check_metrics(result, bench["end_to_end"], f"{workload} untraced")
        before = nrreg_functions()
        result = bench_main(workload, 1)
        check_metrics(result, bench["per_layer"], f"{workload} traced")
        after = nrreg_functions()
        changed = [k for k in before if after.get(k) is not before[k]]
        if changed:
            fail(f"{workload}: functions not restored after tracing: {changed}")
        spans = Path(run.HERE / "out" / f"{workload}-1" / "spans.jsonl")
        check_self_times(spans, workload)
        print(f"smoke: {workload} ok ({result['attempted']} registrations)")
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
