"""nrreg benchmark: one registration workload, timed end to end or traced
layer by layer.

    python3 nrbench/run.py --workload bend-outliers-800 --seed 1 \
        --seconds 40 --trace 0

Run from the root of a source checkout; nrreg is imported from ``src/``.
The inputs are built from ``--seed``, then registrations of them are
repeated until ``--seconds`` is used up. Every registration is checked
(convergence, CLI exit status and outputs, error against ground truth, and
counts that must repeat exactly). Human-readable lines go first; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. Spans of a traced run are written to
``nrbench/out/<workload>-<seed>/spans.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import nrreg, nrreg.cli; "
                "print(time.perf_counter() - t)")

# Per-layer times: the self time (net of the traced calls inside) of these
# traced functions, summed. Together they add up to the traced registration's
# wall time ("entry.self_s" also takes the time outside every span), and each
# is spent on every workload, so none reads a constant 0.
LAYER_TIMES = {
    "operators.project_rotations.s": ["operators.project_rotations"],
    "operators.factorize_system.s": ["operators.factorize_system"],
    "operators.solve_X.s": ["operators.solve_X"],
    "operators.assemble_system.s": ["operators.assemble_system"],
    "solver.evaluate_energy.self_s": ["solver.evaluate_energy"],
    "solver.inner_solve.self_s": ["solver.admm_solve", "solver.solve_l2_baseline"],
    "solver.register.self_s": ["solver.register"],
    "correspondence.closest_point_refresh.self_s":
        ["correspondence.closest_point_refresh"],
    "geometry.s": ["geometry.build_edge_graph", "geometry.compute_vertex_normals",
                   "geometry.load_shape", "geometry.save_shape"],
    "entry.self_s": ["cli.main", "cli.save_transforms", "cli.write_manifest",
                     "metrics.fitting_error"],
}
# number of calls of one traced function
SPAN_CALLS = {
    "operators.factorize_system.calls": "operators.factorize_system",
    "correspondence.closest_point_refresh.calls": "correspondence.closest_point_refresh",
    "geometry.build_edge_graph.calls": "geometry.build_edge_graph",
}
# counts that must be identical in every registration of one seed
REPEATED = ("solver.outer_iters", "solver.inner_iters",
            "operators.factorize_system.calls")

# every per-layer metric with its unit
PER_LAYER = {
    **{name: "s" for name in LAYER_TIMES},
    **{name: "count" for name in SPAN_CALLS},
    "operators.project_rotations.blocks": "count",
    "solver.outer_iters": "count",
    "solver.inner_iters": "count",
    "solver.inner_converged_frac": "ratio",
    "correspondence.matched_frac": "ratio",
    "synthesis.s": "s",
    "trace.overhead_frac": "ratio",
}


# one BLAS thread: the solver's dense work is tiny, and a second OpenBLAS
# thread spins a second core without shortening the registration
BLAS_THREADS = "1"


class SetupError(Exception):
    """The checkout cannot be benchmarked."""


def import_nrreg():
    """Import nrreg from this checkout's src/ and nowhere else."""
    if not (SRC / "nrreg" / "__init__.py").is_file():
        raise SetupError(f"no nrreg sources under {SRC}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(SRC), str(HERE)]
    import nrreg
    if Path(nrreg.__file__).resolve().parent != SRC / "nrreg":
        raise SetupError(f"nrreg imported from {nrreg.__file__}, not {SRC}")


def time_imports():
    """Seconds a fresh interpreter takes to import nrreg and its CLI."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                         cwd=ROOT, capture_output=True, text=True, check=True,
                         timeout=60)
    return float(out.stdout.strip())


class Bench:
    """One workload's inputs, registrations and per-registration checks."""

    def __init__(self, workload, seed, work_dir, nx=None):
        self.w = workload
        self.seed = seed
        self.work_dir = work_dir
        self.nx = nx
        self.inputs = None
        self.attempted = 0
        self.failed = 0
        self.records = []

    def make_inputs(self):
        from workloads import make_inputs
        self.inputs = make_inputs(self.w, self.seed, self.work_dir, self.nx)

    def setup(self):
        """Build the inputs SETUP_REPS times; the median of fresh-interpreter
        import plus input synthesis and writing, in seconds."""
        samples = []
        for _ in range(SETUP_REPS):
            t_import = time_imports()
            t0 = time.perf_counter()
            self.make_inputs()
            samples.append(t_import + time.perf_counter() - t0)
        return statistics.median(samples)

    def _register_lib(self):
        import nrreg.solver
        from nrreg.metrics import mean_distance_error
        inp = self.inputs
        t0 = time.perf_counter()
        result = nrreg.solver.register(inp.template, inp.target, inp.landmarks,
                                       inp.config)
        seconds = time.perf_counter() - t0
        return seconds, {
            "converged": result.converged,
            "solver.outer_iters": len(result.log),
            "solver.inner_iters": sum(e["inner"] for e in result.log),
            "error_rel": mean_distance_error(result.transforms, inp.template,
                                             inp.ground_truth) / inp.diag}

    def _register_cli(self):
        import nrreg.cli
        f = self.inputs.files
        out = os.path.join(self.work_dir, "run")
        shutil.rmtree(out, ignore_errors=True)
        argv = ["register", "--template", f["template"], "--target", f["target"],
                "--corr", f["landmarks"], "--ground-truth", f["ground_truth"],
                "--out", out]
        t0 = time.perf_counter()
        code = nrreg.cli.main(argv)
        seconds = time.perf_counter() - t0
        if code != 0:
            return seconds, {"failure": f"CLI exit status {code}"}
        expected = ["deformed.ply", "transforms.txt", "iterations.json",
                    "error_report.json", "manifest.json"]
        missing = [p for p in expected if not os.path.isfile(os.path.join(out, p))]
        if missing:
            return seconds, {"failure": f"CLI wrote no {', '.join(missing)}"}
        loaded = {}
        for name in ("iterations", "error_report"):
            with open(os.path.join(out, name + ".json")) as fh:
                loaded[name] = json.load(fh)
        log = loaded["iterations"]["outer"]
        return seconds, {
            "converged": loaded["iterations"]["converged"],
            "solver.outer_iters": len(log),
            "solver.inner_iters": sum(e["inner"] for e in log),
            "error_rel": loaded["error_report"]["mean_distance"] / self.inputs.diag}

    def _failure(self, rec):
        if "failure" in rec:
            return rec["failure"]
        if not rec["converged"]:
            return "did not converge"
        if not rec["error_rel"] <= self.w.error_ceiling:
            return (f"error_rel {rec['error_rel']:.3g} above ceiling "
                    f"{self.w.error_ceiling:g}")
        return None

    def attempt(self):
        """One checked registration; returns its record."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            seconds, rec = (self._register_cli() if self.w.cli
                            else self._register_lib())
        except Exception:       # a raising registration is a failed run
            traceback.print_exc(file=sys.stderr)
            seconds, rec = time.perf_counter() - t0, {"failure": "raised"}
        rec["seconds"] = seconds
        rec["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        reason = self._failure(rec)
        if reason:
            self.failed += 1
            rec["failure"] = reason
            print(f"registration {self.attempted} failed: {reason}",
                  file=sys.stderr)
        self.records.append(rec)
        return rec

    def counts_differ(self):
        """Reason if a count differs between successful registrations."""
        ok = [r for r in self.records if "failure" not in r]
        for key in REPEATED:
            values = {r[key] for r in ok if key in r}
            if len(values) > 1:
                return f"{key} differs between registrations: {sorted(values)}"
        return None


def repeat(attempt, deadline):
    """Call ``attempt`` until the next call would likely end after
    ``deadline``; at least once. Returns the records."""
    recs = []
    while True:
        recs.append(attempt())
        if time.perf_counter() + statistics.median(r["seconds"] for r in recs) \
                > deadline:
            return recs


class TracedAttempts:
    """Registrations under a Tracer, each summarized into layer metrics."""

    def __init__(self, bench):
        from tracing import Tracer
        self.bench = bench
        self.admm = [0, 0]         # inner solves, inner solves that converged
        self.matched = 0
        self.tracer = Tracer(observers={
            "solver.admm_solve": self._on_admm,
            "correspondence.closest_point_refresh": self._on_refresh,
        })

    def _on_admm(self, result):
        self.admm[0] += 1
        self.admm[1] += int(result[1].converged)

    def _on_refresh(self, result):
        self.matched += result.n_matched()

    def __call__(self):
        from tracing import summarize
        run = f"registration-{self.bench.attempted + 1}"
        self.tracer.run = run
        self.admm, self.matched = [0, 0], 0
        with self.tracer:
            rec = self.bench.attempt()
        _, excl, calls, top = summarize(self.tracer.spans, run)
        n = self.bench.inputs.template.n_vertices
        for metric, spans in LAYER_TIMES.items():
            rec[metric] = sum(excl[s] for s in spans)
        rec["entry.self_s"] += rec["seconds"] - top
        for metric, span in SPAN_CALLS.items():
            rec[metric] = calls[span]
        rec["operators.project_rotations.blocks"] = \
            calls["operators.project_rotations"] * n
        # the l2 variant has no inner loop; its direct solve meets any tolerance
        rec["solver.inner_converged_frac"] = \
            self.admm[1] / self.admm[0] if self.admm[0] else 1.0
        refreshes = calls["correspondence.closest_point_refresh"]
        rec["correspondence.matched_frac"] = \
            self.matched / (refreshes * n) if refreshes else 0.0
        return rec

    def setup_seconds(self):
        """Seconds in nrreg.synthesis while the inputs are built once more."""
        from tracing import summarize
        self.tracer.run = "setup"
        with self.tracer:
            self.bench.make_inputs()
        incl, _, _, _ = summarize(self.tracer.spans, "setup")
        return sum(v for k, v in incl.items() if k.startswith("synthesis."))


def end_to_end_metrics(recs, setup_s):
    ok = [r for r in recs if "failure" not in r]
    # with no successful registration error_rel reads 1 (one bbox diagonal);
    # the run is marked incorrect then anyway
    error = statistics.median(r["error_rel"] for r in ok) if ok else 1.0
    # the process peak after the first registration: repeats can raise it
    # further, and their number depends on the program's speed
    return {
        "register_s": (statistics.median(r["seconds"] for r in recs), "s"),
        "setup_s": (setup_s, "s"),
        "error_rel": (error, "ratio"),
        "peak_rss_mb": (recs[0]["peak_rss_kb"] / 1024.0, "MB"),
    }


def layer_metrics(untraced, traced, synthesis_s):
    ok = [r for r in traced if "failure" not in r] or traced
    metrics = {name: (statistics.median(r.get(name, 0) for r in ok), unit)
               for name, unit in PER_LAYER.items()}
    metrics["synthesis.s"] = (synthesis_s, "s")
    base = statistics.median(r["seconds"] for r in untraced)
    metrics["trace.overhead_frac"] = (
        (statistics.median(r["seconds"] for r in traced) - base) / base, "ratio")
    return metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--nx", type=int, help="override the strip length")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        import_nrreg()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    work_dir = HERE / "out" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    bench = Bench(WORKLOADS[args.workload], args.seed, str(work_dir), args.nx)
    setup_s = bench.setup()

    deadline = time.perf_counter() + args.seconds
    if args.trace:
        untraced = [bench.attempt()]
        traced_attempt = TracedAttempts(bench)
        traced = repeat(traced_attempt, deadline)
        synthesis_s = traced_attempt.setup_seconds()
        traced_attempt.tracer.write(work_dir / "spans.jsonl")
        metrics = layer_metrics(untraced, traced, synthesis_s)
    else:
        metrics = end_to_end_metrics(repeat(bench.attempt, deadline), setup_s)

    problem = bench.counts_differ()
    if problem:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {bench.attempted} "
          f"registrations, BLAS threads {BLAS_THREADS}")
    print("  registration seconds: "
          + " ".join(f"{r['seconds']:.3f}" for r in bench.records))
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:.6g} {unit}")
    print(f"  {'fail_rate':44s} {bench.failed / bench.attempted:.6g} ratio "
          f"({bench.failed} of {bench.attempted} registrations failed)")
    print(json.dumps({
        "correct": bench.failed == 0 and problem is None,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
