"""Benchmark for tuttebound: four workloads, end-to-end and per-module metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

The library is imported from ``src/`` and driven in-process by one thread:
a closed loop with a single client.  A run first times SETUPS set-ups, each
in a fresh interpreter (imports of numpy, mpmath and tuttebound, seeded
input generation, warm-up), and reports their median as ``setup_s``.  It
then repeats passes over the workload's job list while the next pass is
expected to fit in ``--seconds`` (at least one).  Each job's time is its
median over the passes; ``wall_s`` is their sum, the time to finish the job
list once.  Every job checks its own output and failures are counted.

Times are scaled to a reference machine speed (``speed.py``): a short
fixed kernel, the one the workload names, samples the machine's speed every
50 ms while a set-up or a job is timed, and each job's time, less the
samples it contains, is multiplied by the kernel's reference time over its
median time around that job.  The unscaled figures are printed beside the
scaled ones.

With ``--trace 0`` the last line of output is the JSON result holding the
bounded end-to-end metrics; the others are printed above it.  With
``--trace 1`` an untraced pass warms up, then each job runs untraced and
then traced (see ``spans.py``), back to back, so that the difference is the
tracing overhead at one machine speed; the JSON holds the per-layer
metrics, and the line above it says whether the module self times add up to
the traced wall less that overhead and whether the predicted module had the
largest self time.
Scratch files and span dumps go to ``.bench_build/bench/`` in the checkout.
``--workload all`` runs every workload in its own process and exits nonzero
if any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import mpmath  # noqa: E402

import inputs  # noqa: E402
import speed  # noqa: E402
import spans  # noqa: E402
from workloads import (WORKLOADS, Context, References, graph_stats,  # noqa: E402
                       has_repeated_root, load_library, tree_roots_stats)

SETUPS = 7
SELF_SUM_TOLERANCE = 0.05
MAX_PASSES = 50
TAIL_MIN_JOBS = 100
TAIL_BEYOND = 10
WORK_DIR = ROOT / ".bench_build" / "bench"

MODULES = ("rootfind", "leaftree", "graphs", "sp", "engine", "poly", "oracles",
           "weights", "regions", "cli")


def environment() -> dict:
    import numpy
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"git_sha": sha, "python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND,
            "nproc": len(os.sched_getaffinity(0))}


def warm_up(ctx: Context) -> None:
    """One small call down each path the workloads take, before any timing."""
    lib = ctx.lib
    tt, tree = lib.sp.parse_sp("P(S(e,W),S(e,e),e)")
    lib.sp.decompose_sp(lib.sp.parse_sp("P(S(e,e),S(e,e))")[0])
    lam = lib.graphs.maxmaxflow(tt.graph)
    rs = lib.rootfind.find_roots(lib.engine.chromatic_poly(tree), tol=inputs.ROOT_TOL)
    lib.regions.certify(rs.roots[-1], lam, "wheatstone")
    lib.engine.tree_veff(tree, 2.5 + 1j, -1)
    ctx.cli(["leaftree", "roots", "--r", "2", "--n", "3", "--out", str(ctx.out / "warm.csv")])
    ctx.cli(["region", "grid", "--q", "3+1i", "--resolution", "16", "--out", str(ctx.out / "warm.csv")])


def set_up(workload, seed: int, scratch: Path):
    """Import, input generation and warm-up; returns the context and the job list."""
    lib = load_library()
    ctx = Context(lib, scratch, References(BENCH / "reference.json"))
    jobs = workload.jobs(ctx, seed)
    warm_up(ctx)
    return ctx, jobs


def timed_set_ups(args) -> tuple[list[float], list[float]]:
    """SETUPS set-ups, each in a fresh interpreter; unscaled and scaled seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--set-up-only"]
    raw, scaled = [], []
    for _ in range(SETUPS):
        with speed.Sampler(speed.python_kernel) as sampler:
            first = len(sampler.samples)
            t0 = time.perf_counter()
            subprocess.run(cmd, cwd=ROOT, check=True, timeout=120)
            raw.append(time.perf_counter() - t0)
            end = len(sampler.samples)
        scaled.append(raw[-1] * sampler.factor(first, end))
    return raw, scaled


class Pass:
    """Job times, outputs and failures of one pass, timed under a speed sampler."""

    def __init__(self):
        self.times, self.gross, self.marks, self.failures, self.results = [], [], [], [], []

    def run(self, job, sampler: speed.Sampler) -> None:
        first = len(sampler.samples)
        t0 = time.perf_counter()
        result = None
        try:
            result = job.run()
        except Exception as exc:  # a job that raises counts as failed; the run goes on
            self.failures.append(f"{job.name}: {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - t0
        end = len(sampler.samples)
        self.gross.append(elapsed)
        self.times.append(elapsed - sampler.spent(first, end))
        self.marks.append((first, end))
        self.results.append(result)

    def finish(self, sampler: speed.Sampler) -> dict:
        """``wall`` leaves out the samples taken inside jobs; ``gross`` keeps them."""
        scaled = [t * sampler.factor(*mark) for t, mark in zip(self.times, self.marks)]
        return {"wall": sum(self.times), "gross": sum(self.gross), "wall_scaled": sum(scaled),
                "times": self.times, "scaled": scaled, "failures": self.failures,
                "results": self.results}


def run_pass(jobs, kernel) -> dict:
    record = Pass()
    with speed.Sampler(kernel) as sampler:
        for job in jobs:
            record.run(job, sampler)
    return record.finish(sampler)


def measure(jobs, kernel, seconds: float) -> list[dict]:
    """Passes over the job list while the next one is expected to fit in `seconds`."""
    begin = time.perf_counter()
    done = [run_pass(jobs, kernel)]
    while len(done) < MAX_PASSES:
        elapsed = time.perf_counter() - begin
        if elapsed + elapsed / len(done) > seconds:
            break
        done.append(run_pass(jobs, kernel))
    return done


def tail(times: list[float]) -> dict | None:
    """Highest percentile with at least TAIL_BEYOND jobs beyond it."""
    if len(times) < TAIL_MIN_JOBS:
        return None
    ordered = sorted(times)
    index = len(ordered) - TAIL_BEYOND - 1
    return {"value": ordered[index], "percentile": 100.0 * (index + 1) / len(ordered),
            "jobs": len(ordered)}


def input_stats(workload, lib, seed: int, first: dict, job_times: list[float]) -> dict:
    if workload.name == "tree_roots":
        return tree_roots_stats(lib)
    if workload.name == "sp_sweep":
        stats = graph_stats(lib, inputs.sp_sweep_inputs(seed))
        polys = first["results"]
        flags = [p is not None and has_repeated_root(lib.poly, p) for p in polys]
        degrees = [p.degree for p in polys if p is not None]
        stats["degrees"] = [min(degrees), max(degrees)]
        stats["repeated_root_share"] = sum(flags) / len(flags)
        stats["repeated_root_wall_share"] = (sum(t for t, f in zip(job_times, flags) if f)
                                             / sum(job_times))
        return stats
    if workload.name == "big_graphs":
        return graph_stats(lib, inputs.big_graphs_inputs(seed))
    return {"jobs": len(inputs.GRID_POINTS) + 2, "closures": len(inputs.GRID_POINTS),
            "resolution": inputs.GRID_RESOLUTION, "certify_points": inputs.CERTIFY_BATCH,
            "boundary_thetas": inputs.BOUNDARY_THETA_STEPS}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def per_layer(tracer, summary: dict, poly_mod, traced_wall: float, overhead: float) -> dict:
    calls, incl, selfs = summary["calls"], summary["inclusive"], summary["module_self"]

    def s(name):
        return metric(incl.get(name, 0.0) + incl.get(name + "[exact]", 0.0), "s")

    def n(name):
        return metric(float(calls.get(name, 0) + calls.get(name + "[exact]", 0)), "count")

    solves = calls.get("rootfind.solve_complex_coeffs", 0)
    newton = calls.get("rootfind.newton_residuals", 0)
    polys = [p for p in tracer.solved_polys if p is not None]
    out = {f"{m}.self_s": metric(selfs.get(m, 0.0), "s") for m in MODULES}
    out.update({
        "rootfind.find_roots_s": s("rootfind.find_roots"),
        "rootfind.solve_calls": n("rootfind.solve_complex_coeffs"),
        "rootfind.aberth_sweeps_s": s("rootfind.aberth_sweeps"),
        "rootfind.newton_residuals_s": s("rootfind.newton_residuals"),
        "rootfind.newton_rounds": metric((newton - solves) / solves if solves else 0.0, "count"),
        "rootfind.max_dps": metric(float(tracer.max_dps), "digits"),
        "rootfind.roots": metric(tracer.counts["rootfind.roots"], "count"),
        "rootfind.converged_ratio": metric(
            tracer.counts["rootfind.converged"] / solves if solves else 1.0, "1"),
        "rootfind.repeated_root_share": metric(
            sum(has_repeated_root(poly_mod, p) for p in polys) / len(polys) if polys else 0.0,
            "1"),
        "leaftree.tree_chromatic_roots_s": s("leaftree.tree_chromatic_roots"),
        "leaftree.leaf_tree_ab_s": s("leaftree.leaf_tree_ab"),
        "leaftree.t_eff_exact_s": s("leaftree.t_eff_exact"),
        "leaftree.t_eff_at_calls": n("leaftree.t_eff_at"),
        "graphs.maxmaxflow_s": s("graphs.maxmaxflow"),
        "graphs.max_flow_calls": n("graphs.max_flow"),
        "graphs.blocks_s": s("graphs.blocks"),
        "sp.parse_sp_s": s("sp.parse_sp"),
        "sp.decompose_sp_s": s("sp.decompose_sp"),
        "sp.decompose_sp_edges": metric(tracer.counts["sp.decompose_sp_edges"], "count"),
        "engine.tree_ab_exact_s": metric(incl.get("engine.tree_ab[exact]", 0.0), "s"),
        "engine.tree_ab_numeric_s": metric(incl.get("engine.tree_ab", 0.0), "s"),
        "engine.tree_veff_s": s("engine.tree_veff"),
        "engine.chromatic_poly_s": s("engine.chromatic_poly"),
        "engine.tree_nodes": metric(tracer.counts["engine.tree_nodes"], "count"),
        "poly.mul_calls": n("poly.BigPoly.__mul__"),
        "poly.mul_s": s("poly.BigPoly.__mul__"),
        "poly.gcd_s": s("poly.BigPoly.gcd"),
        "oracles.partial_tutte_brute_calls": n("oracles.partial_tutte_brute"),
        "oracles.brute_s": metric(sum(incl.get(f"oracles.{f}", 0.0) for f in
                                      ("tutte_brute", "partial_tutte_brute", "potts_brute")), "s"),
        "weights.parallel_calls": n("weights.parallel"),
        "weights.series_calls": n("weights.series"),
        "regions.grid_closure_s": s("regions.grid_closure"),
        "regions.grid_sweeps": metric(tracer.counts["regions.grid_sweeps"], "count"),
        "regions.grid_cells": metric(tracer.counts["regions.grid_cells"], "count"),
        "regions.boundary_rho_s": s("regions.boundary_rho"),
        "regions.certify_calls": n("regions.certify"),
        "regions.certify_s": s("regions.certify"),
        "regions.cycle_counterexample_s": s("regions.cycle_counterexample"),
        "trace.overhead_s": metric(overhead, "s"),
        "bench.self_s": metric(traced_wall - summary["covered"], "s"),
    })
    return out


def print_result(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def set_up_only(args) -> int:
    """The set-up a timed set-up runs in a fresh interpreter; nothing is printed."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        set_up(WORKLOADS[args.workload], args.seed, Path(tmp))
    return 0


def paired_pass(jobs, kernel, tracer) -> tuple[dict, dict]:
    """Each job untraced and then traced, back to back at the same machine speed."""
    plain, traced = Pass(), Pass()
    with speed.Sampler(kernel) as sampler:
        for job_id, job in enumerate(jobs):
            plain.run(job, sampler)
            tracer.job = job_id
            tracer.install()
            try:
                traced.run(job, sampler)
            finally:
                tracer.uninstall()
    return plain.finish(sampler), traced.finish(sampler)


def trace_report(workload, seed: int, ctx, plain: dict, traced: dict, tracer,
                 stats: dict) -> dict:
    """Per-layer metrics, and the report line checking the predicted self times."""
    # The untraced wall at the traced runs' speed: the traced wall less the
    # overhead, in the traced runs' own seconds like every span time.  Span
    # times include the speed samples taken inside them, so the gross walls.
    expected = traced["gross"] * plain["wall_scaled"] / traced["wall_scaled"]
    overhead = traced["gross"] - expected
    cost = spans.span_cost()
    summary = tracer.summary(cost)
    metrics = per_layer(tracer, summary, ctx.lib.poly, traced["gross"], overhead)
    path = WORK_DIR / f"spans-{workload.name}-{seed}.npz"
    tracer.write(path)
    module_self = {m: metrics[f"{m}.self_s"]["value"] for m in MODULES}
    module_sum = sum(module_self.values())
    bench_self = metrics["bench.self_s"]["value"]
    gap = (module_sum + bench_self - expected) / expected
    top = max(module_self, key=module_self.get)
    report = {
        "spans": summary["spans"], "span_file": str(path.relative_to(ROOT)),
        "absent": tracer.absent, "span_cost_s": cost,
        "traced_wall_s": traced["gross"], "traced_wall_scaled_s": traced["wall_scaled"],
        "untraced_wall_scaled_s": plain["wall_scaled"],
        "traced_wall_less_overhead_s": expected,
        "module_self_sum_s": module_sum, "bench_self_s": bench_self,
        "self_sum_gap": gap,
        "self_sum_check": (f"module self times plus bench.self_s add up to the traced wall "
                           f"less trace.overhead_s within {SELF_SUM_TOLERANCE}: "
                           f"{'held' if abs(gap) <= SELF_SUM_TOLERANCE else 'did not hold'}"),
        "largest_self_module": top,
    }
    if workload.top_module is not None:
        report["prediction"] = (f"{workload.top_module} has the largest self time: "
                                f"{'held' if top == workload.top_module else 'did not hold'}")
    if workload.name == "sp_sweep":
        report["repeated_root_share"] = metrics["rootfind.repeated_root_share"]["value"]
        report["repeated_root_wall_share"] = stats["repeated_root_wall_share"]
    print("trace: " + json.dumps(report, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    return metrics


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    env = environment()
    try:
        setups_raw, setups = timed_set_ups(args)
    except subprocess.SubprocessError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        ctx, jobs = set_up(workload, args.seed, Path(tmp))
        traced = tracer = None
        if args.trace:
            # A first untraced pass warms caches such as mpmath's constants.
            tracer = spans.Tracer()
            done = [run_pass(jobs, workload.kernel)]
            plain, traced = paired_pass(jobs, workload.kernel, tracer)
            done.append(plain)
        else:
            done = measure(jobs, workload.kernel, args.seconds)
        # Per job, the median over passes; the run's figures are built from these.
        job_times = [statistics.median(d["scaled"][j] for d in done) for j in range(len(jobs))]
        raw_times = [statistics.median(d["times"][j] for d in done) for j in range(len(jobs))]
        stats = input_stats(workload, ctx.lib, args.seed, done[0], job_times)

    failures = [f for d in done for f in d["failures"]]
    attempted = len(jobs) * len(done)
    if traced is not None:
        failures += traced["failures"]
        attempted += len(jobs)
    print("env: " + json.dumps(env, sort_keys=True))
    print(f"workload: {workload.name} ({workload.why}); seed {args.seed}, {len(jobs)} jobs")
    print(f"pass walls: {[round(d['wall_scaled'], 4) for d in done]} s scaled, "
          f"{[round(d['wall'], 4) for d in done]} s unscaled")
    print("inputs: " + json.dumps(stats, sort_keys=True))
    for failure in failures[:20]:
        print("FAILED " + failure)

    if tracer is None:
        # The JSON carries the metrics BENCHMARK.json bounds; job_p50_s and
        # job_tail_s are printed only, because the median and tail job move
        # with the seed's job mix by more than a 25% bound, and failures
        # already travel in the JSON.
        metrics = {"wall_s": metric(sum(job_times), "s"),
                   "setup_s": metric(statistics.median(setups), "s"),
                   "peak_rss_mb": metric(peak_rss_mb(), "MB")}
        job_tail = tail(job_times)
        print(f"wall_s       = {metrics['wall_s']['value']:.6g} s "
              f"(unscaled {sum(raw_times):.6g} s)")
        print(f"job_p50_s    = {statistics.median(job_times):.6g} s")
        if job_tail is None:
            print(f"job_tail_s   = n/a ({len(jobs)} jobs, fewer than {TAIL_MIN_JOBS})")
        else:
            print(f"job_tail_s   = {job_tail['value']:.6g} s "
                  f"(p{job_tail['percentile']:.2f} of {job_tail['jobs']} jobs)")
        print(f"failed_ratio = {len(failures) / attempted:.6g} 1 ({len(failures)} of {attempted})")
        print(f"setup_s      = {metrics['setup_s']['value']:.6g} s "
              f"(unscaled {statistics.median(setups_raw):.6g} s)")
        print(f"peak_rss_mb  = {metrics['peak_rss_mb']['value']:.6g} MB")
    else:
        metrics = trace_report(workload, args.seed, ctx, plain, traced, tracer, stats)

    print_result(not failures, attempted, len(failures), metrics)
    return 0 if not failures else 1


def run_all(args) -> int:
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--set-up-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tuttebound").is_dir():
        print(f"error: no tuttebound sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    if args.set_up_only:
        return set_up_only(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
