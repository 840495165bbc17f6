"""The four workloads: their jobs, and the check each job makes of its output.

A job is one graph, one tree, one closure or one sweep.  Jobs with a CLI
command run ``tuttebound.cli.main`` in-process with ``--out`` in a scratch
directory; the others call the library functions those commands call.
Every call goes through the module attribute at call time, so the traced
run sees it.  A job raises ``CheckFailed`` when its output is wrong.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import inputs
import speed

LIBRARY_MODULES = ("cli", "sp", "graphs", "engine", "rootfind", "regions", "poly", "leaftree")


class CheckFailed(Exception):
    pass


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def load_library() -> SimpleNamespace:
    return SimpleNamespace(**{name: importlib.import_module(f"tuttebound.{name}")
                              for name in LIBRARY_MODULES})


class References:
    """Exact outputs recorded at the benchmark's first commit; a missing key fails."""

    def __init__(self, path: Path):
        self.data = json.loads(path.read_text())

    def expect(self, key: str, value) -> None:
        check(key in self.data, f"no reference for {key}")
        check(self.data[key] == value, f"{key}: got {value!r}, want {self.data[key]!r}")


@dataclass
class Job:
    name: str
    run: Callable[[], object]


@dataclass
class Context:
    lib: SimpleNamespace
    out: Path
    refs: References

    def cli(self, argv: list[str]) -> tuple[int, str]:
        """Run one CLI command; returns its exit code and what it wrote to stderr."""
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = self.lib.cli.main(argv)
            except SystemExit as exc:   # argparse rejected the arguments
                code = exc.code if isinstance(exc.code, int) else 2
        return code, err.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def coeff_digest(p) -> str:
    return sha256(",".join(str(c) for c in p.coeffs))


def complex_arg(q: complex) -> str:
    """CLI form of q; pass it as ``--q=...`` so a leading minus is not an option."""
    sign = "-" if q.imag < 0 else "+"
    return f"{q.real!r}{sign}{abs(q.imag)!r}i"


def has_repeated_root(poly_mod, p) -> bool:
    """Exact test for a repeated root other than 0 and 1 (gcd with p')."""
    big = poly_mod.BigPoly
    coeffs = list(p.coeffs)
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
    f = big(coeffs)
    q_minus_1 = big([-1, 1])
    while f.degree > 0 and sum(f.coeffs) == 0:
        f = f.exact_div(q_minus_1)
    return f.degree >= 2 and big.gcd(f, f.derivative()).degree >= 1


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _graph_facts(graph) -> tuple[int, int, int]:
    """Vertex count, distinct adjacent pairs, and maximum degree."""
    pairs = {frozenset(edge) for edge in graph.edges}
    degree = max(graph.degree(v) for v in range(graph.vertex_count))
    return graph.vertex_count, len(pairs), degree


def _check_chromatic(p, graph) -> None:
    """Invariants every chromatic polynomial of a loopless graph satisfies."""
    vertices, simple_edges, _ = _graph_facts(graph)
    check(p.degree == vertices and p.coeffs[-1] == 1, "chromatic polynomial is not monic of degree |V|")
    check(p.coeffs[-2] == -simple_edges, "q^(n-1) coefficient is not -|E(simple)|")
    check(sum(p.coeffs) == 0, "P(1) != 0 for a graph with an edge")
    check(all(c * (-1) ** (vertices - k) >= 0 for k, c in enumerate(p.coeffs)),
          "coefficients do not alternate in sign")


# ---------------------------------------------------------------------------
# tree_roots
# ---------------------------------------------------------------------------

def tree_degree(r: int, n: int) -> int:
    return (r ** n + r - 2) // (r - 1)


def tree_roots_jobs(ctx: Context, seed: int) -> list[Job]:
    def roots(r: int, n: int) -> Callable[[], object]:
        def run():
            path = ctx.out / f"roots-{r}-{n}.csv"
            code, _ = ctx.cli(["leaftree", "roots", "--r", str(r), "--n", str(n),
                               "--tol", repr(inputs.ROOT_TOL), "--out", str(path)])
            check(code == 0, f"leaftree roots exited {code}")
            rows = _read_csv(path)
            check(len(rows) == tree_degree(r, n), "root count differs from the degree")
            check(all(float(row["residual"]) <= inputs.ROOT_TOL for row in rows),
                  "a residual exceeds the tolerance")
        return run

    def counterexample():
        path = ctx.out / "counterexample.json"
        code, _ = ctx.cli(["region", "counterexample", "--out", str(path)])
        check(code == 0, f"region counterexample exited {code}")
        out = json.loads(path.read_text())
        check(out["count"] == 31 and len(out["roots"]) == 31, "counterexample root count is not 31")
        check(2.00945 <= out["witness_offset"] <= 2.00948, "witness offset out of range")
        check(out["verified"] and out["cycle_poly_degree"] == 94, "cycle witness not verified")

    jobs = [Job(f"leaftree roots r={r} n={n}", roots(r, n)) for r, n in inputs.TREE_SIZES]
    jobs.append(Job("region counterexample", counterexample))
    return inputs.order(seed, "tree_roots", jobs)


def tree_roots_stats(lib) -> dict:
    polys = [lib.leaftree.chromatic_leaf_tree(r, n) for r, n in inputs.TREE_SIZES]
    return {"jobs": len(inputs.TREE_SIZES) + 1,
            "degrees": [p.degree for p in polys],
            "repeated_root_share": sum(has_repeated_root(lib.poly, p) for p in polys) / len(polys)}


# ---------------------------------------------------------------------------
# sp_sweep
# ---------------------------------------------------------------------------

def sp_sweep_jobs(ctx: Context, seed: int) -> list[Job]:
    lib = ctx.lib

    def graph_job(text: str) -> Callable[[], object]:
        def run():
            tt, tree = lib.sp.parse_sp(text)
            mmf = lib.graphs.maxmaxflow(tt.graph)
            p = lib.engine.chromatic_poly(tree)
            rs = lib.rootfind.find_roots(p, tol=inputs.ROOT_TOL)
            mode = "wheatstone" if "W" in text else "chromatic"
            certified = sum(lib.regions.certify(z, mmf, mode).certified for z in rs.roots
                            if abs(z) > 1e-9 and abs(z - 1) > 1e-9)
            _, _, max_degree = _graph_facts(tt.graph)
            check(1 <= mmf <= max_degree, "maxmaxflow outside [1, max degree]")
            _check_chromatic(p, tt.graph)
            check(len(rs.roots) == p.degree, "root count differs from the degree")
            check(rs.converged and max(rs.residuals) <= inputs.ROOT_TOL,
                  "root finding did not converge to tolerance")
            check(certified == 0, "a chromatic root was certified zero-free")
            return p
        return run

    return [Job(text, graph_job(text)) for text in inputs.sp_sweep_inputs(seed)]


# ---------------------------------------------------------------------------
# big_graphs
# ---------------------------------------------------------------------------

def big_graphs_jobs(ctx: Context, seed: int) -> list[Job]:
    lib = ctx.lib
    fixed = {inputs.leaf_joined_tree_text(r, n): f"tree r={r} n={n}" for r, n in inputs.BIG_TREES}
    fixed.update({f"P(e,W^><{k})": f"W cycle k={k}" for k in inputs.BIG_W_CYCLES})

    def graph_job(text: str) -> Callable[[], object]:
        def run():
            tt, tree = lib.sp.parse_sp(text)
            decomposed = lib.sp.decompose_sp(tt)
            mmf = lib.graphs.maxmaxflow(tt.graph)
            route = decomposed if decomposed is not None else tree
            p = lib.engine.chromatic_poly(route)
            for q in inputs.RING:
                z = lib.engine.tree_ab(route, q, -1).z
                eff = lib.engine.tree_veff(route, q, -1)
                if eff.defined:
                    check(abs(eff.z - z) <= 1e-8 * abs(z), f"routes disagree at q={q}")
            check((decomposed is not None) == ("W" not in text),
                  "series-parallel recognition is wrong")
            _check_chromatic(p, tt.graph)
            if text in fixed:
                ctx.refs.expect(f"big_graphs/{fixed[text]}/maxmaxflow", mmf)
                ctx.refs.expect(f"big_graphs/{fixed[text]}/chromatic_sha256", coeff_digest(p))
            else:
                _, _, max_degree = _graph_facts(tt.graph)
                check(2 <= mmf <= max_degree, "maxmaxflow outside [2, max degree]")
        return run

    return [Job(fixed.get(text, f"random e-only {len(text)} chars"), graph_job(text))
            for text in inputs.big_graphs_inputs(seed)]


def graph_stats(lib, texts: list[str]) -> dict:
    graphs = [lib.sp.parse_sp(text)[0].graph for text in texts]
    return {"jobs": len(texts),
            "vertices": [min(g.vertex_count for g in graphs), max(g.vertex_count for g in graphs)],
            "edges": [min(g.edge_count for g in graphs), max(g.edge_count for g in graphs)],
            "w_graphs": sum("W" in text for text in texts)}


# ---------------------------------------------------------------------------
# region_grid
# ---------------------------------------------------------------------------

def region_grid_jobs(ctx: Context, seed: int) -> list[Job]:
    def closure(q: complex, lam: int) -> Callable[[], object]:
        def run():
            path = ctx.out / "grid.csv"
            code, err = ctx.cli(["region", "grid", f"--q={complex_arg(q)}", "--lambda", str(lam),
                                 "--resolution", str(inputs.GRID_RESOLUTION), "--out", str(path)])
            summary = json.loads(err.strip().splitlines()[-1])
            check(code == 0 and summary["converged"], f"region grid exited {code}")
            key = f"region_grid/grid q={complex_arg(q)} lambda={lam}"
            ctx.refs.expect(key + "/escaped", summary["escaped"])
            ctx.refs.expect(key + "/csv_sha256", sha256(path.read_text()))
        return run

    def boundary():
        path = ctx.out / "boundary.csv"
        code, _ = ctx.cli(["region", "boundary", "--lambda", "3", "--theta-steps",
                           str(inputs.BOUNDARY_THETA_STEPS), "--out", str(path)])
        check(code == 0, f"region boundary exited {code}")
        ctx.refs.expect("region_grid/boundary lambda=3/csv_sha256", sha256(path.read_text()))

    def certify_batch():
        path = ctx.out / "certify.json"
        for q, lam, mode in inputs.certify_batch(seed):
            code, _ = ctx.cli(["region", "certify", f"--q={complex_arg(q)}", "--lambda", str(lam),
                               "--mode", mode, "--out", str(path)])
            check(code == 0, f"region certify exited {code}")
            out = json.loads(path.read_text())
            rho = 1.0 / abs(q - 1)
            lhs, rhs = (1 + rho) ** lam, 2 * (1 + rho * rho) ** (lam - 1)
            disc_ok = lhs < rhs if lam == 2 else lhs <= rhs
            if mode == "wheatstone":
                check(not out["certified"] or (disc_ok and lam >= 3),
                      f"wheatstone certificate outside the disc condition at q={q}")
            else:
                check(out["certified"] == disc_ok, f"certify disagrees with the threshold at q={q}")

    jobs = [Job(f"region grid q={complex_arg(q)} lambda={lam}", closure(q, lam))
            for q, lam in inputs.GRID_POINTS]
    jobs.append(Job("region boundary lambda=3", boundary))
    jobs.append(Job("region certify batch", certify_batch))
    return inputs.order(seed, "region_grid", jobs)


# ---------------------------------------------------------------------------

@dataclass
class Workload:
    name: str
    why: str
    top_module: str | None     # predicted largest self time in the traced run
    jobs: Callable[[Context, int], list[Job]]
    kernel: Callable[[], float] = speed.python_kernel   # speed sampler matching its code


WORKLOADS = {w.name: w for w in (
    Workload("tree_roots",
             "high-degree squarefree tree polynomials: mpmath Newton verification in rootfind dominates",
             "rootfind", tree_roots_jobs),
    Workload("sp_sweep",
             "many small SP graphs, often with repeated roots: per-call overhead in every module",
             None, sp_sweep_jobs),
    Workload("big_graphs",
             "large SP graphs without root finding: maxmaxflow, decompose_sp and the engine dominate",
             "graphs", big_graphs_jobs),
    Workload("region_grid",
             "raster closures, a boundary sweep and a certify batch: only regions works",
             "regions", region_grid_jobs, speed.numpy_kernel),
)}
