"""Command-line front end.

Every run writes the primary artifact (JSON or CSV) plus a manifest JSON
recording the exact inputs, tool version, and tolerances, so any output
can be regenerated byte-for-byte.  Numeric output uses Python's shortest
round-trip float formatting; exact polynomial coefficients are emitted as
decimal strings.

Exit codes: 0 success, 2 domain/input errors, 3 numeric non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from pathlib import Path

from . import __version__
from .engine import chromatic_poly, tree_ab, tree_veff
from .graphs import GraphError, Multigraph, TwoTerminalGraph, load_graph, max_flow, maxmaxflow
from .leaftree import (LOCUS_KINDS, conjecture_scan, multiplier_loci,
                       t_eff_exact, t_eff_at, tree_chromatic_roots)
from .poly import BigPoly
from .regions import (certify, cycle_counterexample, boundary_rho, grid_closure,
                      sp_rho_threshold, wheatstone_rho_threshold)
from .rootfind import RootSet, find_roots
from .sp import ParseError, decompose_sp, parse_sp
from .weights import is_finite, load_weights

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_NUMERIC = 3


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' style input; accepts i or j and plain reals."""
    s = text.strip().replace(" ", "").replace("I", "i").replace("j", "i")
    s = s.replace("i", "j")
    if s == "j" or s.endswith("+j") or s.endswith("-j"):
        s = s[:-1] + "1j"
    try:
        return complex(s)
    except ValueError as exc:
        raise GraphError(f"cannot parse complex number {text!r}") from exc


class _Run:
    """Collects outputs and writes the manifest at the end of a command."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.outputs: list[str] = []
        self.out = Path(args.out) if getattr(args, "out", None) else None

    def emit_text(self, text: str) -> None:
        path = self.out
        if path is None:
            sys.stdout.write(text)
            if not text.endswith("\n"):
                sys.stdout.write("\n")
        else:
            path.write_text(text)
            self.outputs.append(str(path))

    def emit_json(self, payload: dict) -> None:
        self.emit_text(json.dumps(payload, indent=2, sort_keys=True))

    def emit_csv(self, header: list[str], rows: list[list]) -> None:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)     # floats are written by repr, so they round-trip
        self.emit_text(buf.getvalue())

    def finish(self) -> None:
        config = {k: v for k, v in vars(self.args).items()
                  if k not in ("func",) and v is not None}
        manifest = {
            "tool": "tuttebound",
            "version": __version__,
            "config": {k: (v if isinstance(v, (int, float, str, bool, list)) else str(v))
                       for k, v in config.items()},
            "outputs": self.outputs,
        }
        path = (Path(str(self.out) + ".manifest.json") if self.out is not None
                else Path("tuttebound.manifest.json"))
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True))


def _input_graph(args) -> TwoTerminalGraph | Multigraph:
    if getattr(args, "dsl", None):
        tt, _tree = parse_sp(args.dsl)
        return tt
    if getattr(args, "graph", None):
        g, s, t = load_graph(Path(args.graph))
        if s is not None and t is not None:
            return TwoTerminalGraph(g, s, t)
        return g
    raise GraphError("provide --dsl or --graph")


def _as_two_terminal(g) -> TwoTerminalGraph:
    if isinstance(g, TwoTerminalGraph):
        return g
    raise GraphError("this command needs terminals: use --dsl or a graph file with s and t")


def _weights_arg(args, q):
    if getattr(args, "weights", None):
        wa = load_weights(Path(args.weights))
        return wa.in_system("V", q)
    if getattr(args, "v", None) is not None:
        return complex(parse_complex(args.v))
    return -1


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------

def cmd_flow(args) -> int:
    run = _Run(args)
    g = _input_graph(args)
    payload: dict = {}
    graph = g.graph if isinstance(g, TwoTerminalGraph) else g
    if args.pair:
        x, y = args.pair
        payload["pair"] = [x, y]
        payload["flow"] = max_flow(graph, x, y)
    elif isinstance(g, TwoTerminalGraph):
        payload["pair"] = [g.s, g.t]
        payload["flow"] = max_flow(g)
    payload["maxmaxflow"] = maxmaxflow(graph)
    run.emit_json(payload)
    run.finish()
    return EXIT_OK


def _poly_payload(p: BigPoly) -> dict:
    return {
        "degree": p.degree,
        "coefficients": [str(c) for c in p.coeffs],
        "pretty": p.pretty(),
    }


def cmd_tutte_eval(args) -> int:
    run = _Run(args)
    tt = _as_two_terminal(_input_graph(args))
    tree = decompose_sp(tt)
    if tree is None:
        raise GraphError("graph is not 2-terminal series-parallel")
    q = parse_complex(args.q)
    weights = _weights_arg(args, q)
    pairs = tree_ab(tree, q, weights)
    eff = tree_veff(tree, q, weights)
    payload = {
        "q": {"re": q.real, "im": q.imag},
        "z": {"re": complex(pairs.z).real, "im": complex(pairs.z).imag},
        "effective_route_defined": eff.defined,
    }
    if eff.defined and is_finite(eff.veff):
        v = complex(eff.veff)
        payload["v_eff"] = {"re": v.real, "im": v.imag}
    run.emit_json(payload)
    run.finish()
    return EXIT_OK


def cmd_tutte_chromatic(args) -> int:
    run = _Run(args)
    g = _input_graph(args)
    p = chromatic_poly(g)
    run.emit_json(_poly_payload(p))
    run.finish()
    return EXIT_OK


def _tree_json(tree, node) -> dict:
    out: dict = {"kind": node.kind, "s": node.s, "t": node.t, "flow": node.flow}
    if node.is_leaf():
        out["base"] = node.base or "gadget"
        out["edges"] = list(node.edges)
    else:
        out["children"] = [_tree_json(tree, c) for c in node.children]
    return out


def cmd_sp_decompose(args) -> int:
    run = _Run(args)
    tt = _as_two_terminal(_input_graph(args))
    tree = decompose_sp(tt)
    if tree is None:
        run.emit_json({"series_parallel": False})
    else:
        run.emit_json({"series_parallel": True, "tree": _tree_json(tree, tree.root)})
    run.finish()
    return EXIT_OK


def cmd_region_certify(args) -> int:
    run = _Run(args)
    result = certify(parse_complex(args.q), args.lam, args.mode)
    payload = {
        "certified": result.certified,
        "mode": result.mode,
        "lambda": result.lam,
        "q": {"re": result.q.real, "im": result.q.imag},
        "reason": result.reason,
        "required_offset": result.threshold,
    }
    if result.s1_radius is not None:
        payload["s1_radius"] = result.s1_radius
    if result.wheatstone_cut is not None:
        payload["required_center2_offset"] = result.wheatstone_cut
    if result.family is not None:
        payload["radii"] = list(result.family.radii)
    run.emit_json(payload)
    run.finish()
    return EXIT_OK


def cmd_region_grid(args) -> int:
    run = _Run(args)
    fam = grid_closure(parse_complex(args.q), args.lam, args.resolution)
    rows = []
    for k in range(1, fam.lam):
        for ix, iy in fam.cells(k):
            c = fam.center(ix, iy)
            rows.append([k, c.real, c.imag])
    run.emit_csv(["level", "t_re", "t_im"], rows)
    summary = {"escaped": fam.escaped, "converged": fam.converged,
               "sweeps": fam.sweeps, "reason": fam.reason}
    print(json.dumps(summary), file=sys.stderr)
    run.finish()
    return EXIT_OK if fam.converged else EXIT_NUMERIC


def cmd_region_boundary(args) -> int:
    run = _Run(args)
    thetas = [2.0 * 3.141592653589793 * k / args.theta_steps
              for k in range(args.theta_steps)]
    values = [boundary_rho(args.lam, theta, args.tol, args.resolution) for theta in thetas]
    run.emit_csv(["theta", "rho_max"], [[t, v] for t, v in zip(thetas, values)])
    run.finish()
    return EXIT_OK


def cmd_region_rho_table(args) -> int:
    run = _Run(args)
    rows = []
    for lam in range(2, args.lambda_max + 1):
        rs = sp_rho_threshold(lam)
        rw = wheatstone_rho_threshold(lam)
        rows.append([lam, rs, rw, 1.0 / rs, 1.0 / rw])
    run.emit_csv(["lambda", "rho_sp", "rho_wheatstone", "inv_rho_sp",
                  "inv_rho_wheatstone"], rows)
    run.finish()
    return EXIT_OK


def cmd_region_counterexample(args) -> int:
    run = _Run(args)
    ce = cycle_counterexample(tol=args.tol)
    payload = {
        "count": ce.count,
        "witness": {"re": ce.witness.real, "im": ce.witness.imag},
        "witness_offset": ce.witness_offset,
        "cycle_poly_degree": ce.cycle_poly_degree,
        "residual": ce.residual,
        "verified": ce.verified,
        "roots": [{"re": z.real, "im": z.imag} for z in ce.roots],
    }
    run.emit_json(payload)
    run.finish()
    return EXIT_OK if ce.verified else EXIT_NUMERIC


def _rootset_rows(rs: RootSet) -> list[list]:
    return [[z.real, z.imag, res, m]
            for z, res, m in zip(rs.roots, rs.residuals, rs.multiplicities)]


def cmd_leaftree_roots(args) -> int:
    run = _Run(args)
    rs = tree_chromatic_roots(args.r, args.n, tol=args.tol)
    run.emit_csv(["re", "im", "residual", "multiplicity"], _rootset_rows(rs))
    run.finish()
    return EXIT_OK if rs.converged else EXIT_NUMERIC


def cmd_leaftree_teff(args) -> int:
    run = _Run(args)
    num, den = t_eff_exact(args.r, args.n)
    payload = {
        "numerator": [str(c) for c in num.coeffs],
        "denominator": [str(c) for c in den.coeffs],
    }
    if args.q:
        q = parse_complex(args.q)
        t = t_eff_at(q, args.r, args.n)
        payload["at_q"] = ({"re": complex(t).real, "im": complex(t).imag}
                           if is_finite(t) else str(t))
    run.emit_json(payload)
    run.finish()
    return EXIT_OK


def cmd_leaftree_loci(args) -> int:
    run = _Run(args)
    curve = multiplier_loci(args.r, args.kind, args.samples)
    rows = [[curve.kind, phi, z.real, z.imag] for phi, z in curve.points]
    run.emit_csv(["kind", "phi", "q_re", "q_im"], rows)
    run.finish()
    return EXIT_OK


def cmd_leaftree_scan(args) -> int:
    run = _Run(args)
    report = conjecture_scan(args.r, args.n_max, tol=args.tol)
    payload = {
        "r": report.r,
        "rows": [{"n": row.n, "degree": row.degree, "max_offset": row.max_offset,
                  "violations": row.violations, "max_residual": row.max_residual}
                 for row in report.rows],
        "offsets_nondecreasing": report.offsets_nondecreasing,
        "total_violations": report.total_violations,
    }
    run.emit_json(payload)
    run.finish()
    return EXIT_OK


def cmd_roots_solve(args) -> int:
    run = _Run(args)
    if args.coeffs_file:
        coeffs = [int(c) for c in json.loads(Path(args.coeffs_file).read_text())]
    elif args.coeffs:
        coeffs = [int(c.strip()) for c in args.coeffs.split(",")]
    else:
        raise GraphError("provide --coeffs or --coeffs-file")
    rs = find_roots(BigPoly(coeffs), tol=args.tol)
    run.emit_csv(["re", "im", "residual", "multiplicity"], _rootset_rows(rs))
    run.finish()
    return EXIT_OK if rs.converged else EXIT_NUMERIC


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

def _add_graph_inputs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dsl", help="series-parallel expression, e.g. P(S(e,e),S(e,e))")
    p.add_argument("--graph", help="graph JSON file {vertices, edges, s?, t?}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tuttebound")
    parser.add_argument("--version", action="version", version=__version__)
    groups = parser.add_subparsers(dest="group", required=True)

    p = groups.add_parser("flow", help="maxmaxflow and terminal flows")
    _add_graph_inputs(p)
    p.add_argument("--pair", nargs=2, type=int, metavar=("X", "Y"))
    p.add_argument("--out")
    p.set_defaults(func=cmd_flow)

    tutte = groups.add_parser("tutte").add_subparsers(dest="cmd", required=True)
    p = tutte.add_parser("eval", help="numeric partition value at q")
    _add_graph_inputs(p)
    p.add_argument("--q", required=True)
    p.add_argument("--weights", help="weight JSON file")
    p.add_argument("--v", help="uniform edge weight (default -1)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_tutte_eval)
    p = tutte.add_parser("chromatic", help="exact proper-coloring polynomial")
    _add_graph_inputs(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_tutte_chromatic)

    sp = groups.add_parser("sp").add_subparsers(dest="cmd", required=True)
    p = sp.add_parser("decompose", help="series-parallel decomposition tree")
    _add_graph_inputs(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sp_decompose)

    region = groups.add_parser("region").add_subparsers(dest="cmd", required=True)
    p = region.add_parser("certify", help="zero-free disc membership")
    p.add_argument("--q", required=True)
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--mode", choices=["chromatic", "antiferro", "wheatstone"],
                   default="chromatic")
    p.add_argument("--out")
    p.set_defaults(func=cmd_region_certify)
    p = region.add_parser("grid", help="raster closure of the minimal regions")
    p.add_argument("--q", required=True)
    p.add_argument("--lambda", dest="lam", type=int, default=3)
    p.add_argument("--resolution", type=int, default=256)
    p.add_argument("--out")
    p.set_defaults(func=cmd_region_grid)
    p = region.add_parser("boundary", help="per-angle best point+disc radius")
    p.add_argument("--lambda", dest="lam", type=int, default=3)
    p.add_argument("--theta-steps", type=int, default=64)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--resolution", type=int, default=4096)
    p.add_argument("--out")
    p.set_defaults(func=cmd_region_boundary)
    p = region.add_parser("rho-table", help="certification thresholds per maxmaxflow")
    p.add_argument("--lambda-max", type=int, default=10)
    p.add_argument("--out")
    p.set_defaults(func=cmd_region_rho_table)
    p = region.add_parser("counterexample", help="94-vertex cycle counterexample")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out")
    p.set_defaults(func=cmd_region_counterexample)

    leaftree = groups.add_parser("leaftree").add_subparsers(dest="cmd", required=True)
    p = leaftree.add_parser("roots", help="coloring roots of a leaf-joined tree")
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out")
    p.set_defaults(func=cmd_leaftree_roots)
    p = leaftree.add_parser("teff", help="exact effective transmissivity")
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q")
    p.add_argument("--out")
    p.set_defaults(func=cmd_leaftree_teff)
    p = leaftree.add_parser("loci", help="marginality loci in the q plane")
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--kind", choices=list(LOCUS_KINDS), required=True)
    p.add_argument("--samples", type=int, default=720)
    p.add_argument("--out")
    p.set_defaults(func=cmd_leaftree_loci)
    p = leaftree.add_parser("scan", help="root-location report over depths")
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out")
    p.set_defaults(func=cmd_leaftree_scan)

    roots = groups.add_parser("roots").add_subparsers(dest="cmd", required=True)
    p = roots.add_parser("solve", help="all roots of an integer polynomial")
    p.add_argument("--coeffs", help="ascending, comma separated")
    p.add_argument("--coeffs-file", help="JSON array of coefficient strings")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out")
    p.set_defaults(func=cmd_roots_solve)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process: building it costs far more than parsing."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except RecursionError:
        print("error: the input nests too deeply", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
