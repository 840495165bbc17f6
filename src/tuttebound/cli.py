"""Command-line front end.

Each command is a function of the parsed arguments that returns its
artifact, a dict for JSON or (header, rows) for CSV, and whether the run
converged.  ``main`` alone writes the artifact (to --out, or to stdout)
and a manifest JSON recording the exact inputs, tool version, and
tolerances, so any output can be regenerated byte-for-byte.  Numeric output
uses Python's shortest round-trip float formatting; exact polynomial
coefficients are emitted as decimal strings.

Exit codes: 0 success, 2 domain/input errors, 3 numeric non-convergence.
The artifact and its manifest are written on exit 0 and on exit 3;
neither is written on exit 2.

``tutte eval --dsl`` falls back to the parsed tree when the graph is not
recognised as 2-terminal series-parallel (a W leaf, say).
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
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
from .sp import DecompTree, ParseError, decompose_sp, parse_sp
from .weights import load_weights

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_NUMERIC = 3


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' style input; accepts i or j and plain reals, finite only."""
    s = text.strip().replace(" ", "").replace("I", "i").replace("j", "i")
    s = s.replace("i", "j")
    if s == "j" or s.endswith("+j") or s.endswith("-j"):
        s = s[:-1] + "1j"
    try:
        z = complex(s)
    except ValueError as exc:
        raise GraphError(f"cannot parse complex number {text!r}") from exc
    if not cmath.isfinite(z):
        raise GraphError(f"complex number {text!r} is not finite")
    return z


def _input_graph(args) -> tuple[TwoTerminalGraph | Multigraph, DecompTree | None]:
    """The input graph, and the tree parse_sp built for it (None from --graph)."""
    if args.dsl:
        return parse_sp(args.dsl)
    if args.graph:
        g, s, t = load_graph(Path(args.graph))
        if s is not None and t is not None:
            return TwoTerminalGraph(g, s, t), None
        return g, None
    raise GraphError("provide --dsl or --graph")


def _as_two_terminal(g) -> TwoTerminalGraph:
    if isinstance(g, TwoTerminalGraph):
        return g
    raise GraphError("this command needs terminals: use --dsl or a graph file with s and t")


def _weights_arg(args):
    if args.weights:
        return load_weights(Path(args.weights))
    if args.v is not None:
        return complex(parse_complex(args.v))
    return -1


# --------------------------------------------------------------------------
# Commands: each returns (artifact, converged)
# --------------------------------------------------------------------------

def cmd_flow(args):
    g, _tree = _input_graph(args)
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
    return payload, True


def _poly_payload(p: BigPoly) -> dict:
    return {
        "degree": p.degree,
        "coefficients": [str(c) for c in p.coeffs],
        "pretty": p.pretty(),
    }


def cmd_tutte_eval(args):
    g, tree = _input_graph(args)
    # The recognised tree first: the parsed one may round z and v_eff differently.
    tree = decompose_sp(_as_two_terminal(g)) or tree
    if tree is None:
        raise GraphError("graph is not 2-terminal series-parallel")
    q = parse_complex(args.q)
    weights = _weights_arg(args)
    pairs = tree_ab(tree, q, weights)
    try:
        eff = tree_veff(tree, q, weights)
    except GraphError:      # q = 0 or a zero leaf A value: only z is defined
        eff = None
    payload = {
        "q": {"re": q.real, "im": q.imag},
        "z": {"re": complex(pairs.z).real, "im": complex(pairs.z).imag},
        "effective_route_defined": eff is not None and eff.defined,
    }
    if eff is not None and eff.defined:
        v = complex(eff.veff)
        payload["v_eff"] = {"re": v.real, "im": v.imag}
    return payload, True


def cmd_tutte_chromatic(args):
    # The parsed tree, W leaves and all; a --graph input goes by its blocks.
    g, tree = _input_graph(args)
    return _poly_payload(chromatic_poly(g if tree is None else tree)), True


def _tree_json(tree, node) -> dict:
    out: dict = {"kind": node.kind, "s": node.s, "t": node.t, "flow": node.flow}
    if node.is_leaf():
        out["base"] = node.base
        out["edges"] = list(node.edges)
    else:
        out["children"] = [_tree_json(tree, c) for c in node.children]
    return out


def cmd_sp_decompose(args):
    g, _tree = _input_graph(args)
    tree = decompose_sp(_as_two_terminal(g))
    if tree is None:
        return {"series_parallel": False}, True
    return {"series_parallel": True, "tree": _tree_json(tree, tree.root)}, True


def cmd_region_certify(args):
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
    return payload, True


def cmd_region_grid(args):
    fam = grid_closure(parse_complex(args.q), args.lam, args.resolution)
    # Each cell-centre coordinate is formatted once, by the csv writer's repr.
    axis = [repr(c) for c in fam.cell_centres().tolist()]
    rows = []
    for k in range(1, fam.lam):       # the cells in row-major order
        iy, ix = fam.levels[k - 1].nonzero()
        rows += ([k, axis[x], axis[y]] for x, y in zip(ix.tolist(), iy.tolist()))
    summary = {"escaped": fam.escaped, "converged": fam.converged,
               "sweeps": fam.sweeps, "reason": fam.reason}
    print(json.dumps(summary), file=sys.stderr)
    return (["level", "t_re", "t_im"], rows), fam.converged


def cmd_region_boundary(args):
    thetas = [2.0 * 3.141592653589793 * k / args.theta_steps
              for k in range(args.theta_steps)]
    values = boundary_rho(args.lam, thetas, args.tol, args.resolution).tolist()
    return (["theta", "rho_max"], [[t, v] for t, v in zip(thetas, values)]), True


def cmd_region_rho_table(args):
    if args.lambda_max < 2:
        raise GraphError("lambda-max must be >= 2")
    rows = []
    for lam in range(2, args.lambda_max + 1):
        rs = sp_rho_threshold(lam)
        rw = wheatstone_rho_threshold(lam)
        rows.append([lam, rs, rw, 1.0 / rs, 1.0 / rw])
    return (["lambda", "rho_sp", "rho_wheatstone", "inv_rho_sp",
             "inv_rho_wheatstone"], rows), True


def cmd_region_counterexample(args):
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
    return payload, ce.verified


def _rootset_csv(rs: RootSet):
    rows = [[z.real, z.imag, res, m]
            for z, res, m in zip(rs.roots, rs.residuals, rs.multiplicities)]
    return (["re", "im", "residual", "multiplicity"], rows), rs.converged


def cmd_leaftree_roots(args):
    rs = tree_chromatic_roots(args.r, args.n, tol=args.tol)
    return _rootset_csv(rs)


def cmd_leaftree_teff(args):
    num, den = t_eff_exact(args.r, args.n)
    payload = {
        "numerator": [str(c) for c in num.coeffs],
        "denominator": [str(c) for c in den.coeffs],
    }
    if args.q:
        q = parse_complex(args.q)
        t = complex(t_eff_at(q, args.r, args.n))
        payload["at_q"] = {"re": t.real, "im": t.imag} if cmath.isfinite(t) else "INF"
    return payload, True


def cmd_leaftree_loci(args):
    curve = multiplier_loci(args.r, args.kind, args.samples)
    rows = [[curve.kind, phi, z.real, z.imag] for phi, z in curve.points]
    return (["kind", "phi", "q_re", "q_im"], rows), True


def cmd_leaftree_scan(args):
    report = conjecture_scan(args.r, args.n_max, tol=args.tol)
    payload = {
        "r": report.r,
        "rows": [{"n": row.n, "degree": row.degree, "max_offset": row.max_offset,
                  "violations": row.violations, "max_residual": row.max_residual}
                 for row in report.rows],
        "offsets_nondecreasing": report.offsets_nondecreasing,
        "total_violations": report.total_violations,
    }
    return payload, report.converged


def cmd_roots_solve(args):
    if args.coeffs_file:
        coeffs = [int(c) for c in json.loads(Path(args.coeffs_file).read_text())]
    elif args.coeffs:
        coeffs = [int(c.strip()) for c in args.coeffs.split(",")]
    else:
        raise GraphError("provide --coeffs or --coeffs-file")
    rs = find_roots(BigPoly(coeffs), tol=args.tol)
    return _rootset_csv(rs)


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

@contextlib.contextmanager
def _command(group, name: str, func, summary: str):
    """Add subcommand name; its options go in the with block, then --out."""
    p = group.add_parser(name, help=summary)
    yield p
    p.add_argument("--out")
    p.set_defaults(func=func)


def _add_graph_inputs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dsl", help="series-parallel expression, e.g. P(S(e,e),S(e,e))")
    p.add_argument("--graph", help="graph JSON file {vertices, edges, s?, t?}")


_Q_HELP = ("complex point such as 1+2i; a value that starts with '-' and is not "
           "a plain number needs --q=-0.5+0.3i")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tuttebound")
    parser.add_argument("--version", action="version", version=__version__)
    groups = parser.add_subparsers(dest="group", required=True)

    with _command(groups, "flow", cmd_flow, "maxmaxflow and terminal flows") as p:
        _add_graph_inputs(p)
        p.add_argument("--pair", nargs=2, type=int, metavar=("X", "Y"))

    tutte = groups.add_parser("tutte").add_subparsers(dest="cmd", required=True)
    with _command(tutte, "eval", cmd_tutte_eval, "numeric partition value at q") as p:
        _add_graph_inputs(p)
        p.add_argument("--q", required=True, help=_Q_HELP)
        p.add_argument("--weights", help="weight JSON file")
        p.add_argument("--v", help="uniform edge weight (default -1)")
    with _command(tutte, "chromatic", cmd_tutte_chromatic,
                  "exact proper-coloring polynomial") as p:
        _add_graph_inputs(p)

    sp = groups.add_parser("sp").add_subparsers(dest="cmd", required=True)
    with _command(sp, "decompose", cmd_sp_decompose, "series-parallel decomposition tree") as p:
        _add_graph_inputs(p)

    region = groups.add_parser("region").add_subparsers(dest="cmd", required=True)
    with _command(region, "certify", cmd_region_certify, "zero-free disc membership") as p:
        p.add_argument("--q", required=True, help=_Q_HELP)
        p.add_argument("--lambda", dest="lam", type=int, required=True)
        p.add_argument("--mode", choices=["chromatic", "antiferro", "wheatstone"],
                       default="chromatic")
    with _command(region, "grid", cmd_region_grid, "raster closure of the minimal regions") as p:
        p.add_argument("--q", required=True, help=_Q_HELP)
        p.add_argument("--lambda", dest="lam", type=int, default=3)
        p.add_argument("--resolution", type=int, default=256)
    with _command(region, "boundary", cmd_region_boundary,
                  "best point+disc radius per angle, all angles bisected in lockstep") as p:
        p.add_argument("--lambda", dest="lam", type=int, default=3)
        p.add_argument("--theta-steps", type=int, default=64)
        p.add_argument("--tol", type=float, default=1e-6)
        p.add_argument("--resolution", type=int, default=4096)
    with _command(region, "rho-table", cmd_region_rho_table,
                  "certification thresholds per maxmaxflow") as p:
        p.add_argument("--lambda-max", type=int, default=10)
    with _command(region, "counterexample", cmd_region_counterexample,
                  "94-vertex cycle counterexample") as p:
        p.add_argument("--tol", type=float, default=1e-6)

    leaftree = groups.add_parser("leaftree").add_subparsers(dest="cmd", required=True)
    with _command(leaftree, "roots", cmd_leaftree_roots,
                  "coloring roots of a leaf-joined tree") as p:
        p.add_argument("--r", type=int, default=2)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--tol", type=float, default=1e-8)
    with _command(leaftree, "teff", cmd_leaftree_teff, "exact effective transmissivity") as p:
        p.add_argument("--r", type=int, default=2)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--q", help=_Q_HELP)
    with _command(leaftree, "loci", cmd_leaftree_loci, "marginality loci in the q plane") as p:
        p.add_argument("--r", type=int, default=2)
        p.add_argument("--kind", choices=list(LOCUS_KINDS), required=True)
        p.add_argument("--samples", type=int, default=720)
    with _command(leaftree, "scan", cmd_leaftree_scan, "root-location report over depths") as p:
        p.add_argument("--r", type=int, default=2)
        p.add_argument("--n-max", type=int, required=True)
        p.add_argument("--tol", type=float, default=1e-8)

    roots = groups.add_parser("roots").add_subparsers(dest="cmd", required=True)
    with _command(roots, "solve", cmd_roots_solve, "all roots of an integer polynomial") as p:
        p.add_argument("--coeffs", help="ascending, comma separated; a list that "
                                        "starts with '-' needs --coeffs=-1,0,1")
        p.add_argument("--coeffs-file", help="JSON array of coefficient strings")
        p.add_argument("--tol", type=float, default=1e-10)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process: building it costs far more than parsing."""
    return build_parser()


def _render(artifact) -> str:
    if isinstance(artifact, dict):
        return json.dumps(artifact, indent=2, sort_keys=True)
    header, rows = artifact
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)     # floats are written by repr, so they round-trip
    return buf.getvalue()


def _write(args, artifact) -> None:
    """Write the artifact to --out or stdout, then its manifest."""
    text = _render(artifact)
    out = Path(args.out) if args.out else None
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        out.write_text(text)
    config = {k: (v if isinstance(v, (int, float, str, bool, list)) else str(v))
              for k, v in vars(args).items() if k != "func" and v is not None}
    manifest = {
        "tool": "tuttebound",
        "version": __version__,
        "config": config,
        "outputs": [] if out is None else [str(out)],
    }
    path = Path("tuttebound.manifest.json") if out is None else Path(f"{out}.manifest.json")
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        artifact, converged = args.func(args)
        _write(args, artifact)
        return EXIT_OK if converged else EXIT_NUMERIC
    except (GraphError, ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except RecursionError:
        print("error: the input nests too deeply", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
