import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import tuttebound
from tuttebound import cli
from tuttebound.cli import main, parse_complex
from tuttebound.engine import chromatic_poly
from tuttebound.graphs import GraphError
from tuttebound.leaftree import chromatic_leaf_tree
from tuttebound.regions import GridFamily
from tuttebound.sp import gen_leaf_joined_tree, parse_sp


def run(tmp_path, monkeypatch, *argv) -> int:
    monkeypatch.chdir(tmp_path)
    return main(list(argv))


def test_parse_complex_forms():
    assert parse_complex("2.5") == 2.5
    assert parse_complex("1+2i") == 1 + 2j
    assert parse_complex("-0.5-1.25i") == -0.5 - 1.25j
    assert parse_complex("i") == 1j
    assert parse_complex("3-i") == 3 - 1j
    assert parse_complex("1+2j") == 1 + 2j
    with pytest.raises(GraphError):
        parse_complex("spam")


@pytest.mark.parametrize("argv", [
    ("region", "certify", "--q", "nan", "--lambda", "3"),
    ("region", "certify", "--q", "1e309", "--lambda", "3"),
    ("tutte", "eval", "--dsl", "S(e,e)", "--q", "nan"),
    ("tutte", "eval", "--dsl", "S(e,e)", "--q", "2", "--v", "1e309"),
    ("leaftree", "teff", "--n", "2", "--q", "nan"),
])
def test_non_finite_complex_input_is_an_input_error(tmp_path, monkeypatch, capsys, argv):
    assert run(tmp_path, monkeypatch, *argv, "--out", "a.json") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "not finite" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_flow_command(tmp_path, monkeypatch, capsys):
    assert run(tmp_path, monkeypatch, "flow", "--dsl", "P(e,e,e,e)") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["maxmaxflow"] == 4
    assert out["flow"] == 4
    assert (tmp_path / "tuttebound.manifest.json").exists()


def test_flow_with_graph_file_and_pair(tmp_path, monkeypatch, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"vertices": 3, "edges": [[0, 1], [1, 2], [0, 2]]}))
    assert run(tmp_path, monkeypatch, "flow", "--graph", str(path),
               "--pair", "0", "2") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["flow"] == 2
    assert out["maxmaxflow"] == 2


def test_flow_on_512_vertex_leaf_joined_tree(tmp_path, monkeypatch, capsys):
    tt, _ = gen_leaf_joined_tree(2, 9)
    path = tmp_path / "tree.json"
    path.write_text(tt.graph.to_json(tt.s, tt.t))
    assert run(tmp_path, monkeypatch, "flow", "--graph", str(path)) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"flow": 2, "maxmaxflow": 3, "pair": [tt.s, tt.t]}
    manifest = json.loads((tmp_path / "tuttebound.manifest.json").read_text())
    assert manifest["config"] == {"graph": str(path), "group": "flow"}
    assert manifest["outputs"] == []


def test_tutte_chromatic_matches_brute(tmp_path, monkeypatch, capsys):
    assert run(tmp_path, monkeypatch, "tutte", "chromatic",
               "--dsl", "P(S(e,e),S(e,e))") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["degree"] == 4
    assert payload["coefficients"] == ["0", "-3", "6", "-4", "1"]


def test_tutte_chromatic_evaluates_the_parsed_tree(tmp_path, monkeypatch, capsys):
    # Five W leaves in series, in parallel with an edge: 26 edges, above the
    # subset oracle's limit, and the graph's one block has a K4 minor.
    dsl = "P(e,S(W,W,W,W,W))"
    assert run(tmp_path, monkeypatch, "tutte", "chromatic", "--dsl", dsl) == 0
    payload = json.loads(capsys.readouterr().out)
    want = chromatic_poly(parse_sp(dsl)[1])
    assert payload["coefficients"] == [str(c) for c in want.coeffs]


def test_tutte_chromatic_graph_file_matches_the_parsed_tree(tmp_path, monkeypatch, capsys):
    # A graph file carries no tree; this one's single 12-edge block has a K4
    # minor, so decompose_sp gives up and the subset oracle answers.
    dsl = "P(S(e,W),S(e,W))"
    path = tmp_path / "g.json"
    path.write_text(parse_sp(dsl)[0].graph.to_json())
    payloads = []
    for source in (("--dsl", dsl), ("--graph", str(path))):
        assert run(tmp_path, monkeypatch, "tutte", "chromatic", *source) == 0
        payloads.append(json.loads(capsys.readouterr().out))
    assert payloads[0]["degree"] == 8
    assert payloads[1] == payloads[0]


def test_tutte_eval(tmp_path, monkeypatch, capsys):
    assert run(tmp_path, monkeypatch, "tutte", "eval", "--dsl", "S(e,e)",
               "--q", "3", "--v", "-1") == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["z"]["re"] - 12.0) < 1e-9     # q(q-1)^2 at q=3
    assert out["effective_route_defined"]


def test_tutte_eval_with_weight_file(tmp_path, monkeypatch, capsys):
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps({"system": "V",
                                 "0": {"re": -1.0, "im": 0.0},
                                 "1": {"re": -1.0, "im": 0.0}}))
    assert run(tmp_path, monkeypatch, "tutte", "eval", "--dsl", "P(e,e)",
               "--q", "4+0i", "--weights", str(wfile)) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["z"]["re"] - 12.0) < 1e-9     # q(q-1) at q=4


@pytest.mark.parametrize("system, value", [("V", "inf"), ("T", {"re": 1.0}), ("V", "undef")])
def test_tutte_eval_rejects_an_infinite_weight(tmp_path, monkeypatch, capsys, system, value):
    # INF, UNDEF and T = 1 (which maps to v = INF) are refused before any step.
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps({"system": system, "0": value, "1": {"re": 0.5}}))
    assert run(tmp_path, monkeypatch, "tutte", "eval", "--dsl", "P(e,e)", "--q", "2",
               "--weights", str(wfile), "--out", "z.json") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["w.json"]


@pytest.mark.parametrize("dsl, q", [("W", "2"), ("P(e,W)", "2"), ("P(e,e)", "0")])
def test_tutte_eval_reports_z_when_only_the_effective_route_fails(
        tmp_path, monkeypatch, capsys, dsl, q):
    # A leaf A value of zero (the W leaf at q = 2) or q = 0 stops tree_veff;
    # the pair route still gives z, the chromatic polynomial's value.
    assert run(tmp_path, monkeypatch, "tutte", "eval", "--dsl", dsl, "--q", q) == 0
    out = json.loads(capsys.readouterr().out)
    want = float(chromatic_poly(parse_sp(dsl)[0])(int(q)))
    assert out["z"] == {"re": want, "im": 0.0}
    assert out["effective_route_defined"] is False and "v_eff" not in out


def test_tutte_eval_falls_back_to_the_parsed_tree(tmp_path, monkeypatch, capsys):
    # decompose_sp does not recognise the W leaf of P(e,W), so the tree that
    # parse_sp built is evaluated; the oracle route checks its value.
    assert run(tmp_path, monkeypatch, "tutte", "eval", "--dsl", "P(e,W)", "--q", "2.5") == 0
    out = json.loads(capsys.readouterr().out)
    want = float(chromatic_poly(parse_sp("P(e,W)")[0])(2.5))
    assert out["z"]["im"] == 0.0
    assert abs(out["z"]["re"] - want) <= 1e-12 * (1 + abs(want))
    assert out["effective_route_defined"]


def test_sp_decompose_json(tmp_path, monkeypatch, capsys):
    assert run(tmp_path, monkeypatch, "sp", "decompose", "--dsl", "P(e,S(e,e))") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["series_parallel"]
    assert out["tree"]["kind"] == "p"
    # the wheatstone bridge is not 2-terminal series-parallel
    g = {"vertices": 4, "edges": [[0, 2], [0, 3], [2, 3], [2, 1], [3, 1]],
         "s": 0, "t": 1}
    path = tmp_path / "w.json"
    path.write_text(json.dumps(g))
    assert run(tmp_path, monkeypatch, "sp", "decompose", "--graph", str(path)) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"series_parallel": False}


def test_sp_decompose_matches_recorded_digests(tmp_path, monkeypatch, capsys):
    # SHA-256 of the stdout JSON, recorded from the quadratic reduction this
    # one replaced, on inputs whose trees it already oriented consistently.
    recorded = {
        "P(e,S(e,e))": "657e7ce107d8328b493e9a48e033b624d0e1f012771eaeba708a82dc26433aed",
        "P(S(e,e),S(e,e))": "d903d9c2f875c75ccdc87848465311fb77179d5e3f21ebba9d3375af3cf640a2",
        "S(P(e,e),e,P(e,S(e,e)))":
            "193782cccec0473654914ddd2644e81d4cc4928b24e000cb288f1ebf6945dad1",
        "P(S(e,P(e,e)),S(e,P(e,e)))":
            "730ec92b0ab32efe7a77e43d5c9eb1c194f327ea6c7c9fa39b4396d6a665c508",
        "P(S(e,P(e,S(e,e))),e)": "d8ad66dcbf37946f84287fb893f3f95254af8aa7136ff8a606d4bd8403575b63",
        "S(e,P(e,e),e)": "66e0122e4e9a5545b0359ed2b23a88d6e03cfe94fcaaf815b4a7850837316248",
    }
    for text, digest in recorded.items():
        assert run(tmp_path, monkeypatch, "sp", "decompose", "--dsl", text) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, text


def test_missing_graph_file_is_an_input_error(tmp_path, monkeypatch, capsys):
    assert run(tmp_path, monkeypatch, "flow", "--graph", "missing.json") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing.json" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["flow", "--dsl", "S(e," * 1200 + "e" + ")" * 1200],
    ["sp", "decompose", "--dsl", "e^><2000"],
])
def test_deep_inputs_are_input_errors(tmp_path, monkeypatch, capsys, argv):
    assert run(tmp_path, monkeypatch, *argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: the input nests too deeply\n"
    assert captured.out == ""


def test_parser_reuse_matches_fresh_runs(tmp_path, monkeypatch, capsys):
    # One process runs a rejected argv, then two commands; each must read
    # exactly as it does from a fresh interpreter.
    argvs = [["region", "certify", "--q", "4.2", "--lambda", "three"],
             ["region", "certify", "--q", "4.9", "--lambda", "3", "--mode", "wheatstone"],
             ["sp", "decompose", "--dsl", "P(e,S(e,e))"]]
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    here.mkdir()
    fresh.mkdir()
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tuttebound.__file__)))
    codes = []
    for argv in argvs:
        try:
            codes.append(run(here, monkeypatch, *argv))
        except SystemExit as exc:
            codes.append(exc.code)
        got = capsys.readouterr()
        want = subprocess.run([sys.executable, "-m", "tuttebound.cli", *argv], cwd=fresh,
                              env=env, capture_output=True, text=True, timeout=120)
        assert (codes[-1], got.out, got.err) == (want.returncode, want.stdout, want.stderr)
        manifests = [d / "tuttebound.manifest.json" for d in (here, fresh)]
        texts = [m.read_text() if m.exists() else None for m in manifests]
        assert texts[0] == texts[1], argv
    assert codes == [2, 0, 0]


def test_region_certify(tmp_path, monkeypatch, capsys):
    assert run(tmp_path, monkeypatch, "region", "certify", "--q", "4.2",
               "--lambda", "3") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["certified"] and abs(out["required_offset"] - 2.6589670819) < 1e-6


def test_region_rho_table(tmp_path, monkeypatch):
    out = tmp_path / "table.csv"
    assert run(tmp_path, monkeypatch, "region", "rho-table", "--lambda-max", "4",
               "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "lambda,rho_sp,rho_wheatstone,inv_rho_sp,inv_rho_wheatstone"
    assert len(lines) == 4
    row3 = lines[2].split(",")
    assert abs(float(row3[1]) - 0.376086) < 1e-6
    manifest = json.loads((tmp_path / "table.csv.manifest.json").read_text())
    assert manifest["tool"] == "tuttebound"
    assert str(out) in manifest["outputs"]


def test_rho_table_byte_identical_runs(tmp_path, monkeypatch):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(tmp_path, monkeypatch, "region", "rho-table", "--lambda-max", "6", "--out", str(a))
    run(tmp_path, monkeypatch, "region", "rho-table", "--lambda-max", "6", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_region_grid_csv(tmp_path, monkeypatch, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run(tmp_path, monkeypatch, "region", "grid", "--q=3+1i", "--lambda", "3",
                   "--resolution", "64", "--out", str(out)) == 0
        summary = json.loads(capsys.readouterr().err)
        assert summary == {"escaped": False, "converged": True, "sweeps": 9, "reason": ""}
    assert a.read_text().splitlines()[0] == "level,t_re,t_im"
    assert a.read_bytes() == b.read_bytes()
    assert (hashlib.sha256(a.read_bytes()).hexdigest()
            == "350d01bab1030d76752683280ed7666dfc9c385957c5b1a4049d51068aa2596d")
    manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    assert manifest["tool"] == "tuttebound"
    assert manifest["outputs"] == [str(a)]
    assert manifest["config"]["resolution"] == 64 and manifest["config"]["q"] == "3+1i"


def test_region_boundary_csv(tmp_path, monkeypatch):
    out = tmp_path / "boundary.csv"
    assert run(tmp_path, monkeypatch, "region", "boundary", "--lambda", "3",
               "--theta-steps", "4", "--tol", "1e-4", "--resolution", "512",
               "--out", str(out)) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "theta,rho_max"
    assert len(rows) == 5
    for line in rows[1:]:
        _theta, rho = line.split(",")
        assert float(rho) >= 0.376086 - 1e-4


def test_region_boundary_at_lambda_five(tmp_path, monkeypatch):
    # Its angles include 0, where the uniform threshold is only just feasible.
    out = tmp_path / "boundary.csv"
    assert run(tmp_path, monkeypatch, "region", "boundary", "--lambda", "5",
               "--theta-steps", "4", "--out", str(out)) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "theta,rho_max" and len(rows) == 5


# sha256 of the region counterexample JSON: every root, residual and the witness.
COUNTEREXAMPLE_DIGEST = "fafe0efe9527fb90dd368e15e89bb1bb92311a85519b7e64c6ac07eb13fa5885"


def test_region_counterexample(tmp_path, monkeypatch):
    out = tmp_path / "ce.json"
    assert run(tmp_path, monkeypatch, "region", "counterexample", "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["count"] == 31
    assert payload["verified"]
    assert abs(payload["witness_offset"] - 2.009462) < 1e-5
    assert hashlib.sha256(out.read_bytes()).hexdigest() == COUNTEREXAMPLE_DIGEST


def test_leaftree_commands(tmp_path, monkeypatch, capsys):
    out = tmp_path / "roots.csv"
    assert run(tmp_path, monkeypatch, "leaftree", "roots", "--r", "2", "--n", "3",
               "--out", str(out)) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "re,im,residual,multiplicity"
    assert len(rows) == 9                     # degree 8 polynomial

    assert run(tmp_path, monkeypatch, "leaftree", "teff", "--r", "2", "--n", "1",
               "--q", "3+0i") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["numerator"] == ["-1"]
    assert payload["denominator"] == ["-1", "1"]
    assert abs(payload["at_q"]["re"] + 0.5) < 1e-12

    out = tmp_path / "loci.csv"
    assert run(tmp_path, monkeypatch, "leaftree", "loci", "--r", "2",
               "--kind", "cardioid", "--samples", "16", "--out", str(out)) == 0
    assert len(out.read_text().splitlines()) == 33

    assert run(tmp_path, monkeypatch, "leaftree", "scan", "--r", "2",
               "--n-max", "2") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total_violations"] == 0


@pytest.mark.parametrize("q, message", [
    ("0", "transmissivity needs q outside {0, 1}"),
    ("1", "transmissivity needs q outside {0, 1}"),
    ("1e200", "|q| too large: the pair recursion overflows doubles"),
])
def test_leaftree_teff_rejects_q_it_cannot_evaluate(tmp_path, monkeypatch, capsys, q, message):
    assert run(tmp_path, monkeypatch, "leaftree", "teff", "--n", "3", "--q", q,
               "--out", str(tmp_path / "t.json")) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_leaftree_teff_at_q_two_is_exact(tmp_path, monkeypatch, capsys):
    # At q = 2 the pair runs through A = 0; t_3 = B/(2A + B) = -1/(2 - 1).
    assert run(tmp_path, monkeypatch, "leaftree", "teff", "--r", "2", "--n", "3",
               "--q", "2") == 0
    assert json.loads(capsys.readouterr().out)["at_q"] == {"re": -1.0, "im": 0.0}


def test_leaftree_scan_exits_three_when_roots_do_not_converge(tmp_path, monkeypatch):
    out = tmp_path / "scan.json"
    assert run(tmp_path, monkeypatch, "leaftree", "scan", "--n-max", "3", "--tol", "-1",
               "--out", str(out)) == 3
    payload = json.loads(out.read_text())     # written on exit 3, with no new field
    assert sorted(payload) == ["offsets_nondecreasing", "r", "rows", "total_violations"]
    assert (tmp_path / "scan.json.manifest.json").exists()


@pytest.mark.parametrize("argv, message", [
    (("region", "rho-table", "--lambda-max", "1"), "lambda-max must be >= 2"),
    (("region", "rho-table", "--lambda-max", "-4"), "lambda-max must be >= 2"),
    (("leaftree", "loci", "--kind", "cardioid", "--samples", "0"), "samples must be >= 1"),
    (("leaftree", "loci", "--kind", "cardioid", "--samples", "-2"), "samples must be >= 1"),
])
def test_empty_tables_exit_two(tmp_path, monkeypatch, capsys, argv, message):
    assert run(tmp_path, monkeypatch, *argv, "--out", str(tmp_path / "table.csv")) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []       # neither the CSV nor a manifest


def test_roots_solve(tmp_path, monkeypatch, capsys):
    assert run(tmp_path, monkeypatch, "roots", "solve", "--coeffs", "0,-1,1") == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[1].startswith("0.0,") and rows[2].startswith("1.0,")
    cf = tmp_path / "c.json"
    cf.write_text(json.dumps(["2", "-3", "1"]))
    assert run(tmp_path, monkeypatch, "roots", "solve", "--coeffs-file", str(cf)) == 0


def test_domain_errors_exit_two(tmp_path, monkeypatch, capsys):
    assert run(tmp_path, monkeypatch, "tutte", "chromatic", "--dsl", "P(e,") == 2
    assert "error:" in capsys.readouterr().err
    assert run(tmp_path, monkeypatch, "region", "certify", "--q", "0", "--lambda", "3") == 2
    assert run(tmp_path, monkeypatch, "flow", "--dsl", "e", "--pair", "0", "0") == 2
    assert run(tmp_path, monkeypatch, "roots", "solve", "--coeffs", "5") == 2
    # The constant term underflows once the coefficients are scaled to doubles.
    assert run(tmp_path, monkeypatch, "roots", "solve", f"--coeffs=1,0,0,{10 ** 400}") == 2
    k4 = [[a, b] for a in range(4) for b in range(a + 1, 4)]
    graphs = {"path.json": {"vertices": 3, "edges": [[0, 1], [1, 2]]},
              "lone.json": {"vertices": 3, "edges": [[0, 1], [1, 2]], "s": 0},
              "k4.json": {"vertices": 4, "edges": k4, "s": 0, "t": 1}}
    for name, record in graphs.items():
        (tmp_path / name).write_text(json.dumps(record))
    capsys.readouterr()
    for argv, message in [
        (("flow",), "provide --dsl or --graph"),
        (("flow", "--graph", "lone.json"), "bad graph record: missing key 't'"),
        (("sp", "decompose", "--graph", "path.json"), "this command needs terminals"),
        (("tutte", "eval", "--graph", "k4.json", "--q", "2.5"),
         "graph is not 2-terminal series-parallel"),
        (("roots", "solve"), "provide --coeffs or --coeffs-file"),
    ]:
        assert run(tmp_path, monkeypatch, *argv) == 2, argv
        assert capsys.readouterr().err.startswith(f"error: {message}"), argv
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(graphs)   # no manifest


def test_manifest_written_even_without_out(tmp_path, monkeypatch, capsys):
    assert run(tmp_path, monkeypatch, "region", "certify", "--q", "9.0",
               "--lambda", "4") == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "tuttebound.manifest.json").read_text())
    assert manifest["config"]["lam"] == 4


def test_region_grid_rejects_resolution_zero(tmp_path, monkeypatch, capsys):
    code = run(tmp_path, monkeypatch, "region", "grid", "--q", "2.9+1i", "--resolution", "0",
               "--out", str(tmp_path / "grid.csv"))
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []       # neither the CSV nor a manifest


@pytest.mark.parametrize("resolution", ["0", "-3"])
def test_region_boundary_rejects_resolution_below_one(tmp_path, monkeypatch, capsys, resolution):
    code = run(tmp_path, monkeypatch, "region", "boundary", "--theta-steps", "2",
               "--resolution", resolution, "--out", str(tmp_path / "boundary.csv"))
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: resolution must be >= 1\n"


@pytest.mark.parametrize("option, value, message", [
    ("--tol", "0", "tol must be > 0 and finite"),
    ("--tol", "-1", "tol must be > 0 and finite"),
    ("--tol", "nan", "tol must be > 0 and finite"),
    ("--tol", "inf", "tol must be > 0 and finite"),
    ("--theta-steps", "0", "theta must hold at least one angle"),
    ("--theta-steps", "-3", "theta must hold at least one angle"),
])
def test_region_boundary_rejects_bad_options(tmp_path, monkeypatch, capsys, option, value,
                                             message):
    code = run(tmp_path, monkeypatch, "region", "boundary", "--theta-steps", "2",
               "--resolution", "64", f"{option}={value}", "--out", str(tmp_path / "b.csv"))
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []       # neither the CSV nor a manifest


BOUNDARY_CSV_DIGESTS = {
    # SHA-256 of each CSV, recorded before the angles were bisected in
    # lockstep: every rho_max keeps its bits.
    ("--lambda", "3", "--theta-steps", "16", "--resolution", "512", "--tol", "1e-6"):
        "1cea170072ba49a9541cd3d38c314e9d43ece08009dc84fc4a2048f95706446b",
    ("--lambda", "4", "--theta-steps", "4", "--resolution", "256", "--tol", "1e-4"):
        "51c3f3e9e4f1505cd02c278952b3072c5b903243de37c8cc9c127d61095ed44f",
    # Recorded before unequal radii moved from the torus scan to the closed
    # form: every lambda >= 4 rho_max keeps its bits.
    ("--lambda", "4", "--theta-steps", "8", "--resolution", "4096", "--tol", "1e-6"):
        "a99e2baacb19f7f7593ff9c3b4734f4b888f8bcd1c81a57a893d6f89e44712c8",
    ("--lambda", "5", "--theta-steps", "4", "--resolution", "4096", "--tol", "1e-6"):
        "6ef3abb15755ac7ab452456c44daaa5e98f0d23df070ea5db73f2142116b0146",
}


@pytest.mark.parametrize("argv", list(BOUNDARY_CSV_DIGESTS))
def test_region_boundary_csv_digests(tmp_path, monkeypatch, argv):
    out = tmp_path / "boundary.csv"
    assert run(tmp_path, monkeypatch, "region", "boundary", *argv, "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BOUNDARY_CSV_DIGESTS[argv]


ROOT_CSV_DIGESTS = {
    # SHA-256 of each CSV: root location, verification and CSV formatting
    # must not move a byte of these outputs.  The two roots solve entries
    # were re-recorded when the double sweeps moved from hull circles to
    # companion eigenvalues, which moved residual bits; ROOT_COLUMN_DIGESTS
    # holds their roots from before.
    ("leaftree", "roots", "--r", "2", "--n", "5"):
        "b62fa0626e321e5613c3115f3198b091a0b69ccf24acfda35ce0d70417899226",
    ("leaftree", "roots", "--r", "3", "--n", "3"):
        "2a6b29adae6c935c83488b1f302d41af0b7d223d8b3b7f1a85043c567501e326",
    ("leaftree", "roots", "--r", "4", "--n", "3"):
        "8d2b258244cde95cf658ace8937bc1330401a2a94b5991fffad7e69f9b834b25",
    ("roots", "solve", "--coeffs", "1,2,3,4,5,6,7,8,9,10"):
        "5378b9b9a68737e02a986496cb617f5adc636e235b51665948a0abb1db13246d",
    # The chromatic polynomial of P(S(e,W),S(e,e,e)), two complex pairs.
    ("roots", "solve", "--coeffs", "0,18,-59,85,-70,34,-9,1"):
        "6a86177e3cdd6873851c1e3d49dc531ba589f733e6b30a16ee72bcbf0a612d1d",
}


@pytest.mark.parametrize("argv", list(ROOT_CSV_DIGESTS))
def test_root_csv_digests(tmp_path, monkeypatch, argv):
    out = tmp_path / "roots.csv"
    assert run(tmp_path, monkeypatch, *argv, "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ROOT_CSV_DIGESTS[argv]


ROOT_COLUMN_DIGESTS = {
    # SHA-256 of the re,im,multiplicity columns alone, recorded before the
    # double sweeps moved from hull circles to companion eigenvalues: a new
    # start point may move the residual column, never a root.
    ("roots", "solve", "--coeffs", "1,2,3,4,5,6,7,8,9,10"):
        "17ce4b8be01d4143f3f4765513e238d1a2f72195a8f70c40cc5f3f1a50193eac",
    ("roots", "solve", "--coeffs", "0,18,-59,85,-70,34,-9,1"):
        "f864a7f2570787b787fdb925b5cefc632e8ae4e1e6f4fad618dc6617cc54b2cc",
}


@pytest.mark.parametrize("argv", list(ROOT_COLUMN_DIGESTS))
def test_root_csv_columns_without_residuals(tmp_path, monkeypatch, argv):
    out = tmp_path / "roots.csv"
    assert run(tmp_path, monkeypatch, *argv, "--out", str(out)) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()]
    kept = "".join(f"{re},{im},{m}\n" for re, im, _res, m in rows)
    assert hashlib.sha256(kept.encode()).hexdigest() == ROOT_COLUMN_DIGESTS[argv]


def test_exact_sweeps_csv_is_pinned(tmp_path, monkeypatch):
    # On the depth-5 binary tree's chromatic polynomial the double sweeps
    # stop unconverged, so the exact sweeps and Newton write every byte.
    cf = tmp_path / "c25.json"
    cf.write_text(json.dumps([str(c) for c in chromatic_leaf_tree(2, 5).coeffs]))
    out = tmp_path / "s25.csv"
    assert run(tmp_path, monkeypatch, "roots", "solve", "--coeffs-file", str(cf),
               "--out", str(out)) == 0
    assert (hashlib.sha256(out.read_bytes()).hexdigest()
            == "ede752bccafa75be5479d79643809add29e0320c43c62cabbd9a99908e45e951")


def test_unconverged_grid_exits_three_and_writes_both_files(tmp_path, monkeypatch, capsys):
    level1 = np.zeros((4, 4), dtype=bool)
    level1[1, 2] = True
    level2 = level1.copy()
    level2[3, 0] = True
    fam = GridFamily(3, 3 + 1j, 4, (level1, level2), escaped=False, converged=False,
                     sweeps=7, reason="")
    monkeypatch.setattr(cli, "grid_closure", lambda q, lam, resolution: fam)
    assert run(tmp_path, monkeypatch, "region", "grid", "--q=3+1i", "--resolution", "4",
               "--out", "grid.csv") == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"escaped": False, "converged": False, "sweeps": 7,
                                        "reason": ""}
    assert (tmp_path / "grid.csv").read_text() == (
        "level,t_re,t_im\n1,0.25,-0.25\n2,0.25,-0.25\n2,-0.75,0.75\n")
    manifest = {"config": {"cmd": "grid", "group": "region", "lam": 3, "out": "grid.csv",
                           "q": "3+1i", "resolution": 4},
                "outputs": ["grid.csv"], "tool": "tuttebound", "version": tuttebound.__version__}
    assert ((tmp_path / "grid.csv.manifest.json").read_text()
            == json.dumps(manifest, indent=2, sort_keys=True))
