import hashlib
import json

import pytest

from tuttebound.cli import main, parse_complex
from tuttebound.graphs import GraphError


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


def test_tutte_chromatic_matches_brute(tmp_path, monkeypatch, capsys):
    assert run(tmp_path, monkeypatch, "tutte", "chromatic",
               "--dsl", "P(S(e,e),S(e,e))") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["degree"] == 4
    assert payload["coefficients"] == ["0", "-3", "6", "-4", "1"]


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


def test_region_counterexample(tmp_path, monkeypatch):
    out = tmp_path / "ce.json"
    assert run(tmp_path, monkeypatch, "region", "counterexample", "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["count"] == 31
    assert payload["verified"]
    assert abs(payload["witness_offset"] - 2.009462) < 1e-5


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


def test_manifest_written_even_without_out(tmp_path, monkeypatch, capsys):
    assert run(tmp_path, monkeypatch, "region", "certify", "--q", "9.0",
               "--lambda", "4") == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "tuttebound.manifest.json").read_text())
    assert manifest["config"]["lam"] == 4
