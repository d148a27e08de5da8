"""CLI tests: JSON piping, exit codes, byte stability, sidecar files."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

from gicode import cli
from gicode.gic import GICProblem
from gicode.polymatroid import DiscretePolymatroid, SubspaceRepresentation


def run_module(argv, **kwargs):
    """`python -m gicode.cli ...` in a child that imports the same gicode as this test."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "gicode.cli", *argv], env=env, **kwargs)


def run_cli(argv, stdin_text="", monkeypatch=None, capsys=None):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    status = cli.main(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def examples_json(name, monkeypatch, capsys):
    status, out, _ = run_cli(["examples", name], "", monkeypatch, capsys)
    assert status == 0
    return out


def test_examples_verify_pipeline(monkeypatch, capsys):
    bundle = examples_json("hamming", monkeypatch, capsys)
    status, out, _ = run_cli(["verify"], bundle, monkeypatch, capsys)
    assert status == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert len(doc["receivers"]) == 147 and all(doc["receivers"])


def test_examples_solve_nonexistence(monkeypatch, capsys):
    bundle = examples_json("u24", monkeypatch, capsys)
    status, out, _ = run_cli(["solve"], bundle, monkeypatch, capsys)
    assert status == 1
    doc = json.loads(out)
    assert doc["verdict"] == "none_exists" and doc["candidates_tested"] == 256


def test_examples_eg3_verify_and_mu(monkeypatch, capsys):
    bundle = examples_json("eg3", monkeypatch, capsys)
    status, out, _ = run_cli(["verify"], bundle, monkeypatch, capsys)
    assert status == 0 and json.loads(out)["pass"] is True
    status, out, _ = run_cli(["mu"], bundle, monkeypatch, capsys)
    assert status == 0 and json.loads(out) == {"mu": 4}


def test_construct_pipeline(monkeypatch, capsys, tmp_path):
    doc = json.dumps({"polymatroid": {"r": 3, "rank": [0, 1, 1, 2, 2, 3, 3, 3]}})
    trace_path = tmp_path / "trace.json"
    status, out, _ = run_cli(["construct", "--trace", str(trace_path)], doc, monkeypatch, capsys)
    assert status == 0
    problem = GICProblem.from_json_dict(json.loads(out)["problem"])
    assert problem.m == 7 and len(problem.receivers) == 20
    trace = json.loads(trace_path.read_text())
    assert len(trace["receivers"]) == 20
    assert all(entry["generators"] for entry in trace["receivers"])


def test_construct_from_matroid_json(monkeypatch, capsys):
    doc = json.dumps({"matroid": {"uniform": [2, 3]}})
    status, out, _ = run_cli(["construct"], doc, monkeypatch, capsys)
    assert status == 0
    assert len(json.loads(out)["problem"]["receivers"]) == 12


def test_repcheck_matroid(monkeypatch, capsys):
    doc = json.dumps({"matroid": {"uniform": [2, 4]}})
    status, out, _ = run_cli(["repcheck"], doc, monkeypatch, capsys)
    assert status == 1 and json.loads(out) == {"representable": False}
    status, out, _ = run_cli(["repcheck", "--q", "3"], doc, monkeypatch, capsys)
    assert status == 0
    rep = json.loads(out)
    assert rep["representable"] is True and rep["representation"]["q"] == 3


def test_repcheck_polymatroid(monkeypatch, capsys):
    doc = json.dumps({"polymatroid": {"r": 3, "rank": [0, 2, 2, 3, 1, 3, 2, 3]}})
    status, out, _ = run_cli(["repcheck"], doc, monkeypatch, capsys)
    assert status == 0
    rep = json.loads(out)["representation"]
    assert rep["widths"] == [2, 2, 1]


def test_solve_flags(monkeypatch, capsys, tmp_path):
    bundle = examples_json("u23", monkeypatch, capsys)
    witness_path = tmp_path / "witness.json"
    status, out, _ = run_cli(
        ["solve", "--count", "--emit-witness", str(witness_path), "--jobs", "2"],
        bundle,
        monkeypatch,
        capsys,
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["verdict"] == "found" and doc["count"] >= 1
    assert json.loads(witness_path.read_text())["L"]


def test_solve_budget_exit_code(monkeypatch, capsys):
    bundle = examples_json("eg4", monkeypatch, capsys)
    status, out, _ = run_cli(["solve", "--budget", "10"], bundle, monkeypatch, capsys)
    assert status == 3
    assert json.loads(out)["verdict"] == "budget_exceeded"


def test_verify_decodings(monkeypatch, capsys):
    bundle = examples_json("eg1", monkeypatch, capsys)
    status, out, _ = run_cli(["verify", "--decodings", "--seed", "5"], bundle, monkeypatch, capsys)
    assert status == 0
    doc = json.loads(out)
    assert len(doc["decodings"]) == 5
    assert all(d is not None for d in doc["decodings"])


def test_malformed_input_exit_code(monkeypatch, capsys):
    status, _, err = run_cli(["verify"], '{"bad json', monkeypatch, capsys)
    assert status == 2 and err
    status, _, err = run_cli(["verify"], '{"problem": {"q": 2}}', monkeypatch, capsys)
    assert status == 2
    status, _, err = run_cli(["construct"], "{}", monkeypatch, capsys)
    assert status == 2
    status, _, err = run_cli(["examples", "nope"], "", monkeypatch, capsys)
    assert status == 2


def test_output_is_byte_stable_and_reparses(monkeypatch, capsys):
    for name in ("eg1", "eg3", "eg4", "u23", "u24", "hamming"):
        first = examples_json(name, monkeypatch, capsys)
        second = examples_json(name, monkeypatch, capsys)
        assert first == second
        doc = json.loads(first)
        problem = GICProblem.from_json_dict(doc["problem"])
        assert problem.to_json_dict() == doc["problem"]


def test_console_script_round_trip():
    bundle = run_module(["examples", "u23"], capture_output=True, text=True, check=True)
    verify = run_module(["verify"], input=bundle.stdout, capture_output=True, text=True)
    assert verify.returncode == 0
    assert json.loads(verify.stdout)["pass"] is True


def test_cross_process_byte_stability():
    runs = [
        run_module(["examples", "eg3"], capture_output=True, text=True, check=True).stdout
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_construct_vector_dimension(monkeypatch, capsys):
    doc = json.dumps({"matroid": {"uniform": [2, 3]}})
    status, out, _ = run_cli(["construct", "--n", "2"], doc, monkeypatch, capsys)
    assert status == 0
    problem = GICProblem.from_json_dict(json.loads(out)["problem"])
    assert problem.n == 2 and problem.mn == 10
    # the JSON "n" key takes precedence over the flag
    doc = json.dumps({"matroid": {"uniform": [2, 3]}, "n": 1})
    status, out, _ = run_cli(["construct", "--n", "2"], doc, monkeypatch, capsys)
    assert json.loads(out)["problem"]["n"] == 1


def test_repcheck_budget_exit_code(monkeypatch, capsys):
    doc = json.dumps({"matroid": {"uniform": [2, 4]}})
    status, _, err = run_cli(["repcheck", "--budget", "2"], doc, monkeypatch, capsys)
    assert status == 3 and "budget" in err


def test_repcheck_rank_zero_polymatroid_output_reads_back(monkeypatch, capsys):
    doc = json.dumps({"polymatroid": {"r": 2, "rank": [0, 0, 0, 0]}})
    status, out, _ = run_cli(["repcheck"], doc, monkeypatch, capsys)
    assert status == 0
    rep = SubspaceRepresentation.from_json_dict(json.loads(out)["representation"])
    assert rep.widths == (0, 0) and all(b.rows == 0 for b in rep.blocks)
    assert DiscretePolymatroid.from_subspaces(rep) == DiscretePolymatroid(2, [0, 0, 0, 0])


def test_nonpositive_budget_is_malformed_input_in_every_subcommand(monkeypatch, capsys):
    matroid = json.dumps({"matroid": {"uniform": [2, 2]}})  # never reads its budget
    polymatroid = json.dumps({"polymatroid": {"r": 2, "rank": [0, 1, 1, 2]}})
    solve = examples_json("u23", monkeypatch, capsys)
    for budget in ("0", "-1"):
        for argv, doc in (
            (["repcheck"], matroid),
            (["repcheck", "--q", "3"], polymatroid),
            (["solve"], solve),
        ):
            status, out, err = run_cli([*argv, "--budget", budget], doc, monkeypatch, capsys)
            assert (status, out) == (2, "") and "budget must be positive" in err
