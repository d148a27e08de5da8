"""CLI tests: JSON piping, exit codes, byte stability, sidecar files."""

import hashlib
import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from gicode import cli
from gicode.construct import MAX_N
from gicode.gf import FieldMatrix
from gicode.gic import GICProblem
from gicode.instances import BUNDLED, EG3_RANK, EG4_RANK, HAMMING_G_ROWS
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
        ["solve", "--count", "--emit-witness", str(witness_path)],
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
    status, out, _ = run_cli(["verify", "--decodings"], bundle, monkeypatch, capsys)
    assert status == 0
    doc = json.loads(out)
    assert len(doc["decodings"]) == 5
    assert all(d is not None for d in doc["decodings"])


# sha256 of `examples NAME` stdout: the problem, rendered through to_json_text, and the rest of the bundle.
EXAMPLES_SHA256 = {
    "eg1": "4ab6f40d60e2bdb92d06724bea22d4ab70231535973eb019810093ac5a0d0f2d",
    "eg3": "5b76dcb010351808ef9b0d2ca79143dfa99759b21286a212e78257d883fecf8b",
    "eg4": "ce29c0c53a2e3908db958e3ad7e565d1d2614ef56d13a389e93b1caf52845d46",
    "u23": "8439a927c786c2f318d0731735d8260f184041709847b8052b3f7852c5a56625",
    "u24": "c9f78c3c2a7ec9729fb243aff7953670402b7e0a75cb6bc20d9d6a2c8a707249",
    "hamming": "c0f91fde27a7b75102c45306cfb919c8a717f72b72fdc2de46380dd6439d2d9d",
}


def test_examples_output_is_pinned(monkeypatch, capsys):
    assert sorted(EXAMPLES_SHA256) == sorted(BUNDLED)
    for name, digest in EXAMPLES_SHA256.items():
        out = examples_json(name, monkeypatch, capsys)
        assert hashlib.sha256(out.encode()).hexdigest() == digest, name


# sha256 of `examples NAME | verify --decodings` stdout: pins every decoding matrix byte for byte.
DECODINGS_SHA256 = {
    "eg1": "e393951533d072f83e581d77d20b9fff507a2c9802cb7275d57723e141033365",
    "eg3": "2e7f3f03c3019db8d99c96a7ce23b45ccb8d9a2b077f1b734e44bce397c913a6",
    "hamming": "caf4be28a6db83e340ad369f0dbdaf969c981efee4d8d784967a61a1594da17a",
}


def test_verify_decodings_output_is_pinned(monkeypatch, capsys):
    for name, digest in DECODINGS_SHA256.items():
        bundle = examples_json(name, monkeypatch, capsys)
        status, out, _ = run_cli(["verify", "--decodings"], bundle, monkeypatch, capsys)
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, name


# A binary matroid whose fourth element is a loop (a zero column).
LOOPED_MATROID = {"matroid": {"matrix": {"q": 2, "rows": [[1, 0, 1, 0, 1], [0, 1, 1, 0, 0]]}}}

# sha256 of `construct` stdout: (its argv, its input document).
CONSTRUCT_SHA256 = [
    (["construct"], {"polymatroid": {"r": 3, "rank": EG3_RANK}},
     "0e3b1367910217868aa65b88a145133921c85da16b6c079f9d962559e8711303"),
    (["construct", "--n", "2"], {"polymatroid": {"r": 3, "rank": EG3_RANK}},
     "c0f8ce171c3216d5d9be4625d089a648254f7ee9be2017053039cb1be834001d"),
    (["construct"], {"polymatroid": {"r": 3, "rank": EG4_RANK}},
     "95762e0a88d296c98bd4c96b714de800e8c43f47bc5683590e6db33577816d17"),
    (["construct", "--n", "2"], {"polymatroid": {"r": 3, "rank": EG4_RANK}},
     "7733f8129aaeafc2a8801b926900403b152c2763c113b7f2355eea42de0ed3fa"),
    (["construct"], {"matroid": {"uniform": [2, 4]}},
     "99ae365619c03393cf770ddb7b7503454b506d1174fc49d6534206688e1a0815"),
    (["construct"], {"matroid": {"matrix": {"q": 2, "rows": HAMMING_G_ROWS}}},
     "490cbc90ee52a1dbd24a54e42d157f0a46c628fc24e2f2150116109e25a2f2fc"),
    (["construct"], LOOPED_MATROID,
     "fcd9fbf1f6a6c44190da5c6f99d0dd5b45f69abc55fee19feb47925a6cc038e2"),
]


def test_construct_output_is_pinned(monkeypatch, capsys):
    for argv, doc, digest in CONSTRUCT_SHA256:
        status, out, _ = run_cli(argv, json.dumps(doc), monkeypatch, capsys)
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (argv, doc)


# sha256 of the side files `construct --trace` and `solve --emit-witness` write.
SIDE_FILE_SHA256 = [
    (["construct", "--trace"], {"polymatroid": {"r": 3, "rank": EG3_RANK}},
     "57c84a72f0fa9cf0ee634c01de24298cabb229c8dc0d538d7bcf3b25fc089256"),
    (["construct", "--trace"], {"matroid": {"uniform": [2, 4]}},
     "3d7783b2340cbab443ef30c15d8454288fa595efcdd427420bbcdf154c3651ae"),
    (["construct", "--n", "2", "--trace"], {"polymatroid": {"r": 3, "rank": EG4_RANK}},
     "d33388d9b9b2f724a0e5bec8fb3411cc603a74fca29f846a3d400cd90d841ee2"),
    (["construct", "--trace"], LOOPED_MATROID,
     "3526d6fb3df07c3f2baab89c6f50cbdb9c3de0962adb29ce21df22d1d386274c"),
    (["solve", "--count", "--emit-witness"], "u23",
     "b092e6d09aef87fb007278e7f9bdf15686d6fd30819acc86f5e2e6877f6f5c8b"),
]


def test_side_files_are_pinned(monkeypatch, capsys, tmp_path):
    for argv, doc, digest in SIDE_FILE_SHA256:
        text = examples_json(doc, monkeypatch, capsys) if isinstance(doc, str) else json.dumps(doc)
        path = tmp_path / "side.json"
        status, _, _ = run_cli([*argv, str(path)], text, monkeypatch, capsys)
        assert status == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, (argv, doc)


def test_unwritable_side_file_is_an_input_error(monkeypatch, capsys, tmp_path):
    path = tmp_path / "missing" / "side.json"
    for argv, doc, _ in SIDE_FILE_SHA256:
        text = examples_json(doc, monkeypatch, capsys) if isinstance(doc, str) else json.dumps(doc)
        status, out, err = run_cli([*argv, str(path)], text, monkeypatch, capsys)
        assert (status, out) == (2, ""), argv
        assert err == f"gicode: cannot write {path}: No such file or directory\n", argv


def _one_receiver_problem(m, knows_demand):
    e1 = [1] + [0] * (m - 1)
    receiver = {"K": [e1] if knows_demand else [], "D": [e1]}
    return json.dumps({"problem": {"q": 2, "m": m, "n": 1, "receivers": [receiver]}})


def test_solve_depth_is_not_bounded_by_the_recursion_limit(monkeypatch, capsys):
    # The search sets one free-block row per level, 1500 levels deep here.
    for knows_demand, tested in ((True, 1), (False, 2)):
        verdicts = []
        for m in (50, 1500):
            status, out, err = run_cli(["solve"], _one_receiver_problem(m, knows_demand), monkeypatch, capsys)
            assert (status, err) == (0, "")
            doc = json.loads(out)
            verdicts.append((doc["verdict"], doc["candidates_tested"]))
        assert verdicts == [("found", tested)] * 2


def test_verify_seed_flag_is_gone():
    # verify draws no random numbers, so a seed would change nothing.
    bundle = run_module(["examples", "eg1"], capture_output=True, text=True, check=True)
    verify = run_module(["verify", "--seed", "5"], input=bundle.stdout, capture_output=True, text=True)
    assert verify.returncode == 2 and "--seed" in verify.stderr and not verify.stdout


@pytest.mark.parametrize(
    "argv, message",
    [
        (["construct", "--n", "2.9"], "argument --n: invalid int value: '2.9'"),
        (["repcheck", "--q", "7"], "argument --q: invalid choice: 7"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
    ],
    ids=["construct-n", "repcheck-q", "unknown-subcommand"],
)
def test_bad_command_line_ends_in_one_gicode_line(argv, message):
    result = run_module(argv, input="{}", capture_output=True, text=True)
    assert (result.returncode, result.stdout) == (2, "")
    # Only the line itself: no usage line, no "gicode construct: error:" prefix.
    assert result.stderr.startswith(f"gicode: {message}") and result.stderr.count("\n") == 1, result.stderr


def test_malformed_input_exit_code(monkeypatch, capsys):
    status, _, err = run_cli(["verify"], '{"bad json', monkeypatch, capsys)
    assert status == 2 and err
    status, _, err = run_cli(["verify"], '{"problem": {"q": 2}}', monkeypatch, capsys)
    assert status == 2
    status, _, err = run_cli(["construct"], "{}", monkeypatch, capsys)
    assert status == 2
    status, _, err = run_cli(["examples", "nope"], "", monkeypatch, capsys)
    assert status == 2
    for receivers in ("ab", {"K": [[1]], "D": [[1]]}, ["ab"]):
        doc = json.dumps({"problem": {"q": 2, "m": 1, "n": 1, "receivers": receivers}})
        status, out, err = run_cli(["mu"], doc, monkeypatch, capsys)
        assert (status, out) == (2, ""), receivers
        assert err == 'gicode: receivers must be a list of {"K": ..., "D": ...} objects\n', receivers


_ONE_RECEIVER = {"q": 2, "m": 1, "n": 1, "receivers": [{"K": [[1]], "D": [[1]]}]}


@pytest.mark.parametrize(
    "argv, doc, message",
    [
        (["mu"], {"problem": [1]}, "problem must be a JSON object"),
        (["mu"], {"problem": "abc"}, "problem must be a JSON object"),
        (["mu"], {"problem": {"m": 1, "n": 1, "receivers": []}}, "problem is missing the 'q' key"),
        (["solve"], {"problem": {"q": 2, "n": 1, "receivers": []}}, "problem is missing the 'm' key"),
        (["mu"], {"problem": {"q": 2, "m": 1, "receivers": []}}, "problem is missing the 'n' key"),
        (["mu"], {"problem": {"q": 2, "m": 1, "n": 1}}, "problem is missing the 'receivers' key"),
        (["mu"], {"problem": {**_ONE_RECEIVER, "receivers": [{"K": [[1]]}]}}, "receiver 0 is missing the 'D' key"),
        (
            ["mu"],
            {"problem": {**_ONE_RECEIVER, "receivers": [{"K": [[1]], "D": [[1]]}, {"D": [[1]]}]}},
            "receiver 1 is missing the 'K' key",
        ),
        (["verify"], {"problem": _ONE_RECEIVER, "code": [1]}, "code must be a JSON object"),
        (["verify"], {"problem": _ONE_RECEIVER, "code": {}}, "code is missing the 'L' key"),
        (["repcheck"], {"matroid": [1]}, "matroid must be a JSON object"),
        (["construct"], {"matroid": {"rank": [0, 1]}}, "matroid is missing the 'm' key"),
        (["repcheck"], {"matroid": {"m": 1}}, "matroid is missing the 'rank' key"),
        (["construct"], {"matroid": {"uniform": [3]}}, "'uniform' must be [k, m]"),
        (["repcheck"], {"matroid": {"uniform": 5}}, "'uniform' must be [k, m]"),
        (["repcheck"], {"polymatroid": 7}, "polymatroid must be a JSON object"),
        (["construct"], {"polymatroid": {"rank": [0, 1]}}, "polymatroid is missing the 'r' key"),
        (["repcheck"], {"polymatroid": {"r": 1}}, "polymatroid is missing the 'rank' key"),
        (["repcheck"], {"matroid": {"matrix": [[1]]}}, "matrix must be a JSON object"),
        (["construct"], {"matroid": {"matrix": {"rows": [[1]]}}}, "matrix is missing the 'q' key"),
        (["repcheck"], {"matroid": {"matrix": {"q": 2}}}, "matrix is missing the 'rows' key"),
        (
            ["mu"],
            {"problem": {**_ONE_RECEIVER, "receivers": [{"K": [[1]], "D": [[1]]}, {"K": 5, "D": [[1]]}]}},
            "receiver 1 'K': matrix entries must form a two-dimensional grid",
        ),
        (
            ["solve"],
            {"problem": {**_ONE_RECEIVER, "receivers": [{"K": [], "D": [[1, 0]]}]}},
            "receiver 0 'D': every column must have 1 entries",
        ),
    ],
)
def test_malformed_documents_name_the_bad_field(monkeypatch, capsys, argv, doc, message):
    # Python's own KeyError or TypeError text names no document, and often no key.
    status, out, err = run_cli(argv, json.dumps(doc), monkeypatch, capsys)
    assert (status, out, err) == (2, "", f"gicode: {message}\n")


@pytest.mark.parametrize("q", [3.0, 2.0, "2"])
def test_float_modulus_is_malformed_input(monkeypatch, capsys, q):
    # Before moduli had to be ints, 3.0 reached the lane arithmetic and failed there.
    # A string modulus is shown quoted, so "2" does not read as the supported 2.
    problem = {"q": q, "m": 2, "n": 1, "receivers": [{"K": [[1, 1]], "D": [[1, 0]]}, {"K": [[1, 2]], "D": [[0, 1]]}]}
    inputs = [
        (["verify"], {"problem": problem, "code": {"L": [[1, 1]]}}),
        (["mu"], {"problem": problem}),
        (["repcheck"], {"matroid": {"matrix": {"q": q, "rows": [[1, 0, 1], [0, 1, 1]]}}}),
    ]
    for argv, doc in inputs:
        status, out, err = run_cli(argv, json.dumps(doc), monkeypatch, capsys)
        assert (status, out) == (2, ""), argv
        assert err == f"gicode: unsupported modulus {q!r}; expected one of (2, 3, 5)\n", argv


@pytest.mark.parametrize("cols", [True, "x", 2.0, -1])
def test_matrix_column_count_must_be_a_count(monkeypatch, capsys, cols):
    # operator.index reads true as 1, and "x" or 2.0 fail with Python's own message.
    matroid = {"matroid": {"matrix": {"q": 2, "rows": [], "cols": cols}}}
    for argv in (["construct"], ["repcheck"]):
        status, out, err = run_cli(argv, json.dumps(matroid), monkeypatch, capsys)
        assert (status, out) == (2, ""), argv
        assert err == f"gicode: column count must be a non-negative integer, got {cols!r}\n", argv


@pytest.mark.parametrize("cols", [17, 10**30])
def test_a_matrix_with_no_rows_is_refused_before_its_columns_are_built(monkeypatch, capsys, cols):
    # 10**30 columns overflowed the list of zero columns (exit 4), and a count
    # that fit an index allocated that many before the ground-size check.
    matroid = {"matroid": {"matrix": {"q": 2, "rows": [], "cols": cols}}}
    for argv in (["construct"], ["repcheck"]):
        status, out, err = run_cli(argv, json.dumps(matroid), monkeypatch, capsys)
        assert (status, out, err) == (2, "", "gicode: too many columns for a ground set (max 16)\n"), argv


@pytest.mark.parametrize("key, value", [("m", 2.0), ("n", 1.0), ("n", True)])
def test_sizes_that_are_not_ints_are_malformed_input(monkeypatch, capsys, key, value):
    # Each value equals an int, so only a type check turns it away.
    problem = {"q": 2, "m": 2, "n": 1, "receivers": [{"K": [[0, 1]], "D": [[1, 0]]}], key: value}
    doc = json.dumps({"problem": problem, "code": {"L": [[1, 0]]}})
    for argv in (["mu"], ["solve"], ["verify", "--decodings"]):
        status, out, err = run_cli(argv, doc, monkeypatch, capsys)
        assert (status, out) == (2, ""), argv
        assert err == f"gicode: {key} must be a positive integer, got {value!r}\n", argv


@pytest.mark.parametrize(
    "structure, message",
    [
        ({"matroid": {"m": True, "rank": [0, 1]}}, "m must be an integer, got True"),
        ({"matroid": {"uniform": [True, 3]}}, "k must be an integer, got True"),
        ({"matroid": {"m": 2.0, "rank": [0, 1, 1, 1]}}, "m must be an integer, got 2.0"),
        ({"polymatroid": {"r": 2.0, "rank": [0, 1, 1, 1]}}, "r must be an integer, got 2.0"),
        ({"matroid": {"m": 1, "rank": [0, True]}}, "ranks must be integers"),
        ({"polymatroid": {"r": 1, "rank": [0, 1.0]}}, "ranks must be integers"),
    ],
)
def test_structure_sizes_that_are_not_ints_are_malformed_input(monkeypatch, capsys, structure, message):
    # True was read as 1, as a size or a rank, and 2.0 failed in a shift with Python's own message.
    for argv in (["construct"], ["repcheck"]):
        status, out, err = run_cli(argv, json.dumps(structure), monkeypatch, capsys)
        assert (status, out, err) == (2, "", f"gicode: {message}\n"), argv


def test_internal_error_has_its_own_exit_code(monkeypatch, capsys):
    # Malformed input is a ValueError; a KeyError or TypeError is a bug in gicode.
    bundle = examples_json("eg3", monkeypatch, capsys)
    for kind in (RuntimeError, KeyError, TypeError):

        def broken(problem):
            raise kind("boom")

        monkeypatch.setattr(cli, "mu", broken)
        status, out, err = run_cli(["mu"], bundle, monkeypatch, capsys)
        assert (status, out) == (4, ""), kind
        assert err.startswith("Traceback"), kind
        assert err.endswith(f"\ngicode: internal error: {kind.__name__}: {kind('boom')}\n"), kind


def test_a_key_error_inside_a_builder_is_an_internal_error(monkeypatch, capsys):
    # Only the lookup of the name can make an unknown instance.
    def broken():
        raise KeyError("boom")

    monkeypatch.setitem(BUNDLED, "eg1", broken)
    status, out, err = run_cli(["examples", "eg1"], "", monkeypatch, capsys)
    assert (status, out) == (4, "")
    assert err.startswith("Traceback") and err.endswith("\ngicode: internal error: KeyError: 'boom'\n")
    status, out, err = run_cli(["examples", "eg9"], "", monkeypatch, capsys)
    assert (status, out) == (2, "") and "unknown instance 'eg9'" in err


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


def test_bad_n_is_malformed_input(monkeypatch, capsys):
    matroid = {"matroid": {"uniform": [2, 3]}}
    for n in (2.9, 2.0, "2", True, 0, -1, None):
        status, out, err = run_cli(["construct"], json.dumps({**matroid, "n": n}), monkeypatch, capsys)
        assert (status, out) == (2, ""), n
        assert err == f"gicode: n must be a positive integer, got {n!r}\n"
    for flag in ("0", "-1"):
        status, out, err = run_cli(["construct", "--n", flag], json.dumps(matroid), monkeypatch, capsys)
        assert (status, out, err) == (2, "", f"gicode: n must be a positive integer, got {flag}\n")


def test_n_above_the_cap_is_refused_before_construction(monkeypatch, capsys):
    # Spreading each column into n would allocate until memory runs out.
    matroid = {"matroid": {"uniform": [2, 3]}}
    for n in (10**6, 10**30):
        status, out, err = run_cli(["construct"], json.dumps({**matroid, "n": n}), monkeypatch, capsys)
        assert (status, out, err) == (2, "", f"gicode: n must be at most {MAX_N}, got {n}\n")
    status, out, _ = run_cli(["construct", "--n", str(MAX_N)], json.dumps(matroid), monkeypatch, capsys)
    assert status == 0
    problem = GICProblem.from_json_dict(json.loads(out)["problem"])
    assert (problem.n, problem.mn) == (MAX_N, 5 * MAX_N)


# Documents that every subcommand accepts, each with the positions in it that
# the sweep below sets to each malformed value in turn.
_SWEEP_PROBLEM = {"problem": {"q": 2, "m": 2, "n": 1, "receivers": [{"K": [[0, 1]], "D": [[1, 0]]}]}}
_SWEEP_DOCUMENTS = {
    "problem": (_SWEEP_PROBLEM, [("problem", key) for key in ("q", "m", "n", "receivers")]),
    "receiver": (_SWEEP_PROBLEM, [("problem", "receivers", 0, "K"), ("problem", "receivers", 0, "D")]),
    "code": ({**_SWEEP_PROBLEM, "code": {"L": [[1, 0]]}}, [("code", "L")]),
    "matroid": ({"matroid": {"m": 2, "rank": [0, 1, 1, 1]}}, [("matroid", "m"), ("matroid", "rank")]),
    "uniform": ({"matroid": {"uniform": [1, 2]}, "n": 1}, [("matroid", "uniform"), ("n",)]),
    "matrix": (
        {"matroid": {"matrix": {"q": 2, "rows": [[1, 0, 1], [0, 1, 1]]}}},
        [("matroid", "matrix")] + [("matroid", "matrix", key) for key in ("q", "rows", "cols")],
    ),
    "rowless": ({"matroid": {"matrix": {"q": 2, "rows": [], "cols": 2}}}, [("matroid", "matrix", "cols")]),
    "polymatroid": (
        {"polymatroid": {"r": 2, "rank": [0, 1, 1, 2]}},
        [("polymatroid", key) for key in ("r", "rank", "matrix", "uniform")],
    ),
}
_SWEEP_COMMANDS = {
    "problem": ["mu", "solve", "verify"],
    "receiver": ["mu", "solve", "verify"],
    "code": ["verify"],
    **dict.fromkeys(["matroid", "uniform", "matrix", "rowless", "polymatroid"], ["construct", "repcheck"]),
}
_SWEEP_POSITIONS = [
    pytest.param(command, doc, path, id=f"{command}-{name}-{path[-1]}")
    for name, (doc, paths) in _SWEEP_DOCUMENTS.items()
    for command in _SWEEP_COMMANDS[name]
    for path in paths
]
_SWEEP_VALUES = [None, True, 0, -1, 2.0, 1.5, "2", [], [[True]], [[2.5]], [[-1]], [[256]], [["1"]], [[1, 0], [1]], 10**30]


@pytest.mark.parametrize("command, doc, path", _SWEEP_POSITIONS)
def test_no_malformed_document_is_an_internal_error(monkeypatch, capsys, command, doc, path):
    # Each value at each position is either read as input or refused as input:
    # exit 4 would be a crash on a size or a type that gicode failed to check.
    for value in _SWEEP_VALUES:
        bad = json.loads(json.dumps(doc))
        parent = bad
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        status, out, err = run_cli([command], json.dumps(bad), monkeypatch, capsys)
        assert status in (0, 1, 2, 3), (value, err)
        if status == 2:
            assert out == "", value


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


def test_every_printed_representation_reads_back(monkeypatch, capsys):
    # Each repcheck run in this file that prints a representation: a matrix
    # for a matroid, a SubspaceRepresentation for a polymatroid.
    inputs = [
        (["repcheck", "--q", "3"], json.dumps({"matroid": {"uniform": [2, 4]}}), FieldMatrix),
        (["repcheck", "--q", "3"], examples_json("u24", monkeypatch, capsys), FieldMatrix),
        (["repcheck"], json.dumps({"polymatroid": {"r": 3, "rank": [0, 2, 2, 3, 1, 3, 2, 3]}}), SubspaceRepresentation),
        (["repcheck"], json.dumps({"polymatroid": {"r": 2, "rank": [0, 0, 0, 0]}}), SubspaceRepresentation),
    ]
    for argv, text, cls in inputs:
        status, out, _ = run_cli(argv, text, monkeypatch, capsys)
        assert status == 0, argv
        printed = json.loads(out)["representation"]
        assert cls.from_json_dict(printed).to_json_dict() == printed, argv


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


GOLDEN_CLI = Path(__file__).resolve().parents[1] / "perfbench" / "golden_cli.json"
EG3_DOC = json.dumps({"polymatroid": {"r": 3, "rank": EG3_RANK}})

# The seven small pipelines of the benchmark's cli workload, whose final
# stdout digests and per-stage exit codes it records in golden_cli.json.
CLI_PIPELINES = [
    ("eg1|verify", "", [["examples", "eg1"], ["verify"]]),
    ("eg3|verify", "", [["examples", "eg3"], ["verify"]]),
    ("hamming|verify", "", [["examples", "hamming"], ["verify"]]),
    ("u24|solve", "", [["examples", "u24"], ["solve"]]),
    ("eg4|solve", "", [["examples", "eg4"], ["solve"]]),
    ("u24|repcheck-q3", "", [["examples", "u24"], ["repcheck", "--q", "3"]]),
    ("eg3-polymatroid|construct|mu", EG3_DOC, [["construct"], ["mu"]]),
]


def test_pipelines_match_the_recorded_cli_output(monkeypatch, capsys):
    golden = json.loads(GOLDEN_CLI.read_text())
    for name, text, stages in CLI_PIPELINES:
        codes = []
        for argv in stages:
            status, text, _ = run_cli(argv, text, monkeypatch, capsys)
            codes.append(status)
        assert codes == golden[name]["exit"], name
        assert hashlib.sha256(text.encode()).hexdigest() == golden[name]["stdout_sha256"], name


def test_pg32_unit_matches_the_recorded_cli_output(monkeypatch, capsys):
    # The benchmark's PG(3,2) unit: construct, then verify (with the code
    # [G; I]) and mu, each on construct's stdout.
    golden = json.loads(GOLDEN_CLI.read_text())
    g = [[v >> i & 1 for v in range(1, 16)] for i in range(4)]
    code = {"L": [col + [int(i == j) for i in range(15)] for j, col in enumerate(map(list, zip(*g)))]}
    code = json.dumps(code, separators=(",", ":"))
    made = {}
    for name, stdin in (
        ("pg32:construct", lambda: json.dumps({"matroid": {"matrix": {"q": 2, "rows": g}}})),
        ("pg32:verify", lambda: '{"code":' + code + "," + made["pg32:construct"][1:]),
        ("pg32:mu", lambda: made["pg32:construct"]),
    ):
        status, made[name], _ = run_cli([name.split(":")[1]], stdin(), monkeypatch, capsys)
        assert [status] == golden[name]["exit"], name
        assert hashlib.sha256(made[name].encode()).hexdigest() == golden[name]["stdout_sha256"], name


def test_cli_runs_without_importing_numpy():
    # A fresh interpreter, so that nothing else has imported numpy (or
    # dataclasses) first; the second run blocks numpy, as if it were not
    # installed.
    script = textwrap.dedent(
        """
        import contextlib, io, json, sys
        import gicode
        from gicode import cli

        def run(argv, text=""):
            sys.stdin, out = io.StringIO(text), io.StringIO()
            with contextlib.redirect_stdout(out):
                status = cli.main(argv)
            return status, out.getvalue()

        _, eg3 = run(["examples", "eg3"])
        assert run(["verify", "--decodings"], eg3)[0] == 0
        _, u24 = run(["examples", "u24"])
        assert run(["solve"], u24)[0] == 1
        assert run(["repcheck", "--q", "3"], u24)[0] == 0
        status, problem = run(["construct"], json.dumps({"polymatroid": json.loads(eg3)["polymatroid"]}))
        assert status == 0 and run(["mu"], problem) == (0, '{"mu":4}\\n')
        loaded = sorted(name for name, module in sys.modules.items() if name.split(".")[0] == "numpy" and module)
        assert not loaded, loaded[:3]
        assert "dataclasses" not in sys.modules
        """
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for prelude in ("", 'import sys; sys.modules["numpy"] = None\n'):
        result = subprocess.run([sys.executable, "-c", prelude + script], env=env, capture_output=True, text=True)
        assert result.returncode == 0, (prelude, result.stderr)
