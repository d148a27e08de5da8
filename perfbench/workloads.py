"""The four workloads: seeded inputs, one timed job per input, and its check.

A job's `run` is the timed call into gicode and returns a summary; keys that
start with "_" carry live objects for the check and are left out of the
output fingerprint.  A job's `check` runs outside the timed region and
returns a failure reason or None.  Calls go through module attributes
(`construct.gic_from_matroid`, not a local alias) so that a traced run sees
them.  A seeded input whose check fails stays in the job list.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from gicode import construct, gf, gic, instances, matroid, polymatroid, solver
from oracle import binary_representable
from reference import Reference

FieldMatrix = gf.FieldMatrix
Matroid = matroid.Matroid
Polymatroid = polymatroid.DiscretePolymatroid

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@dataclass
class Job:
    id: str
    run: Callable[[], dict]
    check: Callable[[dict], str | None]


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    inputs: list  # JSON description of every generated input, for the digest
    reference: Reference  # the kernel that tracks the host's speed for these jobs
    cli: CliRunner | None = None  # set for the workload that starts CLI processes

    @property
    def digest(self) -> str:
        text = json.dumps(self.inputs, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


# -- inputs -------------------------------------------------------------------


def full_rank_rows(rng: random.Random, q: int, k: int, m: int) -> list[list[int]]:
    """Uniform k x m matrix over GF(q), redrawn until it has rank k."""
    while True:
        rows = [[rng.randrange(q) for _ in range(m)] for _ in range(k)]
        if FieldMatrix(q, rows).rank() == k:
            return rows


def points_rows(k: int) -> list[list[int]]:
    """Every nonzero vector of GF(2)^k as a column: PG(k-1, 2)."""
    return [[v >> i & 1 for v in range(1, 1 << k)] for i in range(k)]


FANO_ROWS = points_rows(3)
NON_FANO_ROWS = [[1, 0, 0, 1, 1, 0, 1], [0, 1, 0, 1, 0, 1, 1], [0, 0, 1, 0, 1, 1, 1]]  # over GF(3)


def _fano() -> Matroid:
    return Matroid.from_matrix(FieldMatrix(2, FANO_ROWS))


def _non_fano() -> Matroid:
    return Matroid.from_matrix(FieldMatrix(3, NON_FANO_ROWS))


def _ensure(conditions: dict) -> str | None:
    failed = [name for name, ok in conditions.items() if not ok]
    return "failed: " + ", ".join(failed) if failed else None


# -- verify: the code <=> representation pipeline -------------------------------

# (rank, elements, slots, receiver band).  Job cost is close to proportional
# to the constructed problem's receiver count, which varies several-fold
# between random matrices of one shape; drawing each slot inside a band
# keeps the pass time, and which job sits at the median, the same from seed
# to seed.  The median falls among the twenty (4, 7) slots; the tail among
# the fixed jobs above them.
VERIFY_SLOTS = [
    (3, 6, 14, (33, 43)),
    (4, 7, 20, (65, 83)),
    (4, 9, 1, (183, 233)),
    (4, 10, 1, (327, 417)),
]


def problem_size(m: Matroid) -> int:
    """Receivers gic_from_matroid emits: rank per basis, one per circuit element, one per element."""
    return m.rank * len(m.bases()) + sum(map(len, m.circuits())) + m.ground_size


def draw_matroid(rng: random.Random, q: int, k: int, m: int, *, binary=None, size=None, bases=None):
    """Full-rank k x m matrix over GF(q) whose matroid is binary-representable
    iff `binary` (when given), has a problem size inside `size` (when given)
    and a number of bases inside `bases` (when given)."""
    for _ in range(10_000):
        rows = full_rank_rows(rng, q, k, m)
        mat = Matroid.from_matrix(FieldMatrix(q, rows))
        if binary is not None and binary_representable(m, mat.rank_table()) != binary:
            continue
        if size is not None and not size[0] <= problem_size(mat) <= size[1]:
            continue
        if bases is not None and not bases[0] <= len(mat.bases()) <= bases[1]:
            continue
        return rows, mat
    raise RuntimeError(f"no {k}x{m} matrix over GF({q}) with binary={binary}, size in {size}, bases in {bases}")


def _round_trip(problem, code, extracted_matches) -> dict:
    report = gic.verify_code(problem, code)
    bound = gic.mu(problem)
    c1c2 = gic.check_c1_c2(gic.canonical_representation(problem, code), problem)
    return {
        "receivers": len(problem.receivers),
        "mu": bound,
        "length": code.length,
        "n": problem.n,
        "verified": report.all_ok,
        "c1c2": c1c2.all_ok,
        "routes_agree": report.receiver_ok == c1c2.c2_per_receiver,
        "round_trip": extracted_matches(problem, code),
    }


def _check_round_trip(expected_receivers):
    def check(s: dict) -> str | None:
        return _ensure(
            {
                "verify_code": s["verified"],
                "perfect": s["length"] == s["n"] * s["mu"],
                "check_c1_c2": s["c1c2"],
                "verify_code agrees with C2": s["routes_agree"],
                "rank-table round trip": s["round_trip"],
                "receiver count": expected_receivers in (None, s["receivers"]),
            }
        )

    return check


def _verify_matroid_job(jid: str, rows, expected_receivers=None) -> Job:
    def run():
        rep = FieldMatrix(2, rows)
        m = Matroid.from_matrix(rep)
        problem, _ = construct.gic_from_matroid(m)
        code = construct.code_from_matroid_rep(rep, problem)
        return _round_trip(
            problem,
            code,
            lambda p, c: Matroid.from_matrix(construct.matroid_rep_from_code(p, c)) == m,
        )

    return Job(jid, run, _check_round_trip(expected_receivers))


def _verify_polymatroid_job(jid: str, dpm, code, n: int) -> Job:
    def run():
        problem, _ = construct.gic_from_polymatroid(dpm, n)
        return _round_trip(
            problem,
            code,
            lambda p, c: Polymatroid.from_subspaces(construct.polymatroid_rep_from_code(p, c, dpm, n))
            == dpm.scale(n),
        )

    return Job(jid, run, _check_round_trip(None))


def verify_workload(seed: int) -> Workload:
    rng = random.Random(f"verify:{seed}")
    eg3 = instances.load("eg3")
    dpm, scalar = eg3["polymatroid"], eg3["code"].matrix
    lifted = gic.IndexCode(FieldMatrix(2, np.kron(scalar.array(), np.eye(2, dtype=np.int64))))
    jobs = [
        _verify_matroid_job("pg32", points_rows(4), expected_receivers=4740),
        _verify_matroid_job("hamming", instances.HAMMING_G_ROWS, expected_receivers=147),
        _verify_polymatroid_job("eg3-n1", dpm, eg3["code"], 1),
        _verify_polymatroid_job("eg3-n2", dpm, lifted, 2),
    ]
    inputs = [["pg32"], ["hamming"], ["eg3-n1"], ["eg3-n2"]]
    for k, m, slots, band in VERIFY_SLOTS:
        for i in range(slots):
            rows, _ = draw_matroid(rng, 2, k, m, size=band)
            jid = f"gf2-r{k}-m{m}-{i}"
            jobs.append(_verify_matroid_job(jid, rows))
            inputs.append([jid, rows])
    return Workload("verify", jobs, inputs, Reference("numpy"))


# -- solve: perfect scalar binary codes -----------------------------------------

# (q, rank, elements, binary-representable).  Drawing each slot until its
# verdict is as stated fixes how many searches exhaust a space of which size.
# The 24 certified negatives over 2^12 candidates hold the median; the tail
# falls among the 2^15 negatives (eg4 is one), below the 2^18 one and Fano.
SOLVE_SLOTS = [
    (2, 2, 4, True), (2, 3, 3, True), (3, 2, 4, True), (3, 2, 5, True), (5, 2, 5, True),
    *[(q, 2, 6, False) for q in (3, 5) for _ in range(12)],
    (3, 3, 5, False), (3, 3, 5, False), (5, 3, 5, False), (5, 3, 6, False),
]
COUNT_SLOTS = [(2, 2, 4, True), (3, 2, 4, False), (5, 2, 5, True)]


def _solve_job(jid: str, build_problem, routes, count: bool = False) -> Job:
    """`routes()` gives {route: found?}; the solver's verdict must match each."""
    config = solver.SearchConfig(report="count" if count else "first")
    expected: dict[str, bool] = {}

    def run():
        problem = build_problem()
        out = solver.solve_perfect_scalar_binary(problem, config)
        return {
            "verdict": out.verdict,
            "candidates_tested": out.candidates_tested,
            "count": out.count,
            "witness": out.witness.matrix.to_columns() if out.witness is not None else None,
            "_problem": problem,
            "_witness": out.witness,
        }

    def check(s: dict) -> str | None:
        if s["verdict"] not in (solver.FOUND, solver.NONE_EXISTS):
            return f"unexpected verdict {s['verdict']}"
        if not expected:
            expected.update(routes())
        found = s["verdict"] == solver.FOUND
        witness, problem = s["_witness"], s["_problem"]
        conditions = {f"verdict agrees with {route}": found == verdict for route, verdict in expected.items()}
        conditions["witness iff found"] = (witness is not None) == found
        if witness is not None:
            conditions["witness verifies at perfect length"] = (
                gic.verify_code(problem, witness).all_ok
                and witness.length == problem.n * gic.mu(problem)
            )
        if count:
            conditions["count positive iff found"] = (s["count"] > 0) == found
        return _ensure(conditions)

    return Job(jid, run, check)


def _matroid_solve_job(jid: str, m: Matroid, count: bool = False) -> Job:
    def routes():
        return {
            "find_representation(M, 2)": matroid.find_representation(m, 2) is not None,
            "the binary oracle": binary_representable(m.ground_size, m.rank_table()),
        }

    return _solve_job(jid, lambda: construct.gic_from_matroid(m)[0], routes, count)


def solve_workload(seed: int) -> Workload:
    rng = random.Random(f"solve:{seed}")
    eg4 = Polymatroid(3, instances.EG4_RANK)
    jobs = [
        _matroid_solve_job("u23", Matroid.uniform(2, 3)),
        _matroid_solve_job("u24", Matroid.uniform(2, 4)),
        _matroid_solve_job("fano", _fano()),
        # eg4 is binary-representable yet has no perfect binary code (the
        # converse failure), so its verdict is fixed rather than derived.
        _solve_job("eg4", lambda: construct.gic_from_polymatroid(eg4)[0], lambda: {"eg4's known verdict": False}),
    ]
    inputs = [["u23"], ["u24"], ["fano"], ["eg4"]]
    for slots, count in ((SOLVE_SLOTS, False), (COUNT_SLOTS, True)):
        for i, (q, k, m, binary) in enumerate(slots):
            rows, mat = draw_matroid(rng, q, k, m, binary=binary)
            jid = f"gf{q}-r{k}-m{m}-{i}" + ("-count" if count else "")
            jobs.append(_matroid_solve_job(jid, mat, count))
            inputs.append([jid, q, rows])
    return Workload("solve", jobs, inputs, Reference("mixed"))


# -- repcheck: representability over GF(q) --------------------------------------

# Seeded matroids: (field they are drawn over, rank, elements, slots, band
# of the number of bases).  Each is searched at its own q, and the odd-q
# ones at q = 2 as well.  They stay below the fixed instances in cost, so
# the tail falls among those.  The binary ones hold the median job; their
# search time grows with the number of bases (4 ms at 1 basis, 12 ms at
# 24 on the reference machine), so their draws are held in fixed bands.
# About 22 jobs cost less than any of them, which puts the median job in
# the middle of the 10-12 band whatever the seed.
REPCHECK_SLOTS = [
    (2, 3, 7, 14, (10, 12)),
    (2, 3, 7, 6, (14, 35)),
    (3, 3, 5, 3, None),
    (5, 3, 5, 3, None),
]
# Subspace arrangements: (field, rows, block widths).  Three blocks of
# width 2 in GF(3)^4 can take over 100 ms to search, above the fixed
# instances the tail falls among, so that shape is drawn over GF(2) only.
ARRANGEMENTS = [
    *[(2, rows, widths) for rows, widths in
      [(3, (1, 1, 2)), (4, (2, 1, 2)), (4, (1, 1, 1, 2)), (4, (2, 2, 2)), (5, (2, 1, 1, 2))]],
    *[(3, rows, widths) for rows, widths in [(3, (1, 1, 2)), (4, (2, 1, 2)), (4, (1, 1, 1, 2)), (5, (2, 1, 1, 2))]],
]


def _matroid_repcheck_job(jid: str, m: Matroid, q: int, expected) -> Job:
    """`expected` is True/False, or None to take the q = 2 oracle's verdict."""

    def run():
        rep = matroid.find_representation(m, q)
        return {"representable": rep is not None, "rows": rep.to_rows() if rep else None, "_rep": rep}

    def check(s: dict) -> str | None:
        rep = s["_rep"]
        conditions = {}
        if rep is not None:
            conditions["representation reproduces the rank table"] = (
                rep.q == q and Matroid.from_matrix(rep) == m
            )
        if q == 2:
            conditions["verdict matches the binary oracle"] = s["representable"] == binary_representable(
                m.ground_size, m.rank_table()
            )
        if expected is not None:
            conditions[f"expected representable={expected}"] = s["representable"] == expected
        return _ensure(conditions)

    return Job(jid, run, check)


def _polymatroid_repcheck_job(jid: str, dpm, q: int) -> Job:
    def run():
        rep = polymatroid.find_representation(dpm, q)
        return {"representable": rep is not None, "rep": rep.to_json_dict() if rep else None, "_rep": rep}

    def check(s: dict) -> str | None:
        rep = s["_rep"]
        return _ensure(
            {
                "representable": rep is not None,
                "representation reproduces the rank table": rep is None
                or (rep.q == q and Polymatroid.from_subspaces(rep) == dpm),
            }
        )

    return Job(jid, run, check)


def repcheck_workload(seed: int) -> Workload:
    rng = random.Random(f"repcheck:{seed}")
    fano, non_fano = _fano(), _non_fano()
    known = [
        ("fano", fano, {2: True, 3: False}),
        ("non-fano", non_fano, {2: False, 3: True}),
        ("u24", Matroid.uniform(2, 4), {3: True, 5: True}),
        ("u25", Matroid.uniform(2, 5), {3: False, 5: True}),
        ("u36", Matroid.uniform(3, 6), {3: False, 5: True}),
    ]
    jobs, inputs = [], []
    for name, m, verdicts in known:
        for q, expected in verdicts.items():
            jobs.append(_matroid_repcheck_job(f"{name}-q{q}", m, q, expected))
            inputs.append([f"{name}-q{q}"])
    drawn = Counter()
    for q, k, size, slots, bases in REPCHECK_SLOTS:
        for _ in range(slots):
            rows, m = draw_matroid(rng, q, k, size, bases=bases)
            jid = f"gf{q}-r{k}-m{size}-{drawn[q, k, size]}"
            drawn[q, k, size] += 1
            jobs.append(_matroid_repcheck_job(f"{jid}-q{q}", m, q, True))
            if q != 2:
                jobs.append(_matroid_repcheck_job(f"{jid}-q2", m, 2, None))
            inputs.append([jid, q, rows])
    for name, table in (("eg3", instances.EG3_RANK), ("eg4", instances.EG4_RANK)):
        for q in (2, 3):
            jobs.append(_polymatroid_repcheck_job(f"{name}-q{q}", Polymatroid(3, table), q))
            inputs.append([f"{name}-q{q}"])
    for q, rows, widths in ARRANGEMENTS:
        while True:
            blocks = [[[rng.randrange(q) for _ in range(w)] for _ in range(rows)] for w in widths]
            rep = polymatroid.SubspaceRepresentation(q, [FieldMatrix(q, b) for b in blocks])
            if rep.concatenated().rank() == rows:
                break
        jid = f"subspaces-gf{q}-" + "".join(map(str, widths))
        jobs.append(_polymatroid_repcheck_job(jid, Polymatroid.from_subspaces(rep), q))
        inputs.append([jid, q, blocks])
    return Workload("repcheck", jobs, inputs, Reference("numpy"))


# -- cli: JSON pipelines through the command line ---------------------------------

TRACE_MARK = b"PERFBENCH_TRACE "
EG3_DOC = json.dumps({"polymatroid": {"r": 3, "rank": instances.EG3_RANK}}).encode()
PG32_DOC = json.dumps({"matroid": {"matrix": {"q": 2, "rows": points_rows(4)}}}).encode()

# (job id, stdin document, one argv per pipeline stage)
CLI_PIPELINES = [
    ("eg1|verify", None, [["examples", "eg1"], ["verify"]]),
    ("eg3|verify", None, [["examples", "eg3"], ["verify"]]),
    ("hamming|verify", None, [["examples", "hamming"], ["verify"]]),
    ("u24|solve", None, [["examples", "u24"], ["solve"]]),
    ("eg4|solve", None, [["examples", "eg4"], ["solve"]]),
    ("u24|repcheck-q3", None, [["examples", "u24"], ["repcheck", "--q", "3"]]),
    ("eg3-polymatroid|construct|mu", EG3_DOC, [["construct"], ["mu"]]),
]


class CliRunner:
    """Starts gicode CLI processes from the checkout's own sources.

    Untraced, a stage is `python -m gicode.cli`, as a user would run it.
    Traced, it is `cli_child.py`, which records spans inside the child and
    reports them on stderr after a marker; `reports` collects them.
    """

    def __init__(self):
        self.traced = False
        self.reports: list[dict] = []
        path = os.environ.get("PYTHONPATH")
        src = str(ROOT / "src")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def _spawn(self, argv, stdin):
        if self.traced:
            cmd = [sys.executable, str(HERE / "cli_child.py"), *argv]
            env = dict(self.env, PERFBENCH_SPAWN=repr(perf_counter()))
        else:
            cmd, env = [sys.executable, "-m", "gicode.cli", *argv], self.env
        return subprocess.Popen(
            cmd, stdin=stdin, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT, env=env
        )

    def pipeline(self, stages, stdin: bytes | None) -> tuple[bytes, list[int]]:
        """Run the stages joined by pipes; returns the last stdout and every exit code."""
        procs = []
        for argv in stages:
            if procs:
                upstream = procs[-1].stdout
            else:
                upstream = subprocess.DEVNULL if stdin is None else subprocess.PIPE
            procs.append(self._spawn(argv, upstream))
            if len(procs) > 1:
                procs[-2].stdout.close()
        errors = []
        if len(procs) == 1:
            out, err = procs[0].communicate(stdin)
        else:
            if stdin is not None:
                try:
                    procs[0].stdin.write(stdin)
                    procs[0].stdin.close()
                except BrokenPipeError:
                    pass  # the stage died; its exit code reports it
            out, err = procs[-1].communicate()
            for p in procs[:-1]:
                p.wait()
                errors.append(p.stderr.read())
                p.stderr.close()
        errors.append(err)
        for text in errors:
            for line in text.splitlines():
                if line.startswith(TRACE_MARK):
                    self.reports.append(json.loads(line[len(TRACE_MARK):]))
        return out, [p.returncode for p in procs]


def _cli_check(golden: dict | None):
    def check(s: dict) -> str | None:
        if golden is None:
            return "no recorded output for this job"
        return _ensure(
            {
                "exit codes": s["exit"] == golden["exit"],
                "stdout bytes": s["stdout_sha256"] == golden["stdout_sha256"],
            }
        )

    return check


def _cli_job(runner: CliRunner, jid: str, stages, stdin, golden: dict, keep: dict | None = None) -> Job:
    """`stdin` is bytes, None, or a callable that gives the bytes when the job runs."""

    def run():
        out, codes = runner.pipeline(stages, stdin() if callable(stdin) else stdin)
        if keep is not None:
            keep[jid] = out
        return {"exit": codes, "stdout_sha256": hashlib.sha256(out).hexdigest(), "stdout_bytes": len(out)}

    return Job(jid, run, _cli_check(golden.get(jid)))


def cli_workload(seed: int) -> Workload:
    golden = json.loads((HERE / "golden_cli.json").read_text())
    runner = CliRunner()
    pg = FieldMatrix(2, points_rows(4))
    code = gic.IndexCode(gf.stack_rows([pg, FieldMatrix.identity(2, pg.cols)]))
    code_json = json.dumps(code.to_json_dict(), sort_keys=True, separators=(",", ":")).encode()
    units = [[_cli_job(runner, jid, stages, doc, golden)] for jid, doc, stages in CLI_PIPELINES]
    # PG(3,2): construct, then verify and mu on its output.  construct prints
    # {"problem":...}; verify wants {"code":...,"problem":...}.
    made: dict[str, bytes] = {}
    units.append([
        _cli_job(runner, "pg32:construct", [["construct"]], PG32_DOC, golden, keep=made),
        _cli_job(runner, "pg32:verify", [["verify"]],
                 lambda: b'{"code":' + code_json + b"," + made.get("pg32:construct", b"{")[1:], golden),
        _cli_job(runner, "pg32:mu", [["mu"]], lambda: made.get("pg32:construct", b""), golden),
    ])
    random.Random(f"cli:{seed}").shuffle(units)
    jobs = [job for unit in units for job in unit]
    return Workload("cli", jobs, [job.id for job in jobs], Reference("spawn"), cli=runner)


WORKLOADS = {
    "verify": verify_workload,
    "solve": solve_workload,
    "repcheck": repcheck_workload,
    "cli": cli_workload,
}
