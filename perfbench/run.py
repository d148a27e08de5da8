"""Layered benchmark for gicode.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {verify,solve,repcheck,cli} \
        --seed N --seconds S --trace {0,1}

Generates the workload's inputs from the seed, then runs its fixed job list
in whole passes, one job after another (a closed loop with one client):
at least MIN_PASSES, then more until another would end after S seconds.
Every job's output is checked outside the timed region.  Each job is timed
between two runs of a fixed reference kernel (reference.py), and job times
are reported scaled to the kernel's nominal speed, so that the host's
changes of speed cancel out.  Set-up probes are scaled the same way by the
"spawn" kernel.  Raw wall times are in the full report.
With --trace 0 the last line of stdout reports the end-to-end metrics; with
--trace 1 passes alternate untraced and traced and the last line reports
the per-layer metrics.  The line before it is a full report (environment,
seed, input digest, failures), also written to perfbench/results/.
Metric names, units and directions come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from reference import Reference
from tracing import Tracer, gicode_targets, merge, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_PASSES = 3
TRACED_MIN_ROUNDS = 1
SETUP_PROBES = 5
IMPORT_PROBES = 3
TAIL_BEYOND = 10
CLI_COMMANDS = ("examples", "construct", "verify", "solve", "repcheck", "mu")
LAYERS = ("gf", "matroid", "polymatroid", "construct", "gic", "solver", "instances", "cli", "bench")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("verify", "solve", "repcheck", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="build the inputs, print their digest, exit")
    return p.parse_args(argv)


def import_gicode():
    """Import gicode from this checkout's src/ and nowhere else."""
    if not (SRC / "gicode" / "__init__.py").is_file():
        sys.exit(f"perfbench: no gicode sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import gicode

    if Path(gicode.__file__).resolve().parent != (SRC / "gicode").resolve():
        sys.exit(f"perfbench: imported gicode from {gicode.__file__}, not {SRC}")


# -- running passes -----------------------------------------------------------


def fingerprint(summary: dict) -> str:
    """Digest of a job's output; keys starting with "_" hold live objects."""
    public = {k: v for k, v in summary.items() if not k.startswith("_")}
    return hashlib.sha256(json.dumps(public, sort_keys=True).encode()).hexdigest()


class Measurement:
    def __init__(self, workload):
        self.workload = workload
        # seconds per job id, one entry per execution, keyed by traced:
        # scaled to the reference kernel's nominal speed, and raw wall time
        self.latencies = {False: defaultdict(list), True: defaultdict(list)}
        self.raw = {False: defaultdict(list), True: defaultdict(list)}
        self.reference: list[float] = []  # every reference kernel time, s
        self.passes: list[dict] = []  # per pass: kernel and raw job times, ms
        self.failures: list[dict] = []
        self.attempted = 0
        self.prints: dict[str, str] = {}
        self.tracers = []
        self.child_reports: list[dict] = []

    def run_pass(self, traced: bool):
        runner = self.workload.cli
        tracer = Tracer() if traced else None
        if tracer:
            tracer.install(gicode_targets())
            self.tracers.append(tracer)
        if runner:
            runner.traced, runner.reports = traced, []
        reference = self.workload.reference
        results, kernel = [], [reference.time()]
        for job in self.workload.jobs:
            error = summary = None
            start = perf_counter()
            try:
                if tracer:
                    tracer.job = job.id
                    summary = tracer.call("bench.job", job.run)
                else:
                    summary = job.run()
            except Exception as exc:  # a failing job is counted, the run goes on
                error = f"{type(exc).__name__}: {exc}"
            results.append((job, perf_counter() - start, summary, error))
            kernel.append(reference.time())
        if tracer:
            tracer.uninstall()
        if runner:
            runner.traced = False
            self.child_reports.extend(runner.reports if traced else [])
        self.reference.extend(kernel)
        self.passes.append({
            "traced": traced,
            "kernel_ms": [t * 1e3 for t in kernel],
            "job_ms": [r[1] * 1e3 for r in results],
        })
        at_reference = reference.scaled([r[1] for r in results], kernel)
        for (job, elapsed, summary, error), at_ref in zip(results, at_reference):
            self.attempted += 1
            self.latencies[traced][job.id].append(at_ref)
            self.raw[traced][job.id].append(elapsed)
            if error is None:
                error = self.check(job, summary)
            if error is not None:
                self.failures.append({"job": job.id, "traced": traced, "reason": error})

    def check(self, job, summary) -> str | None:
        try:
            reason = job.check(summary)
        except Exception as exc:
            return f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            return reason
        fp = fingerprint(summary)
        if self.prints.setdefault(job.id, fp) != fp:
            return "output changed between passes"
        return None

    def loop(self, seconds: float, traced: bool):
        """Run passes; a traced run alternates an untraced and a traced pass."""
        modes, min_rounds = ((False, True), TRACED_MIN_ROUNDS) if traced else ((False,), MIN_PASSES)
        start = perf_counter()
        rounds = 0
        while True:
            for mode in modes:
                self.run_pass(mode)
            rounds += 1
            elapsed = perf_counter() - start
            if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
                return rounds, elapsed


# -- end-to-end metrics ---------------------------------------------------------


def tail_rank(jobs_in_min_run: int) -> float:
    """Highest percentile with TAIL_BEYOND samples beyond it in the smallest run.

    It is fixed from the job list, not from the sample count, so it is the
    same whatever number of passes a run makes.
    """
    return (jobs_in_min_run - TAIL_BEYOND) / jobs_in_min_run


def jobs_per_second(latencies: dict) -> float:
    """Job executions completed per second of job time (checks excluded)."""
    return sum(map(len, latencies.values())) / sum(map(sum, latencies.values()))


def job_medians(latencies: dict) -> list[float]:
    """Each job's median latency over the run's passes, sorted.

    The percentiles are taken over these, one value per job.  The rank of
    single executions jumps between jobs from pass to pass, and a per-job
    mean takes in the odd execution the host stalls for three times its
    usual time; both measured as a wider spread from run to run.
    """
    return sorted(statistics.median(v) for v in latencies.values())


def nearest_rank(sorted_values, fraction: float) -> float:
    return sorted_values[max(0, math.ceil(fraction * len(sorted_values)) - 1)]


def timed_setup(workload, seed: int) -> tuple[list[float], list[float], bool]:
    """Times of fresh processes that import gicode and build the inputs.

    Returns the times scaled by the "spawn" kernel, which follows the start
    of a process, the raw wall times, and whether every probe built the
    same inputs.
    """
    reference = Reference("spawn")
    raw, kernel, same = [], [reference.time()], True
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only"]
    cmd += ["--workload", workload.name, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        done = subprocess.run(cmd, capture_output=True, cwd=ROOT, check=False)
        raw.append(perf_counter() - start)
        kernel.append(reference.time())
        same = same and done.returncode == 0 and done.stdout.decode().strip() == workload.digest
    return reference.scaled(raw, kernel), raw, same


def timings(latencies: dict, fraction: float) -> dict:
    medians = job_medians(latencies)
    return {
        "jobs_per_s": jobs_per_second(latencies),
        "job_p50_ms": statistics.median(medians) * 1e3,
        "job_tail_ms": nearest_rank(medians, fraction) * 1e3,
    }


def end_to_end(m: Measurement, setup_s: float, peak_rss_kb: int) -> dict:
    samples = sum(map(len, m.latencies[False].values()))
    fraction = tail_rank(len(m.workload.jobs) * MIN_PASSES)
    failed = sum(1 for f in m.failures if not f["traced"])
    return {
        "setup_s": setup_s,
        **timings(m.latencies[False], fraction),
        "ok_frac": 1 - failed / samples,
        "peak_rss_mb": peak_rss_kb / 1024,
    }, {
        "tail_percentile": round(100 * fraction, 2),
        "samples": samples,
        "failed_frac": failed / samples,
        "raw_wall": timings(m.raw[False], fraction),
    }


# -- per-layer metrics ----------------------------------------------------------


def import_split() -> tuple[float, float]:
    """numpy's cumulative and gicode's own import time, from -X importtime (ms)."""
    numpy_ms, own_ms = [], []
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for _ in range(IMPORT_PROBES):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import gicode"],
            capture_output=True, cwd=ROOT, env=env, check=True,
        )
        numpy, own = 0.0, 0.0
        for line in done.stderr.decode().splitlines():
            hit = re.match(r"import time:\s+(\d+) \|\s+(\d+) \| *(\S+)", line)
            if not hit:
                continue
            self_us, cumulative_us, name = hit.groups()
            if name == "numpy":
                numpy = int(cumulative_us) / 1e3
            if name == "gicode" or name.startswith("gicode."):
                own += int(self_us) / 1e3
        numpy_ms.append(numpy)
        own_ms.append(own)
    return statistics.median(numpy_ms), statistics.median(own_ms)


def per_layer(m: Measurement, traced_passes: int) -> dict:
    spans: dict = {}
    counters: dict = {}
    for tracer in m.tracers:
        merge(spans, summarize(tracer.spans))
        for k, v in tracer.counters.items():
            counters[k] = counters.get(k, 0.0) + v
    for report in m.child_reports:
        merge(spans, report["spans"])
        for k, v in report["counters"].items():
            counters[k] = counters.get(k, 0.0) + v
    n = traced_passes

    def busy(*names):
        return sum(spans.get(x, (0, 0.0, 0.0))[1] for x in names) / n

    def calls(*names):
        return sum(spans.get(x, (0, 0.0, 0.0))[0] for x in names) / n

    def ratio(a, b):
        return a / b if b else 0.0

    def layer_self(layer):
        return sum(row[2] for name, row in spans.items() if name.split(".")[0] == layer) / n

    gf_names = [x for x in spans if x.startswith("gf.")]
    solve_s = busy("solver.solve")
    candidates = counters.get("solver.candidates", 0.0) / n
    untraced_jps = jobs_per_second(m.latencies[False])
    traced_jps = jobs_per_second(m.latencies[True])
    out = {
        "gf.elim.calls": calls(*gf_names),
        "gf.elim.self_s": sum(spans[x][2] for x in gf_names) / n,
        "gf.elim.q2_share": ratio(counters.get("gf.elim.q2_s", 0.0) / n, busy(*gf_names)),
        "gf.elim.cells": counters.get("gf.elim.cells", 0.0) / n,
        "matroid.from_matrix.calls": calls("matroid.from_matrix"),
        "matroid.from_matrix.busy_s": busy("matroid.from_matrix"),
        "matroid.from_matrix.subsets": counters.get("matroid.from_matrix.subsets", 0.0) / n,
        "matroid.find_representation.calls": calls("matroid.find_representation"),
        "matroid.find_representation.busy_s": busy("matroid.find_representation"),
        "polymatroid.find_representation.busy_s": busy("polymatroid.find_representation"),
        "polymatroid.from_subspaces.busy_s": busy("polymatroid.from_subspaces"),
        "construct.gic_from_matroid.busy_s": busy("construct.gic_from_matroid"),
        "construct.gic_from_polymatroid.busy_s": busy("construct.gic_from_polymatroid"),
        "construct.receivers_emitted": counters.get("construct.receivers_emitted", 0.0) / n,
        "construct.extract.busy_s": busy("construct.extract"),
        "gic.verify_code.busy_s": busy("gic.verify_code"),
        "gic.verify_code.receivers_per_s": ratio(
            counters.get("gic.verify_code.receivers", 0.0) / n, busy("gic.verify_code")
        ),
        "gic.mu.busy_s": busy("gic.mu"),
        "gic.check_c1_c2.busy_s": busy("gic.check_c1_c2"),
        "solver.solve.busy_s": solve_s,
        "solver.candidates": candidates,
        "solver.candidates_per_s": ratio(candidates, solve_s),
        "solver.exhaust_share": ratio(counters.get("solver.exhaust_s", 0.0) / n, solve_s),
        "solver.verdicts_per_mcandidate": ratio(counters.get("solver.verdicts", 0.0) / n, candidates / 1e6),
        "instances.load.busy_s": busy("instances.load"),
        "cli.json.parse_s": busy("cli.json.parse"),
        "cli.json.emit_s": busy("cli.json.emit"),
        "cli.stdout_bytes": sum(r["stdout_bytes"] for r in m.child_reports) / n,
        "cli.import_ms": 0.0,
        "cli.import.numpy_ms": 0.0,
        "cli.import.gicode_self_ms": 0.0,
        "trace.untraced_jobs_per_s": untraced_jps,
        "trace.traced_jobs_per_s": traced_jps,
        "trace.overhead_frac": 1 - traced_jps / untraced_jps,
        "host.reference_ms": statistics.median(m.reference) * 1e3,
    }
    for command in CLI_COMMANDS:
        walls = [r["wall_s"] for r in m.child_reports if r["command"] == command]
        out[f"cli.{command}.wall_ms"] = statistics.median(walls) * 1e3 if walls else 0.0
    if m.child_reports:
        out["cli.import_ms"] = statistics.median(r["import_s"] for r in m.child_reports) * 1e3
        out["cli.import.numpy_ms"], out["cli.import.gicode_self_ms"] = import_split()
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = layer_self(layer)
    return out


# -- report -----------------------------------------------------------------------


def environment() -> dict:
    import numpy

    sources = hashlib.sha256()
    for path in sorted((SRC / "gicode").rglob("*.py")):
        sources.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        # The benchmark checkout need not be a git repository, so the code
        # is identified by a digest of its sources.
        "src_sha256": sources.hexdigest(),
    }


def with_units(values: dict, declared: list) -> dict:
    names = [d["name"] for d in declared]
    if set(values) != set(names):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(names))}")
    return {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_gicode()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        print(workload.digest)
        return 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    m = Measurement(workload)
    rounds, elapsed = m.loop(args.seconds, bool(args.trace))
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_kb = resource.getrusage(usage).ru_maxrss
    setup_times, raw_setup_times, same_inputs = timed_setup(workload, args.seed)

    values, detail = end_to_end(m, statistics.median(setup_times), peak_rss_kb)
    detail["raw_wall"]["setup_s"] = statistics.median(raw_setup_times)
    detail["setup_probes_s"] = {"scaled": setup_times, "raw": raw_setup_times}
    ref = workload.reference
    detail["reference"] = {
        "kernel": ref.name,
        "nominal_ms": ref.nominal_s * 1e3,
        "quartiles_ms": [x * 1e3 for x in statistics.quantiles(m.reference, n=4)],
    }
    if args.trace:
        values = per_layer(m, rounds)
        metrics = with_units(values, declared["per_layer"])
    else:
        metrics = with_units(values, declared["end_to_end"])
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inputs_sha256": workload.digest,
        "setup_probes_same_inputs": same_inputs,
        "jobs_per_pass": len(workload.jobs),
        "rounds": rounds,
        "measured_s": elapsed,
        **detail,
        "failures": m.failures,
        "latencies_ms": {job: [t * 1e3 for t in v] for job, v in m.latencies[False].items()},
        "raw_latencies_ms": {job: [t * 1e3 for t in v] for job, v in m.raw[False].items()},
        "job_order": [job.id for job in workload.jobs],
        "passes": m.passes,
        "environment": environment(),
        "metrics": metrics,
    }
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "job"],
            "passes": [tracer.spans for tracer in m.tracers],
            "children": m.child_reports,
        }))
    print(json.dumps(report))
    failed = len(m.failures)
    print(json.dumps({
        "correct": failed == 0 and same_inputs,
        "attempted": m.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
