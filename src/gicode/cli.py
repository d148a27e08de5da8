"""Command-line front end: JSON documents in, one JSON document out.

Subcommands compose over pipes (`gicode examples u24 | gicode solve`).
Exit status: 0 affirmative (verified / found / representable), 1 certified
negative, 2 malformed input, 3 search budget exceeded.  Output JSON is
canonical (sorted keys, no whitespace) so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys

from .construct import gic_from_matroid, gic_from_polymatroid
from .gic import GICProblem, IndexCode, UndecodableError, decoding_matrix, mu, verify_code
from .instances import load
from .matroid import Matroid, SearchBudgetExceeded
from .matroid import find_representation as find_matroid_representation
from .polymatroid import DiscretePolymatroid
from .polymatroid import find_representation as find_polymatroid_representation
from .solver import BUDGET_EXCEEDED, FOUND, SearchConfig, solve_perfect_scalar_binary

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _emit(document: dict) -> None:
    sys.stdout.write(json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n")


def _read_document(stdin) -> dict:
    doc = json.load(stdin)
    if not isinstance(doc, dict):
        raise ValueError("input must be a JSON object")
    return doc


def _problem_from(doc: dict) -> GICProblem:
    if "problem" not in doc:
        raise ValueError("input is missing the 'problem' key")
    return GICProblem.from_json_dict(doc["problem"])


def _code_from(doc: dict, problem: GICProblem) -> IndexCode:
    if "code" not in doc:
        raise ValueError("input is missing the 'code' key")
    return IndexCode.from_json_dict(doc["code"], problem.q, problem.mn)


def _bundle_json(name: str, bundle: dict) -> dict:
    out = {"name": name}
    if "problem" in bundle:
        out["problem"] = bundle["problem"].to_json_dict()
    if "code" in bundle:
        out["code"] = bundle["code"].to_json_dict()
    if "matroid" in bundle:
        out["matroid"] = bundle["matroid"].to_json_dict()
    if "polymatroid" in bundle:
        out["polymatroid"] = bundle["polymatroid"].to_json_dict()
    return out


def _cmd_examples(args) -> int:
    bundle = load(args.name)
    _emit(_bundle_json(args.name, bundle))
    return EXIT_OK


def _cmd_construct(args, stdin) -> int:
    doc = _read_document(stdin)
    n = int(doc.get("n", args.n))
    if "matroid" in doc:
        problem, trace = gic_from_matroid(Matroid.from_json_dict(doc["matroid"]), n=n)
    elif "polymatroid" in doc:
        problem, trace = gic_from_polymatroid(
            DiscretePolymatroid.from_json_dict(doc["polymatroid"]), n=n
        )
    else:
        raise ValueError("input needs a 'matroid' or 'polymatroid' key")
    if args.trace:
        with open(args.trace, "w") as fh:
            json.dump(trace.to_json_dict(), fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
    _emit({"problem": problem.to_json_dict()})
    return EXIT_OK


def _cmd_verify(args, stdin) -> int:
    doc = _read_document(stdin)
    problem = _problem_from(doc)
    code = _code_from(doc, problem)
    report = verify_code(problem, code)
    out = report.to_json_dict()
    if args.decodings:
        decodings = []
        for i, ok in enumerate(report.receiver_ok):
            if not ok:
                decodings.append(None)
                continue
            try:
                decodings.append(decoding_matrix(problem, code, i).to_columns())
            except UndecodableError:  # pragma: no cover - ok implies solvable
                decodings.append(None)
        out["decodings"] = decodings
    _emit(out)
    return EXIT_OK if report.all_ok else EXIT_NEGATIVE


def _cmd_solve(args, stdin) -> int:
    doc = _read_document(stdin)
    problem = _problem_from(doc)
    config = SearchConfig(
        normalize_y_block=not args.no_normalize,
        budget=args.budget,
        report="count" if args.count else "first",
    )
    outcome = solve_perfect_scalar_binary(problem, config)
    if args.emit_witness and outcome.witness is not None:
        with open(args.emit_witness, "w") as fh:
            json.dump(outcome.witness.to_json_dict(), fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
    _emit(outcome.to_json_dict())
    if outcome.verdict == FOUND:
        return EXIT_OK
    if outcome.verdict == BUDGET_EXCEEDED:
        return EXIT_BUDGET
    return EXIT_NEGATIVE


def _cmd_repcheck(args, stdin) -> int:
    doc = _read_document(stdin)
    if "matroid" in doc:
        matroid = Matroid.from_json_dict(doc["matroid"])
        rep = find_matroid_representation(matroid, q=args.q, budget=args.budget)
        found = rep is not None
        out = {"representable": found}
        if found:
            out["representation"] = rep.to_json_dict()
    elif "polymatroid" in doc:
        dpm = DiscretePolymatroid.from_json_dict(doc["polymatroid"])
        rep = find_polymatroid_representation(dpm, q=args.q, budget=args.budget)
        found = rep is not None
        out = {"representable": found}
        if found:
            out["representation"] = rep.to_json_dict()
    else:
        raise ValueError("input needs a 'matroid' or 'polymatroid' key")
    _emit(out)
    return EXIT_OK if found else EXIT_NEGATIVE


def _cmd_mu(args, stdin) -> int:
    doc = _read_document(stdin)
    problem = _problem_from(doc)
    _emit({"mu": mu(problem)})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gicode",
        description="Generalized index coding toolkit (JSON in, JSON out)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("examples", help="emit a bundled instance")
    p.add_argument("name", help="one of eg1, eg3, eg4, u23, u24, hamming")

    p = sub.add_parser("construct", help="build a problem from a matroid/polymatroid")
    p.add_argument("--n", type=int, default=1, help="message dimension (default 1)")
    p.add_argument("--trace", help="write the construction trace sidecar here")

    p = sub.add_parser("verify", help="check a code against a problem")
    p.add_argument("--decodings", action="store_true", help="include decoding matrices")

    p = sub.add_parser("solve", help="exhaustive perfect scalar binary search")
    p.add_argument("--budget", type=int, default=1 << 22)
    p.add_argument("--no-normalize", action="store_true")
    p.add_argument("--count", action="store_true", help="count all solutions")
    p.add_argument("--emit-witness", help="also write the witness code here")

    p = sub.add_parser("repcheck", help="representability over GF(q)")
    p.add_argument("--q", type=int, default=2, choices=(2, 3, 5))
    p.add_argument("--budget", type=int, default=1 << 22)

    sub.add_parser("mu", help="rank-deficit lower bound of a problem")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "examples":
            return _cmd_examples(args)
        if args.command == "construct":
            return _cmd_construct(args, sys.stdin)
        if args.command == "verify":
            return _cmd_verify(args, sys.stdin)
        if args.command == "solve":
            return _cmd_solve(args, sys.stdin)
        if args.command == "repcheck":
            return _cmd_repcheck(args, sys.stdin)
        if args.command == "mu":
            return _cmd_mu(args, sys.stdin)
        raise ValueError(f"unknown command {args.command}")  # pragma: no cover
    except SearchBudgetExceeded as exc:
        print(f"gicode: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        print(f"gicode: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
