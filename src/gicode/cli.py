"""Command-line front end: JSON documents in, one JSON document out.

Subcommands compose over pipes (`gicode examples u24 | gicode solve`).
Exit status: 0 affirmative (verified / found / representable), 1 certified
negative, 2 malformed input, 3 search budget exceeded, 4 internal error.
Output JSON is canonical (sorted keys, no whitespace) so repeated runs are
byte-identical.  Each subcommand is a handler `(args, doc) -> (document,
exit status)`; `main` alone reads stdin, maps exceptions to exit codes and
writes stdout, which stays empty on an error.  `_write` is the one renderer;
it renders a `GICProblem` (from `construct` or `examples`) by `to_json_text`.
"""

from __future__ import annotations

import argparse
import json
import sys

from .construct import gic_from_matroid, gic_from_polymatroid
from .gf import _json_fields
from .gic import GICProblem, IndexCode, decoding_matrix, mu, verify_code
from .instances import load
from .matroid import Matroid, SearchBudgetExceeded
from .matroid import find_representation as find_matroid_representation
from .polymatroid import DiscretePolymatroid
from .polymatroid import find_representation as find_polymatroid_representation
from .solver import BUDGET_EXCEEDED, FOUND, SearchConfig, solve_perfect_scalar_binary

EXIT_OK, EXIT_NEGATIVE, EXIT_INPUT, EXIT_BUDGET, EXIT_INTERNAL = range(5)

# Input key -> (its class, the problem it generates, its representation search).
_STRUCTURES = {
    "matroid": (Matroid, gic_from_matroid, find_matroid_representation),
    "polymatroid": (DiscretePolymatroid, gic_from_polymatroid, find_polymatroid_representation),
}


def _write(stream, document: dict) -> None:
    # One-shot json.dumps (its C encoder beats json.dump's streaming), except
    # that to_json_text renders the GICProblem under "problem", each distinct
    # column once.  "problem" sorts after every other key gicode writes.
    problem = document.get("problem")
    rest = {key: value for key, value in document.items() if key != "problem"}
    text = json.dumps(rest, sort_keys=True, separators=(",", ":"))
    if problem is not None:
        text = text[:-1] + ("," if len(text) > 2 else "") + '"problem":' + problem.to_json_text() + "}"
    stream.write(text + "\n")


def _write_side_file(path: str, document) -> None:
    """Write a --trace or --emit-witness file; a path that cannot be written is an input error."""
    try:
        with open(path, "w") as fh:
            _write(fh, document)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None


def _problem_from(doc: dict) -> GICProblem:
    return GICProblem.from_json_dict(*_json_fields(doc, "input", "problem"))


def _structure_from(doc: dict):
    """(structure, its problem builder, its representation search) of a matroid/polymatroid input."""
    for key, (cls, build, represent) in _STRUCTURES.items():
        if key in doc:
            return cls.from_json_dict(doc[key]), build, represent
    raise ValueError("input needs a 'matroid' or 'polymatroid' key")


def _examples(args, _doc):
    bundle = load(args.name)
    out = {key: bundle[key].to_json_dict() for key in ("code", "matroid", "polymatroid") if key in bundle}
    return {"name": args.name, "problem": bundle["problem"], **out}, EXIT_OK


def _construct(args, doc):
    structure, build, _ = _structure_from(doc)
    problem, trace = build(structure, n=doc.get("n", args.n))
    if args.trace:
        _write_side_file(args.trace, trace.to_json_dict())
    return {"problem": problem}, EXIT_OK


def _verify(args, doc):
    problem = _problem_from(doc)
    code = IndexCode.from_json_dict(*_json_fields(doc, "input", "code"), problem.q, problem.mn)
    report = verify_code(problem, code)
    out = report.to_json_dict()
    if args.decodings:
        out["decodings"] = [
            decoding_matrix(problem, code, i).to_columns() if ok else None
            for i, ok in enumerate(report.receiver_ok)
        ]
    return out, EXIT_OK if report.all_ok else EXIT_NEGATIVE


_SOLVE_EXIT = {FOUND: EXIT_OK, BUDGET_EXCEEDED: EXIT_BUDGET}


def _solve(args, doc):
    problem = _problem_from(doc)
    config = SearchConfig(
        normalize_y_block=not args.no_normalize,
        budget=args.budget,
        report="count" if args.count else "first",
    )
    outcome = solve_perfect_scalar_binary(problem, config)
    if args.emit_witness and outcome.witness is not None:
        _write_side_file(args.emit_witness, outcome.witness.to_json_dict())
    return outcome.to_json_dict(), _SOLVE_EXIT.get(outcome.verdict, EXIT_NEGATIVE)


def _repcheck(args, doc):
    structure, _, represent = _structure_from(doc)
    rep = represent(structure, q=args.q, budget=args.budget)
    if rep is None:
        return {"representable": False}, EXIT_NEGATIVE
    return {"representable": True, "representation": rep.to_json_dict()}, EXIT_OK


def _mu(args, doc):
    return {"mu": mu(_problem_from(doc))}, EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse, but a bad command line ends stderr with one `gicode: ...` line, exit 2.

    Subcommand parsers are built with the parent's class, so they report
    the same way.
    """

    def error(self, message):
        self.exit(EXIT_INPUT, f"gicode: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gicode",
        description="Generalized index coding toolkit (JSON in, JSON out)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        return p

    p = command("examples", _examples, "emit a bundled instance")
    p.add_argument("name", help="one of eg1, eg3, eg4, u23, u24, hamming")

    p = command("construct", _construct, "build a problem from a matroid/polymatroid")
    p.add_argument("--n", type=int, default=1, help="message dimension (default 1)")
    p.add_argument("--trace", help="write the construction trace sidecar here")

    p = command("verify", _verify, "check a code against a problem")
    p.add_argument("--decodings", action="store_true", help="include decoding matrices")

    p = command("solve", _solve, "exhaustive perfect scalar binary search")
    p.add_argument("--budget", type=int, default=1 << 22)
    p.add_argument("--no-normalize", action="store_true")
    p.add_argument("--count", action="store_true", help="count all solutions")
    p.add_argument("--emit-witness", help="also write the witness code here")

    p = command("repcheck", _repcheck, "representability over GF(q)")
    p.add_argument("--q", type=int, default=2, choices=(2, 3, 5))
    p.add_argument("--budget", type=int, default=1 << 22)

    command("mu", _mu, "rank-deficit lower bound of a problem")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = None
        if args.command != "examples":
            doc = json.load(sys.stdin)
            if not isinstance(doc, dict):
                raise ValueError("input must be a JSON object")
        out, status = args.handler(args, doc)
    except SearchBudgetExceeded as exc:
        message, status = exc, EXIT_BUDGET
    except ValueError as exc:  # json.JSONDecodeError is a ValueError
        message, status = exc, EXIT_INPUT
    except Exception as exc:  # a bug in gicode: keep its traceback for the report
        import traceback

        traceback.print_exc()
        message, status = f"internal error: {type(exc).__name__}: {exc}", EXIT_INTERNAL
    else:
        _write(sys.stdout, out)
        return status
    print(f"gicode: {message}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
