"""Spans and counters recorded from outside gicode, around its public calls.

Nothing in gicode changes: a traced run replaces the public entry points
of each module with wrappers that record (name, start, end, parent, job)
and restores them afterwards.  The packed `bits_*` helpers are left alone
because they run millions of times per solve; their work is counted through
the solver's `candidates_tested` instead.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    """In-memory span recorder.  Spans nest by call order (one thread)."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1, job id)
        self.counters: dict[str, float] = defaultdict(float)
        self.job = None
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, fn, name, count=None):
        spans, stack, counters = self.spans, self._stack, self.counters

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job)
            if count is not None:
                count(counters, end - start, args, result)
            return result

        return traced

    def call(self, name, fn, *args):
        return self.wrap(fn, name)(*args)

    def install(self, targets):
        """Wrap each (owner, attribute, span name, counter) target.

        A module-level function is replaced in its own module and under
        every name a gicode module binds it to (``from .gic import mu``).
        """
        for owner, attr, name, count in targets:
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(owner, attr, classmethod(self.wrap(raw.__func__, name, count)))
                continue
            wrapped = self.wrap(raw, name, count)
            self._set(owner, attr, wrapped)
            if isinstance(owner, type):
                continue
            for modname, mod in list(sys.modules.items()):
                if mod is owner or not (modname == "gicode" or modname.startswith("gicode.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._set(mod, key, wrapped)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def summarize(spans) -> dict:
    """Per span name: [calls, busy seconds, self seconds].

    Self time is a span's duration minus the time its child spans cover;
    children of one span run one after another, so their durations add.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, list] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - covered[i]
    return out


def merge(into: dict, summary: dict) -> None:
    for name, row in summary.items():
        acc = into.setdefault(name, [0, 0.0, 0.0])
        for i, v in enumerate(row):
            acc[i] += v


# -- what is wrapped ----------------------------------------------------------


def _gf_counter(cells):
    def count(counters, dur, args, result):
        counters["gf.elim.cells"] += cells(*args)
        if args[0].q == 2:
            counters["gf.elim.q2_s"] += dur

    return count


def _receivers(counters, dur, args, result):
    counters["construct.receivers_emitted"] += len(result[0].receivers)


def _subsets(counters, dur, args, result):
    counters["matroid.from_matrix.subsets"] += (1 << args[1].cols) - 1


def _verified(counters, dur, args, result):
    counters["gic.verify_code.receivers"] += len(args[0].receivers)


def _solved(counters, dur, args, result):
    counters["solver.candidates"] += result.candidates_tested
    counters["solver.verdicts"] += 1
    if result.verdict == "none_exists":
        counters["solver.exhaust_s"] += dur


def gicode_targets() -> list:
    """Public entry points of every gicode module, with their counters."""
    from gicode import construct, gf, gic, instances, matroid, polymatroid, solver

    fm = gf.FieldMatrix
    return [
        (fm, "rank", "gf.rank", _gf_counter(lambda a: a.rows * a.cols)),
        (fm, "rref", "gf.rref", _gf_counter(lambda a: a.rows * a.cols)),
        (fm, "invert", "gf.invert", _gf_counter(lambda a: 2 * a.rows * a.cols)),
        (fm, "solve_right", "gf.solve_right", _gf_counter(lambda a, b: a.rows * (a.cols + b.cols))),
        (gf, "in_column_span", "gf.in_column_span", _gf_counter(lambda a, b: a.rows * (a.cols + b.cols))),
        (matroid.Matroid, "from_matrix", "matroid.from_matrix", _subsets),
        (matroid, "find_representation", "matroid.find_representation", None),
        (polymatroid.DiscretePolymatroid, "from_subspaces", "polymatroid.from_subspaces", None),
        (polymatroid, "find_representation", "polymatroid.find_representation", None),
        (construct, "gic_from_matroid", "construct.gic_from_matroid", _receivers),
        (construct, "gic_from_polymatroid", "construct.gic_from_polymatroid", _receivers),
        (construct, "code_from_matroid_rep", "construct.code_from_matroid_rep", None),
        (construct, "matroid_rep_from_code", "construct.extract", None),
        (construct, "polymatroid_rep_from_code", "construct.extract", None),
        (gic, "verify_code", "gic.verify_code", _verified),
        (gic, "mu", "gic.mu", None),
        (gic, "check_c1_c2", "gic.check_c1_c2", None),
        (solver, "solve_perfect_scalar_binary", "solver.solve", _solved),
        (instances, "load", "instances.load", None),
    ]
