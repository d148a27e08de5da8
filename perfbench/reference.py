"""Fixed reference kernels that measure how fast the machine is right now.

The reference machine shares its host, and its speed moves between states
up to 2x apart that last from seconds to minutes.  Every job is timed
between two runs of a kernel, and its time is scaled by the kernel's
nominal time over the kernel's median time around the job: the time the
job would take while the kernel takes its nominal time.  A change to
gicode moves job times and leaves the kernel alone, so it shows in the
scaled times; a change of machine state moves both, so it cancels.

The kernels import nothing from gicode and must never change: the scaled
times of two commits are only comparable under the same kernel.  They are
made of the kinds of work gicode does: small numpy eliminations mod 2 and
mod 3; in "mixed", Python integer bit operations and dict look-ups; in
"spawn", starting two Python processes at once.
Each workload uses the kernel whose speed follows its own jobs best on the
reference machine.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

_rng = np.random.default_rng(20170111)
_MATRICES = [
    (q, _rng.integers(0, q, (rows, 10), dtype=np.int64)) for q in (2, 3) for rows in (3, 4, 5) for _ in range(6)
]


def _rref_rank(a: np.ndarray, q: int) -> int:
    m, n = a.shape
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            a[[r, p]] = a[[p, r]]
        if a[r, c] != 1:
            a[r] = a[r] * int(a[r, c]) % q  # x * x = 1 for x = 2 mod 3
        col = a[:, c].copy()
        col[r] = 0
        if np.any(col):
            a -= np.outer(col, a[r])
            a %= q
        r += 1
    return r


def _xor_basis(count: int) -> int:
    basis: dict[int, int] = {}
    for v in range(1, count):
        x = v * 2654435761 & 0xFFFF
        while x:
            top = x.bit_length() - 1
            if top not in basis:
                basis[top] = x
                break
            x ^= basis[top]
    return len(basis)


def _numpy_part() -> int:
    return sum(_rref_rank(a.copy(), q) for q, a in _MATRICES)


def _python_part() -> int:
    return _xor_basis(2500)


def _spawn_part() -> int:
    """Two interpreters started at once, as the two ends of a CLI pipe are."""
    procs = []
    try:
        for _ in range(2):
            procs.append(subprocess.Popen(
                [sys.executable, "-c", "import json"],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            ))
    finally:
        codes = [p.wait() for p in procs]
    return sum(codes)


# name: (parts, nominal time in ms).  "numpy" follows jobs that are mostly
# small numpy eliminations; "mixed" follows pure-Python search better;
# "spawn" follows work done by fresh processes (CLI pipelines and the
# set-up probes), which neither in-process kernel follows.
KERNELS = {
    "numpy": ((_numpy_part,), 2.0),
    "mixed": ((_numpy_part, _python_part), 5.0),
    "spawn": ((_spawn_part,), 50.0),
}


class Reference:
    def __init__(self, name: str):
        self.name = name
        self._parts, nominal_ms = KERNELS[name]
        self.nominal_s = nominal_ms * 1e-3
        self._expected = self._run()

    def _run(self) -> list[int]:
        return [part() for part in self._parts]

    def time(self) -> float:
        """Wall time of one run of the kernel, in seconds."""
        start = perf_counter()
        result = self._run()
        elapsed = perf_counter() - start
        if result != self._expected:
            raise RuntimeError("reference kernel gave a different result")
        return elapsed

    def scaled(self, elapsed: list[float], kernel: list[float]) -> list[float]:
        """Each time in `elapsed` at the nominal kernel speed.

        kernel[i] and kernel[i + 1] are the kernel times just before and
        just after elapsed[i].  Each is scaled by the median of the kernel
        times from two before to two after those, which follows the host's
        changes of state (seconds long) but not one slow kernel run.
        """
        assert len(kernel) == len(elapsed) + 1
        return [
            t * self.nominal_s / statistics.median(kernel[max(0, i - 2) : i + 4])
            for i, t in enumerate(elapsed)
        ]
