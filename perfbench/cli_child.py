"""One gicode CLI command with spans recorded inside it (traced cli runs).

Usage: python perfbench/cli_child.py SUBCOMMAND [ARGS...] < input

Stdout and the exit code are exactly those of `python -m gicode.cli`.  On
exit, one line `PERFBENCH_TRACE {json}` on stderr reports the import time,
the wall time since the parent spawned this process (PERFBENCH_SPAWN, a
perf_counter reading; Linux's monotonic clock is shared by processes), the
span summary, the counters and the stdout byte count.
"""

import json
import os
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

start = perf_counter()
import gicode.cli  # noqa: E402

import_s = perf_counter() - start

from tracing import Tracer, gicode_targets, summarize  # noqa: E402


class CountingStdout:
    def __init__(self, stream):
        self.stream = stream
        self.bytes = 0

    def write(self, text):
        self.bytes += len(text.encode())
        return self.stream.write(text)

    def __getattr__(self, name):
        return getattr(self.stream, name)


def main() -> int:
    dumps = json.dumps
    tracer = Tracer()
    tracer.install(gicode_targets())
    tracer.install([(json, "loads", "cli.json.parse", None), (json, "dumps", "cli.json.emit", None)])
    stdout = sys.stdout = CountingStdout(sys.stdout)
    command = sys.argv[1] if len(sys.argv) > 1 else "none"
    code = tracer.call(f"cli.{command}", gicode.cli.main, sys.argv[1:])
    stdout.flush()
    tracer.uninstall()
    report = {
        "command": command,
        "import_s": import_s,
        "wall_s": perf_counter() - float(os.environ["PERFBENCH_SPAWN"]),
        "spans": summarize(tracer.spans),
        "counters": dict(tracer.counters),
        "stdout_bytes": stdout.bytes,
    }
    sys.stderr.write("PERFBENCH_TRACE " + dumps(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
