"""Traced CLI process for the cli_cold workload.

    python bench/launcher.py SPANS_JSON <beltrami-growth arguments...>

Imports the package, installs the benchmark's span wrappers, runs
``cli.main`` on the remaining arguments and writes the spans to SPANS_JSON.
The package import itself is recorded as the top-level span
``launcher.import``; the time before this file's first statement and after
the spans are written is interpreter start-up and shutdown.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from beltrami_growth import cli  # noqa: E402

IMPORTED = time.perf_counter()

import tracing  # noqa: E402  (found next to this file: sys.path[0])


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.op = 0
    try:
        # cli.main is looked up after install, so its span is recorded too
        return cli.main(argv)
    finally:
        tracer.op = None
        tracer.spans.append(["launcher.import", START, IMPORTED, -1, 0, None])
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    raise SystemExit(main())
